"""Fixed-seed artifacts stay byte-stable.

Pins the SHA-256 of `tracelog.json`, `bn.json` and `predictions.json`, as
`save_run` writes them, for s1, s2 and the benchmark's dense scenario at
seeds 0 and 1 and 60 MCTS iterations. dense is the one scenario whose rollouts
differ per joint sample. A change that moves a hash changes planning or
recognition behaviour, or the run-directory format, and must say why in
CHANGES.md.

Also checks that `load_run` rebuilds, from the run directory alone, the
model the planning run built in memory.
"""

import os

import pytest

from whyplan.pipeline import file_sha256, load_run, planner_config, run_pipeline, save_run
from whyplan.scenario import load_scenario

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SCENARIOS = {"s1": os.path.join(ROOT, "scenarios", "s1.json"),
             "s2": os.path.join(ROOT, "scenarios", "s2.json"),
             "dense": os.path.join(ROOT, "benchmarks", "scenarios", "dense.json")}

PINNED = {
    ("s1", 0): ("f469942e86bb83f40718f5b046aba19ce9babb68698aacefcac4e2daf9e32b5e",
                "453b1cbea38f32b39bee0acd5c6f68e2856ae0918669d2ff746c77e5739a1cff",
                "96eee015727237be3cd87797960c2b41ad72b5903e02c146ec8535ce4462dc06"),
    ("s2", 0): ("4b3b913e18f3fd9b806fbb07bcec216f203debe40104bb0ab4578be421e38ded",
                "6bac6965a3b6a43f858a749ee808bb44f606cdb56b87ab6eded32b2cbb88219a",
                "0d64d96579b98c682fc5656253cc5808c0b572283ec7f5534246c7107da80806"),
    ("dense", 0): ("8bd5e8402c25db81bc46fd203dbc24c8791bb195b7059c09bd2bd1ae0a3a8c18",
                   "95d613ff3439890800f9145ba4983a1f796ca8559e04311b07a02d8bc0e1e9a0",
                   "d39830ab6e193f826fa0e6c0392ca6c3d301155971ed99c08ff505050028c672"),
    ("s1", 1): ("ef7b33c01e1b4f45b1ac9c03cacfdb29152752f8d82864dca24b4978c04dfb81",
                "8d005265dbebd3a81ffbab487da015ccab27c8900084631a444e03bcad252000",
                "3dd16eddf62adb372ca4575deb4e05c5cadca45798b57ea0d869fe346437aa9f"),
    ("s2", 1): ("754943fb03d1b7dd7e88619305a2184fbf2fc8aaae279e5221b5ef741a34bb56",
                "030707c7af4560c22b1c6f882aef7f5d4517d354fa9d3b65f249001bccd2a730",
                "290d9b16bd4c5b7fb3718d016f994ce37019b87ab32b442b523a50f725dd1e6f"),
    ("dense", 1): ("7b35b6571a27124b80c4a216a02e13813ff24006c2005a50dead4054aa64daad",
                   "2505dd3835afcd0c2a57d53c4120a6e10c0235a08bf186f09089ff086e191f6c",
                   "3c77b3571fb5d1439c8ae0036ec1c3ee4472a421bcf5aab985adbd3c703000c0"),
}


@pytest.mark.parametrize("name,seed", sorted(PINNED))
def test_run_artifacts_match_pinned_sha256(tmp_path, name, seed):
    path = SCENARIOS[name]
    scenario = load_scenario(path)
    pipe = run_pipeline(scenario, seed, planner=planner_config(scenario, seed, iterations=60))
    save_run(str(tmp_path), path, pipe)
    got = tuple(file_sha256(tmp_path / name)
                for name in ("tracelog.json", "bn.json", "predictions.json"))
    assert got == PINNED[(name, seed)]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_reloaded_model_equals_the_in_memory_model(tmp_path, name, seed):
    path = SCENARIOS[name]
    scenario = load_scenario(path)
    pipe = run_pipeline(scenario, seed, planner=planner_config(scenario, seed, iterations=60))
    save_run(str(tmp_path), path, pipe)
    run = load_run(str(tmp_path))
    assert run.plan == pipe.mcts.plan and run.reward == pipe.reward
    got, want = run.model, pipe.model
    assert got.trace_log == want.trace_log
    for attr in ("sel", "reach", "support", "nodes", "_signatures", "trace_weights", "rows",
                 "omega_support"):
        assert getattr(got, attr) == getattr(want, attr), attr

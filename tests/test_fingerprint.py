"""Fixed-seed artifacts stay byte-stable.

Pins the SHA-256 of `tracelog.json`, `bn.json` and `predictions.json`, as
`save_run` writes them, for s1, s2 and the benchmark's dense scenario at
seed 0 and 60 MCTS iterations. dense is the one scenario whose rollouts
differ per joint sample. A change that moves a hash changes planning or
recognition behaviour, or the run-directory format, and must say why in
CHANGES.md.
"""

import os

import pytest

from whyplan.pipeline import file_sha256, planner_config, run_pipeline, save_run
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

"""Fixed-seed artifacts stay byte-stable.

Pins the SHA-256 of `tracelog.json`, `bn.json` and `predictions.json`, as
`save_run` writes them, for s1, s2 and the benchmark's dense scenario at
seeds 0 and 1 and 60 MCTS iterations. dense is the one scenario whose rollouts
differ per joint sample. A change that moves a hash changes planning or
recognition behaviour, or the run-directory format, and must say why in
CHANGES.md.

Also checks that `load_run` rebuilds, from the run directory alone, the
model the planning run built in memory, down to the `bn.json` bytes.
"""

import json
import os
import tempfile
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from whyplan.bayes_net import build_bn, model_to_dict
from whyplan.mcts import PlannerConfig, RewardConfig, TraceTable
from whyplan.pipeline import file_sha256, load_run, planner_config, run_pipeline, save_run
from whyplan.scenario import load_scenario

from conftest import random_trace_log

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SCENARIOS = {"s1": os.path.join(ROOT, "scenarios", "s1.json"),
             "s2": os.path.join(ROOT, "scenarios", "s2.json"),
             "dense": os.path.join(ROOT, "benchmarks", "scenarios", "dense.json")}

PINNED = {
    ("s1", 0): ("e371c95684c7077f25000003d9084ce8b083ea2a1969f54dfdafe3e8cc1bd6a2",
                "453b1cbea38f32b39bee0acd5c6f68e2856ae0918669d2ff746c77e5739a1cff",
                "96eee015727237be3cd87797960c2b41ad72b5903e02c146ec8535ce4462dc06"),
    ("s2", 0): ("29b9621fd86c662b543b0b381f8be270af7983f29a0b624d8e6f8c92fbc01bdc",
                "6bac6965a3b6a43f858a749ee808bb44f606cdb56b87ab6eded32b2cbb88219a",
                "0d64d96579b98c682fc5656253cc5808c0b572283ec7f5534246c7107da80806"),
    ("dense", 0): ("7765803f4fe6a83316ddf421e7a2e80970c0d608711662c1677cfdc59be0d072",
                   "95d613ff3439890800f9145ba4983a1f796ca8559e04311b07a02d8bc0e1e9a0",
                   "d39830ab6e193f826fa0e6c0392ca6c3d301155971ed99c08ff505050028c672"),
    ("s1", 1): ("1c2e0385cb90633bc19f4a5f374973827bec138c02dd7ad7e8aafc6e12e398b5",
                "8d005265dbebd3a81ffbab487da015ccab27c8900084631a444e03bcad252000",
                "3dd16eddf62adb372ca4575deb4e05c5cadca45798b57ea0d869fe346437aa9f"),
    ("s2", 1): ("0c09ece498c7a63ed095d99b733d7abaf7d655471635a121948653347250f2d6",
                "030707c7af4560c22b1c6f882aef7f5d4517d354fa9d3b65f249001bccd2a730",
                "290d9b16bd4c5b7fb3718d016f994ce37019b87ab32b442b523a50f725dd1e6f"),
    ("dense", 1): ("ea2acba5314e2baccaafe14b9865a94386e5c213f0cd6f442e86ea0e82873ce4",
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
    assert got.table == want.table
    for attr in ("sel", "reach", "support", "nodes", "_signatures", "trace_weights", "rows",
                 "omega_support"):
        assert getattr(got, attr) == getattr(want, attr), attr
    # The export of the reloaded model, with its support found on first use,
    # is the bn.json the planning run wrote.
    text = json.dumps(model_to_dict(load_run(str(tmp_path)).model), indent=1,
                      sort_keys=True) + "\n"
    assert text == (tmp_path / "bn.json").read_text()


# random_trace_log's actions, renamed to macro names so that load_run accepts them.
MACRO_OF = {"A": "Continue", "B": "Change-left", "C": "Stop"}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d_max=st.integers(1, 4),
       n_vehicles=st.integers(1, 3), iterations=st.integers(1, 40))
def test_trace_table_survives_the_run_directory(seed, d_max, n_vehicles, iterations):
    records, goal_probs, traj_probs, d_max = random_trace_log(
        seed, d_max=d_max, n_vehicles=n_vehicles, iterations=iterations)
    records = [rec._replace(macros=tuple(MACRO_OF[a] for a in rec.macros)) for rec in records]
    traj_macros = {vid: {gs: ("Continue",) for gs in opts} for vid, opts in traj_probs.items()}
    model = build_bn(TraceTable.from_records(records), goal_probs, traj_probs, d_max,
                     traj_macros=traj_macros)
    pipe = SimpleNamespace(scenario=SimpleNamespace(name="random"), seed=seed,
                           planner=PlannerConfig(iterations=iterations, max_depth=d_max),
                           reward=RewardConfig(), mcts=SimpleNamespace(plan=records[0].macros),
                           model=model)
    with tempfile.TemporaryDirectory() as run_dir:
        save_run(run_dir, __file__, pipe)  # any file stands in for the scenario
        got = load_run(run_dir).model
    assert got.table == model.table
    for attr in ("sel", "reach", "support", "trace_weights", "rows"):
        assert getattr(got, attr) == getattr(model, attr), attr
    assert ({omega: node.means for omega, node in got.nodes.items()}
            == {omega: node.means for omega, node in model.nodes.items()})

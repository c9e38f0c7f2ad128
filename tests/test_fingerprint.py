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

import dataclasses
import json
import os
import tempfile
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from whyplan.bayes_net import build_bn, model_to_dict
from whyplan.mcts import OUTCOME_REQUIRED, REWARD_COMPONENTS, PlannerConfig, RewardConfig
from whyplan.pipeline import file_sha256, load_run, planner_config, run_pipeline, save_run
from whyplan.scenario import load_scenario

from conftest import REPO_ROOT, random_trace_log

SCENARIOS = {"s1": os.path.join(REPO_ROOT, "scenarios", "s1.json"),
             "s2": os.path.join(REPO_ROOT, "scenarios", "s2.json"),
             "dense": os.path.join(REPO_ROOT, "benchmarks", "scenarios", "dense.json")}

PINNED = {
    ("s1", 0): ("4670c163776fb3dae4c1d0364ebf6cd295259d85c6a43271b2d6510a6fd50d54",
                "453b1cbea38f32b39bee0acd5c6f68e2856ae0918669d2ff746c77e5739a1cff",
                "96eee015727237be3cd87797960c2b41ad72b5903e02c146ec8535ce4462dc06"),
    ("s2", 0): ("6e0c5cddbd4451e98bb7eb139bee532da685572b424db32a53bf154dabc66773",
                "6bac6965a3b6a43f858a749ee808bb44f606cdb56b87ab6eded32b2cbb88219a",
                "0d64d96579b98c682fc5656253cc5808c0b572283ec7f5534246c7107da80806"),
    ("dense", 0): ("dff04d30e243a862a263898f8bb5d89011fe2a30460642efac848cd67e302638",
                   "95d613ff3439890800f9145ba4983a1f796ca8559e04311b07a02d8bc0e1e9a0",
                   "d39830ab6e193f826fa0e6c0392ca6c3d301155971ed99c08ff505050028c672"),
    ("s1", 1): ("bc587ab0d113da5ec34078cc971c24517026099cc8379d5259ceab78a88df683",
                "8d005265dbebd3a81ffbab487da015ccab27c8900084631a444e03bcad252000",
                "3dd16eddf62adb372ca4575deb4e05c5cadca45798b57ea0d869fe346437aa9f"),
    ("s2", 1): ("8ab9bbca4b4fa5376890870b5fdddd7a9688774280ae937ff7265d0ddec4e661",
                "030707c7af4560c22b1c6f882aef7f5d4517d354fa9d3b65f249001bccd2a730",
                "290d9b16bd4c5b7fb3718d016f994ce37019b87ab32b442b523a50f725dd1e6f"),
    ("dense", 1): ("d5dc55681584fbee32449a60a491b69311ed3419604b9148ab73d1aee26a9c5a",
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


@pytest.fixture(scope="module")
def planned():
    """(scenario name, seed, iterations) -> its pipeline result, planned once."""
    cache: dict = {}

    def plan(name, seed, iterations):
        if (name, seed, iterations) not in cache:
            scenario = load_scenario(SCENARIOS[name])
            cache[(name, seed, iterations)] = run_pipeline(
                scenario, seed, planner=planner_config(scenario, seed, iterations=iterations))
        return cache[(name, seed, iterations)]
    return plan


RUNS = [(name, seed, iterations) for name in sorted(SCENARIOS) for seed in (0, 1)
        for iterations in (60, 300)]


@pytest.mark.parametrize("name,seed,iterations", RUNS)
def test_planned_trace_table_invariants(planned, name, seed, iterations):
    # The search fills the table as it goes: one record per iteration, each
    # (sample, macros) pair one signature, added the first time it ends.
    table = planned(name, seed, iterations).mcts.table
    assert len(table) == iterations
    pairs = list(zip(table.assignment, table.macros))
    assert len(set(pairs)) == len(pairs) < iterations  # signatures repeat
    columns = (table.outcome, table.collider, *table.components.values())
    assert {len(column) for column in columns} == {len(pairs)}
    assert list(dict.fromkeys(table.record)) == list(range(len(pairs)))
    assert list(dict.fromkeys(table.macros)) == list(range(len(table.macro_sequences)))
    for j, outcome in enumerate(table.outcome):
        present = {c for c, column in table.components.items() if column[j] is not None}
        assert present == set(OUTCOME_REQUIRED[outcome]), j


@pytest.mark.parametrize("name,seed,iterations", RUNS)
def test_trace_table_expands_to_the_trace_log(planned, name, seed, iterations):
    # The benchmark tracer's view: iteration i is signature record[i] of the
    # table, as its sorted (vehicle, goal, trajectory) sample and its macros.
    pipe = planned(name, seed, iterations)
    table = pipe.mcts.table
    expanded = [(tuple(sorted(zip(table.vehicles, table.assignment[j][::2],
                                  table.assignment[j][1::2]))),
                 table.macro_sequences[table.macros[j]]) for j in table.record]
    assert [(it.assignment_key(), it.macros) for it in pipe.mcts.trace_log] == expanded


# At 60 iterations test_reloaded_model_equals_the_in_memory_model checks this too.
@pytest.mark.parametrize("name,seed,iterations", [run for run in RUNS if run[2] == 300])
def test_reloaded_model_exports_the_saved_bn_json(planned, tmp_path, name, seed, iterations):
    save_run(str(tmp_path), SCENARIOS[name], planned(name, seed, iterations))
    text = json.dumps(model_to_dict(load_run(str(tmp_path)).model), indent=1,
                      sort_keys=True) + "\n"
    assert text == (tmp_path / "bn.json").read_text()


# random_trace_log's actions, renamed to macro names so that load_run accepts them.
MACRO_OF = {"A": "Continue", "B": "Change-left", "C": "Stop"}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d_max=st.integers(1, 4),
       n_vehicles=st.integers(1, 3), iterations=st.integers(1, 40))
def test_trace_table_survives_the_run_directory(seed, d_max, n_vehicles, iterations):
    table, goal_probs, traj_probs, d_max = random_trace_log(
        seed, d_max=d_max, n_vehicles=n_vehicles, iterations=iterations)
    table = dataclasses.replace(table, macro_sequences=[
        tuple(MACRO_OF[a] for a in macros) for macros in table.macro_sequences])
    traj_macros = {vid: {gs: ("Continue",) for gs in opts} for vid, opts in traj_probs.items()}
    model = build_bn(table, goal_probs, traj_probs, d_max, traj_macros=traj_macros)
    pipe = SimpleNamespace(scenario=SimpleNamespace(name="random"), seed=seed,
                           planner=PlannerConfig(iterations=iterations, max_depth=d_max),
                           reward=RewardConfig(),
                           mcts=SimpleNamespace(plan=table.macro_sequences[0]), model=model)
    with tempfile.TemporaryDirectory() as run_dir:
        save_run(run_dir, __file__, pipe)  # any file stands in for the scenario
        got = load_run(run_dir).model
    assert got.table == model.table
    for attr in ("sel", "reach", "support", "trace_weights", "rows"):
        assert getattr(got, attr) == getattr(model, attr), attr
    assert ([got.reward_stats(omega, c) for omega in got.nodes for c in REWARD_COMPONENTS]
            == [model.reward_stats(omega, c) for omega in model.nodes for c in REWARD_COMPONENTS])

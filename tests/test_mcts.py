import dataclasses
import functools
import re
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import whyplan.mcts as mcts_mod
import whyplan.pipeline as pipeline_mod
import whyplan.recognition as recognition_mod
from whyplan.errors import ScenarioValidationError
from whyplan.maneuvers import (Trajectory, applicable_macros, concat_trajectories,
                               extract_features)
from whyplan.mcts import (MAX_DEPTH_BOUND, OUTCOME_REQUIRED, PlannerConfig, RewardConfig,
                          SearchTree, run_mcts, terminal_reward)
from whyplan.pipeline import planner_config, run_pipeline, true_goal_plans
from whyplan.recognition import enumerate_plans, predict_all
from whyplan.scenario import (JointState, goal_contains, lane_point_state, load_scenario,
                              sample_initial_states, scenario_from_dict)
from whyplan.simulation import FixedTraffic, observe, simulate_step

from conftest import mini_scenario_dict


@pytest.fixture(scope="module")
def mini_pipe():
    sc = scenario_from_dict(mini_scenario_dict())
    return run_pipeline(sc, seed=5, planner=PlannerConfig(iterations=80, max_depth=3, seed=5,
                                                          exploration=0.5))


def test_config_validation():
    with pytest.raises(ScenarioValidationError):
        PlannerConfig(iterations=0)
    with pytest.raises(ScenarioValidationError):
        PlannerConfig(max_depth=0)
    PlannerConfig(max_depth=MAX_DEPTH_BOUND)
    with pytest.raises(ScenarioValidationError, match=re.escape(
            f"max_depth is {MAX_DEPTH_BOUND + 1}, not an integer in [1, {MAX_DEPTH_BOUND}]")):
        PlannerConfig(max_depth=MAX_DEPTH_BOUND + 1)
    with pytest.raises(ScenarioValidationError):
        RewardConfig(weights={"time": -1.0})
    with pytest.raises(ScenarioValidationError):
        RewardConfig(weights={**RewardConfig().weights, "collision": 5.0})


def test_single_applicable_macro_gets_all_visits(monkeypatch):
    sc = scenario_from_dict(mini_scenario_dict())
    monkeypatch.setattr(mcts_mod, "applicable_macros",
                        lambda *a, **k: ["Continue"])
    init = sample_initial_states(sc, 0)
    plans, from_start = true_goal_plans(sc, init)
    prefixes, _ = observe(sc, init, plans)
    predictions = predict_all(sc, prefixes, from_start)
    res = run_mcts(sc, init, PlannerConfig(iterations=25, max_depth=1, seed=0), predictions)
    root = res.tree.nodes[()]
    assert set(root.actions) == {"Continue"}
    assert root.actions["Continue"][0] == 25
    assert root.visits == 25


def test_exactly_one_record_per_iteration(mini_pipe):
    assert len(mini_pipe.mcts.table) == len(mini_pipe.mcts.trace_log) == 80


def test_tree_visit_counts_are_consistent(mini_pipe):
    tree = mini_pipe.mcts.tree
    for key, node in tree.nodes.items():
        assert node.visits == sum(n for n, _ in node.actions.values())
        for _, q in node.actions.values():
            assert math.isfinite(q)


def test_every_trace_prefix_exists_in_tree(mini_pipe):
    tree = mini_pipe.mcts.tree
    for macros in mini_pipe.mcts.table.macro_sequences:
        prefix = ()
        for action in macros:
            assert prefix in tree.nodes
            assert action in tree.nodes[prefix].actions
            prefix = prefix + (action,)


def test_records_have_exactly_one_outcome_and_consistent_components(mini_pipe):
    table = mini_pipe.mcts.table
    for j, outcome in enumerate(table.outcome):
        present = {c for c, column in table.components.items() if column[j] is not None}
        assert present == set(OUTCOME_REQUIRED[outcome])
        assert len(table.macro_sequences[table.macros[j]]) <= 3
        assert math.isfinite(table.reward[j])


def test_same_seed_gives_bit_identical_trace_log():
    sc = scenario_from_dict(mini_scenario_dict())
    cfg = PlannerConfig(iterations=40, max_depth=2, seed=11, exploration=0.5)
    a = run_pipeline(sc, 11, planner=cfg)
    b = run_pipeline(sc, 11, planner=cfg)
    assert a.mcts.table == b.mcts.table
    assert a.mcts.plan == b.mcts.plan
    c = run_pipeline(sc, 12, planner=PlannerConfig(iterations=40, max_depth=2, seed=12,
                                                   exploration=0.5))
    assert a.mcts.table != c.mcts.table


# --- rollout memoisation ---------------------------------------------------------

SHIPPED_RUNS = [(name, seed) for name in ("s1", "s2") for seed in (0, 1)]
ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SCENARIO_PATHS = {"s1": os.path.join(ROOT, "scenarios", "s1.json"),
                  "s2": os.path.join(ROOT, "scenarios", "s2.json"),
                  "dense": os.path.join(ROOT, "benchmarks", "scenarios", "dense.json")}


def shipped_pipe(name, seed, iterations=60):
    sc = load_scenario(f"scenarios/{name}.json")
    return run_pipeline(sc, seed, planner=planner_config(sc, seed, iterations=iterations))


def full_scan_features(traj, goal, layout, start=0):
    """`extract_features` scanning for the goal from the first state, whatever the start."""
    return extract_features(traj, goal, layout)


def signatures(table):
    """Each signature of `table` as its (assignment row, macro tuple)."""
    return [(row, table.macro_sequences[m]) for row, m in zip(table.assignment, table.macros)]


def assert_records_match_uncached_rollouts(pipe, start, table):
    """Replay every signature once, without memo or projection table, one
    fresh table-less `FixedTraffic` each, and compare what it observed.

    The replay's reward scans the whole trajectory for the goal, and a "done"
    rollout must enter the goal first at its last state: the search scans
    only that state."""
    sc = pipe.scenario
    for j, (row, macros) in enumerate(signatures(table)):
        traffic = FixedTraffic(sc.layout, {
            vid: pipe.predictions[vid].options[g][s].trajectory
            for vid, g, s in zip(table.vehicles, row[::2], row[1::2])})
        state, parts, step = start, [], None
        for macro in macros:
            assert step is None or step.outcome is None
            step = simulate_step(sc, state, macro, traffic)
            parts.append(step.ego_trajectory)
            state = step.next_state
        outcome = step.outcome or "termination"
        traj = concat_trajectories(parts)
        with mock.patch.object(mcts_mod, "extract_features", full_scan_features):
            reward, comps = terminal_reward(traj, outcome, pipe.reward, sc.ego_goal, sc.layout)
        if outcome == "done":
            inside = [goal_contains(sc.layout, sc.ego_goal, x, y)
                      for x, y in zip(traj.xs, traj.ys)]
            assert inside.index(True) == len(traj) - 1, j
        assert (outcome, step.collider, len(traj) - 1, reward, comps) == (
            table.outcome[j], table.collider[j], table.steps[j], table.reward[j],
            {c: column[j] for c, column in table.components.items()}), j


@pytest.mark.parametrize("name,seed", SHIPPED_RUNS)
def test_memoised_records_match_uncached_rollouts(name, seed):
    pipe = shipped_pipe(name, seed)
    assert_records_match_uncached_rollouts(pipe, pipe.planning_state, pipe.mcts.table)


@functools.lru_cache(maxsize=None)
def seed0_pipe(name):
    """A scenario's seed-0 predictions and planning state (the search is not used)."""
    sc = load_scenario(SCENARIO_PATHS[name])
    return run_pipeline(sc, 0, planner=planner_config(sc, 0, iterations=1))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_memoised_records_match_uncached_rollouts_from_generated_starts(data):
    """The ego starts anywhere on any lane of s1/s2/dense, at any speed."""
    pipe = seed0_pipe(data.draw(st.sampled_from(sorted(SCENARIO_PATHS)), label="scenario"))
    sc = pipe.scenario
    lane = data.draw(st.sampled_from(sorted(sc.layout.lanes)), label="lane")
    s = data.draw(st.floats(0.0, sc.layout.lanes[lane].midline.length), label="arc length")
    speed = data.draw(st.floats(0.0, 1.2 * sc.target_speed), label="speed")
    ego = lane_point_state(sc.layout, lane, s, speed)
    start = JointState(t=pipe.planning_state.t,
                       vehicles={**pipe.planning_state.vehicles, sc.ego_id: ego})
    config = PlannerConfig(iterations=24, max_depth=3, seed=data.draw(st.integers(0, 3)),
                           exploration=pipe.planner.exploration)
    res = run_mcts(sc, start, config, pipe.predictions, reward_config=pipe.reward)
    assert_records_match_uncached_rollouts(pipe, start, res.table)


def test_each_sample_and_prefix_is_simulated_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return simulate_step(*args, **kwargs)

    monkeypatch.setattr(mcts_mod, "simulate_step", counting)
    pipe = shipped_pipe("s1", 0)
    table = pipe.mcts.table
    sigs = signatures(table)
    keys = {(row, macros[:d]) for row, macros in sigs for d in range(1, len(macros) + 1)}
    assert len(calls) == len(keys) < sum(len(sigs[j][1]) for j in table.record)


def test_root_applicable_macros_is_computed_once_per_search(monkeypatch):
    states = []

    def counting(state, *args, **kwargs):
        states.append(state)
        return applicable_macros(state, *args, **kwargs)

    monkeypatch.setattr(mcts_mod, "applicable_macros", counting)
    pipe = shipped_pipe("s1", 0)
    sigs = signatures(pipe.mcts.table)
    assert len({row for row, _ in sigs}) > 1
    assert sum(state is pipe.planning_state for state in states) == 1
    # Below the root, once per (joint sample, prefix) the search selects at.
    keys = {(row, macros[:d]) for row, macros in sigs for d in range(1, len(macros))}
    assert len(states) == 1 + len(keys)


# --- simulate_step ---------------------------------------------------------------


def head_on_traffic(sc, ego_state, dt):
    """A vehicle driving straight at the ego along the same lane."""
    n = 200
    xs = np.linspace(ego_state.x + 30.0, ego_state.x + 30.0 - 0.8 * n, n + 1)
    traj = Trajectory(dt=dt, xs=xs, ys=np.zeros(n + 1), headings=np.full(n + 1, math.pi),
                      speeds=np.full(n + 1, 8.0))
    return FixedTraffic(sc.layout, {"v1": traj})


def test_simulate_step_detects_collision_and_collider():
    sc = scenario_from_dict(mini_scenario_dict())
    ego = lane_point_state(sc.layout, "right", 10.0, 10.0)
    state = JointState(t=0, vehicles={"ego": ego})
    res = simulate_step(sc, state, "Continue", head_on_traffic(sc, ego, sc.dt))
    assert res.outcome == "collision"
    assert res.collider == "v1"


def test_simulate_step_reaches_goal():
    sc = scenario_from_dict(mini_scenario_dict())
    ego = lane_point_state(sc.layout, "right", 10.0, 10.0)
    state = JointState(t=0, vehicles={"ego": ego})
    res = simulate_step(sc, state, "Continue", FixedTraffic(sc.layout, {}))
    assert res.outcome == "done"


def test_horizon_exhaustion_is_termination():
    sc = scenario_from_dict(mini_scenario_dict())
    ego = lane_point_state(sc.layout, "right", 10.0, 10.0)
    state = JointState(t=0, vehicles={"ego": ego})
    short = dataclasses.replace(sc, horizon=40)  # too short to reach
    res = simulate_step(short, state, "Continue", FixedTraffic(short.layout, {}))
    assert res.outcome == "termination"


@pytest.mark.parametrize("target", [6.0, 10.0])
def test_target_speed_reaches_every_integrator(monkeypatch, target):
    """Observation, recognition and MCTS rollouts all cruise at the scenario's
    target speed: at 6 m/s no trajectory of any kind is faster, at 10 m/s
    each kind is."""
    raw = mini_scenario_dict()
    raw["target_speed_mps"] = target
    raw["observation_steps"] = 30
    for spec in raw["vehicles"]:
        spec["speed_range_mps"] = [3.0, 6.0]
    sc = scenario_from_dict(raw)
    candidates, rollouts = [], []

    def recording_enumerate(*args):
        per_goal = enumerate_plans(*args)
        candidates.extend(c.trajectory for cands in per_goal for c in cands)
        return per_goal

    def recording_step(*args):
        step = simulate_step(*args)
        rollouts.append(step.ego_trajectory)
        return step

    monkeypatch.setattr(recognition_mod, "enumerate_plans", recording_enumerate)
    monkeypatch.setattr(pipeline_mod, "enumerate_plans", recording_enumerate)
    monkeypatch.setattr(mcts_mod, "simulate_step", recording_step)
    pipe = run_pipeline(sc, 0, planner=PlannerConfig(iterations=30, max_depth=3, seed=0))
    options = [o.trajectory for pred in pipe.predictions.vehicles.values()
               for opts in pred.options.values() for o in opts]
    for kind, trajs in (("observed", list(pipe.prefixes.values())), ("candidate", candidates),
                        ("predicted", options), ("rollout", rollouts)):
        assert trajs, kind
        top = max(max(traj.speeds) for traj in trajs)
        if target == 6.0:
            assert top <= 6.0 + 1e-9, kind
        else:
            assert top > 6.5, kind


# --- terminal rewards -------------------------------------------------------------


def flat_trajectory(n=60, speed=10.0):
    return Trajectory(dt=0.1, xs=np.arange(n) * speed * 0.1, ys=np.zeros(n),
                      headings=np.zeros(n), speeds=np.full(n, speed))


def test_collision_reward_sets_exactly_one_component():
    sc = scenario_from_dict(mini_scenario_dict())
    r, comps = terminal_reward(flat_trajectory(), "collision", RewardConfig(),
                               sc.ego_goal, sc.layout)
    present = [c for c, v in comps.items() if v is not None]
    assert present == ["collision"]
    assert r == -100.0


def test_done_reward_sets_exactly_four_components():
    sc = scenario_from_dict(mini_scenario_dict())
    r, comps = terminal_reward(flat_trajectory(), "done", RewardConfig(),
                               sc.ego_goal, sc.layout)
    present = {c for c, v in comps.items() if v is not None}
    assert present == {"time", "jerk", "angular_acceleration", "curvature"}
    assert r < 0


def test_termination_reward_is_the_termination_weight():
    sc = scenario_from_dict(mini_scenario_dict())
    r, comps = terminal_reward(flat_trajectory(), "termination", RewardConfig(),
                               sc.ego_goal, sc.layout)
    assert r == -50.0
    assert [c for c, v in comps.items() if v is not None] == ["termination"]


def test_plan_tie_breaks_by_q_then_name():
    tree = SearchTree()
    for _ in range(5):
        tree.update((), "B-action", -10.0)
    for _ in range(5):
        tree.update((), "A-action", -10.0)
    assert tree.best_path() == ("A-action",)  # equal visits and q: lexicographic
    tree2 = SearchTree()
    for _ in range(5):
        tree2.update((), "B-action", -5.0)
    for _ in range(5):
        tree2.update((), "A-action", -10.0)
    assert tree2.best_path() == ("B-action",)  # equal visits: higher q wins

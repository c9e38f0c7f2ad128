import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import whyplan.maneuvers as maneuvers_mod
import whyplan.pipeline as pipeline_mod
import whyplan.recognition as recognition_mod
from whyplan.errors import GoalUnreachableError, OffRoadError
from whyplan.maneuvers import (BRAKE_APPROACH, Trajectory, applicable_macros,
                               concat_trajectories, expand_macro, extract_features, goal_entry,
                               macro_table, roll_chain)
from whyplan.pipeline import planner_config, run_pipeline, true_goal_plans
from whyplan.recognition import (ENUMERATION_DEPTH, enumerate_plans, goal_posterior,
                                 predict_all, trajectory_options)
from whyplan.scenario import (Goal, JointState, goal_contains, lane_point_state,
                              load_scenario, locate, sample_initial_states, scenario_from_dict)
from whyplan.simulation import observe

from conftest import REPO_ROOT, mini_scenario_dict, spec_of

CRUISE = 10.0
DT, HORIZON = 0.1, 300
SCENARIO_PATHS = {"s1": os.path.join(REPO_ROOT, "scenarios", "s1.json"),
                  "s2": os.path.join(REPO_ROOT, "scenarios", "s2.json"),
                  "dense": os.path.join(REPO_ROOT, "benchmarks", "scenarios", "dense.json")}
SCENARIOS = {name: load_scenario(path) for name, path in SCENARIO_PATHS.items()}


def posterior(prefix, goals, layout, beta=1.0):
    """`goal_posterior` over the plans from the prefix's first and last states."""
    from_start = enumerate_plans(prefix.state_at(0), goals, layout, DT, HORIZON, CRUISE)
    from_current = enumerate_plans(prefix.tail_state(), goals, layout, DT, HORIZON, CRUISE)
    return goal_posterior(prefix, goals, from_start, from_current, layout, beta)


def options_to(start, goal, layout, beta=1.0):
    """`trajectory_options` over the plans from `start` to one goal."""
    [candidates] = enumerate_plans(start, (goal,), layout, DT, HORIZON, CRUISE)
    return trajectory_options(candidates, goal, layout, DT, HORIZON, CRUISE, beta)


def prefix_from_states(states, dt=DT):
    return Trajectory(dt=dt,
                      xs=np.array([s.x for s in states]),
                      ys=np.array([s.y for s in states]),
                      headings=np.array([s.heading for s in states]),
                      speeds=np.array([s.speed for s in states]))


def symmetric_fork_dict():
    """Single approach lane forking symmetrically left and right."""
    return {
        "name": "fork",
        "timestep_s": DT,
        "horizon_steps": HORIZON,
        "layout": {
            "lanes": [
                {"id": "approach", "midline": [[0.0, 0.0], [60.0, 0.0]], "width_m": 3.5,
                 "successors": []},
                {"id": "arm_left", "midline": [[64.0, 4.0], [64.0, 44.0]], "width_m": 3.5,
                 "successors": []},
                {"id": "arm_right", "midline": [[64.0, -4.0], [64.0, -44.0]], "width_m": 3.5,
                 "successors": []},
            ],
            "junctions": [{"id": "j", "connections": [
                {"from": "approach", "to": "arm_left", "direction": "left",
                 "has_priority": False},
                {"from": "approach", "to": "arm_right", "direction": "right",
                 "has_priority": False},
            ]}],
        },
        "ego": {"id": "me", "goal": {"lane": "arm_right", "interval": [0.0, 10.0],
                                     "label": "right arm"}},
        "vehicles": [{"id": "me", "label": "me", "lane": "approach", "nominal_s": 10.0,
                      "spawn_range_m": 0.0, "speed_range_mps": [8.0, 8.0], "goals": []}],
    }


@pytest.fixture
def fork():
    return scenario_from_dict(symmetric_fork_dict())


def fork_goals():
    return (Goal("arm_left", 0.0, 10.0, "left arm"),
            Goal("arm_right", 0.0, 10.0, "right arm"))


def test_single_reachable_goal_gets_probability_one(fork):
    start = lane_point_state(fork.layout, "approach", 10.0, 8.0)
    prefix = prefix_from_states([start])
    post = posterior(prefix, (fork_goals()[1],), fork.layout)
    assert post == (1.0,)


def test_symmetric_goals_split_evenly(fork):
    start = lane_point_state(fork.layout, "approach", 10.0, 8.0)
    later = lane_point_state(fork.layout, "approach", 18.0, 8.0)
    prefix = prefix_from_states([start, later])
    post = posterior(prefix, fork_goals(), fork.layout)
    assert post[0] == pytest.approx(0.5, abs=1e-9)
    assert post[1] == pytest.approx(0.5, abs=1e-9)


def test_unreachable_goal_gets_zero_and_all_unreachable_raises(fork):
    # From inside the right arm the left arm is unreachable.
    start = lane_point_state(fork.layout, "arm_right", 5.0, 5.0)
    prefix = prefix_from_states([start])
    post = posterior(prefix, fork_goals(), fork.layout)
    assert post[0] == 0.0
    assert post[1] == 1.0
    with pytest.raises(GoalUnreachableError, match="all goals unreachable"):
        posterior(prefix, (fork_goals()[0],), fork.layout)


def decel_prefix(sc, lane, s0, v0, steps, decel):
    states = []
    s, v = s0, v0
    for _ in range(steps + 1):
        states.append(lane_point_state(sc.layout, lane, s, max(v, 0.0)))
        s += max(v, 0.0) * DT
        v -= decel * DT
    return prefix_from_states(states)


def test_decelerating_near_right_turn_junction_favors_turn_goal():
    # Shedding speed on a clear road only makes sense if a turn is coming;
    # the braking profile matches the turn approach, not cruising straight.
    raw = mini_scenario_dict()
    sc = scenario_from_dict(raw)
    goals = (Goal("exit", 0.0, 10.0, "the right exit"),
             Goal("left", 140.0, 150.0, "the end of the road", lateral_tolerance=5.5))
    prefix = decel_prefix(sc, "right", 58.0, 9.0, steps=20, decel=BRAKE_APPROACH)
    post = posterior(prefix, goals, sc.layout, beta=1.0)
    assert post[0] > post[1]


def test_posterior_never_rises_for_goal_with_growing_detour():
    # Observe a vehicle executing the exit-optimal plan: every appended step
    # is free for the exit goal and pure detour for going straight, so the
    # straight goal's probability must not rise.
    raw = mini_scenario_dict()
    sc = scenario_from_dict(raw)
    goals = (Goal("exit", 0.0, 10.0, "the right exit"),
             Goal("left", 140.0, 150.0, "straight on", lateral_tolerance=5.5))
    start = lane_point_state(sc.layout, "right", 58.0, 9.0)
    plan = enumerate_plans(start, goals, sc.layout, DT, HORIZON, CRUISE)[0][0]
    full = plan.trajectory
    last = None
    for steps in (5, 15, 25):
        prefix = Trajectory(dt=DT, xs=full.xs[:steps + 1], ys=full.ys[:steps + 1],
                            headings=full.headings[:steps + 1], speeds=full.speeds[:steps + 1])
        post = posterior(prefix, goals, sc.layout, beta=1.0)
        p_straight = post[1]
        if last is not None:
            assert p_straight <= last + 1e-9
        last = p_straight


def test_trajectory_distribution_single_candidate(fork):
    start = lane_point_state(fork.layout, "approach", 10.0, 8.0)
    options = options_to(start, fork_goals()[1], fork.layout)
    assert len(options) == 1
    assert options[0].probability == pytest.approx(1.0)
    assert options[0].macros == ("Exit-right",)


def test_trajectory_distribution_normalizes_and_ranks_by_reward():
    raw = mini_scenario_dict()
    sc = scenario_from_dict(raw)
    start = lane_point_state(sc.layout, "left", 20.0, 8.0)
    goal = Goal("right_far", 40.0, 55.0, "end", lateral_tolerance=5.0)
    options = options_to(start, goal, sc.layout, beta=2.0)
    assert sum(o.probability for o in options) == pytest.approx(1.0, abs=1e-9)
    assert len(options) >= 2
    # Softmax weighting: strictly better plans get strictly more probability.
    rewards = {c.macros: c.reward
               for c in enumerate_plans(start, (goal,), sc.layout, DT, HORIZON, CRUISE)[0]}
    for a in options:
        for b in options:
            if rewards[a.macros] > rewards[b.macros]:
                assert a.probability > b.probability


def test_equal_reward_candidates_split_evenly():
    # Middle lane ends; left and right escapes are mirror images, and the
    # goal band spans both outer lanes.
    raw = {
        "name": "three", "timestep_s": DT, "horizon_steps": HORIZON,
        "layout": {"lanes": [
            {"id": "mid", "midline": [[0.0, 0.0], [30.0, 0.0]], "width_m": 3.5,
             "left_neighbor": "lft", "right_neighbor": "rgt", "successors": []},
            {"id": "lft", "midline": [[0.0, 3.5], [100.0, 3.5]], "width_m": 3.5,
             "right_neighbor": "mid", "successors": []},
            {"id": "rgt", "midline": [[0.0, -3.5], [100.0, -3.5]], "width_m": 3.5,
             "left_neighbor": "mid", "successors": []},
        ], "junctions": []},
        "ego": {"id": "me", "goal": {"lane": "lft", "interval": [60.0, 70.0],
                                     "label": "far band", "lateral_tolerance_m": 7.5}},
        "vehicles": [{"id": "me", "label": "me", "lane": "mid", "nominal_s": 5.0,
                      "spawn_range_m": 0.0, "speed_range_mps": [8.0, 8.0], "goals": []}],
    }
    sc = scenario_from_dict(raw)
    start = lane_point_state(sc.layout, "mid", 5.0, 8.0)
    options = options_to(start, sc.ego_goal, sc.layout)
    assert len(options) == 2
    assert {o.macros[0] for o in options} == {"Change-left", "Change-right"}
    for o in options:
        assert o.probability == pytest.approx(0.5, abs=1e-6)


def test_unreachable_trajectory_distribution_raises(fork):
    start = lane_point_state(fork.layout, "arm_right", 5.0, 5.0)
    with pytest.raises(GoalUnreachableError):
        options_to(start, fork_goals()[0], fork.layout)


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def test_enumeration_skips_typed_errors_and_propagates_others(fork, monkeypatch):
    start = lane_point_state(fork.layout, "approach", 10.0, 8.0)
    monkeypatch.setattr(recognition_mod, "macro_table", _raise(OffRoadError("off")))
    assert enumerate_plans(start, fork_goals(), fork.layout, DT, HORIZON, CRUISE) == [[], []]
    monkeypatch.setattr(recognition_mod, "macro_table", _raise(RuntimeError("bug")))
    with pytest.raises(RuntimeError, match="bug"):
        enumerate_plans(start, fork_goals(), fork.layout, DT, HORIZON, CRUISE)


def test_horizon_extension_skips_typed_errors_and_propagates_others(fork, monkeypatch):
    start = lane_point_state(fork.layout, "approach", 10.0, 8.0)
    monkeypatch.setattr(recognition_mod, "locate", _raise(OffRoadError("off")))
    options = options_to(start, fork_goals()[1], fork.layout)
    assert len(options[0].trajectory) == HORIZON + 1  # padded in place instead
    monkeypatch.setattr(recognition_mod, "locate", _raise(RuntimeError("bug")))
    with pytest.raises(RuntimeError, match="bug"):
        options_to(start, fork_goals()[1], fork.layout)


def test_enumeration_prunes_reverted_lane_changes():
    raw = mini_scenario_dict()
    sc = scenario_from_dict(raw)
    start = lane_point_state(sc.layout, "right", 10.0, 8.0)
    goal = Goal("right_far", 40.0, 55.0, "end", lateral_tolerance=5.0)
    [cands] = enumerate_plans(start, (goal,), sc.layout, DT, HORIZON, CRUISE)
    for cand in cands:
        for a, b in zip(cand.macros, cand.macros[1:]):
            assert {a, b} != {"Change-left", "Change-right"}


def test_recognition_is_deterministic():
    sc = scenario_from_dict(mini_scenario_dict())
    start = lane_point_state(sc.layout, "left", 25.0, 7.0)
    prefix = prefix_from_states([start])
    goals = spec_of(sc, "v1").goals
    a = posterior(prefix, goals, sc.layout, beta=2.0)
    b = posterior(prefix, goals, sc.layout, beta=2.0)
    assert a == b


def test_predict_all_covers_non_egos_and_normalizes():
    sc = scenario_from_dict(mini_scenario_dict())
    init = sample_initial_states(sc, 3)
    plans, from_start = true_goal_plans(sc, init)
    prefixes, _ = observe(sc, init, plans)
    preds = predict_all(sc, prefixes, from_start)
    assert set(preds) == {"v1"}
    pred = preds["v1"]
    assert sum(pred.goal_probs) == pytest.approx(1.0, abs=1e-9)
    current = prefixes["v1"].tail_state()
    for gi, opts in pred.options.items():
        if opts:
            assert sum(o.probability for o in opts) == pytest.approx(1.0, abs=1e-9)
            for o in opts:
                assert len(o.trajectory) == sc.horizon + 1
                # Predicted futures start from the vehicle's current state.
                first = o.trajectory.state_at(0)
                assert first.x == pytest.approx(current.x, abs=1e-9)
                assert first.y == pytest.approx(current.y, abs=1e-9)
                assert first.speed == pytest.approx(current.speed, abs=1e-9)


def test_predict_all_enumerates_each_state_and_goal_once(monkeypatch):
    # Over a whole run: one enumeration per non-ego vehicle from its initial
    # state and one from its last observed state, and no rollout twice.
    enumerations, rollouts = [], []

    def counting_enumerate(state, goals, *args):
        enumerations.append((state, goals))
        return enumerate_plans(state, goals, *args)

    def counting_roll(maneuvers, start, layout, dt, horizon, cruise):
        rollouts.append((tuple(maneuvers), start, horizon))
        return roll_chain(maneuvers, start, layout, dt, horizon, cruise)

    monkeypatch.setattr(recognition_mod, "enumerate_plans", counting_enumerate)
    monkeypatch.setattr(pipeline_mod, "enumerate_plans", counting_enumerate)
    monkeypatch.setattr(recognition_mod, "roll_chain", counting_roll)
    for name, sc in SCENARIOS.items():
        enumerations.clear()
        rollouts.clear()
        pipe = run_pipeline(sc, 0, planner=planner_config(sc, 0, iterations=5))
        expected = Counter()
        for vid in sc.non_ego_ids:
            goals = spec_of(sc, vid).goals
            expected[(pipe.initial.vehicles[vid], goals)] += 1
            expected[(pipe.prefixes[vid].tail_state(), goals)] += 1
        assert Counter(enumerations) == expected, name
        assert len(enumerations) == 2 * len(sc.non_ego_ids), name
        assert rollouts and len(set(rollouts)) == len(rollouts), name


def test_enumeration_asks_applicability_once_per_node(monkeypatch):
    # Only Continue depends on the goal, so a node with several open goals
    # still reads its macro table once.
    asked = []  # per enumerate_plans call: the states the table was read at

    def counting_enumerate(*args):
        asked.append([])
        return enumerate_plans(*args)

    def counting_table(state, layout):
        asked[-1].append(state)
        return macro_table(state, layout)

    monkeypatch.setattr(recognition_mod, "enumerate_plans", counting_enumerate)
    monkeypatch.setattr(pipeline_mod, "enumerate_plans", counting_enumerate)
    monkeypatch.setattr(recognition_mod, "macro_table", counting_table)
    for name, sc in SCENARIOS.items():
        asked.clear()
        run_pipeline(sc, 0, planner=planner_config(sc, 0, iterations=5))
        assert asked, name
        for states in asked:
            assert states and len(set(states)) == len(states), name


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_enumeration_locates_each_node_once(name, monkeypatch):
    # Applicability, Continue's goal test and every expansion at a node read
    # one table, so the node's state is matched to a lane once.
    sc = SCENARIOS[name]
    initial = sample_initial_states(sc, 0)
    plans, _ = true_goal_plans(sc, initial)
    prefixes, _ = observe(sc, initial, plans)
    located = []

    def counting_locate(layout, position, *args, **kwargs):
        located.append(tuple(position))
        return locate(layout, position, *args, **kwargs)

    monkeypatch.setattr(maneuvers_mod, "locate", counting_locate)
    monkeypatch.setattr(recognition_mod, "locate", counting_locate)
    for vid in sc.non_ego_ids:
        for state in (initial.vehicles[vid], prefixes[vid].tail_state()):
            located.clear()
            enumerate_plans(state, spec_of(sc, vid).goals, sc.layout, sc.dt, sc.horizon,
                            sc.target_speed)
            assert located and len(set(located)) == len(located), (name, vid)


def assert_posterior_equals_full_scan(sc, prefix, goals, from_start, monkeypatch):
    """`goal_posterior` is exactly the same as with every goal check scanning
    from the prefix's first state."""
    current = enumerate_plans(prefix.tail_state(), goals, sc.layout, sc.dt, sc.horizon,
                              sc.target_speed)
    args = (prefix, goals, from_start, current, sc.layout, sc.rationality_beta)
    got = goal_posterior(*args)
    with monkeypatch.context() as m:
        m.setattr(recognition_mod, "extract_features",
                  lambda traj, goal, layout, start=0: extract_features(traj, goal, layout))
        assert got == goal_posterior(*args)
    return got


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_goal_posterior_equals_full_scan_on_run_prefixes(name, monkeypatch):
    sc = SCENARIOS[name]
    for seed in range(3):
        initial = sample_initial_states(sc, seed)
        plans, from_start = true_goal_plans(sc, initial)
        prefixes, _ = observe(sc, initial, plans)
        for vid in sc.non_ego_ids:
            assert_posterior_equals_full_scan(sc, prefixes[vid], spec_of(sc, vid).goals,
                                              from_start[vid], monkeypatch)


def test_goal_posterior_equals_full_scan_on_a_prefix_inside_a_goal(monkeypatch):
    # The prefix enters the near band before its last state; the far end
    # stays open, so both goals keep a share of the posterior.
    sc = scenario_from_dict(mini_scenario_dict())
    goals = (Goal("left", 20.0, 35.0, "near band"), Goal("left", 140.0, 150.0, "far end"))
    start = lane_point_state(sc.layout, "left", 5.0, 8.0)
    prefix = roll_chain(expand_macro("Continue", start, sc.layout), start, sc.layout, sc.dt,
                        25, sc.target_speed)
    assert goal_contains(sc.layout, goals[0], prefix.xs[-2], prefix.ys[-2])
    from_start = enumerate_plans(start, goals, sc.layout, sc.dt, sc.horizon, sc.target_speed)
    post = assert_posterior_equals_full_scan(sc, prefix, goals, from_start, monkeypatch)
    assert all(0.0 < p < 1.0 for p in post)


# --- enumeration oracle: the single-goal enumeration, one goal at a time ----------

REFERENCE_WEIGHTS = {"time": -1.0, "jerk": -0.1, "angular_acceleration": -0.1,
                     "curvature": -0.1}


def reference_enumerate(state, goal, layout, dt, horizon, cruise):
    """Every goal-reaching macro sequence to one goal, each prefix rolled out
    for this goal alone, the reward recomputed from the finished trajectory.
    Each goal check scans the whole trajectory from its first state."""
    w = REFERENCE_WEIGHTS
    results = []

    def reward(traj):
        f = extract_features(traj, goal, layout)
        return (w["time"] * f["time"] + w["jerk"] * f["jerk"]
                + w["angular_acceleration"] * f["angular_acceleration"]
                + w["curvature"] * f["curvature"])

    def recurse(cur, macros, parts, steps_left, depth):
        if depth >= ENUMERATION_DEPTH or steps_left <= 0:
            return
        joint = JointState(t=0, vehicles={"_solo": cur})
        try:
            actions = applicable_macros(joint, "_solo", layout, goal)
        except OffRoadError:
            return
        inverse = {"Change-left": "Change-right", "Change-right": "Change-left"}
        for macro in actions:
            if macro == "Stop":
                continue
            if macro == "Continue" and macros and macros[-1] == "Continue":
                continue
            if macros and inverse.get(macro) == macros[-1]:
                continue
            maneuvers = expand_macro(macro, cur, layout)
            traj = roll_chain(maneuvers, cur, layout, dt, steps_left, cruise)
            if len(traj) < 2:
                continue
            new_parts = parts + [traj]
            new_macros = macros + (macro,)
            full = concat_trajectories(new_parts)
            if goal_entry(full, goal, layout) is not None:
                results.append((new_macros, full, reward(full)))
                continue
            if not traj.truncated:
                recurse(traj.tail_state(), new_macros, new_parts,
                        steps_left - (len(traj) - 1), depth + 1)

    recurse(state, (), [], horizon, 0)
    results.sort(key=lambda c: (-c[2], c[0]))
    return results


def assert_matches_reference(sc, state, goals, label):
    merged = enumerate_plans(state, goals, sc.layout, sc.dt, sc.horizon, sc.target_speed)
    assert len(merged) == len(goals), label
    for goal, got in zip(goals, merged):
        want = reference_enumerate(state, goal, sc.layout, sc.dt, sc.horizon, sc.target_speed)
        assert [c.macros for c in got] == [m for m, _, _ in want], (label, goal.label)
        assert [c.reward for c in got] == [r for _, _, r in want], (label, goal.label)
        for c, (_, traj, _) in zip(got, want):
            for field in ("xs", "ys", "headings", "speeds"):
                assert np.array_equal(getattr(c.trajectory, field), getattr(traj, field))
            assert c.trajectory.truncated == traj.truncated


def scenario_goals(sc):
    """Every distinct non-ego goal of a scenario, in first-seen order."""
    return tuple(dict.fromkeys(g for vid in sc.non_ego_ids for g in spec_of(sc, vid).goals))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", range(5))
def test_enumeration_matches_single_goal_reference_on_run_states(name, seed):
    sc = SCENARIOS[name]
    initial = sample_initial_states(sc, seed)
    plans, _ = true_goal_plans(sc, initial)
    prefixes, _ = observe(sc, initial, plans)
    for vid in sc.non_ego_ids:
        goals = spec_of(sc, vid).goals
        assert_matches_reference(sc, initial.vehicles[vid], goals, f"{vid} initial")
        assert_matches_reference(sc, prefixes[vid].tail_state(), goals, f"{vid} observed")


@st.composite
def lane_states(draw):
    name = draw(st.sampled_from(sorted(SCENARIOS)))
    sc = SCENARIOS[name]
    lane_id = draw(st.sampled_from(sorted(sc.layout.lanes)))
    s = draw(st.floats(0.0, 1.0)) * sc.layout.lanes[lane_id].length
    speed = draw(st.floats(0.0, 1.5 * sc.target_speed))
    return name, lane_point_state(sc.layout, lane_id, s, speed)


@settings(max_examples=100, deadline=None)
@given(lane_states())
def test_enumeration_matches_single_goal_reference_on_generated_states(case):
    name, state = case
    sc = SCENARIOS[name]
    assert_matches_reference(sc, state, scenario_goals(sc), f"{name} {state}")

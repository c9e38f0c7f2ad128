import numpy as np
import pytest

import whyplan.recognition as recognition_mod
from whyplan.errors import GoalUnreachableError, NoApplicableActionError, OffRoadError
from whyplan.maneuvers import KinematicParams, Trajectory
from whyplan.recognition import (enumerate_plans, goal_posterior, predict_all,
                                 trajectory_distribution)
from whyplan.scenario import Goal, lane_point_state, scenario_from_dict

from conftest import mini_scenario_dict

PARAMS = KinematicParams()
DT, HORIZON = 0.1, 300


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
    post = goal_posterior(prefix, (fork_goals()[1],), fork.layout, DT, HORIZON, PARAMS)
    assert post.probs == (1.0,)


def test_symmetric_goals_split_evenly(fork):
    start = lane_point_state(fork.layout, "approach", 10.0, 8.0)
    later = lane_point_state(fork.layout, "approach", 18.0, 8.0)
    prefix = prefix_from_states([start, later])
    post = goal_posterior(prefix, fork_goals(), fork.layout, DT, HORIZON, PARAMS)
    assert post.probs[0] == pytest.approx(0.5, abs=1e-9)
    assert post.probs[1] == pytest.approx(0.5, abs=1e-9)


def test_unreachable_goal_gets_zero_and_all_unreachable_raises(fork):
    # From inside the right arm the left arm is unreachable.
    start = lane_point_state(fork.layout, "arm_right", 5.0, 5.0)
    prefix = prefix_from_states([start])
    post = goal_posterior(prefix, fork_goals(), fork.layout, DT, HORIZON, PARAMS)
    assert post.probs[0] == 0.0
    assert post.probs[1] == 1.0
    with pytest.raises(GoalUnreachableError, match="all goals unreachable"):
        goal_posterior(prefix, (fork_goals()[0],), fork.layout, DT, HORIZON, PARAMS)


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
    prefix = decel_prefix(sc, "right", 58.0, 9.0, steps=20, decel=PARAMS.brake_approach)
    post = goal_posterior(prefix, goals, sc.layout, DT, HORIZON, PARAMS, beta=1.0)
    assert post.probs[0] > post.probs[1]


def test_posterior_never_rises_for_goal_with_growing_detour():
    # Observe a vehicle executing the exit-optimal plan: every appended step
    # is free for the exit goal and pure detour for going straight, so the
    # straight goal's probability must not rise.
    raw = mini_scenario_dict()
    sc = scenario_from_dict(raw)
    goals = (Goal("exit", 0.0, 10.0, "the right exit"),
             Goal("left", 140.0, 150.0, "straight on", lateral_tolerance=5.5))
    start = lane_point_state(sc.layout, "right", 58.0, 9.0)
    plan = enumerate_plans(start, goals[0], sc.layout, DT, HORIZON, PARAMS)[0]
    full = plan.trajectory
    last = None
    for steps in (5, 15, 25):
        prefix = Trajectory(dt=DT, xs=full.xs[:steps + 1], ys=full.ys[:steps + 1],
                            headings=full.headings[:steps + 1], speeds=full.speeds[:steps + 1])
        post = goal_posterior(prefix, goals, sc.layout, DT, HORIZON, PARAMS, beta=1.0)
        p_straight = post.probs[1]
        if last is not None:
            assert p_straight <= last + 1e-9
        last = p_straight


def test_trajectory_distribution_single_candidate(fork):
    start = lane_point_state(fork.layout, "approach", 10.0, 8.0)
    options = trajectory_distribution(start, fork_goals()[1], fork.layout, DT, HORIZON, PARAMS)
    assert len(options) == 1
    assert options[0].probability == pytest.approx(1.0)
    assert options[0].macros == ("Exit-right",)


def test_trajectory_distribution_normalizes_and_ranks_by_reward():
    raw = mini_scenario_dict()
    sc = scenario_from_dict(raw)
    start = lane_point_state(sc.layout, "left", 20.0, 8.0)
    goal = Goal("right_far", 40.0, 55.0, "end", lateral_tolerance=5.0)
    options = trajectory_distribution(start, goal, sc.layout, DT, HORIZON, PARAMS, beta=2.0)
    assert sum(o.probability for o in options) == pytest.approx(1.0, abs=1e-9)
    assert len(options) >= 2
    # Softmax weighting: strictly better plans get strictly more probability.
    rewards = {c.macros: c.reward
               for c in enumerate_plans(start, goal, sc.layout, DT, HORIZON, PARAMS)}
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
    options = trajectory_distribution(start, sc.ego_goal, sc.layout, DT, HORIZON, PARAMS)
    assert len(options) == 2
    assert {o.macros[0] for o in options} == {"Change-left", "Change-right"}
    for o in options:
        assert o.probability == pytest.approx(0.5, abs=1e-6)


def test_unreachable_trajectory_distribution_raises(fork):
    start = lane_point_state(fork.layout, "arm_right", 5.0, 5.0)
    with pytest.raises(GoalUnreachableError):
        trajectory_distribution(start, fork_goals()[0], fork.layout, DT, HORIZON, PARAMS)


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def test_enumeration_skips_typed_errors_and_propagates_others(fork, monkeypatch):
    start = lane_point_state(fork.layout, "approach", 10.0, 8.0)
    for typed in (OffRoadError("off"), NoApplicableActionError("none")):
        monkeypatch.setattr(recognition_mod, "applicable_macros", _raise(typed))
        assert enumerate_plans(start, fork_goals()[1], fork.layout, DT, HORIZON, PARAMS) == []
    monkeypatch.setattr(recognition_mod, "applicable_macros", _raise(RuntimeError("bug")))
    with pytest.raises(RuntimeError, match="bug"):
        enumerate_plans(start, fork_goals()[1], fork.layout, DT, HORIZON, PARAMS)


def test_horizon_extension_skips_typed_errors_and_propagates_others(fork, monkeypatch):
    start = lane_point_state(fork.layout, "approach", 10.0, 8.0)
    monkeypatch.setattr(recognition_mod, "locate", _raise(OffRoadError("off")))
    options = trajectory_distribution(start, fork_goals()[1], fork.layout, DT, HORIZON, PARAMS)
    assert len(options[0].trajectory) == HORIZON + 1  # padded in place instead
    monkeypatch.setattr(recognition_mod, "locate", _raise(RuntimeError("bug")))
    with pytest.raises(RuntimeError, match="bug"):
        trajectory_distribution(start, fork_goals()[1], fork.layout, DT, HORIZON, PARAMS)


def test_enumeration_prunes_reverted_lane_changes():
    raw = mini_scenario_dict()
    sc = scenario_from_dict(raw)
    start = lane_point_state(sc.layout, "right", 10.0, 8.0)
    goal = Goal("right_far", 40.0, 55.0, "end", lateral_tolerance=5.0)
    cands = enumerate_plans(start, goal, sc.layout, DT, HORIZON, PARAMS)
    for cand in cands:
        for a, b in zip(cand.macros, cand.macros[1:]):
            assert {a, b} != {"Change-left", "Change-right"}


def test_recognition_is_deterministic():
    sc = scenario_from_dict(mini_scenario_dict())
    start = lane_point_state(sc.layout, "left", 25.0, 7.0)
    prefix = prefix_from_states([start])
    goals = sc.spec_of("v1").goals
    a = goal_posterior(prefix, goals, sc.layout, DT, HORIZON, PARAMS, beta=2.0)
    b = goal_posterior(prefix, goals, sc.layout, DT, HORIZON, PARAMS, beta=2.0)
    assert a.probs == b.probs


def test_predict_all_covers_non_egos_and_normalizes():
    sc = scenario_from_dict(mini_scenario_dict())
    from whyplan.scenario import sample_initial_states
    from whyplan.pipeline import true_goal_plans
    from whyplan.simulation import observe
    init = sample_initial_states(sc, 3)
    prefixes, _ = observe(sc, init, true_goal_plans(sc, init, PARAMS))
    preds = predict_all(sc, prefixes, params=PARAMS)
    assert set(preds.vehicles) == {"v1"}
    pred = preds["v1"]
    assert sum(pred.posterior.probs) == pytest.approx(1.0, abs=1e-9)
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
    sc = scenario_from_dict(mini_scenario_dict())
    from whyplan.scenario import sample_initial_states
    from whyplan.pipeline import true_goal_plans
    from whyplan.simulation import observe
    init = sample_initial_states(sc, 3)
    prefixes, _ = observe(sc, init, true_goal_plans(sc, init, PARAMS))
    expected = predict_all(sc, prefixes, params=PARAMS)
    calls = []

    def counting(state, goal, *args, **kwargs):
        calls.append((state, goal))
        return enumerate_plans(state, goal, *args, **kwargs)

    monkeypatch.setattr(recognition_mod, "enumerate_plans", counting)
    preds = predict_all(sc, prefixes, params=PARAMS)
    assert len(prefixes["v1"]) > 1
    assert len(calls) == 2 * len(sc.spec_of("v1").goals)
    assert len(set(calls)) == len(calls)
    got, want = preds["v1"], expected["v1"]
    assert got.posterior == want.posterior
    assert got.options.keys() == want.options.keys()
    for gi, opts in got.options.items():
        assert [(o.macros, o.probability) for o in opts] == \
            [(o.macros, o.probability) for o in want.options[gi]]
        for a, b in zip(opts, want.options[gi]):
            assert np.array_equal(a.trajectory.xs, b.trajectory.xs)
            assert np.array_equal(a.trajectory.speeds, b.trajectory.speeds)

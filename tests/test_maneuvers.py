import math
import os

import numpy as np
import pytest

from whyplan.errors import InapplicableMacroError, OffRoadError
from whyplan.geometry import Polyline, turn_curve
from whyplan.grammar import DEFAULT_STYLE
from whyplan.maneuvers import (ALL_MACRO_NAMES, LANE_CHANGE_DURATION, Trajectory,
                               applicable_macros, expand_macro, extract_features, goal_entry,
                               roll_chain)
from whyplan.mcts import SELECTION_ORDER
from whyplan.pipeline import true_goal_plans
from whyplan.scenario import (Goal, JointState, VehicleState, goal_contains, lane_point_state,
                              load_scenario, locate, sample_initial_states,
                              scenario_from_dict)
from whyplan.simulation import observe

from conftest import REPO_ROOT, mini_scenario_dict, spec_of

CRUISE = 10.0
SCENARIOS = os.path.join(REPO_ROOT, "scenarios")


def joint_on(sc, lane, s, speed=8.0, extra=None):
    vehicles = {"me": lane_point_state(sc.layout, lane, s, speed)}
    vehicles.update(extra or {})
    return JointState(t=0, vehicles=vehicles)


@pytest.fixture
def sc():
    return scenario_from_dict(mini_scenario_dict())


def test_macro_action_validation(sc):
    me = lane_point_state(sc.layout, "right", 10.0, 8.0)
    for name in ("Exit", "Exit-up", "Continue-left"):
        with pytest.raises(ValueError, match="unknown macro action"):
            expand_macro(name, me, sc.layout)


def test_macro_vocabulary_is_one_list():
    vocabulary = set(ALL_MACRO_NAMES)
    assert set(SELECTION_ORDER) == vocabulary
    for table in ("ego_macros", "nonego_macros_present", "nonego_macros_perfect"):
        assert set(DEFAULT_STYLE[table]) == vocabulary, table


def test_maneuver_parameter_consistency():
    from whyplan.maneuvers import Maneuver
    with pytest.raises(ValueError):
        Maneuver("lane-change-left")  # no target lane
    with pytest.raises(ValueError):
        Maneuver("give-way", lanes=("a",))  # no junction/connection
    with pytest.raises(ValueError):
        Maneuver("turn-right", junction="j")  # no connection
    Maneuver("lane-change-right", lanes=("a",), target_lane="b")
    Maneuver("turn-left", junction="j", connection=("a", "b"))


def test_mid_lane_with_left_neighbor_offers_change_left_and_continue(sc):
    acts = set(applicable_macros(joint_on(sc, "right", 10.0), "me", sc.layout,
                                   sc.ego_goal))
    assert "Change-left" in acts
    assert "Continue" in acts
    assert "Stop" in acts


def test_rightmost_lane_has_no_change_right(sc):
    acts = set(applicable_macros(joint_on(sc, "right", 10.0), "me", sc.layout,
                                   sc.ego_goal))
    assert "Change-right" not in acts


def test_junction_ahead_offers_exit_right(sc):
    acts = set(applicable_macros(joint_on(sc, "right", 10.0), "me", sc.layout,
                                   sc.ego_goal))
    assert "Exit-right" in acts


def test_headway_blocks_lane_change(sc):
    me = lane_point_state(sc.layout, "right", 20.0, 10.0)
    blocker = lane_point_state(sc.layout, "left", 25.0, 10.0)  # 0.5 s ahead
    state = JointState(t=0, vehicles={"me": me, "other": blocker})
    acts = set(applicable_macros(state, "me", sc.layout, sc.ego_goal))
    assert "Change-left" not in acts
    far = lane_point_state(sc.layout, "left", 60.0, 10.0)  # 4 s ahead
    state = JointState(t=0, vehicles={"me": me, "other": far})
    acts = set(applicable_macros(state, "me", sc.layout, sc.ego_goal))
    assert "Change-left" in acts


def test_continue_requires_goal_on_lane_keep_path(sc):
    # From the exit lane there is no path back to the ego goal.
    acts = set(applicable_macros(joint_on(sc, "exit", 5.0), "me", sc.layout,
                                   sc.ego_goal))
    assert "Continue" not in acts
    assert "Stop" in acts  # never empty


def test_continue_next_exit_needs_two_junctions(sc):
    acts = set(applicable_macros(joint_on(sc, "right", 10.0), "me", sc.layout,
                                   sc.ego_goal))
    assert "Continue-next-exit" not in acts


def test_continue_next_exit_on_two_junction_road():
    raw = mini_scenario_dict()
    # Append a second junction with a right exit off the far segment.
    raw["layout"]["lanes"].append({"id": "right_far2", "midline": [[150.0, 0.0], [200.0, 0.0]],
                                   "width_m": 3.5, "successors": []})
    raw["layout"]["lanes"].append({"id": "exit2", "midline": [[154.0, -4.0], [154.0, -44.0]],
                                   "width_m": 3.5, "successors": []})
    raw["layout"]["junctions"].append({"id": "j2", "connections": [
        {"from": "right_far", "to": "right_far2", "direction": "straight", "has_priority": True},
        {"from": "right_far", "to": "exit2", "direction": "right", "has_priority": True},
    ]})
    sc = scenario_from_dict(raw)
    acts = set(applicable_macros(joint_on(sc, "right", 10.0), "me", sc.layout,
                                   sc.ego_goal))
    assert "Continue-next-exit" in acts
    chain = expand_macro("Continue-next-exit", lane_point_state(sc.layout, "right", 10.0, 8.0),
                         sc.layout)
    assert [m.kind for m in chain] == ["lane-follow", "give-way", "turn-right"]
    assert chain[1].junction == "j2"


@pytest.mark.parametrize("gap", [0.0, 4.0])
def test_continue_next_exit_falls_back_to_a_straight_with_a_curve(gap):
    """A second junction with only a priority straight: Continue-next-exit turns
    through it when its lanes are apart, and is not offered when they meet,
    which leaves no curve to turn through."""
    raw = mini_scenario_dict()
    raw["layout"]["lanes"].append({"id": "right_far2", "width_m": 3.5, "successors": [],
                                   "midline": [[150.0 + gap, 0.0], [200.0, 0.0]]})
    raw["layout"]["junctions"].append({"id": "j2", "connections": [
        {"from": "right_far", "to": "right_far2", "direction": "straight", "has_priority": True},
    ]})
    sc = scenario_from_dict(raw)
    state = joint_on(sc, "right", 10.0)
    acts = applicable_macros(state, "me", sc.layout, sc.ego_goal)
    assert ("Continue-next-exit" in acts) == (gap > 0.0)
    for macro in acts:
        chain = expand_macro(macro, state.vehicles["me"], sc.layout)
        assert not roll_chain(chain, state.vehicles["me"], sc.layout, sc.dt, 300, CRUISE).truncated


def test_exit_expands_to_three_manoeuvres(sc):
    chain = expand_macro("Exit-right", lane_point_state(sc.layout, "right", 10.0, 8.0),
                         sc.layout)
    assert [m.kind for m in chain] == ["lane-follow", "give-way", "turn-right"]


def test_continue_and_stop_expand_to_single_manoeuvres(sc):
    me = lane_point_state(sc.layout, "right", 10.0, 8.0)
    assert [m.kind for m in expand_macro("Continue", me, sc.layout)] == ["lane-follow"]
    assert [m.kind for m in expand_macro("Stop", me, sc.layout)] == ["stop"]


def test_expand_never_returns_empty_chain(sc):
    state = joint_on(sc, "right", 10.0)
    for macro in applicable_macros(state, "me", sc.layout, sc.ego_goal):
        assert len(expand_macro(macro, state.vehicles["me"], sc.layout)) >= 1


def test_inapplicable_macro_raises(sc):
    with pytest.raises(InapplicableMacroError):  # no left neighbor
        expand_macro("Change-left", lane_point_state(sc.layout, "left", 10.0, 8.0), sc.layout)
    with pytest.raises(InapplicableMacroError):
        expand_macro("Exit-left", lane_point_state(sc.layout, "right", 10.0, 8.0), sc.layout)


def mid_connection(layout, from_lane, to_lane, speed=3.0):
    """A state halfway along a junction connection curve, heading along it."""
    a, b = layout.lanes[from_lane].midline, layout.lanes[to_lane].midline
    curve = Polyline(turn_curve(a.point_at(a.length), a.heading_at(a.length),
                                b.point_at(0.0), b.heading_at(0.0)))
    x, y = curve.point_at(curve.length / 2)
    return JointState(t=0, vehicles={"me": VehicleState(float(x), float(y),
                                                        curve.heading_at(curve.length / 2),
                                                        speed)})


def test_vehicle_inside_a_junction_finishes_its_crossing():
    s2 = load_scenario(os.path.join(SCENARIOS, "s2.json"))
    goal = spec_of(s2, "v1").goals[0]  # the start of n_out
    turning = mid_connection(s2.layout, "w_in", "n_out")
    with pytest.raises(OffRoadError):
        locate(s2.layout, (turning.vehicles["me"].x, turning.vehicles["me"].y))
    assert applicable_macros(turning, "me", s2.layout, goal) == ["Exit-left"]
    chain = expand_macro("Exit-left", turning.vehicles["me"], s2.layout)
    assert [m.kind for m in chain] == ["turn-left"]
    with pytest.raises(InapplicableMacroError):
        expand_macro("Continue", turning.vehicles["me"], s2.layout)
    traj = roll_chain(chain, turning.vehicles["me"], s2.layout, s2.dt, 100, CRUISE)
    assert not traj.truncated
    assert goal_contains(s2.layout, goal, traj.xs[-1], traj.ys[-1])

    straight = mid_connection(s2.layout, "w_in", "e_out")  # priority: lane keeping
    assert applicable_macros(straight, "me", s2.layout, goal) == ["Continue"]
    chain = expand_macro("Continue", straight.vehicles["me"], s2.layout)
    assert chain[0].lanes == ("w_in", "e_out")


# --- trajectory generation -------------------------------------------------------


def straight_lane_sc():
    raw = mini_scenario_dict()
    raw["layout"] = {"lanes": [
        {"id": "lane", "midline": [[0.0, 0.0], [100.0, 0.0]], "width_m": 3.5,
         "successors": []},
        {"id": "side", "midline": [[0.0, 3.5], [100.0, 3.5]], "width_m": 3.5,
         "right_neighbor": "lane", "successors": []},
    ], "junctions": []}
    raw["layout"]["lanes"][0]["left_neighbor"] = "side"
    raw["ego"] = {"id": "ego", "goal": {"lane": "lane", "interval": [99.9, 100.0],
                                        "label": "end"}}
    raw["vehicles"] = [{"id": "ego", "label": "ego", "lane": "lane", "nominal_s": 0.0,
                        "spawn_range_m": 0.0, "speed_range_mps": [10.0, 10.0], "goals": []}]
    return scenario_from_dict(raw)


def test_constant_speed_lane_follow_reaches_lane_end():
    sc = straight_lane_sc()
    start = lane_point_state(sc.layout, "lane", 0.0, 10.0)
    chain = expand_macro("Continue", start, sc.layout)
    traj = roll_chain(chain, start, sc.layout, 0.1, 400, CRUISE)
    # Cruise equals start speed until the end-of-road braking envelope binds.
    assert abs(len(traj) - 1 - 117) < 25
    assert traj.xs[-1] == pytest.approx(100.0, abs=0.5)
    mid = len(traj) // 3
    assert all(abs(v - 10.0) < 1e-6 for v in traj.speeds[:mid])


def test_lane_change_realigns_heading_and_moves_one_width():
    sc = straight_lane_sc()
    start = lane_point_state(sc.layout, "lane", 10.0, 8.0)
    chain = expand_macro("Change-left", start, sc.layout)
    traj = roll_chain(chain, start, sc.layout, 0.1, 400, CRUISE)
    assert traj.ys[-1] - traj.ys[0] == pytest.approx(3.5, abs=0.01)
    assert abs(traj.headings[-1]) < 1e-3
    assert len(traj) - 1 == pytest.approx(LANE_CHANGE_DURATION / 0.1, abs=1)


def test_stop_manoeuvre_reaches_zero_speed():
    sc = straight_lane_sc()
    start = lane_point_state(sc.layout, "lane", 0.0, 10.0)
    chain = expand_macro("Stop", start, sc.layout)
    traj = roll_chain(chain, start, sc.layout, 0.1, 400, CRUISE)
    assert traj.speeds[-1] == pytest.approx(0.0, abs=1e-6)
    assert not traj.truncated


def test_horizon_truncation_is_flagged_not_raised():
    sc = straight_lane_sc()
    start = lane_point_state(sc.layout, "lane", 0.0, 10.0)
    chain = expand_macro("Continue", start, sc.layout)
    traj = roll_chain(chain, start, sc.layout, 0.1, 30, CRUISE)
    assert traj.truncated
    assert len(traj) == 31


def consistency_inputs():
    """Rollouts on the mini road, then every observed prefix of s2 at seeds 0-9."""
    sc = scenario_from_dict(mini_scenario_dict())
    start = lane_point_state(sc.layout, "right", 5.0, 9.0)
    for macro in ("Continue", "Change-left", "Exit-right"):
        chain = expand_macro(macro, start, sc.layout)
        yield macro, roll_chain(chain, start, sc.layout, 0.1, 400, CRUISE)
    s2 = load_scenario(os.path.join(SCENARIOS, "s2.json"))
    for seed in range(10):
        initial = sample_initial_states(s2, seed)
        prefixes, _ = observe(s2, initial, true_goal_plans(s2, initial)[0])
        for vid, traj in prefixes.items():
            yield f"s2 seed {seed} observed {vid}", traj


def test_finite_difference_consistency():
    for label, traj in consistency_inputs():
        dx = np.diff(traj.xs)
        dy = np.diff(traj.ys)
        speed_err = np.abs(np.hypot(dx, dy) / traj.dt - traj.speeds[:-1])
        assert float(speed_err.max()) <= 0.1, label


# --- features --------------------------------------------------------------------


def test_constant_velocity_straight_features_are_zero():
    sc = straight_lane_sc()
    n = 51
    traj = Trajectory(dt=0.1, xs=np.arange(n) * 1.0, ys=np.zeros(n), headings=np.zeros(n),
                      speeds=np.full(n, 10.0))
    goal = Goal(lane="lane", start_s=99.0, end_s=100.0, label="end")
    f = extract_features(traj, goal, sc.layout)
    assert f.jerk == 0.0
    assert f.angular_acceleration == 0.0
    assert f.curvature == 0.0
    assert goal_entry(traj, goal, sc.layout) is None
    assert f.time_to_goal == pytest.approx((n - 1) * 0.1)


def test_time_to_goal_on_100m_lane_at_10mps():
    sc = straight_lane_sc()
    n = 101
    traj = Trajectory(dt=0.1, xs=np.arange(n) * 1.0, ys=np.zeros(n), headings=np.zeros(n),
                      speeds=np.full(n, 10.0))
    f = extract_features(traj, sc.ego_goal, sc.layout)
    assert goal_entry(traj, sc.ego_goal, sc.layout) is not None
    assert f.time_to_goal == pytest.approx(10.0, abs=1e-9)


def test_circular_arc_curvature():
    radius, speed, dt = 20.0, 5.0, 0.1
    steps = 120
    omega = speed / radius
    ts = np.arange(steps + 1) * dt
    xs = radius * np.cos(omega * ts)
    ys = radius * np.sin(omega * ts)
    headings = omega * ts + math.pi / 2
    traj = Trajectory(dt=dt, xs=xs, ys=ys, headings=np.array([((h + math.pi) % (2 * math.pi)) - math.pi for h in headings]),
                      speeds=np.full(steps + 1, speed))
    sc = straight_lane_sc()
    f = extract_features(traj, sc.ego_goal, sc.layout)
    assert f.curvature == pytest.approx(1.0 / radius, rel=0.02)


def test_features_invariant_to_rigid_translation():
    raw = mini_scenario_dict()
    sc = scenario_from_dict(raw)
    start = lane_point_state(sc.layout, "right", 5.0, 9.0)
    chain = expand_macro("Continue", start, sc.layout)
    traj = roll_chain(chain, start, sc.layout, 0.1, 400, CRUISE)
    f0 = extract_features(traj, sc.ego_goal, sc.layout)

    shifted = mini_scenario_dict()
    dx, dy = 1000.0, -500.0
    for lane in shifted["layout"]["lanes"]:
        lane["midline"] = [[x + dx, y + dy] for x, y in lane["midline"]]
    sc2 = scenario_from_dict(shifted)
    traj2 = Trajectory(dt=traj.dt, xs=[x + dx for x in traj.xs], ys=[y + dy for y in traj.ys],
                       headings=traj.headings, speeds=traj.speeds)
    f1 = extract_features(traj2, sc2.ego_goal, sc2.layout)
    for name in ("time_to_goal", "jerk", "angular_acceleration", "curvature"):
        assert getattr(f0, name) == pytest.approx(getattr(f1, name), abs=1e-9)

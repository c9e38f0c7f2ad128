import copy
import functools
import json
import math
import operator
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from whyplan.errors import OffRoadError, ScenarioParseError, ScenarioValidationError
from whyplan.geometry import Polyline, turn_curve
from whyplan.scenario import (MAX_RATIONALITY_BETA, MAX_SPEED_MPS, MAX_TIMESTEP_S, Goal,
                              VehicleState, goal_contains, lane_point_state, load_scenario,
                              locate, sample_initial_states, scenario_from_dict)

from conftest import REPO_ROOT, mini_scenario_dict, spec_of

S1_PATH = os.path.join(REPO_ROOT, "scenarios", "s1.json")
S2_PATH = os.path.join(REPO_ROOT, "scenarios", "s2.json")
DENSE_PATH = os.path.join(REPO_ROOT, "benchmarks", "scenarios", "dense.json")


def test_s1_file_loads_with_three_vehicles_and_one_junction():
    sc = load_scenario(S1_PATH)
    assert len(sc.vehicles) == 3
    assert len(sc.layout.junctions) == 1
    assert sc.ego_id == "ego"
    assert sc.ego_goal.label == "the end of the road"


def test_s2_file_loads():
    sc = load_scenario(S2_PATH)
    assert len(sc.vehicles) == 3
    assert {c.direction for c in list(sc.layout.junctions.values())[0].connections} == \
        {"left", "right", "straight"}


def test_missing_ego_goal_is_rejected():
    raw = mini_scenario_dict()
    del raw["ego"]["goal"]
    with pytest.raises(ScenarioValidationError, match="^ego goal is missing$"):
        scenario_from_dict(raw)


def test_negative_observation_steps_is_rejected():
    raw = mini_scenario_dict()
    raw["observation_steps"] = -5
    with pytest.raises(ScenarioValidationError, match=re.escape(
            "scenario observation_steps is -5, not an integer in [0, inf]")):
        scenario_from_dict(raw)


@pytest.mark.parametrize("speed", [0.0, -3.0])
def test_non_positive_target_speed_is_rejected(speed):
    raw = mini_scenario_dict()
    raw["target_speed_mps"] = speed
    with pytest.raises(ScenarioValidationError,
                       match=f"^scenario target_speed_mps is {speed}, not positive$"):
        scenario_from_dict(raw)


def test_negative_rationality_beta_is_rejected():
    raw = mini_scenario_dict()
    raw["rationality_beta"] = -4.0
    with pytest.raises(ScenarioValidationError, match=re.escape(
            "scenario rationality_beta is -4.0, not a finite number in [0.0, inf]")):
        scenario_from_dict(raw)
    raw["rationality_beta"] = 0.0  # a flat goal posterior stays valid
    assert scenario_from_dict(raw).rationality_beta == 0.0


def test_upper_bounds_are_inclusive():
    raw = mini_scenario_dict()
    raw.update(timestep_s=MAX_TIMESTEP_S, target_speed_mps=MAX_SPEED_MPS,
               rationality_beta=MAX_RATIONALITY_BETA)
    raw["vehicles"][1]["speed_range_mps"] = [5.0, MAX_SPEED_MPS]
    raw["ego"]["goal"]["lateral_tolerance_m"] = 0.0
    sc = scenario_from_dict(raw)
    assert (sc.dt, sc.target_speed, sc.rationality_beta) == (1e6, 1e6, 1e6)
    assert spec_of(sc, "v1").speed_range == (5.0, 1e6)
    assert sc.ego_goal.lateral_tolerance == 0.0


def test_unknown_planner_key_is_rejected():
    raw = mini_scenario_dict()
    raw["planner"] = {"exploraton": 0.5}
    with pytest.raises(ScenarioParseError, match="planner key is 'exploraton', not 'exploration'"):
        scenario_from_dict(raw)


def test_single_point_midline_is_rejected():
    raw = mini_scenario_dict()
    raw["layout"]["lanes"][0]["midline"] = [[0.0, 0.0]]
    with pytest.raises(ScenarioValidationError, match=re.escape(
            "layout lanes 0 midline is [[0.0, 0.0]], not a polyline of positive length")):
        scenario_from_dict(raw)


def test_asymmetric_neighbors_are_rejected():
    raw = mini_scenario_dict()
    raw["layout"]["lanes"][1]["right_neighbor"] = None
    with pytest.raises(ScenarioValidationError, match="^lane right left_neighbor is 'left', "
                       "not a lane whose right_neighbor is 'right'$"):
        scenario_from_dict(raw)


def test_junction_with_unknown_lane_is_rejected():
    raw = mini_scenario_dict()
    raw["layout"]["junctions"][0]["connections"][0]["to"] = "nowhere"
    with pytest.raises(ScenarioValidationError, match=re.escape(
            "junction j1 connection right -> nowhere is ['right', 'nowhere'], "
            "not a list of lane ids")):
        scenario_from_dict(raw)


def test_goal_interval_outside_lane_is_rejected():
    raw = mini_scenario_dict()
    raw["ego"]["goal"]["interval"] = [0.0, 9999.0]
    with pytest.raises(ScenarioValidationError, match=re.escape(
            "ego goal interval 1 is 9999.0, not a finite number in [0.0, 60.000000001]")):
        scenario_from_dict(raw)


def test_unreachable_goal_is_rejected():
    raw = mini_scenario_dict()
    raw["layout"]["lanes"].append({"id": "island", "midline": [[0, 100], [50, 100]],
                                   "width_m": 3.5, "successors": []})
    raw["vehicles"][1]["goals"].append(
        {"lane": "island", "interval": [0.0, 10.0], "label": "unreachable island"})
    with pytest.raises(ScenarioValidationError, match="^vehicle v1 goals 2 lane is 'island', "
                       "not a lane reachable from 'left'$"):
        scenario_from_dict(raw)


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ScenarioParseError, match="cannot read .*: No such file or directory"):
        load_scenario(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{ this is not json")
    with pytest.raises(ScenarioParseError, match="line"):
        load_scenario(bad)


def json_paths(node, path=()):
    """The path of every value below the root of a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


def json_type(value) -> str:
    for kind, types in (("null", type(None)), ("boolean", bool), ("number", (int, float)),
                        ("string", str), ("array", list), ("object", dict)):
        if isinstance(value, types):
            return kind


with open(os.path.join(os.path.dirname(__file__), os.pardir, S1_PATH)) as _fh:
    S1_RAW = json.load(_fh)
NUMBERS = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False))
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, st.text(max_size=4))
JSON_VALUES = {"null": st.none(), "boolean": st.booleans(), "number": NUMBERS,
               "string": st.text(max_size=4), "array": st.lists(SCALARS, max_size=3),
               "object": st.dictionaries(st.text(max_size=4), SCALARS, max_size=3)}


@settings(max_examples=400, deadline=None)
@given(path=st.sampled_from(list(json_paths(S1_RAW))), data=st.data())
def test_one_field_of_another_type_or_deleted_fails_typed(path, data):
    raw = copy.deepcopy(S1_RAW)
    parent = functools.reduce(operator.getitem, path[:-1], raw)
    kind = data.draw(st.sampled_from(
        [k for k in JSON_VALUES if k != json_type(parent[path[-1]])] + ["deleted"]))
    if kind == "deleted":
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JSON_VALUES[kind])
    try:
        scenario_from_dict(raw, name="s1")
    except (ScenarioParseError, ScenarioValidationError):
        pass


def test_connection_curves_are_built_once_at_load_from_the_lane_ends():
    for path in (S1_PATH, S2_PATH, DENSE_PATH):
        layout = load_scenario(path).layout
        for junction in layout.junctions.values():
            for conn in junction.connections:
                a = layout.lanes[conn.from_lane].midline
                b = layout.lanes[conn.to_lane].midline
                pts = turn_curve(a.point_at(a.length), a.heading_at(a.length),
                                 b.point_at(0.0), b.heading_at(0.0))
                curve = layout.curves[conn.from_lane, conn.to_lane]
                if curve is None:  # s1's priority straight: its lanes meet
                    assert conn.priority_straight and np.all(pts == pts[0])
                else:
                    assert np.array_equal(curve[0], pts)
                    assert np.array_equal(curve[1].pts, Polyline(pts).pts)


TOO_FAR = "not a finite number in [0.0, 1000.0]"

# Each case moves points of s1's lanes (lane index, point index, axis, value);
# loading must fail with this message, before any curve is sampled.
BAD_CONNECTIONS = {
    "connection-too-long": ([(2, 0, 0, 1e9)],
                            f"junction j1 connection right_a -> right_b length is 999999905.0, "
                            f"{TOO_FAR}"),
    "successor-too-far": ([(3, 0, 0, 1e9)],
                          f"lane left_a successor left_b length is 999999905.0, {TOO_FAR}"),
    "turn-of-zero-length": ([(4, 0, 0, 95.0), (4, 0, 1, 0.0)],
                            "junction j1 connection right_a -> exit_lane length is 0.0, "
                            "not positive (a turn needs a curve)"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONNECTIONS))
def test_connection_geometry_is_checked_before_sampling(case):
    edits, message = BAD_CONNECTIONS[case]
    raw = copy.deepcopy(S1_RAW)
    for lane, point, axis, value in edits:
        raw["layout"]["lanes"][lane]["midline"][point][axis] = value
    with pytest.raises(ScenarioValidationError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(raw)


def test_loading_is_pure():
    a = load_scenario(S1_PATH)
    b = load_scenario(S1_PATH)
    assert [v.id for v in a.vehicles] == [v.id for v in b.vehicles]
    assert a.ego_goal == b.ego_goal
    assert sorted(a.layout.lanes) == sorted(b.layout.lanes)
    for lid in a.layout.lanes:
        assert np.array_equal(a.layout.lanes[lid].midline.pts, b.layout.lanes[lid].midline.pts)


# --- sampling ------------------------------------------------------------------


def test_sampled_speeds_stay_in_documented_range():
    sc = load_scenario(S1_PATH)
    for seed in range(50):
        state = sample_initial_states(sc, seed)
        for st in state.vehicles.values():
            assert 5.0 <= st.speed <= 10.0


def test_zero_spawn_range_places_exactly_at_nominal(mini_scenario):
    raw = mini_scenario_dict()
    for v in raw["vehicles"]:
        v["spawn_range_m"] = 0.0
    sc = scenario_from_dict(raw)
    state = sample_initial_states(sc, 123)
    for spec in sc.vehicles:
        lane = sc.layout.lanes[spec.lane]
        expected = lane.midline.point_at(spec.nominal_s)
        st = state.vehicles[spec.id]
        assert math.hypot(st.x - expected[0], st.y - expected[1]) < 1e-12


def test_equal_seeds_give_identical_states(mini_scenario):
    a = sample_initial_states(mini_scenario, 7)
    b = sample_initial_states(mini_scenario, 7)
    assert a == b
    c = sample_initial_states(mini_scenario, 8)
    assert a != c


def test_sampling_is_uniform_over_many_seeds(mini_scenario):
    speeds = [sample_initial_states(mini_scenario, seed).vehicles["v1"].speed
              for seed in range(10_000)]
    assert abs(float(np.mean(speeds)) - 7.5) < 0.05


def test_positions_stay_within_spawn_range(mini_scenario):
    spec = spec_of(mini_scenario, "v1")
    lane = mini_scenario.layout.lanes[spec.lane]
    for seed in range(200):
        st = sample_initial_states(mini_scenario, seed).vehicles["v1"]
        s, lat, _ = lane.midline.project((st.x, st.y))
        assert abs(s - spec.nominal_s) <= spec.spawn_range / 2 + 1e-9
        assert abs(lat) < 1e-9


# --- locate --------------------------------------------------------------------


def test_locate_on_midline_vertex(mini_scenario):
    lane_id, s, lat = locate(mini_scenario.layout, (0.0, 0.0))
    assert lane_id == "right"
    assert abs(s) < 1e-12 and abs(lat) < 1e-12


def test_locate_left_offset_is_positive(mini_scenario):
    # Half a width left of the right lane's midline, travel direction +x.
    lane_id, s, lat = locate(mini_scenario.layout, (10.0, 1.75))
    assert lane_id == "right"
    assert lat == pytest.approx(1.75, abs=1e-9)


def test_locate_off_road(mini_scenario):
    with pytest.raises(OffRoadError, match="off-road"):
        locate(mini_scenario.layout, (10.0, 60.0))


NON_FINITE = [(math.nan, math.nan), (math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0),
              (-math.inf, 0.0), (0.0, math.inf), (0.0, -math.inf), (math.inf, math.inf),
              (-math.inf, math.nan)]


@pytest.mark.parametrize("path", [S1_PATH, S2_PATH, DENSE_PATH],
                         ids=lambda path: os.path.relpath(path, REPO_ROOT))
def test_locate_rejects_non_finite_positions(path):
    layout = load_scenario(path).layout
    for position in NON_FINITE:
        with pytest.raises(OffRoadError, match="off-road"):
            locate(layout, position)
        if math.isnan(position[0]) or math.isnan(position[1]):
            # A NaN distance is off-road even with no margin bound (give-way's call).
            with pytest.raises(OffRoadError, match="off-road"):
                locate(layout, position, margin=math.inf)


def test_locate_round_trip(mini_scenario):
    rng = np.random.default_rng(0)
    lanes = list(mini_scenario.layout.lanes.values())
    for _ in range(100):
        lane = lanes[int(rng.integers(0, len(lanes)))]
        s = float(rng.uniform(0.0, lane.length))
        st = lane_point_state(mini_scenario.layout, lane.id, s, 5.0)
        lane_id, s_back, lat = locate(mini_scenario.layout, (st.x, st.y))
        assert lane_id == lane.id
        assert abs(s_back - s) < 1e-6
        assert abs(lat) < 1e-6


def test_heading_is_normalized():
    st = VehicleState(0.0, 0.0, 3 * math.pi, 1.0)
    assert -math.pi < st.heading <= math.pi
    assert st.heading == pytest.approx(math.pi)


def test_negative_speed_rejected():
    with pytest.raises(ScenarioValidationError):
        VehicleState(0.0, 0.0, 0.0, -1.0)


def test_goal_contains_respects_tolerance(mini_scenario):
    goal = Goal(lane="right", start_s=10.0, end_s=20.0, label="x", lateral_tolerance=5.0)
    assert goal_contains(mini_scenario.layout, goal, 15.0, 3.5)
    narrow = Goal(lane="right", start_s=10.0, end_s=20.0, label="x")
    assert not goal_contains(mini_scenario.layout, narrow, 15.0, 3.5)
    assert goal_contains(mini_scenario.layout, narrow, 15.0, 0.5)

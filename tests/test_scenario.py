import copy
import functools
import json
import math
import operator
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from whyplan.errors import OffRoadError, ScenarioParseError, ScenarioValidationError
from whyplan.scenario import (Goal, VehicleState, goal_contains, lane_point_state,
                              load_scenario, locate, sample_initial_states,
                              scenario_from_dict)

from conftest import mini_scenario_dict, spec_of

S1_PATH = "scenarios/s1.json"


def test_s1_file_loads_with_three_vehicles_and_one_junction():
    sc = load_scenario(S1_PATH)
    assert len(sc.vehicles) == 3
    assert len(sc.layout.junctions) == 1
    assert sc.ego_id == "ego"
    assert sc.ego_goal.label == "the end of the road"


def test_s2_file_loads():
    sc = load_scenario("scenarios/s2.json")
    assert len(sc.vehicles) == 3
    assert {c.direction for c in list(sc.layout.junctions.values())[0].connections} == \
        {"left", "right", "straight"}


def test_missing_ego_goal_is_rejected():
    raw = mini_scenario_dict()
    del raw["ego"]["goal"]
    with pytest.raises(ScenarioValidationError, match="ego goal absent"):
        scenario_from_dict(raw)


def test_single_point_midline_is_rejected():
    raw = mini_scenario_dict()
    raw["layout"]["lanes"][0]["midline"] = [[0.0, 0.0]]
    with pytest.raises(ScenarioValidationError, match="degenerate midline"):
        scenario_from_dict(raw)


def test_asymmetric_neighbors_are_rejected():
    raw = mini_scenario_dict()
    raw["layout"]["lanes"][1]["right_neighbor"] = None
    with pytest.raises(ScenarioValidationError, match="asymmetric"):
        scenario_from_dict(raw)


def test_junction_with_unknown_lane_is_rejected():
    raw = mini_scenario_dict()
    raw["layout"]["junctions"][0]["connections"][0]["to"] = "nowhere"
    with pytest.raises(ScenarioValidationError, match="nowhere"):
        scenario_from_dict(raw)


def test_goal_interval_outside_lane_is_rejected():
    raw = mini_scenario_dict()
    raw["ego"]["goal"]["interval"] = [0.0, 9999.0]
    with pytest.raises(ScenarioValidationError, match="interval"):
        scenario_from_dict(raw)


def test_unreachable_goal_is_rejected():
    raw = mini_scenario_dict()
    raw["layout"]["lanes"].append({"id": "island", "midline": [[0, 100], [50, 100]],
                                   "width_m": 3.5, "successors": []})
    raw["vehicles"][1]["goals"].append(
        {"lane": "island", "interval": [0.0, 10.0], "label": "unreachable island"})
    with pytest.raises(ScenarioValidationError, match="unreachable"):
        scenario_from_dict(raw)


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ScenarioParseError, match="not found"):
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

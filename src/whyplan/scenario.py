"""Lane-graph road layouts, scenario files, and initial-condition sampling.

Scenario files are JSON with top-level keys `layout.lanes[]`,
`layout.junctions[]`, `ego`, `vehicles[]`, `timestep_s`, `horizon_steps`
(see README for the full schema). Layouts and scenarios are immutable after
load; sampling takes an explicit seed and is pure.
"""

import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import OffRoadError, ScenarioParseError, ScenarioValidationError
from .geometry import Polyline, normalize_angle

TURN_DIRECTIONS = ("left", "right", "straight")

# How far beyond half a lane width a position may sit before locate() calls
# it off-road. Generous enough for mid-lane-change states.
OFFROAD_MARGIN_M = 1.5


@dataclass(frozen=True)
class Lane:
    id: str
    midline: Polyline
    width: float
    left_neighbor: str | None = None
    right_neighbor: str | None = None
    successors: tuple[str, ...] = ()

    @property
    def length(self) -> float:
        return self.midline.length


@dataclass(frozen=True)
class Connection:
    from_lane: str
    to_lane: str
    direction: str  # left | right | straight
    has_priority: bool


@dataclass(frozen=True)
class Junction:
    id: str
    connections: tuple[Connection, ...]


class RoadLayout:
    """Immutable lane graph: polyline midlines plus adjacency and junctions."""

    def __init__(self, lanes: list[Lane], junctions: list[Junction]):
        self.lanes: dict[str, Lane] = {lane.id: lane for lane in lanes}
        self.junctions: dict[str, Junction] = {j.id: j for j in junctions}
        self._validate()

    def _validate(self) -> None:
        for lane in self.lanes.values():
            for ref, name in ((lane.left_neighbor, "left"), (lane.right_neighbor, "right")):
                if ref is not None and ref not in self.lanes:
                    raise ScenarioValidationError(
                        f"lane {lane.id!r}: {name} neighbor {ref!r} does not exist")
            for succ in lane.successors:
                if succ not in self.lanes:
                    raise ScenarioValidationError(
                        f"lane {lane.id!r}: successor {succ!r} does not exist")
        for lane in self.lanes.values():
            if lane.left_neighbor is not None:
                other = self.lanes[lane.left_neighbor]
                if other.right_neighbor != lane.id:
                    raise ScenarioValidationError(
                        f"asymmetric neighbors: {lane.id!r}.left is {other.id!r} "
                        f"but {other.id!r}.right is {other.right_neighbor!r}")
            if lane.right_neighbor is not None:
                other = self.lanes[lane.right_neighbor]
                if other.left_neighbor != lane.id:
                    raise ScenarioValidationError(
                        f"asymmetric neighbors: {lane.id!r}.right is {other.id!r} "
                        f"but {other.id!r}.left is {other.left_neighbor!r}")
        for junction in self.junctions.values():
            for conn in junction.connections:
                for ref in (conn.from_lane, conn.to_lane):
                    if ref not in self.lanes:
                        raise ScenarioValidationError(
                            f"junction {junction.id!r} references missing lane {ref!r}")
                if conn.direction not in TURN_DIRECTIONS:
                    raise ScenarioValidationError(
                        f"junction {junction.id!r}: bad turn direction {conn.direction!r}")

    def connections_from(self, lane_id: str) -> list[tuple[Junction, Connection]]:
        out = []
        for junction in self.junctions.values():
            for conn in junction.connections:
                if conn.from_lane == lane_id:
                    out.append((junction, conn))
        return out

    def reachable_lanes(self, start: str) -> set[str]:
        """Lanes reachable via successors, lateral neighbors and junctions."""
        seen = {start}
        stack = [start]
        while stack:
            lane = self.lanes[stack.pop()]
            nxt = list(lane.successors)
            if lane.left_neighbor:
                nxt.append(lane.left_neighbor)
            if lane.right_neighbor:
                nxt.append(lane.right_neighbor)
            nxt.extend(c.to_lane for _, c in self.connections_from(lane.id))
            for n in nxt:
                if n not in seen:
                    seen.add(n)
                    stack.append(n)
        return seen


@dataclass(frozen=True)
class VehicleState:
    """Kinematic state of one vehicle: pose and speed."""

    x: float
    y: float
    heading: float
    speed: float

    def __post_init__(self):
        object.__setattr__(self, "heading", normalize_angle(self.heading))
        if self.speed < 0.0:
            raise ScenarioValidationError(f"speed must be >= 0, got {self.speed}")


@dataclass(frozen=True)
class JointState:
    """States of all traffic participants at one time step."""

    t: int
    vehicles: dict[str, VehicleState]

    def __post_init__(self):
        if len(self.vehicles) == 0:
            raise ScenarioValidationError("joint state has no vehicles")


@dataclass(frozen=True)
class Goal:
    """Target region: an arc-length interval on one lane.

    lateral_tolerance widens the region sideways so e.g. an end-of-road goal
    accepts arrival on an adjacent lane.
    """

    lane: str
    start_s: float
    end_s: float
    label: str
    lateral_tolerance: float | None = None


@dataclass(frozen=True)
class VehicleSpec:
    id: str
    label: str
    lane: str
    nominal_s: float
    spawn_range: float
    speed_range: tuple[float, float]
    goals: tuple[Goal, ...]  # the first is the vehicle's true goal


@dataclass(frozen=True)
class Scenario:
    name: str
    layout: RoadLayout
    ego_id: str
    ego_goal: Goal
    vehicles: tuple[VehicleSpec, ...]
    dt: float
    horizon: int
    observation_steps: int = 10
    rationality_beta: float = 1.0
    target_speed: float = 10.0
    # Optional per-scenario planner calibration (e.g. exploration constant),
    # applied by the harness unless overridden on the command line.
    planner_overrides: dict = field(default_factory=dict)

    @property
    def non_ego_ids(self) -> list[str]:
        return [v.id for v in self.vehicles if v.id != self.ego_id]


def goal_tolerance(layout: RoadLayout, goal: Goal) -> float:
    if goal.lateral_tolerance is not None:
        return goal.lateral_tolerance
    return layout.lanes[goal.lane].width / 2.0


def goal_contains(layout: RoadLayout, goal: Goal, x: float, y: float) -> bool:
    """True when (x, y) falls inside the goal's arc interval and tolerance."""
    lane = layout.lanes[goal.lane]
    s, _, dist = lane.midline.project((x, y))
    return goal.start_s - 1e-9 <= s <= goal.end_s + 1e-9 and dist <= goal_tolerance(layout, goal)


def locate(layout: RoadLayout, position, margin: float = OFFROAD_MARGIN_M
           ) -> tuple[str, float, float]:
    """Match a position to the laterally nearest lane.

    Returns (lane id, arc length of the foot point, signed lateral offset,
    left positive). Raises OffRoadError when the nearest offset exceeds that
    lane's half width plus `margin`.
    """
    best = None
    for lane in layout.lanes.values():
        s, lateral, dist = lane.midline.project(position)
        if best is None or dist < best[3]:
            best = (lane, s, lateral, dist)
    lane, s, lateral, dist = best
    if dist > lane.width / 2.0 + margin:
        raise OffRoadError(
            f"position {tuple(float(v) for v in position)} is off-road: "
            f"{dist:.2f} m from lane {lane.id!r}")
    return lane.id, s, lateral


def lane_point_state(layout: RoadLayout, lane_id: str, s: float, speed: float) -> VehicleState:
    """Vehicle state sitting on a lane midline at arc length s."""
    lane = layout.lanes[lane_id]
    x, y = lane.midline.point_at(s)
    return VehicleState(float(x), float(y), lane.midline.heading_at(s), speed)


# --- file loading -----------------------------------------------------------


_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer",
          float: "a finite number", bool: "true or false", tuple: "a list of two numbers"}
_REQUIRED = object()


def _check(value, kind: type, where: str):
    """`value` as JSON type `kind`, or ScenarioParseError. float takes any
    finite number (a boolean is none), tuple a list of two, as floats."""
    if kind is tuple:
        if len(_check(value, list, where)) != 2:
            raise ScenarioParseError(f"{where} must be {_KINDS[tuple]}")
        return _check(value[0], float, where), _check(value[1], float, where)
    if (not isinstance(value, (int, float) if kind is float else kind)
            or isinstance(value, bool) and kind is not bool
            or kind is float and not abs(value) <= sys.float_info.max):
        raise ScenarioParseError(f"{where} must be {_KINDS[kind]}")
    return float(value) if kind is float else value


def _require(mapping: dict, key: str, context: str, kind: type, default=_REQUIRED):
    """mapping[key] as `kind`; a key with a default may be absent or null."""
    if _check(mapping, dict, context).get(key) is None and default is not _REQUIRED:
        return default
    if key not in mapping:
        raise ScenarioParseError(f"{context}: missing required key {key!r}")
    return _check(mapping[key], kind, f"{context}.{key}")


def _parse_goal(raw: dict, context: str) -> Goal:
    lane = _require(raw, "lane", context, str)
    start_s, end_s = _require(raw, "interval", context, tuple)
    interval = raw["interval"]
    return Goal(lane, start_s, end_s,
                label=_require(raw, "label", context, str, f"{lane}[{interval[0]},{interval[1]}]"),
                lateral_tolerance=_require(raw, "lateral_tolerance_m", context, float, None))


def _parse_layout(raw: dict) -> RoadLayout:
    lanes = []
    for i, lr in enumerate(_require(raw, "lanes", "layout", list)):
        ctx = f"layout.lanes[{i}]"
        midline_pts = [_check(pt, tuple, f"{ctx}.midline")
                       for pt in _require(lr, "midline", ctx, list)]
        if len(midline_pts) < 2:
            raise ScenarioValidationError(f"{ctx}: degenerate midline (needs >= 2 points)")
        try:
            midline = Polyline(midline_pts)
        except ValueError as exc:
            raise ScenarioValidationError(f"{ctx}: degenerate midline ({exc})") from exc
        width = _require(lr, "width_m", ctx, float)
        if width <= 0:
            raise ScenarioValidationError(f"{ctx}: width must be positive")
        lanes.append(Lane(
            id=_require(lr, "id", ctx, str),
            midline=midline,
            width=width,
            left_neighbor=_require(lr, "left_neighbor", ctx, str, None),
            right_neighbor=_require(lr, "right_neighbor", ctx, str, None),
            successors=tuple(_check(succ, str, f"{ctx}.successors")
                             for succ in _require(lr, "successors", ctx, list, [])),
        ))
    junctions = []
    for i, jr in enumerate(_require(raw, "junctions", "layout", list, [])):
        ctx = f"layout.junctions[{i}]"
        conns = []
        for k, cr in enumerate(_require(jr, "connections", ctx, list)):
            cctx = f"{ctx}.connections[{k}]"
            conns.append(Connection(
                from_lane=_require(cr, "from", cctx, str),
                to_lane=_require(cr, "to", cctx, str),
                direction=_require(cr, "direction", cctx, str),
                has_priority=_require(cr, "has_priority", cctx, bool, False),
            ))
        junctions.append(Junction(id=_require(jr, "id", ctx, str), connections=tuple(conns)))
    return RoadLayout(lanes, junctions)


def _validate_scenario(sc: Scenario) -> None:
    ids = [v.id for v in sc.vehicles]
    if len(set(ids)) != len(ids):
        raise ScenarioValidationError("vehicle ids are not unique")
    if sc.ego_id not in ids:
        raise ScenarioValidationError(f"ego id {sc.ego_id!r} absent from vehicles[]")
    if sc.dt <= 0:
        raise ScenarioValidationError("timestep_s must be positive")
    if sc.horizon < 1:
        raise ScenarioValidationError("horizon_steps must be >= 1")

    def check_goal(goal: Goal, owner: str) -> None:
        if goal.lane not in sc.layout.lanes:
            raise ScenarioValidationError(f"{owner}: goal lane {goal.lane!r} does not exist")
        lane = sc.layout.lanes[goal.lane]
        if not (0.0 <= goal.start_s <= goal.end_s <= lane.length + 1e-9):
            raise ScenarioValidationError(
                f"{owner}: goal interval [{goal.start_s}, {goal.end_s}] outside lane "
                f"length {lane.length:.2f}")

    check_goal(sc.ego_goal, "ego")
    for v in sc.vehicles:
        if v.lane not in sc.layout.lanes:
            raise ScenarioValidationError(f"vehicle {v.id!r}: lane {v.lane!r} does not exist")
        lane = sc.layout.lanes[v.lane]
        if not (0.0 <= v.nominal_s <= lane.length + 1e-9):
            raise ScenarioValidationError(
                f"vehicle {v.id!r}: nominal_s {v.nominal_s} outside lane length")
        if v.spawn_range < 0:
            raise ScenarioValidationError(f"vehicle {v.id!r}: spawn range must be >= 0")
        lo, hi = v.speed_range
        if lo < 0 or hi < lo:
            raise ScenarioValidationError(f"vehicle {v.id!r}: bad speed range [{lo}, {hi}]")
        if v.id != sc.ego_id and not v.goals:
            raise ScenarioValidationError(f"vehicle {v.id!r}: needs at least one goal")
        reachable = sc.layout.reachable_lanes(v.lane)
        goals = list(v.goals) + ([sc.ego_goal] if v.id == sc.ego_id else [])
        for g in goals:
            check_goal(g, f"vehicle {v.id!r}")
            if g.lane not in reachable:
                raise ScenarioValidationError(
                    f"vehicle {v.id!r}: goal {g.label!r} unreachable from lane {v.lane!r}")


def scenario_from_dict(raw: dict, name: str = "scenario") -> Scenario:
    layout = _parse_layout(_require(raw, "layout", "scenario", dict))
    ego_raw = _require(raw, "ego", "scenario", dict)
    if "goal" not in ego_raw:
        raise ScenarioValidationError("ego goal absent")
    ego_goal = _parse_goal(ego_raw["goal"], "ego.goal")
    vehicles = []
    for i, vr in enumerate(_require(raw, "vehicles", "scenario", list)):
        ctx = f"vehicles[{i}]"
        vid = _require(vr, "id", ctx, str)
        vehicles.append(VehicleSpec(
            id=vid,
            label=_require(vr, "label", ctx, str, vid),
            lane=_require(vr, "lane", ctx, str),
            nominal_s=_require(vr, "nominal_s", ctx, float),
            spawn_range=_require(vr, "spawn_range_m", ctx, float, 0.0),
            speed_range=_require(vr, "speed_range_mps", ctx, tuple),
            goals=tuple(_parse_goal(g, f"{ctx}.goals")
                        for g in _require(vr, "goals", ctx, list, [])),
        ))
    planner = _require(raw, "planner", "scenario", dict, {})
    sc = Scenario(
        name=_require(raw, "name", "scenario", str, name),
        layout=layout,
        ego_id=_require(ego_raw, "id", "ego", str),
        ego_goal=ego_goal,
        vehicles=tuple(vehicles),
        dt=_require(raw, "timestep_s", "scenario", float),
        horizon=_require(raw, "horizon_steps", "scenario", int),
        observation_steps=_require(raw, "observation_steps", "scenario", int, 10),
        rationality_beta=_require(raw, "rationality_beta", "scenario", float, 1.0),
        target_speed=_require(raw, "target_speed_mps", "scenario", float, 10.0),
        planner_overrides={key: _require(planner, key, "planner", float) for key in planner},
    )
    _validate_scenario(sc)
    return sc


def load_scenario(path) -> Scenario:
    """Load and validate a scenario file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ScenarioParseError(f"scenario file not found: {path}") from exc
    except (OSError, ValueError) as exc:  # a directory, invalid JSON, not UTF-8
        raise ScenarioParseError(f"{path} is not a readable JSON file: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioParseError(f"{path}: top level must be an object")
    return scenario_from_dict(raw, name=os.path.splitext(os.path.basename(str(path)))[0])


def sample_initial_states(scenario: Scenario, seed: int) -> JointState:
    """Place every vehicle within its longitudinal spawn range on its lane.

    Positions are offset uniformly within +-spawn_range/2 of nominal_s
    (clamped to the lane), speeds drawn uniformly from the vehicle's range.
    Deterministic given the seed.
    """
    rng = np.random.default_rng(seed)
    states: dict[str, VehicleState] = {}
    for v in scenario.vehicles:
        lane = scenario.layout.lanes[v.lane]
        offset = rng.uniform(-v.spawn_range / 2.0, v.spawn_range / 2.0) if v.spawn_range > 0 else 0.0
        s = min(max(v.nominal_s + offset, 0.0), lane.length)
        lo, hi = v.speed_range
        speed = float(rng.uniform(lo, hi)) if hi > lo else float(lo)
        states[v.id] = lane_point_state(scenario.layout, v.lane, s, speed)
    return JointState(t=0, vehicles=states)

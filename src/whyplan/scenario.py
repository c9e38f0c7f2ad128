"""Lane-graph road layouts, scenario files, and initial-condition sampling.

Scenario files are JSON with top-level keys `layout.lanes[]`,
`layout.junctions[]`, `ego`, `vehicles[]`, `timestep_s`, `horizon_steps`
(see README for the full schema). Layouts and scenarios are immutable after
load; sampling takes an explicit seed and is pure.
"""

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import checks
from .errors import OffRoadError, ScenarioParseError, ScenarioValidationError
from .geometry import Polyline, normalize_angle, turn_curve

TURN_DIRECTIONS = ("left", "right", "straight")

# How far beyond half a lane width a position may sit before locate() calls
# it off-road. Generous enough for mid-lane-change states.
OFFROAD_MARGIN_M = 1.5

# The longest gap, end to start, that a junction connection or a successor may
# bridge between two lanes. The bridging curve is sampled every 0.5 m and its
# control polygon is at most 9 times the gap, so this also caps a curve at
# 18,000 points.
MAX_CONNECTION_M = 1000.0

# Upper bounds on the time step, every speed and the recognition softmax's
# rationality, far above any drivable value. Beyond about 1e308 the motion
# arithmetic overflows and the goal softmax turns NaN.
MAX_TIMESTEP_S = 1e6
MAX_SPEED_MPS = 1e6
MAX_RATIONALITY_BETA = 1e6


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

    @property
    def priority_straight(self) -> bool:
        """Lane keeping drives a priority straight; any other connection is an Exit."""
        return self.direction == "straight" and self.has_priority


@dataclass(frozen=True)
class Junction:
    id: str
    connections: tuple[Connection, ...]


class RoadLayout:
    """Immutable lane graph: polyline midlines plus adjacency and junctions.
    `curves` maps each connection (from lane, to lane) to its curve, built and
    checked here: the sampled points give-way yields on and the Polyline a turn
    drives, or None for a priority straight whose lanes meet."""

    def __init__(self, lanes: list[Lane], junctions: list[Junction]):
        self.lanes: dict[str, Lane] = {lane.id: lane for lane in lanes}
        self.junctions: dict[str, Junction] = {j.id: j for j in junctions}
        self.curves: dict[tuple[str, str], tuple[np.ndarray, Polyline] | None] = {}
        self._validate()

    def _ends(self, from_lane: str, to_lane: str, where: tuple) -> tuple[tuple, tuple]:
        """The frames at `from_lane`'s end and `to_lane`'s start, checked to be at
        most MAX_CONNECTION_M apart."""
        a, b = self.lanes[from_lane].midline, self.lanes[to_lane].midline
        start, end = a.frame_at(a.length), b.frame_at(0.0)
        checks.number(math.dist(start[:2], end[:2]), where + ("length",),
                      ScenarioValidationError, 0.0, MAX_CONNECTION_M)
        return start, end

    def _validate(self) -> None:
        invalid = ScenarioValidationError
        for lane in self.lanes.values():
            where = ("lane", lane.id)
            for side, ref, back in (("left_neighbor", lane.left_neighbor, "right_neighbor"),
                                    ("right_neighbor", lane.right_neighbor, "left_neighbor")):
                if ref is not None:
                    checks.member(ref, where + (side,), invalid, self.lanes, "a lane id")
                    if getattr(self.lanes[ref], back) != lane.id:
                        checks.fail(ref, where + (side,), f"a lane whose {back} is {lane.id!r}",
                                    invalid)
            for succ in checks.names(list(lane.successors), where + ("successors",), invalid,
                                     self.lanes, "lane ids"):
                self._ends(lane.id, succ, where + ("successor", succ))
        for junction in self.junctions.values():
            for conn in junction.connections:
                where = ("junction", junction.id, "connection", conn.from_lane, "->",
                         conn.to_lane)
                checks.names([conn.from_lane, conn.to_lane], where, invalid, self.lanes,
                             "lane ids")
                checks.member(conn.direction, where + ("direction",), invalid, TURN_DIRECTIONS,
                              "left, right or straight")
                start, end = self._ends(conn.from_lane, conn.to_lane, where)
                pts = turn_curve(start[:2], start[4], end[:2], end[4])
                try:
                    curve = pts, Polyline(pts)
                except ValueError:  # the lanes meet
                    if not conn.priority_straight:
                        checks.fail(0.0, where + ("length",), "positive (a turn needs a curve)",
                                    invalid)
                    curve = None
                self.curves[conn.from_lane, conn.to_lane] = curve

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
    # The scenario's UCB1 exploration constant, unless the command line sets one.
    exploration: float | None = None

    @property
    def non_ego_ids(self) -> list[str]:
        return [v.id for v in self.vehicles if v.id != self.ego_id]


def goal_tolerance(layout: RoadLayout, goal: Goal) -> float:
    if goal.lateral_tolerance is not None:
        return goal.lateral_tolerance
    return layout.lanes[goal.lane].width / 2.0


def goal_contains(layout: RoadLayout, goal: Goal, x: float, y: float) -> bool:
    """True when (x, y) falls inside the goal's arc interval and tolerance.
    Loops over many points test `goal_box` first, which saves the projection."""
    lane = layout.lanes[goal.lane]
    s, _, dist = lane.midline.project((x, y))
    return goal.start_s - 1e-9 <= s <= goal.end_s + 1e-9 and dist <= goal_tolerance(layout, goal)


@functools.lru_cache(maxsize=256)
def goal_box(layout: RoadLayout, goal: Goal
             ) -> tuple[tuple[float, float, float, float], frozenset[str]]:
    """A box (x_lo, x_hi, y_lo, y_hi) around every point `goal_contains` accepts,
    and the lanes whose midline meets it: the goal lane's midline over the goal
    interval, widened by the tolerance and a pad far above a projection's
    rounding, so testing it first changes no answer."""
    mid = layout.lanes[goal.lane].midline
    lo, hi = goal.start_s - 1e-9, goal.end_s + 1e-9
    pts = np.asarray([mid.point_at(lo), mid.point_at(hi)]
                     + [p for p, s in zip(mid.pts, mid.cum_s) if lo <= s <= hi])
    tol = goal_tolerance(layout, goal)
    pad = tol + 1e-6 * (1.0 + tol + mid.length + float(np.abs(mid.pts).max()))
    x_lo, y_lo = (pts.min(axis=0) - pad).tolist()
    x_hi, y_hi = (pts.max(axis=0) + pad).tolist()
    lanes = frozenset(lane.id for lane in layout.lanes.values()
                      if np.all(lane.midline.pts.min(axis=0) <= (x_hi, y_hi))
                      and np.all(lane.midline.pts.max(axis=0) >= (x_lo, y_lo)))
    return (x_lo, x_hi, y_lo, y_hi), lanes


def locate(layout: RoadLayout, position, margin: float = OFFROAD_MARGIN_M
           ) -> tuple[str, float, float]:
    """Match a position to the laterally nearest lane.

    Returns (lane id, arc length of the foot point, signed lateral offset,
    left positive). Raises OffRoadError when the nearest offset exceeds that
    lane's half width plus `margin`, or is NaN (a non-finite position).
    """
    best = None
    for lane in layout.lanes.values():
        s, lateral, dist = lane.midline.project(position)
        if best is None or dist < best[3]:
            best = (lane, s, lateral, dist)
    lane, s, lateral, dist = best
    if not dist <= lane.width / 2.0 + margin:  # a NaN distance is off-road too
        raise OffRoadError(
            f"position {tuple(float(v) for v in position)} is off-road: "
            f"{dist:.2f} m from lane {lane.id!r}")
    return lane.id, s, lateral


def lane_point_state(layout: RoadLayout, lane_id: str, s: float, speed: float) -> VehicleState:
    """Vehicle state sitting on a lane midline at arc length s."""
    x, y, _, _, heading = layout.lanes[lane_id].midline.frame_at(float(s))
    return VehicleState(x, y, heading, speed)


# --- file loading -----------------------------------------------------------


_REQUIRED = object()


def _require(mapping, key: str, where: tuple, check, default=_REQUIRED):
    """mapping[key] through `check`, a JSON type or a leaf of `checks`, else
    ScenarioParseError; a key with a default may be absent or null."""
    value = checks.typed(mapping, where, ScenarioParseError, dict).get(key)
    if value is None and default is not _REQUIRED:
        return default
    if key not in mapping:
        checks.missing(where + (key,), ScenarioParseError)
    if isinstance(check, type):
        return checks.typed(value, where + (key,), ScenarioParseError, check)
    return check(value, where + (key,), ScenarioParseError)


def _parse_goal(raw: dict, where: tuple) -> Goal:
    lane = _require(raw, "lane", where, str)
    start_s, end_s = _require(raw, "interval", where, checks.pair)
    interval = raw["interval"]
    return Goal(lane, start_s, end_s,
                label=_require(raw, "label", where, str, f"{lane}[{interval[0]},{interval[1]}]"),
                lateral_tolerance=_require(raw, "lateral_tolerance_m", where, checks.number,
                                           None))


def _parse_layout(raw: dict) -> RoadLayout:
    lanes = []
    for i, lr in enumerate(_require(raw, "lanes", ("layout",), list)):
        where = ("layout", "lanes", i)
        midline_pts = [checks.pair(pt, where + ("midline", k), ScenarioParseError)
                       for k, pt in enumerate(_require(lr, "midline", where, list))]
        try:
            midline = Polyline(midline_pts)
        except ValueError:  # fewer than two distinct points
            checks.fail(lr["midline"], where + ("midline",), "a polyline of positive length",
                        ScenarioValidationError)
        width = _require(lr, "width_m", where, checks.number)
        if not width > 0:
            checks.fail(width, where + ("width_m",), "positive", ScenarioValidationError)
        lanes.append(Lane(
            id=_require(lr, "id", where, str),
            midline=midline,
            width=width,
            left_neighbor=_require(lr, "left_neighbor", where, str, None),
            right_neighbor=_require(lr, "right_neighbor", where, str, None),
            successors=tuple(checks.typed(succ, where + ("successors", k), ScenarioParseError, str)
                             for k, succ in enumerate(_require(lr, "successors", where, list, []))),
        ))
    junctions = []
    for i, jr in enumerate(_require(raw, "junctions", ("layout",), list, [])):
        where = ("layout", "junctions", i)
        conns = []
        for k, cr in enumerate(_require(jr, "connections", where, list)):
            cwhere = where + ("connections", k)
            conns.append(Connection(
                from_lane=_require(cr, "from", cwhere, str),
                to_lane=_require(cr, "to", cwhere, str),
                direction=_require(cr, "direction", cwhere, str),
                has_priority=_require(cr, "has_priority", cwhere, bool, False),
            ))
        junctions.append(Junction(id=_require(jr, "id", where, str), connections=tuple(conns)))
    return RoadLayout(lanes, junctions)


def _validate_scenario(sc: Scenario) -> None:
    invalid, lanes = ScenarioValidationError, sc.layout.lanes
    ids = [v.id for v in sc.vehicles]
    if len(set(ids)) != len(ids):
        checks.fail(ids, ("vehicle ids",), "unique", invalid)
    checks.member(sc.ego_id, ("ego", "id"), invalid, ids, "a vehicle id")
    for key, value in (("timestep_s", sc.dt), ("target_speed_mps", sc.target_speed)):
        if not value > 0:
            checks.fail(value, ("scenario", key), "positive", invalid)
    checks.integer(sc.horizon, ("scenario", "horizon_steps"), invalid, 1)
    checks.integer(sc.observation_steps, ("scenario", "observation_steps"), invalid, 0)
    checks.number(sc.rationality_beta, ("scenario", "rationality_beta"), invalid, 0.0)
    for key, value, most in (("timestep_s", sc.dt, MAX_TIMESTEP_S),
                             ("target_speed_mps", sc.target_speed, MAX_SPEED_MPS),
                             ("rationality_beta", sc.rationality_beta, MAX_RATIONALITY_BETA)):
        if value > most:
            checks.fail(value, ("scenario", key), f"at most {most:g}", invalid)
    for v in sc.vehicles:
        where = ("vehicle", v.id)
        lane = lanes[checks.member(v.lane, where + ("lane",), invalid, lanes, "a lane id")]
        checks.number(v.nominal_s, where + ("nominal_s",), invalid, 0.0, lane.length + 1e-9)
        checks.number(v.spawn_range, where + ("spawn_range_m",), invalid, 0.0)
        lo, hi = v.speed_range
        checks.number(lo, where + ("speed_range_mps", 0), invalid, 0.0, hi)
        if hi > MAX_SPEED_MPS:
            checks.fail(hi, where + ("speed_range_mps", 1), f"at most {MAX_SPEED_MPS:g}", invalid)
        if v.id != sc.ego_id and not v.goals:
            checks.fail([], where + ("goals",), "a list of at least one goal", invalid)
        reachable = sc.layout.reachable_lanes(v.lane)
        goals = [(where + ("goals", k), g) for k, g in enumerate(v.goals)]
        for gwhere, g in goals + ([(("ego", "goal"), sc.ego_goal)] if v.id == sc.ego_id else []):
            glane = lanes[checks.member(g.lane, gwhere + ("lane",), invalid, lanes, "a lane id")]
            checks.number(g.start_s, gwhere + ("interval", 0), invalid, 0.0, g.end_s)
            checks.number(g.end_s, gwhere + ("interval", 1), invalid, 0.0, glane.length + 1e-9)
            if g.lateral_tolerance is not None:
                checks.number(g.lateral_tolerance, gwhere + ("lateral_tolerance_m",), invalid, 0.0)
            checks.member(g.lane, gwhere + ("lane",), invalid, reachable,
                          f"a lane reachable from {v.lane!r}")


def scenario_from_dict(raw: dict, name: str = "scenario") -> Scenario:
    top = ("scenario",)
    layout = _parse_layout(_require(raw, "layout", top, dict))
    ego_raw = _require(raw, "ego", top, dict)
    if "goal" not in ego_raw:
        checks.missing(("ego", "goal"), ScenarioValidationError)
    ego_goal = _parse_goal(ego_raw["goal"], ("ego", "goal"))
    vehicles = []
    for i, vr in enumerate(_require(raw, "vehicles", top, list)):
        where = ("vehicles", i)
        vid = _require(vr, "id", where, str)
        vehicles.append(VehicleSpec(
            id=vid,
            label=_require(vr, "label", where, str, vid),
            lane=_require(vr, "lane", where, str),
            nominal_s=_require(vr, "nominal_s", where, checks.number),
            spawn_range=_require(vr, "spawn_range_m", where, checks.number, 0.0),
            speed_range=_require(vr, "speed_range_mps", where, checks.pair),
            goals=tuple(_parse_goal(g, where + ("goals", k))
                        for k, g in enumerate(_require(vr, "goals", where, list, []))),
        ))
    planner = _require(raw, "planner", top, dict, {})
    for key in planner:
        checks.member(key, ("planner", "key"), ScenarioParseError, ("exploration",),
                      "'exploration'")
    sc = Scenario(
        name=_require(raw, "name", top, str, name),
        layout=layout,
        ego_id=_require(ego_raw, "id", ("ego",), str),
        ego_goal=ego_goal,
        vehicles=tuple(vehicles),
        dt=_require(raw, "timestep_s", top, checks.number),
        horizon=_require(raw, "horizon_steps", top, checks.integer),
        observation_steps=_require(raw, "observation_steps", top, checks.integer, 10),
        rationality_beta=_require(raw, "rationality_beta", top, checks.number, 1.0),
        target_speed=_require(raw, "target_speed_mps", top, checks.number, 10.0),
        exploration=_require(planner, "exploration", ("planner",), checks.number, None),
    )
    _validate_scenario(sc)
    return sc


def load_scenario(path) -> Scenario:
    """Load and validate a scenario file."""
    raw = checks.typed(checks.read_json(path, ScenarioParseError), (path,), ScenarioParseError,
                       dict)
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

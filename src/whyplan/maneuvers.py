"""Macro actions, manoeuvres, the one vehicle integrator and trajectory features.

A macro action is its name, one of `ALL_MACRO_NAMES` (Continue,
Change-left/right, Exit-left/right/straight, Continue-next-exit, Stop).
`macro_table` maps each macro that applies at a vehicle state to its chain of
manoeuvres (lane-follow, lane-change, give-way, turn, stop). On a lane it is
the lane's table, built once per lane; off every lane it holds only the
junction crossing being driven. `applicable_macros` filters it by headway
and Continue's goal test, `expand_macro` reads one chain, and recognition
reads it whole. `ChainStepper` drives a chain for recognition (`roll_chain`), MCTS
rollouts and observation alike: a constant-acceleration point mass following
lane midlines, cubic lateral blends for lane changes, give-way segments that
hold zero speed until their yield predicate clears.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InapplicableMacroError, OffRoadError
from .geometry import Polyline, normalize_angle, normalize_angles, smoothstep, turn_curve
from .scenario import (OFFROAD_MARGIN_M, Goal, JointState, RoadLayout, VehicleState,
                       goal_box, goal_contains, locate)

MANEUVER_KINDS = ("lane-follow", "lane-change-left", "lane-change-right",
                  "turn-left", "turn-right", "turn-straight", "give-way", "stop")

# The motion model; a scenario sets only the cruise speed (`target_speed_mps`).
ACCEL_MAX = 2.0
BRAKE_COMFORT = 2.0
# Turn approaches shed speed early and gently, like a driver signalling
# an exit, so following traffic sees the slowdown well before the turn.
BRAKE_APPROACH = 1.0
BRAKE_MAX = 4.5
LANE_CHANGE_DURATION = 3.0
TURN_SPEED = 2.5
HEADWAY_S = 1.5
GIVEWAY_WINDOW_S = 4.0
CONFLICT_CLEARANCE = 4.5
COLLISION_RADIUS = 1.5
FOLLOW_TIME_GAP = 1.0
FOLLOW_MIN_GAP = 2.0
LEAD_LATERAL = 3.2
LEAD_LOOKAHEAD = 60.0
# PD follower gains: gap error (1/s^2) and closing-speed error (1/s).
FOLLOW_KG = 0.6
FOLLOW_KV = 1.2


ALL_MACRO_NAMES = ("Change-left", "Change-right", "Continue", "Continue-next-exit",
                   "Exit-left", "Exit-right", "Exit-straight", "Stop")


@dataclass(frozen=True)
class Maneuver:
    """Primitive motion segment with concrete lane references.

    hold_speed marks turn-approach segments: the vehicle keeps its entry
    speed instead of accelerating to cruise (it is about to yield or turn).
    """

    kind: str
    lanes: tuple[str, ...] = ()
    target_lane: str | None = None
    junction: str | None = None
    connection: tuple[str, str] | None = None
    hold_speed: bool = False

    def __post_init__(self):
        if self.kind not in MANEUVER_KINDS:
            raise ValueError(f"unknown manoeuvre kind {self.kind!r}")
        if self.kind.startswith("lane-change") and self.target_lane is None:
            raise ValueError(f"{self.kind} needs a target lane")
        if (self.kind == "give-way" or self.kind.startswith("turn-")) and (
                self.junction is None or self.connection is None):
            raise ValueError(f"{self.kind} needs a junction and connection")


@dataclass
class Trajectory:
    """State sequence at fixed dt; adjacent states differ by one step. The
    library builds each field as a list of Python floats."""

    dt: float
    xs: list[float]
    ys: list[float]
    headings: list[float]
    speeds: list[float]
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.xs)

    def state_at(self, k: int) -> VehicleState:
        k = min(max(k, 0), len(self.xs) - 1)
        return VehicleState(self.xs[k], self.ys[k], self.headings[k], max(self.speeds[k], 0.0))

    def tail_state(self) -> VehicleState:
        return self.state_at(len(self.xs) - 1)


def concat_trajectories(parts: list[Trajectory]) -> Trajectory:
    """Join trajectories end to end, dropping duplicated joint states."""
    parts = [p for p in parts if len(p) > 0]
    if not parts:
        raise ValueError("nothing to concatenate")
    first = parts[0]
    xs, ys, hs, vs = list(first.xs), list(first.ys), list(first.headings), list(first.speeds)
    for p in parts[1:]:
        xs.extend(p.xs[1:])
        ys.extend(p.ys[1:])
        hs.extend(p.headings[1:])
        vs.extend(p.speeds[1:])
    return Trajectory(dt=first.dt, xs=xs, ys=ys, headings=hs, speeds=vs,
                      truncated=parts[-1].truncated)


@dataclass(frozen=True)
class TrajectoryFeatures:
    """Per-trajectory quantities behind the reward components."""

    time_to_goal: float
    jerk: float
    angular_acceleration: float
    curvature: float


# --- lane-follow chains ------------------------------------------------------


def lane_follow_chain(layout: RoadLayout, lane_id: str) -> list[str]:
    """Lanes reachable by pure lane keeping.

    Follows successors, and crosses junctions only through straight
    connections that hold priority (yield-free); any other movement needs an
    Exit macro.
    """
    chain = [lane_id]
    seen = {lane_id}
    cur = lane_id
    while True:
        lane = layout.lanes[cur]
        nxt = lane.successors[0] if lane.successors else None
        if nxt is None:
            straight = [c for _, c in layout.connections_from(cur) if c.priority_straight]
            nxt = straight[0].to_lane if straight else None
        if nxt is None or nxt in seen:
            return chain
        chain.append(nxt)
        seen.add(nxt)
        cur = nxt


def chain_polyline(layout: RoadLayout, chain: list[str], from_s: float = 0.0) -> Polyline | None:
    """Concatenated midline of a lane chain starting at arc length from_s.

    Gaps between consecutive lanes (spatially separated junction crossings)
    are bridged with a connection curve. Returns None when less than ~5 cm of
    path remains.
    """
    pts: list[np.ndarray] = []
    first = layout.lanes[chain[0]].midline
    s0 = min(max(from_s, 0.0), first.length)
    if first.length - s0 > 1e-6:
        pts.append(first.point_at(s0))
        for i, cs in enumerate(first.cum_s):
            if cs > s0 + 1e-9:
                pts.append(first.pts[i])
    else:
        pts.append(first.point_at(first.length))
    prev = first
    for lane_id in chain[1:]:
        mid = layout.lanes[lane_id].midline
        gap = float(np.linalg.norm(mid.pts[0] - prev.pts[-1]))
        if gap > 0.1:
            bridge = turn_curve(prev.pts[-1], prev.heading_at(prev.length),
                                mid.pts[0], mid.heading_at(0.0))
            pts.extend(bridge[1:-1])
        for i in range(len(mid.pts)):
            if i == 0 and gap <= 0.1:
                continue
            pts.append(mid.pts[i])
        prev = mid
    arr = np.asarray(pts)
    if len(arr) < 2 or np.sum(np.linalg.norm(np.diff(arr, axis=0), axis=1)) < 0.05:
        return None
    return Polyline(arr)


def merged_path(base: Polyline, lat0: float, step: float = 0.5) -> Polyline:
    """Overlay a lateral merge-in blend on the first metres of a path."""
    if abs(lat0) < 0.05:
        return base
    merge_len = min(max(6.0, abs(lat0) * 8.0), max(base.length - 0.5, 1.0))
    pts = []
    s = 0.0
    while s < merge_len:
        off = lat0 * (1.0 - smoothstep(s / merge_len))
        x, y, nx, ny, _ = base.frame_at(s)
        pts.append((x + off * nx, y + off * ny))
        s += step
    for i, cs in enumerate(base.cum_s):
        if cs >= merge_len:
            pts.append(base.pts[i])
    if len(pts) < 2:
        return base
    return Polyline(np.asarray(pts))


# --- applicability -----------------------------------------------------------


def chain_reaches_goal(layout: RoadLayout, chain: list[str], from_s: float, goal: Goal) -> bool:
    """Whether the chain's midlines, sampled every 2 m from `from_s` on the first
    lane and at each lane's end, enter `goal`. Lanes that miss the goal's box
    (`goal_box`) are skipped, however long they are."""
    (x_lo, x_hi, y_lo, y_hi), lanes = goal_box(layout, goal)

    def inside(mid: Polyline, s: float) -> bool:
        x, y = mid.point_at(s).tolist()
        return x_lo <= x <= x_hi and y_lo <= y <= y_hi and goal_contains(layout, goal, x, y)

    for i, lane_id in enumerate(chain):
        if lane_id not in lanes:
            continue
        mid = layout.lanes[lane_id].midline
        s = from_s if i == 0 else 0.0
        while s <= mid.length:
            if inside(mid, s):
                return True
            s += 2.0
        if inside(mid, mid.length):
            return True
    return False


def _headway_ok(state: JointState, vehicle_id: str, layout: RoadLayout,
                target_lane_id: str) -> bool:
    me = state.vehicles[vehicle_id]
    lane = layout.lanes[target_lane_id]
    s_me, _, _ = lane.midline.project((me.x, me.y))
    for vid, other in state.vehicles.items():
        if vid == vehicle_id:
            continue
        s_o, _, dist = lane.midline.project((other.x, other.y))
        if dist > lane.width / 2.0 + 0.3:
            continue
        ds = s_o - s_me
        if ds >= 0.0:
            headway = ds / max(me.speed, 0.1)
        else:
            headway = -ds / max(other.speed, 0.1)
        if headway < HEADWAY_S:
            return False
    return True


def _exit_chain(chain: tuple[str, ...], jid: str, conn) -> tuple[Maneuver, ...]:
    """Approach the arrival lane holding speed, give way, then turn through `conn`."""
    approach = chain[:chain.index(conn.from_lane) + 1]
    link = (conn.from_lane, conn.to_lane)
    return (Maneuver("lane-follow", lanes=approach, hold_speed=True),
            Maneuver("give-way", lanes=(conn.from_lane,), junction=jid, connection=link),
            Maneuver(f"turn-{conn.direction}", lanes=(conn.to_lane,), junction=jid,
                     connection=link))


@functools.lru_cache(maxsize=256)
def lane_macros(layout: RoadLayout, lane_id: str) -> dict[str, tuple[Maneuver, ...]]:
    """The macros that apply anywhere on a lane, by name, with their chains.

    An Exit takes the first connection its way at the lane-follow chain's
    first junction, Continue-next-exit the preferred one at its second. The
    dict is built once per (layout, lane) and shared: callers only read it.
    """
    lane = layout.lanes[lane_id]
    chain = tuple(lane_follow_chain(layout, lane_id))
    table = {"Continue": (Maneuver("lane-follow", lanes=chain),),
             "Stop": (Maneuver("stop", lanes=chain),)}
    for target, side in ((lane.left_neighbor, "left"), (lane.right_neighbor, "right")):
        if target is not None:
            table[f"Change-{side}"] = (Maneuver(f"lane-change-{side}", lanes=(lane_id,),
                                                target_lane=target),)
    junctions = list(dict.fromkeys((junction.id, arrival) for arrival in chain
                                   for junction, _ in layout.connections_from(arrival)))
    for i, (jid, arrival) in enumerate(junctions[:2]):
        conns = [c for c in layout.junctions[jid].connections if c.from_lane == arrival]
        exits = [c for c in conns if not c.priority_straight]
        if i == 0:
            for conn in exits:
                table.setdefault(f"Exit-{conn.direction}", _exit_chain(chain, jid, conn))
        else:  # a priority straight whose lanes meet has no curve to turn through
            drivable = exits or [c for c in conns if layout.curves[c.from_lane, c.to_lane]]
            if drivable:
                conn = min(drivable,
                           key=lambda c: ("right", "straight", "left").index(c.direction))
                table["Continue-next-exit"] = _exit_chain(chain, jid, conn)
    return dict(sorted(table.items()))


def macro_table(me: VehicleState, layout: RoadLayout
                ) -> tuple[dict[str, tuple[Maneuver, ...]], float | None]:
    """The macros that apply at `me` before traffic and goals are asked, by name
    with their chains, and `me`'s arc length on its lane.

    On a lane that is the lane's table; off every lane, only the junction
    crossing being driven, and arc length None. Raises OffRoadError when `me`
    is on no lane or connection.
    """
    try:
        lane_id, s, _ = locate(layout, (me.x, me.y))
    except OffRoadError:
        name, rest = _crossing(layout, me)
        return {name: rest}, None
    return lane_macros(layout, lane_id), s


def continue_reaches_goal(table: dict[str, tuple[Maneuver, ...]], s: float | None,
                          layout: RoadLayout, goal: Goal) -> bool:
    """Continue's goal test: its chain reaches `goal` from arc length `s`;
    finishing a junction crossing (`s` None) always does."""
    return s is None or chain_reaches_goal(layout, table["Continue"][0].lanes, s, goal)


def applicable_macros(state: JointState, vehicle_id: str, layout: RoadLayout,
                      goal: Goal) -> list[str]:
    """Names of the macro actions that apply for `vehicle_id` heading to `goal`, sorted:
    its `macro_table`, less a lane change without headway and a Continue
    that does not reach `goal`.
    """
    table, s = macro_table(state.vehicles[vehicle_id], layout)
    return [name for name, chain in table.items()
            if (name != "Continue" or continue_reaches_goal(table, s, layout, goal))
            and (not name.startswith("Change-")
                 or _headway_ok(state, vehicle_id, layout, chain[0].target_lane))]


def _crossing(layout: RoadLayout, me: VehicleState) -> tuple[str, tuple[Maneuver, ...]]:
    """The macro a vehicle off every lane is driving, and what is left of it.

    Such a vehicle is crossing a junction, on the connection curve nearest
    to it that runs its way: Continue on a priority straight, an Exit
    otherwise. Raises OffRoadError when no connection is within half a lane
    width plus the off-road margin.
    """
    best = None
    for junction in layout.junctions.values():
        for conn in junction.connections:
            stored = layout.curves[conn.from_lane, conn.to_lane]
            if stored is None:  # lanes that meet: a vehicle there is on a lane
                continue
            curve = stored[1]
            s, _, dist = curve.project((me.x, me.y))
            if abs(normalize_angle(curve.heading_at(s) - me.heading)) < math.pi / 2 and (
                    best is None or dist < best[0]):
                best = (dist, junction.id, conn)
    if best is None or best[0] > layout.lanes[best[2].to_lane].width / 2.0 + OFFROAD_MARGIN_M:
        raise OffRoadError(f"position ({me.x:.2f}, {me.y:.2f}) is on no lane or connection")
    _, jid, conn = best
    if conn.priority_straight:
        chain = lane_follow_chain(layout, conn.from_lane)
        return "Continue", (Maneuver("lane-follow", lanes=tuple(chain)),)
    return f"Exit-{conn.direction}", (
        Maneuver(f"turn-{conn.direction}", lanes=(conn.to_lane,), junction=jid,
                 connection=(conn.from_lane, conn.to_lane)),)


def expand_macro(macro: str, me: VehicleState, layout: RoadLayout) -> list[Maneuver]:
    """The named macro action's manoeuvre chain from state `me`, read from its
    `macro_table`. Raises ValueError for a name outside ALL_MACRO_NAMES and
    InapplicableMacroError for a macro the table lacks.
    """
    if macro not in ALL_MACRO_NAMES:
        raise ValueError(f"unknown macro action {macro!r}")
    table, _ = macro_table(me, layout)
    if macro not in table:
        raise InapplicableMacroError(f"{macro} does not apply at ({me.x:.2f}, {me.y:.2f}); "
                                     f"applicable: {', '.join(table)}")
    return list(table[macro])


# --- rollout -----------------------------------------------------------------


class _Segment:
    """One manoeuvre's integration state along a reference path.

    Subclasses give desired_speed(v), the speed the manoeuvre asks for, and
    done(); advance_dist(dist) moves up to dist along the path and returns
    the pose and the distance used.
    """

    def __init__(self, path: Polyline, x: float, y: float, heading: float):
        self.path = path
        self.s = path.project((x, y))[0]
        self.heading = heading

    def advance_dist(self, dist: float) -> tuple[float, float, float, float]:
        left = self.path.length - self.s
        used = left if left < dist else dist  # min(dist, left) without the builtin call
        self.s += used
        x, y, _, _, heading = self.path.frame_at(self.s)
        if used > 1e-9:
            self.heading = heading
        return x, y, self.heading, used


def _envelope(remaining: float, end_speed: float, cruise: float, brake: float) -> float:
    if remaining <= 0.0:
        return end_speed
    v = math.sqrt(end_speed * end_speed + 2.0 * brake * remaining)
    return v if v < cruise else cruise  # min(cruise, v), ties and NaN included


class _FollowSegment(_Segment):
    def __init__(self, path: Polyline, x: float, y: float, heading: float,
                 cruise: float, end_speed: float, hold_entry: bool = False):
        super().__init__(path, x, y, heading)
        self.cruise = cruise
        self.end_speed = end_speed
        self._hold = hold_entry
        self._entry_v = None

    def desired_speed(self, v):
        if self._hold:
            if self._entry_v is None:
                self._entry_v = max(v, self.end_speed)
            cruise = self._entry_v if self._entry_v < self.cruise else self.cruise
            brake = BRAKE_APPROACH
        else:
            cruise = self.cruise
            brake = BRAKE_COMFORT
        return _envelope(self.path.length - self.s, self.end_speed, cruise, brake)

    def done(self):
        return self.path.length - self.s < 1e-3


class _StopSegment(_Segment):
    def __init__(self, path: Polyline | None, x: float, y: float, heading: float):
        self.path = path
        self.s = path.project((x, y))[0] if path is not None else 0.0
        self.x, self.y = x, y
        self.heading = heading
        self.v_last = None

    def desired_speed(self, v):
        return max(0.0, v - BRAKE_COMFORT * 0.2)  # steady comfortable braking

    def advance_dist(self, dist):
        self.v_last = dist  # proxy: zero movement means stopped
        if self.path is None:
            return self.x, self.y, self.heading, 0.0
        return super().advance_dist(dist)

    def done(self):
        return self.v_last is not None and self.v_last < 1e-4


class _LaneChangeSegment(_Segment):
    """Cubic lateral blend onto the target lane over LANE_CHANGE_DURATION."""

    def __init__(self, path: Polyline, x: float, y: float, heading: float, cruise: float):
        self.path = path
        self.s, self.lat, _ = path.project((x, y))
        self.lat0 = self.lat
        self.u = 0.0
        self.cruise = cruise
        self.x, self.y = x, y
        self.heading = heading

    def desired_speed(self, v):
        return _envelope(self.path.length - self.s, 0.0, self.cruise, BRAKE_COMFORT)

    def advance(self, v, dt):
        self.u = min(self.u + dt, LANE_CHANGE_DURATION)
        new_lat = self.lat0 * (1.0 - smoothstep(self.u / LANE_CHANGE_DURATION))
        dlat = new_lat - self.lat
        chord = v * dt
        ds = math.sqrt(max(chord * chord - dlat * dlat, (0.25 * chord) ** 2))
        self.s = min(self.s + ds, self.path.length)
        self.lat = new_lat
        bx, by, nx, ny, heading = self.path.frame_at(self.s)
        x = bx + self.lat * nx
        y = by + self.lat * ny
        if self.u >= LANE_CHANGE_DURATION - 1e-9:
            # Terminated: aligned with the target lane again.
            self.heading = heading
        elif chord > 1e-6:
            self.heading = math.atan2(y - self.y, x - self.x)
        self.x, self.y = x, y
        return x, y, self.heading

    def done(self):
        return self.u >= LANE_CHANGE_DURATION - 1e-9


class _GiveWaySegment(_Segment):
    """Approach the stop point; hold zero speed until the predicate clears.

    `conflict` holds the points of the connection it yields on.
    """

    def __init__(self, path: Polyline, x: float, y: float, heading: float,
                 conflict: np.ndarray, cruise: float, junction: str):
        super().__init__(path, x, y, heading)
        self.conflict = conflict
        self.cleared = False
        self.cruise = cruise
        self.junction = junction

    def desired_speed(self, v):
        remaining = self.path.length - self.s
        if self.cleared:
            return _envelope(remaining, TURN_SPEED, self.cruise, BRAKE_APPROACH)
        return _envelope(remaining, 0.0, self.cruise, BRAKE_COMFORT)

    def done(self):
        return self.cleared and self.path.length - self.s < 0.3


def _segment_for(m: Maneuver, x: float, y: float, heading: float, layout: RoadLayout,
                 cruise: float, end_speed: float) -> _Segment | None:
    if m.kind == "lane-follow":
        base = chain_polyline(layout, list(m.lanes),
                              from_s=layout.lanes[m.lanes[0]].midline.project((x, y))[0])
        if base is None:
            return None
        lat = base.project((x, y))[1]
        path = merged_path(base, lat)
        return _FollowSegment(path, x, y, heading, cruise, end_speed, hold_entry=m.hold_speed)
    if m.kind == "stop":
        base = chain_polyline(layout, list(m.lanes),
                              from_s=layout.lanes[m.lanes[0]].midline.project((x, y))[0])
        return _StopSegment(base, x, y, heading)
    if m.kind in ("lane-change-left", "lane-change-right"):
        target_chain = lane_follow_chain(layout, m.target_lane)
        base = chain_polyline(layout, target_chain,
                              from_s=max(layout.lanes[m.target_lane].midline.project((x, y))[0]
                                         - 1.0, 0.0))
        if base is None:
            raise InapplicableMacroError(f"lane change target {m.target_lane!r} has no room")
        return _LaneChangeSegment(base, x, y, heading, cruise)
    if m.kind == "give-way":
        incoming = layout.lanes[m.connection[0]].midline
        s_here = incoming.project((x, y))[0]
        remaining = chain_polyline(layout, [m.connection[0]], from_s=s_here)
        conflict = layout.curves[m.connection][0]
        if remaining is None:
            # Already at the stop point; a minimal stub keeps the hold logic alive.
            end = incoming.point_at(incoming.length)
            fwd = np.array([math.cos(heading), math.sin(heading)])
            remaining = Polyline([end - 0.05 * fwd, end + 0.05 * fwd])
        return _GiveWaySegment(remaining, x, y, heading, conflict, cruise, m.junction)
    if m.kind.startswith("turn-"):
        return _FollowSegment(layout.curves[m.connection][1], x, y, heading, TURN_SPEED,
                              TURN_SPEED)
    raise ValueError(f"unknown manoeuvre {m.kind!r}")


def _end_speed_for(i: int, maneuvers: list[Maneuver], cruise: float) -> float:
    nxt = maneuvers[i + 1] if i + 1 < len(maneuvers) else None
    if nxt is None:
        kind = maneuvers[i].kind
        if kind.startswith("turn-"):
            return TURN_SPEED
        if kind in ("lane-change-left", "lane-change-right"):
            return cruise
        return 0.0
    if nxt.kind in ("give-way",) or nxt.kind.startswith("turn-"):
        return TURN_SPEED
    return cruise


def _car_follow_limit(x: float, y: float, v: float, seg, traffic, t: int, dt: float) -> float:
    """Max speed that keeps a safe gap to the nearest leader on the path.

    Leaders are vehicles ahead along the segment's reference path whose
    lateral offset relative to ours is within LEAD_LATERAL; the relative
    offset keeps adjacent-lane traffic out while still covering vehicles
    cutting in or diverging off the path. The peers are read in one pass; the
    clamps are comparisons with the ties and NaNs of `min`/`max`.
    """
    path = getattr(seg, "path", None)
    if path is None:
        return math.inf
    projected = traffic.projected(path, x, y, t)
    if projected is None:
        return math.inf
    s_me, lat_me, others = projected
    want = FOLLOW_MIN_GAP + FOLLOW_TIME_GAP * v
    limit = math.inf
    for s_o, lat_o, ov in others:
        ds = s_o - s_me
        if ds <= 0.0 or ds > LEAD_LOOKAHEAD or abs(lat_o - lat_me) > LEAD_LATERAL:
            continue
        gap = ds - 2.0 * COLLISION_RADIUS
        cap = v + (FOLLOW_KG * (gap - want) + FOLLOW_KV * (ov - v)) * dt
        cap = 0.0 if cap < 0.0 else cap
        if cap < limit:
            limit = cap
    return limit


def _try_clear(seg: _Segment, traffic, t: int) -> None:
    if isinstance(seg, _GiveWaySegment) and not seg.cleared and (
            traffic is None or traffic.giveway_clear(seg, t)):
        seg.cleared = True


class ChainStepper:
    """One vehicle driving a manoeuvre chain at cruise speed `cruise`, one dt per step.

    A step cut short by the chain's end or a hold point records the speed
    actually driven, so speeds match displacements. The traffic passed to
    `step` is None on an empty road (give-way clears at once, no car
    following) or provides `giveway_clear(segment, t)` and, for car
    following, `projected(path, x, y, t)`: this vehicle's (s, lateral) and
    an iterable, read once, over the other vehicles' (s, lateral, speed) at
    step t, already projected onto the segment's path, or None when there
    are no other vehicles.
    """

    def __init__(self, start: VehicleState, layout: RoadLayout, dt: float, cruise: float,
                 maneuvers: list[Maneuver] = ()):
        self.layout = layout
        self.dt = dt
        self.cruise = cruise
        self.x, self.y, self.heading, self.v = start.x, start.y, start.heading, start.speed
        self.xs, self.ys, self.hs, self.vs = [self.x], [self.y], [self.heading], [self.v]
        self.follow(maneuvers)

    @property
    def steps(self) -> int:
        return len(self.xs) - 1

    def follow(self, maneuvers: list[Maneuver]) -> None:
        """Drive this chain next, from the pose reached."""
        self.maneuvers = list(maneuvers)
        self.seg: _Segment | None = None
        self.seg_idx = 0

    def segment(self) -> _Segment | None:
        """The segment being driven, built at the current pose; None once the chain is done."""
        if self.seg is None:
            self.seg, self.seg_idx = self._next_segment(self.seg_idx, self.x, self.y,
                                                        self.heading)
        return self.seg

    def _next_segment(self, idx: int, x: float, y: float, heading: float):
        while idx < len(self.maneuvers):
            built = _segment_for(self.maneuvers[idx], x, y, heading, self.layout, self.cruise,
                                 _end_speed_for(idx, self.maneuvers, self.cruise))
            if built is not None:
                return built, idx
            idx += 1  # nothing left to drive in this manoeuvre
        return None, idx

    def step(self, traffic, t: int) -> None:
        """Drive one dt of the current segment; `segment()` must not be None."""
        seg, dt, v = self.seg, self.dt, self.v
        _try_clear(seg, traffic, t)
        v_des = seg.desired_speed(v)
        if traffic is not None:
            cap = _car_follow_limit(self.x, self.y, v, seg, traffic, t, dt)
            if cap < v_des:
                v_des = cap
        # Clamps as comparisons, with the ties and NaNs of min/max.
        a = (v_des - v) / dt
        a = -BRAKE_MAX if a < -BRAKE_MAX else ACCEL_MAX if a > ACCEL_MAX else a
        v_next = v + a * dt
        v_next = 0.0 if v_next < 0.0 else v_next

        if isinstance(seg, _LaneChangeSegment):
            x, y, heading = seg.advance(v, dt)
        else:
            # Distance budget can span a segment boundary within one step.
            budget = v * dt
            x, y, heading, used = seg.advance_dist(budget)
            while seg.done() and budget - used > 1e-9:
                nxt, nxt_idx = self._next_segment(self.seg_idx + 1, x, y, heading)
                if nxt is None or isinstance(nxt, _LaneChangeSegment):
                    break
                seg, self.seg_idx = nxt, nxt_idx
                _try_clear(seg, traffic, t)
                x, y, heading, u2 = seg.advance_dist(budget - used)
                used += u2
            if used < budget - 1e-9 and dt > 0:
                # Chain or hold point reached mid-step: the speed actually
                # driven is what the consistency contract must reflect.
                v_eff = used / dt
                self.vs[-1] = v_eff
                if v_eff < v_next:
                    v_next = v_eff
        self._record(x, y, heading, v_next)
        if seg.done():
            self.seg = None
            self.seg_idx += 1
        else:
            self.seg = seg

    def coast(self) -> None:
        """No chain left: brake comfortably to a stop in place."""
        self._record(self.x, self.y, self.heading,
                     max(self.v - BRAKE_COMFORT * self.dt, 0.0))

    def _record(self, x: float, y: float, heading: float, v: float) -> None:
        self.xs.append(x)
        self.ys.append(y)
        self.hs.append(heading)
        self.vs.append(v)
        self.x, self.y, self.heading, self.v = x, y, heading, v

    def trajectory(self, truncated: bool = False) -> Trajectory:
        return Trajectory(dt=self.dt, xs=list(self.xs), ys=list(self.ys), headings=list(self.hs),
                          speeds=list(self.vs), truncated=truncated)


def roll_chain(maneuvers: list[Maneuver], start: VehicleState, layout: RoadLayout,
               dt: float, horizon: int, cruise: float) -> Trajectory:
    """Traffic-free rollout of a manoeuvre chain (give-way clears at once).

    The rollout stops after `horizon` steps and flags the trajectory
    truncated if the chain did not complete.
    """
    if not maneuvers:
        raise InapplicableMacroError("empty manoeuvre chain")
    stepper = ChainStepper(start, layout, dt, cruise, maneuvers)
    for t in range(horizon):
        if stepper.segment() is None:
            break
        stepper.step(None, t)
    return stepper.trajectory(truncated=stepper.segment() is not None)


# --- features ----------------------------------------------------------------


def goal_entry(traj: Trajectory, goal: Goal, layout: RoadLayout, start: int = 0) -> int | None:
    """Index of the first state from `start` inside `goal`, or None. Only
    states inside the goal's box (`goal_box`) are projected."""
    (x_lo, x_hi, y_lo, y_hi), _ = goal_box(layout, goal)
    for k, (x, y) in enumerate(zip(traj.xs[start:], traj.ys[start:]), start):
        if x_lo <= x <= x_hi and y_lo <= y <= y_hi and goal_contains(layout, goal, x, y):
            return k
    return None


def extract_features(traj: Trajectory, goal: Goal, layout: RoadLayout,
                     start: int = 0) -> TrajectoryFeatures:
    """Reward-relevant trajectory features.

    time_to_goal is dt times the first state index inside the goal region
    (`goal_entry`), or the full duration when the goal is never entered; the
    caller vouches that no state before index `start` is inside it. Jerk is
    the second finite difference of speed, angular acceleration the second
    difference of heading (each step's change wrapped by `normalize_angles`),
    curvature heading change over arc length; all reported as mean absolute
    values.
    """
    n = len(traj)
    if n == 0:
        raise ValueError("empty trajectory")
    entry = goal_entry(traj, goal, layout, start)
    time_to_goal = (n - 1 if entry is None else entry) * traj.dt

    if n < 3:
        return TrajectoryFeatures(time_to_goal, 0.0, 0.0, 0.0)

    v = traj.speeds
    jerk = np.abs(np.diff(v, 2)) / traj.dt ** 2
    dtheta = normalize_angles(np.diff(traj.headings))
    angacc = np.abs(np.diff(dtheta)) / traj.dt ** 2
    ds = np.hypot(np.diff(traj.xs), np.diff(traj.ys))
    moving = ds > 0.01
    curvature = np.abs(dtheta[moving] / ds[moving]) if np.any(moving) else np.array([0.0])
    return TrajectoryFeatures(
        time_to_goal=float(time_to_goal),
        jerk=float(np.mean(jerk)),
        angular_acceleration=float(np.mean(angacc)),
        curvature=float(np.mean(curvature)),
    )

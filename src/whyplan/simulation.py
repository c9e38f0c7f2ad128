"""Interaction-aware forward simulation.

Observation and planning drive every vehicle with the same integrator,
`maneuvers.ChainStepper`, and differ only in the traffic it sees. In MCTS
rollouts the ego steps against `FixedTraffic`, non-ego vehicles playing back
pre-sampled trajectories, and ends a macro on collision (circular-disc
overlap) or at its goal. In the observation phase every vehicle steps
against `ExtrapolatedTraffic`, the others' current poses extrapolated at
constant velocity. Both feed the one give-way predicate, `giveway_clear`:
yield while priority traffic is predicted near the conflict path. Everything
here is deterministic.

For car following, traffic answers with the other vehicles already projected
onto the stepping vehicle's path. One search's rollouts replay a handful of
predicted options from the same root state, so the same (path, option, step)
projections recur across joint samples; `FixedTraffic` reads them from the
search's `ProjectionTable`, which computes each once. Positions and speeds
are read straight from each trajectory's float lists. The car-following
leader rule (`maneuvers._car_follow_limit`) reads the table entries in one
pass, and the rollout step projects onto the goal lane only inside the
goal's box (`scenario.goal_box`).
"""

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import repeat
from operator import getitem

import numpy as np

from .errors import InapplicableMacroError
from .geometry import Polyline
from .maneuvers import (COLLISION_RADIUS, CONFLICT_CLEARANCE, GIVEWAY_WINDOW_S, ChainStepper,
                        Trajectory, _GiveWaySegment, expand_macro)
from .scenario import (JointState, RoadLayout, Scenario, VehicleState, goal_box,
                       goal_contains, locate)


@functools.lru_cache(maxsize=32)
def _junction_zone(layout: RoadLayout, junction_id: str
                   ) -> tuple[np.ndarray, float, frozenset[str]]:
    """Centre and radius of a junction's region, and its priority arrival lanes."""
    ends = []
    for conn in layout.junctions[junction_id].connections:
        a = layout.lanes[conn.from_lane].midline
        b = layout.lanes[conn.to_lane].midline
        ends.append(a.point_at(a.length))
        ends.append(b.point_at(0.0))
    pts = np.asarray(ends)
    center = pts.mean(axis=0)
    radius = float(np.max(np.linalg.norm(pts - center, axis=1))) + 2.0
    priority = frozenset(c.from_lane for c in layout.junctions[junction_id].connections
                         if c.has_priority)
    return center, radius, priority


def giveway_clear(layout: RoadLayout, seg: _GiveWaySegment, windows) -> bool:
    """Yield while priority traffic is predicted near the conflict path.

    `windows` holds per peer its predicted (xs, ys) over the give-way window,
    from its current position. Peers inside the junction region or on a lane
    with priority there block the path within CONFLICT_CLEARANCE of it.
    """
    conflict_pts = seg.conflict
    center, radius, priority = _junction_zone(layout, seg.junction)
    for px, py in windows:
        px, py = np.asarray(px), np.asarray(py)
        x, y = float(px[0]), float(py[0])
        inside = np.linalg.norm(np.array([x, y]) - center) <= radius
        if not inside and locate(layout, (x, y), margin=math.inf)[0] not in priority:
            continue
        d = np.hypot(px[:, None] - conflict_pts[:, 0][None, :],
                     py[:, None] - conflict_pts[:, 1][None, :])
        if float(d.min()) < CONFLICT_CLEARANCE:
            return False
    return True


class _PeerSteps(dict):
    """One option's car-following answers on one path: step -> (s, lateral,
    speed), each projected on first use. A step past the option's last state
    answers as that state, which is projected once."""

    def __init__(self, path: Polyline, track: tuple):
        super().__init__()
        self.path, self.track = path, track

    def __missing__(self, t: int) -> tuple[float, float, float]:
        _, xs, ys, vs, last = self.track
        if t > last:
            hit = self[last]
        else:
            s, lat, _ = self.path.project((xs[t], ys[t]))
            hit = (s, lat, vs[t])
        self[t] = hit
        return hit


class ProjectionTable:
    """The car-following projections of one search, each computed once.

    Peer entries are keyed by path content and predicted option (vehicle,
    goal index, trajectory index) and map a step to (s, lateral, speed); ego
    entries are keyed by path content and (x, y), and hold (s, lateral).
    Segment paths are rebuilt for every rollout segment, so paths are keyed
    by their points, not by identity. Every entry is the `Polyline.project`
    answer for the same floats, so reading it changes no result.
    `FixedTraffic` fills entries on first use; they live as long as the
    table, which `run_mcts` makes per search. The table keeps no copy of a
    trajectory: peers are projected from each trajectory's own float lists.
    """

    def __init__(self):
        self._paths: dict[bytes, tuple[dict, dict]] = {}

    def entries(self, path: Polyline) -> tuple[dict, dict]:
        """The path's peer entries, option -> `_PeerSteps`, and its ego
        entries, (x, y) -> (s, lateral)."""
        entries = self._paths.get(path.content_key)
        if entries is None:
            entries = self._paths[path.content_key] = ({}, {})
        return entries


class FixedTraffic:
    """Non-ego vehicles following fixed, pre-sampled trajectories.

    Given the search's `table` and the `assignment` (vehicle id -> (goal
    index, trajectory index)) the trajectories were drawn by, the traffic
    shares its car-following projections with every other sample of the
    search; without them it keeps its own table.
    """

    def __init__(self, layout: RoadLayout, trajectories: dict[str, Trajectory],
                 table: ProjectionTable | None = None, assignment: dict | None = None):
        self.layout = layout
        self.trajectories = trajectories
        self._table = table if table is not None else ProjectionTable()
        self._options = [(vid, *assignment[vid]) if assignment is not None else (vid,)
                         for vid in trajectories]
        # (vehicle id, xs, ys, speeds, last index) per vehicle
        self._tracks = [(vid, traj.xs, traj.ys, traj.speeds, len(traj) - 1)
                        for vid, traj in trajectories.items()]
        # The path whose table entries are bound; held, so `is` cannot match
        # a later path that reuses its address.
        self._path = None

    def states_at(self, t: int) -> dict[str, VehicleState]:
        return {vid: traj.state_at(t) for vid, traj in self.trajectories.items()}

    def _bind(self, path: Polyline) -> None:
        """Find the path's entries once: a segment asks along one path for many steps."""
        by_option, self._ego_at = self._table.entries(path)
        self._steps = []
        for option, track in zip(self._options, self._tracks):
            steps = by_option.get(option)
            if steps is None:
                steps = by_option[option] = _PeerSteps(path, track)
            self._steps.append(steps)
        self._path = path

    def projected(self, path: Polyline, x: float, y: float, t: int
                  ) -> tuple[float, float, Iterator[tuple[float, float, float]]] | None:
        """(s, lateral) of (x, y) on the path and an iterator, read once, over
        every vehicle's (s, lateral, speed) there at step t; None with no
        vehicles."""
        if not self._tracks:
            return None
        if path is not self._path:
            self._bind(path)
        key = (x, y)
        me = self._ego_at.get(key)
        if me is None:
            me = self._ego_at[key] = path.project(key)[:2]
        return me[0], me[1], map(getitem, self._steps, repeat(t))

    def collider(self, x: float, y: float, t: int) -> str | None:
        """The first vehicle whose disc overlaps one at (x, y) at step t."""
        radius2 = (2.0 * COLLISION_RADIUS) ** 2
        for vid, xs, ys, _, last in self._tracks:
            k = t if t < last else last
            dx, dy = xs[k] - x, ys[k] - y
            if dx * dx + dy * dy <= radius2:
                return vid
        return None

    def giveway_clear(self, seg: _GiveWaySegment, t: int) -> bool:
        """Predict each vehicle by the recorded slice of its trajectory."""
        if not self.trajectories:
            return True
        dt = next(iter(self.trajectories.values())).dt
        steps = max(int(GIVEWAY_WINDOW_S / dt), 1)
        windows = []
        for traj in self.trajectories.values():
            k0 = min(t, len(traj) - 1)
            k1 = min(t + steps, len(traj) - 1)
            windows.append((traj.xs[k0:k1 + 1], traj.ys[k0:k1 + 1]))
        return giveway_clear(self.layout, seg, windows)


class ExtrapolatedTraffic:
    """Other vehicles as one observed vehicle sees them: their current poses,
    predicted at constant velocity along their current heading."""

    def __init__(self, layout: RoadLayout, peers: list[ChainStepper], dt: float):
        self.layout = layout
        self.peers = peers
        self.dt = dt

    def projected(self, path: Polyline, x: float, y: float, t: int
                  ) -> tuple[float, float, list[tuple[float, float, float]]] | None:
        if not self.peers:
            return None
        s, lat, _ = path.project((x, y))
        return s, lat, [(*path.project((p.x, p.y))[:2], p.v) for p in self.peers]

    def giveway_clear(self, seg: _GiveWaySegment, t: int) -> bool:
        n = max(int(GIVEWAY_WINDOW_S / self.dt), 1)
        ts = np.arange(n + 1) * self.dt
        windows = ((p.x + p.v * ts * math.cos(p.heading), p.y + p.v * ts * math.sin(p.heading))
                   for p in self.peers)
        return giveway_clear(self.layout, seg, windows)


@dataclass
class MacroStepResult:
    """Outcome of forward-simulating one ego macro action."""

    next_state: JointState | None
    outcome: str | None          # collision | done | termination, None if non-terminal
    collider: str | None
    ego_trajectory: Trajectory


def simulate_step(scenario: Scenario, state: JointState, macro: str,
                  traffic: FixedTraffic) -> MacroStepResult:
    """Advance the scenario's ego through one macro while traffic follows fixed paths.

    Before each step, in order: horizon exhausted (termination), collision
    (disc overlap), ego goal reached (done). A check that ends the macro
    leaves the state it fired on as the trajectory's last.
    """
    ego_id, layout, goal = scenario.ego_id, scenario.layout, scenario.ego_goal
    (x_lo, x_hi, y_lo, y_hi), _ = goal_box(layout, goal)
    me = state.vehicles[ego_id]
    ego = ChainStepper(me, layout, scenario.dt, scenario.target_speed,
                       expand_macro(macro, me, layout))
    for t in range(state.t, scenario.horizon):
        if ego.segment() is None:
            break
        x, y = ego.x, ego.y
        collider = traffic.collider(x, y, t)
        if collider is not None or (x_lo <= x <= x_hi and y_lo <= y <= y_hi
                                    and goal_contains(layout, goal, x, y)):
            outcome = "done" if collider is None else "collision"
            return MacroStepResult(None, outcome, collider, ego.trajectory())
        ego.step(traffic, t)

    traj = ego.trajectory(truncated=ego.segment() is not None)
    t_end = state.t + ego.steps
    if t_end >= scenario.horizon:
        return MacroStepResult(None, "termination", None, traj)
    vehicles = dict(traffic.states_at(t_end))
    vehicles[ego_id] = traj.tail_state()
    return MacroStepResult(JointState(t=t_end, vehicles=vehicles), None, None, traj)


# --- observation phase -------------------------------------------------------


def _plan_segment(driver: ChainStepper, plan: list[str], layout: RoadLayout):
    """The driver's segment, expanding its next plan macros once its chain is done.

    A macro expands at whatever state the vehicle has actually reached and
    is skipped if inapplicable there. None once the plan is exhausted.
    """
    while driver.segment() is None and plan:
        here = VehicleState(driver.x, driver.y, driver.heading, max(driver.v, 0.0))
        try:
            driver.follow(expand_macro(plan.pop(0), here, layout))
        except InapplicableMacroError:
            continue
    return driver.seg


def observe(scenario: Scenario, initial: JointState, plans: dict[str, list[str]]
            ) -> tuple[dict[str, Trajectory], JointState]:
    """Play every vehicle's plan for the scenario's observation window.

    Returns the observed per-vehicle trajectory prefixes and the resulting
    planning-time joint state. Vehicles step in a fixed order and each sees
    the others' latest states, so the phase is deterministic. A vehicle whose
    plan is exhausted coasts to a stop in place.
    """
    steps = scenario.observation_steps
    layout, dt = scenario.layout, scenario.dt
    drivers = {vid: ChainStepper(st, layout, dt, scenario.target_speed)
               for vid, st in initial.vehicles.items()}
    plan_left = {vid: list(plans[vid]) for vid in drivers}
    traffic = {vid: ExtrapolatedTraffic(layout, [d for o, d in drivers.items() if o != vid], dt)
               for vid in drivers}
    for t in range(steps):
        for vid, driver in drivers.items():
            if _plan_segment(driver, plan_left[vid], layout) is None:
                driver.coast()
            else:
                driver.step(traffic[vid], t)
    prefixes = {vid: d.trajectory() for vid, d in drivers.items()}
    final = JointState(t=steps, vehicles={vid: p.tail_state() for vid, p in prefixes.items()})
    return prefixes, final

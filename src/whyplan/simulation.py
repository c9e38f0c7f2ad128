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
search's `ProjectionTable`, which computes each once.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InapplicableMacroError
from .geometry import Polyline
from .maneuvers import (ChainStepper, KinematicParams, MacroAction, Trajectory, _GiveWaySegment,
                        expand_macro)
from .scenario import (JointState, RoadLayout, Scenario, VehicleState, goal_contains,
                       locate)


@dataclass(frozen=True)
class SimulationContext:
    """Everything a macro-level forward step needs besides the joint state."""

    layout: RoadLayout
    ego_id: str
    ego_goal: "object"
    dt: float
    horizon: int
    params: KinematicParams


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


def giveway_clear(layout: RoadLayout, seg: _GiveWaySegment, windows,
                  params: KinematicParams) -> bool:
    """Yield while priority traffic is predicted near the conflict path.

    `windows` holds per peer its predicted (xs, ys) over the give-way window,
    from its current position. Peers inside the junction region or on a lane
    with priority there block the path within conflict_clearance of it.
    """
    conflict_pts = seg.conflict
    center, radius, priority = _junction_zone(layout, seg.junction)
    for px, py in windows:
        x, y = float(px[0]), float(py[0])
        inside = np.linalg.norm(np.array([x, y]) - center) <= radius
        if not inside and locate(layout, (x, y), margin=math.inf)[0] not in priority:
            continue
        d = np.hypot(px[:, None] - conflict_pts[:, 0][None, :],
                     py[:, None] - conflict_pts[:, 1][None, :])
        if float(d.min()) < params.conflict_clearance:
            return False
    return True


def _project_peer(path: Polyline, traj: Trajectory, k: int) -> tuple[float, float, float]:
    """(s, lateral, speed) of a trajectory's state k on the path."""
    s, lat, _ = path.project((float(traj.xs[k]), float(traj.ys[k])))
    return s, lat, float(traj.speeds[k])


class ProjectionTable:
    """The car-following projections of one search, each computed once.

    Peer entries are keyed by path content, predicted option (vehicle, goal
    index, trajectory index) and step clamped to the trajectory's end, and
    hold (s, lateral, speed); ego entries are keyed by path content and
    (x, y), and hold (s, lateral). Segment paths are rebuilt for every
    rollout segment, so paths are keyed by their points, not by identity.
    Every entry is the `Polyline.project` answer for the same floats, so
    reading it changes no result. `FixedTraffic` fills entries on first use;
    they live as long as the table, which `run_mcts` makes per search.
    """

    def __init__(self):
        self._paths: dict[bytes, tuple[dict, dict]] = {}

    def entries(self, path: Polyline) -> tuple[dict, dict]:
        """The path's peer entries, option -> {step: (s, lateral, speed)}, and
        its ego entries, (x, y) -> (s, lateral)."""
        entries = self._paths.get(path.content_key)
        if entries is None:
            entries = self._paths[path.content_key] = ({}, {})
        return entries


class FixedTraffic:
    """Non-ego vehicles following fixed, pre-sampled trajectories.

    Given the search's `table` and the `assignment` (vehicle id -> (goal
    index, trajectory index)) the trajectories were drawn by, car following
    reads its projections from the table; without a table it projects
    directly.
    """

    def __init__(self, layout: RoadLayout, trajectories: dict[str, Trajectory],
                 params: KinematicParams, table: ProjectionTable | None = None,
                 assignment: dict | None = None):
        self.layout = layout
        self.trajectories = trajectories
        self.params = params
        self._table = table
        self._assignment = assignment
        # The path whose table entries are bound; held, so `is` cannot match
        # a later path that reuses its address.
        self._path = None

    def states_at(self, t: int) -> dict[str, VehicleState]:
        return {vid: traj.state_at(t) for vid, traj in self.trajectories.items()}

    def _bind(self, path: Polyline) -> None:
        """Find the path's entries once: a segment asks along one path for many steps."""
        by_option, self._ego_at = self._table.entries(path)
        self._peer_at = [(by_option.setdefault((vid, *self._assignment[vid]), {}), traj,
                          len(traj.xs) - 1)
                         for vid, traj in self.trajectories.items()]
        self._path = path

    def projected(self, path: Polyline, x: float, y: float, t: int
                  ) -> tuple[float, float, list[tuple[float, float, float]]] | None:
        """(s, lateral) of (x, y) and every vehicle's (s, lateral, speed) at step
        t on the path; None with no vehicles."""
        if not self.trajectories:
            return None
        if self._table is None:
            s, lat, _ = path.project((x, y))
            return s, lat, [_project_peer(path, traj, min(t, len(traj.xs) - 1))
                            for traj in self.trajectories.values()]
        if path is not self._path:
            self._bind(path)
        peers = []
        for at, traj, last in self._peer_at:
            k = t if t < last else last
            hit = at.get(k)
            if hit is None:
                hit = at[k] = _project_peer(path, traj, k)
            peers.append(hit)
        key = (x, y)
        me = self._ego_at.get(key)
        if me is None:
            me = self._ego_at[key] = path.project(key)[:2]
        return me[0], me[1], peers

    def collider(self, x: float, y: float, t: int) -> str | None:
        """The first vehicle whose disc overlaps one at (x, y) at step t."""
        radius2 = (2.0 * self.params.collision_radius) ** 2
        for vid, traj in self.trajectories.items():
            k = t if t < len(traj.xs) else len(traj.xs) - 1
            dx, dy = float(traj.xs[k]) - x, float(traj.ys[k]) - y
            if dx * dx + dy * dy <= radius2:
                return vid
        return None

    def giveway_clear(self, seg: _GiveWaySegment, t: int) -> bool:
        """Predict each vehicle by the recorded slice of its trajectory."""
        if not self.trajectories:
            return True
        dt = next(iter(self.trajectories.values())).dt
        steps = max(int(self.params.giveway_window_s / dt), 1)
        windows = []
        for traj in self.trajectories.values():
            k0 = min(t, len(traj) - 1)
            k1 = min(t + steps, len(traj) - 1)
            windows.append((traj.xs[k0:k1 + 1], traj.ys[k0:k1 + 1]))
        return giveway_clear(self.layout, seg, windows, self.params)


class ExtrapolatedTraffic:
    """Other vehicles as one observed vehicle sees them: their current poses,
    predicted at constant velocity along their current heading."""

    def __init__(self, layout: RoadLayout, peers: list[ChainStepper], dt: float,
                 params: KinematicParams):
        self.layout = layout
        self.peers = peers
        self.dt = dt
        self.params = params

    def projected(self, path: Polyline, x: float, y: float, t: int
                  ) -> tuple[float, float, list[tuple[float, float, float]]] | None:
        if not self.peers:
            return None
        s, lat, _ = path.project((x, y))
        return s, lat, [(*path.project((p.x, p.y))[:2], p.v) for p in self.peers]

    def giveway_clear(self, seg: _GiveWaySegment, t: int) -> bool:
        n = max(int(self.params.giveway_window_s / self.dt), 1)
        ts = np.arange(n + 1) * self.dt
        windows = ((p.x + p.v * ts * math.cos(p.heading), p.y + p.v * ts * math.sin(p.heading))
                   for p in self.peers)
        return giveway_clear(self.layout, seg, windows, self.params)


@dataclass
class MacroStepResult:
    """Outcome of forward-simulating one ego macro action."""

    next_state: JointState | None
    outcome: str | None          # collision | done | termination, None if non-terminal
    collider: str | None
    ego_trajectory: Trajectory
    steps: int


def simulate_step(ctx: SimulationContext, state: JointState, macro: MacroAction,
                  traffic: FixedTraffic) -> MacroStepResult:
    """Advance the ego through one macro while traffic follows fixed paths.

    Before each step, in order: horizon exhausted (termination), collision
    (disc overlap), ego goal reached (done). A check that ends the macro
    leaves the state it fired on as the trajectory's last.
    """
    maneuvers = expand_macro(macro, state, ctx.ego_id, ctx.layout)
    ego = ChainStepper(state.vehicles[ctx.ego_id], ctx.layout, ctx.dt, ctx.params, maneuvers)
    for t in range(state.t, ctx.horizon):
        if ego.segment() is None:
            break
        collider = traffic.collider(ego.x, ego.y, t)
        if collider is not None or goal_contains(ctx.layout, ctx.ego_goal, ego.x, ego.y):
            outcome = "done" if collider is None else "collision"
            return MacroStepResult(None, outcome, collider, ego.trajectory(), ego.steps)
        ego.step(traffic, t)

    traj = ego.trajectory(truncated=ego.segment() is not None)
    t_end = state.t + ego.steps
    if t_end >= ctx.horizon:
        return MacroStepResult(None, "termination", None, traj, ego.steps)
    vehicles = dict(traffic.states_at(t_end))
    vehicles[ctx.ego_id] = traj.tail_state()
    return MacroStepResult(JointState(t=t_end, vehicles=vehicles), None, None, traj, ego.steps)


# --- observation phase -------------------------------------------------------


def _plan_segment(vid: str, driver: ChainStepper, plan: list[MacroAction], layout: RoadLayout):
    """The driver's segment, expanding its next plan macros once its chain is done.

    A macro expands at whatever state the vehicle has actually reached and
    is skipped if inapplicable there. None once the plan is exhausted.
    """
    while driver.segment() is None and plan:
        here = VehicleState(driver.x, driver.y, driver.heading, max(driver.v, 0.0))
        try:
            driver.follow(expand_macro(plan.pop(0), JointState(t=0, vehicles={vid: here}), vid,
                                       layout))
        except InapplicableMacroError:
            continue
    return driver.seg


def observe(scenario: Scenario, initial: JointState, plans: dict[str, list[MacroAction]],
            params: KinematicParams | None = None) -> tuple[dict[str, Trajectory], JointState]:
    """Play every vehicle's plan for the scenario's observation window.

    Returns the observed per-vehicle trajectory prefixes and the resulting
    planning-time joint state. Vehicles step in a fixed order and each sees
    the others' latest states, so the phase is deterministic. A vehicle whose
    plan is exhausted coasts to a stop in place.
    """
    params = params or KinematicParams(cruise_speed=scenario.target_speed)
    steps = scenario.observation_steps
    layout, dt = scenario.layout, scenario.dt
    drivers = {vid: ChainStepper(st, layout, dt, params) for vid, st in initial.vehicles.items()}
    plan_left = {vid: list(plans[vid]) for vid in drivers}
    traffic = {vid: ExtrapolatedTraffic(layout, [d for o, d in drivers.items() if o != vid],
                                        dt, params)
               for vid in drivers}
    for t in range(steps):
        for vid, driver in drivers.items():
            if _plan_segment(vid, driver, plan_left[vid], layout) is None:
                driver.coast()
            else:
                driver.step(traffic[vid], t)
    prefixes = {vid: d.trajectory(vehicle_id=vid) for vid, d in drivers.items()}
    final = JointState(t=steps, vehicles={vid: p.tail_state() for vid, p in prefixes.items()})
    return prefixes, final

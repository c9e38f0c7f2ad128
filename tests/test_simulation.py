"""The one give-way predicate against the two it replaced, and the rollout step.

Planning (`FixedTraffic`, recorded trajectories) and observation
(`ExtrapolatedTraffic`, constant-velocity extrapolation) used to carry their
own copies of the give-way test. Both copies are kept here as references,
and the merged predicate must give the same answer as the matching one for
generated traffic around s2's junction.

The rollout step reads plain floats: `ChainStepper` records floats only, every
trajectory the library builds holds float lists, and `FixedTraffic.collider`,
which reads those lists, must agree with a disc overlap over the trajectories
it was built from.
"""

import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import whyplan.mcts as mcts_mod
from whyplan.maneuvers import (COLLISION_RADIUS, CONFLICT_CLEARANCE, GIVEWAY_WINDOW_S,
                               TURN_SPEED, ChainStepper, Trajectory, _GiveWaySegment,
                               _LaneChangeSegment, _segment_for, applicable_macros, expand_macro,
                               roll_chain)
from whyplan.pipeline import planner_config, run_pipeline
from whyplan.scenario import lane_point_state, load_scenario
from whyplan.simulation import ExtrapolatedTraffic, FixedTraffic, ProjectionTable

from conftest import REPO_ROOT

S1 = load_scenario(os.path.join(REPO_ROOT, "scenarios", "s1.json"))
S2 = load_scenario(os.path.join(REPO_ROOT, "scenarios", "s2.json"))
DT = S2.dt


# --- references: the two predicates before the merge ----------------------------


def _junction_region(layout, junction_id):
    ends = []
    for conn in layout.junctions[junction_id].connections:
        a = layout.lanes[conn.from_lane].midline
        b = layout.lanes[conn.to_lane].midline
        ends.append(a.point_at(a.length))
        ends.append(b.point_at(0.0))
    pts = np.asarray(ends)
    center = pts.mean(axis=0)
    radius = float(np.max(np.linalg.norm(pts - center, axis=1))) + 2.0
    return center, radius


def _priority_lanes(layout, junction_id):
    return {c.from_lane for c in layout.junctions[junction_id].connections if c.has_priority}


def _nearest_lane(layout, position):
    best_lane, best_dist = None, math.inf
    for lane in layout.lanes.values():
        _, _, dist = lane.midline.project(position)
        if dist < best_dist:
            best_lane, best_dist = lane.id, dist
    return best_lane


def ref_recorded(layout, trajectories, seg, t):
    """Planning's predicate: peers predicted by their recorded trajectories."""
    conflict_pts = seg.conflict
    if conflict_pts is None or seg.junction is None or not trajectories:
        return True
    center, radius = _junction_region(layout, seg.junction)
    priority = _priority_lanes(layout, seg.junction)
    dt = next(iter(trajectories.values())).dt
    steps = max(int(GIVEWAY_WINDOW_S / dt), 1)
    for traj in trajectories.values():
        here = traj.state_at(t)
        inside = np.linalg.norm(np.array([here.x, here.y]) - center) <= radius
        if not inside and _nearest_lane(layout, (here.x, here.y)) not in priority:
            continue
        k0 = min(t, len(traj) - 1)
        k1 = min(t + steps, len(traj) - 1)
        px = traj.xs[k0:k1 + 1]
        py = traj.ys[k0:k1 + 1]
        d = np.hypot(px[:, None] - conflict_pts[:, 0][None, :],
                     py[:, None] - conflict_pts[:, 1][None, :])
        if float(d.min()) < CONFLICT_CLEARANCE:
            return False
    return True


def ref_extrapolated(layout, peers, dt, seg):
    """Observation's predicate: peers extrapolated at constant velocity."""
    conflict_pts = seg.conflict
    if conflict_pts is None or seg.junction is None:
        return True
    priority = _priority_lanes(layout, seg.junction)
    center, radius = _junction_region(layout, seg.junction)
    n = max(int(GIVEWAY_WINDOW_S / dt), 1)
    for peer in peers:
        inside = np.linalg.norm(np.array([peer.x, peer.y]) - center) <= radius
        if not inside and _nearest_lane(layout, (peer.x, peer.y)) not in priority:
            continue
        ts = np.arange(n + 1) * dt
        px = peer.x + peer.v * ts * math.cos(peer.heading)
        py = peer.y + peer.v * ts * math.sin(peer.heading)
        d = np.hypot(px[:, None] - conflict_pts[:, 0][None, :],
                     py[:, None] - conflict_pts[:, 1][None, :])
        if float(d.min()) < CONFLICT_CLEARANCE:
            return False
    return True


# --- give-way segments at s2's junction -------------------------------------------


def giveway_segment(lane, s, direction) -> _GiveWaySegment:
    me = lane_point_state(S2.layout, lane, s, 6.0)
    chain = expand_macro(f"Exit-{direction}", me, S2.layout)
    seg = _segment_for(chain[1], me.x, me.y, me.heading, S2.layout, S2.target_speed, TURN_SPEED)
    assert isinstance(seg, _GiveWaySegment)
    return seg


SEGMENTS = [giveway_segment("s_in", 30.0, "right"), giveway_segment("s_in", 38.0, "left"),
            giveway_segment("w_in", 40.0, "left")]

coord = st.floats(-45.0, 45.0, allow_nan=False)
peer = st.builds(SimpleNamespace, x=coord, y=coord,
                 heading=st.floats(-math.pi, math.pi, allow_nan=False),
                 v=st.floats(0.0, 12.0, allow_nan=False))


@st.composite
def recorded(draw):
    x0, y0 = draw(coord), draw(coord)
    n = draw(st.integers(1, 60))
    steps = draw(st.lists(st.tuples(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2)),
                          min_size=n - 1, max_size=n - 1))
    xs = np.cumsum([x0] + [dx for dx, _ in steps])
    ys = np.cumsum([y0] + [dy for _, dy in steps])
    return Trajectory(dt=DT, xs=xs, ys=ys, headings=np.zeros(n), speeds=np.full(n, 5.0))


@settings(max_examples=300, deadline=None)
@given(seg_index=st.integers(0, len(SEGMENTS) - 1),
       trajs=st.lists(recorded(), max_size=3), t=st.integers(0, 80))
def test_recorded_prediction_matches_planning_reference(seg_index, trajs, t):
    seg = SEGMENTS[seg_index]
    trajectories = {f"v{i}": traj for i, traj in enumerate(trajs)}
    traffic = FixedTraffic(S2.layout, trajectories)
    assert traffic.giveway_clear(seg, t) == ref_recorded(S2.layout, trajectories, seg, t)


@settings(max_examples=300, deadline=None)
@given(seg_index=st.integers(0, len(SEGMENTS) - 1), peers=st.lists(peer, max_size=3))
def test_extrapolated_prediction_matches_observation_reference(seg_index, peers):
    seg = SEGMENTS[seg_index]
    traffic = ExtrapolatedTraffic(S2.layout, peers, DT)
    assert traffic.giveway_clear(seg, 0) == ref_extrapolated(S2.layout, peers, DT, seg)


@pytest.mark.parametrize("x,y,heading,v,clear", [
    (-20.0, -1.75, 0.0, 8.0, False),   # priority traffic from the west, on the conflict path
    (-20.0, -1.75, 0.0, 0.0, True),    # the same vehicle standing still, out of reach
    (-50.0, 1.75, math.pi, 8.0, True),  # leaving westbound: not a priority lane
    (0.0, 40.0, 0.0, 8.0, True),       # far north, off every priority lane
])
def test_both_predictors_agree_on_fixed_cases(x, y, heading, v, clear):
    seg = SEGMENTS[0]
    here = SimpleNamespace(x=x, y=y, heading=heading, v=v)
    assert ExtrapolatedTraffic(S2.layout, [here], DT).giveway_clear(seg, 0) is clear
    n = int(GIVEWAY_WINDOW_S / DT) + 1
    ts = np.arange(n) * DT
    traj = Trajectory(dt=DT, xs=x + v * ts * math.cos(heading), ys=y + v * ts * math.sin(heading),
                      headings=np.full(n, heading), speeds=np.full(n, v))
    assert FixedTraffic(S2.layout, {"v": traj}).giveway_clear(seg, 0) is clear


# --- the rollout step in floats ----------------------------------------------------


def lane_track(sc, lane, s0, v, n=300):
    """A peer driving straight on from a lane point at constant speed."""
    here = lane_point_state(sc.layout, lane, s0, v)
    ds = [v * sc.dt * k for k in range(n)]
    return Trajectory(dt=sc.dt, xs=[here.x + d * math.cos(here.heading) for d in ds],
                      ys=[here.y + d * math.sin(here.heading) for d in ds],
                      headings=[here.heading] * n, speeds=[v] * n)


# (scenario, ego lane and arc length, macro, peer lane and arc length, segment it must drive)
CHAINS = {
    "lane-follow": (S1, "right_a", 10.0, "Continue", "right_a", 40.0, None),
    "lane-change": (S1, "right_a", 10.0, "Change-left", "left_a", 45.0, _LaneChangeSegment),
    # Priority traffic from the west holds the ego at the stop line for a while.
    "give-way-exit": (S2, "s_in", 20.0, "Exit-left", "w_in", 10.0, _GiveWaySegment),
}


@pytest.mark.parametrize("with_table", [False, True])
@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_chain_stepper_records_floats_only(chain, with_table):
    sc, lane, s, macro, peer_lane, peer_s, kind = CHAINS[chain]
    me = lane_point_state(sc.layout, lane, s, 8.0)
    traffic = FixedTraffic(sc.layout, {"v": lane_track(sc, peer_lane, peer_s, 8.0)},
                           *((ProjectionTable(), {"v": (0, 0)}) if with_table else ()))
    ego = ChainStepper(me, sc.layout, sc.dt, sc.target_speed, expand_macro(macro, me, sc.layout))
    driven = set()
    for t in range(250):
        if ego.segment() is None:
            break
        driven.add(type(ego.seg))
        ego.step(traffic, t)
    assert ego.steps > 20
    assert kind is None or kind in driven
    for field in (ego.xs, ego.ys, ego.hs, ego.vs):
        assert all(type(v) is float for v in field)


def test_library_trajectories_hold_float_lists(monkeypatch):
    """Every trajectory the library builds holds each field as a list of
    Python floats: observed prefixes, predicted options, traffic-free
    rollouts, MCTS rollout steps and their concatenation."""
    built = {"rollout step": [], "joined": []}
    real_step, real_concat = mcts_mod.simulate_step, mcts_mod.concat_trajectories

    def step(*args):
        result = real_step(*args)
        built["rollout step"].append(result.ego_trajectory)
        return result

    def concat(parts):
        joined = real_concat(parts)
        built["joined"].append(joined)
        return joined

    monkeypatch.setattr(mcts_mod, "simulate_step", step)
    monkeypatch.setattr(mcts_mod, "concat_trajectories", concat)
    pipe = run_pipeline(S2, 0, planner=planner_config(S2, 0, iterations=10))
    built["observed"] = list(pipe.prefixes.values())
    built["predicted"] = [o.trajectory for pred in pipe.predictions.vehicles.values()
                          for opts in pred.options.values() for o in opts]
    me = pipe.planning_state.vehicles[S2.ego_id]
    built["empty road"] = [roll_chain(expand_macro(macro, me, S2.layout), me, S2.layout, DT,
                                      S2.horizon, S2.target_speed)
                           for macro in applicable_macros(pipe.planning_state, S2.ego_id,
                                                          S2.layout, S2.ego_goal)]
    for kind, trajs in built.items():
        assert trajs, kind
        for traj in trajs:
            for field in (traj.xs, traj.ys, traj.headings, traj.speeds):
                assert type(field) is list and all(type(v) is float for v in field), kind


def ref_collider(trajectories, x, y, t):
    """The first vehicle whose state at step t, read through `state_at`, overlaps (x, y)."""
    for vid, traj in trajectories.items():
        here = traj.state_at(t)
        if (here.x - x) ** 2 + (here.y - y) ** 2 <= (2.0 * COLLISION_RADIUS) ** 2:
            return vid
    return None


@settings(max_examples=200, deadline=None)
@given(trajs=st.lists(recorded(), min_size=1, max_size=3), data=st.data())
def test_collider_matches_disc_overlap_reference(trajs, data):
    trajectories = {f"v{i}": traj for i, traj in enumerate(trajs)}
    traffic = FixedTraffic(S2.layout, trajectories)
    offset = st.floats(-2.0 * COLLISION_RADIUS - 0.5, 2.0 * COLLISION_RADIUS + 0.5)
    for traj in trajs:
        # Before, at and past the trajectory's end.
        for t in sorted({0, len(traj) - 2, len(traj) - 1, len(traj), len(traj) + 7} - {-1}):
            here = traj.state_at(t)
            x, y = here.x + data.draw(offset), here.y + data.draw(offset)
            assert traffic.collider(x, y, t) == ref_collider(trajectories, x, y, t)

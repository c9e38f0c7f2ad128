"""The cheaper rollout step against the code it replaced.

Each rewrite must give the same floats as the form it replaced, so the
references below are that form, and results are compared with `==` or bit
for bit (`float.hex`, so the sign of zero and NaN count):

- the goal box (`scenario.goal_box`) tested before `goal_contains`, in the
  rollout step, the goal-entry scan (`maneuvers.goal_entry`) and Continue's
  goal test (`maneuvers.chain_reaches_goal`), which also skips lanes whose
  box misses the goal;
- the car-following cap read in one pass (`maneuvers._car_follow_limit`);
- the comparison clamps of `ChainStepper.step` and `_Segment.advance_dist`;
- joint-sample draws from cumulative tables (`recognition.choice_table`);
- the array heading wrap (`geometry.normalize_angles`).
"""

import bisect
import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import whyplan.maneuvers as maneuvers_mod
import whyplan.simulation as simulation_mod
from whyplan import cli
from whyplan.errors import InapplicableMacroError
from whyplan.geometry import Polyline, normalize_angle, normalize_angles
from whyplan.maneuvers import (ACCEL_MAX, BRAKE_MAX, COLLISION_RADIUS, FOLLOW_KG, FOLLOW_KV,
                               FOLLOW_MIN_GAP, FOLLOW_TIME_GAP, LEAD_LATERAL, LEAD_LOOKAHEAD,
                               ChainStepper, Trajectory, _LaneChangeSegment, _Segment,
                               _try_clear, applicable_macros, chain_reaches_goal,
                               expand_macro, goal_entry, lane_follow_chain)
from whyplan.recognition import (GoalPosterior, TrajectoryOption, VehiclePrediction,
                                 choice_table)
from whyplan.scenario import (JointState, VehicleState, goal_box, goal_contains,
                              goal_tolerance, load_scenario, scenario_from_dict)
from whyplan.simulation import FixedTraffic, ProjectionTable

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PATHS = {"s1": os.path.join(ROOT, "scenarios", "s1.json"),
         "s2": os.path.join(ROOT, "scenarios", "s2.json"),
         "dense": os.path.join(ROOT, "benchmarks", "scenarios", "dense.json")}
SCENARIOS = {name: load_scenario(path) for name, path in PATHS.items()}
# Every goal of every scenario, with the layout it lies in.
GOALS = sorted({(name, goal) for name, sc in SCENARIOS.items()
                for goal in (sc.ego_goal, *(g for v in sc.vehicles for g in v.goals))},
               key=lambda ng: (ng[0], ng[1].lane, ng[1].start_s, ng[1].label))


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


# --- the goal box ---------------------------------------------------------------


def gated(layout, goal, x, y) -> bool:
    """The box-gated goal test, as the rollout step and the scans write it."""
    (x_lo, x_hi, y_lo, y_hi), _ = goal_box(layout, goal)
    return x_lo <= x <= x_hi and y_lo <= y <= y_hi and goal_contains(layout, goal, x, y)


def goal_point(layout, goal, s, lateral) -> tuple[float, float]:
    """The point at arc length s on the goal lane, offset `lateral` to its left."""
    x, y, nx, ny, _ = layout.lanes[goal.lane].midline.frame_at(s)
    return x + lateral * nx, y + lateral * ny


def edge_points(layout, goal):
    """Points at the interval ends, +-1e-9 and beyond, and at the tolerance edge."""
    tol = goal_tolerance(layout, goal)
    arcs = [goal.start_s + d for d in (-1e-9, 0.0, 1e-9, -2e-9)]
    arcs += [goal.end_s + d for d in (-1e-9, 0.0, 1e-9, 2e-9)]
    arcs += [0.5 * (goal.start_s + goal.end_s)]
    lats = [0.0] + [sign * tol * f for sign in (-1.0, 1.0)
                    for f in (1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 1e-6)]
    points = [goal_point(layout, goal, s, lat) for s in arcs for lat in lats]
    # Past the lane's ends the projection clamps to the end point: points
    # around it at the tolerance, straight out and across the corner.
    mid = layout.lanes[goal.lane].midline
    for s, out in ((0.0, -1.0), (mid.length, 1.0)):
        x, y, nx, ny, heading = mid.frame_at(s)
        for turn in (0.0, math.pi / 4, -math.pi / 4, math.pi / 2):
            ux = out * math.cos(heading + turn)
            uy = out * math.sin(heading + turn)
            points += [(x + tol * f * ux, y + tol * f * uy)
                       for f in (1.0 - 1e-12, 1.0, 1.0 + 1e-12)]
    return points


ODD = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("name,goal", GOALS, ids=lambda v: v if isinstance(v, str) else v.label)
def test_goal_box_gate_equals_projection_test_at_the_edges(name, goal):
    layout = SCENARIOS[name].layout
    points = edge_points(layout, goal)
    x0, y0 = points[0]
    points += [(a, b) for a in ODD + [x0] for b in ODD + [y0]]
    answers = [goal_contains(layout, goal, x, y) for x, y in points]
    assert [gated(layout, goal, x, y) for x, y in points] == answers
    assert any(answers)  # the edges include points inside the goal


@settings(max_examples=300, deadline=None)
@given(index=st.integers(0, len(GOALS) - 1), u=st.floats(-0.3, 1.3),
       v=st.floats(-2.5, 2.5), jitter=st.sampled_from([0.0, 1e-9, -1e-9, 1e-12]))
def test_goal_box_gate_equals_projection_test_around_every_goal(index, u, v, jitter):
    name, goal = GOALS[index]
    layout = SCENARIOS[name].layout
    s = goal.start_s + u * (goal.end_s - goal.start_s) + jitter
    x, y = goal_point(layout, goal, s, v * goal_tolerance(layout, goal))
    assert gated(layout, goal, x, y) == goal_contains(layout, goal, x, y)


def ref_goal_entry(traj, goal, layout, start=0):
    return next((k for k in range(start, len(traj)) if goal_contains(
        layout, goal, float(traj.xs[k]), float(traj.ys[k]))), None)


@settings(max_examples=200, deadline=None)
@given(index=st.integers(0, len(GOALS) - 1), data=st.data())
def test_goal_entry_equals_a_full_projection_scan(index, data):
    name, goal = GOALS[index]
    layout = SCENARIOS[name].layout
    edges = edge_points(layout, goal)
    n = data.draw(st.integers(1, 12))
    pts = [data.draw(st.sampled_from(edges) | st.tuples(st.floats(-100, 100),
                                                        st.floats(-100, 100)))
           for _ in range(n)]
    traj = Trajectory(dt=0.1, xs=np.array([p[0] for p in pts]), ys=np.array([p[1] for p in pts]),
                      headings=np.zeros(n), speeds=np.zeros(n))
    start = data.draw(st.integers(0, n))
    assert goal_entry(traj, goal, layout, start) == ref_goal_entry(traj, goal, layout, start)


def ref_chain_reaches_goal(layout, chain, from_s, goal):
    """The 2 m walk over every lane, projecting every sample."""
    for i, lane_id in enumerate(chain):
        mid = layout.lanes[lane_id].midline
        s = from_s if i == 0 else 0.0
        while s <= mid.length:
            x, y = mid.point_at(s)
            if goal_contains(layout, goal, float(x), float(y)):
                return True
            s += 2.0
        x, y = mid.point_at(mid.length)
        if goal_contains(layout, goal, float(x), float(y)):
            return True
    return False


@settings(max_examples=200, deadline=None)
@given(index=st.integers(0, len(GOALS) - 1), data=st.data())
def test_chain_walk_equals_the_unskipped_walk(index, data):
    name, goal = GOALS[index]
    layout = SCENARIOS[name].layout
    chain = lane_follow_chain(layout, data.draw(st.sampled_from(sorted(layout.lanes))))
    from_s = data.draw(st.floats(-5.0, 200.0) | st.sampled_from([math.nan, 0.0]))
    assert chain_reaches_goal(layout, chain, from_s, goal) == ref_chain_reaches_goal(
        layout, chain, from_s, goal)


@pytest.mark.parametrize("start_x", [-1e5, -1e9])
def test_lane_missing_the_goal_box_is_never_projected(tmp_path, monkeypatch, capsys, start_x):
    """s2 with `w_in` stretched west: no goal test is asked at a point on it.
    Walked in 2 m steps, the 1e9 m lane would take hundreds of millions."""
    raw = json.load(open(PATHS["s2"]))
    lane = next(lane for lane in raw["layout"]["lanes"] if lane["id"] == "w_in")
    lane["midline"][0][0] = start_x
    path = tmp_path / "s2_long.json"
    path.write_text(json.dumps(raw))
    on_w_in = []

    def counting(layout, goal, x, y):
        if y == -1.75 and x < -8.0:
            on_w_in.append((x, y))
        return goal_contains(layout, goal, x, y)

    monkeypatch.setattr(maneuvers_mod, "goal_contains", counting)
    monkeypatch.setattr(simulation_mod, "goal_contains", counting)
    code = cli.main(["plan", "--scenario", str(path), "--seed", "0", "--iterations", "5",
                     "--out", str(tmp_path / "run")])
    assert "all goals unreachable" in capsys.readouterr().err
    assert (code, on_w_in) == (4, [])


def test_lane_missing_the_goal_box_is_not_walked(monkeypatch):
    """Continue's goal test samples no point of a lane whose box misses the goal
    (here 1e5 m long, 50,000 samples at 2 m), but walks the next lane of the
    chain where its box meets the goal."""
    raw = json.load(open(PATHS["s2"]))
    next(lane for lane in raw["layout"]["lanes"] if lane["id"] == "w_in")["midline"][0][0] = -1e5
    sc = scenario_from_dict(raw)
    mid = sc.layout.lanes["w_in"].midline
    sampled, projected = [], []
    monkeypatch.setattr(mid, "point_at", lambda s: sampled.append(s) or Polyline.point_at(mid, s))
    monkeypatch.setattr(maneuvers_mod, "goal_contains",
                        lambda *args: projected.append(args) or goal_contains(*args))
    north, east = sc.vehicles[1].goals
    assert not chain_reaches_goal(sc.layout, ["w_in", "e_out"], 42.0, north)
    assert chain_reaches_goal(sc.layout, ["w_in", "e_out"], 42.0, east)
    assert sampled == []
    assert projected and all(layout is sc.layout and x >= 8.0 for layout, _, x, _ in projected)


# --- the one-pass car-following cap ----------------------------------------------


def ref_follow_limit(s_me, lat_me, v, dt, others) -> float:
    """The leader rule over a list of peers, with min/max clamps."""
    limit = math.inf
    for s_o, lat_o, ov in others:
        if abs(lat_o - lat_me) > LEAD_LATERAL:
            continue
        ds = s_o - s_me
        if ds <= 0.0 or ds > LEAD_LOOKAHEAD:
            continue
        gap = ds - 2.0 * COLLISION_RADIUS
        want = FOLLOW_MIN_GAP + FOLLOW_TIME_GAP * v
        a = FOLLOW_KG * (gap - want) + FOLLOW_KV * (ov - v)
        limit = min(limit, max(v + a * dt, 0.0))
    return limit


edge_float = st.sampled_from([0.0, -0.0, 1.0, 3.2, -3.2, 60.0, 3.0, math.nan, math.inf])
peer_float = st.floats(-80.0, 80.0) | edge_float


@settings(max_examples=400, deadline=None)
@given(me=st.tuples(peer_float, peer_float), v=st.floats(0.0, 15.0) | edge_float,
       dt=st.sampled_from([0.1, 0.2, 0.05]),
       peers=st.lists(st.tuples(peer_float, peer_float, st.floats(0.0, 15.0) | edge_float),
                      max_size=6))
def test_one_pass_cap_equals_the_list_rule_on_generated_peers(me, v, dt, peers):
    traffic = SimpleNamespace(projected=lambda path, x, y, t: (*me, iter(peers)))
    seg = SimpleNamespace(path=object())
    got = maneuvers_mod._car_follow_limit(0.0, 0.0, v, seg, traffic, 0, dt)
    assert bits([got]) == bits([ref_follow_limit(*me, v, dt, list(peers))])


def straight_track(x0, y0, heading, v, n=40, dt=0.1):
    ds = v * dt * np.arange(n)
    return Trajectory(dt=dt, xs=x0 + ds * math.cos(heading), ys=y0 + ds * math.sin(heading),
                      headings=np.full(n, heading), speeds=np.full(n, v))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_pass_cap_over_table_entries_equals_the_list_rule(data):
    n = data.draw(st.integers(1, 4))
    trajs = {f"v{i}": straight_track(data.draw(st.floats(-10, 60)), data.draw(st.floats(-4, 4)),
                                     data.draw(st.floats(-0.3, 0.3)), data.draw(st.floats(0, 12)),
                                     n=data.draw(st.integers(1, 30)))
             for i in range(n)}
    path = Polyline([(0.0, 0.0), (30.0, 0.0), (60.0, data.draw(st.floats(-5, 5)))])
    traffic = FixedTraffic(None, trajs, ProjectionTable(), {vid: (0, 0) for vid in trajs})
    seg = SimpleNamespace(path=path)
    for t in sorted(set(data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=5)))):
        x, y, v = data.draw(st.floats(0, 50)), data.draw(st.floats(-3, 3)), data.draw(
            st.floats(0, 12))
        s_me, lat_me, _ = path.project((x, y))
        peers = []
        for traj in trajs.values():
            k = min(t, len(traj) - 1)
            s, lat, _ = path.project((float(traj.xs[k]), float(traj.ys[k])))
            peers.append((s, lat, float(traj.speeds[k])))
        got = maneuvers_mod._car_follow_limit(x, y, v, seg, traffic, t, 0.1)
        assert bits([got]) == bits([ref_follow_limit(s_me, lat_me, v, 0.1, peers)])


# --- the comparison clamps -------------------------------------------------------


def ref_advance_dist(self, dist):
    used = min(dist, self.path.length - self.s)
    self.s += used
    x, y, _, _, heading = self.path.frame_at(self.s)
    if used > 1e-9:
        self.heading = heading
    return x, y, self.heading, used


def ref_car_follow_limit(x, y, v, seg, traffic, t, dt):
    path = getattr(seg, "path", None)
    projected = None if path is None else traffic.projected(path, x, y, t)
    if projected is None:
        return math.inf
    s_me, lat_me, others = projected
    return ref_follow_limit(s_me, lat_me, v, dt, list(others))


def ref_step(self, traffic, t):
    """`ChainStepper.step` with its min/max clamps."""
    seg, dt, v = self.seg, self.dt, self.v
    _try_clear(seg, traffic, t)
    v_des = seg.desired_speed(v)
    if traffic is not None:
        v_des = min(v_des, maneuvers_mod._car_follow_limit(self.x, self.y, v, seg, traffic, t, dt))
    a = min(max((v_des - v) / dt, -BRAKE_MAX), ACCEL_MAX)
    v_next = max(v + a * dt, 0.0)
    if isinstance(seg, _LaneChangeSegment):
        x, y, heading = seg.advance(v, dt)
    else:
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
            v_eff = used / dt
            self.vs[-1] = v_eff
            v_next = min(v_next, v_eff)
    self._record(x, y, heading, v_next)
    if seg.done():
        self.seg = None
        self.seg_idx += 1
    else:
        self.seg = seg


def drive(sc, me, macro, traffic, step, steps=120):
    """The recorded floats of a drive, or the error that ended it."""
    ego = ChainStepper(me, sc.layout, sc.dt, sc.target_speed, expand_macro(macro, me, sc.layout))
    try:
        for t in range(steps):
            if ego.segment() is None:
                break
            step(ego, traffic, t)
    except InapplicableMacroError as exc:  # a lane change with no room left
        return str(exc)
    return [bits(field) for field in (ego.xs, ego.ys, ego.hs, ego.vs)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_step_equals_the_min_max_step_against_generated_traffic(data):
    name = data.draw(st.sampled_from(sorted(SCENARIOS)))
    sc = SCENARIOS[name]
    lane = sc.layout.lanes[data.draw(st.sampled_from(sorted(sc.layout.lanes)))]
    s = data.draw(st.floats(0.0, lane.length))
    x, y, _, _, heading = lane.midline.frame_at(s)
    me = VehicleState(x, y, heading, data.draw(st.floats(0.0, 14.0)))
    macros = applicable_macros(JointState(t=0, vehicles={"me": me}), "me", sc.layout,
                               sc.ego_goal)
    macro = data.draw(st.sampled_from(macros))
    # Peers on random lanes ahead of and behind the ego, some stopped.
    trajs = {}
    for i in range(data.draw(st.integers(0, 3))):
        peer_lane = sc.layout.lanes[data.draw(st.sampled_from(sorted(sc.layout.lanes)))]
        px, py, _, _, ph = peer_lane.midline.frame_at(data.draw(st.floats(0.0, peer_lane.length)))
        trajs[f"v{i}"] = straight_track(px, py, ph, data.draw(st.sampled_from([0.0, 3.0, 9.0])),
                                        n=data.draw(st.integers(1, 150)), dt=sc.dt)
    assignment = {vid: (0, 0) for vid in trajs}
    got = drive(sc, me, macro, FixedTraffic(sc.layout, trajs, ProjectionTable(), assignment),
                ChainStepper.step)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Segment, "advance_dist", ref_advance_dist)
        mp.setattr(maneuvers_mod, "_car_follow_limit", ref_car_follow_limit)
        want = drive(sc, me, macro, FixedTraffic(sc.layout, trajs), ref_step)
    assert got == want


class StubSegment:
    """A segment whose asked speed and distance driven are given."""

    def __init__(self, v_des, used):
        self.v_des, self.used = v_des, used

    def desired_speed(self, v):
        return self.v_des

    def advance_dist(self, dist):
        return 1.0, 2.0, 0.5, self.used

    def done(self):
        return False


@settings(max_examples=400, deadline=None)
@given(v=st.floats(0.0, 20.0) | edge_float, v_des=st.floats(-20.0, 30.0) | edge_float,
       cap=st.floats(-5.0, 30.0) | edge_float | st.just(-math.inf),
       used=st.floats(0.0, 3.0) | edge_float, dt=st.sampled_from([0.1, 0.25]))
def test_step_clamps_equal_min_max_with_ties_and_nans(v, v_des, cap, used, dt):
    def run(step):
        # A plain start, so that odd speeds (negative, NaN) reach the clamps too.
        ego = ChainStepper(SimpleNamespace(x=0.0, y=0.0, heading=0.0, speed=v), None, dt, 10.0)
        ego.seg = StubSegment(v_des, used)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(maneuvers_mod, "_car_follow_limit", lambda *args: cap)
            step(ego, object(), 0)
        return bits(ego.vs)

    assert run(ChainStepper.step) == run(ref_step)


@settings(max_examples=300, deadline=None)
@given(s=st.floats(-1.0, 40.0) | edge_float, dist=st.floats(-1.0, 50.0) | edge_float)
def test_advance_dist_clamp_equals_min(s, dist):
    path = Polyline([(0.0, 0.0), (10.0, 0.0), (20.0, 10.0)])
    got, want = _Segment(path, 0.0, 0.0, 0.25), _Segment(path, 0.0, 0.0, 0.25)
    got.s = want.s = s
    assert bits(got.advance_dist(dist)) == bits(ref_advance_dist(want, dist))
    assert bits([got.s, got.heading]) == bits([want.s, want.heading])


# --- joint-sample draws ------------------------------------------------------------


weights = st.lists(st.sampled_from([0.0, 0.0, 1.0, 0.5, 3.0]) | st.floats(0.0, 10.0),
                   min_size=1, max_size=6).filter(lambda w: sum(w) > 0)


@settings(max_examples=300, deadline=None)
@given(w=weights, seed=st.integers(0, 2 ** 32 - 1))
def test_table_draws_equal_generator_choice_draw_for_draw(w, seed):
    p = np.asarray(w) / np.sum(w)
    table = choice_table(p.tolist())
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(40):
        assert bisect.bisect_right(table, ours.random()) == int(theirs.choice(len(p), p=p))


def test_table_draws_equal_choice_with_zero_entries_and_a_single_entry():
    for p in ([1.0], [0.0, 1.0], [1.0, 0.0], [0.0, 0.5, 0.0, 0.5, 0.0], [0.3, 0.0, 0.7]):
        table = choice_table(p)
        ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
        draws = [bisect.bisect_right(table, ours.random()) for _ in range(300)]
        assert draws == [int(theirs.choice(len(p), p=np.asarray(p))) for _ in range(300)]
        assert all(p[k] > 0.0 for k in draws)


@pytest.mark.parametrize("p", [[], [0.5, 0.6], [-0.5, 1.5], [math.nan, 1.0], [math.inf],
                               [0.4, 0.4]])
def test_table_rejects_what_choice_rejects(p):
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(max(len(p), 1), p=np.asarray(p) if p else [])
    with pytest.raises(ValueError):
        choice_table(p)


@settings(max_examples=100, deadline=None)
@given(goal_w=weights, option_w=st.lists(weights, min_size=6, max_size=6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_vehicle_sample_equals_two_generator_choices(goal_w, option_w, seed):
    goal_p = (np.asarray(goal_w) / np.sum(goal_w)).tolist()
    options = {g: tuple(TrajectoryOption((), None, q)
                        for q in (np.asarray(w) / np.sum(w)).tolist())
               for g, w in zip(range(len(goal_p)), option_w)}
    pred = VehiclePrediction("v", "v", GoalPosterior(tuple(goal_p), tuple(goal_p)), options)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        g = int(theirs.choice(len(goal_p), p=np.asarray(goal_p)))
        opts = options[g]
        k = int(theirs.choice(len(opts), p=np.asarray([o.probability for o in opts])))
        assert pred.sample(ours) == (g, k)


# --- the heading wrap -------------------------------------------------------------


TURN = 2.0 * math.pi
angle_edges = [k * TURN for k in range(-4, 5)] + [s * math.pi for s in (-3, -1, 1, 3)]
angle_edges += [math.nextafter(a, d) for a in angle_edges for d in (-math.inf, math.inf)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-50.0, 50.0) | st.floats(-1e12, 1e12) | st.sampled_from(angle_edges),
                min_size=1, max_size=20))
def test_array_wrap_equals_normalize_angle_elementwise(angles):
    assert bits(normalize_angles(np.asarray(angles))) == bits(normalize_angle(a) for a in angles)


def test_array_wrap_equals_normalize_angle_at_pi_and_whole_turns():
    got = normalize_angles(np.asarray(angle_edges))
    assert bits(got) == bits(normalize_angle(a) for a in angle_edges)
    assert normalize_angles(np.asarray([math.pi, -math.pi])).tolist() == [math.pi, math.pi]

"""The search-scoped projection table against direct projection.

Car following in MCTS rollouts reads peer and ego projections from one
`ProjectionTable` per search. Every answer read through it must equal
`Polyline.project` on the same floats, compared with `==`, and one search
must project each distinct key exactly once.
"""

import os

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import whyplan.maneuvers as maneuvers_mod
from whyplan.geometry import Polyline
from whyplan.maneuvers import ChainStepper, Trajectory, merged_path
from whyplan.mcts import run_mcts
from whyplan.pipeline import planner_config, run_pipeline
from whyplan.scenario import load_scenario
from whyplan.simulation import FixedTraffic, ProjectionTable

from conftest import REPO_ROOT

DENSE = os.path.join(REPO_ROOT, "benchmarks", "scenarios", "dense.json")


def answered(traffic, path, x, y, t):
    """`FixedTraffic.projected` with its peers, an iterator read once, as a list."""
    s, lat, peers = traffic.projected(path, x, y, t)
    return s, lat, list(peers)


def ref_peer(path, traj, t):
    k = min(t, len(traj.xs) - 1)
    s, lat, _ = path.project((float(traj.xs[k]), float(traj.ys[k])))
    return s, lat, float(traj.speeds[k])


# --- strategies ---------------------------------------------------------------

coord = st.floats(-60.0, 60.0, allow_nan=False, allow_infinity=False)
# Integer vertices and points make ties and repeated points common.
grid = st.integers(-6, 6).map(float)


@st.composite
def path_specs(draw):
    """Points and a merge offset of a single-segment, multi-segment or merged path."""
    c = draw(st.sampled_from([coord, grid]))
    kind = draw(st.sampled_from(["single", "multi", "merged"]))
    n = 2 if kind == "single" else draw(st.integers(3, 8))
    pts = draw(st.lists(st.tuples(c, c), min_size=n, max_size=n))
    try:
        Polyline(pts)
    except ValueError:
        assume(False)
    lat0 = draw(st.floats(-3.5, 3.5)) if kind == "merged" else 0.0
    return pts, lat0


def build(spec) -> Polyline:
    """A fresh polyline for the spec, as rollouts rebuild each segment's path."""
    pts, lat0 = spec
    line = Polyline(pts)
    return merged_path(line, lat0) if lat0 else line


@st.composite
def peer_trajectories(draw):
    """1-4 options, some of one vehicle, with short trajectories to clamp past."""
    n = draw(st.integers(1, 4))
    options, trajs = {}, {}
    for i in range(n):
        length = draw(st.integers(1, 8))
        c = draw(st.sampled_from([coord, grid]))
        xs = np.array(draw(st.lists(c, min_size=length, max_size=length)))
        ys = np.array(draw(st.lists(c, min_size=length, max_size=length)))
        speeds = np.array(draw(st.lists(st.floats(0.0, 15.0), min_size=length,
                                        max_size=length)))
        vid = f"v{i}"
        trajs[vid] = Trajectory(dt=0.1, xs=xs, ys=ys, headings=np.zeros(length),
                                speeds=speeds)
        options[vid] = (draw(st.integers(0, 1)), draw(st.integers(0, 2)))
    return trajs, options


@st.composite
def table_sessions(draw):
    """Traffic samples over a shared option pool, each asked along a few paths."""
    specs = draw(st.lists(path_specs(), min_size=1, max_size=3))
    pool, pool_options = draw(peer_trajectories())
    vids = sorted(pool)
    samples = []
    for _ in range(draw(st.integers(1, 4))):
        chosen = draw(st.lists(st.sampled_from(vids), min_size=1, max_size=len(vids),
                               unique=True))
        queries = []
        for _ in range(draw(st.integers(1, 6))):
            # A rollout asks along one path object for many steps, then a rebuilt one.
            rebuild = not queries or draw(st.booleans())
            t = draw(st.integers(0, 12))
            point = draw(st.sampled_from([(0.0, 0.0), (1.5, -2.0)]) | st.tuples(coord, coord))
            queries.append((draw(st.sampled_from(specs)) if rebuild else None, t, point))
        samples.append((chosen, queries))
    return pool, pool_options, samples


# --- oracle -------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(table_sessions())
def test_table_answers_equal_direct_projection(session):
    pool, options, samples = session
    table = ProjectionTable()
    for chosen, queries in samples:
        trajs = {vid: pool[vid] for vid in chosen}
        traffic = FixedTraffic(None, trajs, table, options)
        path = None
        for spec, t, (x, y) in queries:
            if spec is not None:
                del path  # the rebuilt path may reuse the freed object
                path = build(spec)
            want = (*path.project((x, y))[:2], [ref_peer(path, trajs[v], t) for v in chosen])
            assert answered(traffic, path, x, y, t) == want
            # Reading the entries again answers the same.
            assert answered(traffic, path, x, y, t) == want


def test_rebuilt_path_with_equal_points_is_answered_without_projecting(monkeypatch):
    pts = [(0.0, 0.0), (10.0, 0.0), (20.0, 5.0)]
    traj = Trajectory(dt=0.1, xs=np.array([3.0, 4.0]), ys=np.array([0.5, 0.6]),
                      headings=np.zeros(2), speeds=np.array([5.0, 5.0]))
    table = ProjectionTable()
    first = FixedTraffic(None, {"v1": traj}, table, {"v1": (0, 0)})
    want = answered(first, Polyline(pts), 1.0, 2.0, 7)

    calls = []
    monkeypatch.setattr(Polyline, "project", lambda self, p: calls.append(p))
    again = FixedTraffic(None, {"v1": traj}, table, {"v1": (0, 0)})
    # Step 9 clamps to the same last state as step 7.
    assert answered(again, Polyline(pts), 1.0, 2.0, 9) == want
    assert calls == []


# --- one projection per distinct key in a search -------------------------------


def test_search_projects_each_car_following_key_once(monkeypatch):
    """Counted over one dense seed-0 search at 60 iterations, run twice."""
    sc = load_scenario(DENSE)
    pipe = run_pipeline(sc, 0, planner=planner_config(sc, 0, iterations=60))
    option_of = {(vid, id(opt.trajectory)): (vid, g, s)
                 for vid, pred in pipe.predictions.items()
                 for g, opts in pred.options.items() for s, opt in enumerate(opts)}

    peer_keys, ego_keys, projected = set(), set(), []
    following = []  # non-empty while car following runs

    step, follow, project = ChainStepper.step, maneuvers_mod._car_follow_limit, Polyline.project

    def recording_step(self, traffic, t):
        path = getattr(self.seg, "path", None)
        if path is not None and traffic.trajectories:
            content = path.pts.tobytes()
            ego_keys.add((content, self.x, self.y))
            for vid, traj in traffic.trajectories.items():
                peer_keys.add((content, option_of[vid, id(traj)], min(t, len(traj) - 1)))
        return step(self, traffic, t)

    def in_car_following(*args):
        following.append(True)
        try:
            return follow(*args)
        finally:
            following.pop()

    def counting_project(self, point):
        if following:
            projected.append((self.pts.tobytes(), float(point[0]), float(point[1])))
        return project(self, point)

    monkeypatch.setattr(ChainStepper, "step", recording_step)
    monkeypatch.setattr(maneuvers_mod, "_car_follow_limit", in_car_following)
    monkeypatch.setattr(Polyline, "project", counting_project)
    counts = []
    for _ in range(2):
        peer_keys.clear()
        ego_keys.clear()
        projected.clear()
        res = run_mcts(sc, pipe.planning_state, pipe.planner, pipe.predictions,
                       reward_config=pipe.reward)
        assert res.table == pipe.mcts.table
        ego_calls = [p for p in projected if p in ego_keys]
        assert (len(ego_calls), len(set(ego_calls))) == (len(ego_keys),) * 2
        assert len(projected) - len(ego_calls) == len(peer_keys)
        counts.append(len(projected))
    # Each search starts from an empty table: the second projects as much as the first.
    assert counts[0] == counts[1] > 0

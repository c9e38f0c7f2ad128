"""Polyline against the vectorised numpy formulas it replaced.

The scalar loops in `Polyline` must give the same floats bit for bit, so the
oracle checks use `==`, never a tolerance: planning fingerprints depend on it.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from whyplan.geometry import Polyline


# --- numpy reference ----------------------------------------------------------


def _ref_tables(line: Polyline):
    seg = np.diff(line.pts, axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    cum_s = np.concatenate([[0.0], np.cumsum(seg_len)])
    return line.pts, seg, seg_len, cum_s


def ref_project(line: Polyline, point) -> tuple[float, float, float]:
    pts, d, seg_len, cum_s = _ref_tables(line)
    p = np.asarray(point, dtype=float)
    a = pts[:-1]
    t = np.clip(np.einsum("ij,ij->i", p - a, d) / seg_len ** 2, 0.0, 1.0)
    foot = a + t[:, None] * d
    dist = np.linalg.norm(p - foot, axis=1)
    i = int(np.argmin(dist))
    s = float(cum_s[i] + t[i] * seg_len[i])
    dhat = d[i] / seg_len[i]
    off = p - foot[i]
    lateral = float(dhat[0] * off[1] - dhat[1] * off[0])
    if abs(lateral) < dist[i] - 1e-12:
        lateral = math.copysign(dist[i], lateral if lateral != 0.0 else 1.0)
    return s, lateral, float(dist[i])


def ref_segment_index(line: Polyline, s: float) -> int:
    _, seg, _, cum_s = _ref_tables(line)
    idx = int(np.searchsorted(cum_s, s, side="right") - 1)
    return min(max(idx, 0), len(seg) - 1)


def ref_point_at(line: Polyline, s: float) -> np.ndarray:
    pts, seg, seg_len, cum_s = _ref_tables(line)
    s = min(max(s, 0.0), float(cum_s[-1]))
    i = ref_segment_index(line, s)
    t = (s - cum_s[i]) / seg_len[i]
    return pts[i] + t * seg[i]


def ref_heading_at(line: Polyline, s: float) -> float:
    _, seg, _, cum_s = _ref_tables(line)
    dx, dy = seg[ref_segment_index(line, min(max(s, 0.0), float(cum_s[-1])))]
    return math.atan2(dy, dx)


def ref_normal_at(line: Polyline, s: float) -> np.ndarray:
    _, seg, seg_len, cum_s = _ref_tables(line)
    i = ref_segment_index(line, min(max(s, 0.0), float(cum_s[-1])))
    dx, dy = seg[i] / seg_len[i]
    return np.array([-dy, dx])


# --- strategies ---------------------------------------------------------------

coord = st.floats(-60.0, 60.0, allow_nan=False, allow_infinity=False)
# Integer vertices make exact ties between segments common.
grid = st.integers(-6, 6).map(float)


@st.composite
def multi_segment_lines(draw):
    c = draw(st.sampled_from([coord, grid]))
    pts = draw(st.lists(st.tuples(c, c), min_size=3, max_size=9))
    try:
        line = Polyline(pts)
    except ValueError:
        assume(False)
    assume(len(line.pts) >= 3)
    return line


@st.composite
def line_and_point(draw):
    line = draw(multi_segment_lines())
    kind = draw(st.sampled_from(["free", "grid", "vertex", "past_start", "past_end",
                                 "bisector"]))
    if kind == "free":
        return line, (draw(coord), draw(coord))
    if kind == "grid":
        half = st.integers(-16, 16).map(lambda k: k / 2.0)
        return line, (draw(half), draw(half))
    if kind == "vertex":
        i = draw(st.integers(0, len(line.pts) - 1))
        return line, tuple(line.pts[i].tolist())
    k = draw(st.floats(0.0, 30.0))
    if kind == "past_start":
        d = line.pts[0] - line.pts[1]
        p = line.pts[0] + k * d / np.linalg.norm(d)
    elif kind == "past_end":
        d = line.pts[-1] - line.pts[-2]
        p = line.pts[-1] + k * d / np.linalg.norm(d)
    else:
        # On the outer bisector of an interior vertex: equidistant from the
        # two segments that meet there.
        i = draw(st.integers(1, len(line.pts) - 2))
        u = line.pts[i] - line.pts[i - 1]
        w = line.pts[i] - line.pts[i + 1]
        b = u / np.linalg.norm(u) + w / np.linalg.norm(w)
        assume(np.linalg.norm(b) > 1e-6)
        p = line.pts[i] + k * b / np.linalg.norm(b)
    return line, (float(p[0]), float(p[1]))


# --- oracle checks ------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(line_and_point())
def test_project_matches_numpy_formula_bit_for_bit(case):
    line, point = case
    got = line.project(point)
    assert got == ref_project(line, point)
    assert all(type(v) is float for v in got)


@settings(max_examples=150, deadline=None)
@given(multi_segment_lines(), st.data())
def test_lookups_match_searchsorted_at_every_breakpoint(line, data):
    probes = list(line.cum_s) + [-1.0, line.length + 1.0,
                                 data.draw(st.floats(-5.0, line.length + 5.0))]
    for s in probes:
        assert line._segment_index(s) == ref_segment_index(line, s)
        assert np.array_equal(line.point_at(s), ref_point_at(line, s))
        assert line.heading_at(s) == ref_heading_at(line, s)
        assert isinstance(line.point_at(s), np.ndarray)
        # frame_at: the same floats, down to the sign of zero.
        frame = line.frame_at(s)
        want = (*ref_point_at(line, s), *ref_normal_at(line, s), ref_heading_at(line, s))
        assert all(type(v) is float for v in frame)
        assert [v.hex() for v in frame] == [float.hex(v) for v in want]


def test_cum_s_matches_numpy_cumsum():
    line = Polyline([(0.0, 0.0), (0.1, 0.2), (3.3, -1.7), (3.3, 4.0)])
    _, _, _, cum_s = _ref_tables(line)
    assert line.cum_s == cum_s.tolist()
    assert line.length == float(cum_s[-1])


# --- conventions --------------------------------------------------------------

# Drives east along y = 0, then turns left to drive north along x = 10.
LEFT_TURN = Polyline([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0)])


@pytest.mark.parametrize("point, want", [
    ((5.0, 2.0), (5.0, 2.0, 2.0)),       # left of the eastbound leg
    ((5.0, -2.0), (5.0, -2.0, 2.0)),     # right of the eastbound leg
    ((8.0, 6.0), (16.0, 2.0, 2.0)),      # left of the northbound leg
    ((12.0, 6.0), (16.0, -2.0, 2.0)),    # right of the northbound leg
    ((-3.0, 0.0), (0.0, 3.0, 3.0)),      # before the start, on the line
    ((10.0, 13.0), (20.0, 3.0, 3.0)),    # past the end, on the line
    ((-3.0, -4.0), (0.0, -5.0, 5.0)),    # before the start, right side
])
def test_lateral_is_left_positive(point, want):
    assert LEFT_TURN.project(point) == want


def test_tie_between_segments_keeps_the_first():
    # A U turn: (5, 5) is 5 m from the first, second and third legs.
    u = Polyline([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)])
    assert u.project((5.0, 5.0)) == (5.0, 5.0, 5.0)
    assert ref_project(u, (5.0, 5.0)) == (5.0, 5.0, 5.0)


def test_duplicate_vertices_are_dropped():
    line = Polyline([(0.0, 0.0), (0.0, 0.0), (4.0, 0.0), (4.0, 0.0), (4.0, 3.0)])
    assert len(line.pts) == 3
    assert line.cum_s == [0.0, 4.0, 7.0]
    assert line.project((4.0, 1.0)) == (5.0, 0.0, 0.0)


def test_non_finite_point_projects_to_nan():
    assert all(math.isnan(v) for v in LEFT_TURN.project((math.nan, 1.0)))
    assert all(math.isnan(v) for v in ref_project(LEFT_TURN, (math.nan, 1.0)))

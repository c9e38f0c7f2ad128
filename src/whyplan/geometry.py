"""2-D polyline geometry helpers.

Conventions used across the package: coordinates in metres, headings in
radians measured counter-clockwise from +x and normalized to (-pi, pi],
lateral offsets signed left-positive relative to travel direction.

`Polyline.project` is a scalar loop over per-segment float rows that
reproduces the vectorised numpy arithmetic (dot product, clip, norm, first
argmin) bit for bit, without numpy's per-call overhead on short lines.
`Polyline.frame_at` gives pose, normal and heading as floats from one segment
lookup, so the integrator step (`maneuvers.ChainStepper`) reads floats only;
a "done" rollout is not rescanned for goal entry, which the step checks.
`normalize_angles` wraps a whole array with the floats `normalize_angle`
gives each element.
"""

import bisect
import functools
import math

import numpy as np


def normalize_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.fmod(a, 2.0 * math.pi)
    if a > math.pi:
        a -= 2.0 * math.pi
    elif a <= -math.pi:
        a += 2.0 * math.pi
    return a


def normalize_angles(a: np.ndarray) -> np.ndarray:
    """`normalize_angle` elementwise on finite angles, with the same floats."""
    a = np.fmod(a, 2.0 * math.pi)
    return np.where(a > math.pi, a - 2.0 * math.pi, np.where(a <= -math.pi, a + 2.0 * math.pi, a))


class Polyline:
    """Arc-length parameterized polyline."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 2:
            raise ValueError("polyline needs at least 2 points of dimension 2")
        # Drop consecutive duplicates, which would create zero-length segments.
        keep = [0]
        for i in range(1, len(pts)):
            if np.linalg.norm(pts[i] - pts[keep[-1]]) > 1e-9:
                keep.append(i)
        if len(keep) < 2:
            raise ValueError("polyline is degenerate (zero arc length)")
        self.pts = pts[keep]
        seg = np.diff(self.pts, axis=0)
        seg_len = np.linalg.norm(seg, axis=1)
        self.cum_s = np.concatenate([[0.0], np.cumsum(seg_len)]).tolist()
        self.length = self.cum_s[-1]
        # One row of plain floats per segment: (ax, ay, dx, dy, len^2, len,
        # s_start, then the unit left normal and the heading `frame_at` returns).
        self._rows = [(ax, ay, dx, dy, l2, sl, cs, -(dy / sl), dx / sl, math.atan2(dy, dx))
                      for ax, ay, dx, dy, l2, sl, cs in zip(
                          *self.pts[:-1].T.tolist(), *seg.T.tolist(),
                          (seg_len ** 2).tolist(), seg_len.tolist(), self.cum_s[:-1])]
        # Scalar fast path for the ubiquitous straight, two-point midline.
        self._simple = len(seg) == 1
        if self._simple:
            self._ax, self._ay, self._dx, self._dy = self._rows[0][:4]
            self._l2 = self._dx * self._dx + self._dy * self._dy

    @functools.cached_property
    def content_key(self) -> bytes:
        """The points as bytes: polylines with equal keys project identically."""
        return self.pts.tobytes()

    def _segment_index(self, s: float) -> int:
        idx = bisect.bisect_right(self.cum_s, s) - 1
        return 0 if idx < 0 else (idx if idx < len(self._rows) else len(self._rows) - 1)

    def point_at(self, s: float) -> np.ndarray:
        """Point at arc length s, clamped to [0, length]."""
        return np.array(self.frame_at(s)[:2])

    def heading_at(self, s: float) -> float:
        return self.frame_at(s)[4]

    def frame_at(self, s: float) -> tuple[float, float, float, float, float]:
        """(x, y, nx, ny, heading) at arc length s, clamped to [0, length], as
        floats from one segment lookup: the point, the unit left normal of its
        segment and that segment's heading, both built with the polyline."""
        # min(max(s, 0.0), length) as comparisons, with the same NaN and -0.0.
        s = 0.0 if s < 0.0 else (self.length if self.length < s else s)
        ax, ay, dx, dy, _, sl, cs, nx, ny, heading = self._rows[
            0 if self._simple else self._segment_index(s)]
        t = (s - cs) / sl
        return ax + t * dx, ay + t * dy, nx, ny, heading

    def project(self, point) -> tuple[float, float, float]:
        """Project a point onto the polyline.

        Returns (s, lateral, distance): arc length of the foot point, signed
        lateral offset (left of travel positive) and the euclidean distance
        to the foot point. For points beyond the ends, s clamps to the end
        and distance grows while |lateral| tracks distance.
        """
        px, py = float(point[0]), float(point[1])
        if self._simple:
            rx, ry = px - self._ax, py - self._ay
            t = (rx * self._dx + ry * self._dy) / self._l2
            t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
            ox = px - (self._ax + t * self._dx)
            oy = py - (self._ay + t * self._dy)
            dist = math.hypot(ox, oy)
            lateral = (self._dx * oy - self._dy * ox) / self.length
            if abs(lateral) < dist - 1e-12:
                lateral = math.copysign(dist, lateral if lateral != 0.0 else 1.0)
            return t * self.length, lateral, dist
        # Nearest foot point over all segments; the first strict minimum wins.
        dist, best = math.inf, None
        for row in self._rows:
            ax, ay, dx, dy, ll = row[:5]
            t = ((px - ax) * dx + (py - ay) * dy) / ll
            t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
            rx = px - (ax + t * dx)
            ry = py - (ay + t * dy)
            d = math.sqrt(rx * rx + ry * ry)
            if d < dist:
                dist, best, tb, ox, oy = d, row, t, rx, ry
        if best is None:  # non-finite point: every distance is NaN
            return math.nan, math.nan, math.nan
        _, _, dx, dy, _, sl, cs = best[:7]
        s = cs + tb * sl
        lateral = (dx / sl) * oy - (dy / sl) * ox
        # Preserve the sign convention even when the point is off the ends.
        if abs(lateral) < dist - 1e-12:
            lateral = math.copysign(dist, lateral if lateral != 0.0 else 1.0)
        return s, lateral, dist


def quad_bezier(p0, p1, p2, step: float = 0.5) -> np.ndarray:
    """Sample a quadratic Bezier curve at roughly `step` metre spacing."""
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    p2 = np.asarray(p2, float)
    approx_len = np.linalg.norm(p1 - p0) + np.linalg.norm(p2 - p1)
    n = max(int(approx_len / step), 4)
    u = np.linspace(0.0, 1.0, n + 1)[:, None]
    return (1 - u) ** 2 * p0 + 2 * u * (1 - u) * p1 + u ** 2 * p2


def turn_curve(p0, h0: float, p1, h1: float, step: float = 0.5) -> np.ndarray:
    """Connection curve between two lane endpoints with given headings.

    Uses a quadratic Bezier through the intersection of the entry/exit
    tangents; falls back to the midpoint when the tangents are parallel.
    """
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    d0 = np.array([math.cos(h0), math.sin(h0)])
    d1 = np.array([math.cos(h1), math.sin(h1)])
    denom = d0[0] * d1[1] - d0[1] * d1[0]
    if abs(denom) < 1e-6:
        corner = 0.5 * (p0 + p1)
    else:
        # Solve p0 + t0*d0 == p1 - t1*d1 for the tangent intersection.
        rhs = p1 - p0
        t0 = (rhs[0] * d1[1] - rhs[1] * d1[0]) / denom
        corner = p0 + t0 * d0
        # Reject intersections far behind either endpoint.
        if np.linalg.norm(corner - p0) > 4.0 * np.linalg.norm(p1 - p0) + 1e-9:
            corner = 0.5 * (p0 + p1)
    return quad_bezier(p0, corner, p1, step=step)


def smoothstep(u: float) -> float:
    """Cubic ease 3u^2 - 2u^3, clamped to [0, 1]."""
    u = min(max(u, 0.0), 1.0)
    return u * u * (3.0 - 2.0 * u)

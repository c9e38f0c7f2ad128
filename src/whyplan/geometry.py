"""2-D polyline geometry helpers.

Conventions used across the package: coordinates in metres, headings in
radians measured counter-clockwise from +x and normalized to (-pi, pi],
lateral offsets signed left-positive relative to travel direction.
"""

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
        self._seg = seg
        self._seg_len = np.linalg.norm(seg, axis=1)
        self.cum_s = np.concatenate([[0.0], np.cumsum(self._seg_len)])
        self.length = float(self.cum_s[-1])
        # Scalar fast path for the ubiquitous straight, two-point midline.
        self._simple = len(seg) == 1
        if self._simple:
            self._ax, self._ay = float(self.pts[0][0]), float(self.pts[0][1])
            self._dx, self._dy = float(seg[0][0]), float(seg[0][1])
            self._l2 = self._dx * self._dx + self._dy * self._dy

    def _segment_index(self, s: float) -> int:
        idx = int(np.searchsorted(self.cum_s, s, side="right") - 1)
        return min(max(idx, 0), len(self._seg) - 1)

    def point_at(self, s: float) -> np.ndarray:
        """Point at arc length s, clamped to [0, length]."""
        s = min(max(s, 0.0), self.length)
        i = self._segment_index(s)
        t = (s - self.cum_s[i]) / self._seg_len[i]
        return self.pts[i] + t * self._seg[i]

    def heading_at(self, s: float) -> float:
        i = self._segment_index(min(max(s, 0.0), self.length))
        dx, dy = self._seg[i]
        return math.atan2(dy, dx)

    def normal_at(self, s: float) -> np.ndarray:
        """Unit left normal of the segment containing s."""
        i = self._segment_index(min(max(s, 0.0), self.length))
        dx, dy = self._seg[i] / self._seg_len[i]
        return np.array([-dy, dx])

    def project(self, point) -> tuple[float, float, float]:
        """Project a point onto the polyline.

        Returns (s, lateral, distance): arc length of the foot point, signed
        lateral offset (left of travel positive) and the euclidean distance
        to the foot point. For points beyond the ends, s clamps to the end
        and distance grows while |lateral| tracks distance.
        """
        if self._simple:
            px, py = float(point[0]), float(point[1])
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
        p = np.asarray(point, dtype=float)
        a = self.pts[:-1]
        d = self._seg
        ll = self._seg_len ** 2
        t = np.clip(np.einsum("ij,ij->i", p - a, d) / ll, 0.0, 1.0)
        foot = a + t[:, None] * d
        dist = np.linalg.norm(p - foot, axis=1)
        i = int(np.argmin(dist))
        s = float(self.cum_s[i] + t[i] * self._seg_len[i])
        dhat = d[i] / self._seg_len[i]
        off = p - foot[i]
        lateral = float(dhat[0] * off[1] - dhat[1] * off[0])
        # Preserve the sign convention even when the point is off the ends.
        if abs(lateral) < dist[i] - 1e-12:
            lateral = math.copysign(dist[i], lateral if lateral != 0.0 else 1.0)
        return s, lateral, float(dist[i])


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

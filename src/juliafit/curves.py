"""Jordan curves as closed polylines: ingestion, region tests, offset annuli,
and Hausdorff distance between sampled point sets.

Curves are stored as complex arrays (x + iy), oriented counterclockwise, with
the closing edge implicit. All operations are pure; curve objects are
immutable after construction.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    EmptySet,
    NotSimple,
    OffsetCollapse,
    ParseError,
    TooFewPoints,
)

MIN_POINTS = 8
#: relative tolerance (times curve diameter) for "on the curve" classification
ON_TOL_REL = 1e-9

_CHUNK = 4096


class RegionLabel(enum.Enum):
    BOUNDED_INSIDE = "bounded_inside"
    ON_ANNULUS = "on_annulus"
    UNBOUNDED_OUTSIDE = "unbounded_outside"


# ---------------------------------------------------------------------------
# low-level polyline kernels


def _as_points(z) -> np.ndarray:
    a = np.asarray(z, dtype=np.complex128)
    return a.reshape(-1)


def signed_area(points: np.ndarray) -> float:
    """Signed area of the closed polygon (positive = counterclockwise)."""
    x, y = points.real, points.imag
    x2, y2 = np.roll(x, -1), np.roll(y, -1)
    return float(0.5 * np.sum(x * y2 - x2 * y))


def winding_numbers(z, points: np.ndarray) -> np.ndarray:
    """Integer winding number of the closed polyline around each query point.

    Crossing-count form; points exactly on an edge get an arbitrary side.
    """
    z = _as_points(z)
    a = points
    b = np.roll(points, -1)
    ax, ay = a.real, a.imag
    bx, by = b.real, b.imag
    out = np.empty(z.shape, dtype=np.int64)
    for lo in range(0, z.size, _CHUNK):
        zz = z[lo:lo + _CHUNK]
        px = zz.real[:, None]
        py = zz.imag[:, None]
        up = (ay[None, :] <= py) & (by[None, :] > py)
        dn = (ay[None, :] > py) & (by[None, :] <= py)
        cross = (bx - ax)[None, :] * (py - ay[None, :]) - (px - ax[None, :]) * (by - ay)[None, :]
        out[lo:lo + _CHUNK] = (up & (cross > 0)).sum(axis=1) - (dn & (cross < 0)).sum(axis=1)
    return out


def distance_to_polyline(z, points: np.ndarray) -> np.ndarray:
    """Euclidean distance from each query point to the closed polyline."""
    z = _as_points(z)
    a = points
    e = np.roll(points, -1) - points
    ee = np.maximum((e * e.conjugate()).real, 1e-300)
    out = np.empty(z.shape, dtype=np.float64)
    for lo in range(0, z.size, _CHUNK):
        zz = z[lo:lo + _CHUNK][:, None]
        t = ((zz - a[None, :]) * e.conjugate()[None, :]).real / ee[None, :]
        np.clip(t, 0.0, 1.0, out=t)
        proj = a[None, :] + t * e[None, :]
        out[lo:lo + _CHUNK] = np.abs(zz - proj).min(axis=1)
    return out


def _segment_pairs_intersect(points: np.ndarray, other: np.ndarray | None = None):
    """First properly-intersecting segment pair, or None.

    With one argument, tests the closed polyline against itself (adjacent
    segments and shared endpoints excluded). With two, tests all cross pairs.
    """
    a1 = points
    b1 = np.roll(points, -1)
    if other is None:
        a2, b2 = a1, b1
    else:
        a2, b2 = other, np.roll(other, -1)
    n1, n2 = len(a1), len(a2)

    def orient(p, q, r):
        return ((q.real - p.real) * (r.imag - p.imag)
                - (q.imag - p.imag) * (r.real - p.real))

    for lo in range(0, n1, 512):
        hi = min(lo + 512, n1)
        A1 = a1[lo:hi, None]
        B1 = b1[lo:hi, None]
        d1 = orient(A1, B1, a2[None, :])
        d2 = orient(A1, B1, b2[None, :])
        d3 = orient(a2[None, :], b2[None, :], A1)
        d4 = orient(a2[None, :], b2[None, :], B1)
        hit = (d1 * d2 < 0) & (d3 * d4 < 0)
        if other is None:
            i_idx = np.arange(lo, hi)[:, None]
            j_idx = np.arange(n2)[None, :]
            adj = (i_idx == j_idx) | ((i_idx + 1) % n1 == j_idx) | ((j_idx + 1) % n1 == i_idx)
            hit &= ~adj
        if hit.any():
            i, j = np.argwhere(hit)[0]
            return int(i + lo), int(j)
    return None


def arclengths(points: np.ndarray) -> np.ndarray:
    """Cumulative arclength over the closed polyline, length N+1."""
    seg = np.abs(np.roll(points, -1) - points)
    return np.concatenate(([0.0], np.cumsum(seg)))


def resample_closed(points: np.ndarray, n: int) -> np.ndarray:
    """Resample the closed polyline at n points, uniform in arclength,
    anchored at vertex 0."""
    s = arclengths(points)
    total = s[-1]
    targets = np.linspace(0.0, total, n, endpoint=False)
    ext = np.concatenate((points, points[:1]))
    x = np.interp(targets, s, ext.real)
    y = np.interp(targets, s, ext.imag)
    return x + 1j * y


# ---------------------------------------------------------------------------
# curve type


@dataclass(frozen=True)
class JordanCurve:
    """Closed simple polyline, counterclockwise, at least MIN_POINTS vertices."""

    points: np.ndarray
    diameter: float = field(init=False)

    def __post_init__(self):
        pts = self.points
        pts.setflags(write=False)
        span = complex(np.ptp(pts.real), np.ptp(pts.imag))
        object.__setattr__(self, "diameter", float(abs(span)))

    @classmethod
    def from_points(cls, z, check_simple: bool = True) -> "JordanCurve":
        pts = _as_points(z).copy()
        if len(pts) < MIN_POINTS:
            raise TooFewPoints(f"need at least {MIN_POINTS} points, got {len(pts)}")
        if np.any(np.abs(np.roll(pts, -1) - pts) == 0.0):
            raise ParseError("consecutive points must be distinct")
        if len(np.unique(pts)) != len(pts):
            order = np.lexsort((pts.imag, pts.real))
            dup = order[np.flatnonzero(np.diff(pts[order]) == 0)[0]]
            raise NotSimple(int(dup), int(dup),
                            msg=f"vertex {int(dup)} repeats elsewhere on the curve")
        area = signed_area(pts)
        if area == 0.0:
            raise ParseError("curve has zero signed area")
        if area < 0.0:
            pts = pts[::-1].copy()
        if check_simple:
            bad = _segment_pairs_intersect(pts)
            if bad is not None:
                raise NotSimple(*bad)
        return cls(points=pts)

    @property
    def area(self) -> float:
        return signed_area(self.points)

    @property
    def centroid(self) -> complex:
        """Area centroid of the enclosed region."""
        p = self.points
        q = np.roll(p, -1)
        cross = p.real * q.imag - q.real * p.imag
        a = 0.5 * np.sum(cross)
        c = np.sum((p + q) * cross) / (6.0 * a)
        return complex(c)

    @property
    def bbox(self) -> tuple[complex, complex]:
        p = self.points
        return (complex(p.real.min(), p.imag.min()),
                complex(p.real.max(), p.imag.max()))

    def translated(self, dz: complex) -> "JordanCurve":
        return JordanCurve(points=self.points + dz)

    def scaled(self, s: float) -> "JordanCurve":
        return JordanCurve(points=self.points * s)

    def boundary_samples(self, n: int) -> np.ndarray:
        return resample_closed(self.points, n)

    def contains(self, z) -> np.ndarray:
        return winding_numbers(z, self.points) != 0

    def distance(self, z) -> np.ndarray:
        return distance_to_polyline(z, self.points)


def load_curve(source) -> JordanCurve:
    """Parse a curve file: either one "x y" pair per line, or a JSON object
    with a "points" field of [x, y] pairs. Validates and normalizes to
    counterclockwise."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    stripped = text.lstrip()
    try:
        if stripped.startswith("{"):
            obj = json.loads(text)
            pairs = obj["points"]
            pts = np.array([complex(float(x), float(y)) for x, y in pairs])
        else:
            rows = []
            for line in text.splitlines():
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.replace(",", " ").split()
                if len(parts) != 2:
                    raise ParseError(f"expected 'x y' pair, got {line!r}")
                rows.append(complex(float(parts[0]), float(parts[1])))
            pts = np.array(rows, dtype=np.complex128)
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot parse curve file: {exc}") from exc
    if len(pts) < MIN_POINTS:
        raise TooFewPoints(f"need at least {MIN_POINTS} points, got {len(pts)}")
    return JordanCurve.from_points(pts)


def winding_region(z: complex, curve: JordanCurve, tol_on: float | None = None) -> RegionLabel:
    """Classify a point against a single curve: inside (winding 1), outside
    (winding 0), or on the curve within tol_on (default 1e-9 x diameter)."""
    if tol_on is None:
        tol_on = ON_TOL_REL * curve.diameter
    if float(distance_to_polyline([z], curve.points)[0]) <= tol_on:
        return RegionLabel.ON_ANNULUS
    w = int(winding_numbers([z], curve.points)[0])
    return RegionLabel.BOUNDED_INSIDE if w != 0 else RegionLabel.UNBOUNDED_OUTSIDE


# ---------------------------------------------------------------------------
# annuli by polygon offsetting


def _offset_polyline(points: np.ndarray, d: float, miter_limit: float = 4.0) -> np.ndarray:
    """Displace each vertex along its outward normal by d (signed; negative
    moves inward for a counterclockwise polygon)."""
    e = np.roll(points, -1) - points
    n_edge = -1j * e / np.abs(e)
    n_prev = np.roll(n_edge, 1)
    m = n_prev + n_edge
    bad = np.abs(m) < 1e-12
    m[bad] = n_edge[bad]
    m /= np.abs(m)
    dot = (m * n_edge.conjugate()).real
    scale = 1.0 / np.maximum(dot, 1.0 / miter_limit)
    return points + d * scale * m


def _prune_self_intersections(points: np.ndarray, max_passes: int = 12) -> np.ndarray:
    """Remove crossing loops by splicing at the intersection point, dropping
    the shorter vertex run each time."""
    pts = points
    for _ in range(max_passes):
        bad = _segment_pairs_intersect(pts)
        if bad is None:
            return pts
        i, j = sorted(bad)
        a1, b1 = pts[i], pts[(i + 1) % len(pts)]
        a2, b2 = pts[j], pts[(j + 1) % len(pts)]
        # intersection of the two segments
        d1, d2 = b1 - a1, b2 - a2
        denom = (d1.real * d2.imag - d1.imag * d2.real)
        t = ((a2 - a1).real * d2.imag - (a2 - a1).imag * d2.real) / denom
        x = a1 + t * d1
        inner = j - i
        outer = len(pts) - inner
        if inner <= outer:
            keep = np.concatenate((pts[: i + 1], [x], pts[j + 1:]))
        else:
            keep = np.concatenate(([x], pts[i + 1: j + 1]))
        if len(keep) < MIN_POINTS:
            return keep
        pts = keep
    return pts


@dataclass(frozen=True)
class AnnulusSpec:
    """Closed annular band between two nested Jordan curves."""

    outer: JordanCurve
    inner: JordanCurve
    width_hint: float

    def __post_init__(self):
        if self.width_hint <= 0:
            raise OffsetCollapse("annulus width must be positive")
        inner_w = winding_numbers(self.inner.points, self.outer.points)
        if not np.all(inner_w == 1):
            raise OffsetCollapse("inner curve must wind once inside the outer curve")
        if _segment_pairs_intersect(self.outer.points, self.inner.points) is not None:
            raise OffsetCollapse("inner and outer curves intersect")
        if winding_numbers([self.outer.points[0]], self.inner.points)[0] != 0:
            raise OffsetCollapse("outer curve lies inside the inner curve")

    def classify(self, z) -> np.ndarray:
        """Vectorized region labels: inside the inner curve, in the band, or
        outside the outer curve. Points on either curve count as the band."""
        z = _as_points(z)
        in_outer = winding_numbers(z, self.outer.points) != 0
        in_inner = winding_numbers(z, self.inner.points) != 0
        out = np.full(z.shape, RegionLabel.ON_ANNULUS, dtype=object)
        out[in_inner] = RegionLabel.BOUNDED_INSIDE
        out[~in_outer] = RegionLabel.UNBOUNDED_OUTSIDE
        return out

    def strictly_in_band(self, z) -> np.ndarray:
        """True where points are strictly between the two curves (off both)."""
        z = _as_points(z)
        tol = ON_TOL_REL * self.outer.diameter
        ok = winding_numbers(z, self.outer.points) != 0
        ok &= winding_numbers(z, self.inner.points) == 0
        ok &= distance_to_polyline(z, self.outer.points) > tol
        ok &= distance_to_polyline(z, self.inner.points) > tol
        return ok

    def translated(self, dz: complex) -> "AnnulusSpec":
        return AnnulusSpec(self.outer.translated(dz), self.inner.translated(dz),
                           self.width_hint)


def offset_annulus(curve: JordanCurve, eps_geom: float) -> AnnulusSpec:
    """Annular neighborhood of the curve: outward and inward offsets at
    distance eps_geom. Every curve point ends up within eps_geom (plus miter
    slack) of both offset curves, so the band sits inside the 2*eps_geom
    neighborhood of the curve."""
    if eps_geom <= 0:
        raise OffsetCollapse("offset distance must be positive")
    curves = []
    for sgn in (+1.0, -1.0):
        raw = _offset_polyline(curve.points, sgn * eps_geom)
        raw = _prune_self_intersections(raw)
        if len(raw) < MIN_POINTS or signed_area(raw) <= 0:
            raise OffsetCollapse(
                f"{'outward' if sgn > 0 else 'inward'} offset at {eps_geom} collapsed")
        try:
            curves.append(JordanCurve.from_points(raw))
        except (NotSimple, ParseError, TooFewPoints) as exc:
            raise OffsetCollapse(f"offset at {eps_geom} not repairable: {exc}") from exc
    outer, inner = curves
    try:
        ann = AnnulusSpec(outer=outer, inner=inner, width_hint=2.0 * eps_geom)
    except OffsetCollapse as exc:
        raise OffsetCollapse(f"offset at {eps_geom} produced invalid annulus: {exc}") from exc
    # a-posteriori check that eps_geom was small enough for the geometry
    tol = 1e-6 * curve.diameter + 0.5 * eps_geom
    for side in (outer, inner):
        d = distance_to_polyline(curve.points, side.points)
        if d.max() > eps_geom + tol:
            raise OffsetCollapse(
                f"offset at {eps_geom} lost boundary fidelity (max {d.max():.3g})")
    return ann


# ---------------------------------------------------------------------------
# Hausdorff distance


def _directed(x: np.ndarray, y: np.ndarray) -> float:
    if len(x) * len(y) <= 250_000:
        d = np.abs(x[:, None] - y[None, :])
        return float(d.min(axis=1).max())
    tree = cKDTree(np.column_stack((y.real, y.imag)))
    dmin, _ = tree.query(np.column_stack((x.real, x.imag)), k=1)
    return float(dmin.max())


def hausdorff_distance(x, y) -> float:
    """Hausdorff distance between two finite sampled point sets: the larger of
    the two directed sup-min distances. Exact for the given samples."""
    x = _as_points(x)
    y = _as_points(y)
    if len(x) == 0 or len(y) == 0:
        raise EmptySet("hausdorff_distance needs non-empty sets")
    return max(_directed(x, y), _directed(y, x))


def sample_interior(curve: JordanCurve, count: int, rng: np.random.Generator,
                    exclude: JordanCurve | None = None, max_batches: int = 64) -> np.ndarray:
    """Seeded rejection sampling of the region inside `curve` (and outside
    `exclude` if given)."""
    lo, hi = curve.bbox
    got: list[np.ndarray] = []
    have = 0
    for _ in range(max_batches):
        m = max(4 * count, 256)
        z = (rng.uniform(lo.real, hi.real, m)
             + 1j * rng.uniform(lo.imag, hi.imag, m))
        keep = winding_numbers(z, curve.points) != 0
        if exclude is not None:
            keep &= winding_numbers(z, exclude.points) == 0
        z = z[keep]
        if z.size:
            got.append(z)
            have += z.size
        if have >= count:
            return np.concatenate(got)[:count]
    from .errors import SamplingFailure
    raise SamplingFailure(
        f"could not draw {count} interior samples (region too thin or empty)")

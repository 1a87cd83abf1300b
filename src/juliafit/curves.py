"""Jordan curves as closed polylines: ingestion, region tests, offset annuli,
and Hausdorff distance between sampled point sets.

Curves are stored as complex arrays (x + iy), oriented counterclockwise, with
the closing edge implicit. All operations are pure; curve objects are
immutable after construction.

``relation`` is the one test of how two curves lie, and ``enclosed`` the one
rule for the region several curves bound: the points inside an odd number of
them (the target region that verify checks). Points are classified only by
``JordanCurve.contains``, ``enclosed``, ``AnnulusSpec.strictly_in_band`` and
``distance_to_polyline``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    EmptySet,
    NotSimple,
    OffsetCollapse,
    ParseError,
    SamplingFailure,
    TooFewPoints,
)

MIN_POINTS = 8
#: relative tolerance (times curve diameter) for "on the curve" classification
ON_TOL_REL = 1e-9

#: bound on the (query, edge) pairs a kernel holds in memory at once
_PAIR_CHUNK = 1 << 18
#: rejection-sampling rounds before sample_interior gives up
MAX_SAMPLE_BATCHES = 64
#: an offset vertex moves at most MITER_LIMIT times the offset distance
MITER_LIMIT = 4.0
#: most crossing loops spliced out of one offset polyline
MAX_PRUNE_PASSES = 12


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


def _range_pairs(first: np.ndarray, last: np.ndarray):
    """Every (row, k) with first[row] <= k < last[row], rows ascending, in
    chunks of at most _PAIR_CHUNK pairs."""
    count = last - first
    end = np.cumsum(count)
    total = int(end[-1]) if end.size else 0
    for lo in range(0, total, _PAIR_CHUNK):
        k = np.arange(lo, min(lo + _PAIR_CHUNK, total))
        row = np.searchsorted(end, k, side="right")
        yield row, first[row] + (k - (end[row] - count[row]))


def winding_numbers(z, points: np.ndarray) -> np.ndarray:
    """Integer winding number of the closed polyline around each query point.

    Crossing-count form: each edge that the rightward horizontal ray from the
    query crosses adds +1 if it runs upward and -1 if downward. The ray meets
    an edge when min(ay, by) <= y < max(ay, by) and the edge passes strictly
    right of the query, by the sign of the computed cross product. A point on
    the curve is thus classified as if moved slightly right, and at a vertex's
    height slightly up: left and bottom boundaries count as inside, right and
    top ones as outside. Non-finite queries get 0.

    Only the (query, edge) pairs that pass the y test are evaluated: with the
    queries sorted by y, each edge's queries form one contiguous run.
    """
    z = _as_points(z)
    order = np.argsort(z.imag)
    px, py = z.real[order], z.imag[order]
    a = points
    b = np.roll(points, -1)
    ax, ay = a.real, a.imag
    dx, dy = b.real - ax, b.imag - ay
    up = dy > 0
    first = np.searchsorted(py, np.minimum(ay, b.imag), side="left")
    last = np.searchsorted(py, np.maximum(ay, b.imag), side="left")
    count = np.zeros(z.size, dtype=np.int64)
    for e, k in _range_pairs(first, last):
        cross = dx[e] * (py[k] - ay[e]) - (px[k] - ax[e]) * dy[e]
        count += np.bincount(k[up[e] & (cross > 0)], minlength=z.size)
        count -= np.bincount(k[~up[e] & (cross < 0)], minlength=z.size)
    out = np.empty(z.shape, dtype=np.int64)
    out[order] = count
    return out


def distance_to_polyline(z, points: np.ndarray) -> np.ndarray:
    """Euclidean distance from each query point to the closed polyline.

    The nearest vertex bounds each query's distance by u, so only edges whose
    midpoint lies within u plus the longest half-edge can hold the minimum;
    the exact projection runs on those. Non-finite queries take every edge.
    """
    z = _as_points(z)
    a = points
    e = np.roll(points, -1) - points
    ee = np.maximum((e * e.conjugate()).real, 1e-300)
    out = np.full(z.shape, np.inf)
    half = 0.5 * float(np.abs(e).max())
    scale = float(np.abs(a).max())
    vertices = cKDTree(np.column_stack((a.real, a.imag)))
    mid = a + 0.5 * e
    mids = cKDTree(np.column_stack((mid.real, mid.imag)))
    step = max(1, _PAIR_CHUNK // len(a))
    for lo in range(0, z.size, step):
        zz = z[lo:lo + step]
        xy = np.column_stack((zz.real, zz.imag))
        u = np.full(len(zz), np.inf)
        fin = np.isfinite(zz)
        u[fin], _ = vertices.query(xy[fin])
        # the trees cannot place non-finite queries, nor ones whose squared
        # distances overflow (u = inf): those take every edge
        tree = np.flatnonzero(np.isfinite(u))
        wide = np.flatnonzero(np.isinf(u))
        # the slack covers rounding in the tree distances and in the
        # projection, which scales with the coordinates, not with u
        r = (u[tree] + half) * (1.0 + 1e-9) + 1e-9 * (scale + np.abs(zz[tree]))
        near = mids.query_ball_point(xy[tree], r, return_sorted=False)
        sizes = np.fromiter(map(len, near), dtype=np.intp, count=len(near))
        rows = np.concatenate((np.repeat(tree, sizes), np.repeat(wide, len(a))))
        cols = np.concatenate((
            np.fromiter(itertools.chain.from_iterable(near), dtype=np.intp,
                        count=int(sizes.sum())),
            np.tile(np.arange(len(a)), len(wide))))
        zq, aq, eq = zz[rows], a[cols], e[cols]
        t = ((zq - aq) * eq.conjugate()).real / ee[cols]
        np.clip(t, 0.0, 1.0, out=t)
        proj = aq + t * eq
        np.minimum.at(out[lo:lo + step], rows, np.abs(zq - proj))
    return out


def _segment_pairs_intersect(points: np.ndarray, other: np.ndarray | None = None,
                             touch: bool = False):
    """First properly-intersecting segment pair (i, j), lowest i then lowest
    j, or None. With touch, a pair also counts when an endpoint of one
    segment lies on the other (a vertex on a non-adjacent edge).

    With one argument, tests the closed polyline against itself (adjacent
    segments and shared endpoints excluded); the pair then has i < j. With
    two, tests all cross pairs. Segments can only meet where their y-ranges
    overlap, so only those pairs are tested: each segment is paired with the
    segments whose lower end lies within its y-range.
    """
    a1 = points
    b1 = np.roll(points, -1)
    if other is None:
        a2, b2 = a1, b1
    else:
        a2, b2 = other, np.roll(other, -1)
    n1 = len(a1)

    def orient(p, q, r):
        return ((q.real - p.real) * (r.imag - p.imag)
                - (q.imag - p.imag) * (r.real - p.real))

    def on(d, p, q, r):
        # r collinear with segment pq (d = orient(p, q, r)) and inside its box
        return ((d == 0)
                & (np.minimum(p.real, q.real) <= r.real) & (r.real <= np.maximum(p.real, q.real))
                & (np.minimum(p.imag, q.imag) <= r.imag) & (r.imag <= np.maximum(p.imag, q.imag)))

    def starts_within(lo, hi, starts):
        order = np.argsort(starts)
        s = starts[order]
        for row, k in _range_pairs(np.searchsorted(s, lo, side="left"),
                                   np.searchsorted(s, hi, side="right")):
            yield row, order[k]

    lo1, hi1 = np.minimum(a1.imag, b1.imag), np.maximum(a1.imag, b1.imag)
    lo2, hi2 = np.minimum(a2.imag, b2.imag), np.maximum(a2.imag, b2.imag)
    pairs = starts_within(lo1, hi1, lo2)
    if other is not None:
        pairs = itertools.chain(
            pairs, ((i, j) for j, i in starts_within(lo2, hi2, lo1)))
    best = None
    for i, j in pairs:
        if other is None:
            # the test is symmetric in its two segments
            i, j = np.minimum(i, j), np.maximum(i, j)
        p1, q1, p2, q2 = a1[i], b1[i], a2[j], b2[j]
        d1 = orient(p1, q1, p2)
        d2 = orient(p1, q1, q2)
        d3 = orient(p2, q2, p1)
        d4 = orient(p2, q2, q1)
        hit = (d1 * d2 < 0) & (d3 * d4 < 0)
        if touch:
            hit |= (on(d1, p1, q1, p2) | on(d2, p1, q1, q2)
                    | on(d3, p2, q2, p1) | on(d4, p2, q2, q1))
        if other is None:
            hit &= (i != j) & ((i + 1) % n1 != j) & ((j + 1) % n1 != i)
        if hit.any():
            i, j = i[hit], j[hit]
            first = np.lexsort((j, i))[0]
            pair = (int(i[first]), int(j[first]))
            best = pair if best is None else min(best, pair)
    return best


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
    def from_points(cls, z) -> "JordanCurve":
        pts = _as_points(z).copy()
        if len(pts) < MIN_POINTS:
            raise TooFewPoints(f"need at least {MIN_POINTS} points, got {len(pts)}")
        if not np.all(np.isfinite(pts)):
            raise ParseError("curve points must be finite")
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
        bad = _segment_pairs_intersect(pts, touch=True)
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

    def boundary_samples(self, n: int) -> np.ndarray:
        return resample_closed(self.points, n)

    def contains(self, z) -> np.ndarray:
        return winding_numbers(z, self.points) != 0


def load_curve(path) -> JordanCurve:
    """Parse the curve file at path: either one "x y" pair per line, or a
    JSON object with a "points" field of [x, y] pairs. Validates and
    normalizes to counterclockwise."""
    with open(path, "r", encoding="utf-8") as fh:
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
    return JordanCurve.from_points(pts)


def curve_gap(a: JordanCurve, b: JordanCurve) -> float:
    """Minimal distance between two polylines (vertex-to-segment, both ways)."""
    return float(min(distance_to_polyline(a.points, b.points).min(),
                     distance_to_polyline(b.points, a.points).min()))


def relation(a: JordanCurve, b: JordanCurve) -> str:
    """How two curves lie: "meet" if they cross or share a point (a vertex on
    an edge, the rule ``from_points`` applies to one curve), else "contains"
    if b lies inside a, "inside" if a lies inside b, or "apart". A curve that
    does not meet the other lies wholly on one side of it: one vertex decides."""
    if _segment_pairs_intersect(a.points, b.points, touch=True) is not None:
        return "meet"
    if a.contains(b.points[:1])[0]:
        return "contains"
    if b.contains(a.points[:1])[0]:
        return "inside"
    return "apart"


def enclosed(z, curves) -> np.ndarray:
    """True at the points inside an odd number of the curves: the union of
    the insides for curves that lie apart, the band between a nested pair."""
    odd = np.zeros(np.size(z), dtype=bool)
    for c in curves:
        odd ^= c.contains(z)
    return odd


# ---------------------------------------------------------------------------
# annuli by polygon offsetting


def _offset_polyline(points: np.ndarray, d: float) -> np.ndarray:
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
    scale = 1.0 / np.maximum(dot, 1.0 / MITER_LIMIT)
    return points + d * scale * m


def _prune_self_intersections(points: np.ndarray) -> np.ndarray:
    """Remove crossing loops by splicing at the intersection point, dropping
    the shorter vertex run each time."""
    pts = points
    for _ in range(MAX_PRUNE_PASSES):
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

    def __post_init__(self):
        if relation(self.outer, self.inner) != "contains":
            raise OffsetCollapse("inner curve must lie inside the outer one, off it")

    def strictly_in_band(self, z) -> np.ndarray:
        """True where points are strictly between the two curves (off both)."""
        z = _as_points(z)
        tol = ON_TOL_REL * self.outer.diameter
        ok = enclosed(z, (self.outer, self.inner))
        ok &= distance_to_polyline(z, self.outer.points) > tol
        ok &= distance_to_polyline(z, self.inner.points) > tol
        return ok

    def translated(self, dz: complex) -> "AnnulusSpec":
        """The band moved by dz. A translation keeps how the two curves lie,
        so the copy skips the check of ``__post_init__``."""
        band = object.__new__(AnnulusSpec)
        object.__setattr__(band, "outer", self.outer.translated(dz))
        object.__setattr__(band, "inner", self.inner.translated(dz))
        return band


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
        ann = AnnulusSpec(outer=outer, inner=inner)
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
                    exclude: JordanCurve | None = None) -> np.ndarray:
    """Seeded rejection sampling of the region inside `curve` (and outside
    `exclude`, a curve inside it, if given): the fresh points of the
    certificate soundness tests. perfbench traces it by name."""
    lo, hi = curve.bbox
    got: list[np.ndarray] = []
    have = 0
    for _ in range(MAX_SAMPLE_BATCHES):
        m = max(4 * count, 256)
        z = (rng.uniform(lo.real, hi.real, m)
             + 1j * rng.uniform(lo.imag, hi.imag, m))
        z = z[enclosed(z, [curve] if exclude is None else [curve, exclude])]
        if z.size:
            got.append(z)
            have += z.size
        if have >= count:
            return np.concatenate(got)[:count]
    raise SamplingFailure(
        f"could not draw {count} interior samples (region too thin or empty)")

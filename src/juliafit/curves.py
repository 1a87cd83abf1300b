"""Jordan curves as closed polylines: ingestion, region tests, offset annuli,
and Hausdorff distance between sampled point sets.

Curves are stored as complex arrays (x + iy), oriented counterclockwise, with
the closing edge implicit. All operations are pure; curve objects are
immutable after construction.

``relation`` is the one test of how two curves lie, and ``enclosed`` the one
rule for the region several curves bound: the points inside an odd number of
them (the target region that verify checks, and the band that the inflation
search keeps its circle's image in). Points are classified only by
``JordanCurve.contains``, ``enclosed``, ``grid_winding_numbers`` (the
winding numbers of a whole pixel grid, for verify, by the one crossing rule
of ``winding_numbers``: both call ``_edge_runs``) and ``distance_to_polyline``.

Every nearest-point query goes through the engine of ``nearest``:
``distance_to_polyline`` bounds its search by an edge midpoint near each
query, and ``hausdorff_distance`` takes the largest least distance of each
set to the other, as ``render`` does for pixel masks.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptySet,
    NotSimple,
    OffsetCollapse,
    ParseError,
    SamplingFailure,
    TooFewPoints,
)
from .nearest import _Cells, _range_pairs

MIN_POINTS = 8

#: (query, edge) pairs up to which distance_to_polyline takes every edge
_BRUTE_PAIRS = 1 << 12
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


def _edge_runs(y: np.ndarray, points: np.ndarray):
    """The crossing rule's set-up: the order sorting the heights y, the sorted
    heights py, and per edge its start (ax, ay), its extent (dx, dy) and the
    run first:last of py that min(ay, by) <= y < max(ay, by) admits."""
    order = np.argsort(y)
    py = y[order]
    ax, ay = points.real, points.imag
    by = np.roll(ay, -1)
    first = np.searchsorted(py, np.minimum(ay, by), side="left")
    last = np.searchsorted(py, np.maximum(ay, by), side="left")
    return order, py, ax, ay, np.roll(ax, -1) - ax, by - ay, first, last


def winding_numbers(z, points: np.ndarray) -> np.ndarray:
    """Integer winding number of the closed polyline around each query point.

    Crossing-count form: each edge that the rightward horizontal ray from the
    query crosses adds +1 if it runs upward and -1 if downward. The ray meets
    an edge when min(ay, by) <= y < max(ay, by) and the edge passes strictly
    right of the query, by the sign of the computed cross product. A point on
    the curve is thus classified as if moved slightly right, and at a vertex's
    height slightly up: left and bottom boundaries count as inside, right and
    top ones as outside. Non-finite queries get 0.

    Only the (query, edge) pairs that pass the y test are evaluated, a run per edge.
    """
    z = _as_points(z)
    order, py, ax, ay, dx, dy, first, last = _edge_runs(z.imag, points)
    px = z.real[order]
    up = dy > 0
    count = np.zeros(z.size, dtype=np.int64)
    for e, k in _range_pairs(first, last):
        cross = dx[e] * (py[k] - ay[e]) - (px[k] - ax[e]) * dy[e]
        count += np.bincount(k[up[e] & (cross > 0)], minlength=z.size)
        count -= np.bincount(k[~up[e] & (cross < 0)], minlength=z.size)
    out = np.empty(z.shape, dtype=np.int64)
    out[order] = count
    return out


def grid_winding_numbers(xs: np.ndarray, ys: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``winding_numbers`` of the grid points xs[j] + 1j*ys[i], as a
    (len(ys), len(xs)) array; xs ascending, all coordinates finite.

    Row scan: each edge meets the rows that ``winding_numbers``' y test
    admits, by the same ``_edge_runs``, and in each it crosses at one x.
    The edge counts for a point when it crosses strictly right of it, so a
    point farther than a slack from every crossing of its row takes the
    signed count of the crossings to its right (a difference array and a
    cumsum). The slack, 2**-40 of the largest |x| of the grid and the curve,
    covers the rounding of the crossing x and of ``winding_numbers``' cross
    product, which stays within some 20 units in the last place of that |x|
    for coordinates in the normal range. The few points within the slack of
    a crossing go to ``winding_numbers`` itself, so the result is exact.
    """
    nx = xs.size
    order, py, ax, ay, dx, dy, first, last = _edge_runs(ys, points)
    slack = 2.0 ** -40 * max(float(np.abs(xs).max()), float(np.abs(ax).max()))
    # per row, the crossings' signs at the first column right of them
    right = np.zeros((ys.size, nx + 1), dtype=np.int64)
    near = []
    for e, k in _range_pairs(first, last):
        xc = ax[e] + dx[e] * (py[k] - ay[e]) / dy[e]
        np.add.at(right, (k, np.searchsorted(xs, xc, side="left")),
                  np.where(dy[e] > 0, 1, -1))
        lo = np.searchsorted(xs, xc - slack, side="left")
        hi = np.searchsorted(xs, xc + slack, side="right")
        near.extend(k[p] * nx + c for p, c in _range_pairs(lo, hi))
    count = right.sum(axis=1, keepdims=True) - np.cumsum(right[:, :nx], axis=1)
    if near:
        r, c = np.divmod(np.unique(np.concatenate(near)), nx)
        count[r, c] = winding_numbers(xs[c] + 1j * py[r], points)
    out = np.empty_like(count)
    out[order] = count
    return out


def distance_to_polyline(z, points: np.ndarray) -> np.ndarray:
    """Euclidean distance from each query point to the closed polyline.

    An edge midpoint near each query (``_Cells.reach``), a point of the
    polyline, bounds the query's distance by u, so only edges whose
    midpoint lies within u plus the longest half-edge can hold the minimum;
    the exact projection runs on those. Non-finite queries, queries whose
    squared distances overflow (u = inf) and small query sets take every
    edge.
    """
    z = _as_points(z)
    a = points
    e = np.roll(points, -1) - points
    ee = np.maximum((e * e.conjugate()).real, 1e-300)
    out = np.full(z.shape, np.inf)
    if z.size * len(a) <= _BRUTE_PAIRS:
        wide = np.arange(z.size)
        pairs = iter(())
    else:
        mid = a + 0.5 * e
        mids = _Cells(mid.real, mid.imag)
        fin = np.flatnonzero(np.isfinite(z))
        u = np.sqrt(mids.reach(z.real[fin], z.imag[fin]))
        ok = np.isfinite(u)
        wide = np.concatenate((np.flatnonzero(~np.isfinite(z)), fin[~ok]))
        near, zr = fin[ok], z[fin[ok]]
        # the slack covers rounding in the midpoint distances and in the
        # projection, which scales with the coordinates, not with u
        half = 0.5 * float(np.abs(e).max())
        scale = float(np.abs(a).max())
        r = (u[ok] + half) * (1.0 + 1e-9) + 1e-9 * (scale + np.abs(zr))
        pairs = ((near[q], c) for q, c in mids.within(zr.real, zr.imag, r))
    every = _range_pairs(np.zeros(wide.size, np.intp), np.full(wide.size, len(a)))
    pairs = itertools.chain(pairs, ((wide[q], c) for q, c in every))
    # non-finite queries and overflowing ones give nan and inf, as the
    # arithmetic of every edge does
    with np.errstate(invalid="ignore", over="ignore"):
        for rows, cols in pairs:
            zq, aq, eq = z[rows], a[cols], e[cols]
            t = ((zq - aq) * eq.conjugate()).real / ee[cols]
            np.clip(t, 0.0, 1.0, out=t)
            proj = aq + t * eq
            np.minimum.at(out, rows, np.abs(zq - proj))
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


def resample_closed(points: np.ndarray, n: int) -> np.ndarray:
    """Resample the closed polyline at n points, uniform in arclength,
    anchored at vertex 0."""
    seg = np.abs(np.roll(points, -1) - points)
    s = np.concatenate(([0.0], np.cumsum(seg)))
    targets = np.linspace(0.0, s[-1], n, endpoint=False)
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
    """Parse the UTF-8 curve file at path: either one "x y" pair per line, or
    a JSON object with a "points" field of [x, y] pairs; a file that is not
    UTF-8 raises ParseError. Validates and normalizes to counterclockwise."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if text.lstrip().startswith("{"):
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


def hausdorff_distance(x, y) -> float:
    """Hausdorff distance between two finite sampled point sets: the larger of
    the two directed sup-min distances. Exact for the given samples, with
    the bits of a k-d tree's nearest-point query: sqrt(dx*dx + dy*dy) of the
    nearest points. A non-finite point raises ParseError; a distance whose
    square overflows is inf."""
    x = _as_points(x)
    y = _as_points(y)
    if len(x) == 0 or len(y) == 0:
        raise EmptySet("hausdorff_distance needs non-empty sets")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ParseError("points must be finite")
    # the smaller set's queries run first; the larger set's then skip every
    # query whose bound stays below that distance
    if x.size > y.size:
        x, y = y, x
    low = _Cells(y.real, y.imag).farthest(x.real, x.imag, 0.0)
    return float(np.sqrt(_Cells(x.real, x.imag).farthest(y.real, y.imag, low)))


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

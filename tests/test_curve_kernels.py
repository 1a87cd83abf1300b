"""The pruned geometry kernels against their brute-force oracles, and the
nearest-point engine against a k-d tree, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import oracles
from helpers import make_figure_eight
from juliafit import curves, nearest
from juliafit.curves import (
    JordanCurve,
    _offset_polyline,
    _segment_pairs_intersect,
    distance_to_polyline,
    grid_winding_numbers,
    hausdorff_distance,
    relation,
    winding_numbers,
)
from juliafit.errors import NotSimple, ParseError
from juliafit.shapes import make_blob, make_circle, make_square


def assert_kernels_exact(z, points):
    w = winding_numbers(z, points)
    w_ref = oracles.winding_numbers(z, points)
    assert w.dtype == w_ref.dtype and np.array_equal(w, w_ref)
    d = distance_to_polyline(z, points)
    d_ref = oracles.distance_to_polyline(z, points)
    assert d.dtype == d_ref.dtype and np.array_equal(d, d_ref, equal_nan=True)


def wavy_curve(seed, n):
    """Seeded star-shaped polyline with noise, at a random scale and offset."""
    rng = np.random.default_rng(seed)
    th = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    r = (1.0 + 0.3 * np.sin(rng.integers(1, 7) * th + rng.uniform(0.0, 6.0))
         + 0.05 * rng.normal(size=n))
    scale = 10.0 ** rng.uniform(-2.0, 2.0)
    shift = complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(0.0, 3.0)
    return shift + scale * r * np.exp(1j * th)


def queries_around(points, rng, m):
    lo = complex(points.real.min(), points.imag.min())
    hi = complex(points.real.max(), points.imag.max())
    pad = 0.25 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    scattered = (rng.uniform(lo.real, hi.real, m)
                 + 1j * rng.uniform(lo.imag, hi.imag, m))
    midpoints = 0.5 * (points + np.roll(points, -1))
    # share a vertex's y exactly, where the half-open rule decides
    tied = rng.uniform(lo.real, hi.real, len(points)) + 1j * points.imag
    return np.concatenate((scattered, points, midpoints, tied))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(8, 400), st.booleans())
def test_kernels_match_oracles_on_random_curves(seed, n, clockwise):
    points = wavy_curve(seed, n)
    if clockwise:
        points = points[::-1]
    z = queries_around(points, np.random.default_rng(seed + 1), 500)
    assert_kernels_exact(z, points)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False,
                                   allow_infinity=False), max_size=60))
def test_kernels_match_oracles_on_drawn_points(zs):
    assert_kernels_exact(np.array(zs, dtype=np.complex128), make_blob().points)


def test_winding_matches_oracle_on_512_grid():
    g = np.linspace(-1.5, 1.5, 512)
    grid = (g[None, :] + 1j * g[:, None]).ravel()
    points = make_blob().points
    w = winding_numbers(grid, points)
    assert np.array_equal(w, oracles.winding_numbers(grid, points))
    assert 0 < np.count_nonzero(w) < grid.size


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 40),
       st.sampled_from([0.1, 1 / 3, 0.25, 1.0, 0.07]), st.sampled_from([0.1, 1 / 3, 1.0]),
       st.sampled_from(["lattice", "rows", "wavy"]), st.floats(0.2, 3.0))
def test_grid_winding_matches_winding_numbers(seed, nx, ny, sx, sy, layout, zoom):
    # lattice polygons have every vertex on a pixel centre, and rectilinear
    # ones every horizontal edge along a row of them, so their crossings fall
    # on pixel centres or within rounding of them; a wavy curve sits in a
    # grid that spans zoom times its box, smaller or larger than the curve
    rng = np.random.default_rng(seed)
    x0, y0 = rng.uniform(-3.0, 3.0, 2)
    xs = x0 + (np.arange(nx) + 0.5) * sx
    ys = y0 - (np.arange(ny) + 0.5) * sy
    m = int(rng.integers(3, 24))
    if layout == "lattice":
        points = xs[rng.integers(0, nx, m)] + 1j * ys[rng.integers(0, ny, m)]
    elif layout == "rows":
        i, j = rng.integers(0, ny, m), rng.integers(0, nx, m)
        # a rectilinear walk: odd steps keep the row, even ones the column
        i[1::2], j[2::2] = i[:-1:2], j[1:-1:2]
        points = xs[j] + 1j * ys[i]
    else:
        points = wavy_curve(seed, 8 * m)
        lo = complex(points.real.min(), points.imag.min())
        hi = complex(points.real.max(), points.imag.max())
        mid, half = 0.5 * (lo + hi), 0.5 * zoom * (hi - lo)
        xs = np.linspace(mid.real - half.real, mid.real + half.real, nx)
        ys = np.linspace(mid.imag + half.imag, mid.imag - half.imag, ny)
    want = winding_numbers(xs[None, :] + 1j * ys[:, None], points).reshape(ny, nx)
    got = grid_winding_numbers(xs, ys, points)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_distance_matches_oracle_on_grid():
    g = np.linspace(-1.5, 1.5, 128)
    grid = (g[None, :] + 1j * g[:, None]).ravel()
    points = make_blob().points
    assert np.array_equal(distance_to_polyline(grid, points),
                          oracles.distance_to_polyline(grid, points))


@pytest.mark.parametrize("points", [
    make_square().points,                   # horizontal and vertical edges
    make_square(corner=-0.5 - 0.5j).points[::-1],
    make_circle().points[::-1],             # clockwise
    # staircase: horizontal edges at the heights of other vertices
    np.array([0, 3, 3 + 1j, 2 + 1j, 2 + 2j, 1 + 2j, 1 + 3j, 3j]),
], ids=["square", "square-cw", "circle-cw", "staircase"])
def test_kernels_match_oracles_on_axis_aligned_and_clockwise(points):
    rng = np.random.default_rng(7)
    z = queries_around(points, rng, 2000)
    g = np.linspace(-0.5, 3.5, 65)
    z = np.concatenate((z, (g[None, :] + 1j * g[:, None]).ravel()))
    assert_kernels_exact(z, points)


@pytest.mark.parametrize("z", [
    np.array([], dtype=np.complex128),
    np.array([0.1 + 0.2j]),
    np.array([np.nan, np.inf, -np.inf, complex(np.inf, 0.3), complex(-np.inf, 0.3),
              complex(0.3, np.nan), complex(np.nan, 0.3), complex(np.inf, np.nan),
              complex(1e200, 1e200), complex(-1e300, 0.3), 0.3 + 0.1j]),
    np.array([np.nan, complex(0.3, np.inf)]),
], ids=["empty", "single", "non-finite", "non-finite-only"])
def test_kernels_match_oracles_on_edge_case_queries(z):
    # the kernels take non-finite and overflowing queries without a warning,
    # which the test settings turn into an error; the oracles may warn
    for points in (make_blob().points, make_square().points):
        w, d = winding_numbers(z, points), distance_to_polyline(z, points)
        with np.errstate(invalid="ignore", over="ignore"):
            w_ref = oracles.winding_numbers(z, points)
            d_ref = oracles.distance_to_polyline(z, points)
        assert w.dtype == w_ref.dtype and np.array_equal(w, w_ref)
        assert d.dtype == d_ref.dtype and np.array_equal(d, d_ref, equal_nan=True)
    w = winding_numbers(z, make_blob().points)
    assert np.all(w[~np.isfinite(z)] == 0)


def comb(teeth, depth=4.0):
    """Counterclockwise comb: a bar of height 1 with `teeth` fingers of
    height `depth`, so a horizontal line through the fingers crosses
    2 * teeth edges."""
    right = 2 * teeth - 1
    pts = [0j, complex(right, 0)]
    for k in reversed(range(teeth)):
        if k < teeth - 1:
            pts.append(complex(2 * k + 1, 1))
        pts += [complex(2 * k + 1, depth), complex(2 * k, depth)]
        if k > 0:
            pts.append(complex(2 * k, 1))
    return np.array(pts)


def test_kernels_match_oracles_past_the_pair_chunk():
    points = comb(64)
    assert curves.JordanCurve.from_points(points).area > 0
    gx = np.linspace(-0.5, 127.5, 257)
    gy = np.linspace(-0.5, 4.5, 97)
    grid = (gx[None, :] + 1j * gy[:, None]).ravel()
    lo = np.minimum(points.imag, np.roll(points, -1).imag)
    hi = np.maximum(points.imag, np.roll(points, -1).imag)
    pairs = sum(int(np.count_nonzero((a <= grid.imag) & (grid.imag < b)))
                for a, b in zip(lo, hi))
    assert pairs > 2 * nearest._PAIR_CHUNK
    assert_kernels_exact(grid, points)


# ---------------------------------------------------------------------------
# nearest points


def point_set(rng, layout, n):
    """n seeded points: normal, in three tight clusters, repeating a few,
    on a line, or scaled to 1e-150 or 1e150."""
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    if layout == "clustered":
        centres = 10.0 * (rng.normal(size=3) + 1j * rng.normal(size=3))
        z = centres[rng.integers(0, 3, n)] + 1e-3 * z
    elif layout == "duplicates":
        z = z[rng.integers(0, max(1, n // 8), n)]
    elif layout == "collinear":
        z = z[0] + z.real * np.exp(1j * rng.uniform(0.0, np.pi))
    elif layout == "tiny":
        z *= 1e-150
    elif layout == "huge":
        z *= 1e150
    return z


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["random", "clustered", "duplicates", "collinear", "tiny", "huge"]),
       st.sampled_from(["none", "apart", "single"]), st.integers(1, 700), st.integers(1, 700))
def test_hausdorff_matches_the_kdtree(seed, layout, place, n, m):
    # "apart" moves the second set a thousand times the sets' size away,
    # "single" makes both one point
    rng = np.random.default_rng(seed)
    if place == "single":
        n = m = 1
    x, y = point_set(rng, layout, n), point_set(rng, layout, m)
    if place == "apart":
        y = y + 1e3 * max(np.abs(x).max(), np.abs(y).max()) * (1 + 1j)
    got = hausdorff_distance(x, y)
    assert got == oracles.kdtree_hausdorff(x, y)
    assert hausdorff_distance(y, x) == got


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, -np.inf), complex(np.nan, 1.0)])
def test_hausdorff_rejects_non_finite_points(bad):
    for x, y in (([0j, bad], [1j]), ([1j], [2j, bad]), (np.full(900, bad), np.arange(900.0))):
        with pytest.raises(ParseError, match="points must be finite"):
            hausdorff_distance(x, y)


def test_hausdorff_overflow_stays_inf():
    assert hausdorff_distance([1e200], [-1e200]) == math.inf
    rng = np.random.default_rng(5)
    x = 1e200 + 1e198 * rng.normal(size=600)
    assert hausdorff_distance(x, -x) == math.inf == oracles.kdtree_hausdorff(x, -x)
    # spans past the largest float, whose near pairs stay finite
    x = 1e308 * np.linspace(-1.0, 1.0, 600)
    for a, b in ((x, x + 1j), (1j * x, 1j * x + 1.0), (x, x[:5])):
        with np.errstate(over="ignore"):
            want = oracles.kdtree_hausdorff(a, b)
        assert hausdorff_distance(a, b) == want == hausdorff_distance(b, a)
    assert hausdorff_distance(x, x + 1j) == 1.0


def test_nearest_points_match_past_the_pair_chunk(monkeypatch):
    # chunks of 97 pairs split the runs of the nearest-point engine, and the
    # pairs of one query, between chunks
    monkeypatch.setattr(nearest, "_PAIR_CHUNK", 97)
    rng = np.random.default_rng(11)
    points = wavy_curve(11, 300)
    z = queries_around(points, rng, 400)
    assert_kernels_exact(z, points)
    x = point_set(rng, "clustered", 500)
    y = point_set(rng, "random", 300)
    assert hausdorff_distance(x, y) == oracles.kdtree_hausdorff(x, y)


# ---------------------------------------------------------------------------
# segment intersection


def crossing_polylines():
    rng = np.random.default_rng(3)
    yield make_figure_eight()
    for seed in range(6):
        yield rng.normal(size=40) + 1j * rng.normal(size=40)   # many crossings
    yield make_blob().points + 0.02 * np.exp(1j * np.arange(512))  # a few loops
    # raw offsets before their loops are pruned: concave corners cross
    for curve, d in ((make_blob(), 0.07), (make_square(), -0.05), (make_blob(), -0.2)):
        yield _offset_polyline(curve.points, d)
    for curve in (make_blob(), make_circle()):
        yield curve.points                                    # simple: None


def test_segment_pairs_match_oracle_self():
    found = 0
    for points in crossing_polylines():
        got = _segment_pairs_intersect(points)
        assert got == oracles.segment_pairs_intersect(points)
        found += got is not None
    assert found >= 8


def test_segment_pairs_match_oracle_two_curves(squares_touching_at_vertices,
                                               diamond_on_square):
    blob = make_blob().points
    cases = [
        (make_circle(1.0).points, make_circle(1.0, center=0.5).points),
        (make_circle(1.0).points, make_circle(0.5).points),
        (blob, make_circle(1.0).points),
        (_offset_polyline(blob, 0.07), _offset_polyline(blob, -0.07)),
        (_offset_polyline(blob, 0.3), _offset_polyline(blob, -0.3)),
        (make_square().points, make_square(corner=0.3 + 0.4j).points),
    ]
    # curves that share points without a proper crossing
    cases += [tuple(c.points for c in pair)
              for pair in (squares_touching_at_vertices, diamond_on_square)]
    found = {False: 0, True: 0}
    for p, q in cases:
        for a, b in ((p, q), (q, p)):
            for touch in (False, True):
                got = _segment_pairs_intersect(a, b, touch=touch)
                assert got == oracles.segment_pairs_intersect(a, b, touch=touch)
                found[touch] += got is not None
    assert found == {False: 6, True: 10}



@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(4, 120))
def test_segment_pairs_match_oracle_random(seed, n):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=n) + 1j * rng.normal(size=n)
    if seed % 3 == 0:
        points = np.round(points, 1)        # shared coordinates and collinear runs
    assert _segment_pairs_intersect(points) == oracles.segment_pairs_intersect(points)
    assert (_segment_pairs_intersect(points, touch=True)
            == oracles.segment_pairs_intersect(points, touch=True))
    other = rng.normal(size=n // 2 + 2) + 1j * rng.normal(size=n // 2 + 2)
    if seed % 3 == 0:
        other = np.round(other, 1)
    for touch in (False, True):
        assert (_segment_pairs_intersect(points, other, touch=touch)
                == oracles.segment_pairs_intersect(points, other, touch=touch))


# ---------------------------------------------------------------------------
# how two curves lie


def placed_pair(seed_a, seed_b, n, m, ratio, offset, angle):
    """Two noisy stars: the second rescaled to `ratio` times the size of the
    first, centred on it and then moved `offset` of its sizes at `angle`."""
    a, b = wavy_curve(seed_a, n), wavy_curve(seed_b, m)
    size = lambda p: np.abs(p - p.mean()).max()
    b = (a.mean() + (b - b.mean()) * (ratio * size(a) / size(b))
         + offset * size(a) * np.exp(1j * angle))
    return JordanCurve.from_points(a), JordanCurve.from_points(b)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
       st.integers(8, 200), st.integers(8, 200),
       st.sampled_from([0.2, 0.5, 0.9, 1.0, 1.2, 2.0, 5.0]),
       st.floats(0.0, 4.0), st.floats(0.0, 2.0 * np.pi))
def test_relation_matches_oracle(seed_a, seed_b, n, m, ratio, offset, angle):
    try:
        a, b = placed_pair(seed_a, seed_b, n, m, ratio, offset, angle)
    except NotSimple:
        # a star whose sorted angles leave a gap wider than pi can cross
        # itself (seed 39944 at 8 points): no curve to relate
        reject()
    assert relation(a, b) == oracles.relation(a, b)
    assert relation(b, a) == oracles.relation(b, a)


@pytest.mark.parametrize("ratio,offset,want", [
    (0.2, 0.0, "contains"), (5.0, 0.0, "inside"), (1.0, 0.2, "meet"), (1.0, 4.0, "apart"),
])
def test_relation_oracle_pairs_reach_every_outcome(ratio, offset, want):
    a, b = placed_pair(11, 12, 150, 90, ratio, offset, 1.0)
    assert relation(a, b) == oracles.relation(a, b) == want

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juliafit.curves import (
    AnnulusSpec,
    JordanCurve,
    RegionLabel,
    curve_gap,
    hausdorff_distance,
    load_curve,
    offset_annulus,
    winding_numbers,
    winding_region,
)
from juliafit.errors import EmptySet, NotSimple, OffsetCollapse, ParseError, TooFewPoints
from juliafit.shapes import make_blob, make_circle, make_figure_eight, make_square


def densified_square(n=64, clockwise=False):
    per = n // 4
    t = np.arange(per) / per
    pts = np.concatenate([t, 1 + 1j * t, (1 - t) + 1j, 1j * (1 - t)])
    return pts[::-1] if clockwise else pts


# ---------------------------------------------------------------------------
# loading and validation


def test_load_square_text():
    text = "\n".join(f"{z.real} {z.imag}" for z in densified_square())
    c = load_curve(io.StringIO(text))
    assert len(c.points) == 64
    assert c.area == pytest.approx(1.0)


def test_load_json_points():
    pts = [[z.real, z.imag] for z in densified_square()]
    c = load_curve(io.StringIO(__import__("json").dumps({"points": pts})))
    assert c.area == pytest.approx(1.0)


def test_clockwise_square_is_reversed():
    c = JordanCurve.from_points(densified_square(clockwise=True))
    assert c.area == pytest.approx(1.0)
    assert c.area > 0


def test_figure_eight_not_simple():
    with pytest.raises(NotSimple) as exc:
        JordanCurve.from_points(make_figure_eight())
    i, j = exc.value.segments
    assert i != j


def test_too_few_points():
    with pytest.raises(TooFewPoints):
        load_curve(io.StringIO("0 0\n1 0\n1 1\n0 1"))


def test_repeated_point_rejected():
    pts = densified_square().tolist()
    pts.insert(3, pts[3])
    with pytest.raises(ParseError):
        JordanCurve.from_points(np.array(pts))


def test_zero_area_rejected():
    z = np.linspace(0, 1, 10) + 0j
    pts = np.concatenate([z, z[::-1]])
    with pytest.raises((ParseError, NotSimple)):
        JordanCurve.from_points(pts)


def test_garbage_text_rejected():
    with pytest.raises(ParseError):
        load_curve(io.StringIO("this is\nnot a curve\n"))


# ---------------------------------------------------------------------------
# region classification


def test_winding_region_square():
    c = JordanCurve.from_points(densified_square())
    assert winding_region(0.5 + 0.5j, c) is RegionLabel.BOUNDED_INSIDE
    assert winding_region(10 + 10j, c) is RegionLabel.UNBOUNDED_OUTSIDE
    assert winding_region(0.5 + 0j, c) is RegionLabel.ON_ANNULUS


def test_winding_consistent_with_signed_area():
    for make in (make_circle, make_square, make_blob):
        c = make()
        assert winding_region(c.centroid, c) is RegionLabel.BOUNDED_INSIDE
        far = c.bbox[1] + complex(10 * c.diameter, 3 * c.diameter)
        assert winding_region(far, c) is RegionLabel.UNBOUNDED_OUTSIDE


@settings(deadline=None, max_examples=30)
@given(st.lists(st.complex_numbers(min_magnitude=0, max_magnitude=10,
                                   allow_nan=False, allow_infinity=False),
                min_size=10, max_size=40))
def test_winding_matches_pointwise_oracle(zs):
    c = make_blob()
    zs = np.array(zs)
    fast = winding_numbers(zs, c.points)
    # crossing-count oracle, one point at a time
    for z, w in zip(zs, fast):
        crossings = 0
        pts = c.points
        for a, b in zip(pts, np.roll(pts, -1)):
            if (a.imag <= z.imag) != (b.imag <= z.imag):
                x = a.real + (z.imag - a.imag) * (b.real - a.real) / (b.imag - a.imag)
                if x > z.real:
                    crossings += 1
        assert (w != 0) == (crossings % 2 == 1)


# ---------------------------------------------------------------------------
# offset annuli


def test_offset_circle_closed_form():
    ann = offset_annulus(make_circle(1.0), 0.1)
    assert np.allclose(np.abs(ann.outer.points), 1.1, atol=2e-4)
    assert np.allclose(np.abs(ann.inner.points), 0.9, atol=2e-4)
    assert ann.width_hint == pytest.approx(0.2)


def test_offset_square_winding_oracle():
    sq = make_square(1.0)
    ann = offset_annulus(sq, 0.05)
    # brute-force containment: every inner vertex winds once around the outer
    assert np.all(winding_numbers(ann.inner.points, ann.outer.points) == 1)
    # and the original curve lies inside the band
    labels = ann.classify(sq.points)
    assert all(lab is RegionLabel.ON_ANNULUS for lab in labels)


def test_offset_square_collapse():
    with pytest.raises(OffsetCollapse):
        offset_annulus(make_square(1.0), 0.6)


def test_offset_neighborhood_property():
    for make, eps in ((make_circle, 0.1), (make_square, 0.05), (make_blob, 0.07)):
        curve = make()
        ann = offset_annulus(curve, eps)
        tol = eps * 0.5 + 1e-6 * curve.diameter
        for side in (ann.outer, ann.inner):
            d = side.distance(curve.points)
            assert d.max() <= eps + tol


# ---------------------------------------------------------------------------
# Hausdorff distance


def test_hausdorff_identical_sets():
    z = np.array([0, 1 + 1j, 2 - 3j])
    assert hausdorff_distance(z, z) == 0.0


def test_hausdorff_three_four_five():
    assert hausdorff_distance([0j], [3 + 4j]) == pytest.approx(5.0)


def test_hausdorff_concentric_circles_vs_bruteforce():
    th = 2 * np.pi * np.arange(360) / 360
    x = np.exp(1j * th)
    y = 1.2 * np.exp(1j * th)
    d = hausdorff_distance(x, y)
    assert abs(d - 0.2) <= 2 * np.pi / 360
    # independent brute-force double loop
    d_ab = max(min(abs(a - b) for b in y) for a in x)
    d_ba = max(min(abs(a - b) for a in x) for b in y)
    assert d == pytest.approx(max(d_ab, d_ba))


def test_hausdorff_empty_set():
    with pytest.raises(EmptySet):
        hausdorff_distance([], [1j])


def test_hausdorff_large_sets_use_tree_path():
    rng = np.random.default_rng(0)
    x = rng.normal(size=600) + 1j * rng.normal(size=600)
    y = rng.normal(size=600) + 1j * rng.normal(size=600)
    brute = max(max(min(abs(a - b) for b in y) for a in x),
                max(min(abs(a - b) for a in x) for b in y))
    assert hausdorff_distance(x, y) == pytest.approx(brute)


pool = st.lists(st.complex_numbers(min_magnitude=0, max_magnitude=100,
                                   allow_nan=False, allow_infinity=False),
                min_size=1, max_size=30)


@settings(deadline=None, max_examples=50)
@given(pool, pool)
def test_hausdorff_symmetry(x, y):
    assert hausdorff_distance(x, y) == hausdorff_distance(y, x)


@settings(deadline=None, max_examples=50)
@given(pool, pool, pool)
def test_hausdorff_triangle_inequality(x, y, z):
    dxz = hausdorff_distance(x, z)
    dxy = hausdorff_distance(x, y)
    dyz = hausdorff_distance(y, z)
    assert dxz <= dxy + dyz + 1e-9


@settings(deadline=None, max_examples=50)
@given(pool)
def test_hausdorff_zero_iff_equal(x):
    assert hausdorff_distance(x, x) == 0.0


# ---------------------------------------------------------------------------
# annulus spec validation


def test_annulus_requires_nesting():
    with pytest.raises(OffsetCollapse):
        AnnulusSpec(outer=make_circle(1.0), inner=make_circle(1.0, center=5.0),
                    width_hint=0.1)


def test_annulus_rejects_inner_curve_touching_outer():
    # a diamond inside the unit square whose bottom vertex 0.5+0j lies on the
    # square's bottom edge: no two segments cross properly, but the curves
    # share that point
    corners = 0.5 + 0.25j + 0.25 * 1j ** np.arange(5)
    t = np.arange(4) / 4
    diamond = JordanCurve.from_points(np.concatenate(
        [a + (b - a) * t for a, b in zip(corners[:-1], corners[1:])]))
    assert len(diamond.points) == 16 and 0.5 + 0j in diamond.points
    assert curve_gap(make_square(), diamond) == 0.0
    with pytest.raises(OffsetCollapse):
        AnnulusSpec(outer=make_square(), inner=diamond, width_hint=0.1)


def test_annulus_classify_partition():
    ann = AnnulusSpec(outer=make_circle(1.1), inner=make_circle(0.9), width_hint=0.2)
    labels = ann.classify([0j, 1.0 + 0j, 2.0 + 0j])
    assert list(labels) == [RegionLabel.BOUNDED_INSIDE, RegionLabel.ON_ANNULUS,
                            RegionLabel.UNBOUNDED_OUTSIDE]

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_figure_eight
from juliafit.curves import (
    ON_TOL_REL,
    AnnulusSpec,
    JordanCurve,
    curve_gap,
    distance_to_polyline,
    enclosed,
    hausdorff_distance,
    load_curve,
    offset_annulus,
    relation,
    sample_interior,
    winding_numbers,
)
from juliafit.errors import (
    EmptySet, NotSimple, OffsetCollapse, ParseError, SamplingFailure, TooFewPoints,
)
from juliafit.shapes import make_blob, make_circle, make_square


def densified_square(n=64, clockwise=False):
    per = n // 4
    t = np.arange(per) / per
    pts = np.concatenate([t, 1 + 1j * t, (1 - t) + 1j, 1j * (1 - t)])
    return pts[::-1] if clockwise else pts


# ---------------------------------------------------------------------------
# loading and validation


def load_text(tmp_path, text: str):
    path = tmp_path / "curve.txt"
    path.write_text(text, encoding="utf-8")
    return load_curve(path)


def test_load_square_text(tmp_path):
    text = "\n".join(f"{z.real} {z.imag}" for z in densified_square())
    c = load_text(tmp_path, text)
    assert len(c.points) == 64
    assert c.area == pytest.approx(1.0)


def test_load_json_points(tmp_path):
    pts = [[z.real, z.imag] for z in densified_square()]
    c = load_text(tmp_path, json.dumps({"points": pts}))
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


#: vertex 4 (0.5) lies on edge 0 (from 0 to 1): no proper crossing, but the
#: polygon pinches there into two loops
PINCHED = np.array([0, 1, 1 + 1j, 0.6 + 1j, 0.5 + 0j, 0.4 + 1j, 1j, 0.2 + 0.5j, 0.1 + 0.2j])


def test_vertex_on_edge_not_simple():
    with pytest.raises(NotSimple) as exc:
        JordanCurve.from_points(PINCHED)
    assert exc.value.segments == (0, 3)


def test_too_few_points(tmp_path):
    with pytest.raises(TooFewPoints):
        load_text(tmp_path, "0 0\n1 0\n1 1\n0 1")


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


def test_garbage_text_rejected(tmp_path):
    with pytest.raises(ParseError):
        load_text(tmp_path, "this is\nnot a curve\n")


# ---------------------------------------------------------------------------
# region classification


def test_winding_region_square():
    c = JordanCurve.from_points(densified_square())
    z = [0.5 + 0.5j, 10 + 10j, 0.5 + 0j]
    on = distance_to_polyline(z, c.points) <= ON_TOL_REL * c.diameter
    assert on.tolist() == [False, False, True]
    assert c.contains(z[:2]).tolist() == [True, False]


def test_winding_consistent_with_signed_area():
    for make in (make_circle, make_square, make_blob):
        c = make()
        far = c.bbox[1] + complex(10 * c.diameter, 3 * c.diameter)
        assert c.contains([c.centroid, far]).tolist() == [True, False]


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


def test_sample_interior_needle_sampling_failure():
    # diagonal hairline region: its area is a vanishing fraction of its own
    # bounding box, which starves rejection sampling
    th = 2 * np.pi * np.arange(64) / 64
    needle = (np.cos(th) + 1e-7j * np.sin(th)) * np.exp(0.25j * np.pi) + (0.2 + 0.2j)
    with pytest.raises(SamplingFailure):
        sample_interior(JordanCurve.from_points(needle), 512, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# offset annuli


def test_offset_circle_closed_form():
    ann = offset_annulus(make_circle(1.0), 0.1)
    assert np.allclose(np.abs(ann.outer.points), 1.1, atol=2e-4)
    assert np.allclose(np.abs(ann.inner.points), 0.9, atol=2e-4)


def test_offset_square_winding_oracle():
    sq = make_square(1.0)
    ann = offset_annulus(sq, 0.05)
    # brute-force containment: every inner vertex winds once around the outer
    assert np.all(winding_numbers(ann.inner.points, ann.outer.points) == 1)
    # and the original curve lies inside the band
    assert np.all(enclosed(sq.points, (ann.outer, ann.inner)))


def test_offset_square_collapse():
    with pytest.raises(OffsetCollapse):
        offset_annulus(make_square(1.0), 0.6)


def test_offset_neighborhood_property():
    for make, eps in ((make_circle, 0.1), (make_square, 0.05), (make_blob, 0.07)):
        curve = make()
        ann = offset_annulus(curve, eps)
        tol = eps * 0.5 + 1e-6 * curve.diameter
        for side in (ann.outer, ann.inner):
            d = distance_to_polyline(curve.points, side.points)
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
        AnnulusSpec(outer=make_circle(1.0), inner=make_circle(1.0, center=5.0))


def test_annulus_rejects_inner_curve_touching_outer(diamond_on_square):
    square, diamond = diamond_on_square
    assert len(diamond.points) == 16 and 0.5 + 0j in diamond.points
    assert curve_gap(square, diamond) == 0.0
    with pytest.raises(OffsetCollapse):
        AnnulusSpec(outer=square, inner=diamond)


def test_annulus_classify_partition():
    ann = AnnulusSpec(outer=make_circle(1.1), inner=make_circle(0.9))
    z = [0j, 1.0 + 0j, 2.0 + 0j]
    assert ann.inner.contains(z).tolist() == [True, False, False]
    assert enclosed(z, (ann.outer, ann.inner)).tolist() == [False, True, False]
    assert ann.outer.contains(z).tolist() == [True, True, False]


@pytest.mark.parametrize("dz", [0.3 - 1.7j, -1e3 + 2.5e2j])
def test_translated_band_equals_the_validated_one(dz, monkeypatch):
    blob = make_blob()
    band = offset_annulus(blob, 0.05 * blob.diameter)
    want = AnnulusSpec(band.outer.translated(dz), band.inner.translated(dz))
    calls = []
    monkeypatch.setattr("juliafit.curves.relation", lambda *a: calls.append(a))
    moved = band.translated(dz)
    assert calls == []
    assert type(moved) is AnnulusSpec
    assert np.array_equal(moved.outer.points, want.outer.points)
    assert np.array_equal(moved.inner.points, want.inner.points)


# ---------------------------------------------------------------------------
# how two curves lie


def test_relation_of_curves_sharing_points(squares_touching_at_vertices,
                                           diamond_on_square):
    for a, b in (squares_touching_at_vertices, diamond_on_square):
        assert relation(a, b) == relation(b, a) == "meet"


def test_relation_of_nested_c_shapes(c_shaped_pair):
    outer, inner = c_shaped_pair
    # the inner curve's centroid says nothing about where the curve lies
    assert inner.centroid.real == pytest.approx(-0.453, abs=1e-3)
    assert not outer.contains([inner.centroid])[0]
    assert relation(outer, inner) == "contains"
    assert relation(inner, outer) == "inside"


def test_enclosed_is_even_odd():
    ring = [make_circle(2.0), make_circle(1.0)]
    disk = make_circle(0.5, 4.0)
    z = [0j, 1.5, 2.5, 4.0, 4.6]
    assert enclosed(z, ring + [disk]).tolist() == [False, True, False, True, False]
    assert enclosed(z, ring[::-1]).tolist() == [False, True, False, False, False]

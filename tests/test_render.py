import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import read_pgm
import juliafit.render
from juliafit.curves import hausdorff_distance
from juliafit.dumps import load_dump
from juliafit.dynamics import OrbitStatus, certify, find_min_degree
from juliafit.errors import BboxTooSmall
from juliafit.render import (
    EscapeField,
    _mask_hausdorff,
    pixel_centres,
    render,
    save_field,
    verify_hausdorff,
    verify_hausdorff_annulus,
    write_image,
)
from juliafit.shapepoly import make_circle_shape
from juliafit.shapes import FIXTURES, make_circle

BBOX = (-1.3 - 1.3j, 1.3 + 1.3j)


class ConstantKernel:
    t = 0j
    roots = np.zeros(1)

    def step(self, z):
        return np.zeros_like(z), np.full(z.shape, -math.inf)

    def step_floor(self, centres, radius):
        return np.full(centres.shape, -math.inf)

    def step_ceiling(self, centres, radius):
        return np.full(centres.shape, math.inf)


@pytest.fixture(scope="module")
def circle_field():
    k = make_circle_shape(1.0, 0.0625, 64)
    return render(k, BBOX, 256, 256, escape_radius=1.155, capture_radius=0.55,
                  max_iter=200)


def boundary_pixels(field):
    """Centres of the field's boundary pixels."""
    rows = np.arange(field.height)
    return pixel_centres(field.bbox, field.width, field.height, rows)[field.boundary_mask()]


def synthetic_field(status, iterations=None, bbox=(0j, 1 + 1j)):
    status = np.asarray(status, dtype=np.uint8)
    if iterations is None:
        iterations = np.zeros_like(status, dtype=np.uint32)
    return EscapeField(bbox=bbox, width=status.shape[1], height=status.shape[0],
                       status=status, iterations=np.asarray(iterations, np.uint32),
                       escape_radius=2.0, capture_radius=0.5, max_iter=10)


# ---------------------------------------------------------------------------
# rendering


def test_constant_map_all_captured():
    f = render(ConstantKernel(), BBOX, 16, 16, escape_radius=2.0,
               capture_radius=0.5, max_iter=10)
    assert np.all(f.status == int(OrbitStatus.INTERIOR_CAPTURED))


def test_circle_interior_matches_disk(circle_field):
    # interior pixels are exactly those inside radius c, within one pixel
    f = circle_field
    centers = pixel_centres(f.bbox, f.width, f.height, np.arange(f.height))
    c = 1.0625
    inside = np.abs(centers) < c - f.pixel_diag
    outside = np.abs(centers) > c + f.pixel_diag
    assert np.all(f.status[inside] == int(OrbitStatus.INTERIOR_CAPTURED))
    assert np.all(f.status[outside] == int(OrbitStatus.ESCAPED))


def test_circle_boundary_ring(circle_field):
    bp = boundary_pixels(circle_field)
    assert np.all(np.abs(np.abs(bp) - 1.0625) <= 1.5 * circle_field.pixel_diag)
    ring = 1.0625 * np.exp(2j * np.pi * np.arange(1024) / 1024)
    assert hausdorff_distance(bp, ring) <= circle_field.pixel_diag


def test_determinism_across_worker_counts(monkeypatch):
    # a render this small runs in one process; with SERIAL_WORK at 0 its
    # tiles go to the pool of up to 4 processes
    k = make_circle_shape(1.0, 0.0625, 64)
    kw = dict(escape_radius=1.155, capture_radius=0.55, max_iter=60)
    f1 = render(k, BBOX, 128, 128, **kw)
    monkeypatch.setattr(juliafit.render, "SERIAL_WORK", 0)
    f2 = render(k, BBOX, 128, 128, **kw)
    assert f1.status.tobytes() == f2.status.tobytes()
    assert f1.iterations.tobytes() == f2.iterations.tobytes()


def test_grid_minimum():
    with pytest.raises(ValueError):
        render(ConstantKernel(), BBOX, 8, 8, escape_radius=2.0, capture_radius=0.5,
               max_iter=10)


def test_partition_of_grid(circle_field):
    f = circle_field
    b = f.boundary_mask()
    interior = f.captured_mask & ~b
    exterior = f.escaped_mask & ~b
    total = b.sum() + interior.sum() + exterior.sum()
    assert total == f.width * f.height
    assert not (interior & exterior).any()
    assert not (interior & b).any()


def test_resolution_refinement():
    k = make_circle_shape(1.0, 0.0625, 64)
    ring = make_circle(1.0625, n=2048).points
    kw = dict(escape_radius=1.155, capture_radius=0.55, max_iter=60)
    d = {}
    for n in (128, 256):
        f = render(k, BBOX, n, n, **kw)
        d[n] = hausdorff_distance(boundary_pixels(f), ring)
    coarse_diag = 2.6 / 128 * math.sqrt(2)
    assert d[256] <= d[128] + coarse_diag


# ---------------------------------------------------------------------------
# boundary extraction


def test_checkerboard_all_boundary():
    status = np.indices((8, 8)).sum(axis=0) % 2
    f = synthetic_field(status)
    assert len(boundary_pixels(f)) == 64


def test_undecided_counts_as_boundary():
    status = np.zeros((8, 8))
    status[3, 3] = int(OrbitStatus.UNDECIDED)
    f = synthetic_field(status)
    bp = boundary_pixels(f)
    assert len(bp) == 1


# ---------------------------------------------------------------------------
# verification


def test_verify_circle_passes(circle_field):
    rep = verify_hausdorff(circle_field, [make_circle(1.0)], 0.15)
    assert rep.passed
    assert rep.d_J <= 0.0625 + 2 * circle_field.pixel_diag


def test_verify_zero_delta_fails(circle_field):
    # pixel quantization alone cannot meet a zero tolerance against the
    # shifted target circle
    rep = verify_hausdorff(circle_field, [make_circle(1.0)], 0.0)
    assert not rep.passed


def test_verify_bbox_too_small(circle_field):
    with pytest.raises(BboxTooSmall):
        verify_hausdorff(circle_field, [make_circle(1.0)], 5.0)


def test_verify_annulus_variant():
    # captured band between radii 1 and 2 rendered synthetically
    n = 128
    xs = np.linspace(-2.6, 2.6, n)
    z = xs[None, :] + 1j * xs[::-1, None]
    status = np.full((n, n), int(OrbitStatus.ESCAPED))
    band = (np.abs(z) >= 1.0) & (np.abs(z) <= 2.0)
    status[band] = int(OrbitStatus.INTERIOR_CAPTURED)
    f = synthetic_field(status, bbox=(-2.6 - 2.6j, 2.6 + 2.6j))
    rep = verify_hausdorff_annulus(f, make_circle(2.0), make_circle(1.0), 0.1)
    assert rep.passed
    assert rep.d_K <= 0.1


def test_verify_scores_the_even_odd_region():
    # a captured band between radii 1 and 2 and a captured disk beside it:
    # the target is the points inside an odd number of the three curves, so
    # the hole of the band is not part of it
    n = 156
    xs = np.linspace(-2.575, 5.175, n)
    ys = np.linspace(3.875, -3.875, n)
    z = xs[None, :] + 1j * ys[:, None]
    status = np.full((n, n), int(OrbitStatus.ESCAPED))
    status[(np.abs(z) >= 1.0) & (np.abs(z) <= 2.0)] = int(OrbitStatus.INTERIOR_CAPTURED)
    status[np.abs(z - 3.8) <= 0.8] = int(OrbitStatus.INTERIOR_CAPTURED)
    f = synthetic_field(status, bbox=(-2.6 - 3.9j, 5.2 + 3.9j))
    rep = verify_hausdorff(f, [make_circle(2.0), make_circle(1.0),
                               make_circle(0.8, 3.8)], 0.1)
    assert rep.passed
    assert rep.d_K <= 0.1


#: (dx, dy) pixel sizes of the mask tests: square pixels of side 1, 0.1 and
#: 1/3, at which offsets of equal length (3-4-5, 1-7 and 5-5) tie or round
#: apart, and oblong ones
PIXELS = [(1.0, 1.0), (0.1, 0.1), (1 / 3, 1 / 3), (0.7, 0.7), (0.1, 0.3),
          (1.0, 1 / 3), (2.5, 0.01), (0.3, 0.7)]


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 24), st.integers(1, 24), st.integers(0, 2**32 - 1),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.sampled_from(["apart", "subset", "single", "edge"]), st.sampled_from(PIXELS))
def test_mask_hausdorff_matches_the_transform_and_all_pairs(h, w, seed, fill_a, fill_b,
                                                            layout, pixel):
    # sparse masks leave far pixels, where offsets of equal length tie
    rng = np.random.default_rng(seed)
    a = rng.uniform(size=(h, w)) < fill_a ** 3
    b = rng.uniform(size=(h, w)) < fill_b ** 3
    if layout == "subset":
        b |= a
    elif layout == "single":
        a = np.zeros((h, w), dtype=bool)
        a[rng.integers(h), rng.integers(w)] = True
    elif layout == "edge":
        a[1:-1, 1:-1] = False
    dx, dy = pixel
    got = _mask_hausdorff(a, b, dx, dy)
    assert got == oracles.mask_hausdorff(a, b, dx, dy)
    assert got == oracles.mask_hausdorff_all_pairs(a, b, dx, dy)
    assert _mask_hausdorff(b, a, dx, dy) == got


@settings(deadline=None, max_examples=120)
@given(st.integers(8, 90), st.integers(8, 90), st.integers(0, 2**32 - 1),
       st.floats(0.0, 0.5), st.floats(0.0, 1.0), st.sampled_from(["scatter", "band"]),
       st.floats(0.001, 10.0), st.floats(0.1, 10.0).filter(lambda v: v != 1.0))
def test_mask_hausdorff_matches_the_kdtree_on_oblong_pixels(h, w, seed, fill_a, fill_b,
                                                           layout, dx, ratio):
    # pixels whose sides differ (dy = ratio * dx), on grids large enough that
    # most queries go through the nearest-point engine rather than every pair
    rng = np.random.default_rng(seed)
    a = rng.uniform(size=(h, w)) < fill_a ** 2
    b = rng.uniform(size=(h, w)) < fill_b ** 2
    if layout == "band":
        # a disk in a wider one, as a render and its target differ
        i, j = np.ogrid[:h, :w]
        r = np.hypot(i - h / 2, j - w / 2)
        a, b = r < 0.3 * min(h, w), r < 0.3 * min(h, w) + 1 + 10 * fill_b
    dy = ratio * dx
    got = _mask_hausdorff(a, b, dx, dy)
    assert got == oracles.mask_hausdorff_kdtree(a, b, dx, dy)
    assert got == oracles.mask_hausdorff(a, b, dx, dy)


@pytest.mark.parametrize("pixel", [1.0, 0.1, 1 / 3, 0.7])
@pytest.mark.parametrize("ring", [[(0, 5), (3, 4)], [(1, 7), (5, 5)]], ids=["5", "50"])
def test_mask_hausdorff_closes_ties(pixel, ring):
    # b holds every pixel at offsets of one length from a pixel q, and a is
    # b and q, so the distance is q's to b, at each place q in the grid: at
    # 0.7 and 1/3 these lengths round apart, and a k-d tree's own pick misses
    # the least of them at about a third of places
    offsets = {(si * i, sj * j) for di, dj in ring for i, j in ((di, dj), (dj, di))
               for si in (-1, 1) for sj in (-1, 1)}
    for qi, qj in np.ndindex(14, 14):
        b = np.zeros((14, 14), dtype=bool)
        for i, j in offsets:
            if 0 <= qi + i < 14 and 0 <= qj + j < 14:
                b[qi + i, qj + j] = True
        a = b.copy()
        a[qi, qj] = True
        got = _mask_hausdorff(a, b, pixel, pixel)
        assert got == oracles.mask_hausdorff(a, b, pixel, pixel)
        assert got == oracles.mask_hausdorff_all_pairs(a, b, pixel, pixel)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_verify_matches_the_full_grid_check_on_fixtures(built_shapes, name):
    # a rendered fixture at its certified degree, on oblong pixels, against
    # the fixture and a target it misses by a tenth of its size
    data = built_shapes[name]
    shape, cert = find_min_degree(
        data["build"], lambda s: certify(s, data["annulus_t"], 1024), [8, 16, 32, 64])
    curve = data["curve"]
    lo, hi = curve.bbox
    pad = 0.3 * curve.diameter
    bbox = (lo - pad * (1 + 1j), hi + pad * (1 + 1j))
    field = render(shape, bbox, 160, 96, escape_radius=cert.escape_radius,
                   capture_radius=cert.capture_radius, max_iter=60)
    delta = 0.1 * curve.diameter
    for target in ([curve], [curve.translated(delta)]):
        want = oracles.verify_hausdorff(field, target, delta)
        assert repr(verify_hausdorff(field, target, delta)) == repr(want)


# ---------------------------------------------------------------------------
# images and dumps


def test_pgm_round_trip_synthetic(tmp_path):
    status = np.array([[0, 1], [2, 1]])
    iters = np.array([[0, 3], [10, 0]])
    f = synthetic_field(status, iters)
    p = tmp_path / "t.pgm"
    write_image(f, p)
    img = read_pgm(p)
    assert img.shape == (2, 2)
    # the diagonal escaped pixel is not 4-adjacent to the captured one, so
    # it shades by iteration count; the other three are boundary
    assert np.array_equal(img, np.array([[128, 128], [128, 255]]))


def test_pgm_interior_only_is_black(tmp_path):
    f = synthetic_field(np.zeros((4, 4)))
    p = tmp_path / "black.pgm"
    write_image(f, p)
    assert np.all(read_pgm(p) == 0)


def test_pgm_shading_formula(tmp_path):
    status = np.full((1, 16), int(OrbitStatus.ESCAPED))
    iters = np.arange(16)
    f = synthetic_field(status, iters.reshape(1, 16))
    p = tmp_path / "shade.pgm"
    write_image(f, p)
    img = read_pgm(p)
    assert np.array_equal(img[0], 255 - np.minimum(iters, 126))


def test_field_dump_round_trip(tmp_path, circle_field):
    p = tmp_path / "field.json"
    save_field(circle_field, p, config={"seed": 0})
    f2 = load_dump(p, (EscapeField,))
    assert f2.bbox == circle_field.bbox
    assert np.array_equal(f2.status, circle_field.status)
    assert np.array_equal(f2.iterations, circle_field.iterations)
    save_field(f2, tmp_path / "field2.json", config={"seed": 0})
    assert (tmp_path / "field.json").read_bytes() == (tmp_path / "field2.json").read_bytes()


@pytest.mark.parametrize("config", [
    None,
    {"seed": 0},
    {"command": "render", "input": 'say "hi"\\back\\slash.json',
     "curve": ["kreis-\u00fc.txt", "\u5186.txt"], "bbox": [-1.5, 0.25, 1e300, math.inf],
     "nested": {"z": None, "a": [True, 1.5, -0.0]}},
    {"status_b64": "fake", "iterations_b64": '":"'},
])
@pytest.mark.parametrize("grid", ["min", "circle"])
def test_field_writer_matches_json_dump(config, grid, circle_field, tmp_path):
    field = circle_field if grid == "circle" else synthetic_field(
        np.arange(256).reshape(16, 16) % 3, np.arange(256).reshape(16, 16) * 70001)
    save_field(field, tmp_path / "got.json", config=config)
    oracles.save_field(field, tmp_path / "want.json", config=config)
    got = (tmp_path / "got.json").read_bytes()
    assert got == (tmp_path / "want.json").read_bytes()
    back = EscapeField.from_obj(json.loads(got))
    assert back.bbox == field.bbox
    assert np.array_equal(back.status, field.status)
    assert np.array_equal(back.iterations, field.iterations)


def test_circle_render_checksum_regression():
    # pinned after the first verified run; any kernel change that alters
    # classification flips this hash
    k = make_circle_shape(1.0, 0.0625, 64)
    f = render(k, BBOX, 64, 64, escape_radius=1.155, capture_radius=0.55,
               max_iter=60)
    digest = hashlib.sha256(f.status.tobytes() + f.iterations.tobytes()).hexdigest()
    assert digest == "b3e031cd1b3c8e4288731bfc00fed4e55be13cdab386b7372c90ff264fd07bbf"

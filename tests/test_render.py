import hashlib
import importlib
import json
import math

import numpy as np
import pytest

import oracles
from helpers import read_pgm
from juliafit.curves import hausdorff_distance
from juliafit.dumps import load_dump
from juliafit.dynamics import OrbitStatus
from juliafit.errors import BboxTooSmall
from juliafit.render import (
    EscapeField,
    render,
    save_field,
    verify_hausdorff,
    verify_hausdorff_annulus,
    write_image,
)
from juliafit.shapepoly import make_circle_shape
from juliafit.shapes import make_circle

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
    return field.pixel_centers()[field.boundary_mask()]


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
    centers = f.pixel_centers()
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
    monkeypatch.setattr(importlib.import_module("juliafit.render"), "SERIAL_WORK", 0)
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

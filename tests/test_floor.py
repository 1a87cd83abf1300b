"""The maps' lower and upper bounds on a step over a disk (``step_floor`` and
``step_ceiling``), the render that settles far-field and interior pixels with
them, and the single-point step that the bounds can leave behind."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import LARGE_BATCH, small_chunks
from juliafit.dynamics import FLOOR_SLACK, OrbitStatus, classify_orbits
from juliafit.render import render
from juliafit.rational import AnnulusSystem, MultiShapeSystem
from juliafit.shapepoly import make_circle_shape, omega_plus_one_ceiling

KINDS = ["circle64", "blob512", "rational", "annulus"]
#: least share of the step-1 captures of a 512 x 512 blob512 render that the
#: ceiling must settle without a step
CEILING_SHARE = 0.5


@pytest.fixture(scope="module")
def maps(built_shapes, fixture_systems):
    """name -> (map, (escape, capture) radii); the shapes take the default
    radii of the render command."""
    out = dict(fixture_systems)
    for name, shape in (("circle64", make_circle_shape(1.0, 0.0625, 64)),
                        ("blob512", built_shapes["blob"]["build"](512))):
        mags = np.abs(shape.roots)
        out[name] = (shape, (1.2 * float(mags.max()), 0.5 * float(mags.min())))
    return out


def disk_points(centre, radius, seed, count=32):
    """count points on the circle of the disk and count inside it."""
    rng = np.random.default_rng(seed)
    th = 2 * np.pi * (np.arange(count) + rng.uniform()) / count
    inner = radius * np.sqrt(rng.uniform(0, 1, count)) * np.exp(
        2j * np.pi * rng.uniform(0, 1, count))
    return centre + np.concatenate((radius * np.exp(1j * th), inner))


@pytest.mark.parametrize("kind", KINDS)
@settings(deadline=None, max_examples=60)
@given(st.floats(0.0, 2 * math.pi), st.floats(-1.5, 1.0), st.floats(0.0, 1.3),
       st.integers(0, 2 ** 32 - 1))
def test_floor_bounds_every_step_in_the_disk(maps, kind, angle, log_reach, share, seed):
    # centres from inside the roots to ten spans out; radii up to 1.3 times
    # the distance to the nearest root, so some disks hold one
    kernel, _ = maps[kind]
    mid = kernel.roots.mean()
    span = float(np.abs(kernel.roots - mid).max())
    centre = mid + span * 10.0 ** log_reach * np.exp(1j * angle)
    radius = share * float(np.abs(centre - kernel.roots).min())
    floor = float(kernel.step_floor(np.array([centre]), radius)[0])
    if np.any(np.abs(centre - kernel.roots) < radius):
        assert floor == -math.inf
    else:
        _, lm = kernel.step(disk_points(centre, radius, seed))
        assert floor <= lm.min()


@pytest.mark.parametrize("kind", KINDS)
def test_floor_is_finite_and_close_in_the_far_field(maps, kind):
    kernel, _ = maps[kind]
    mid = kernel.roots.mean()
    span = float(np.abs(kernel.roots - mid).max())
    centres = mid + 3 * span * np.exp(2j * np.pi * np.arange(8) / 8)
    floor = kernel.step_floor(centres, 0.01 * span)
    _, lm = kernel.step(centres)
    assert np.all(np.isfinite(floor))
    assert np.all(floor <= lm)
    assert np.all(lm - floor < 0.05 * kernel.roots.size)


@pytest.mark.parametrize("kind", KINDS)
@settings(deadline=None, max_examples=60)
@given(st.floats(0.0, 2 * math.pi), st.floats(-2.0, 0.3), st.floats(0.0, 0.7),
       st.integers(0, 2 ** 32 - 1))
def test_ceiling_bounds_every_step_in_the_disk(maps, kind, angle, log_reach, share, seed):
    # centres from near the frame origin, inside the roots, to twice their
    # span out; radii up to 0.7 times the distance to the nearest root, so
    # some disks have a root within twice the radius
    kernel, _ = maps[kind]
    mid = kernel.roots.mean()
    span = float(np.abs(kernel.roots - mid).max())
    centre = span * 10.0 ** log_reach * np.exp(1j * angle)
    radius = share * float(np.abs(centre - kernel.roots).min())
    ceiling = float(kernel.step_ceiling(np.array([centre]), radius)[0])
    if np.any(np.abs(centre - kernel.roots) < radius):
        assert ceiling == math.inf
    _, lm = kernel.step(disk_points(centre, radius, seed))
    assert np.all(lm <= ceiling)


@pytest.mark.parametrize("kind", KINDS)
@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2 ** 16), st.floats(0.0, 2 * math.pi), st.floats(1e-6, 0.1),
       st.floats(0.501, 3.0))
def test_ceiling_is_infinite_where_a_root_lies_within_twice_the_radius(
        maps, kind, index, angle, gap, share):
    # a shape's bound on |omega + 1| gives up within twice the radius of one
    # of its roots, and so does the ceiling of a shape polynomial; a rational
    # map's ceiling gives up where a root lies in the disk itself
    kernel, _ = maps[kind]
    for shape in shapes_of(kernel):
        root = shape.roots[index % shape.n]
        centre = np.array([root + gap * np.exp(1j * angle)])
        radius = share * gap
        assert omega_plus_one_ceiling(shape, centre, radius)[0] == math.inf
        if kernel is shape or share > 1.0:
            assert kernel.step_ceiling(centre, radius)[0] == math.inf


def shapes_of(kernel):
    if isinstance(kernel, MultiShapeSystem):
        return kernel.shapes
    if isinstance(kernel, AnnulusSystem):
        return (kernel.outer_shape, kernel.inner_shape)
    return (kernel,)


@pytest.mark.parametrize("kind", KINDS)
def test_ceiling_captures_small_disks_about_the_frame_origin(maps, kind):
    # the frame origin lies in the captured region of every map kind
    kernel, (_, capture) = maps[kind]
    centres = 0.2 * capture * np.exp(2j * np.pi * np.arange(8) / 8)
    ceiling = kernel.step_ceiling(centres, 0.05 * capture)
    _, lm = kernel.step(centres)
    assert np.all(lm <= ceiling)
    assert np.all(ceiling < math.log2(capture) - FLOOR_SLACK)


def test_floor_broadcasts_one_radius_per_centre(maps):
    kernel, _ = maps["blob512"]
    centres = np.array([3 + 1j, -2 - 4j, 0.1j])
    radii = np.array([0.1, 0.4, 0.2])
    each = [kernel.step_floor(centres[i:i + 1], radii[i])[0] for i in range(3)]
    assert kernel.step_floor(centres, radii).tolist() == each


def bits(vals, log2m):
    """The exact bits of a step: value words (signed zeros and NaN payloads
    included) and log2 magnitudes."""
    return (vals.view(np.float64).view(np.int64).tolist(),
            log2m.view(np.int64).tolist())


@pytest.mark.parametrize("kind", KINDS)
@settings(deadline=None, max_examples=25)
@given(st.floats(-1.0, 0.7), st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
def test_a_point_steps_alone_as_inside_a_batch(maps, kind, log_reach, count, seed):
    # points from deep inside the roots to five spans out, some of them roots
    kernel, _ = maps[kind]
    rng = np.random.default_rng(seed)
    mid = kernel.roots.mean()
    span = float(np.abs(kernel.roots - mid).max())
    z = mid + span * 10.0 ** log_reach * np.sqrt(rng.uniform(0, 1, count)) * np.exp(
        2j * np.pi * rng.uniform(0, 1, count))
    on = rng.uniform(0, 1, count) < 0.1
    z[on] = kernel.roots[rng.integers(0, kernel.roots.size, count)[on]]
    with np.errstate(all="ignore"):
        batch = kernel.step(z)
        for i in range(count):
            assert bits(*kernel.step(z[i:i + 1])) == bits(batch[0][i:i + 1], batch[1][i:i + 1])


@pytest.mark.parametrize("kind", KINDS)
def test_a_large_batch_steps_as_its_small_chunks(maps, kind):
    # a render steps tiles far larger than the batches above; each point
    # must step as it does in a chunk of under 1,000
    kernel, _ = maps[kind]
    rng = np.random.default_rng(5)
    mid = kernel.roots.mean()
    span = float(np.abs(kernel.roots - mid).max())
    z = mid + span * 10.0 ** rng.uniform(-1.0, 0.7, LARGE_BATCH) * np.exp(
        2j * np.pi * rng.uniform(0, 1, LARGE_BATCH))
    with np.errstate(all="ignore"):
        vals, log2m = kernel.step(z)
        parts = [kernel.step(z[part]) for part in small_chunks(LARGE_BATCH, 6)]
    assert bits(vals, log2m) == bits(np.concatenate([v for v, _ in parts]),
                                     np.concatenate([lm for _, lm in parts]))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("processes", [1, 2])
def test_render_matches_the_floorless_render(maps, kind, processes, monkeypatch):
    # 200 columns leave a last block of 8, 72 rows a last tile of 8; with
    # SERIAL_WORK at 0 the two tiles go to the pool of up to 4 processes
    if processes > 1:
        monkeypatch.setattr(importlib.import_module("juliafit.render"), "SERIAL_WORK", 0)
    kernel, (escape, capture) = maps[kind]
    orig = kernel.roots + kernel.t
    pad = 0.3 * max(np.ptp(orig.real), np.ptp(orig.imag))
    bbox = (complex(orig.real.min() - pad, orig.imag.min() - pad),
            complex(orig.real.max() + pad, orig.imag.max() + pad))
    field = render(kernel, bbox, 200, 72, escape_radius=escape,
                   capture_radius=capture, max_iter=60)
    status, iters = oracles.render_floorless(kernel, bbox, 200, 72, escape,
                                             capture, 60)
    assert field.status.tobytes() == status.tobytes()
    assert field.iterations.tobytes() == iters.tobytes()
    for code in (OrbitStatus.ESCAPED, OrbitStatus.INTERIOR_CAPTURED):
        assert ((field.iterations == 1) & (field.status == int(code))).any()


class CountingKernel:
    """A map that counts the points it steps, with its ceiling or none."""

    def __init__(self, kernel, ceiling: bool):
        self.kernel, self.ceiling = kernel, ceiling
        self.t, self.roots = kernel.t, kernel.roots
        self.stepped = 0

    def step(self, z):
        self.stepped += z.size
        return self.kernel.step(z)

    def step_floor(self, centres, radius):
        return self.kernel.step_floor(centres, radius)

    def step_ceiling(self, centres, radius):
        if self.ceiling:
            return self.kernel.step_ceiling(centres, radius)
        return np.full(centres.shape, math.inf)


def test_ceiling_settles_most_step_one_captures_on_blob512(maps, monkeypatch):
    # a ceiling that stops settling pixels fails here, although the bytes of
    # the render would not change; the render stays in this process, where
    # the kernel counts its steps
    monkeypatch.setattr(importlib.import_module("juliafit.render"), "SERIAL_WORK", math.inf)
    kernel, (escape, capture) = maps["blob512"]
    orig = kernel.roots + kernel.t
    bbox = (complex(orig.real.min(), orig.imag.min()) - 0.2,
            complex(orig.real.max(), orig.imag.max()) + 0.2)
    fields, stepped = [], []
    for ceiling in (False, True):
        k = CountingKernel(kernel, ceiling)
        fields.append(render(k, bbox, 512, 512, escape_radius=escape,
                             capture_radius=capture, max_iter=60))
        stepped.append(k.stepped)
    assert fields[0].status.tobytes() == fields[1].status.tobytes()
    assert fields[0].iterations.tobytes() == fields[1].iterations.tobytes()
    # each pixel the ceiling settles saves exactly the one step that would
    # have captured it
    settled = stepped[0] - stepped[1]
    at_one = np.count_nonzero((fields[1].iterations == 1)
                              & (fields[1].status == int(OrbitStatus.INTERIOR_CAPTURED)))
    assert settled > CEILING_SHARE * at_one


class RecordingKernel:
    """Doubles every point and records the arrays it steps."""

    t = 0j

    def __init__(self):
        self.stepped = []

    def step(self, z):
        self.stepped.append(z.copy())
        return 2 * z, np.log2(np.abs(2 * z))


def test_floor_settles_without_stepping():
    k = RecordingKernel()
    z = np.array([3.0, 3.5, 2.5, 1.1, 1.2, 0.1, 9.0], dtype=complex)
    floor = np.array([2.5, 2.5, 2.0 + 2 * FLOOR_SLACK, 1.0, 1.0, -np.inf, 4.0])
    no_ceiling = np.full(z.shape, np.inf)
    status, iters = classify_orbits(k, z, 4.0, 0.5, 10, floor, no_ceiling)
    # 0.1 and 9.0 are decided at step 0, and the floor settles 3.0, 3.5 and
    # 2.5 (its floor clears log2(4) by twice the slack)
    assert k.stepped[0].tolist() == [1.1, 1.2]
    assert status.tolist() == [1, 1, 1, 1, 1, 0, 1]
    assert iters.tolist() == [1, 1, 1, 2, 2, 0, 0]
    # the floor may leave a single point to step
    k = RecordingKernel()
    classify_orbits(k, z[[0, 3, 1]], 4.0, 0.5, 10, floor[[0, 3, 1]], no_ceiling[:3])
    assert k.stepped[0].tolist() == [1.1]
    # with no step to take, the floor settles nothing
    k = RecordingKernel()
    status, iters = classify_orbits(k, z, 4.0, 0.5, 0, floor, no_ceiling)
    assert k.stepped == []
    assert status.tolist() == [2, 2, 2, 2, 2, 0, 1]


def test_ceiling_captures_without_stepping():
    k = RecordingKernel()
    z = np.array([1.1, 1.2, 1.3, 0.1, 9.0], dtype=complex)
    below = -1.0 - 2 * FLOOR_SLACK
    ceiling = np.array([below, -1.0 - 0.5 * FLOOR_SLACK, 5.0, -np.inf, -np.inf])
    no_floor = np.full(z.shape, -np.inf)
    status, iters = classify_orbits(k, z, 4.0, 0.5, 10, no_floor, ceiling)
    # 0.1 and 9.0 are decided at step 0; the ceiling of 1.1 clears log2(0.5)
    # by twice the slack, and that of 1.2 by only half of it
    assert k.stepped[0].tolist() == [1.2, 1.3]
    assert status.tolist() == [0, 1, 1, 0, 1]
    assert iters.tolist() == [1, 2, 2, 0, 0]
    # with no step to take, the ceiling settles nothing
    k = RecordingKernel()
    status, iters = classify_orbits(k, z, 4.0, 0.5, 0, no_floor, ceiling)
    assert k.stepped == []
    assert status.tolist() == [2, 2, 2, 0, 1]
    assert iters.tolist() == [0, 0, 0, 0, 0]


def test_floor_and_ceiling_settle_together():
    k = RecordingKernel()
    z = np.array([3.0, 1.1, 1.2], dtype=complex)
    status, iters = classify_orbits(
        k, z, 4.0, 0.5, 10, floor=np.array([3.0, -np.inf, -np.inf]),
        ceiling=np.array([np.inf, -3.0, np.inf]))
    assert k.stepped[0].tolist() == [1.2]
    assert status.tolist() == [1, 0, 1]
    assert iters.tolist() == [1, 1, 2]

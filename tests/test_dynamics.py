import math

import numpy as np
import pytest

from juliafit.curves import AnnulusSpec, sample_interior
from juliafit.dumps import load_dump
from juliafit.dynamics import (
    EscapeCertificate,
    OrbitStatus,
    certify,
    classify_orbits,
    find_min_degree,
    save_certificate,
)
from juliafit.errors import BadBasepoint, NoDegreeFound
from juliafit.shapepoly import make_circle_shape, p_step_array
from juliafit.shapes import make_circle, make_ellipse


@pytest.fixture(scope="module")
def circle64():
    return make_circle_shape(1.0, 0.0625, 64)


@pytest.fixture(scope="module")
def cert64(circle64, circle_annulus):
    return certify(circle64, circle_annulus, 4096)


@pytest.fixture(scope="module")
def ellipse_annulus():
    """An outer ellipse with semi-axes 2 and 1.1 around the unit circle
    shape: beta = 2, while |P(z)| = |z|**(n+1) / 1.0625**n is least on the
    minor axis, so (B1) needs 1.1**(n+1) / 1.0625**n > 2, that is n >= 18."""
    return AnnulusSpec(outer=make_ellipse(2.0, 1.1), inner=make_circle(0.9))


# ---------------------------------------------------------------------------
# certification against the circle closed form


def test_certify_circle_passes(cert64):
    c = cert64
    assert c.passed
    # closed form: P(z) = z (z/c)**n; the sampled minimum of |P| sits at a
    # chord midpoint of the 512-gon, radius 1.1 cos(pi/512)
    r = 1.1 * math.cos(math.pi / 512)
    assert c.outside_min == pytest.approx(r * (r / 1.0625) ** 64, rel=1e-3)
    assert c.outside_min > c.beta
    assert c.inside_max == pytest.approx(0.9 * (0.9 / 1.0625) ** 64, rel=1e-3)
    assert c.inside_max < c.d_inner
    assert c.roots_outside == 0
    assert c.n_certified == 64


def test_certify_circle_constants(cert64):
    assert cert64.beta == pytest.approx(1.1, rel=1e-3)
    assert cert64.d_inner == pytest.approx(0.9, rel=1e-3)
    assert cert64.escape_radius == cert64.beta
    assert cert64.capture_radius == cert64.d_inner
    assert cert64.sample_counts == {"inner": 4096, "outer": 4096}


def test_certify_small_degree_fails(ellipse_annulus):
    s16 = make_circle_shape(1.0, 0.0625, 16)
    cert = certify(s16, ellipse_annulus, 1024)
    assert not cert.passed
    assert cert.outside_min == pytest.approx(1.1 ** 17 / 1.0625 ** 16, rel=1e-3)
    assert cert.margins()["outside"] < 0
    assert cert.margins()["inside"] > 0 and cert.margins()["roots"] == 0


def test_certify_roots_outside_outer_curve_fail(circle64):
    # the roots sit on |z| = 1.0625, outside an outer circle of radius 1.05
    ann = AnnulusSpec(outer=make_circle(1.05), inner=make_circle(0.9))
    cert = certify(circle64, ann, 1024)
    assert not cert.passed
    assert cert.roots_outside == 64
    assert cert.margins()["roots"] == -64


def test_certify_requires_origin_inside(circle64):
    ann = AnnulusSpec(outer=make_circle(1.1, center=5.0),
                      inner=make_circle(0.9, center=5.0))
    with pytest.raises(BadBasepoint):
        certify(circle64, ann, 512)


def test_certify_requires_origin_inside_the_inner_curve(circle64):
    # the origin lies in the band, inside the outer curve but not the inner
    ann = AnnulusSpec(outer=make_circle(1.1), inner=make_circle(0.3, center=0.7))
    with pytest.raises(BadBasepoint, match="inside 0 inner regions"):
        certify(circle64, ann, 512)


@pytest.fixture(scope="module")
def blob_certified(built_shapes):
    data = built_shapes["blob"]
    shape, cert = find_min_degree(
        data["build"], lambda s: certify(s, data["annulus_t"], 4096),
        [8, 16, 32, 64, 128, 256, 512])
    return shape, cert, data["annulus_t"]


def test_certificate_soundness_fresh_points(blob_certified):
    # fresh random points, none of them certification samples, satisfy both
    # trapping claims on the nonconvex fixture at its certified degree
    shape, cert, ann = blob_certified
    beta = cert.beta
    rng = np.random.default_rng(999)
    _, log2m = p_step_array(shape, sample_interior(ann.inner, 4000, rng))
    assert np.all(log2m < math.log2(cert.capture_radius))

    z = 3 * beta * (rng.uniform(-1, 1, 8000) + 1j * rng.uniform(-1, 1, 8000))
    z = z[(np.abs(z) <= 3 * beta) & ~ann.outer.contains(z)]
    assert z.size > 4000
    _, log2m = p_step_array(shape, z)
    assert np.all(log2m > math.log2(beta))

    w = rng.uniform(beta, 3 * beta, 4000) * np.exp(2j * np.pi * rng.uniform(size=4000))
    _, log2m = p_step_array(shape, w)
    assert np.all(log2m > np.log2(np.abs(w)))


# ---------------------------------------------------------------------------
# minimal degree search


def _certify_against(annulus):
    return lambda shape: certify(shape, annulus, 1024)


def test_find_min_degree_circle(ellipse_annulus):
    # closed form threshold n >= 18 (see ellipse_annulus), so 32 from the
    # doubling schedule
    shape, cert = find_min_degree(lambda n: make_circle_shape(1.0, 0.0625, n),
                                  _certify_against(ellipse_annulus), [8, 16, 32, 64])
    assert shape.n == 32
    assert cert.passed


def test_find_min_degree_empty_schedule(circle_annulus):
    with pytest.raises(NoDegreeFound):
        find_min_degree(lambda n: make_circle_shape(1.0, 0.0625, n),
                        _certify_against(circle_annulus), [])


def test_find_min_degree_reports_best_margins(ellipse_annulus):
    with pytest.raises(NoDegreeFound) as exc:
        find_min_degree(lambda n: make_circle_shape(1.0, 0.0625, n),
                        _certify_against(ellipse_annulus), [8, 16])
    best = exc.value.best
    # n = 16 comes closer: 1.1**17 / 1.0625**16 = 1.92 against 1.45 at n = 8
    assert best["n_certified"] == 16
    assert best["margins"]["outside"] == pytest.approx(best["outside_min"] - 2.0)


def test_find_min_degree_blob(built_shapes):
    # a 300-root budget is enough for the nonconvex fixture
    data = built_shapes["blob"]
    shape, cert = find_min_degree(data["build"], _certify_against(data["annulus_t"]),
                                  [32, 64, 128, 300])
    assert shape.n <= 300
    assert cert.passed


# ---------------------------------------------------------------------------
# orbit classification


def classify_one(kernel, z0, escape_radius, capture_radius, max_iter=200):
    """The classifier on a length-1 array: (status, iterations) of one orbit."""
    status, iters = classify_orbits(kernel, np.array([z0], dtype=np.complex128),
                                    escape_radius, capture_radius, max_iter)
    return OrbitStatus(int(status[0])), int(iters[0])


def test_iterate_origin_captured(circle64, cert64):
    k = circle64
    status, iterations = classify_one(k, 0j, cert64.escape_radius, cert64.capture_radius)
    assert status is OrbitStatus.INTERIOR_CAPTURED
    assert iterations == 0


def test_iterate_escapes_in_one_step(circle64):
    # with an escape radius beyond 2c, the first map application jumps out:
    # |P(2c)| = 2^65 c
    k = circle64
    z0 = 2.125 + 0j
    status, iterations = classify_one(k, z0, escape_radius=3.0, capture_radius=0.55)
    assert status is OrbitStatus.ESCAPED
    assert iterations == 1
    _, log2m = p_step_array(k, np.array([z0]))
    assert log2m[0] == pytest.approx(65 + math.log2(1.0625), abs=1)


def test_iterate_on_invariant_circle_small_budget(circle64, cert64):
    # points on |z| = c stay numerically on the invariant circle for a
    # modest budget (1-ulp drift needs ~10 doublings of degree 65 to surface)
    k = circle64
    z0 = 1.0625 * np.exp(0.31j)
    status, iterations = classify_one(k, z0, cert64.escape_radius,
                                      cert64.capture_radius, max_iter=6)
    assert status is OrbitStatus.UNDECIDED
    assert iterations == 6


def test_monotone_escape_iteration_bound(circle64, cert64):
    # a certified map sends every start outside the outer curve beyond the
    # escape radius beta in one step
    k = circle64
    rng = np.random.default_rng(11)
    for th in rng.uniform(0, 2 * np.pi, 50):
        z0 = 1.1 * np.exp(1j * th)
        status, iterations = classify_one(k, z0, cert64.escape_radius,
                                          cert64.capture_radius)
        assert status is OrbitStatus.ESCAPED
        assert iterations <= 1


def test_translation_equivariance(circle64, cert64):
    # the shifted shape has identical roots in its own frame, so iteration
    # from the same shifted-frame start matches the unshifted shape exactly
    shifted = make_circle_shape(1.0, 0.0625, 64, t=0.4 - 0.2j)
    k = circle64
    for zz in (0.3 + 0.1j, 1.2 + 0.4j, 0.9j):
        r1 = classify_one(k, zz, cert64.escape_radius, cert64.capture_radius, 50)
        r2 = classify_one(shifted, zz, cert64.escape_radius,
                          cert64.capture_radius, 50)
        assert r1 == r2


def test_constant_kernel_everything_captured():
    class ConstantKernel:
        def step(self, z):
            vals = np.zeros_like(z)
            return vals, np.full(z.shape, -math.inf)

    status, iterations = classify_one(ConstantKernel(), 5 + 5j, escape_radius=10.0,
                                      capture_radius=0.5)
    assert status is OrbitStatus.INTERIOR_CAPTURED
    assert iterations == 1


# ---------------------------------------------------------------------------
# persistence


def test_certificate_round_trip(tmp_path, cert64):
    p = tmp_path / "cert.json"
    save_certificate(cert64, p)
    c2 = load_dump(p, (EscapeCertificate,))
    assert c2 == cert64
    obj = __import__("json").loads(p.read_text())
    assert obj["sampled"] is True
    assert obj["kind"] == "escape_certificate"

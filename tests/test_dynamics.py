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
from juliafit.errors import NoDegreeFound, SamplingFailure
from juliafit.shapepoly import make_circle_shape, p_step_array
from juliafit.shapes import make_circle


@pytest.fixture(scope="module")
def circle64():
    return make_circle_shape(1.0, 0.0625, 64)


@pytest.fixture(scope="module")
def cert64(circle64, circle_annulus):
    return certify(circle64, circle_annulus, 4096, seed=0)


# ---------------------------------------------------------------------------
# certification against the circle closed form


def test_certify_circle_passes(cert64):
    c = cert64
    assert c.passed
    # closed form: |P(z)|/|z| = (|z|/c)^n; the sampled minimum sits at a
    # chord midpoint of the 512-gon, radius 1.1 cos(pi/512)
    want = (1.1 * math.cos(math.pi / 512) / 1.0625) ** 64
    assert c.outside_min_ratio == pytest.approx(want, rel=1e-3)
    assert c.outside_min_ratio > c.kappa
    assert c.kappa == pytest.approx(2.0, rel=1e-3)  # beta ~ gamma ~ 1.1
    assert c.inside_max < c.r_inner
    assert c.n_certified == 64


def test_certify_circle_constants(cert64):
    assert cert64.alpha == pytest.approx(0.9, rel=1e-3)
    assert cert64.beta == pytest.approx(1.1, rel=1e-3)
    assert cert64.gamma_inf == pytest.approx(1.1, rel=1e-3)
    assert cert64.r_inner == pytest.approx(0.55, rel=1e-3)
    assert cert64.kappa * cert64.gamma_inf > cert64.beta


def test_certify_small_degree_fails(circle_annulus):
    # closed form: expansion ratio (1.1/1.0625)^4 = 1.149 < kappa = 2
    s4 = make_circle_shape(1.0, 0.0625, 4)
    cert = certify(s4, circle_annulus, 1024, seed=0)
    assert not cert.passed
    assert cert.outside_min_ratio == pytest.approx(1.1487, rel=1e-3)


def test_certify_degenerate_annulus_sampling_failure(circle64):
    # diagonal hairline inner region: its area is a vanishing fraction of its
    # own bounding box, which starves rejection sampling
    from juliafit.curves import JordanCurve

    th = 2 * np.pi * np.arange(64) / 64
    needle = (np.cos(th) + 1e-7j * np.sin(th)) * np.exp(0.25j * np.pi) + (0.2 + 0.2j)
    ann = AnnulusSpec(outer=make_circle(3.0),
                      inner=JordanCurve.from_points(needle),
                      width_hint=0.1)
    with pytest.raises(SamplingFailure):
        certify(circle64, ann, 512, seed=0)


def test_certify_requires_origin_inside(circle64):
    ann = AnnulusSpec(outer=make_circle(1.1, center=5.0),
                      inner=make_circle(0.9, center=5.0), width_hint=0.2)
    with pytest.raises(SamplingFailure):
        certify(circle64, ann, 512, seed=0)


def test_certificate_soundness_fresh_samples(circle64, cert64, circle_annulus):
    # re-draw with a different seed: the certified bounds still hold
    rng = np.random.default_rng(999)
    inside = sample_interior(circle_annulus.inner, 2000, rng)
    _, log2m = p_step_array(circle64, inside)
    assert np.exp2(log2m).max() < cert64.r_inner
    outer = circle_annulus.outer.boundary_samples(2000) * np.exp(1j * 0.0001)
    _, log2m = p_step_array(circle64, outer)
    assert np.all(np.exp2(log2m) > cert64.kappa * np.abs(outer) * 0.999)


# ---------------------------------------------------------------------------
# minimal degree search


def _certify_against(annulus):
    return lambda shape: certify(shape, annulus, 1024, seed=0)


def test_find_min_degree_circle(circle_annulus):
    # closed form threshold: (1.1/1.0625)^n > 2  <=>  n >= 20, so 32 from
    # the doubling schedule
    shape, cert = find_min_degree(lambda n: make_circle_shape(1.0, 0.0625, n),
                                  _certify_against(circle_annulus), [8, 16, 32, 64])
    assert shape.n == 32
    assert cert.passed


def test_find_min_degree_empty_schedule(circle_annulus):
    with pytest.raises(NoDegreeFound):
        find_min_degree(lambda n: make_circle_shape(1.0, 0.0625, n),
                        _certify_against(circle_annulus), [])


def test_find_min_degree_reports_best_margins(circle_annulus):
    with pytest.raises(NoDegreeFound) as exc:
        find_min_degree(lambda n: make_circle_shape(1.0, 0.0625, n),
                        _certify_against(circle_annulus), [8, 16])
    assert exc.value.best["n_certified"] in (8, 16)


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
    z0 = 2 * circle64.capacity
    status, iterations = classify_one(k, z0, escape_radius=3.0, capture_radius=0.55)
    assert status is OrbitStatus.ESCAPED
    assert iterations == 1
    _, log2m = p_step_array(k, np.array([z0]))
    assert log2m[0] == pytest.approx(65 + math.log2(1.0625), abs=1)


def test_iterate_on_invariant_circle_small_budget(circle64, cert64):
    # points on |z| = c stay numerically on the invariant circle for a
    # modest budget (1-ulp drift needs ~10 doublings of degree 65 to surface)
    k = circle64
    z0 = circle64.capacity * np.exp(0.31j)
    status, iterations = classify_one(k, z0, cert64.escape_radius,
                                      cert64.capture_radius, max_iter=6)
    assert status is OrbitStatus.UNDECIDED
    assert iterations == 6


def test_monotone_escape_iteration_bound(circle64, cert64):
    # certified expansion implies escape within ceil(log(R/|z|)/log kappa) + 1
    k = circle64
    rng = np.random.default_rng(11)
    for th in rng.uniform(0, 2 * np.pi, 50):
        z0 = 1.1 * np.exp(1j * th)
        status, iterations = classify_one(k, z0, cert64.escape_radius,
                                          cert64.capture_radius)
        assert status is OrbitStatus.ESCAPED
        bound = math.ceil(math.log(cert64.escape_radius / abs(z0))
                          / math.log(cert64.kappa)) + 1
        assert iterations <= bound


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

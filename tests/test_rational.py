import json
import math

import numpy as np
import pytest

import oracles
from juliafit import shapepoly
from juliafit.curves import AnnulusSpec, enclosed, sample_interior
from juliafit.dumps import load_dump, save_dump
from juliafit.dynamics import MIN_SAMPLES, certify, find_min_degree, save_certificate
from juliafit.errors import (
    BadBasepoint, GeometryRejected, NoDegreeFound, ParseError, SamplingFailure,
)
from juliafit.rational import (
    AnnulusSystem,
    MultiShapeSystem,
    certify_S,
    certify_multi,
    curve_gap,
    validate_mutually_exterior,
)
from juliafit.render import EscapeField
from juliafit.shapepoly import (
    ShapePolynomial, _harmonic, _plus_one_terms, make_circle_shape, materialize,
)
from juliafit.shapes import make_circle, make_square


def circle_shape_at(center: complex, radius=1.0, eps=0.0625, n=64, t=0j):
    base = make_circle_shape(radius, eps, n)
    return ShapePolynomial(n=n, epsilon=eps, t=t, basepoint=complex(center),
                           roots=base.roots + center)


def step_at(system, z) -> complex:
    """One step of a map at one point, through ``step``."""
    vals, _ = system.step(np.array([complex(z)]))
    return complex(vals[0])


def big_omega_at(system, z):
    """(value, log2 magnitude) of the harmonic combination at one point."""
    vals, log2m = materialize(*_harmonic(_plus_one_terms(system.shapes,
                                                          np.array([complex(z)]))))
    return complex(vals[0]), float(log2m[0])


@pytest.fixture(scope="module")
def two_circle_system():
    return MultiShapeSystem(shapes=(circle_shape_at(0j, n=128),
                                    circle_shape_at(5.0 + 0j, n=128)))


@pytest.fixture(scope="module")
def two_circle_annuli():
    return [AnnulusSpec(make_circle(1.1), make_circle(0.9)),
            AnnulusSpec(make_circle(1.1, 5.0), make_circle(0.9, 5.0))]


# ---------------------------------------------------------------------------
# harmonic combination


def test_single_shape_is_exact_node_product():
    s = make_circle_shape(1.0, 0.0625, 64)
    system = MultiShapeSystem(shapes=(s,))
    rng = np.random.default_rng(1)
    for zz in rng.uniform(-2, 2, 50) + 1j * rng.uniform(-2, 2, 50):
        want = step_at(s, zz)
        got = step_at(system, zz)
        assert got == want


def test_omega_deep_inside_one_circle(two_circle_system):
    # the near-shape reciprocal dominates: |Omega| tracks the tiny node value
    v, _ = big_omega_at(two_circle_system, 0.1 + 0j)
    want = abs(0.1 / 1.0625) ** 128  # closed form for the near circle
    assert abs(v) == pytest.approx(want, rel=1e-10)


def test_omega_far_outside_both(two_circle_system):
    _, log2_abs = big_omega_at(two_circle_system, 20.0 + 0j)
    # both node products are astronomically large
    assert log2_abs > 400


def test_r_fixes_origin(two_circle_system):
    assert step_at(two_circle_system, 0j) == 0j


def test_indeterminate_on_vanishing_locus():
    # rounded arithmetic almost never hits -1 exactly, so build a shape whose
    # node product at 0 is exact: fourth roots of unity about basepoint 0 give
    # prod(0 - r_k) = (-1)(-1j)(1)(1j) = -1, so omega(0) = -1 with no rounding
    exact = ShapePolynomial(n=4, epsilon=0.1, t=0j, basepoint=0j,
                            roots=np.array([1, 1j, -1, -1j], dtype=complex))
    other = circle_shape_at(5.0 + 0j, n=8)
    # pad the other shape down to n=4 as well
    other4 = ShapePolynomial(n=4, epsilon=0.1, t=0j, basepoint=other.basepoint,
                             roots=other.roots[:4])
    system = MultiShapeSystem(shapes=(exact, other4))
    assert oracles.eval_omega(exact, 0j).add_complex(1.0).is_zero
    # the map is indeterminate there: step marks it with a NaN log2 magnitude
    _, log2m = system.step(np.array([0j]))
    assert np.isnan(log2m[0])


def test_mismatched_shapes_rejected():
    with pytest.raises(GeometryRejected):
        MultiShapeSystem(shapes=(circle_shape_at(0j, n=64),
                                 circle_shape_at(5.0, n=128)))


# ---------------------------------------------------------------------------
# multi-shape certification


def two_circles(n):
    return MultiShapeSystem(shapes=(circle_shape_at(0j, n=n),
                                    circle_shape_at(5.0, n=n)))


def test_two_circle_certificate_passes(two_circle_system, two_circle_annuli):
    cert = certify_multi(two_circle_system, two_circle_annuli, 1024)
    assert cert.passed
    assert cert.d_inner == pytest.approx(0.9, rel=1e-3)
    assert cert.beta == pytest.approx(6.1)
    assert cert.inside_max < cert.d_inner
    assert cert.outside_min > cert.beta
    assert cert.zeros_min > 1 and cert.poles_max < 1
    assert cert.sample_counts == {"inner": 2048, "outer": 2048}


def test_two_circle_low_degree_fails(two_circle_annuli):
    # |R| on the outer circle about the origin is about 1.1 (1.1 / 1.0625)**n,
    # below beta = 6.1 up to n = 49
    cert = certify_multi(two_circles(16), two_circle_annuli, 1024)
    assert not cert.passed
    assert cert.margins()["outside"] < 0


def test_two_circle_search_reports_best_attempt(two_circle_annuli):
    # both degrees fail; n = 16 has the larger worst margin (about -4.2
    # against -4.6 on the outer curves)
    with pytest.raises(NoDegreeFound) as exc:
        find_min_degree(two_circles,
                        lambda s: certify_multi(s, two_circle_annuli, 1024), [8, 16])
    assert exc.value.best["n_certified"] == 16
    assert exc.value.best["passed"] is False


def _with_root(shape, k, root):
    roots = shape.roots.copy()
    roots[k] = root
    return ShapePolynomial(n=shape.n, epsilon=shape.epsilon, t=shape.t,
                           basepoint=shape.basepoint, roots=roots)


def test_multi_root_outside_its_outer_curve_fails(two_circle_system, two_circle_annuli):
    shapes = two_circle_system.shapes
    system = MultiShapeSystem(shapes=(shapes[0], _with_root(shapes[1], 0, 5.0 + 1.2j)))
    cert = certify_multi(system, two_circle_annuli, 1024)
    assert not cert.passed
    assert cert.roots_outside == 1
    assert cert.margins()["roots"] == -1


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
def test_one_shape_multi_certificate_agrees_with_certify(n, built_shapes):
    # one shape makes R = P bit for bit, (P) vacuous and (Z) a consequence
    # of (B1): |omega + 1| = |P| / |z| > beta / |z| >= 1 on the outer curve.
    # The blob fails at 8 and 16 roots and passes from 32.
    data = built_shapes["blob"]
    shape, ann = data["build"](n), data["annulus_t"]
    want = certify(shape, ann, 1024)
    got = certify_multi(MultiShapeSystem(shapes=(shape,)), [ann], 1024)
    assert got.passed is want.passed
    for name in ("d_inner", "beta", "inside_max", "outside_min", "roots_outside",
                 "sample_counts", "n_certified"):
        assert getattr(got, name) == getattr(want, name), name
    assert got.poles_max == 0
    assert got.zeros_min > 1 or not want.passed
    assert {k: got.margins()[k] for k in want.margins()} == want.margins()


def test_multi_origin_in_no_inner_curve_rejected(two_circle_system):
    anns = [AnnulusSpec(make_circle(1.1, 2.0), make_circle(0.9, 2.0)),
            AnnulusSpec(make_circle(1.1, 5.0), make_circle(0.9, 5.0))]
    with pytest.raises(BadBasepoint, match="inside 0 inner regions"):
        certify_multi(two_circle_system, anns, 512)


def test_overlapping_annuli_rejected():
    anns = [AnnulusSpec(make_circle(1.1), make_circle(0.9)),
            AnnulusSpec(make_circle(1.1, 1.0), make_circle(0.9, 1.0))]
    with pytest.raises(GeometryRejected):
        validate_mutually_exterior(anns)


def test_nested_annuli_rejected():
    anns = [AnnulusSpec(make_circle(5.0), make_circle(4.5)),
            AnnulusSpec(make_circle(1.1), make_circle(0.9))]
    with pytest.raises(GeometryRejected):
        validate_mutually_exterior(anns)


def _r_step_scaled(system, z):
    """One application of the combined map with a scaled argument."""
    terms = [oracles.eval_omega(s, z).add_complex(1.0) for s in system.shapes]
    acc = terms[0].reciprocal()
    for t in terms[1:]:
        acc = acc.add(t.reciprocal())
    return acc.reciprocal().mul(z)


def test_growth_composition(two_circle_system, two_circle_annuli):
    # certified expansion compounds along orbits: from an outer curve,
    # |R^m(z)| >= beta q**m with q = outside_min / beta, since |R(w)| >= q |w|
    # for |w| >= beta; the scalar reference follows orbits past double range
    from oracles import ScaledComplex

    cert = certify_multi(two_circle_system, two_circle_annuli, 1024)
    assert cert.passed
    q = cert.outside_min / cert.beta
    rng = np.random.default_rng(3)
    pts = 1.1 * np.exp(1j * rng.uniform(0, 2 * np.pi, 40))
    for z0 in pts:
        z = ScaledComplex.from_value(z0)
        for m in range(1, 6):
            z = _r_step_scaled(two_circle_system, z)
            assert z.log2_abs > m * math.log2(q) + math.log2(cert.beta)


def _box_outside(rng, beta, curves):
    """Fresh points within 3 beta of the origin, outside every curve given."""
    z = 3 * beta * (rng.uniform(-1, 1, 8000) + 1j * rng.uniform(-1, 1, 8000))
    z = z[(np.abs(z) <= 3 * beta) & ~enclosed(z, curves)]
    assert z.size > 4000
    return z


def _escape_claims_hold(system, z, beta, rng) -> bool:
    """Every fresh point z lands outside B(0, beta), and |map(w)| > |w| for
    fresh w with beta <= |w| <= 3 beta."""
    w = rng.uniform(beta, 3 * beta, 4000) * np.exp(2j * np.pi * rng.uniform(size=4000))
    return bool(np.all(system.step(z)[1] > math.log2(beta))
                and np.all(system.step(w)[1] > np.log2(np.abs(w))))


@pytest.mark.parametrize("n, certified", [(64, True), (16, False)])
def test_multi_certificate_soundness_fresh_points(n, certified, two_circle_annuli):
    # fresh random points, none of them certification samples, meet both
    # trapping claims at the certified degree of the doubling search; at 16
    # roots some points outside the outer curves land inside B(0, beta)
    certify_at = lambda s: certify_multi(s, two_circle_annuli, 1024)
    system, cert = find_min_degree(two_circles, certify_at, [8, 16, 32, 64, 128])
    assert cert.n_certified == 64
    if not certified:
        system = two_circles(n)
        assert not certify_at(system).passed
    rng = np.random.default_rng(999)
    if certified:
        for a in two_circle_annuli:
            _, log2m = system.step(sample_interior(a.inner, 4000, rng))
            assert np.all(log2m < math.log2(cert.capture_radius))
    outside = _box_outside(rng, cert.beta, [a.outer for a in two_circle_annuli])
    assert _escape_claims_hold(system, outside, cert.beta, rng) is certified


# ---------------------------------------------------------------------------
# annulus map


#: the bands E and F of two circles about -1.5, in the frame shifted by 1.5
ROUND_BANDS = (AnnulusSpec(make_circle(2.05, -1.5), make_circle(1.95, -1.5)),
               AnnulusSpec(make_circle(1.05, -1.5), make_circle(0.95, -1.5)))


def round_annulus(n):
    t = 1.5
    ctr = -t
    outer_shape = circle_shape_at(ctr, radius=2.0, eps=2.0 ** -6, n=n, t=t)
    inner_shape = circle_shape_at(ctr, radius=1.0, eps=2.0 ** -5, n=n, t=t)
    return AnnulusSystem(outer_shape=outer_shape, inner_shape=inner_shape)


@pytest.fixture(scope="module")
def round_annulus_system():
    return round_annulus(256)


def test_certify_round_annulus(round_annulus_system):
    cert = certify_S(round_annulus_system, *ROUND_BANDS, 1024)
    assert cert.passed
    # the middle region is 0.5 < |z + 1.5| < 1.95 seen from -1.5, so r is
    # the distance 0.45 to the inner band's outer circle
    assert cert.d_inner == pytest.approx(0.45, rel=1e-3)
    assert cert.beta == pytest.approx(3.55)
    assert cert.inside_max < cert.d_inner
    assert cert.outside_min > cert.beta
    assert cert.zeros_min > 1
    assert cert.q_inner_max < 1 < cert.q_outer_min
    assert cert.sample_counts == {"inner": 2048, "outer": 2048}


def test_annulus_root_outside_its_outer_curve_fails(round_annulus_system):
    s = round_annulus_system
    moved = _with_root(s.inner_shape, 0, -1.5 + 1.2j)
    cert = certify_S(AnnulusSystem(outer_shape=s.outer_shape, inner_shape=moved),
                     *ROUND_BANDS, 1024)
    assert not cert.passed
    assert cert.roots_outside == 1
    assert cert.margins()["roots"] == -1


def test_round_annulus_search_reports_best_attempt():
    # 256 roots certify (test above); 16 and 64 fail, and n = 64 has the
    # larger worst margin (about -2.6 against -2.9 on the escape bound)
    with pytest.raises(NoDegreeFound) as exc:
        find_min_degree(round_annulus, lambda s: certify_S(s, *ROUND_BANDS, 1024),
                        [16, 64])
    assert exc.value.best["n_certified"] == 64
    assert exc.value.best["passed"] is False


@pytest.mark.parametrize("n, certified", [(256, True), (64, False)])
def test_annulus_certificate_soundness_fresh_points(n, certified):
    # as above for the annulus map: the middle region is captured, and points
    # inside the inner band's inner curve or outside the outer curves escape;
    # at 64 roots some points outside the outer curves land inside B(0, beta)
    certify_at = lambda s: certify_S(s, *ROUND_BANDS, 1024)
    system, cert = find_min_degree(round_annulus, certify_at, [16, 32, 64, 128, 256])
    assert cert.n_certified == 256
    if not certified:
        system = round_annulus(n)
        assert not certify_at(system).passed
    E, F = ROUND_BANDS
    rng = np.random.default_rng(999)
    if certified:
        _, log2m = system.step(sample_interior(E.inner, 4000, rng, exclude=F.outer))
        assert np.all(log2m < math.log2(cert.capture_radius))
    escaping = np.concatenate([sample_interior(F.inner, 4000, rng),
                               _box_outside(rng, cert.beta, [E.outer])])
    assert _escape_claims_hold(system, escaping, cert.beta, rng) is certified


@pytest.mark.parametrize("kind", ["escape", "multi", "annulus"])
def test_every_certificate_dump_has_its_verdict(kind, circle_annulus, two_circle_system,
                                                two_circle_annuli, round_annulus_system,
                                                tmp_path):
    if kind == "escape":
        cert = certify(make_circle_shape(1.0, 0.0625, 64), circle_annulus, 1024)
    elif kind == "multi":
        cert = certify_multi(two_circle_system, two_circle_annuli, 1024)
    else:
        cert = certify_S(round_annulus_system, *ROUND_BANDS, 1024)
    path = tmp_path / "certificate.json"
    save_certificate(cert, path)
    obj = json.loads(path.read_text())
    assert obj["passed"] is cert.passed is True
    assert obj["n_certified"] == cert.n_certified
    assert obj["margins"] == cert.margins()
    assert (obj["escape_radius"], obj["capture_radius"]) == (cert.escape_radius,
                                                             cert.capture_radius)
    assert load_dump(path, (type(cert),)) == cert


@pytest.mark.parametrize("kind", ["escape", "multi", "annulus"])
def test_certificates_need_min_samples(kind, circle_annulus, two_circle_system,
                                       two_circle_annuli, round_annulus_system):
    with pytest.raises(SamplingFailure, match=f"at least {MIN_SAMPLES}"):
        if kind == "escape":
            certify(make_circle_shape(1.0, 0.0625, 64), circle_annulus, MIN_SAMPLES - 1)
        elif kind == "multi":
            certify_multi(two_circle_system, two_circle_annuli, MIN_SAMPLES - 1)
        else:
            certify_S(round_annulus_system, *ROUND_BANDS, MIN_SAMPLES - 1)


def test_annulus_orbit_of_origin_stays_bounded(round_annulus_system):
    cert = certify_S(round_annulus_system, *ROUND_BANDS, 1024)
    z = 0j
    for _ in range(100):
        z = step_at(round_annulus_system, z)
        assert abs(z) < cert.capture_radius


def test_annulus_inner_disk_blows_up(round_annulus_system):
    # reciprocal term dominates inside the inner curve
    v = step_at(round_annulus_system, -1.5 + 0j)
    assert abs(v) > certify_S(round_annulus_system, *ROUND_BANDS, 512).escape_radius


def test_annulus_outer_growth(round_annulus_system):
    for z in (2.2 + 0j, -5.0 + 1j, 8j):
        # a value too large for a double is inf
        mag = abs(step_at(round_annulus_system, z))
        assert mag > 2 * abs(z)


def test_annulus_basepoint_must_be_in_middle():
    # basepoint inside the inner disk: bands both contain the origin wrongly
    ctr = -0.0j
    outer_shape = circle_shape_at(ctr, 2.0, 2.0 ** -6, 64)
    inner_shape = circle_shape_at(ctr, 1.0, 2.0 ** -5, 64)
    e_band = AnnulusSpec(make_circle(2.05, ctr), make_circle(1.95, ctr))
    f_band = AnnulusSpec(make_circle(1.05, ctr), make_circle(0.95, ctr))
    system = AnnulusSystem(outer_shape=outer_shape, inner_shape=inner_shape)
    with pytest.raises(BadBasepoint):
        certify_S(system, e_band, f_band, 512)


def test_curve_gap():
    assert curve_gap(make_circle(2.0), make_circle(1.0)) == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# kernels and persistence


def test_multi_kernel_matches_scalar(two_circle_system):
    k = two_circle_system
    z = np.array([0.3 + 0.1j, 5.2 - 0.1j, 2.5 + 0j, 20.0 + 0j])
    vals, log2m = k.step(z)
    for i, zz in enumerate(z):
        want = oracles.eval_R(two_circle_system, zz)
        if hasattr(want, "log2_magnitude"):
            assert log2m[i] == pytest.approx(want.log2_magnitude, rel=1e-9)
        else:
            assert abs(vals[i] - want) <= 1e-11 * abs(want) + 1e-14 * abs(zz)


def test_annulus_kernel_matches_scalar(round_annulus_system):
    # -1.5 is the inner-disk center, a pole of the map: the value there is a
    # cancellation-noise reciprocal, so only its magnitude class is checked
    k = round_annulus_system
    z = np.array([0j, 2.2 + 0j, 0.4 + 0.2j])
    vals, log2m = k.step(z)
    for i, zz in enumerate(z):
        want = oracles.eval_S(round_annulus_system, zz)
        assert abs(vals[i] - want) <= 1e-11 * abs(want) + 1e-13
    pole = np.array([-1.5 + 0j])
    _, log2m = k.step(pole)
    assert log2m[0] > 30
    assert abs(oracles.eval_S(round_annulus_system, -1.5 + 0j)) > 2.0 ** 30


@pytest.mark.parametrize("system", ["multi", "annulus"])
def test_system_steps_match_every_8_reference(system, two_circle_system,
                                              round_annulus_system, monkeypatch):
    # the node product renormalized once per block against the every-8
    # reference, through each system's step
    k = two_circle_system if system == "multi" else round_annulus_system
    rng = np.random.default_rng(11)
    z = k.roots.mean() + 4.0 * np.sqrt(rng.uniform(0, 1, 500)) * np.exp(
        2j * np.pi * rng.uniform(0, 1, 500))
    for pts in (z, z[:1]):
        got = k.step(pts)
        with monkeypatch.context() as m:
            m.setattr(shapepoly, "omega_scaled_array", oracles.omega_scaled_array)
            want = k.step(pts)
        for a, b in zip(got, want):
            assert a.view(np.float64).view(np.int64).tolist() == \
                b.view(np.float64).view(np.int64).tolist()


def test_system_dump_round_trip(two_circle_system, tmp_path):
    p = tmp_path / "system.json"
    save_dump(two_circle_system, p)
    s2 = load_dump(p, (MultiShapeSystem,))
    assert s2.m == 2
    assert np.array_equal(s2.shapes[0].roots, two_circle_system.shapes[0].roots)
    assert np.array_equal(s2.shapes[1].roots, two_circle_system.shapes[1].roots)


def test_annulus_dump_round_trip(round_annulus_system, tmp_path):
    # the dump holds the two shapes and no bands
    p = tmp_path / "ann.json"
    save_dump(round_annulus_system, p)
    assert list(json.loads(p.read_text())) == ["kind", "outer_shape", "inner_shape"]
    s2 = load_dump(p, (AnnulusSystem,))
    assert np.array_equal(s2.outer_shape.roots, round_annulus_system.outer_shape.roots)
    assert np.array_equal(s2.inner_shape.roots, round_annulus_system.inner_shape.roots)


def test_load_dump_rejects_other_kinds(two_circle_system, tmp_path):
    p = tmp_path / "system.json"
    save_dump(two_circle_system, p)
    for types in ((ShapePolynomial,), (AnnulusSystem,), (EscapeField,)):
        with pytest.raises(ParseError):
            load_dump(p, types)


# ---------------------------------------------------------------------------
# curves that meet only at vertices


def test_annuli_crossing_at_vertices_rejected(squares_touching_at_vertices):
    a, b = squares_touching_at_vertices
    assert curve_gap(a, b) == 0.0
    anns = [AnnulusSpec(a, make_circle(0.1, 0.5 + 0.5j)),
            AnnulusSpec(b, make_circle(0.1, 1.0 + 1.0j))]
    with pytest.raises(GeometryRejected):
        validate_mutually_exterior(anns)


def test_annulus_bands_crossing_at_vertices_rejected(squares_touching_at_vertices):
    a, b = squares_touching_at_vertices
    outer_band = AnnulusSpec(make_square(3.0, -1.0 - 1.0j), a)
    inner_band = AnnulusSpec(b, make_circle(0.1, 1.0 + 1.0j))
    system = AnnulusSystem(outer_shape=circle_shape_at(0j, 2.0),
                           inner_shape=circle_shape_at(0j, 0.5))
    with pytest.raises(GeometryRejected, match="inside the outer band"):
        certify_S(system, outer_band, inner_band, 512)


def test_annulus_bands_apart_rejected():
    # neither band meets the other, but the inner curve's band lies beside
    # the outer one instead of inside it
    outer_band = AnnulusSpec(make_circle(2.05), make_circle(1.95))
    inner_band = AnnulusSpec(make_circle(1.05, 5.0), make_circle(0.95, 5.0))
    system = AnnulusSystem(outer_shape=circle_shape_at(0j, 2.0),
                           inner_shape=circle_shape_at(5.0, 1.0))
    with pytest.raises(GeometryRejected, match="inside the outer band"):
        certify_S(system, outer_band, inner_band, 512)

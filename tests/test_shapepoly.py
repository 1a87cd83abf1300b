import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from helpers import boundary_table
from juliafit import shapepoly
from juliafit.curves import AnnulusSpec, offset_annulus, winding_numbers
from juliafit.dumps import load_dump, save_dump
from juliafit.errors import DuplicateRoots, NoEpsilon, OffsetCollapse
from juliafit.shapepoly import (
    EPS_COARSE,
    EPS_SAMPLES,
    ShapePolynomial,
    make_circle_shape,
    materialize,
    omega_scaled_array,
    p_step_array,
    sample_roots,
    select_epsilon,
)
from juliafit.shapes import make_circle, make_ellipse
from oracles import ScaledComplex, eval_P_scaled, scaled_power

#: the circle64 shape's circle radius, (1 + epsilon) * 1
C64 = 1.0625


# ---------------------------------------------------------------------------
# scaled arithmetic of the scalar reference (tests/oracles.py)

finite_c = st.complex_numbers(min_magnitude=1e-150, max_magnitude=1e150,
                              allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=200)
@given(finite_c)
def test_scaled_round_trip(z):
    got = ScaledComplex.from_value(z).to_complex()
    ratio = max(abs(z.real), abs(z.imag)) / max(min(abs(z.real), abs(z.imag)), 5e-324)
    if ratio < 2.0 ** 900:
        assert got == z
    else:
        # the tiny component sits below the mantissa's double range
        assert abs(got - z) <= 1e-15 * abs(z)


@settings(deadline=None, max_examples=200)
@given(finite_c, finite_c)
def test_scaled_mul_matches_complex(a, b):
    got = ScaledComplex.from_value(a).mul(ScaledComplex.from_value(b))
    want = a * b
    if want == 0 or not 1e-290 < abs(want) < 1e290:
        return
    assert got.to_complex() == pytest.approx(want, rel=1e-15)


@settings(deadline=None, max_examples=200)
@given(finite_c, finite_c)
@example(complex(-1e-150, 0.0), complex(1e-150, 2.225073858507e-311))  # a subnormal sum
def test_scaled_add_matches_complex(a, b):
    got = ScaledComplex.from_value(a).add(ScaledComplex.from_value(b))
    want = a + b
    if abs(want) < 1e-280 * max(abs(a), abs(b)):
        return  # catastrophic cancellation: either answer is fine
    assert got.to_complex() == pytest.approx(want, rel=1e-12)


def test_scaled_huge_products_never_overflow():
    x = ScaledComplex.from_value(1e200 + 1e200j)
    y = x
    for _ in range(10):
        y = y.mul(y)
    assert y.log2_abs > 600_000
    with pytest.raises(OverflowError):
        y.to_complex()


def test_scaled_exponent_saturates():
    x = ScaledComplex.from_value(2.0)
    y = ScaledComplex(x.mantissa, 2 ** 30 - 1)
    z = y.mul(y)
    assert z.exponent == 2 ** 30


def test_scaled_power_matches_pow():
    assert scaled_power(1.0625, -64).to_complex() == pytest.approx(1.0625 ** -64, rel=1e-14)
    assert scaled_power(2j, 10).to_complex() == pytest.approx((2j) ** 10, rel=1e-14)


def test_scaled_zero():
    z = ScaledComplex.from_value(0)
    assert z.is_zero and z.to_complex() == 0 and z.log2_abs == -math.inf


# ---------------------------------------------------------------------------
# circle closed forms


@pytest.fixture(scope="module")
def circle64():
    return make_circle_shape(radius=1.0, epsilon=0.0625, n=64)


def omega_at(shape, z) -> complex:
    """The node product at one point: the array kernel on a length-1 array."""
    vals, _ = materialize(*omega_scaled_array(shape, np.array([complex(z)])))
    return complex(vals[0])


def step_at(shape, z) -> complex:
    """One step of the map at one point, through ``step``."""
    vals, _ = shape.step(np.array([complex(z)]))
    return complex(vals[0])


def test_omega_matches_circle_closed_form(circle64):
    c = C64
    rng = np.random.default_rng(42)
    z = (rng.uniform(-1, 1, 100) + 1j * rng.uniform(-1, 1, 100)) * 3 * abs(c)
    for zz in z:
        got = omega_at(circle64, zz)
        want = (zz / c) ** 64 - 1
        assert abs(got - want) <= 1e-10 * abs(want)


def test_omega_at_zero_is_minus_one(circle64):
    assert omega_at(circle64, 0j) == pytest.approx(-1.0, abs=1e-13)


def test_omega_at_twice_capacity(circle64):
    got = omega_at(circle64, 2 * C64)
    assert got == pytest.approx(2.0 ** 64 - 1, rel=1e-12)


def test_omega_vanishes_at_roots(circle64):
    for r in circle64.roots[:8]:
        assert omega_at(circle64, r) == 0


def test_roots_are_fixed_points(circle64):
    for r in circle64.roots:
        assert step_at(circle64, r) == complex(r)


def test_p_at_origin(circle64):
    assert step_at(circle64, 0j) == 0j


def test_p_circle_closed_form(circle64):
    c = C64
    z = c * np.exp(0.7j)
    assert abs(step_at(circle64, z)) == pytest.approx(abs(c), rel=1e-12)


def test_escaped_large_sentinel(circle64):
    # too large for a double: an inf value with a finite log2 magnitude
    vals, log2m = circle64.step(np.array([1e30 + 0j]))
    assert np.isinf(vals[0])
    # |P(z)| ~ |z|^(n+1) / |c|^n
    want = 65 * math.log2(1e30) - 64 * math.log2(1.0625)
    assert log2m[0] == pytest.approx(want, rel=1e-6)


def test_scaled_orbit_composition(circle64):
    # closed form: log2|P(z)| = (n+1) log2|z| - n log2|c|
    z = ScaledComplex.from_value(2 * C64)
    lz = z.log2_abs
    lc = math.log2(C64)
    for _ in range(3):
        z = eval_P_scaled(circle64, z)
        want = 65 * lz - 64 * lc
        assert z.log2_abs == pytest.approx(want, rel=1e-9)
        lz = z.log2_abs


# ---------------------------------------------------------------------------
# vectorized path


def test_vectorized_matches_scalar(circle64):
    rng = np.random.default_rng(7)
    z = (rng.uniform(-2, 2, 64) + 1j * rng.uniform(-2, 2, 64))
    w, e = omega_scaled_array(circle64, z)
    for i, zz in enumerate(z):
        sc = oracles.eval_omega(circle64, zz)
        got = math.ldexp(w[i].real, int(e[i]) - sc.exponent) \
            + 1j * math.ldexp(w[i].imag, int(e[i]) - sc.exponent)
        assert got == pytest.approx(sc.mantissa, rel=1e-12)


def test_p_step_array_matches_eval(circle64):
    # deep inside the shape omega + 1 cancels catastrophically (the true
    # value is exponentially small), so agreement there is absolute-level
    # noise far below the capture radius, not relative
    z = np.array([0.5 + 0.2j, 1.0 + 1.0j, 0j])
    vals, log2m = p_step_array(circle64, z)
    for i, zz in enumerate(z):
        want = oracles.eval_P(circle64, zz)
        assert abs(vals[i] - want) <= 1e-12 * abs(want) + 1e-14 * abs(zz)


def assert_cap_pow_matches_scalar_reference(shape):
    # the kernel's product and the scalar one differ by a few ulps per factor
    want = oracles.cap_pow(shape)
    got = shape.cap_pow
    aligned = got.mantissa * 2.0 ** (got.exponent - want.exponent)
    assert abs(aligned - want.mantissa) <= shape.n * 2.0 ** -50 * abs(want.mantissa)


CIRCLES = [(1.0, 64), (0.1, 512), (7.5, 300), (1e-3, 100)]


@pytest.mark.parametrize("radius,n", CIRCLES)
def test_cap_pow_matches_reference_bit_for_bit(radius, n):
    # -1 over the every-8 reference node product at the basepoint
    shape = make_circle_shape(radius, 0.0625, n)
    w, e = oracles.node_product(shape, np.array([shape.basepoint]))
    want = ScaledComplex.from_value(-1.0 / complex(w[0]))
    assert (shape.cap_pow.mantissa, shape.cap_pow.exponent) == (
        want.mantissa, want.exponent - int(e[0]))


@pytest.mark.parametrize("radius,n", CIRCLES)
def test_cap_pow_matches_scalar_reference(radius, n):
    # on a circle about its basepoint 0, -1/prod(0 - r_k) is (1.0625 radius)**-n
    shape = make_circle_shape(radius, 0.0625, n)
    assert_cap_pow_matches_scalar_reference(shape)
    want = scaled_power(1.0625 * radius, -n)
    aligned = shape.cap_pow.mantissa * 2.0 ** (shape.cap_pow.exponent - want.exponent)
    assert aligned == pytest.approx(want.mantissa, rel=n * 2.0 ** -48)


@settings(deadline=None, max_examples=40)
@given(st.integers(8, 600), st.integers(0, 2 ** 32 - 1), st.complex_numbers(max_magnitude=0.5))
def test_cap_pow_matches_scalar_reference_off_centre(n, seed, basepoint):
    shape = jittered_shape(n, seed, basepoint=basepoint)
    assert_cap_pow_matches_scalar_reference(shape)


def test_omega_is_minus_one_at_each_basepoint(built_shapes, fixture_systems):
    shapes = [data["build"](n) for data in built_shapes.values() for n in (8, 64, 512)]
    rational, annulus = fixture_systems["rational"][0], fixture_systems["annulus"][0]
    shapes += [*rational.shapes, annulus.outer_shape, annulus.inner_shape]
    for shape in shapes:
        assert abs(omega_at(shape, shape.basepoint) + 1) <= shape.n * 2.0 ** -50


def test_p_step_array_keeps_roots_fixed_past_the_cutoff():
    # cap_pow = 0.10625**-n is about 2**1657 here: a root's exact-zero node
    # product must still give omega + 1 == 1, not 0 * 2**1657
    shape = make_circle_shape(0.1, 0.0625, 512)
    assert shape.cap_pow.exponent == 1657
    vals, log2m = p_step_array(shape, shape.roots)
    assert np.array_equal(vals, shape.roots)
    assert np.allclose(log2m, np.log2(np.abs(shape.roots)))
    assert step_at(shape, shape.roots[3]) == shape.roots[3]


@pytest.mark.parametrize("radius,n", [(1.0, 64), (0.1, 512)])
def test_single_point_evaluation_matches_reference(radius, n):
    # the length-1 array path against the scalar reference near the roots,
    # away from the catastrophic cancellation deep inside the shape; in the
    # original frame the caller shifts by t itself
    shape = make_circle_shape(radius, 0.0625, n, t=0.3 - 0.2j)
    rng = np.random.default_rng(17)
    c = 1.0625 * radius
    z = c * rng.uniform(0.97, 1.03, 40) * np.exp(2j * np.pi * rng.uniform(0, 1, 40))
    for zz in z:
        w, e = omega_scaled_array(shape, np.array([zz]))
        want = oracles.eval_omega(shape, zz)
        aligned = complex(w[0]) * 2.0 ** (int(e[0]) - want.exponent)
        assert aligned == pytest.approx(want.mantissa, rel=1e-13)
        for frame, zf, shift in (("translated", zz, 0j), ("original", zz + shape.t, shape.t)):
            got = step_at(shape, zf - shift) + shift
            want = oracles.eval_P(shape, zf, frame)
            assert got == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# block renormalization against the every-8 reference (tests/oracles.py)


def bits(w, e):
    """The exact bits of a scaled array: mantissa words (signed zeros and NaN
    payloads included) and exponents."""
    return w.view(np.float64).view(np.int64).tolist(), e.tolist()


def jittered_shape(n, seed, cluster=None, basepoint=0j):
    """n distinct roots about a unit circle, or within `cluster` of 0.3."""
    rng = np.random.default_rng(seed)
    ring = np.exp(2j * np.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n)
    scale = rng.uniform(0.5, 1.5, n)
    roots = ring * scale if cluster is None else 0.3 + cluster * ring * scale
    return ShapePolynomial(n=n, epsilon=0.0625, t=0j, basepoint=basepoint, roots=roots)


def kernel_points(shape, count, seed, spread, on_roots=0.2):
    """count points, uniform over a disk of radius `spread` about the roots'
    centre; about a share `on_roots` of them exact roots, and as many roots
    moved by 1e-12 of their modulus."""
    rng = np.random.default_rng(seed)
    centre = shape.roots.mean()
    z = centre + spread * np.sqrt(rng.uniform(0, 1, count)) * np.exp(
        2j * np.pi * rng.uniform(0, 1, count))
    pick = rng.integers(0, shape.n, count)
    on = rng.uniform(0, 1, count) < on_roots
    near = rng.uniform(0, 1, count) < on_roots
    z[on] = shape.roots[pick[on]]
    z[near] = shape.roots[pick[near]] * (1 + 1e-12 * np.exp(2j * np.pi * rng.uniform()))
    return z


@settings(deadline=None, max_examples=80)
@given(st.integers(8, 600), st.sampled_from([0, 1, 2, 37]), st.integers(0, 2 ** 32 - 1),
       st.floats(0.1, 3.0), st.sampled_from([0.0, 0.2]))
def test_block_kernel_matches_every_8_reference(n, count, seed, spread, on_roots):
    # an exact root makes a zero, which sends the call to blocks of 8
    shape = jittered_shape(n, seed)
    z = kernel_points(shape, count, seed, spread, on_roots)
    assert bits(*omega_scaled_array(shape, z)) == bits(*oracles.omega_scaled_array(shape, z))


@settings(deadline=None, max_examples=40)
@given(st.integers(8, 300), st.integers(0, 2 ** 32 - 1), st.floats(-9.0, -1.0))
def test_block_kernel_on_clustered_roots(n, seed, log_cluster):
    # roots within 10**log_cluster of one point: the products of points in
    # the cluster end a block of 64 far below 2**-500 (the fallback to blocks
    # of 8) or, for wide clusters and short blocks, just above it
    shape = jittered_shape(n, seed, cluster=10.0 ** log_cluster)
    z = kernel_points(shape, 33, seed, 2 * 10.0 ** log_cluster, on_roots=0.0)
    assert bits(*omega_scaled_array(shape, z)) == bits(*oracles.omega_scaled_array(shape, z))


def test_block_kernel_falls_back_on_a_deep_cluster(monkeypatch):
    shape = jittered_shape(200, 5, cluster=1e-6)
    z = kernel_points(shape, 50, 5, 1e-6, on_roots=0.0)
    blocks = []
    node_product = shapepoly._node_product

    def spy(shape, z, k):
        out = node_product(shape, z, k)
        blocks.append((k, out is None))
        return out

    monkeypatch.setattr(shapepoly, "_node_product", spy)
    assert bits(*omega_scaled_array(shape, z)) == bits(*oracles.omega_scaled_array(shape, z))
    assert blocks == [(64, True), (8, False)]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e300, 1e17 + 1e17j])
def test_block_kernel_non_finite_and_huge_points_use_blocks_of_8(bad, circle64):
    z = np.array([0.3 + 0.2j, bad, 1.1 - 0.4j])
    assert shapepoly._block_length(circle64, z) == 8
    with np.errstate(all="ignore"):
        assert bits(*omega_scaled_array(circle64, z)) == bits(
            *oracles.omega_scaled_array(circle64, z))


def test_block_length_follows_the_factor_bound(circle64):
    # max|r| = 1.0625: u**k <= 2**256 for the largest multiple of 8 up to 64
    assert shapepoly._block_length(circle64, np.zeros(0, complex)) == 64
    assert shapepoly._block_length(circle64, np.array([14.9 + 0j])) == 64
    assert shapepoly._block_length(circle64, np.array([30.0 + 0j])) == 48
    assert shapepoly._block_length(circle64, np.array([2.0 ** 20 + 0j])) == 8


@pytest.mark.parametrize("n", [64, 300, 512])
def test_p_step_array_matches_every_8_reference(n, monkeypatch):
    shape = jittered_shape(n, n)
    z = kernel_points(shape, 200, n, 2.0, on_roots=0.0)
    got = p_step_array(shape, z)
    monkeypatch.setattr(shapepoly, "omega_scaled_array", oracles.omega_scaled_array)
    assert bits(*got) == bits(*p_step_array(shape, z))


# ---------------------------------------------------------------------------
# inflation selection and root sampling


def test_select_epsilon_circle(circle_map, circle_annulus):
    ann_t = circle_annulus.translated(-circle_map.t)
    eps = select_epsilon(circle_map, ann_t)
    assert eps == 0.0625


def test_select_epsilon_generous_ellipse(ellipse_map):
    outer = make_ellipse(1.7, 0.7)
    inner = make_ellipse(1.3, 0.3)
    ann = AnnulusSpec(outer=outer, inner=inner)
    eps = select_epsilon(ellipse_map, ann.translated(-ellipse_map.t))
    assert eps >= 2.0 ** -3


def test_select_epsilon_hairline_annulus(circle_map):
    ann = AnnulusSpec(outer=make_circle(1.0 + 1e-9),
                      inner=make_circle(1.0 - 1e-9)).translated(-circle_map.t)
    for search in (select_epsilon, oracles.select_epsilon):
        with pytest.raises(NoEpsilon):
            search(circle_map, ann)


def test_select_epsilon_matches_full_ring_search(built_shapes):
    for name, data in built_shapes.items():
        assert select_epsilon(data["map"], data["band"]) == \
            oracles.select_epsilon(data["map"], data["band"]), name


@settings(deadline=None, max_examples=8)
@given(st.floats(0.0002, 0.1))
def test_select_epsilon_matches_full_ring_search_on_offsets(built_shapes, rel):
    # the band of each fixture at other offset distances: a narrower band
    # takes more halvings (2**-14 for the blob at 0.0002 times the diameter)
    for name, data in built_shapes.items():
        curve = data["curve"]
        shift = -data["t"] - data["map"].t
        try:
            band = offset_annulus(curve, rel * curve.diameter).translated(shift)
        except OffsetCollapse:
            continue
        try:
            want = oracles.select_epsilon(data["map"], band)
        except NoEpsilon:
            with pytest.raises(NoEpsilon):
                select_epsilon(data["map"], band)
            continue
        assert select_epsilon(data["map"], band) == want, name


def test_select_epsilon_screens_coarse_first(built_shapes, monkeypatch):
    data = built_shapes["blob"]
    points = []
    real = shapepoly.evaluate_map

    def counting(m, w):
        points.append(np.size(w))
        return real(m, w)

    monkeypatch.setattr(shapepoly, "evaluate_map", counting)
    eps = select_epsilon(data["map"], data["band"])
    assert eps == data["epsilon"]
    tried = round(-math.log2(eps))
    assert sum(points) <= EPS_SAMPLES + tried * EPS_SAMPLES // EPS_COARSE


#: sha256 over each built fixture map's boundary table, its inflation and its
#: roots at n = 64; a chain-kernel change that moves a bit of the map or of
#: the search changes it
FIXTURE_DIGESTS = {
    "circle": "95e9a29212567d5c4e7a65c367f10326df5bd9a0986424f231976d0839d12482",
    "ellipse": "a9845ab508b5fb7da7dbc41fc6dc9962aaf022ff5a417aee54ea78c4f34736a8",
    "square": "1fef6fb4f39e1a2875626f19f631c4a15ec83acade3eb57ccbed7d348d8d34af",
    "blob": "2f0d93e994245c5ac51643cf3018104da597658cb99eb992082c84ebbf7ee290",
}


def test_fixture_map_digest_regression(built_shapes):
    got = {}
    for name, data in built_shapes.items():
        m = data["map"]
        h = hashlib.sha256()
        for part in (boundary_table(m), np.float64(data["epsilon"]),
                     data["build"](64).roots):
            h.update(part.tobytes())
        got[name] = h.hexdigest()
    assert got == FIXTURE_DIGESTS


def test_sample_roots_circle(circle_map):
    s = sample_roots(circle_map, 0.0625, 64, t=0j)
    assert np.allclose(np.abs(s.roots), 1.0625, atol=2e-4)
    assert s.basepoint == circle_map.t
    # |cap_pow| = 1/prod|p - r_k| is 1.0625**-64 up to the roots' spread
    log2_cap = math.log2(abs(s.cap_pow.mantissa)) + s.cap_pow.exponent
    assert log2_cap == pytest.approx(-64 * math.log2(1.0625), abs=0.01)
    assert s.n == 64


def test_sample_roots_conjugation_symmetry(ellipse_map):
    # axis-aligned ellipse: the root set is conjugation-symmetric up to the
    # anchor-gauge quantization
    from juliafit.curves import hausdorff_distance

    s = sample_roots(ellipse_map, 0.0625, 8, t=0j)
    assert hausdorff_distance(np.conj(s.roots), s.roots) < 1e-3


def test_roots_inside_annulus(built_shapes):
    for name, data in built_shapes.items():
        shape = data["build"](64)
        ann_t = data["annulus_t"]
        assert np.all(oracles.strictly_in_band(ann_t, shape.roots)), name


def test_sample_roots_minimum_count(circle_map):
    with pytest.raises(DuplicateRoots):
        sample_roots(circle_map, 0.0625, 4, t=0j)


def test_duplicate_roots_rejected():
    roots = np.array([1.0 + 0j, 1.0 + 0j, 2.0 + 0j, 3j, 4j, 5j, 6j, 7j])
    with pytest.raises(DuplicateRoots):
        ShapePolynomial(n=8, epsilon=0.1, t=0j, basepoint=0j, roots=roots)


# ---------------------------------------------------------------------------
# persistence


def test_shape_dump_round_trip(tmp_path, circle64):
    p = tmp_path / "shape.json"
    save_dump(circle64, p)
    s2 = load_dump(p, (ShapePolynomial,))
    assert s2.n == circle64.n
    assert s2.epsilon == circle64.epsilon
    assert s2.t == circle64.t
    assert s2.basepoint == circle64.basepoint
    assert s2.cap_pow == circle64.cap_pow
    assert np.array_equal(s2.roots, circle64.roots)


def test_shape_dump_reverifies(tmp_path, circle64):
    import json

    p = tmp_path / "shape.json"
    save_dump(circle64, p)
    obj = json.loads(p.read_text())
    obj["roots"][1] = obj["roots"][0]
    p.write_text(json.dumps(obj))
    with pytest.raises(DuplicateRoots):
        load_dump(p, (ShapePolynomial,))

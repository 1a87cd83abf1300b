import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import LARGE_BATCH, boundary_table, centroid_map, small_chunks
from juliafit import conformal
from juliafit.conformal import (
    BOUNDARY_TABLE,
    _chain_pullback,
    _series_eval,
    build_exterior_map,
    evaluate_map,
    laurent_coefficients,
)
from juliafit.curves import distance_to_polyline, resample_closed
from juliafit.errors import Aliasing, BadBasepoint, MapDiverged, OutOfDomain
from juliafit.shapes import FIXTURES, make_blob, make_circle, make_ellipse, make_square

# logarithmic capacity of a square per unit side: Gamma(1/4)^2 / (4 pi^(3/2))
SQUARE_CAPACITY = 0.5901702995080481


def joukowski(w, a=1.5, b=0.5):
    """Closed-form exterior map of the axis-aligned ellipse."""
    return ((a + b) * w + (a - b) / w) / 2.0


def capacity(m) -> complex:
    """The map's leading Laurent coefficient, the curve's capacity."""
    return laurent_coefficients(m)[0]


# ---------------------------------------------------------------------------
# construction on the reference shapes


def test_circle_capacity_and_anchor(circle_map):
    m = circle_map
    assert abs(capacity(m)) == pytest.approx(1.0, rel=1e-5)
    # anchor: w = 1 lands on the rightmost curve point
    anchor, v = evaluate_map(m, np.array([1.0 + 0j, 2.0 + 0j]))
    assert anchor.real == pytest.approx(1.0, abs=1e-4)
    assert abs(anchor.imag) < 2e-3
    assert abs(v) == pytest.approx(2.0, rel=1e-5)


def test_circle_laurent_is_linear(circle_map):
    lau = laurent_coefficients(circle_map)
    assert abs(lau[0]) == pytest.approx(1.0, rel=1e-5)
    assert np.all(np.abs(lau[1:]) < 1e-4)


def test_ellipse_capacity_closed_form(ellipse_map):
    assert abs(capacity(ellipse_map)) == pytest.approx(1.0, rel=2e-4)


def test_ellipse_boundary_matches_joukowski(ellipse_map):
    m = ellipse_map
    th = 2 * np.pi * np.arange(256) / 256
    got = evaluate_map(m, np.exp(1j * th))
    # compare up to the domain rotation fixed by the anchor gauge
    rot = capacity(m) / abs(capacity(m))
    want = joukowski(np.exp(1j * th) * rot)
    assert np.abs(got - want).max() < 2e-3 * make_ellipse().diameter


def test_ellipse_laurent_matches_joukowski(ellipse_map):
    lau = laurent_coefficients(ellipse_map)
    rot = lau[0] / abs(lau[0])
    assert abs(lau[0]) == pytest.approx(1.0, rel=2e-4)       # (a+b)/2
    assert abs(lau[1]) < 2e-3                                # no constant term
    assert abs(lau[2] / rot - 0.5) < 2e-3                    # (a-b)/2 term
    assert np.all(np.abs(lau[3:6]) < 2e-3)


def test_square_capacity_closed_form(square_map):
    assert abs(capacity(square_map)) == pytest.approx(SQUARE_CAPACITY, rel=1e-3)


def test_capacity_scales_linearly():
    for s in (0.5, 2.0):
        m = centroid_map(make_blob(scale=s))
        base = centroid_map(make_blob(scale=1.0))
        assert abs(capacity(m)) == pytest.approx(s * abs(capacity(base)), rel=1e-4)


# ---------------------------------------------------------------------------
# map contract


def test_quality_reported(square_map):
    assert 0 <= square_map.boundary_rmse <= 1e-3 * make_square().diameter


@pytest.mark.parametrize("resample", [48, 512])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_boundary_rmse_matches_boundary_table(name, resample):
    # the fit read off the gauge probe equals the fit of a separate
    # evaluation of the boundary table
    curve = FIXTURES[name]()
    m = centroid_map(curve, resample)
    work = resample_closed(curve.points, resample) - m.t
    want = np.sqrt(np.mean(distance_to_polyline(boundary_table(m)[:, 1], work) ** 2))
    assert m.boundary_rmse == pytest.approx(want, rel=1e-9)


def test_build_evaluates_the_chain_once(monkeypatch):
    calls = []

    def counting(chain, u):
        calls.append(len(u))
        return _chain_pullback(chain, u)

    monkeypatch.setattr(conformal, "_chain_pullback", counting)
    centroid_map(make_square())
    assert calls == [conformal.GAUGE_PROBE]


def test_boundary_fidelity(built_shapes):
    # images of the unit circle trace the shifted curve within tolerance
    from juliafit.curves import hausdorff_distance

    for name, data in built_shapes.items():
        m = data["map"]
        curve_t = data["curve"].translated(-data["t"]).translated(-m.t)
        d = hausdorff_distance(boundary_table(m)[:, 1],
                               curve_t.boundary_samples(4096))
        assert d < 5e-3 * data["curve"].diameter, name


def test_just_outside_circle_lands_outside(built_shapes):
    th = 2 * np.pi * np.arange(256) / 256
    for name, data in built_shapes.items():
        m = data["map"]
        curve_t = data["curve"].translated(-data["t"]).translated(-m.t)
        pts = evaluate_map(m, (1 + 1e-3) * np.exp(1j * th))
        assert not curve_t.contains(pts).any(), name


def test_far_field_normalization(ellipse_map):
    # linear-term structure dominates; the slack term covers the relative
    # error of the extracted leading coefficient, which scales with |w|
    m = ellipse_map
    lau = laurent_coefficients(m)
    tail = np.abs(lau[2:]).sum()
    for r in (10.0, 100.0, 1e6):
        th = 2 * np.pi * np.arange(32) / 32
        w = r * np.exp(1j * th)
        err = np.abs(evaluate_map(m, w) - (lau[0] * w + lau[1]))
        assert err.max() <= 1.2 * tail / r + 2e-7 * abs(lau[0]) * r


def test_out_of_domain_rejected(circle_map):
    with pytest.raises(OutOfDomain):
        evaluate_map(circle_map, np.array([0.5 + 0j]))


def test_bad_basepoint():
    with pytest.raises(BadBasepoint):
        build_exterior_map(make_circle(1.0), 5.0 + 0j, resample=512)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_map_diverged_on_non_finite_image(k, monkeypatch):
    # one NaN among the probe images, in the boundary table or not
    def nan_at_k(chain, u):
        z = _chain_pullback(chain, u)
        z[k] = np.nan
        return z

    monkeypatch.setattr(conformal, "_chain_pullback", nan_at_k)
    with np.errstate(invalid="ignore"), pytest.raises(MapDiverged):
        centroid_map(make_square(1.0))


# ---------------------------------------------------------------------------
# Laurent extraction


def test_laurent_two_radius_consistency(ellipse_map):
    c15 = laurent_coefficients(ellipse_map, 64, 1.5)
    c30 = laurent_coefficients(ellipse_map, 64, 3.0)
    assert np.abs(c15[:6] - c30[:6]).max() < 1e-8


def test_laurent_order_capped(circle_map):
    with pytest.raises(Aliasing):
        laurent_coefficients(circle_map, BOUNDARY_TABLE)


def test_laurent_reproduces_direct_at_two(square_map):
    th = 2 * np.pi * np.arange(128) / 128
    w = 2.0 * np.exp(1j * th)
    direct = evaluate_map(square_map, w)
    approx = _series_eval(laurent_coefficients(square_map), w)
    assert np.abs(direct - approx).max() < 1e-6 * np.abs(direct).max()


# ---------------------------------------------------------------------------
# the buffer-reusing pullback against the allocating one


def assert_pullback_exact(chain, u):
    got = _chain_pullback(chain, u)
    want = oracles.chain_pullback(chain, u)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(deadline=None, max_examples=40)
@given(name=st.sampled_from(sorted(FIXTURES)), size=st.sampled_from([1, 2, 7, 512, 4096]),
       seed=st.integers(0, 2**32 - 1))
def test_chain_pullback_matches_oracle(built_shapes, name, size, seed):
    chain = built_shapes[name]["map"].chain
    rng = np.random.default_rng(seed)
    u = np.sqrt(rng.uniform(0.0, 1.0, size)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size))
    kind = rng.integers(0, 3, size)
    # boundary evaluations pull |u| = 1 in to 1 - 1e-12
    u[kind == 1] *= (1.0 - 1e-12) / np.abs(u[kind == 1])
    # the preimage of the inversion center: zeta is 0 on some chains
    u[kind == 2] = chain.a_disk / np.conjugate(chain.a_disk)
    assert_pullback_exact(chain, u)


@pytest.mark.parametrize("name", ["ellipse", "blob"])
def test_chain_pullback_zero_branch(built_shapes, name):
    chain = built_shapes[name]["map"].chain
    a = chain.a_disk
    u = np.array([a / np.conjugate(a), 0.5j, a / np.conjugate(a)])
    assert (a - u[0] * np.conjugate(a)) == 0     # the first stage sees zeta = 0
    for size in (1, 2, 3):
        assert_pullback_exact(chain, u[:size])


# ---------------------------------------------------------------------------
# batch independence: select_epsilon's screen and the fitting workers rely
# on it


def bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.complex128).reshape(-1).view(np.uint64)


@pytest.fixture(scope="module")
def fork_pool():
    """Two forked workers, like the render's tile pool."""
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        yield pool


@settings(deadline=None, max_examples=30)
@given(name=st.sampled_from(sorted(FIXTURES)), size=st.integers(2, 600),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_chain_evaluation_independent_of_batch(built_shapes, fork_pool, name, size, seed,
                                               data):
    m = built_shapes[name]["map"]
    rng = np.random.default_rng(seed)
    w = rng.uniform(1.0, 3.0, size) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size))
    # on the unit circle the evaluation pulls |u| in to 1 - 1e-12
    on_circle = rng.integers(0, 2, size) == 1
    w[on_circle] /= np.abs(w[on_circle])
    whole = evaluate_map(m, w)

    k = data.draw(st.integers(0, size - 1), label="lone point")
    assert np.array_equal(bits(evaluate_map(m, w[k:k + 1])), bits(whole[k:k + 1]))
    lo = data.draw(st.integers(0, size - 1), label="offset")
    hi = data.draw(st.integers(lo + 1, size), label="end")
    step = data.draw(st.integers(1, 13), label="step")
    assert np.array_equal(bits(evaluate_map(m, w[lo:hi:step])), bits(whole[lo:hi:step]))
    assert np.array_equal(bits(evaluate_map(m, w[lo:])), bits(whole[lo:]))
    # a concatenation of two point sets
    v = 1.5 * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 7))
    assert np.array_equal(bits(evaluate_map(m, np.concatenate((w, v)))),
                          bits(np.concatenate((whole, evaluate_map(m, v)))))
    # a split of the set over two forked workers
    split = data.draw(st.integers(1, size - 1), label="split")
    parts = fork_pool.map(evaluate_map, [m, m], [w[:split], w[split:]])
    assert np.array_equal(bits(np.concatenate(list(parts))), bits(whole))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_a_large_batch_maps_as_its_small_chunks(built_shapes, name):
    # select_epsilon evaluates 4,096 points at most, but the chain must not
    # depend on the batch at any size
    m = built_shapes[name]["map"]
    rng = np.random.default_rng(3)
    w = rng.uniform(1.0, 3.0, LARGE_BATCH) * np.exp(
        2j * np.pi * rng.uniform(0.0, 1.0, LARGE_BATCH))
    on_circle = rng.integers(0, 2, LARGE_BATCH) == 1
    w[on_circle] /= np.abs(w[on_circle])
    parts = [evaluate_map(m, w[part]) for part in small_chunks(LARGE_BATCH, 4)]
    assert np.array_equal(bits(evaluate_map(m, w)), bits(np.concatenate(parts)))

"""Shape polynomials: root sampling on an inflated image of the unit circle,
and overflow-safe evaluation of the node product and its companion map.

For a shape with n roots r_k and basepoint p, a point inside the curve, the
node product is omega(z) = -prod(z - r_k) / prod(p - r_k) and the dynamic map
is P(z) = z * (omega(z) + 1). The leading coefficient
cap_pow = -1/prod(p - r_k) comes from the node-product kernel at p, so
omega(p) = -1 up to rounding. Every root is a fixed point of P, and the
origin is attracting once omega is uniformly close to -1 inside the shape.
Degrees run to several hundred, so all products are carried as
mantissa * 2**exponent arrays. The node product is renormalized once per
block of up to 64 roots, as many as keep the block's partial products within
[2**-758, 2**256]; a call whose block ends lower goes back to blocks of 8. In
that range scaling by a power of two commutes with rounding, so the result
does not depend on the block length. There is one arithmetic path: the
per-pixel array kernels, reached through a map's ``step``. A single point is
a length-1 array, and steps exactly as it would inside a batch: NumPy
multiplies a length-1 array in place through its reduction loop, which rounds
differently, so no product of a length-1 array writes into one of its own
operands. A NaN log2 magnitude marks a point where a rational map is
indeterminate, and an inf value with a finite log2 magnitude one too large
for a double.

``step_floor`` bounds a step from below over a whole disk without the node
product: for w within rho of c, |w - r_k| >= |c - r_k| - rho, so
|omega(w)| >= 2**L with L = log2|cap_pow| + sum_k log2(|c - r_k| - rho), and
|P(w)| >= |w| (|omega(w)| - 1) >= (|c| - rho) (2**L - 1). The bound is summed
over every root and is -inf unless every |c - r_k| > rho, |c| > rho and
L > 0. Every distance is taken a few ulps short, so rounding cannot lift
the bound above the exact one, and 2**L loses the relative error delta =
n * OMEGA_ULPS that a computed omega may carry.

``step_ceiling`` bounds a step from above over a disk with one node product,
at the centre. For w = c + h, |h| <= rho, write a_k = 1/(c - r_k),
x_k = rho |a_k| and S_m = sum_k a_k**m. Then log(omega(w)/omega(c)) =
sum_k log(1 + h a_k) has modulus at most T = rho |S_1| + rho**2 |S_2| / 2 +
sum_k x_k**3 / (3 (1 - x_k)), so |omega(w) + 1| <= |omega(c) + 1| +
|omega(c)| expm1(T) and |P(w)| <= (|c| + rho) times that. The bound is +inf
unless every x_k < 1/2, that is unless no root lies within 2 rho, and
bounds each 1 - x_k in the tail below by 1 - max x_k. Inside the curve
omega(c) is close to -1 and S_1, S_2 nearly cancel, so the ceiling of a
small disk there is far below the capture radius. Rounding is added where it does not scale with the
bound: the computed S_m lose at most delta sum_k |a_k|**m, omega computed at
c and at w is off by at most delta |omega|, which adds
3 delta |omega(c)| (1 + expm1(T)), and the step's last roundings, relative
and a few ulps each, add STEP_ROUNDING to the log2. The render settles a
far-field pixel without stepping it when the floor clears the escape radius
by ``dynamics.FLOOR_SLACK``, and an interior pixel when the ceiling stays
below the capture radius by as much; the slack covers the rounding of the
bounds' own sums. See ``dynamics`` for why neither can change a byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .conformal import ExteriorMap, evaluate_map
from .curves import AnnulusSpec, enclosed
from .errors import DuplicateRoots, MapDiverged, NoEpsilon, ParseError

#: |exponent| below which values are materialized as ordinary complex numbers
#: (any cutoff >= 54 yields bit-identical results; 128 leaves headroom)
_MID = 128
#: select_epsilon tries the inflations 2**-1 ... 2**-EPS_HALVINGS, each on
#: EPS_SAMPLES points of the inflated circle, in three steps: every
#: EPS_COARSE**2-th point, then the rest of every EPS_COARSE-th, then the
#: others
EPS_HALVINGS = 20
EPS_SAMPLES = 4096
EPS_COARSE = 8
#: fewest roots sample_roots places
MIN_ROOTS = 8
#: the node product is renormalized once per block of k roots, k the largest
#: multiple of 8 up to _BLOCK_MAX whose factors multiply to at most
#: 2**_BLOCK_LOG2_MAX; a block ending below 2**_BLOCK_EXP_MIN (or at zero)
#: sends the call back to blocks of 8. Each block starts at |w| <= 1, so the
#: partial products of both cadences stay within [2**-758, 2**256], far from
#: overflow and subnormals, where scaling by 2**s commutes with rounding: both
#: give the same canonical (mantissa, exponent) pairs. (Only a component more
#: than 2**264 below its value's magnitude could round as a subnormal.)
_BLOCK_MAX = 64
_BLOCK_LOG2_MAX = 256
_BLOCK_EXP_MIN = -500
#: relative error of a computed omega allowed per root: each root costs a
#: subtraction and a complex product, under 4 ulps together, and this allows 32
OMEGA_ULPS = 2.0 ** -48
#: log2 margin by which an upper bound on a step covers the relative rounding
#: of the step's last operations (omega + 1, the sums and reciprocals of the
#: rational maps, the product with z), a few ulps each
STEP_ROUNDING = 2.0 ** -40


# ---------------------------------------------------------------------------
# scaled complex scalars


@dataclass(frozen=True)
class ScaledComplex:
    """Complex number as mantissa * 2**exponent with |mantissa| in [1/2, 1)
    (or exactly zero): the form of a shape's leading coefficient."""

    mantissa: complex
    exponent: int


# ---------------------------------------------------------------------------
# shape polynomials


@dataclass(frozen=True)
class ShapePolynomial:
    """n roots, inflation epsilon, frame shift t, basepoint, and the leading
    coefficient cap_pow that follows from them.

    Roots and basepoint live in the shifted frame (source curve minus t); the
    map has degree n + 1 there, and a caller in the original frame shifts by t
    itself. The basepoint is the shape's own exterior-map basepoint, a point
    inside its curve where omega = -1. Like the two rational systems, a shape
    is its own per-pixel kernel (``step``) and its own dump
    (``to_obj``/``from_obj`` under ``kind``).
    """

    kind: ClassVar[str] = "shape_polynomial"
    n: int
    epsilon: float
    t: complex
    basepoint: complex
    roots: np.ndarray
    cap_pow: ScaledComplex = field(init=False)

    def __post_init__(self):
        self.roots.setflags(write=False)
        if self.n != len(self.roots):
            raise DuplicateRoots(f"n={self.n} but {len(self.roots)} roots")
        if self.epsilon <= 0:
            raise NoEpsilon("inflation must be positive")
        _check_distinct(self.roots)
        w, e = _node_product_either(self, np.array([self.basepoint]))
        if not (w[0] != 0 and np.isfinite(w[0])):
            raise MapDiverged(f"node product at basepoint {self.basepoint} is "
                              f"{complex(w[0])} (a basepoint on a root)")
        cw, ce = np.array([-1.0 / complex(w[0])]), -e
        _renorm(cw, ce)
        object.__setattr__(self, "cap_pow", ScaledComplex(complex(cw[0]), int(ce[0])))

    def step(self, z: np.ndarray):
        return p_step_array(self, z)

    def step_floor(self, centres: np.ndarray, radius) -> np.ndarray:
        """Lower bound on log2|P(w)| for every w within ``radius`` of each
        centre (shifted frame), -inf where none is known."""
        return modulus_floor(centres, radius) + omega_plus_one_floor(self, centres, radius)

    def step_ceiling(self, centres: np.ndarray, radius) -> np.ndarray:
        """Upper bound on the computed log2|P(w)| for every w within
        ``radius`` of each centre (shifted frame), +inf where none is known."""
        return (modulus_ceiling(centres, radius)
                + omega_plus_one_ceiling(self, centres, radius) + STEP_ROUNDING)

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "epsilon": self.epsilon,
            "t": [self.t.real, self.t.imag],
            "basepoint": [self.basepoint.real, self.basepoint.imag],
            "roots": [[float(r.real), float(r.imag)] for r in self.roots],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "ShapePolynomial":
        """Rebuild a shape from its dump; the constructor re-verifies the root
        and basepoint invariants. Checks the kind itself, since the systems
        nest shape dumps."""
        if obj["kind"] != cls.kind:
            raise ParseError(f"expected a {cls.kind} dump, got {obj['kind']!r}")
        epsilon, t = float(obj["epsilon"]), complex(*obj["t"])
        basepoint = complex(*obj["basepoint"])
        roots = np.array([complex(a, b) for a, b in obj["roots"]])
        if not np.all(np.isfinite(np.concatenate(([epsilon, t, basepoint], roots)))):
            raise ParseError(f"{cls.kind} dump holds a non-finite number")
        return cls(n=int(obj["n"]), epsilon=epsilon, t=t, basepoint=basepoint,
                   roots=roots)


def _check_distinct(roots: np.ndarray) -> None:
    d = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(d, np.inf)
    scale = float(np.abs(roots).max())
    if d.min() <= 1e-12 * scale:
        i, j = np.unravel_index(int(d.argmin()), d.shape)
        raise DuplicateRoots(f"roots {i} and {j} coincide (map degeneracy)")


def select_epsilon(m: ExteriorMap, annulus: AnnulusSpec) -> float:
    """Largest inflation from the halving schedule 1/2, 1/4, ... whose image
    circle lies in the annulus band, by the one region rule ``enclosed``. The
    annulus must be given in the map's output frame (source curve minus t).
    A point on a band curve may pass or fail; a root proposed there fails
    the certificate's (B1) or (A), which judges every root.

    Coarse first: each inflation is tested on every EPS_COARSE**2-th ring
    point, then on the rest of every EPS_COARSE-th, then on the others, and
    fails at the first step that does; no point is evaluated twice. The map
    and the band test both work point by point, so each step gets the same
    values and verdicts as inside a full evaluation: the search returns the
    same inflation (or raises the same NO_EPSILON) as testing every point of
    every ring at once."""
    i = np.arange(EPS_SAMPLES)
    ring = np.exp(1j * (2.0 * np.pi * i / EPS_SAMPLES))
    sparse, coarse = i % EPS_COARSE ** 2 == 0, i % EPS_COARSE == 0
    steps = [ring[sparse], ring[coarse & ~sparse], ring[~coarse]]
    for k in range(1, EPS_HALVINGS + 1):
        eps = 2.0 ** -k
        if all(np.all(enclosed(evaluate_map(m, (1.0 + eps) * step),
                               (annulus.outer, annulus.inner)))
               for step in steps):
            return eps
    raise NoEpsilon(
        f"no inflation down to 2**-{EPS_HALVINGS} stays inside the annulus "
        "(map quality or annulus width insufficient)")


def sample_roots(m: ExteriorMap, epsilon: float, n: int, t: complex) -> ShapePolynomial:
    """Roots r_k = map((1+eps) * e^(2 pi i k / n)) + m.t, k = 1..n, and the
    map's basepoint m.t as the shape's basepoint.

    Adding m.t puts the roots in the frame of the curve the map was built on,
    where m.t lies inside the curve; the shape's own frame shift is t.
    """
    if n < MIN_ROOTS:
        raise DuplicateRoots(f"need at least {MIN_ROOTS} roots, got {n}")
    k = np.arange(1, n + 1)
    w = (1.0 + epsilon) * np.exp(2j * np.pi * k / n)
    roots = evaluate_map(m, w) + m.t
    return ShapePolynomial(n=n, epsilon=float(epsilon), t=complex(t),
                           basepoint=m.t, roots=roots)


def make_circle_shape(radius: float = 1.0, epsilon: float = 0.0625,
                      n: int = 64, t: complex = 0j) -> ShapePolynomial:
    """Closed-form shape for a circle of given radius centered at the frame
    origin: roots are exactly equally spaced on the inflated circle."""
    c = (1.0 + epsilon) * radius
    k = np.arange(1, n + 1)
    return ShapePolynomial(n=n, epsilon=float(epsilon), t=complex(t),
                           basepoint=0j, roots=c * np.exp(2j * np.pi * k / n))


# ---------------------------------------------------------------------------
# vectorized evaluation (the per-pixel kernels)


def _renorm(w: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Scale w into [1/2, 1) in place, add the shifts to e and return them."""
    _, sh = np.frexp(np.abs(w))
    w.real = np.ldexp(w.real, -sh)
    w.imag = np.ldexp(w.imag, -sh)
    e += sh
    return sh


def _block_length(shape: ShapePolynomial, z: np.ndarray) -> int:
    """Roots per renormalization: the largest multiple of 8 up to
    _BLOCK_MAX with u**k <= 2**_BLOCK_LOG2_MAX, where u = max|z| + max|r_k|
    bounds every factor |z - r_k|; 8 when u is not finite."""
    u = float(np.abs(z).max(initial=0.0)) + float(np.abs(shape.roots).max())
    if not math.isfinite(u):
        return 8
    k = 8 * int(_BLOCK_LOG2_MAX // (8 * math.log2(max(u, 2.0))))
    return max(8, min(_BLOCK_MAX, k))


def _node_product(shape: ShapePolynomial, z: np.ndarray, k: int):
    """prod(z - r_k) in root order as canonical (mantissa, exponent) arrays,
    renormalized after every k-th factor and at the end. None when k > 8 and
    a block ends below 2**_BLOCK_EXP_MIN or at zero, where a block that long
    is not known to be exact."""
    w = np.ones(z.shape, dtype=np.complex128)
    e = np.zeros(z.shape, dtype=np.int64)
    tmp = np.empty_like(w)
    # a batch multiplies in place, which gives the bits of the out-of-place
    # product and keeps a render tile's three work arrays in cache; a lone
    # point multiplies into a second buffer (see the module docstring)
    out = w if w.size > 1 else np.empty_like(w)

    def renorm_in_range(w) -> bool:
        sh = _renorm(w, e)
        return k == 8 or (sh.min(initial=0) >= _BLOCK_EXP_MIN and w.all())

    for j, r in enumerate(shape.roots):
        np.subtract(z, r, out=tmp)
        np.multiply(w, tmp, out=out)
        w, out = out, w
        if j % k == k - 1 and not renorm_in_range(w):
            return None
    if not renorm_in_range(w):
        return None
    return w, e


def _node_product_either(shape: ShapePolynomial, z: np.ndarray):
    """The node product in blocks of ``_block_length``, else in blocks of 8."""
    return _node_product(shape, z, _block_length(shape, z)) or _node_product(shape, z, 8)


def omega_scaled_array(shape: ShapePolynomial, z: np.ndarray):
    """Vectorized node product over plain complex points (shifted frame).
    Returns (mantissa, exponent) arrays."""
    w, e = _node_product_either(shape, z)
    cp = shape.cap_pow
    w = w * cp.mantissa
    _renorm(w, e)
    e += cp.exponent
    # an exact zero (z on a root) keeps exponent 0, so that omega + 1 is 1
    e[w == 0] = 0
    return w, e


def omega_plus_one_scaled_array(w: np.ndarray, e: np.ndarray):
    """(omega + 1) from scaled omega. Within 2**+-_MID, omega is materialized
    and 1 added in double precision; beyond, the smaller term would round
    away, so it is dropped: omega stands for the sum above the cutoff and 1
    below it."""
    ow = w.copy()
    oe = e.copy()
    mid = np.abs(e) <= _MID
    if mid.any():
        sc = e[mid].astype(np.int32)
        val = np.ldexp(w.real[mid], sc) + 1j * np.ldexp(w.imag[mid], sc) + 1.0
        _, sh = np.frexp(np.abs(val))
        ow[mid] = np.ldexp(val.real, -sh) + 1j * np.ldexp(val.imag, -sh)
        oe[mid] = sh
    tiny = e < -_MID
    if tiny.any():
        ow[tiny] = 0.5
        oe[tiny] = 1
    return ow, oe


def p_step_array(shape: ShapePolynomial, z: np.ndarray):
    """One application of the dynamic map to an array of shifted-frame points.
    Returns (values, log2 magnitudes); values are materialized only where the
    exponent permits, with +/-inf placeholders elsewhere."""
    w, e = omega_plus_one_scaled_array(*omega_scaled_array(shape, z))
    return materialize(*_times_z(z, w, e))


def _times_z(z, w, e):
    """z times a scaled array, as new arrays."""
    w, e = w * z, e.copy()
    _renorm(w, e)
    return w, e


def _scaled_add(w1, e1, w2, e2):
    """Elementwise sum of two scaled arrays, renormalized to the larger
    exponent (terms more than ~2000 binades down vanish exactly)."""
    z1 = w1 == 0
    z2 = w2 == 0
    e1 = np.where(z1, np.int64(-(2 ** 62)), e1)
    e2 = np.where(z2, np.int64(-(2 ** 62)), e2)
    hi = np.maximum(e1, e2)
    d1 = np.clip(e1 - hi, -2000, 0).astype(np.int32)
    d2 = np.clip(e2 - hi, -2000, 0).astype(np.int32)
    w = (np.ldexp(w1.real, d1) + 1j * np.ldexp(w1.imag, d1)
         + np.ldexp(w2.real, d2) + 1j * np.ldexp(w2.imag, d2))
    e = np.where(w == 0, np.int64(0), hi)
    _renorm(w, e)
    return w, e


def _recip_scaled(w, e):
    """Elementwise reciprocal; exact zeros turn into NaN mantissas (the
    indeterminate marker that downstream classification treats as boundary)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rw = np.where(w == 0, np.nan + 0j, 1.0 / w)
    re_ = -e
    _renorm(rw, re_)
    return rw, re_


def _plus_one_terms(shapes, z: np.ndarray) -> list:
    """omega_s + 1 of every shape at z, as scaled arrays."""
    return [omega_plus_one_scaled_array(*omega_scaled_array(s, z)) for s in shapes]


def _harmonic(terms: list):
    """(sum 1/t)^-1 over the scaled terms t; a single term is returned itself
    (exact degeneration to the polynomial)."""
    if len(terms) == 1:
        return terms[0]
    acc_w, acc_e = _recip_scaled(*terms[0])
    for w, e in terms[1:]:
        acc_w, acc_e = _scaled_add(acc_w, acc_e, *_recip_scaled(w, e))
    return _recip_scaled(acc_w, acc_e)


def modulus_floor(centres: np.ndarray, radius) -> np.ndarray:
    """log2 of the least |w| over each disk, log2(|c| - radius), with |c|
    taken 2**-50 low for its rounding; -inf where the disk holds the origin."""
    with np.errstate(divide="ignore"):
        return np.log2(np.maximum(np.abs(centres) * (1.0 - 2.0 ** -50) - radius, 0.0))


def modulus_ceiling(centres: np.ndarray, radius) -> np.ndarray:
    """log2 of the largest |w| over each disk, log2(|c| + radius), with |c|
    taken 2**-50 high for its rounding."""
    return np.log2(np.abs(centres) * (1.0 + 2.0 ** -50) + radius)


def omega_plus_one_floor(shape: ShapePolynomial, centres: np.ndarray, radius) -> np.ndarray:
    """log2 of a lower bound on the computed |omega(w) + 1| over each disk,
    log2(2**L (1 - delta) - 1) with L the module docstring's bound on
    log2|omega| and delta the relative error of a computed omega; -inf where
    a root lies in the disk or that is not positive."""
    # |c - r_k| is computed to within 3 ulps of |c| + |r_k|; widening the
    # radius by that much keeps every computed gap below the true one
    reach = np.abs(centres) + float(np.abs(shape.roots).max())
    gap = (np.abs(centres[..., None] - shape.roots)
           - (radius + 2.0 ** -50 * reach)[..., None])
    cp = shape.cap_pow
    with np.errstate(divide="ignore"):
        big_l = (math.log2(abs(cp.mantissa)) + cp.exponent
                 + math.log2(1.0 - shape.n * OMEGA_ULPS)
                 + np.log2(np.maximum(gap, 0.0)).sum(axis=-1))
    return big_l + log2_one_minus_exp2(-big_l)


def omega_plus_one_ceiling(shape: ShapePolynomial, centres: np.ndarray,
                           radius) -> np.ndarray:
    """log2 of an upper bound on the computed |omega(w) + 1| over each disk,
    from omega and omega + 1 computed at the centre (see the module
    docstring); +inf where a root lies within twice the radius."""
    r = np.broadcast_to(radius, centres.shape)
    delta = shape.n * OMEGA_ULPS
    ones = np.ones(shape.n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # x + iy = c - r_k, then times q = |a_k|**2 it is conj(a_k)
        x = centres.real[..., None] - shape.roots.real
        y = centres.imag[..., None] - shape.roots.imag
        q = 1.0 / (x * x + y * y)
        m = np.sqrt(q)
        x *= q
        y *= q
        # a computed |S_m| is off by at most delta sum |a_k|**m
        s1 = np.hypot(x @ ones, y @ ones) + delta * (m @ ones)
        s2 = np.hypot((x * x - y * y) @ ones, 2.0 * ((x * y) @ ones)) + delta * (q @ ones)
        x_max = r * m.max(axis=-1, initial=0.0)
        tail = r ** 3 * ((q * m) @ ones) / (3.0 * (1.0 - x_max))
        t = r * s1 + 0.5 * r * r * s2 + tail
        w, e = omega_scaled_array(shape, centres)
        log_omega = materialize(w, e)[1]
        log_plus_one = materialize(*omega_plus_one_scaled_array(w, e))[1]
        spread = np.log2(3.0 * delta + (1.0 + 3.0 * delta) * np.expm1(t))
        bound = np.logaddexp2(log_plus_one, log_omega + spread)
    return np.where(x_max < 0.5, bound, np.inf)


def log2_one_minus_exp2(x: np.ndarray) -> np.ndarray:
    """log2(1 - 2**x), -inf where x >= 0."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.log2(np.maximum(-np.expm1(x * math.log(2.0)), 0.0))


def materialize(w: np.ndarray, e: np.ndarray):
    """Turn scaled pairs into (values, log2 magnitudes)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log2m = np.log2(np.abs(w)) + e
    vals = np.full(w.shape, np.inf + 0j, dtype=np.complex128)
    ok = np.abs(e) <= 970
    sc = e[ok].astype(np.int32)
    vals[ok] = np.ldexp(w.real[ok], sc) + 1j * np.ldexp(w.imag[ok], sc)
    vals[e < -970] = 0j
    return vals, log2m

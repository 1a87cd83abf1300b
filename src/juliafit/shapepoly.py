"""Shape polynomials: root sampling on an inflated image of the unit circle,
and overflow-safe evaluation of the node product and its companion map.

For a shape with n roots r_k and leading map coefficient c, the node product
is omega(z) = c**(-n) * prod(z - r_k) and the dynamic map is
P(z) = z * (omega(z) + 1). Every root is a fixed point of P and the origin is
attracting once omega is uniformly close to -1 inside the shape. Degrees run
to several hundred, so all products are carried as mantissa * 2**exponent
arrays; renormalization by powers of two is exact in binary floating point,
so a product does not depend on how often it is renormalized. There is one
arithmetic path: the per-pixel array kernels. Single-point evaluations
(``eval_omega``, ``eval_P``) run them on length-1 arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .conformal import ExteriorMap, evaluate_map
from .curves import AnnulusSpec
from .errors import DuplicateRoots, Indeterminate, MapDiverged, NoEpsilon, ParseError

#: exponent saturation; reaching it means the value is astronomically large
#: (or small) and its magnitude class can never change back
EXP_CAP = 2 ** 30
#: |exponent| below which values are materialized as ordinary complex numbers
#: (any cutoff >= 54 yields bit-identical results; 128 leaves headroom)
_MID = 128
#: select_epsilon tries the inflations 2**-1 ... 2**-EPS_HALVINGS, each on
#: EPS_SAMPLES points of the inflated circle
EPS_HALVINGS = 20
EPS_SAMPLES = 4096


# ---------------------------------------------------------------------------
# scaled complex scalars


@dataclass(frozen=True)
class ScaledComplex:
    """Complex number as mantissa * 2**exponent with |mantissa| in [1/2, 1)
    (or exactly zero): the value a single-point evaluation returns. All
    arithmetic on such pairs runs in the array kernels below."""

    mantissa: complex
    exponent: int

    @property
    def is_zero(self) -> bool:
        return self.mantissa == 0

    @property
    def log2_abs(self) -> float:
        if self.is_zero:
            return -math.inf
        return math.log2(abs(self.mantissa)) + self.exponent

    def to_complex(self) -> complex:
        """Materialize; only valid when the exponent is in double range."""
        if self.is_zero:
            return 0j
        if not -1020 <= self.exponent <= 1020:
            raise OverflowError(f"exponent {self.exponent} outside double range")
        return complex(math.ldexp(self.mantissa.real, self.exponent),
                       math.ldexp(self.mantissa.imag, self.exponent))


@dataclass(frozen=True)
class EscapedLarge:
    """Symbolic stand-in for a value too large to materialize."""

    log2_magnitude: float

    def __abs__(self):
        return math.inf


def _normalized(m: complex, e: int) -> ScaledComplex:
    if m == 0:
        return ScaledComplex(0j, 0)
    _, sh = math.frexp(abs(m))
    return ScaledComplex(complex(math.ldexp(m.real, -sh), math.ldexp(m.imag, -sh)),
                         max(-EXP_CAP, min(EXP_CAP, e + sh)))


def _inverse_power(base: complex, n: int) -> ScaledComplex:
    """base**-n by binary exponentiation, renormalizing after every product
    (exact in binary floating point), so huge n never overflows."""
    acc = ScaledComplex(0.5 + 0j, 1)
    b = _normalized(complex(base), 0)
    while n:
        if n & 1:
            acc = _normalized(acc.mantissa * b.mantissa, acc.exponent + b.exponent)
        b = _normalized(b.mantissa * b.mantissa, 2 * b.exponent)
        n >>= 1
    return _normalized(1.0 / acc.mantissa, -acc.exponent)


# ---------------------------------------------------------------------------
# shape polynomials


@dataclass(frozen=True)
class ShapePolynomial:
    """n roots, inflation epsilon, frame shift t, leading coefficient.

    Roots live in the shifted frame (source curve minus t); the map has degree
    n + 1 there. Original-frame evaluation conjugates by the shift. Like the
    two rational systems, a shape is its own per-pixel kernel (``step``) and
    its own dump (``to_obj``/``from_obj`` under ``kind``).
    """

    kind: ClassVar[str] = "shape_polynomial"
    n: int
    epsilon: float
    t: complex
    capacity: complex
    roots: np.ndarray

    def __post_init__(self):
        self.roots.setflags(write=False)
        if self.n != len(self.roots):
            raise DuplicateRoots(f"n={self.n} but {len(self.roots)} roots")
        if self.epsilon <= 0:
            raise NoEpsilon("inflation must be positive")
        if not abs(self.capacity) > 0:
            raise MapDiverged("capacity must be nonzero")
        _check_distinct(self.roots)
        object.__setattr__(self, "_cap_pow", _inverse_power(self.capacity, self.n))

    @property
    def degree(self) -> int:
        return self.n + 1

    @property
    def cap_pow(self) -> ScaledComplex:
        return self._cap_pow

    def step(self, z: np.ndarray):
        return p_step_array(self, z)

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "epsilon": self.epsilon,
            "t": [self.t.real, self.t.imag],
            "capacity": [self.capacity.real, self.capacity.imag],
            "roots": [[float(r.real), float(r.imag)] for r in self.roots],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "ShapePolynomial":
        """Rebuild a shape from its dump; the constructor re-verifies the root
        and capacity invariants. Checks the kind itself, since the systems
        nest shape dumps."""
        if obj["kind"] != cls.kind:
            raise ParseError(f"expected a {cls.kind} dump, got {obj['kind']!r}")
        return cls(n=int(obj["n"]), epsilon=float(obj["epsilon"]),
                   t=complex(*obj["t"]), capacity=complex(*obj["capacity"]),
                   roots=np.array([complex(a, b) for a, b in obj["roots"]]))


def _check_distinct(roots: np.ndarray) -> None:
    d = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(d, np.inf)
    scale = float(np.abs(roots).max())
    if d.min() <= 1e-12 * scale:
        i, j = np.unravel_index(int(d.argmin()), d.shape)
        raise DuplicateRoots(f"roots {i} and {j} coincide (map degeneracy)")


def select_epsilon(m: ExteriorMap, annulus: AnnulusSpec) -> float:
    """Largest inflation from the halving schedule 1/2, 1/4, ... whose image
    circle stays strictly inside the annulus band. The annulus must be given
    in the map's output frame (source curve minus t)."""
    th = 2.0 * np.pi * np.arange(EPS_SAMPLES) / EPS_SAMPLES
    ring = np.exp(1j * th)
    for k in range(1, EPS_HALVINGS + 1):
        eps = 2.0 ** -k
        pts = evaluate_map(m, (1.0 + eps) * ring)
        if np.all(annulus.strictly_in_band(pts)):
            return eps
    raise NoEpsilon(
        f"no inflation down to 2**-{EPS_HALVINGS} stays inside the annulus "
        "(map quality or annulus width insufficient)")


def sample_roots(m: ExteriorMap, epsilon: float, n: int,
                 t: complex | None = None,
                 frame_offset: complex = 0j) -> ShapePolynomial:
    """Roots r_k = map((1+eps) * e^(2 pi i k / n)), k = 1..n, and the rescaled
    leading coefficient (1+eps) * capacity.

    frame_offset shifts the sampled roots out of the map's own frame (source
    curve minus basepoint) into the caller's working frame; the leading
    coefficient is translation invariant.
    """
    if n < 8:
        raise DuplicateRoots(f"need at least 8 roots, got {n}")
    k = np.arange(1, n + 1)
    w = (1.0 + epsilon) * np.exp(2j * np.pi * k / n)
    roots = evaluate_map(m, w) + frame_offset
    return ShapePolynomial(n=n, epsilon=float(epsilon),
                           t=complex(m.t if t is None else t),
                           capacity=(1.0 + epsilon) * m.capacity,
                           roots=roots)


def make_circle_shape(radius: float = 1.0, epsilon: float = 0.0625,
                      n: int = 64, t: complex = 0j) -> ShapePolynomial:
    """Closed-form shape for a circle of given radius centered at the frame
    origin: roots are exactly equally spaced on the inflated circle."""
    c = (1.0 + epsilon) * radius
    k = np.arange(1, n + 1)
    return ShapePolynomial(n=n, epsilon=float(epsilon), t=complex(t),
                           capacity=complex(c),
                           roots=c * np.exp(2j * np.pi * k / n))


# ---------------------------------------------------------------------------
# vectorized evaluation (the per-pixel kernels)


def _renorm(w: np.ndarray, e: np.ndarray) -> None:
    _, sh = np.frexp(np.abs(w))
    w.real = np.ldexp(w.real, -sh)
    w.imag = np.ldexp(w.imag, -sh)
    e += sh


def omega_scaled_array(shape: ShapePolynomial, z: np.ndarray):
    """Vectorized node product over plain complex points (shifted frame).
    Returns (mantissa, exponent) arrays."""
    w = np.ones(z.shape, dtype=np.complex128)
    e = np.zeros(z.shape, dtype=np.int64)
    tmp = np.empty_like(w)
    for j, r in enumerate(shape.roots):
        np.subtract(z, r, out=tmp)
        w *= tmp
        if j % 8 == 7:
            _renorm(w, e)
    _renorm(w, e)
    cp = shape.cap_pow
    w *= cp.mantissa
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
    w, e = omega_scaled_array(shape, z)
    w, e = omega_plus_one_scaled_array(w, e)
    w *= z
    _renorm(w, e)
    return materialize(w, e)


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


# ---------------------------------------------------------------------------
# single-point evaluation: the kernels above on length-1 arrays


def _point(z, t: complex, frame: str) -> np.ndarray:
    """z as a length-1 shifted-frame array; frame="original" shifts it by -t."""
    if frame == "original":
        z = complex(z) - t
    elif frame != "translated":
        raise ValueError(f"unknown frame {frame!r}")
    return np.array([complex(z)])


def _scaled_point(w: np.ndarray, e: np.ndarray) -> ScaledComplex:
    if np.isnan(w[0]):
        raise Indeterminate("a node product hit -1 exactly; point sits on a vanishing locus")
    return ScaledComplex(complex(w[0]), int(e[0]))


def eval_omega(shape: ShapePolynomial, z, frame: str = "translated") -> ScaledComplex:
    """Node product at z, as a scaled complex (never overflows). In the
    original frame the argument is shifted by -t first."""
    return _scaled_point(*omega_scaled_array(shape, _point(z, shape.t, frame)))


def eval_P(system, z, frame: str = "translated"):
    """One step of a map at a single point: z * (omega(z) + 1) for a shape,
    R or S for the two rational systems (anything with ``step`` and ``t``),
    conjugated by the frame shift when frame="original". Returns a complex
    number, or EscapedLarge when the result exceeds double range; a point
    where the map is indeterminate raises Indeterminate."""
    vals, log2m = system.step(_point(z, system.t, frame))
    if np.isnan(log2m[0]):
        raise Indeterminate("the map is indeterminate at this point")
    if np.isinf(vals[0]):
        return EscapedLarge(float(log2m[0]))
    return complex(vals[0]) + system.t if frame == "original" else complex(vals[0])

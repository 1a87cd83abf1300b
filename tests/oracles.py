"""Reference implementations that the fast kernels are tested against.

Geometry: the all-pairs bodies that `juliafit.curves` used before its
kernels learned to skip (query, edge) pairs that cannot affect the answer.
They compare every query against every edge, so the fast kernels must equal
them bit for bit. The contact test of two curves as it was before
`juliafit.curves.relation` replaced it: a proper crossing, or a vertex at
distance zero from the other curve.

Conformal map: the slit-map pullback as it was before it reused its work
buffers, and the inflation search that evaluates every ring point of every
inflation it tries. The fast versions must return the same bits.

Dynamics: the scalar scaled-complex arithmetic that `juliafit.shapepoly` and
`juliafit.rational` evaluated single points with before all evaluation went
through the array kernels. It renormalizes after every product and works on
scaled arguments, so orbits can be followed far past double range; from it,
a shape's leading coefficient -1/prod(p - r_k). The node product as it was
before it was renormalized once per block of roots: after every 8th root. The
block kernel must return the same bits.

Render: the render as it was before it settled far-field pixels with the
map's `step_floor` and interior pixels with its `step_ceiling`:
`classify_orbits` on whole tiles, every pixel stepped. The render with both
bounds must give the same bytes.

Dumps: the field writer as it was before it wrote the base64 arrays to the
file itself, a single `json.dump`. The fast writer must write the same bytes.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass

import numpy as np

from juliafit.conformal import evaluate_map
from juliafit.curves import _segment_pairs_intersect, curve_gap
from juliafit.dynamics import classify_orbits
from juliafit.errors import NoEpsilon
from juliafit.rational import AnnulusSystem, MultiShapeSystem
from juliafit.shapepoly import (
    EPS_HALVINGS,
    EPS_SAMPLES,
    ShapePolynomial,
    _renorm,
)

#: exponent saturation of the scalar reference arithmetic
EXP_CAP = 2 ** 30
_CHUNK = 4096


@dataclass(frozen=True)
class EscapedLarge:
    """Symbolic stand-in for a value too large to materialize."""

    log2_magnitude: float

    def __abs__(self):
        return math.inf


class Indeterminate(Exception):
    """The map is indeterminate at the point."""


def _as_points(z) -> np.ndarray:
    a = np.asarray(z, dtype=np.complex128)
    return a.reshape(-1)


def winding_numbers(z, points: np.ndarray) -> np.ndarray:
    z = _as_points(z)
    a = points
    b = np.roll(points, -1)
    ax, ay = a.real, a.imag
    bx, by = b.real, b.imag
    out = np.empty(z.shape, dtype=np.int64)
    for lo in range(0, z.size, _CHUNK):
        zz = z[lo:lo + _CHUNK]
        px = zz.real[:, None]
        py = zz.imag[:, None]
        up = (ay[None, :] <= py) & (by[None, :] > py)
        dn = (ay[None, :] > py) & (by[None, :] <= py)
        cross = (bx - ax)[None, :] * (py - ay[None, :]) - (px - ax[None, :]) * (by - ay)[None, :]
        out[lo:lo + _CHUNK] = (up & (cross > 0)).sum(axis=1) - (dn & (cross < 0)).sum(axis=1)
    return out


def distance_to_polyline(z, points: np.ndarray) -> np.ndarray:
    z = _as_points(z)
    a = points
    e = np.roll(points, -1) - points
    ee = np.maximum((e * e.conjugate()).real, 1e-300)
    out = np.empty(z.shape, dtype=np.float64)
    for lo in range(0, z.size, _CHUNK):
        zz = z[lo:lo + _CHUNK][:, None]
        t = ((zz - a[None, :]) * e.conjugate()[None, :]).real / ee[None, :]
        np.clip(t, 0.0, 1.0, out=t)
        proj = a[None, :] + t * e[None, :]
        out[lo:lo + _CHUNK] = np.abs(zz - proj).min(axis=1)
    return out


def segment_pairs_intersect(points: np.ndarray, other: np.ndarray | None = None,
                            touch: bool = False):
    a1 = points
    b1 = np.roll(points, -1)
    if other is None:
        a2, b2 = a1, b1
    else:
        a2, b2 = other, np.roll(other, -1)
    n1, n2 = len(a1), len(a2)

    def orient(p, q, r):
        return ((q.real - p.real) * (r.imag - p.imag)
                - (q.imag - p.imag) * (r.real - p.real))

    def on(d, p, q, r):
        return ((d == 0)
                & (np.minimum(p.real, q.real) <= r.real) & (r.real <= np.maximum(p.real, q.real))
                & (np.minimum(p.imag, q.imag) <= r.imag) & (r.imag <= np.maximum(p.imag, q.imag)))

    for lo in range(0, n1, 512):
        hi = min(lo + 512, n1)
        A1 = a1[lo:hi, None]
        B1 = b1[lo:hi, None]
        d1 = orient(A1, B1, a2[None, :])
        d2 = orient(A1, B1, b2[None, :])
        d3 = orient(a2[None, :], b2[None, :], A1)
        d4 = orient(a2[None, :], b2[None, :], B1)
        hit = (d1 * d2 < 0) & (d3 * d4 < 0)
        if touch:
            hit |= (on(d1, A1, B1, a2[None, :]) | on(d2, A1, B1, b2[None, :])
                    | on(d3, a2[None, :], b2[None, :], A1) | on(d4, a2[None, :], b2[None, :], B1))
        if other is None:
            i_idx = np.arange(lo, hi)[:, None]
            j_idx = np.arange(n2)[None, :]
            adj = (i_idx == j_idx) | ((i_idx + 1) % n1 == j_idx) | ((j_idx + 1) % n1 == i_idx)
            hit &= ~adj
        if hit.any():
            i, j = np.argwhere(hit)[0]
            return int(i + lo), int(j)
    return None


def curves_meet(a, b) -> bool:
    """Whether two polylines cross or touch: a proper crossing of two
    segments, or a shared point (where they can cross through a vertex)."""
    return (_segment_pairs_intersect(a.points, b.points) is not None
            or curve_gap(a, b) == 0)


def relation(a, b) -> str:
    if curves_meet(a, b):
        return "meet"
    if winding_numbers(b.points[:1], a.points)[0] != 0:
        return "contains"
    if winding_numbers(a.points[:1], b.points)[0] != 0:
        return "inside"
    return "apart"


# ---------------------------------------------------------------------------
# conformal map


def chain_pullback(chain, u: np.ndarray) -> np.ndarray:
    """Map points of the closed unit disk back to the inverted-plane region."""
    a = chain.a_disk
    zeta = (a - u * np.conjugate(a)) / (1.0 - u)
    s = 1j * np.sqrt(zeta)
    zeta = s * chain.b_close / (chain.b_close + s)
    for c, b in zip(chain.cs[::-1], chain.bs[::-1]):
        ratio = np.zeros_like(zeta)
        nz = zeta != 0
        ratio[nz] = c / zeta[nz]
        u2 = zeta * np.sqrt(1.0 - ratio * ratio)
        u2[~nz] = 1j * c
        zeta = u2 * b / (b + u2) if math.isfinite(b) else u2
    q = -zeta * zeta
    return (chain.z1 - q * chain.z0) / (1.0 - q)


def select_epsilon(m, annulus) -> float:
    """Largest inflation from the halving schedule 1/2, 1/4, ... whose image
    circle, all EPS_SAMPLES points of it, stays strictly inside the band."""
    th = 2.0 * np.pi * np.arange(EPS_SAMPLES) / EPS_SAMPLES
    ring = np.exp(1j * th)
    for k in range(1, EPS_HALVINGS + 1):
        eps = 2.0 ** -k
        pts = evaluate_map(m, (1.0 + eps) * ring)
        if np.all(annulus.strictly_in_band(pts)):
            return eps
    raise NoEpsilon(f"no inflation down to 2**-{EPS_HALVINGS} stays inside the annulus")


# ---------------------------------------------------------------------------
# scalar scaled-complex arithmetic


@dataclass(frozen=True)
class ScaledComplex:
    """Complex number as mantissa * 2**exponent with |mantissa| near 1.

    Precision is relative to the magnitude: a component more than ~300 orders
    of magnitude below |z| falls out of the mantissa's double range and is
    flushed, which never matters for products and sums anchored at |z|.
    """

    mantissa: complex
    exponent: int

    @staticmethod
    def from_value(z) -> "ScaledComplex":
        z = complex(z)
        if z == 0:
            return ScaledComplex(0j, 0)
        _, e = math.frexp(abs(z))
        return ScaledComplex(complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)), e)

    @staticmethod
    def one() -> "ScaledComplex":
        return ScaledComplex(0.5 + 0j, 1)

    def _norm(self, m: complex, e: int) -> "ScaledComplex":
        if m == 0:
            return ScaledComplex(0j, 0)
        _, sh = math.frexp(abs(m))
        e = e + sh
        if e >= EXP_CAP:
            e = EXP_CAP
        elif e <= -EXP_CAP:
            e = -EXP_CAP
        return ScaledComplex(complex(math.ldexp(m.real, -sh), math.ldexp(m.imag, -sh)), e)

    @property
    def is_zero(self) -> bool:
        return self.mantissa == 0

    @property
    def log2_abs(self) -> float:
        if self.is_zero:
            return -math.inf
        return math.log2(abs(self.mantissa)) + self.exponent

    def mul(self, other: "ScaledComplex") -> "ScaledComplex":
        return self._norm(self.mantissa * other.mantissa,
                          self.exponent + other.exponent)

    def mul_complex(self, z: complex) -> "ScaledComplex":
        return self._norm(self.mantissa * z, self.exponent)

    def reciprocal(self) -> "ScaledComplex":
        if self.is_zero:
            raise ZeroDivisionError("reciprocal of scaled zero")
        return self._norm(1.0 / self.mantissa, -self.exponent)

    def add(self, other: "ScaledComplex") -> "ScaledComplex":
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        hi, lo = (self, other) if self.exponent >= other.exponent else (other, self)
        d = hi.exponent - lo.exponent
        if d > 64:
            return hi
        m = hi.mantissa + complex(math.ldexp(lo.mantissa.real, -d),
                                  math.ldexp(lo.mantissa.imag, -d))
        return self._norm(m, hi.exponent)

    def add_complex(self, z: complex) -> "ScaledComplex":
        return self.add(ScaledComplex.from_value(z))

    def sub_complex(self, z: complex) -> "ScaledComplex":
        return self.add(ScaledComplex.from_value(-z))

    def to_complex(self) -> complex:
        """Materialize; only valid when the exponent is in double range."""
        if self.is_zero:
            return 0j
        if not -1020 <= self.exponent <= 1020:
            raise OverflowError(f"exponent {self.exponent} outside double range")
        return complex(math.ldexp(self.mantissa.real, self.exponent),
                       math.ldexp(self.mantissa.imag, self.exponent))


def scaled_power(base: complex, k: int) -> ScaledComplex:
    """base**k for integer k (binary exponentiation, exact renormalization)."""
    neg = k < 0
    k = abs(k)
    acc = ScaledComplex.one()
    b = ScaledComplex.from_value(base)
    while k:
        if k & 1:
            acc = acc.mul(b)
        b = b.mul(b)
        k >>= 1
    return acc.reciprocal() if neg else acc


def _omega_scaled(shape: ShapePolynomial, z) -> ScaledComplex:
    if isinstance(z, ScaledComplex):
        acc = ScaledComplex.one()
        for r in shape.roots:
            acc = acc.mul(z.sub_complex(complex(r)))
    else:
        z = complex(z)
        acc = ScaledComplex.one()
        for r in shape.roots:
            acc = acc.mul_complex(z - complex(r))
    return acc.mul(shape.cap_pow)


def cap_pow(shape: ShapePolynomial) -> ScaledComplex:
    """-1/prod(p - r_k) at the shape's basepoint p."""
    acc = ScaledComplex.one()
    for r in shape.roots:
        acc = acc.mul_complex(complex(shape.basepoint) - complex(r))
    inv = acc.reciprocal()
    return ScaledComplex(-inv.mantissa, inv.exponent)


def eval_omega(shape: ShapePolynomial, z, frame: str = "translated") -> ScaledComplex:
    """Node product at z, as a scaled complex (never overflows). In the
    original frame the argument is shifted by -t first."""
    if frame == "original":
        z = z.sub_complex(shape.t) if isinstance(z, ScaledComplex) else complex(z) - shape.t
    elif frame != "translated":
        raise ValueError(f"unknown frame {frame!r}")
    return _omega_scaled(shape, z)


def _p_from_omega(omega: ScaledComplex, z) -> ScaledComplex:
    zsc = z if isinstance(z, ScaledComplex) else ScaledComplex.from_value(z)
    return omega.add_complex(1.0).mul(zsc)


def eval_P_scaled(shape: ShapePolynomial, z, frame: str = "translated") -> ScaledComplex:
    if frame == "original":
        zt = z.sub_complex(shape.t) if isinstance(z, ScaledComplex) else complex(z) - shape.t
        res = _p_from_omega(_omega_scaled(shape, zt), zt)
        return res.add_complex(shape.t)
    return _p_from_omega(_omega_scaled(shape, z), z)


def eval_P(shape: ShapePolynomial, z, frame: str = "translated"):
    """The dynamic map z * (omega(z) + 1), conjugated by the frame shift when
    frame="original". Returns a complex number, or EscapedLarge when the
    result exceeds double range."""
    res = eval_P_scaled(shape, z, frame)
    try:
        return res.to_complex()
    except OverflowError:
        return EscapedLarge(res.log2_abs)


def eval_Omega(system: MultiShapeSystem, z, frame: str = "translated") -> ScaledComplex:
    """Harmonic combination of the node products at a single point. A single
    shape short-circuits to omega + 1 itself (exact degeneration)."""
    if frame == "original":
        z = complex(z) - system.t
    terms = [eval_omega(s, z).add_complex(1.0) for s in system.shapes]
    if len(terms) == 1:
        return terms[0]
    if any(t.is_zero for t in terms):
        raise Indeterminate(
            "a node product hit -1 exactly; point sits on a vanishing locus")
    acc = terms[0].reciprocal()
    for t in terms[1:]:
        acc = acc.add(t.reciprocal())
    if acc.is_zero:
        raise Indeterminate("reciprocal sum vanished")
    return acc.reciprocal()


def eval_R(system: MultiShapeSystem, z, frame: str = "translated"):
    """R(z) = z * Omega(z), conjugated by the frame shift for frame='original'.
    Returns complex or EscapedLarge."""
    zt = complex(z) - system.t if frame == "original" else complex(z)
    res = eval_Omega(system, zt).mul_complex(zt)
    if frame == "original":
        res = res.add_complex(system.t)
    try:
        return res.to_complex()
    except OverflowError:
        return EscapedLarge(res.log2_abs)


def eval_S(system: AnnulusSystem, z, frame: str = "translated"):
    """S(z) = P_outer(z) + 1/(omega_inner(z) + 1). Returns complex or
    EscapedLarge; indeterminate points raise."""
    t = system.outer_shape.t
    zt = complex(z) - t if frame == "original" else complex(z)
    p = eval_P_scaled(system.outer_shape, zt)
    den = eval_omega(system.inner_shape, zt).add_complex(1.0)
    if den.is_zero:
        raise Indeterminate("inner node product hit -1 exactly")
    res = p.add(den.reciprocal())
    if frame == "original":
        res = res.add_complex(t)
    try:
        return res.to_complex()
    except OverflowError:
        return EscapedLarge(res.log2_abs)


# ---------------------------------------------------------------------------
# array node product


def node_product(shape: ShapePolynomial, z: np.ndarray):
    """prod(z - r_k) over plain complex points (shifted frame), renormalized
    after every 8th root. Returns (mantissa, exponent) arrays. Every product
    goes to a new array, as in the kernel, so a length-1 array rounds as a
    batch does."""
    w = np.ones(z.shape, dtype=np.complex128)
    e = np.zeros(z.shape, dtype=np.int64)
    for j, r in enumerate(shape.roots):
        w = w * (z - r)
        if j % 8 == 7:
            _renorm(w, e)
    _renorm(w, e)
    return w, e


def omega_scaled_array(shape: ShapePolynomial, z: np.ndarray):
    """The node product times the shape's leading coefficient, renormalized
    after every 8th root. Returns (mantissa, exponent) arrays."""
    w, e = node_product(shape, z)
    cp = shape.cap_pow
    w = w * cp.mantissa
    _renorm(w, e)
    e += cp.exponent
    # an exact zero (z on a root) keeps exponent 0, so that omega + 1 is 1
    e[w == 0] = 0
    return w, e


# ---------------------------------------------------------------------------
# render


def render_floorless(kernel, bbox, width: int, height: int, escape_radius: float,
                     capture_radius: float, max_iter: int, tile_rows: int = 16):
    """(status, iterations) of every pixel center of the bbox grid, each tile
    of tile_rows rows classified without a floor or a ceiling."""
    lo, hi = bbox
    dx = (hi.real - lo.real) / width
    dy = (hi.imag - lo.imag) / height
    xs = lo.real + (np.arange(width) + 0.5) * dx
    status, iters = [], []
    for r0 in range(0, height, tile_rows):
        ys = hi.imag - (np.arange(r0, min(r0 + tile_rows, height)) + 0.5) * dy
        z = (xs[None, :] + 1j * ys[:, None]).reshape(-1) - kernel.t
        s, i = classify_orbits(kernel, z, escape_radius, capture_radius, max_iter,
                               np.full(z.shape, -np.inf), np.full(z.shape, np.inf))
        status.append(s)
        iters.append(i)
    return (np.concatenate(status).reshape(height, width),
            np.concatenate(iters).reshape(height, width))


# ---------------------------------------------------------------------------
# dumps


def save_field(field, path, config: dict) -> None:
    obj = {
        "kind": field.kind,
        "bbox": [[field.bbox[0].real, field.bbox[0].imag],
                 [field.bbox[1].real, field.bbox[1].imag]],
        "width": field.width,
        "height": field.height,
        "escape_radius": field.escape_radius,
        "capture_radius": field.capture_radius,
        "max_iter": field.max_iter,
        "status_b64": base64.b64encode(field.status.tobytes()).decode("ascii"),
        "iterations_b64": base64.b64encode(
            field.iterations.astype("<u4").tobytes()).decode("ascii"),
        "config": config,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")

"""Rational maps assembled from several shape polynomials.

Two constructions reuse the polynomial's array kernels and, with it, the
degree search and the certificate writer of ``dynamics``:

* a multi-shape system combines the node products of mutually exterior shapes
  through a harmonic sum, Omega = (sum_j 1/(omega_j + 1))^-1, and iterates
  R(z) = z * Omega(z); near shape j the j-th reciprocal dominates, so every
  shape interior contracts to the origin while the common exterior expands.

* an annulus map S(z) = P_E(z) + 1/(omega_F(z) + 1), with E the band of the
  outer curve and F that of the inner one, keeps the middle region M between
  E.inner and F.outer bounded while both complementary components escape.

Like ``ShapePolynomial``, each system has a ``kind``, its frame shift ``t``,
all its ``roots``, a per-pixel ``step``, a lower bound ``step_floor`` on
log2|step| over a disk and an upper bound ``step_ceiling`` on the computed
one, both built from its shapes' bounds on |omega_s + 1|, and
``to_obj``/``from_obj``, so the commands render, save and load all three
kinds alike. ``step`` is the only way to evaluate a system; a single point is
a length-1 array and steps exactly as it would inside a batch. Each shape is
normalized at its own basepoint, a point inside its own curve, so that
omega_s = -1 there (see ``shapepoly``).

Both certificates extend the one of ``dynamics`` (see its docstring): they
check sampled extrema on the band curves, and a NaN sample fails its
condition. Every shape s, with outer curve O_s, must meet

- (R) its roots lie inside O_s, and
- (Z) min |omega_s + 1| > 1 on O_s: by the symmetric Rouche theorem
  omega_s + 1, like omega_s, then has all n zeros inside O_s.

``certify_multi`` takes rho = dist(0, I_h), I_h the one inner curve holding
the origin, and beta = max |z| over all outer curves:

- (P) sum_{i != j} |omega_j + 1| / |omega_i + 1| < 1 on every inner curve
  I_j. The other shapes' zeros lie outside O_j, so g = 1 + sum_{i != j}
  (omega_j + 1) / (omega_i + 1) is analytic inside I_j with |g - 1| < 1 on
  it: g has no zero there, and R = z (omega_j + 1) / g no pole.
- (A) max |R| < rho on every inner curve. By maximum modulus R maps every
  inner region into B(0, rho), which lies inside I_h.
- (B1) min |R| > beta on every outer curve. 1/R = sum_i 1/(z (omega_i + 1))
  is analytic outside the outer curves and vanishes at infinity, so |R| >
  beta there, and orbits from outside B(0, beta) escape as in ``dynamics``.

``certify_S`` takes r = min(dist(0, E.inner), dist(0, F.outer)), so that
B(0, r) lies in M, and beta = max |z| on E.outer:

- (A) max |S| < r on E.inner and F.outer. The poles of S, the zeros of
  omega_F + 1, lie inside F.outer, so S maps M into B(0, r).
- (Q) |P_E| |omega_F + 1| < 1 on F.inner and > 1 on E.outer. By maximum
  modulus of P_E (omega_F + 1) inside F.inner and of its reciprocal outside
  E.outer, S = (P_E (omega_F + 1) + 1) / (omega_F + 1) has no zero there.
- (B1) min |S| > beta on F.inner and E.outer. Then 1/S is analytic inside
  F.inner and outside E.outer, so |S| > beta in both: the inner region maps
  outside B(0, beta), and orbits from there escape as for R.

The escape radius is beta and the capture radius rho or r, with no slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .curves import (
    AnnulusSpec,
    JordanCurve,
    curve_gap,  # noqa: F401 (traced as rational.curve_gap by perfbench)
    distance_to_polyline,
    enclosed,
    relation,
)
from .dynamics import EscapeCertificate, require_samples
from .errors import BadBasepoint, GeometryRejected
from .shapepoly import (
    OMEGA_ULPS,
    STEP_ROUNDING,
    ShapePolynomial,
    _renorm,
    _times_z,
    log2_one_minus_exp2,
    materialize,
    modulus_ceiling,
    modulus_floor,
    omega_plus_one_ceiling,
    omega_plus_one_floor,
    omega_plus_one_scaled_array,
    omega_scaled_array,
)


# ---------------------------------------------------------------------------
# systems


@dataclass(frozen=True)
class MultiShapeSystem:
    """Shape polynomials over mutually exterior annuli, one shared frame."""

    kind: ClassVar[str] = "multi_shape_system"
    shapes: tuple[ShapePolynomial, ...]

    def __post_init__(self):
        if not self.shapes:
            raise GeometryRejected("need at least one shape")
        n0 = self.shapes[0].n
        t0 = self.shapes[0].t
        for s in self.shapes[1:]:
            if s.n != n0:
                raise GeometryRejected("all shapes must share the same root count")
            if s.t != t0:
                raise GeometryRejected("all shapes must share the same frame shift")

    @property
    def m(self) -> int:
        return len(self.shapes)

    @property
    def t(self) -> complex:
        return self.shapes[0].t

    @property
    def n(self) -> int:
        return self.shapes[0].n

    @property
    def roots(self) -> np.ndarray:
        return np.concatenate([s.roots for s in self.shapes])

    def step(self, z: np.ndarray):
        return materialize(*_times_z(z, *omega_big_scaled_array(self, z)))

    def step_floor(self, centres: np.ndarray, radius) -> np.ndarray:
        """Lower bound on log2|R| over each disk (see ``ShapePolynomial``):
        1/R = sum_i 1/(z (omega_i + 1)) gives |R| >= |z| / sum_i
        1/|omega_i + 1|, with each |omega_i + 1| bounded below by its shape."""
        recips = [-omega_plus_one_floor(s, centres, radius) for s in self.shapes]
        return modulus_floor(centres, radius) - np.logaddexp2.reduce(recips)

    def step_ceiling(self, centres: np.ndarray, radius) -> np.ndarray:
        """Upper bound on the computed log2|R| over each disk: near shape j,
        |sum_i 1/(omega_i + 1)| >= 2**-C_j - sum_{i != j} 2**-F_i with C_j the
        ceiling and F_i the floors on |omega_i + 1|, each sum term allowed a
        relative error of m * ``OMEGA_ULPS``; the least over j, +inf where no
        such difference is positive."""
        tol = self.m * OMEGA_ULPS
        zero = np.zeros(np.shape(centres))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            recips = [np.exp2(-omega_plus_one_floor(s, centres, radius))
                      for s in self.shapes]
            gaps = [(1.0 - tol) * np.exp2(-omega_plus_one_ceiling(s, centres, radius))
                    - (1.0 + tol) * sum((r for i, r in enumerate(recips) if i != j), zero)
                    for j, s in enumerate(self.shapes)]
            gap = np.fmax.reduce(gaps)
            return (modulus_ceiling(centres, radius) + STEP_ROUNDING
                    + np.where(gap > 0, -np.log2(gap), np.inf))

    def to_obj(self) -> dict:
        return {"kind": self.kind, "t": [self.t.real, self.t.imag],
                "shapes": [s.to_obj() for s in self.shapes]}

    @classmethod
    def from_obj(cls, obj: dict) -> "MultiShapeSystem":
        return cls(shapes=tuple(ShapePolynomial.from_obj(o) for o in obj["shapes"]))


@dataclass(frozen=True)
class AnnulusSystem:
    """Map data for approximating an annular region between two curves.

    outer_shape drives the expanding polynomial of the outer curve's band E;
    inner_shape supplies the node product of the inner curve's band F. Both
    live in a common shifted frame whose origin sits in the middle region M.
    """

    kind: ClassVar[str] = "annulus_map_system"
    outer_shape: ShapePolynomial
    inner_shape: ShapePolynomial
    outer_band: AnnulusSpec
    inner_band: AnnulusSpec
    xi: float

    def __post_init__(self):
        if self.inner_shape.t != self.outer_shape.t:
            raise GeometryRejected("both shapes must share the same frame shift")
        if self.xi <= 0:
            raise GeometryRejected("curves of the annulus must be disjoint")
        if relation(self.outer_band.inner, self.inner_band.outer) != "contains":
            raise GeometryRejected("inner band must lie inside the outer band, off it")

    @property
    def t(self) -> complex:
        return self.outer_shape.t

    @property
    def roots(self) -> np.ndarray:
        return np.concatenate([self.outer_shape.roots, self.inner_shape.roots])

    def step(self, z: np.ndarray):
        _, of, p = _annulus_terms(self, z)
        return materialize(*_scaled_add(*p, *_recip_scaled(*of)))

    def step_floor(self, centres: np.ndarray, radius) -> np.ndarray:
        """Lower bound on log2|S| over each disk (see ``ShapePolynomial``):
        |S| >= |z| |omega_E + 1| - 1/|omega_F + 1|, -inf where that is not
        positive."""
        p = self.outer_shape.step_floor(centres, radius)
        recip = -omega_plus_one_floor(self.inner_shape, centres, radius)
        return p + log2_one_minus_exp2(recip - p)

    def step_ceiling(self, centres: np.ndarray, radius) -> np.ndarray:
        """Upper bound on the computed log2|S| over each disk:
        |S| <= |P_E| + 1/|omega_F + 1|, with |P_E| bounded above and
        |omega_F + 1| below by their shapes."""
        recip = -omega_plus_one_floor(self.inner_shape, centres, radius)
        return (np.logaddexp2(self.outer_shape.step_ceiling(centres, radius), recip)
                + STEP_ROUNDING)

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "outer_shape": self.outer_shape.to_obj(),
            "inner_shape": self.inner_shape.to_obj(),
            "outer_band": _band_obj(self.outer_band),
            "inner_band": _band_obj(self.inner_band),
            "xi": self.xi,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "AnnulusSystem":
        return cls(outer_shape=ShapePolynomial.from_obj(obj["outer_shape"]),
                   inner_shape=ShapePolynomial.from_obj(obj["inner_shape"]),
                   outer_band=_band_from_obj(obj["outer_band"]),
                   inner_band=_band_from_obj(obj["inner_band"]),
                   xi=float(obj["xi"]))


def _band_obj(band: AnnulusSpec) -> dict:
    pts = lambda c: [[float(z.real), float(z.imag)] for z in c.points]
    return {"outer": pts(band.outer), "inner": pts(band.inner),
            "width_hint": band.width_hint}


def _band_from_obj(obj: dict) -> AnnulusSpec:
    mk = lambda rows: JordanCurve.from_points(
        np.array([complex(a, b) for a, b in rows]))
    return AnnulusSpec(outer=mk(obj["outer"]), inner=mk(obj["inner"]),
                       width_hint=float(obj["width_hint"]))


def validate_mutually_exterior(annuli: list[AnnulusSpec]) -> None:
    """Every annulus (with its inside) must avoid every other: outer curves
    pairwise disjoint and never nested."""
    for i, a in enumerate(annuli):
        for j in range(i + 1, len(annuli)):
            if relation(a.outer, annuli[j].outer) != "apart":
                raise GeometryRejected(f"annuli {i} and {j} meet or nest")


# ---------------------------------------------------------------------------
# scaled-array helpers


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


def _annulus_terms(system: AnnulusSystem, z: np.ndarray):
    """omega_E + 1, omega_F + 1 and P_E = z (omega_E + 1) at z, scaled."""
    oe, of = _plus_one_terms((system.outer_shape, system.inner_shape), z)
    return oe, of, _times_z(z, oe[0], oe[1].copy())


def omega_big_scaled_array(system: MultiShapeSystem, z: np.ndarray):
    """The harmonic combination Omega as a scaled array."""
    return _harmonic(_plus_one_terms(system.shapes, z))


def _harmonic(terms: list):
    """(sum 1/t)^-1 over the scaled terms t; a single term is returned itself
    (exact degeneration to the polynomial)."""
    if len(terms) == 1:
        return terms[0]
    acc_w, acc_e = _recip_scaled(*terms[0])
    for w, e in terms[1:]:
        acc_w, acc_e = _scaled_add(acc_w, acc_e, *_recip_scaled(w, e))
    return _recip_scaled(acc_w, acc_e)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class MultiCertificate(EscapeCertificate):
    """(A), (R) and (B1) in the fields of ``EscapeCertificate``, d_inner = rho;
    (Z) and (P) as the least |omega_s + 1| on the outer curves and the largest
    (P) sum on the inner curves."""

    kind: ClassVar[str] = "multi_certificate"
    zeros_min: float
    poles_max: float

    def margins(self) -> dict:
        return dict(super().margins(), zeros=self.zeros_min - 1.0,
                    poles=1.0 - self.poles_max)


def certify_multi(system: MultiShapeSystem, annuli: list[AnnulusSpec],
                  samples_per_region: int = 4096) -> MultiCertificate:
    """Sampled certificate of (R), (Z), (P), (A) and (B1) of the module
    docstring, each curve taken at ``samples_per_region`` boundary samples.

    The annuli must already have passed ``validate_mutually_exterior``; the
    degree search calls this once per degree, so it does not check again.
    """
    require_samples(samples_per_region)
    if len(annuli) != system.m:
        raise GeometryRejected("one annulus per shape required")
    holders = [a.inner for a in annuli if a.inner.contains([0j])[0]]
    if len(holders) != 1:
        raise BadBasepoint(
            f"frame origin lies inside {len(holders)} inner regions, need exactly 1")
    rho = float(distance_to_polyline([0j], holders[0].points)[0])
    beta = max(float(np.abs(a.outer.points).max()) for a in annuli)

    def on(curve):
        """log2 |omega_s + 1| of every shape and log2 |R| on the curve."""
        z = curve.boundary_samples(samples_per_region)
        terms = _plus_one_terms(system.shapes, z)
        logs = [materialize(*t)[1] for t in terms]
        return logs, materialize(*_times_z(z, *_harmonic(terms)))[1]

    inner = [on(a.inner) for a in annuli]
    outer = [on(a.outer) for a in annuli]
    log_in = np.concatenate([lr for _, lr in inner])
    log_out = np.concatenate([lr for _, lr in outer])
    log_zeros = np.concatenate([logs[j] for j, (logs, _) in enumerate(outer)])
    with np.errstate(over="ignore", invalid="ignore"):
        poles = np.concatenate([
            sum((np.exp2(logs[j] - logs[i]) for i in range(system.m) if i != j),
                np.zeros_like(logs[j]))
            for j, (logs, _) in enumerate(inner)])
        inside_max = float(np.exp2(log_in.max()))
        outside_min = float(np.exp2(log_out.min()))
        zeros_min = float(np.exp2(log_zeros.min()))
    poles_max = float(poles.max())
    roots_outside = sum(int(np.count_nonzero(~a.outer.contains(s.roots)))
                        for s, a in zip(system.shapes, annuli))
    passed = (inside_max < rho and outside_min > beta and roots_outside == 0
              and zeros_min > 1.0 and poles_max < 1.0)
    return MultiCertificate(
        d_inner=rho, beta=beta, n_certified=system.n, inside_max=inside_max,
        outside_min=outside_min, roots_outside=roots_outside,
        sample_counts={"inner": int(len(log_in)), "outer": int(len(log_out))},
        passed=passed, zeros_min=zeros_min, poles_max=poles_max)


@dataclass(frozen=True)
class SCertificate(EscapeCertificate):
    """(A), (R) and (B1) in the fields of ``EscapeCertificate``, d_inner = r;
    (Z) as the least |omega_s + 1| on the outer curves, and (Q) as the largest
    |P_E| |omega_F + 1| on F.inner and the least on E.outer."""

    kind: ClassVar[str] = "s_certificate"
    zeros_min: float
    q_inner_max: float
    q_outer_min: float

    def margins(self) -> dict:
        return dict(super().margins(), zeros=self.zeros_min - 1.0,
                    q_inner=1.0 - self.q_inner_max, q_outer=self.q_outer_min - 1.0)


def certify_S(system: AnnulusSystem, samples_per_region: int = 4096) -> SCertificate:
    """Sampled certificate of (R), (Z), (A), (Q) and (B1) of the module
    docstring, each curve taken at ``samples_per_region`` boundary samples:
    "inner" samples on E.inner and F.outer, "outer" on F.inner and E.outer."""
    require_samples(samples_per_region)
    E, F = system.outer_band, system.inner_band
    if not enclosed([0j], (E.inner, F.outer))[0]:
        raise BadBasepoint("frame origin must lie in the middle region "
                           "(inside the outer band, outside the inner band)")
    r = min(float(distance_to_polyline([0j], c.points)[0]) for c in (E.inner, F.outer))
    beta = float(np.abs(E.outer.points).max())

    def on(curve):
        """log2 of |omega_E + 1|, |omega_F + 1|, |P_E| and |S| on the curve."""
        oe, of, p = _annulus_terms(system, curve.boundary_samples(samples_per_region))
        s = _scaled_add(*p, *_recip_scaled(*of))
        return [materialize(*t)[1] for t in (oe, of, p, s)]

    e_in, f_out, f_in, e_out = (on(c) for c in (E.inner, F.outer, F.inner, E.outer))
    log_in = np.concatenate([e_in[3], f_out[3]])
    log_out = np.concatenate([f_in[3], e_out[3]])
    with np.errstate(over="ignore", invalid="ignore"):
        inside_max = float(np.exp2(log_in.max()))
        outside_min = float(np.exp2(log_out.min()))
        zeros_min = float(np.exp2(np.concatenate([e_out[0], f_out[1]]).min()))
        q_inner_max = float(np.exp2((f_in[2] + f_in[1]).max()))
        q_outer_min = float(np.exp2((e_out[2] + e_out[1]).min()))
    roots_outside = (int(np.count_nonzero(~E.outer.contains(system.outer_shape.roots)))
                     + int(np.count_nonzero(~F.outer.contains(system.inner_shape.roots))))
    passed = (inside_max < r and outside_min > beta and roots_outside == 0
              and zeros_min > 1.0 and q_inner_max < 1.0 and q_outer_min > 1.0)
    return SCertificate(
        d_inner=r, beta=beta, n_certified=system.outer_shape.n,
        inside_max=inside_max, outside_min=outside_min, roots_outside=roots_outside,
        sample_counts={"inner": int(len(log_in)), "outer": int(len(log_out))},
        passed=passed, zeros_min=zeros_min, q_inner_max=q_inner_max,
        q_outer_min=q_outer_min)

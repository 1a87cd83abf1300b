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

A system holds only its shapes, and its certificate takes the bands. Both
certificates extend the one of ``dynamics`` (see its docstring): they check
sampled extrema on the band curves, and a NaN sample fails its condition.
Every shape s, with outer curve O_s, must meet

- (R) its roots lie inside O_s, and
- (Z) min |omega_s + 1| > 1 on O_s: by the symmetric Rouche theorem
  omega_s + 1, like omega_s, then has all n zeros inside O_s.

``certify_multi(system, annuli)`` takes rho = dist(0, I_h), I_h the one
inner curve holding the origin, and beta = max |z| over all outer curves:

- (P) sum_{i != j} |omega_j + 1| / |omega_i + 1| < 1 on every inner curve
  I_j. The other shapes' zeros lie outside O_j, so g = 1 + sum_{i != j}
  (omega_j + 1) / (omega_i + 1) is analytic inside I_j with |g - 1| < 1 on
  it: g has no zero there, and R = z (omega_j + 1) / g no pole.
- (A) max |R| < rho on every inner curve. By maximum modulus R maps every
  inner region into B(0, rho), which lies inside I_h.
- (B1) min |R| > beta on every outer curve. 1/R = sum_i 1/(z (omega_i + 1))
  is analytic outside the outer curves and vanishes at infinity, so |R| >
  beta there, and orbits from outside B(0, beta) escape as in ``dynamics``.

``certify_S(system, E, F)`` takes r = min(dist(0, E.inner), dist(0, F.outer)),
so that B(0, r) lies in M, and beta = max |z| on E.outer:

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
    curve_gap,  # noqa: F401 (traced as rational.curve_gap by perfbench)
    enclosed,
    relation,
)
from .dynamics import EscapeCertificate, certify_shapes, sample_bands
from .errors import BadBasepoint, GeometryRejected
from .shapepoly import (
    OMEGA_ULPS,
    STEP_ROUNDING,
    ShapePolynomial,
    _harmonic,
    _plus_one_terms,
    _recip_scaled,
    _scaled_add,
    _times_z,
    log2_one_minus_exp2,
    materialize,
    modulus_ceiling,
    modulus_floor,
    omega_plus_one_ceiling,
    omega_plus_one_floor,
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
    def roots(self) -> np.ndarray:
        return np.concatenate([s.roots for s in self.shapes])

    def step(self, z: np.ndarray):
        return materialize(*_times_z(z, *_harmonic(_plus_one_terms(self.shapes, z))))

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
    The bands are not part of the map: ``certify_S`` takes them.
    """

    kind: ClassVar[str] = "annulus_map_system"
    outer_shape: ShapePolynomial
    inner_shape: ShapePolynomial

    def __post_init__(self):
        if self.inner_shape.t != self.outer_shape.t:
            raise GeometryRejected("both shapes must share the same frame shift")

    @property
    def t(self) -> complex:
        return self.outer_shape.t

    @property
    def roots(self) -> np.ndarray:
        return np.concatenate([self.outer_shape.roots, self.inner_shape.roots])

    def step(self, z: np.ndarray):
        terms = _plus_one_terms((self.outer_shape, self.inner_shape), z)
        return materialize(*_annulus_values(z, terms)[0])

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
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "AnnulusSystem":
        return cls(outer_shape=ShapePolynomial.from_obj(obj["outer_shape"]),
                   inner_shape=ShapePolynomial.from_obj(obj["inner_shape"]))


def validate_mutually_exterior(annuli: list[AnnulusSpec]) -> None:
    """Every annulus (with its inside) must avoid every other: outer curves
    pairwise disjoint and never nested."""
    for i, a in enumerate(annuli):
        for j in range(i + 1, len(annuli)):
            if relation(a.outer, annuli[j].outer) != "apart":
                raise GeometryRejected(f"annuli {i} and {j} meet or nest")


# ---------------------------------------------------------------------------
# combinations


def _annulus_values(z: np.ndarray, terms: list) -> list:
    """Scaled S and P_E = z (omega_E + 1) from the terms omega_E + 1, omega_F + 1."""
    oe, of = terms
    p = _times_z(z, *oe)
    return [_scaled_add(*p, *_recip_scaled(*of)), p]


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
                  samples_per_region: int) -> MultiCertificate:
    """Sampled certificate of (R), (Z), (P), (A) and (B1) of the module
    docstring, each curve taken at ``samples_per_region`` boundary samples
    (see ``dynamics.certify_shapes``).

    The annuli must already have passed ``validate_mutually_exterior``; the
    degree search calls this once per degree, so it does not check again.
    """
    return MultiCertificate.from_obj(
        certify_shapes(system.shapes, annuli, samples_per_region))


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


def certify_S(system: AnnulusSystem, E: AnnulusSpec, F: AnnulusSpec,
              samples_per_region: int) -> SCertificate:
    """Sampled certificate of (R), (Z), (A), (Q) and (B1) of the module
    docstring for the bands E of the outer curve and F of the inner one, each
    curve taken at ``samples_per_region`` boundary samples: "inner" samples
    on E.inner and F.outer, "outer" on F.inner and E.outer. F must lie inside
    E.inner, off it."""
    if relation(E.inner, F.outer) != "contains":
        raise GeometryRejected("inner band must lie inside the outer band, off it")
    if not enclosed([0j], (E.inner, F.outer))[0]:
        raise BadBasepoint("frame origin must lie in the middle region "
                           "(inside the outer band, outside the inner band)")
    fields, logs = sample_bands(
        (system.outer_shape, system.inner_shape), (E, F), (E.inner, F.outer),
        (F.inner, E.outer), _annulus_values, samples_per_region)
    # per curve: log2 of |omega_E + 1|, |omega_F + 1|, |S| and |P_E|
    f_in, e_out = logs[id(F.inner)], logs[id(E.outer)]
    with np.errstate(over="ignore", invalid="ignore"):
        q_inner_max = float(np.exp2((f_in[3] + f_in[1]).max()))
        q_outer_min = float(np.exp2((e_out[3] + e_out[1]).min()))
    return SCertificate.from_obj(dict(
        fields, q_inner_max=q_inner_max, q_outer_min=q_outer_min,
        passed=fields["passed"] and q_inner_max < 1.0 and q_outer_min > 1.0))

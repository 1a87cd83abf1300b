"""Rational maps assembled from several shape polynomials.

Two constructions reuse the polynomial's array kernels and, with it, the
degree search and the certificate writer of ``dynamics`` (their certificates
have ``margins()`` too):

* a multi-shape system combines the node products of mutually exterior shapes
  through a harmonic sum, Omega = (sum_j 1/(omega_j + 1))^-1, and iterates
  R(z) = z * Omega(z); near shape j the j-th reciprocal dominates, so every
  shape interior contracts to the origin while the common exterior expands.

* an annulus map S(z) = P_outer(z) + 1/(omega_inner(z) + 1) keeps the band
  between two nested curves bounded while both complementary components
  escape: the polynomial term expands outside the outer curve and the
  reciprocal term blows up inside the inner one.

Like ``ShapePolynomial``, each system has a ``kind``, its frame shift ``t``,
all its ``roots``, a per-pixel ``step`` and ``to_obj``/``from_obj``, so the
commands render, save and load all three kinds alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .curves import (
    AnnulusSpec,
    JordanCurve,
    curve_gap,  # noqa: F401 (traced as rational.curve_gap by perfbench)
    curves_meet,
    distance_to_polyline,
    sample_interior,
    winding_numbers,
)
from .dynamics import Certificate
from .errors import BadBasepoint, GeometryRejected
from .shapepoly import (
    ScaledComplex,
    ShapePolynomial,
    _point,
    _renorm,
    _scaled_point,
    eval_P,
    materialize,
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
        w, e = omega_big_scaled_array(self, z)
        w *= z
        _renorm(w, e)
        return materialize(w, e)

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
        if self.xi <= 0:
            raise GeometryRejected("curves of the annulus must be disjoint")
        if curves_meet(self.outer_band.inner, self.inner_band.outer):
            raise GeometryRejected("offset bands of the two curves overlap")

    @property
    def t(self) -> complex:
        return self.outer_shape.t

    @property
    def roots(self) -> np.ndarray:
        return np.concatenate([self.outer_shape.roots, self.inner_shape.roots])

    def step(self, z: np.ndarray):
        w, e = omega_plus_one_scaled_array(*omega_scaled_array(self.outer_shape, z))
        w = w * z
        _renorm(w, e)
        rw, re_ = _recip_scaled(*omega_plus_one_scaled_array(
            *omega_scaled_array(self.inner_shape, z)))
        return materialize(*_scaled_add(w, e, rw, re_))

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
        np.array([complex(a, b) for a, b in rows]), check_simple=False)
    return AnnulusSpec(outer=mk(obj["outer"]), inner=mk(obj["inner"]),
                       width_hint=float(obj["width_hint"]))


def validate_mutually_exterior(annuli: list[AnnulusSpec]) -> None:
    """Every annulus (with its inside) must avoid every other: outer curves
    pairwise disjoint and never nested."""
    for i in range(len(annuli)):
        for j in range(i + 1, len(annuli)):
            a, b = annuli[i].outer, annuli[j].outer
            if curves_meet(a, b):
                raise GeometryRejected(f"annuli {i} and {j} intersect")
            if winding_numbers([b.points[0]], a.points)[0] != 0 \
                    or winding_numbers([a.points[0]], b.points)[0] != 0:
                raise GeometryRejected(f"annuli {i} and {j} are nested")


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


def omega_big_scaled_array(system: MultiShapeSystem, z: np.ndarray):
    """The harmonic combination Omega as a scaled array; a single shape
    short-circuits to omega + 1 (exact degeneration to the polynomial)."""
    terms = [omega_plus_one_scaled_array(*omega_scaled_array(s, z))
             for s in system.shapes]
    if len(terms) == 1:
        return terms[0]
    acc_w, acc_e = _recip_scaled(*terms[0])
    for w, e in terms[1:]:
        acc_w, acc_e = _scaled_add(acc_w, acc_e, *_recip_scaled(w, e))
    return _recip_scaled(acc_w, acc_e)


# ---------------------------------------------------------------------------
# single-point evaluation


def eval_Omega(system: MultiShapeSystem, z, frame: str = "translated") -> ScaledComplex:
    """Harmonic combination of the node products at a single point, through
    the array kernel. A single shape short-circuits to omega + 1 itself
    (exact degeneration); an exact zero among the reciprocals raises
    Indeterminate."""
    return _scaled_point(*omega_big_scaled_array(system, _point(z, system.t, frame)))


#: R(z) = z * Omega(z) and S(z) = P_outer(z) + 1/(omega_inner(z) + 1) at a
#: single point: ``eval_P`` evaluates any map through its ``step``
eval_R = eval_S = eval_P


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class MultiCertificate(Certificate):
    kind: ClassVar[str] = "multi_certificate"
    b: float
    B: float
    rho_ball: float
    sup_inside: float
    inf_outside: float
    sup_bands: float
    inside_max: float
    outside_min: float
    n_certified: int
    shape_count: int
    sample_counts: dict
    passed: bool

    @property
    def escape_radius(self) -> float:
        return 1.05 * self.sup_bands

    @property
    def capture_radius(self) -> float:
        return self.rho_ball

    def margins(self) -> dict:
        return {"inside": self.b - self.inside_max,
                "outside": self.outside_min - self.B}


def system_geometry(annuli: list[AnnulusSpec]):
    """(rho_ball, sup_inside, inf_outside, sup_bands) about the frame origin:
    the origin must lie inside exactly one inner curve."""
    holders = [i for i, a in enumerate(annuli) if a.inner.contains([0j])[0]]
    if len(holders) != 1:
        raise BadBasepoint(
            f"frame origin lies inside {len(holders)} inner regions, need exactly 1")
    rho = float(distance_to_polyline([0j], annuli[holders[0]].inner.points)[0])
    sup_inside = max(float(np.abs(a.inner.points).max()) for a in annuli)
    inf_outside = min(float(distance_to_polyline([0j], a.outer.points)[0])
                      for a in annuli)
    sup_bands = max(float(np.abs(a.outer.points).max()) for a in annuli)
    return rho, sup_inside, inf_outside, sup_bands


def auto_bounds(annuli: list[AnnulusSpec]) -> tuple[float, float]:
    """Midpoint choices for the contraction and expansion levels b < B."""
    rho, sup_in, inf_out, sup_bands = system_geometry(annuli)
    return 0.5 * rho / sup_in, 2.0 * sup_bands / inf_out


def certify_multi(system: MultiShapeSystem, annuli: list[AnnulusSpec],
                  b: float, B: float, samples_per_region: int = 4096,
                  seed: int = 0) -> MultiCertificate:
    """Sampled certificate: |Omega| < b across every inner region, |Omega| > B
    on every outer boundary; b and B must satisfy the geometric product
    conditions (b * sup|inside| < contraction ball, B * inf|outside| >
    sup|bands|).

    The annuli must already have passed ``validate_mutually_exterior``; the
    degree search calls this once per degree, so it does not check again.
    """
    if not (B > b > 0):
        raise GeometryRejected(f"need B > b > 0, got b={b}, B={B}")
    if len(annuli) != system.m:
        raise GeometryRejected("one annulus per shape required")
    rho, sup_in, inf_out, sup_bands = system_geometry(annuli)
    if not (b * sup_in < rho):
        raise GeometryRejected(
            f"contraction level b={b} too large: b*sup|inside|={b * sup_in:.3g} "
            f">= ball radius {rho:.3g}")
    if not (B * inf_out > sup_bands):
        raise GeometryRejected(
            f"expansion level B={B} too small for this geometry")

    rng = np.random.default_rng(seed)
    inside = np.concatenate(
        [sample_interior(a.inner, samples_per_region, rng) for a in annuli]
        + [a.inner.boundary_samples(samples_per_region) for a in annuli])
    outer = np.concatenate(
        [a.outer.boundary_samples(samples_per_region) for a in annuli])

    w, e = omega_big_scaled_array(system, inside)
    _, log_in = materialize(w, e)
    w, e = omega_big_scaled_array(system, outer)
    _, log_out = materialize(w, e)
    with np.errstate(over="ignore"):
        inside_max = float(np.exp2(log_in).max())
        outside_min = float(np.exp2(log_out).min())
    passed = inside_max < b and outside_min > B
    return MultiCertificate(
        b=b, B=B, rho_ball=rho, sup_inside=sup_in, inf_outside=inf_out,
        sup_bands=sup_bands, inside_max=inside_max, outside_min=outside_min,
        n_certified=system.n, shape_count=system.m,
        sample_counts={"inside": int(len(inside)), "outer": int(len(outer))},
        passed=passed)


@dataclass(frozen=True)
class SCertificate(Certificate):
    kind: ClassVar[str] = "s_certificate"
    r_mid: float
    R_big: float
    eta: float
    kappa: float
    xi: float
    mid_max: float
    far_min: float
    growth_min_ratio: float
    n_certified: int
    sample_counts: dict
    passed: bool

    @property
    def escape_radius(self) -> float:
        return 1.05 * self.R_big

    @property
    def capture_radius(self) -> float:
        return self.r_mid

    def margins(self) -> dict:
        return {"mid": self.r_mid - self.mid_max,
                "far": self.far_min - self.R_big,
                "growth": self.growth_min_ratio - 2.0}


def certify_S(system: AnnulusSystem, samples_per_region: int = 4096,
              seed: int = 0) -> SCertificate:
    """Sampled certificate for the annulus map: |S| < r on the middle region,
    |S| > R on the outer boundary and the inner disk, and |S| > 2|z| on the
    outer boundary."""
    E, F = system.outer_band, system.inner_band
    in_e_inner = bool(E.inner.contains([0j])[0])
    out_f_outer = not bool(F.outer.contains([0j])[0])
    if not (in_e_inner and out_f_outer):
        raise BadBasepoint("frame origin must lie in the middle region "
                           "(inside the outer band, outside the inner band)")
    r_mid = 0.999 * min(float(distance_to_polyline([0j], E.inner.points)[0]),
                        float(distance_to_polyline([0j], F.outer.points)[0]))
    R_big = 1.001 * float(np.abs(E.outer.points).max())
    inf_o = float(distance_to_polyline([0j], E.outer.points)[0])
    if not (r_mid > 0 and inf_o > 0):
        raise GeometryRejected("middle region degenerate around the basepoint")
    eta = 1.0 / inf_o
    kappa = 1.05 * max(1.0, eta * (1.0 + r_mid / 2.0), eta * (R_big + r_mid / 2.0))

    rng = np.random.default_rng(seed)
    mid = np.concatenate([
        sample_interior(E.inner, samples_per_region, rng, exclude=F.outer),
        E.inner.boundary_samples(samples_per_region),
        F.outer.boundary_samples(samples_per_region),
    ])
    inner_disk = np.concatenate([
        sample_interior(F.inner, samples_per_region, rng),
        F.inner.boundary_samples(samples_per_region),
    ])
    o_boundary = E.outer.boundary_samples(samples_per_region)

    _, log_mid = system.step(mid)
    _, log_inner = system.step(inner_disk)
    _, log_ob = system.step(o_boundary)
    with np.errstate(over="ignore"):
        mid_max = float(np.exp2(log_mid).max())
        far_min = float(min(np.exp2(log_inner).min(), np.exp2(log_ob).min()))
        growth = np.exp2(log_ob - np.log2(np.abs(o_boundary)))
    growth_min = float(growth.min())
    passed = mid_max < r_mid and far_min > R_big and growth_min > 2.0
    return SCertificate(
        r_mid=r_mid, R_big=R_big, eta=eta, kappa=kappa, xi=system.xi,
        mid_max=mid_max, far_min=far_min, growth_min_ratio=growth_min,
        n_certified=system.outer_shape.n,
        sample_counts={"mid": int(len(mid)), "inner": int(len(inner_disk)),
                       "outer_boundary": int(len(o_boundary))},
        passed=passed)

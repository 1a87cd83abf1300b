"""Orbit iteration and sampled escape certificates.

A certificate witnesses, on dense samples, the two inequalities that justify
finite-iteration classification: the map contracts the region inside the
annulus into a ball around the origin, and expands by a factor kappa outside
it. Certification is by sampling, not interval arithmetic: the checks run on
the annulus boundary curves (where the extrema of an analytic map live) plus
seeded interior draws, and the unbounded region is covered by its boundary
samples together with the far-field growth of the leading term. The dump
records this as a sampled certificate.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import ClassVar

import numpy as np

from .curves import AnnulusSpec, distance_to_polyline, sample_interior
from .errors import NoDegreeFound, SamplingFailure
from .shapepoly import ShapePolynomial, p_step_array


class OrbitStatus(enum.IntEnum):
    INTERIOR_CAPTURED = 0
    ESCAPED = 1
    UNDECIDED = 2


@dataclass(frozen=True)
class OrbitResult:
    status: OrbitStatus
    iterations: int
    final_magnitude_exponent: int


def iterate(kernel, z0: complex, escape_radius: float, capture_radius: float,
            max_iter: int = 200) -> OrbitResult:
    """Iterate a per-pixel kernel from z0 until the orbit magnitude leaves
    [capture_radius, escape_radius] or the budget runs out. The kernel works
    in the shifted frame; callers shift z0 accordingly."""
    if not (escape_radius > capture_radius > 0):
        raise ValueError("need escape_radius > capture_radius > 0")
    log_cap = math.log2(capture_radius)
    log_esc = math.log2(escape_radius)
    z = complex(z0)
    lm = math.log2(abs(z)) if z != 0 else -math.inf
    if lm < log_cap:
        return OrbitResult(OrbitStatus.INTERIOR_CAPTURED, 0, _expo(lm))
    if lm > log_esc:
        return OrbitResult(OrbitStatus.ESCAPED, 0, _expo(lm))
    buf = np.empty(1, dtype=np.complex128)
    for m in range(1, max_iter + 1):
        buf[0] = z
        vals, log2m = kernel.step(buf)
        lm = float(log2m[0])
        if math.isnan(lm):
            return OrbitResult(OrbitStatus.UNDECIDED, m, 0)
        if lm < log_cap:
            return OrbitResult(OrbitStatus.INTERIOR_CAPTURED, m, _expo(lm))
        if lm > log_esc:
            return OrbitResult(OrbitStatus.ESCAPED, m, _expo(lm))
        z = complex(vals[0])
    return OrbitResult(OrbitStatus.UNDECIDED, max_iter, _expo(lm))


def _expo(log2m: float) -> int:
    if log2m == -math.inf:
        return -(2 ** 30)
    if log2m == math.inf:
        return 2 ** 30
    return int(round(log2m))


# ---------------------------------------------------------------------------
# certification


class Certificate:
    """What the certificates of the three constructions share: a ``kind``,
    ``passed``, ``margins()``, escape and capture radii, and a rebuild from
    the fields of their dump."""

    @classmethod
    def from_obj(cls, obj: dict):
        return cls(**{f.name: obj[f.name] for f in fields(cls)})


@dataclass(frozen=True)
class EscapeCertificate(Certificate):
    kind: ClassVar[str] = "escape_certificate"
    r_inner: float
    kappa: float
    K_bound: float
    alpha: float
    beta: float
    gamma_inf: float
    n_certified: int
    inside_max: float
    outside_min_ratio: float
    sample_counts: dict
    passed: bool

    @property
    def escape_radius(self) -> float:
        """Radius beyond which every point lies in the certified expanding
        region (5% slack over the sampled supremum)."""
        return 1.05 * self.beta

    @property
    def capture_radius(self) -> float:
        return self.r_inner

    def margins(self) -> dict:
        return {
            "inside": self.r_inner - self.inside_max,
            "outside": self.outside_min_ratio - self.kappa,
            "ball": self.kappa * self.gamma_inf - self.beta,
        }


def _abs_p(shape: ShapePolynomial, z: np.ndarray) -> np.ndarray:
    _, log2m = p_step_array(shape, z)
    with np.errstate(over="ignore"):
        return np.exp2(log2m)


def certify(shape: ShapePolynomial, annulus: AnnulusSpec,
            samples_per_region: int = 4096, seed: int = 0) -> EscapeCertificate:
    """Sampled escape certificate for a shape polynomial against its annulus
    (both in the shifted frame: the origin must lie inside the inner curve).

    PASS means: |P| < r_inner on the region inside the annulus (boundary
    curve plus seeded interior draws), |P| > kappa |z| on the outer boundary,
    and kappa * gamma_inf exceeds the supremum of |z| off the unbounded side.
    """
    if samples_per_region < 256:
        raise SamplingFailure("need at least 256 samples per region")
    inner, outer = annulus.inner, annulus.outer
    alpha = float(np.abs(inner.points).max())
    beta = float(np.abs(outer.points).max())
    gamma = float(distance_to_polyline([0j], outer.points)[0])
    d_inner = float(distance_to_polyline([0j], inner.points)[0])
    if not inner.contains([0j])[0]:
        raise SamplingFailure("origin is not inside the annulus")
    k_bound = max(1.0, beta / gamma)
    kappa = 2.0 * k_bound
    r_inner = min(gamma / 2.0, d_inner)

    rng = np.random.default_rng(seed)
    inside_pts = np.concatenate([
        sample_interior(inner, samples_per_region, rng),
        inner.boundary_samples(samples_per_region),
    ])
    outer_pts = outer.boundary_samples(samples_per_region)

    inside_max = float(_abs_p(shape, inside_pts).max())
    ratios = _abs_p(shape, outer_pts) / np.abs(outer_pts)
    outside_min_ratio = float(ratios.min())

    passed = (inside_max < r_inner
              and outside_min_ratio > kappa
              and kappa * gamma > beta)
    return EscapeCertificate(
        r_inner=r_inner, kappa=kappa, K_bound=k_bound, alpha=alpha, beta=beta,
        gamma_inf=gamma, n_certified=shape.n, inside_max=inside_max,
        outside_min_ratio=outside_min_ratio,
        sample_counts={"inside": int(len(inside_pts)), "outer": int(len(outer_pts))},
        passed=passed)


def find_min_degree(build, certify, n_schedule):
    """Smallest n in the schedule whose candidate certifies, for any of the
    three constructions. ``build(n)`` returns the candidate for root count n
    (a ShapePolynomial, MultiShapeSystem or AnnulusSystem) and
    ``certify(candidate)`` its certificate, which has ``passed`` and
    ``margins()``. Returns (candidate, certificate); when no degree passes,
    raises NoDegreeFound carrying the certificate whose worst margin was
    largest."""
    best = None
    best_margin = -math.inf
    for n in n_schedule:
        candidate = build(int(n))
        cert = certify(candidate)
        if cert.passed:
            return candidate, cert
        worst = min(cert.margins().values())
        if worst > best_margin:
            best_margin = worst
            best = cert
    raise NoDegreeFound(
        f"no degree in {list(n_schedule)} certified",
        best=None if best is None else asdict(best))


# ---------------------------------------------------------------------------
# persistence


def save_certificate(cert, path, config: dict | None = None) -> None:
    """Dump a certificate of any construction (EscapeCertificate,
    MultiCertificate or SCertificate) under its ``kind``, with its fields and
    radii. Only the escape certificate also records its margins."""
    obj = {"kind": cert.kind, "sampled": True}
    obj.update(asdict(cert))
    if isinstance(cert, EscapeCertificate):
        obj["margins"] = cert.margins()
    obj["capture_radius"] = cert.capture_radius
    obj["escape_radius"] = cert.escape_radius
    if config is not None:
        obj["config"] = config
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")

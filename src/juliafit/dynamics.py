"""Orbit classification and sampled escape certificates.

``classify_orbits`` is the one orbit classifier: the render runs it on each
tile of pixel centers, and nothing else iterates a map.

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
import math
from dataclasses import asdict, dataclass, fields
from typing import ClassVar

import numpy as np

from .curves import AnnulusSpec, distance_to_polyline, sample_interior
from .dumps import write_json
from .errors import NoDegreeFound, SamplingFailure
from .shapepoly import ShapePolynomial, p_step_array


class OrbitStatus(enum.IntEnum):
    INTERIOR_CAPTURED = 0
    ESCAPED = 1
    UNDECIDED = 2


def classify_orbits(kernel, z: np.ndarray, escape_radius: float,
                    capture_radius: float, max_iter: int = 200):
    """The one orbit classifier: iterate ``kernel.step`` from every point of
    the 1-D array z (in the kernel's shifted frame) until the orbit magnitude
    leaves [capture_radius, escape_radius] or the budget runs out.

    Returns uint8 OrbitStatus codes and uint32 iteration counts: 0 for a
    start already outside the interval, the step that decided the orbit, or
    max_iter. A step whose magnitude is NaN (indeterminate) ends the orbit
    UNDECIDED at that step.
    """
    log_cap = math.log2(capture_radius)
    log_esc = math.log2(escape_radius)
    status = np.full(z.shape, int(OrbitStatus.UNDECIDED), dtype=np.uint8)
    iters = np.full(z.shape, max_iter, dtype=np.uint32)

    with np.errstate(divide="ignore"):
        lm = np.log2(np.abs(z))
    cap0 = lm < log_cap
    esc0 = lm > log_esc
    status[cap0] = int(OrbitStatus.INTERIOR_CAPTURED)
    status[esc0] = int(OrbitStatus.ESCAPED)
    iters[cap0 | esc0] = 0

    active = np.flatnonzero(~(cap0 | esc0))
    cur = z[active]
    for m in range(1, max_iter + 1):
        if active.size == 0:
            break
        vals, lm = kernel.step(cur)
        bad = np.isnan(lm)
        cap = lm < log_cap
        esc = lm > log_esc
        done = bad | cap | esc
        if done.any():
            status[active[cap]] = int(OrbitStatus.INTERIOR_CAPTURED)
            status[active[esc]] = int(OrbitStatus.ESCAPED)
            # indeterminate points keep UNDECIDED status (boundary)
            iters[active[done]] = m
            keep = ~done
            active = active[keep]
            cur = vals[keep]
        else:
            cur = vals
    return status, iters


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
    write_json(obj, path)

"""Orbit classification and sampled escape certificates.

``classify_orbits`` is the one orbit classifier: the render runs it on each
tile of pixel centers, and nothing else iterates a map. The render also
passes each pixel two bounds from its map: a floor, a lower bound on
log2|step| from ``step_floor``, and a ceiling, an upper bound on the computed
log2|step| from ``step_ceiling``. A pixel whose floor clears
log2(escape_radius) by FLOOR_SLACK is marked escaped at step 1 without being
stepped, and one whose ceiling stays below log2(capture_radius) by
FLOOR_SLACK is marked captured at step 1 the same way. Stepping it would
have marked it the same way, so no byte of a field changes: the floor bounds
the exact value and the ceiling the computed one, and the slack covers the
rounding of the bounds and, for the floor, the relative error of the
computed step (about n 2**-52 for n roots). However few pixels the bounds
leave to step, each steps exactly as it would among all of them (see
``shapepoly``), so from step 2 on the same pixels are active with the same
values. The one exception would be a rational map whose step reports an
indeterminate point at a settled pixel center: a multi-shape map where its
computed harmonic sum cancels to exactly zero, both components, at a
far-field center, or where one computed omega_j + 1 is exactly zero at an
interior one.

A certificate witnesses the trapping that justifies finite-iteration
classification. For a shape polynomial P(z) = z (omega(z) + 1) against its
annulus, write D for the inside of the inner curve, U for the unbounded side
of the outer curve, beta = max |z| on the outer curve and d_inner =
dist(0, inner curve). ``certify`` checks three conditions:

- (A) max |P| < d_inner on the inner curve. By maximum modulus P maps the
  closure of D into B(0, d_inner), which lies in D.
- (R) every root r_k lies inside the outer curve.
- (B1) min |P| > beta on the outer curve.

On the outer curve |omega + 1| = |P| / |z| > 1 = |(omega + 1) - omega|, so
by the symmetric Rouche theorem omega + 1, like omega, has all n zeros
inside it. Then 1/P is analytic on U and at infinity, which gives |P| > beta
on U, and w/P on |w| >= beta gives |P(w)| >= q |w| with q > 1: every orbit
from U escapes. The extrema come from dense boundary samples, not interval
arithmetic, and the dump records the certificate as sampled.
A map holds only its shapes; each certificate takes the bands it checks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass, fields
from typing import ClassVar

import numpy as np

from .curves import AnnulusSpec, distance_to_polyline
from .dumps import write_json
from .errors import BadBasepoint, GeometryRejected, NoDegreeFound, SamplingFailure
from .shapepoly import ShapePolynomial, _harmonic, _plus_one_terms, _times_z, materialize


#: fewest boundary samples per curve that a certificate takes
MIN_SAMPLES = 256
#: log2 margin by which a floor must clear log2(escape_radius), or a ceiling
#: stay below log2(capture_radius), to settle a point at step 1. It covers
#: the rounding of the floor, whose n log2 terms are each good to a few
#: 2**-52 of their size and whose sum adds at most n 2**-53 times the sum of
#: their sizes (2**-21 for n up to 2**12 and terms up to 2**8 in size,
#: distances between 2**-256 and 2**256), the relative rounding of the
#: ceiling's sums of n positive terms, and the relative error of the computed
#: step, about n 2**-52, which moves log2|step| by less than 2**-40 at n = 512.
FLOOR_SLACK = 2.0 ** -20


class OrbitStatus(enum.IntEnum):
    INTERIOR_CAPTURED = 0
    ESCAPED = 1
    UNDECIDED = 2


def classify_orbits(kernel, z: np.ndarray, escape_radius: float,
                    capture_radius: float, max_iter: int = 200,
                    floor: np.ndarray | None = None,
                    ceiling: np.ndarray | None = None):
    """The one orbit classifier: iterate ``kernel.step`` from every point of
    the 1-D array z (in the kernel's shifted frame) until the orbit magnitude
    leaves [capture_radius, escape_radius] or the budget runs out.

    Returns uint8 OrbitStatus codes and uint32 iteration counts: 0 for a
    start already outside the interval, the step that decided the orbit, or
    max_iter. A step whose magnitude is NaN (indeterminate) ends the orbit
    UNDECIDED at that step.

    ``floor``, if given, holds a lower bound on log2|step(z)| per point; a
    point still undecided after step 0 whose floor exceeds log2(escape_radius)
    + FLOOR_SLACK escapes at step 1 without being stepped. ``ceiling``, if
    given, holds an upper bound on the computed log2|step(z)| per point; a
    point still undecided after step 0 whose ceiling is below
    log2(capture_radius) - FLOOR_SLACK is captured at step 1 without being
    stepped. Neither settles anything when max_iter is 0 (see the module
    docstring).
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

    def settle(done, code):
        nonlocal active
        status[active[done]] = int(code)
        iters[active[done]] = 1
        active = active[~done]

    if floor is not None and max_iter >= 1:
        settle(floor[active] > log_esc + FLOOR_SLACK, OrbitStatus.ESCAPED)
    if ceiling is not None and max_iter >= 1:
        settle(ceiling[active] < log_cap - FLOOR_SLACK, OrbitStatus.INTERIOR_CAPTURED)
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


@dataclass(frozen=True)
class EscapeCertificate:
    """The certificate of ``certify`` and the base of those of the rational
    maps: a ``kind``, ``passed``, ``n_certified``, ``margins()``, escape and
    capture radii, and a rebuild from the fields of their dump."""

    kind: ClassVar[str] = "escape_certificate"
    d_inner: float
    beta: float
    n_certified: int
    inside_max: float
    outside_min: float
    roots_outside: int
    sample_counts: dict
    passed: bool

    @property
    def escape_radius(self) -> float:
        return self.beta

    @property
    def capture_radius(self) -> float:
        return self.d_inner

    def margins(self) -> dict:
        """(A) and (B1) pass above 0; "roots" is minus the number of roots
        outside the outer curve, so (R) passes at 0."""
        return {
            "inside": self.d_inner - self.inside_max,
            "outside": self.outside_min - self.beta,
            "roots": -self.roots_outside,
        }

    @classmethod
    def from_obj(cls, obj: dict):
        return cls(**{f.name: obj[f.name] for f in fields(cls)})


def sample_bands(shapes, annuli, inner, outer, combine, samples_per_region: int):
    """Sampled extrema shared by all three certificates. On each curve of
    ``inner`` and ``outer``, omega_s + 1 of every shape is evaluated once at
    the boundary samples z, and ``combine(z, terms)`` lists the map, then any
    other scaled array a certificate needs. Returns the fields of (A) and
    (B1), with d_inner the distance from the origin to the nearest inner
    curve and beta the largest |z| on the outer ones, of (R) and of (Z) for
    shape s on the outer curve of annuli[s], which must be one of the
    curves; and, keyed by ``id(curve)``, the log2 magnitudes of the terms
    and then of what ``combine`` lists."""
    if samples_per_region < MIN_SAMPLES:
        raise SamplingFailure(f"need at least {MIN_SAMPLES} samples per region")
    d_inner = min(float(distance_to_polyline([0j], c.points)[0]) for c in inner)
    beta = max(float(np.abs(c.points).max()) for c in outer)
    logs = {}
    for curve in [*inner, *outer]:
        z = curve.boundary_samples(samples_per_region)
        terms = _plus_one_terms(shapes, z)
        logs[id(curve)] = [materialize(*v)[1] for v in [*terms, *combine(z, terms)]]
    m = len(shapes)
    log_in = np.concatenate([logs[id(c)][m] for c in inner])
    log_out = np.concatenate([logs[id(c)][m] for c in outer])
    log_zeros = np.concatenate([logs[id(a.outer)][s] for s, a in enumerate(annuli)])
    with np.errstate(over="ignore", invalid="ignore"):
        inside_max = float(np.exp2(log_in.max()))
        outside_min = float(np.exp2(log_out.min()))
        zeros_min = float(np.exp2(log_zeros.min()))
    roots_outside = sum(int(np.count_nonzero(~a.outer.contains(s.roots)))
                        for s, a in zip(shapes, annuli))
    passed = (inside_max < d_inner and outside_min > beta and roots_outside == 0
              and zeros_min > 1.0)
    return dict(
        d_inner=d_inner, beta=beta, n_certified=shapes[0].n, inside_max=inside_max,
        outside_min=outside_min, roots_outside=roots_outside,
        sample_counts={"inner": int(len(log_in)), "outer": int(len(log_out))},
        passed=passed, zeros_min=zeros_min), logs


def certify_shapes(shapes, annuli, samples_per_region: int) -> dict:
    """The certificate fields of R = z Omega (see ``rational``) for
    ``shapes`` against their ``annuli``, exactly one of whose inner curves
    must hold the frame origin. One shape gives R = P, the map of
    ``certify``: (P) is then vacuous and (Z) follows from (B1)."""
    if len(annuli) != len(shapes):
        raise GeometryRejected("one annulus per shape required")
    holders = sum(bool(a.inner.contains([0j])[0]) for a in annuli)
    if holders != 1:
        raise BadBasepoint(
            f"frame origin lies inside {holders} inner regions, need exactly 1")
    fields, logs = sample_bands(
        shapes, annuli, [a.inner for a in annuli], [a.outer for a in annuli],
        lambda z, terms: [_times_z(z, *_harmonic(terms))], samples_per_region)
    m = len(shapes)
    with np.errstate(over="ignore", invalid="ignore"):
        poles = np.concatenate([
            sum((np.exp2(row[j] - row[i]) for i in range(m) if i != j),
                np.zeros_like(row[j]))
            for j, row in enumerate(logs[id(a.inner)] for a in annuli)])
    poles_max = float(poles.max())
    return dict(fields, poles_max=poles_max,
                passed=fields["passed"] and poles_max < 1.0)


def certify(shape: ShapePolynomial, annulus: AnnulusSpec,
            samples_per_region: int = 4096) -> EscapeCertificate:
    """Sampled escape certificate for a shape polynomial against its annulus
    (both in the shifted frame: the origin must lie inside the inner curve).

    PASS means (A), (R) and (B1) of the module docstring hold, each curve
    taken at ``samples_per_region`` boundary samples: orbits that enter
    B(0, d_inner) stay there, and orbits that leave B(0, beta) escape: the
    one-shape case of ``certify_shapes``.
    """
    return EscapeCertificate.from_obj(
        certify_shapes((shape,), (annulus,), samples_per_region))


def find_min_degree(build, certify, n_schedule):
    """Smallest n in the schedule whose candidate certifies, for any of the
    three constructions. ``build(n)`` returns the candidate for root count n
    (a ShapePolynomial, MultiShapeSystem or AnnulusSystem) and
    ``certify(candidate)`` its certificate, which has ``passed`` and
    ``margins()``. Returns (candidate, certificate); when no degree passes,
    raises NoDegreeFound carrying the fields and ``margins`` of the
    certificate whose worst margin was largest."""
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
        best=None if best is None else dict(asdict(best), margins=best.margins()))


# ---------------------------------------------------------------------------
# persistence


def save_certificate(cert, path, config: dict | None = None) -> None:
    """Dump a certificate of any construction (EscapeCertificate,
    MultiCertificate or SCertificate) under its ``kind``, with its fields,
    margins and radii."""
    obj = {"kind": cert.kind, "sampled": True}
    obj.update(asdict(cert))
    obj["margins"] = cert.margins()
    obj["capture_radius"] = cert.capture_radius
    obj["escape_radius"] = cert.escape_radius
    if config is not None:
        obj["config"] = config
    write_json(obj, path)

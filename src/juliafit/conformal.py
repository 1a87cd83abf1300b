"""Numerical conformal maps from the outside of the unit disk onto the
outside of a Jordan curve, with infinity fixed.

Construction: shift an interior basepoint t to the origin, invert the plane
(z -> 1/z) so the curve exterior becomes a bounded Jordan region with the
origin inside, build an interior-to-disk map for that region as a composition
of elementary slit-closing maps (one per boundary vertex), and conjugate the
whole chain back. The resulting map evaluates anywhere on or outside the unit
circle. Its Laurent data, whose leading coefficient is the curve's
logarithmic capacity, is computed on demand by ``laurent_coefficients``; no
part of the pipeline needs it. A built map is an in-memory value: no command
writes it out or reads it back.

A map only proposes roots; the escape certificate checks them. So no
tolerance judges a built map: ``build_exterior_map`` reports how well the
unit circle's image fits the curve and fails only where its arithmetic does.

All evaluation points live in the shifted frame (curve minus t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .curves import JordanCurve, distance_to_polyline, resample_closed, signed_area, winding_numbers
from .errors import Aliasing, BadBasepoint, MapDiverged, OutOfDomain

#: relative agreement demanded of the Laurent series between its two
#: extractions
REL_TOL_MAP = 1e-6
#: unit-circle points on which a built map's boundary fit is measured; they
#: are every GAUGE_PROBE // BOUNDARY_TABLE-th gauge-probe point
BOUNDARY_TABLE = 1024
#: unit-circle points among which the gauge anchors w = 1, mapped once per
#: build; their images also give the boundary fit (see ``build_exterior_map``)
GAUGE_PROBE = 4096
#: negative powers kept in a Laurent series by default
LAURENT_ORDER = 64
#: radius of the circle the Laurent coefficients are read on
RHO_SAMPLE = 1.25
#: points on that circle
FFT_SIZE = 4096
#: queried |w| may undershoot 1 by this much before OUT_OF_DOMAIN
DOMAIN_TOL = 1e-9
#: boundary evaluations are pulled inside the disk by this relative amount
_NUDGE = 1e-12


@dataclass(frozen=True)
class _Chain:
    """Composition data for the slit-map chain, in forward order."""

    z0: complex          # first two vertices of the inverted-plane curve
    z1: complex
    cs: np.ndarray       # per-stage slit heights (float)
    bs: np.ndarray       # per-stage Moebius poles (float, +inf = identity)
    b_close: float       # closing-stage Moebius pole
    a_disk: complex      # half-plane image of the inversion center
    gauge: complex       # unit number; evaluation uses u = gauge / w


@dataclass(frozen=True)
class ExteriorMap:
    """Exterior map of a curve about its basepoint t, evaluated through its
    slit-map chain; boundary_rmse is the rms distance from the images of the
    BOUNDARY_TABLE unit-circle points to the curve, measured at build time and
    reported, not held to a tolerance."""

    t: complex
    boundary_rmse: float
    chain: _Chain


# ---------------------------------------------------------------------------
# forward construction


def _flip_upper(w: np.ndarray) -> np.ndarray:
    np.negative(w, out=w, where=w.imag < 0)
    return w


def _forward_stage_complex(z: np.ndarray, c: float, b: float) -> np.ndarray:
    """One slit-closing map applied to upper-half-plane points."""
    if math.isfinite(b):
        z = z / (1.0 - z / b)
    w = np.sqrt(z * z + c * c)
    return _flip_upper(w)

def _forward_stage_real(x: float, c: float, b: float) -> float:
    """Same stage on the real boundary (two-sided limit away from the slit)."""
    if math.isfinite(b):
        if math.isinf(x):
            u = -b
        else:
            den = 1.0 - x / b
            u = math.inf if den == 0.0 else x / den
    else:
        u = x
    if u == 0.0:
        return c
    if math.isinf(u):
        return math.copysign(math.inf, u)
    return math.copysign(math.hypot(u, c), u)


def _build_chain(kpts: np.ndarray) -> _Chain:
    """Run the slit-map composition over the inverted-curve vertices.

    kpts must be counterclockwise with the origin strictly inside; the origin
    is the image of infinity and is tracked through every stage.
    """
    z0, z1 = complex(kpts[0]), complex(kpts[1])
    pending = kpts[2:].astype(np.complex128).copy()
    origin = np.array([0.0j])

    q = (pending - z1) / (pending - z0)
    pending = _flip_upper(1j * np.sqrt(q))
    origin = _flip_upper(1j * np.sqrt((origin - z1) / (origin - z0)))
    x0 = math.inf

    n_st = len(pending)
    cs = np.empty(n_st)
    bs = np.empty(n_st)
    scale = float(np.abs(pending).max())
    for k in range(n_st):
        a = complex(pending[k])
        if not (a.imag > 1e-14 * scale):
            raise MapDiverged(f"vertex {k + 2} degenerated onto the boundary")
        asq = abs(a) ** 2
        b = asq / a.real if abs(a.real) > 1e-14 * abs(a) else math.inf
        c = asq / a.imag
        cs[k] = c
        bs[k] = b
        pending[k + 1:] = _forward_stage_complex(pending[k + 1:], c, b)
        origin = _forward_stage_complex(origin, c, b)
        x0 = _forward_stage_real(x0, c, b)

    if not (math.isfinite(x0) and x0 != 0.0):
        raise MapDiverged("closing stage degenerated")
    w = origin[0] / (1.0 - origin[0] / x0)
    w = -w * w
    if not (w.imag > 0):
        raise MapDiverged("inversion center left the target half-plane "
                          "(curve orientation or geometry is degenerate)")
    return _Chain(z0=z0, z1=z1, cs=cs, bs=bs, b_close=x0, a_disk=complex(w),
                  gauge=1.0 + 0j)


def _chain_pullback(chain: _Chain, u: np.ndarray) -> np.ndarray:
    """Map points of the closed unit disk back to the inverted-plane region."""
    a = chain.a_disk
    zeta = (a - u * np.conjugate(a)) / (1.0 - u)
    s = 1j * np.sqrt(zeta)
    zeta = s * chain.b_close / (chain.b_close + s)
    # Each stage computes u2 = zeta * sqrt(1 - (c/zeta)**2) (u2 = i*c where
    # zeta = 0), then zeta = u2 * b / (b + u2), into work buffers allocated
    # once, with the operands in that order. No ufunc writes into one of its
    # own operands: for short arrays NumPy runs a complex product whose
    # output aliases an input through another loop, whose last bits differ
    # from those of the unaliased product.
    u2, ratio, tmp = (np.empty_like(zeta) for _ in range(3))
    for c, b in zip(chain.cs[::-1], chain.bs[::-1]):
        zero = None if zeta.all() else zeta == 0
        if zero is None:
            np.divide(c, zeta, out=ratio)
        else:
            ratio.fill(0)
            ratio[~zero] = c / zeta[~zero]
        np.multiply(ratio, ratio, out=tmp)
        np.subtract(1.0, tmp, out=ratio)
        np.sqrt(ratio, out=tmp)
        np.multiply(zeta, tmp, out=u2)
        if zero is not None:
            u2[zero] = 1j * c
        if math.isfinite(b):
            np.multiply(u2, b, out=tmp)
            np.add(b, u2, out=ratio)
            np.divide(tmp, ratio, out=zeta)
        else:
            zeta, u2 = u2, zeta
    q = -zeta * zeta
    return (chain.z1 - q * chain.z0) / (1.0 - q)


def _chain_eval(chain: _Chain, w: np.ndarray) -> np.ndarray:
    u = chain.gauge / w
    mag = np.abs(u)
    u = np.where(mag > 1.0 - _NUDGE, u * ((1.0 - _NUDGE) / mag), u)
    return 1.0 / _chain_pullback(chain, u)


def _series_eval(coeffs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Evaluate [c1, c0, c_-1, ...] at points with |w| >= 1."""
    inv = 1.0 / w
    acc = np.zeros_like(w)
    for c in coeffs[:1:-1]:
        acc = (acc + c) * inv
    return coeffs[0] * w + coeffs[1] + acc


# ---------------------------------------------------------------------------
# public operations


def evaluate_map(m: ExteriorMap, w):
    """Evaluate the exterior map at scalar or array w with |w| >= 1 (a hair
    less is tolerated). Output is in the shifted frame (curve minus t)."""
    w_arr = np.asarray(w, dtype=np.complex128)
    scalar = w_arr.ndim == 0
    w_arr = w_arr.reshape(-1)
    if np.any(np.abs(w_arr) < 1.0 - DOMAIN_TOL):
        raise OutOfDomain("evaluation point inside the unit disk")
    vals = _chain_eval(m.chain, w_arr)
    return complex(vals[0]) if scalar else vals


def laurent_coefficients(m: ExteriorMap, order: int = LAURENT_ORDER,
                         rho_sample: float = RHO_SAMPLE) -> np.ndarray:
    """Recover [c1, c0, c_-1, ..., c_-order] by Fourier analysis on the circle
    |w| = rho_sample, cross-checked against a second extraction at twice the
    radius (the two truncated series must agree in the far field): c1 (the
    capacity) multiplies w, c0 is the constant term, c_-k divides w**k."""
    if order > BOUNDARY_TABLE // 2:
        raise Aliasing("order exceeds half the boundary table size")

    def extract(rho: float) -> np.ndarray:
        th = 2.0 * np.pi * np.arange(FFT_SIZE) / FFT_SIZE
        vals = evaluate_map(m, rho * np.exp(1j * th))
        f = np.fft.fft(vals) / FFT_SIZE
        out = np.empty(order + 2, dtype=np.complex128)
        out[0] = f[1] / rho
        out[1] = f[0]
        ks = np.arange(1, order + 1)
        out[2:] = f[FFT_SIZE - ks] * rho ** ks
        return out

    c_lo = extract(rho_sample)
    c_hi = extract(2.0 * rho_sample)
    th = 2.0 * np.pi * np.arange(256) / 256
    w_test = 4.0 * rho_sample * np.exp(1j * th)
    s_lo = _series_eval(c_lo, w_test)
    s_hi = _series_eval(c_hi, w_test)
    scale = float(np.abs(s_lo).max())
    if float(np.abs(s_lo - s_hi).max()) > REL_TOL_MAP * scale:
        raise Aliasing(
            f"coefficient extraction disagrees between |w|={rho_sample} and "
            f"{2 * rho_sample}; map resolution insufficient")
    return c_lo


def build_exterior_map(curve: JordanCurve, t: complex | None = None, *,
                       resample: int = 512) -> ExteriorMap:
    """Construct the exterior map for a curve about interior basepoint t
    (default: the region centroid).

    The map is normalized so that w = 1 lands on the image of maximal real
    part (ties toward maximal imaginary part) among the images of GAUGE_PROBE
    equally spaced unit-circle points, that is on the curve point of maximal
    real part up to an angle of 2 pi / GAUGE_PROBE in w. The boundary_rmse
    is read from the same images, at the BOUNDARY_TABLE unit-circle points
    among them, so a build evaluates the chain once.

    Raises BAD_BASEPOINT when t is not strictly inside the curve, and
    MAP_DIVERGED when the slit-map chain degenerates or maps a unit-circle
    point to a non-finite value. A finite map with a poor fit is returned:
    its roots meet the certificate, which passes or fails them.
    """
    if t is None:
        t = curve.centroid
    if (winding_numbers([t], curve.points)[0] != 1
            or float(distance_to_polyline([t], curve.points)[0]) < 1e-9 * curve.diameter):
        raise BadBasepoint(f"basepoint {t} is not strictly inside the curve")

    work = resample_closed(curve.points, resample) - t
    kpts = 1.0 / work[::-1]
    if signed_area(kpts) < 0:
        kpts = kpts[::-1]
    chain = _build_chain(kpts)

    # gauge: anchor w = 1 at the rightmost boundary image; evaluation pulls
    # back u = gauge / w, so the anchor gauge is the conjugate probe point
    th = 2.0 * np.pi * np.arange(GAUGE_PROBE) / GAUGE_PROBE
    probe = np.exp(1j * th)
    vals = _chain_eval(chain, probe)
    if not np.all(np.isfinite(vals)):
        raise MapDiverged("the chain maps a unit-circle point to a non-finite value")
    best = np.lexsort((vals.imag, vals.real))[-1]
    chain = replace(chain, gauge=complex(np.conjugate(probe[best])))

    # under that gauge the BOUNDARY_TABLE points pull back every stride-th
    # probe point from best on: the boundary fit reads their images
    stride = GAUGE_PROBE // BOUNDARY_TABLE
    zb = vals[best % stride::stride]
    rmse = float(np.sqrt(np.mean(distance_to_polyline(zb, work) ** 2)))
    return ExteriorMap(t=complex(t), boundary_rmse=rmse, chain=chain)

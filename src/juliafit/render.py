"""Escape-time rasterization and Hausdorff verification.

A render classifies every pixel center by orbit fate (captured near the
origin, escaped beyond the certified radius, or undecided at the iteration
budget) with ``dynamics.classify_orbits``, the one orbit classifier. Work is
split into row tiles; each tile is computed independently, so worker count
changes timing but never bytes. Verification compares the rendered sets
against sampled targets in Hausdorff distance (``curves.hausdorff_distance``
for the boundary), clipping the unbounded side to the render bbox; undecided
pixels count as boundary, and the one-pixel thickness of a rasterized
boundary is absorbed by adding one pixel diagonal to the tolerance.
"""

from __future__ import annotations

import base64
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.ndimage import distance_transform_edt

from .curves import JordanCurve, hausdorff_distance, winding_numbers
from .dynamics import OrbitStatus, classify_orbits
from .errors import BboxTooSmall, EmptySet, MonochromeField

TILE_ROWS = 16
#: samples per target curve in the Hausdorff check
CURVE_SAMPLES = 4096


@dataclass(frozen=True)
class EscapeField:
    """Per-pixel orbit classification over a rectangular grid."""

    kind: ClassVar[str] = "escape_field"
    bbox: tuple[complex, complex]
    width: int
    height: int
    status: np.ndarray       # uint8 (height, width), OrbitStatus values
    iterations: np.ndarray   # uint32 (height, width)
    escape_radius: float
    capture_radius: float
    max_iter: int

    def __post_init__(self):
        self.status.setflags(write=False)
        self.iterations.setflags(write=False)

    @property
    def pixel_size(self) -> tuple[float, float]:
        lo, hi = self.bbox
        return ((hi.real - lo.real) / self.width,
                (hi.imag - lo.imag) / self.height)

    @property
    def pixel_diag(self) -> float:
        dx, dy = self.pixel_size
        return math.hypot(dx, dy)

    def pixel_centers(self) -> np.ndarray:
        lo, hi = self.bbox
        dx, dy = self.pixel_size
        xs = lo.real + (np.arange(self.width) + 0.5) * dx
        ys = hi.imag - (np.arange(self.height) + 0.5) * dy
        return xs[None, :] + 1j * ys[:, None]

    @property
    def captured_mask(self) -> np.ndarray:
        return self.status == int(OrbitStatus.INTERIOR_CAPTURED)

    @property
    def escaped_mask(self) -> np.ndarray:
        return self.status == int(OrbitStatus.ESCAPED)

    @property
    def undecided_mask(self) -> np.ndarray:
        return self.status == int(OrbitStatus.UNDECIDED)

    def boundary_mask(self) -> np.ndarray:
        """Pixels whose 4-neighborhood (self included) holds both captured
        and escaped pixels, plus all undecided pixels."""
        near_cap = _dilate4(self.captured_mask)
        near_esc = _dilate4(self.escaped_mask)
        return (near_cap & near_esc) | self.undecided_mask

    @classmethod
    def from_obj(cls, obj: dict) -> "EscapeField":
        """Rebuild a field from the dump ``save_field`` writes."""
        w, h = int(obj["width"]), int(obj["height"])
        status = np.frombuffer(base64.b64decode(obj["status_b64"]),
                               dtype=np.uint8).reshape(h, w).copy()
        iters = np.frombuffer(base64.b64decode(obj["iterations_b64"]),
                              dtype="<u4").astype(np.uint32).reshape(h, w)
        (x0, y0), (x1, y1) = obj["bbox"]
        return cls(bbox=(complex(x0, y0), complex(x1, y1)), width=w, height=h,
                   status=status, iterations=iters,
                   escape_radius=float(obj["escape_radius"]),
                   capture_radius=float(obj["capture_radius"]),
                   max_iter=int(obj["max_iter"]))


def _dilate4(mask: np.ndarray) -> np.ndarray:
    out = mask.copy()
    out[1:, :] |= mask[:-1, :]
    out[:-1, :] |= mask[1:, :]
    out[:, 1:] |= mask[:, :-1]
    out[:, :-1] |= mask[:, 1:]
    return out


# ---------------------------------------------------------------------------
# rendering


def _render_tile(kernel, bbox, width, height, row0, nrows,
                 escape_radius, capture_radius, max_iter, frame_shift):
    lo, hi = bbox
    dx = (hi.real - lo.real) / width
    dy = (hi.imag - lo.imag) / height
    xs = lo.real + (np.arange(width) + 0.5) * dx
    ys = hi.imag - (np.arange(row0, row0 + nrows) + 0.5) * dy
    z = (xs[None, :] + 1j * ys[:, None]).reshape(-1) - frame_shift
    status, iters = classify_orbits(kernel, z, escape_radius, capture_radius,
                                    max_iter)
    return status.reshape(nrows, width), iters.reshape(nrows, width)


def _tile_task(args):
    return _render_tile(*args)


def render(kernel, bbox, width: int, height: int, *, escape_radius: float,
           capture_radius: float, max_iter: int = 200,
           workers: int | None = None, frame_shift: complex = 0j) -> EscapeField:
    """Classify every pixel center of the bbox grid by iterating the kernel.

    The bbox lives in the caller's frame; frame_shift is subtracted from
    pixel centers before iteration, so kernels built in a shifted frame can
    render fields in original coordinates. Deterministic for fixed
    parameters: tiles are computed independently and reassembled in order, so
    the worker count cannot change the output.
    """
    if width < 16 or height < 16:
        raise ValueError("grid must be at least 16 x 16")
    if not (escape_radius > capture_radius > 0):
        raise ValueError("need escape_radius > capture_radius > 0")
    lo, hi = bbox
    bbox = (complex(lo), complex(hi))
    rows = [(r, min(TILE_ROWS, height - r)) for r in range(0, height, TILE_ROWS)]
    tasks = [(kernel, bbox, width, height, r0, nr, escape_radius,
              capture_radius, max_iter, complex(frame_shift)) for r0, nr in rows]
    if workers is None:
        workers = min(4, os.cpu_count() or 1)
    if workers > 1 and len(tasks) > 1:
        import multiprocessing as mp
        ctx = mp.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            parts = list(pool.map(_tile_task, tasks))
    else:
        parts = [_tile_task(t) for t in tasks]
    status = np.vstack([p[0] for p in parts])
    iters = np.vstack([p[1] for p in parts])
    return EscapeField(bbox=bbox, width=width, height=height, status=status,
                       iterations=iters, escape_radius=escape_radius,
                       capture_radius=capture_radius, max_iter=max_iter)


def boundary_pixels(field: EscapeField) -> np.ndarray:
    """Centers of boundary pixels (status transitions plus undecided)."""
    mask = field.boundary_mask()
    if not mask.any():
        raise MonochromeField("field has a single orbit class everywhere")
    return field.pixel_centers()[mask]


# ---------------------------------------------------------------------------
# Hausdorff verification


@dataclass(frozen=True)
class HausdorffReport:
    d_K: float
    d_J: float
    d_L: float
    delta: float
    pixel_diag: float
    passed: bool

    def to_obj(self) -> dict:
        return {"kind": "hausdorff_report", "d_K": self.d_K, "d_J": self.d_J,
                "d_L": self.d_L, "delta": self.delta,
                "pixel_diag": self.pixel_diag, "pass": self.passed}


def _mask_hausdorff(a: np.ndarray, b: np.ndarray, dx: float, dy: float) -> float:
    """Exact Hausdorff distance between two pixel masks on the same grid."""
    if not a.any() or not b.any():
        return math.inf
    d_ab = float(distance_transform_edt(~b, sampling=(dy, dx))[a].max())
    d_ba = float(distance_transform_edt(~a, sampling=(dy, dx))[b].max())
    return max(d_ab, d_ba)


def _check_bbox(field: EscapeField, curves, delta: float) -> None:
    lo, hi = field.bbox
    for c in curves:
        clo, chi = c.bbox
        if (clo.real - delta < lo.real or clo.imag - delta < lo.imag
                or chi.real + delta > hi.real or chi.imag + delta > hi.imag):
            raise BboxTooSmall(
                f"render bbox must contain the {delta}-neighborhood of the curve")


def _verify(field: EscapeField, inside_mask: np.ndarray, curve_samples: np.ndarray,
            delta: float) -> HausdorffReport:
    dx, dy = field.pixel_size
    k_mask = field.captured_mask | field.undecided_mask
    l_mask = field.escaped_mask
    d_k = _mask_hausdorff(inside_mask, k_mask, dx, dy)
    d_l = _mask_hausdorff(~inside_mask, l_mask, dx, dy)
    jb_mask = field.boundary_mask()
    centers = field.pixel_centers()
    d_j = hausdorff_distance(curve_samples, centers[jb_mask]) if jb_mask.any() else math.inf
    tol = delta + field.pixel_diag
    passed = bool(d_k < tol and d_j < tol and d_l < tol)
    return HausdorffReport(d_K=d_k, d_J=d_j, d_L=d_l, delta=delta,
                           pixel_diag=field.pixel_diag, passed=passed)


def verify_hausdorff(field: EscapeField, curves, delta: float) -> HausdorffReport:
    """Compare the rendered sets with the regions of one or more disjoint
    curves: captured vs. union of insides, escaped vs. the clipped outside,
    boundary pixels vs. the curves themselves. Passes when all three
    distances stay below delta plus one pixel diagonal."""
    if isinstance(curves, JordanCurve):
        curves = [curves]
    if not curves:
        raise EmptySet("need at least one target curve")
    _check_bbox(field, curves, delta)
    centers = field.pixel_centers()
    flat = centers.reshape(-1)
    inside = np.zeros(flat.shape, dtype=bool)
    for c in curves:
        inside |= winding_numbers(flat, c.points) != 0
    samples = np.concatenate([c.boundary_samples(CURVE_SAMPLES) for c in curves])
    return _verify(field, inside.reshape(centers.shape), samples, delta)


def verify_hausdorff_annulus(field: EscapeField, outer: JordanCurve,
                             inner: JordanCurve, delta: float) -> HausdorffReport:
    """Annulus variant: the target bounded set is the closed band between the
    two curves, and both curves together form the target boundary."""
    _check_bbox(field, [outer, inner], delta)
    centers = field.pixel_centers()
    flat = centers.reshape(-1)
    band = (winding_numbers(flat, outer.points) != 0) \
        & (winding_numbers(flat, inner.points) == 0)
    samples = np.concatenate([outer.boundary_samples(CURVE_SAMPLES),
                              inner.boundary_samples(CURVE_SAMPLES)])
    return _verify(field, band.reshape(centers.shape), samples, delta)


# ---------------------------------------------------------------------------
# images and dumps


def write_image(field: EscapeField, path) -> None:
    """Binary portable graymap, bit-exact: interior 0, boundary 128, exterior
    255 - min(iterations, 126) (fast escapes brightest)."""
    boundary = field.boundary_mask()
    img = np.zeros((field.height, field.width), dtype=np.uint8)
    esc = field.escaped_mask & ~boundary
    img[esc] = (255 - np.minimum(field.iterations[esc], 126)).astype(np.uint8)
    img[boundary] = 128
    header = f"P5\n{field.width} {field.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + img.tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise OSError(f"not a binary graymap: {path}")
    parts = data.split(b"\n", 3)
    w, h = map(int, parts[1].split())
    if parts[2] != b"255":
        raise OSError("expected 8-bit graymap")
    return np.frombuffer(parts[3][: w * h], dtype=np.uint8).reshape(h, w)


def save_field(field: EscapeField, path, config: dict | None = None) -> None:
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
    }
    if config is not None:
        obj["config"] = config
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")

"""Escape-time rasterization and Hausdorff verification.

A render classifies every pixel center by orbit fate (captured near the
origin, escaped beyond the certified radius, or undecided at the iteration
budget) with ``dynamics.classify_orbits``, the one orbit classifier. Work is
split into row tiles; each tile is computed independently, so worker count
changes timing but never bytes. A large render runs its tiles in a pool of
forked processes.

Each tile of TILE_ROWS rows is cut into blocks of BLOCK x BLOCK pixels (the
last ones may be smaller). Once per live block, whose disk reaches between
the capture and the escape radius, the map's ``step_floor`` bounds
log2|step| from below over the disk about the block that holds its pixel
centres, and once per live block without a finite floor its
``step_ceiling`` bounds the computed log2|step| from above. A far-field
pixel whose floor clears log2(escape_radius) by ``dynamics.FLOOR_SLACK`` is
marked escaped at step 1 without being stepped, and an interior pixel whose
ceiling stays below log2(capture_radius) by as much is marked captured at
step 1, exactly as the step would have marked them; the slack covers the
rounding of the bounds and of the step, so the bounds change timing but
never bytes (see ``dynamics``). Since the bounds leave only a thin set of
pixels near the curve to iterate, a tile is tall enough that the per-step
cost of a loop over the roots is shared by many pixels.

Verification compares the rendered sets against sampled targets in Hausdorff
distance (``curves.hausdorff_distance`` for the boundary), clipping the
unbounded side to the render bbox; undecided pixels count as boundary, and
the one-pixel thickness of a rasterized boundary is absorbed by adding one
pixel diagonal to the tolerance. The target bounded set is the pixels inside
an odd number of the target curves, which must not meet (the rule of
``curves.enclosed``), from the row scan ``curves.grid_winding_numbers``: it
sends only the pixels within rounding of a crossing to ``winding_numbers``,
so it is exact. The mask distances cost what the disagreement costs, not
what the grid costs: only the pixels of one mask outside the other are
queried, against the other's 4-boundary, by the nearest-point engine
``nearest`` in integer pixel offsets (``_mask_hausdorff``), so they equal
those of a full-grid Euclidean distance transform bit for bit.
"""

from __future__ import annotations

import base64
import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .curves import JordanCurve, grid_winding_numbers, hausdorff_distance, relation
from .dynamics import OrbitStatus, classify_orbits
from .errors import BboxTooSmall, EmptySet, GeometryRejected, ParseError
from .nearest import _Cells

#: rows per tile. At 2048 x 2048 with 512 roots, on 2 CPUs, tiles of 16, 32,
#: 64 and 128 rows rendered in 0.75, 0.53, 0.41 and 0.38 s pooled; against
#: 16-row tiles without the ceiling, the benchmark's peak memory rose 3% at
#: 64 rows and 7% at 128
TILE_ROWS = 64
#: pixels per side of a block that shares one ``step_floor`` and one
#: ``step_ceiling`` bound
BLOCK = 16
#: pixels times roots below which a render runs in one process, not in a
#: pool: starting the pool costs more than it saves. On 2 CPUs a
#: 512 x 512 render took 36 ms alone and 58 ms pooled at 64 roots, 90 and
#: 90 ms at 256 roots, and 224 and 154 ms at 512 roots.
SERIAL_WORK = 50_000_000
#: smallest render grid side
MIN_GRID = 16
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
        """Rebuild a field from the dump ``save_field`` writes. A grid side
        below MIN_GRID, or a bbox that is not finite with x0 < x1 and
        y0 < y1, raises ParseError."""
        w, h = int(obj["width"]), int(obj["height"])
        (x0, y0), (x1, y1) = obj["bbox"]
        if w < MIN_GRID or h < MIN_GRID:
            raise ParseError(f"field grid must be at least {MIN_GRID} x {MIN_GRID}, "
                             f"got {w} x {h}")
        if not (all(map(math.isfinite, (x0, y0, x1, y1))) and x0 < x1 and y0 < y1):
            raise ParseError("field bbox needs finite x0 < x1 and y0 < y1")
        status = np.frombuffer(base64.b64decode(obj["status_b64"]),
                               dtype=np.uint8).reshape(h, w).copy()
        iters = np.frombuffer(base64.b64decode(obj["iterations_b64"]),
                              dtype="<u4").astype(np.uint32).reshape(h, w)
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


def pixel_axes(bbox, width: int, height: int, rows: np.ndarray):
    """(xs, ys): the x of every column, ascending, and the y of the given rows
    (0 at the top) of a width x height grid of pixel centres over bbox."""
    lo, hi = bbox
    xs = lo.real + (np.arange(width) + 0.5) * ((hi.real - lo.real) / width)
    ys = hi.imag - (rows + 0.5) * ((hi.imag - lo.imag) / height)
    return xs, ys


def pixel_centres(bbox, width: int, height: int, rows: np.ndarray) -> np.ndarray:
    """Centres of the given rows (0 at the top) of a width x height grid over bbox."""
    xs, ys = pixel_axes(bbox, width, height, rows)
    return xs[None, :] + 1j * ys[:, None]


def _block_bounds(kernel, z: np.ndarray, escape_radius, capture_radius):
    """Per pixel of the (rows, width) tile z, the kernel's ``step_floor`` and
    ``step_ceiling`` over the disk about the pixel's block of BLOCK x BLOCK
    pixels: centred on the block and reaching its corner pixel centres,
    widened by 2**-40 of the coordinates for the rounding of the centre, the
    extents and hypot. Only live blocks, whose disk reaches between the
    capture and the escape radius, get a floor, and only live blocks without
    a finite floor a ceiling; the others get -inf and +inf."""
    nrows, width = z.shape
    cols, rows = np.arange(0, width, BLOCK), np.arange(0, nrows, BLOCK)
    col_size = np.minimum(cols + BLOCK, width) - cols
    row_size = np.minimum(rows + BLOCK, nrows) - rows
    # the shifted coordinates are rounded differences of monotone
    # coordinates, so each block's extremes sit at its corners
    x0, x1 = z[0, cols].real, z[0, cols + col_size - 1].real
    y0, y1 = z[rows + row_size - 1, 0].imag, z[rows, 0].imag
    centres = 0.5 * (x0 + x1)[None, :] + 0.5j * (y0 + y1)[:, None]
    hx, hy = 0.5 * (x1 - x0)[None, :], 0.5 * (y1 - y0)[:, None]
    radius = np.hypot(hx, hy) + 2.0 ** -40 * (np.abs(centres) + hx + hy)
    mod = np.abs(centres)
    live = (mod - radius <= escape_radius) & (mod + radius >= capture_radius)
    floor = np.full(centres.shape, -np.inf)
    ceiling = np.full(centres.shape, np.inf)
    floor[live] = kernel.step_floor(centres[live], radius[live])
    # a block with a finite floor lies where |step| grows, out of the
    # ceiling's reach
    near = live & np.isneginf(floor)
    ceiling[near] = kernel.step_ceiling(centres[near], radius[near])

    def per_pixel(b):
        return np.repeat(np.repeat(b, row_size, axis=0), col_size, axis=1).reshape(-1)

    return per_pixel(floor), per_pixel(ceiling)


def _render_tile(kernel, bbox, width, height, row0, nrows,
                 escape_radius, capture_radius, max_iter):
    z = pixel_centres(bbox, width, height, np.arange(row0, row0 + nrows)) - kernel.t
    floor, ceiling = _block_bounds(kernel, z, escape_radius, capture_radius)
    status, iters = classify_orbits(kernel, z.reshape(-1), escape_radius,
                                    capture_radius, max_iter, floor, ceiling)
    return status.reshape(nrows, width), iters.reshape(nrows, width)


def render(kernel, bbox, width: int, height: int, *, escape_radius: float,
           capture_radius: float, max_iter: int) -> EscapeField:
    """Classify every pixel center of the bbox grid by iterating the kernel.

    The bbox lives in the original frame; the kernel's frame shift ``kernel.t``
    is subtracted from pixel centers before iteration, so maps built in a
    shifted frame render fields in original coordinates. Deterministic for
    fixed parameters: tiles are computed independently and reassembled in
    order, so the worker count cannot change the output. A render of fewer
    than SERIAL_WORK pixels times roots runs in this process, and a larger
    one of more than one tile in a pool of up to 4 forked processes. A
    worker that dies (say, killed for memory) raises ChildProcessError, an
    OSError, once the pool has stopped.
    """
    if width < MIN_GRID or height < MIN_GRID:
        raise ValueError(f"grid must be at least {MIN_GRID} x {MIN_GRID}")
    if not (escape_radius > capture_radius > 0):
        raise ValueError("need escape_radius > capture_radius > 0")
    lo, hi = bbox
    bbox = (complex(lo), complex(hi))
    rows = [(r, min(TILE_ROWS, height - r)) for r in range(0, height, TILE_ROWS)]
    tasks = [(kernel, bbox, width, height, r0, nr, escape_radius,
              capture_radius, max_iter) for r0, nr in rows]
    small = width * height * len(kernel.roots) < SERIAL_WORK
    workers = 1 if small else min(4, os.cpu_count() or 1)
    if workers == 1 or len(tasks) == 1:
        parts = [_render_tile(*task) for task in tasks]
    else:
        # forked workers inherit this process's modules as they stand
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            try:
                parts = list(pool.map(_render_tile, *zip(*tasks)))
            except BrokenProcessPool as exc:
                raise ChildProcessError(f"a worker process died: {exc}") from exc
    status = np.vstack([p[0] for p in parts])
    iters = np.vstack([p[1] for p in parts])
    return EscapeField(bbox=bbox, width=width, height=height, status=status,
                       iterations=iters, escape_radius=escape_radius,
                       capture_radius=capture_radius, max_iter=max_iter)


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


def _directed_mask(a: np.ndarray, b: np.ndarray, dx: float, dy: float, low: float) -> float:
    """The larger of low and the largest squared distance from a pixel of a
    to the nearest pixel of b, both non-empty; ``_mask_hausdorff`` says how."""
    qi, qj = np.nonzero(a & ~b)
    if qi.size == 0:
        return low
    bi, bj = np.nonzero(b & _dilate4(~b))
    cells = _Cells(bj.astype(float), bi.astype(float), dx, dy)
    return cells.farthest(qj.astype(float), qi.astype(float), low)


def _mask_hausdorff(a: np.ndarray, b: np.ndarray, dx: float, dy: float) -> float:
    """Exact Hausdorff distance between two pixel masks on the same grid, in
    the arithmetic of a Euclidean distance transform: the distance
    from pixel (i, j) to pixel (k, l) is sqrt(((i-k)*dy)**2 + ((j-l)*dx)**2).

    Only the pixels of a outside b can set the largest distance from a to b,
    so only they are queried. The nearest pixel of b to such a pixel q lies
    on the 4-boundary of b (the pixels of b with a 4-neighbour in the grid
    outside b): from any other pixel of b, the 4-neighbour one step toward q
    is in b and no farther, in exact arithmetic and after rounding alike,
    since every operation of the distance is monotone. The nearest-point
    engine ``nearest._Cells`` takes that boundary in integer pixel offsets,
    scaled by (dx, dy), so its least squared distances are exact in this
    arithmetic and need no tie rule between offsets of equal length. The
    distance from a to b is found first, and the search from b to a skips
    every pixel whose bound stays below it."""
    if not a.any() or not b.any():
        return math.inf
    return math.sqrt(_directed_mask(b, a, dx, dy, _directed_mask(a, b, dx, dy, 0.0)))


def _check_bbox(field: EscapeField, curves, delta: float) -> None:
    lo, hi = field.bbox
    for c in curves:
        clo, chi = c.bbox
        if (clo.real - delta < lo.real or clo.imag - delta < lo.imag
                or chi.real + delta > hi.real or chi.imag + delta > hi.imag):
            raise BboxTooSmall(
                f"render bbox must contain the {delta}-neighborhood of the curve")


def verify_hausdorff(field: EscapeField, curves, delta: float) -> HausdorffReport:
    """Compare the rendered sets with the region of a list of curves that
    do not meet: captured vs. the pixels inside an odd number of the curves
    (the rule of ``enclosed``), escaped vs. the rest clipped to the bbox,
    boundary pixels vs. the curves themselves. Passes when all three distances stay below
    delta plus one pixel diagonal."""
    if not curves:
        raise EmptySet("need at least one target curve")
    if any(relation(a, b) == "meet" for i, a in enumerate(curves) for b in curves[i + 1:]):
        raise GeometryRejected("target curves cross or touch")
    _check_bbox(field, curves, delta)
    xs, ys = pixel_axes(field.bbox, field.width, field.height, np.arange(field.height))
    inside = np.zeros((field.height, field.width), dtype=bool)
    for c in curves:
        inside ^= grid_winding_numbers(xs, ys, c.points) != 0
    samples = np.concatenate([c.boundary_samples(CURVE_SAMPLES) for c in curves])
    dx, dy = field.pixel_size
    k_mask = field.captured_mask | field.undecided_mask
    l_mask = field.escaped_mask
    d_k = _mask_hausdorff(inside, k_mask, dx, dy)
    d_l = _mask_hausdorff(~inside, l_mask, dx, dy)
    jb_mask = field.boundary_mask()
    rows, cols = np.nonzero(jb_mask)
    d_j = hausdorff_distance(samples, xs[cols] + 1j * ys[rows]) if rows.size else math.inf
    tol = delta + field.pixel_diag
    passed = bool(d_k < tol and d_j < tol and d_l < tol)
    return HausdorffReport(d_K=d_k, d_J=d_j, d_L=d_l, delta=delta,
                           pixel_diag=field.pixel_diag, passed=passed)


def verify_hausdorff_annulus(field: EscapeField, outer: JordanCurve,
                             inner: JordanCurve, delta: float) -> HausdorffReport:
    """The band between two nested curves: ``verify_hausdorff`` of the pair."""
    return verify_hausdorff(field, [outer, inner], delta)


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


def save_field(field: EscapeField, path, config: dict) -> None:
    """Write the field and the run configuration as one line of compact JSON
    with sorted keys. The two base64 arrays go to the file as raw bytes at
    their sorted places: base64 text never needs escaping, so the bytes are
    those of ``json.dump``."""
    obj = {
        "kind": field.kind,
        "bbox": [[field.bbox[0].real, field.bbox[0].imag],
                 [field.bbox[1].real, field.bbox[1].imag]],
        "width": field.width,
        "height": field.height,
        "escape_radius": field.escape_radius,
        "capture_radius": field.capture_radius,
        "max_iter": field.max_iter,
        "config": config,
    }
    blobs = {
        "status_b64": base64.b64encode(np.ascontiguousarray(field.status)),
        "iterations_b64": base64.b64encode(
            np.ascontiguousarray(field.iterations, dtype="<u4")),
    }
    with open(path, "wb") as fh:
        for i, key in enumerate(sorted([*obj, *blobs])):
            fh.write(b"{" if i == 0 else b",")
            if key in blobs:
                fh.write(f'"{key}":"'.encode("ascii"))
                fh.write(blobs[key])
                fh.write(b'"')
            else:
                item = json.dumps({key: obj[key]}, sort_keys=True, separators=(",", ":"))
                fh.write(item[1:-1].encode("ascii"))
        fh.write(b"}\n")

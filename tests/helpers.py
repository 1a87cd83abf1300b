"""Test-only helpers: a reader for the graymaps ``write_image`` writes, a
self-intersecting polyline, the exterior map that ``build`` makes of a curve,
the boundary table of a built exterior map, and a large batch cut into
small chunks."""

from __future__ import annotations

import numpy as np

from juliafit.conformal import BOUNDARY_TABLE, build_exterior_map, evaluate_map


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


def make_figure_eight(n: int = 64) -> np.ndarray:
    """Self-intersecting polyline (for negative tests); returns raw points.
    The phase offset keeps the crossing interior to two segments."""
    t = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    return np.sin(t) + 1j * np.sin(2 * t) / 2.0


def centroid_map(curve, resample: int = 512):
    """The exterior map about the curve's centroid, of ``resample`` stages
    (512 is the commands' ``--resample`` default)."""
    return build_exterior_map(curve, curve.centroid, resample=resample)


def boundary_table(m) -> np.ndarray:
    """Rows (w, map(w)) at the BOUNDARY_TABLE unit-circle points on which
    ``build_exterior_map`` measures the boundary fit, evaluated apart from
    the gauge probe whose images the build reads them from."""
    wb = np.exp(1j * (2.0 * np.pi * np.arange(BOUNDARY_TABLE) / BOUNDARY_TABLE))
    return np.column_stack((wb, evaluate_map(m, wb)))


#: points a batch-independence test evaluates at once: more than the 16,384
#: complex128 values (256 KiB) from which NumPy may elide temporaries, as in
#: a render tile of up to 131,072 pixels
LARGE_BATCH = 20_000


def small_chunks(size: int, seed: int) -> list[slice]:
    """Consecutive slices of 1 to 999 items that cover range(size)."""
    lengths = np.random.default_rng(seed).integers(1, 1000, size)
    cuts = np.cumsum(lengths)
    bounds = [0, *cuts[cuts < size].tolist(), size]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]

"""Test-only helpers: a reader for the graymaps ``write_image`` writes, a
self-intersecting polyline, and the boundary table of a built exterior map."""

from __future__ import annotations

import numpy as np

from juliafit.conformal import BOUNDARY_TABLE, evaluate_map


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


def boundary_table(m) -> np.ndarray:
    """Rows (w, map(w)) at the BOUNDARY_TABLE unit-circle points on which
    ``build_exterior_map`` measures the boundary fit, evaluated apart from
    the gauge probe whose images the build reads them from."""
    wb = np.exp(1j * (2.0 * np.pi * np.arange(BOUNDARY_TABLE) / BOUNDARY_TABLE))
    return np.column_stack((wb, evaluate_map(m, wb)))

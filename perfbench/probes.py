"""Kernel probes: public layer functions called directly on fixed seeded
inputs, outside any CLI command. They run only in the traced run."""

from __future__ import annotations

import statistics
import time

import numpy as np

from workloads import blob

POINTS = 16384
SCATTER = 4096
GRID = 512
REPEATS = 5


def _timed(fn, *args, repeats: int = REPEATS) -> float:
    """Median wall time of repeated calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run(seed: int) -> dict:
    from juliafit import curves, shapepoly

    rng = np.random.default_rng(seed)
    out = {}
    # points spread over and around the circle of roots, so that the kernel
    # sees the magnitudes an orbit passes through
    z = 1.5 * np.sqrt(rng.uniform(0.0, 1.0, POINTS)) * np.exp(
        2j * np.pi * rng.uniform(0.0, 1.0, POINTS))
    for n in (64, 512):
        shape = shapepoly.make_circle_shape(radius=1.0, epsilon=0.0625, n=n)
        t = _timed(shapepoly.p_step_array, shape, z)
        out[f"shapepoly.p_step_array.n{n}.ns_per_root_product"] = t / (POINTS * n) * 1e9

    pts = blob(rng)
    lo = complex(pts.real.min(), pts.imag.min())
    hi = complex(pts.real.max(), pts.imag.max())
    xs = np.linspace(lo.real, hi.real, GRID)
    ys = np.linspace(lo.imag, hi.imag, GRID)
    grid = (xs[None, :] + 1j * ys[:, None]).reshape(-1)
    out["curves.winding_numbers.grid512.s"] = _timed(
        curves.winding_numbers, grid, pts, repeats=1)
    scatter = (rng.uniform(lo.real, hi.real, SCATTER)
               + 1j * rng.uniform(lo.imag, hi.imag, SCATTER))
    out["curves.winding_numbers.scatter4096.s"] = _timed(
        curves.winding_numbers, scatter, pts)
    out["curves.distance_to_polyline.scatter4096.s"] = _timed(
        curves.distance_to_polyline, scatter, pts)
    return out

"""Brute-force reference kernels for the geometry layer.

These are the all-pairs bodies that `juliafit.curves` used before its
kernels learned to skip (query, edge) pairs that cannot affect the answer.
They compare every query against every edge, so the fast kernels must equal
them bit for bit.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 4096


def _as_points(z) -> np.ndarray:
    a = np.asarray(z, dtype=np.complex128)
    return a.reshape(-1)


def winding_numbers(z, points: np.ndarray) -> np.ndarray:
    z = _as_points(z)
    a = points
    b = np.roll(points, -1)
    ax, ay = a.real, a.imag
    bx, by = b.real, b.imag
    out = np.empty(z.shape, dtype=np.int64)
    for lo in range(0, z.size, _CHUNK):
        zz = z[lo:lo + _CHUNK]
        px = zz.real[:, None]
        py = zz.imag[:, None]
        up = (ay[None, :] <= py) & (by[None, :] > py)
        dn = (ay[None, :] > py) & (by[None, :] <= py)
        cross = (bx - ax)[None, :] * (py - ay[None, :]) - (px - ax[None, :]) * (by - ay)[None, :]
        out[lo:lo + _CHUNK] = (up & (cross > 0)).sum(axis=1) - (dn & (cross < 0)).sum(axis=1)
    return out


def distance_to_polyline(z, points: np.ndarray) -> np.ndarray:
    z = _as_points(z)
    a = points
    e = np.roll(points, -1) - points
    ee = np.maximum((e * e.conjugate()).real, 1e-300)
    out = np.empty(z.shape, dtype=np.float64)
    for lo in range(0, z.size, _CHUNK):
        zz = z[lo:lo + _CHUNK][:, None]
        t = ((zz - a[None, :]) * e.conjugate()[None, :]).real / ee[None, :]
        np.clip(t, 0.0, 1.0, out=t)
        proj = a[None, :] + t * e[None, :]
        out[lo:lo + _CHUNK] = np.abs(zz - proj).min(axis=1)
    return out


def segment_pairs_intersect(points: np.ndarray, other: np.ndarray | None = None):
    a1 = points
    b1 = np.roll(points, -1)
    if other is None:
        a2, b2 = a1, b1
    else:
        a2, b2 = other, np.roll(other, -1)
    n1, n2 = len(a1), len(a2)

    def orient(p, q, r):
        return ((q.real - p.real) * (r.imag - p.imag)
                - (q.imag - p.imag) * (r.real - p.real))

    for lo in range(0, n1, 512):
        hi = min(lo + 512, n1)
        A1 = a1[lo:hi, None]
        B1 = b1[lo:hi, None]
        d1 = orient(A1, B1, a2[None, :])
        d2 = orient(A1, B1, b2[None, :])
        d3 = orient(a2[None, :], b2[None, :], A1)
        d4 = orient(a2[None, :], b2[None, :], B1)
        hit = (d1 * d2 < 0) & (d3 * d4 < 0)
        if other is None:
            i_idx = np.arange(lo, hi)[:, None]
            j_idx = np.arange(n2)[None, :]
            adj = (i_idx == j_idx) | ((i_idx + 1) % n1 == j_idx) | ((j_idx + 1) % n1 == i_idx)
            hit &= ~adj
        if hit.any():
            i, j = np.argwhere(hit)[0]
            return int(i + lo), int(j)
    return None

"""Deterministic test shapes: circle, ellipse, square, and a wavy blob.

These are the fixtures exercised by the test suite and handy CLI inputs.
Run ``python -m juliafit.shapes OUTDIR`` to dump them as curve files.
"""

from __future__ import annotations

import numpy as np

from .curves import JordanCurve


def make_circle(radius: float = 1.0, center: complex = 0j, n: int = 512) -> JordanCurve:
    th = 2.0 * np.pi * np.arange(n) / n
    return JordanCurve.from_points(center + radius * np.exp(1j * th))


def make_ellipse(a: float = 1.5, b: float = 0.5, center: complex = 0j,
                 n: int = 512) -> JordanCurve:
    th = 2.0 * np.pi * np.arange(n) / n
    return JordanCurve.from_points(center + a * np.cos(th) + 1j * b * np.sin(th))


def make_square(side: float = 1.0, corner: complex = 0j, n: int = 512) -> JordanCurve:
    """Axis-aligned square densified to n points (n divisible by 4 keeps the
    corners exactly on the sample grid)."""
    per_side = max(n // 4, 2)
    t = np.arange(per_side) / per_side
    bottom = corner + side * t
    right = corner + side + 1j * side * t
    top = corner + side * (1 - t) + 1j * side
    left = corner + 1j * side * (1 - t)
    return JordanCurve.from_points(np.concatenate((bottom, right, top, left)))


def make_blob(scale: float = 1.0, center: complex = 0j, n: int = 512) -> JordanCurve:
    """Smooth nonconvex closed curve, fixed harmonics (no randomness)."""
    th = 2.0 * np.pi * np.arange(n) / n
    r = 1.0 + 0.20 * np.cos(3 * th) + 0.08 * np.sin(5 * th) + 0.04 * np.cos(7 * th + 1.0)
    return JordanCurve.from_points(center + scale * r * np.exp(1j * th))


FIXTURES = {
    "circle": lambda: make_circle(),
    "ellipse": lambda: make_ellipse(),
    "square": lambda: make_square(),
    "blob": lambda: make_blob(),
}


def write_curve_file(curve_or_points, path) -> None:
    pts = getattr(curve_or_points, "points", curve_or_points)
    with open(path, "w", encoding="utf-8") as fh:
        for z in pts:
            fh.write(f"{z.real:.17g} {z.imag:.17g}\n")


def _main(argv=None) -> int:
    import argparse
    import os

    ap = argparse.ArgumentParser(description="dump fixture curve files")
    ap.add_argument("outdir")
    args = ap.parse_args(argv)
    os.makedirs(args.outdir, exist_ok=True)
    for name, make in FIXTURES.items():
        write_curve_file(make(), os.path.join(args.outdir, f"{name}.txt"))
        print(f"wrote {name}.txt")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())

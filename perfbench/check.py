"""Independent checks of the CLI's outputs. Nothing here is timed.

The checks use only the artifacts and the input curve files, with their own
readers: the graymap decoder, the curve resampling and the nearest-neighbour
Hausdorff distance below are the benchmark's, not the package's.

Digests cover every artifact a command writes, except the ``config`` block of
the JSON artifacts: ``config`` records the ``--out`` directory and the
absolute paths of ``--certificate`` and ``--curve``, so two identical runs
into different directories differ in their bytes (the path leak the test
``tests/test_cli.py::test_render_determinism`` fails on). ``config_leaks``
counts the artifacts whose ``config`` names the output directory, so the leak
stays visible in every run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np
from scipy.spatial import cKDTree

CURVE_SAMPLES = 4096


def read_curve(path: str) -> np.ndarray:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            x, y = line.split()
            rows.append(complex(float(x), float(y)))
    return np.array(rows)


def curve_samples(points: np.ndarray, n: int = CURVE_SAMPLES) -> np.ndarray:
    """n points evenly spaced in arclength along the closed polyline."""
    closed = np.append(points, points[0])
    s = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(closed)))))
    target = np.arange(n) * (s[-1] / n)
    return (np.interp(target, s, closed.real)
            + 1j * np.interp(target, s, closed.imag))


def decode_pgm(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    magic, dims, maxval, body = data.split(b"\n", 3)
    if magic != b"P5" or maxval != b"255":
        raise ValueError(f"{path}: not an 8-bit binary graymap")
    w, h = (int(v) for v in dims.split())
    if len(body) != w * h:
        raise ValueError(f"{path}: {len(body)} pixel bytes for {w}x{h}")
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w)


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    pa = np.column_stack((a.real, a.imag))
    pb = np.column_stack((b.real, b.imag))
    d_ab = cKDTree(pb).query(pa, k=1)[0].max()
    d_ba = cKDTree(pa).query(pb, k=1)[0].max()
    return float(max(d_ab, d_ba))


def image_d_j(out_dir: str, curve_files: list[str]) -> tuple[float, float]:
    """(d_J, pixel diagonal) from the graymap: boundary pixels are the ones
    painted 128, placed on the grid that field.json declares."""
    img = decode_pgm(os.path.join(out_dir, "image.pgm"))
    with open(os.path.join(out_dir, "field.json"), encoding="utf-8") as fh:
        field = json.load(fh)
    (x0, y0), (x1, y1) = field["bbox"]
    h, w = img.shape
    if (w, h) != (field["width"], field["height"]):
        raise ValueError("image and field sizes differ")
    dx, dy = (x1 - x0) / w, (y1 - y0) / h
    rows, cols = np.nonzero(img == 128)
    if rows.size == 0:
        raise ValueError("image.pgm has no boundary pixels")
    centres = (x0 + (cols + 0.5) * dx) + 1j * (y1 - (rows + 0.5) * dy)
    samples = np.concatenate([curve_samples(read_curve(p)) for p in curve_files])
    return hausdorff(samples, centres), math.hypot(dx, dy)


def _load(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def check_command(cmd, rc: int) -> tuple[list[str], dict]:
    """Problems found in one command's outputs, and the figures read from
    them: ``n`` (certified roots) and ``ratio`` (Hausdorff distance over its
    tolerance)."""
    if rc != 0:
        return [f"{cmd.name}: exit code {rc}"], {}
    problems, facts = [], {}
    out = cmd.out
    if cmd.name in ("build", "rational", "annulus"):
        cert = _load(out, "certificate.json")
        if cert.get("passed") is not True:
            problems.append(f"{cmd.name}: certificate not passed")
        facts["n"] = cert["n_certified"]
    if cmd.name == "build":
        shape = _load(out, "shape.json")
        if shape["n"] != cert["n_certified"]:
            problems.append("build: shape and certificate root counts differ")
        # the roots sit on the inflated circle's image, inside the offset band
        roots = np.array([complex(*r) for r in shape["roots"]]) + complex(*shape["t"])
        band = 2.0 * cert["config"]["eps_geom_used"]
        dense = curve_samples(read_curve(cmd.curves[0]), 8 * CURVE_SAMPLES)
        far = float(cKDTree(np.column_stack((dense.real, dense.imag))).query(
            np.column_stack((roots.real, roots.imag)), k=1)[0].max())
        if not far < band:
            problems.append(f"build: a root lies {far:.4g} from the curve (band {band:.4g})")
    if cmd.name in ("verify", "rational", "annulus"):
        rep = _load(out, "report.json")
        tol = rep["delta"] + rep["pixel_diag"]
        worst = max(rep["d_K"], rep["d_J"], rep["d_L"])
        if rep.get("pass") is not True or not worst < tol:
            problems.append(f"{cmd.name}: report does not pass")
        if not math.isclose(rep["delta"], cmd.delta):
            problems.append(f"{cmd.name}: report delta {rep['delta']} != {cmd.delta}")
        facts["ratio"] = worst / tol
    if cmd.name in ("render", "rational", "annulus"):
        d_j, diag = image_d_j(out, cmd.curves)
        if cmd.name == "render":
            if not d_j < cmd.delta + diag:
                problems.append(f"render: d_J {d_j:.4g} exceeds {cmd.delta + diag:.4g}")
            facts["ratio"] = d_j / (cmd.delta + diag)
        elif abs(d_j - rep["d_J"]) > 0.5 * diag:
            problems.append(f"{cmd.name}: image d_J {d_j:.6g} != report d_J {rep['d_J']:.6g}")
    return problems, facts


def digests(out_dir: str) -> tuple[dict, int]:
    """sha256 of each artifact with any ``config`` block left out, and the
    number of artifacts whose ``config`` names out_dir."""
    result, leaks = {}, 0
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name.endswith(".json"):
            obj = json.loads(data)
            config = obj.pop("config", None)
            if config is not None and os.path.abspath(out_dir) in json.dumps(config):
                leaks += 1
            data = json.dumps(obj, sort_keys=True).encode()
        result[name] = hashlib.sha256(data).hexdigest()
    return result, leaks

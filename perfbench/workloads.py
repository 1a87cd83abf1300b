"""Seeded inputs and command sequences for the three benchmark workloads.

The program sees only the curve files written here and the ``--seed`` it is
given. The shape ranges were chosen so that every seed certifies at the same
root count, which keeps the certified degree, and with it the work per pass,
the same across seeds:

* the blob keeps the harmonics of ``juliafit.shapes.make_blob`` with phases
  near a reference vector (jitter +/-0.05 rad) and a free rotation and
  offset; 64 roots always fail (margin -0.13 to -0.36) and 128 always pass;
* the circle pairs are the ``circle_left``/``circle_right`` and
  ``ring_outer``/``ring_inner`` test fixtures with 2% wobbles and small
  centre shifts; both certify at 256 roots.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

VERTICES = 512
#: phases of the 3rd, 5th and 7th blob harmonics around which seeds jitter
BLOB_PHASES = np.array([-2.603, -1.654, 1.893])
BLOB_JITTER = 0.05
WOBBLE = 0.02
CENTRE_JITTER = 0.05
#: Hausdorff tolerance passed to every command that verifies
FIT_DELTA = 0.2
MULTI_DELTA = 0.3
GRID = 512
DEEP_GRID = 2048
DEEP_ROOTS = 512


def blob(rng: np.random.Generator) -> np.ndarray:
    th = 2.0 * np.pi * np.arange(VERTICES) / VERTICES
    ph = BLOB_PHASES + rng.uniform(-BLOB_JITTER, BLOB_JITTER, 3)
    rot = rng.uniform(0.0, 2.0 * np.pi)
    centre = complex(*rng.uniform(-1.0, 1.0, 2))
    r = (1.0 + 0.20 * np.cos(3 * th + ph[0]) + 0.08 * np.sin(5 * th + ph[1])
         + 0.04 * np.cos(7 * th + 1.0 + ph[2]))
    return centre + r * np.exp(1j * (th + rot))


def wobbly_circle(rng: np.random.Generator, centre: complex, radius: float) -> np.ndarray:
    th = 2.0 * np.pi * np.arange(VERTICES) / VERTICES
    ph = rng.uniform(0.0, 2.0 * np.pi, 2)
    rot = rng.uniform(0.0, 2.0 * np.pi)
    r = radius * (1.0 + WOBBLE * np.cos(2 * th + ph[0])
                  + 0.5 * WOBBLE * np.cos(3 * th + ph[1]))
    c = centre + complex(*rng.uniform(-CENTRE_JITTER, CENTRE_JITTER, 2))
    return c + r * np.exp(1j * (th + rot))


def write_curve(points: np.ndarray, path: str) -> None:
    """One "x y" line per vertex, counterclockwise, full precision."""
    with open(path, "w", encoding="utf-8") as fh:
        for z in points:
            fh.write(f"{z.real:.17g} {z.imag:.17g}\n")


@dataclass(frozen=True)
class Command:
    name: str            # CLI subcommand, also the metric prefix
    argv: list[str]      # full argument vector for juliafit.cli.main
    out: str             # output directory of this invocation
    curves: list[str]    # target curve files the outputs are checked against
    delta: float         # Hausdorff tolerance the outputs are checked against


@dataclass(frozen=True)
class Workload:
    name: str
    #: writes the seeded curve files into a directory, returns name -> path
    make_inputs: Callable[[int, str], dict]
    #: argv of the set-up command, if the workload prebuilds a dump
    prepare: Callable[[dict, str, int], list[str] | None]
    #: the timed commands of one pass, given inputs, pass directory, seed
    commands: Callable[[dict, str, int, dict], list[Command]]


def _blob_inputs(seed: int, d: str) -> dict:
    rng = np.random.default_rng(seed)
    path = os.path.join(d, "blob.txt")
    write_curve(blob(rng), path)
    return {"blob": path}


def _pair_inputs(seed: int, d: str) -> dict:
    rng = np.random.default_rng(seed)
    spec = {"left": (-2.5, 1.0), "right": (2.5, 1.0),
            "outer": (0.0, 2.0), "inner": (0.0, 1.0)}
    paths = {}
    for name, (centre, radius) in spec.items():
        paths[name] = os.path.join(d, f"{name}.txt")
        write_curve(wobbly_circle(rng, centre, radius), paths[name])
    return paths


def _fit_blob(inp: dict, d: str, seed: int, _prep: dict) -> list[Command]:
    b, v = os.path.join(d, "build"), os.path.join(d, "verify")
    s = ["--seed", str(seed)]
    return [
        Command("build", ["build", inp["blob"], "--out", b] + s, b,
                [inp["blob"]], FIT_DELTA),
        Command("verify", ["verify", os.path.join(b, "shape.json"),
                           "--certificate", os.path.join(b, "certificate.json"),
                           "--curve", inp["blob"], "--delta", str(FIT_DELTA),
                           "--grid", str(GRID), "--out", v] + s, v,
                [inp["blob"]], FIT_DELTA),
    ]


def _deep_prepare(inp: dict, d: str, seed: int) -> list[str]:
    return ["build", inp["blob"], "--n", str(DEEP_ROOTS), "--out", d,
            "--seed", str(seed)]


def _render_deep(inp: dict, d: str, seed: int, prep: dict) -> list[Command]:
    r = os.path.join(d, "render")
    return [Command("render", ["render", os.path.join(prep["dir"], "shape.json"),
                               "--certificate",
                               os.path.join(prep["dir"], "certificate.json"),
                               "--grid", str(DEEP_GRID), "--out", r,
                               "--seed", str(seed)],
                    r, [inp["blob"]], FIT_DELTA)]


def _multi_curve(inp: dict, d: str, seed: int, _prep: dict) -> list[Command]:
    out = []
    for cmd, names in (("rational", ("left", "right")), ("annulus", ("outer", "inner"))):
        o = os.path.join(d, cmd)
        files = [inp[n] for n in names]
        out.append(Command(cmd, [cmd] + files + [
            "--delta", str(MULTI_DELTA), "--grid", str(GRID), "--out", o,
            "--seed", str(seed)], o, files, MULTI_DELTA))
    return out


WORKLOADS = {
    w.name: w for w in (
        Workload("fit-blob", _blob_inputs, lambda *_: None, _fit_blob),
        Workload("render-deep", _blob_inputs, _deep_prepare, _render_deep),
        Workload("multi-curve", _pair_inputs, lambda *_: None, _multi_curve),
    )
}

"""Span recorder for the traced run.

Wraps the public layer functions of ``juliafit`` from outside the package:
every module attribute that refers to a listed function is replaced by a
wrapper for the duration of a traced pass, then restored. Each span holds its
name, start, end, the span that was open when it started, the process id and
the request (command invocation) it belongs to, plus per-call work counts.

Spans of the benchmark process are held in memory. The render pool forks its
workers while a traced pass is running, so the wrappers run there too; a pool
worker has no hook that runs when it ends, so it appends each span to a
per-process JSON-lines file in the spool directory as soon as the span closes.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np


def _distance(args, kwargs, result):
    q, e = np.size(args[0]), len(args[1])
    return {"queries": q, "edges": e, "pairs": q * e}


def _winding(args, kwargs, result):
    return dict(_distance(args, kwargs, result), inside=int(np.count_nonzero(result)))


def _sample_interior(args, kwargs, result):
    exclude = kwargs.get("exclude", args[3] if len(args) > 3 else None)
    return {"exclude": exclude is not None}


def _evaluate_map(args, kwargs, result):
    return {"points": int(np.size(args[1]))}


def _root_products(args, kwargs, result):
    return {"root_products": int(np.size(args[1])) * int(args[0].n)}


def _render(args, kwargs, result):
    workers = kwargs.get("workers")
    if workers is None:
        workers = min(4, os.cpu_count() or 1)
    pixels = result.width * result.height
    if pixels <= 16 * result.width:
        workers = 1
    return {"pixels": pixels,
            "pixel_iterations": int(result.iterations.sum(dtype=np.int64)),
            "undecided": int(result.undecided_mask.sum()),
            "workers": workers}


#: (module, function, counter) for every traced layer function
LAYER_FUNCTIONS = [
    ("curves", "winding_numbers", _winding),
    ("curves", "distance_to_polyline", _distance),
    ("curves", "offset_annulus", None),
    ("curves", "load_curve", None),
    ("curves", "sample_interior", _sample_interior),
    ("conformal", "build_exterior_map", None),
    ("conformal", "evaluate_map", _evaluate_map),
    ("conformal", "laurent_coefficients", None),
    ("shapepoly", "select_epsilon", None),
    ("shapepoly", "sample_roots", None),
    ("shapepoly", "p_step_array", _root_products),
    ("shapepoly", "omega_scaled_array", _root_products),
    ("dynamics", "find_min_degree", None),
    ("dynamics", "certify", None),
    ("rational", "certify_multi", None),
    ("rational", "certify_S", None),
    ("rational", "curve_gap", None),
    ("render", "render", _render),
    ("render", "verify_hausdorff", None),
    ("render", "verify_hausdorff_annulus", None),
    ("render", "save_field", None),
    ("render", "write_image", None),
]

#: functions whose call count is a per-layer metric (for the certifiers, the
#: number of degrees tried)
CLI_COMMANDS = ("build", "verify", "render", "rational", "annulus")
COUNTED_CALLS = ["curves.winding_numbers", "shapepoly.sample_roots",
                 "dynamics.certify", "rational.certify_multi", "rational.certify_S"]


class Tracer:
    """Collects spans; ``install``/``uninstall`` patch the package in place."""

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.owner = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[tuple[int, int]] = []
        self.request = None
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def _record(self, span: dict) -> None:
        if os.getpid() == self.owner:
            self.spans.append(span)
            return
        path = os.path.join(self.spool_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(span) + "\n")

    def span(self, name: str, fn, counter=None):
        """Wrap fn so every call records a span called name."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            sid = (os.getpid(), self._next_id)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                self.stack.pop()
                span = {"name": name, "id": list(sid),
                        "parent": None if parent is None else list(parent),
                        "pid": sid[0], "request": self.request,
                        "start": start, "end": end, "ok": ok}
                if ok and counter is not None:
                    span.update(counter(args, kwargs, result))
                self._record(span)
            return result

        return wrapper

    def install(self) -> None:
        package = [m for k, m in sys.modules.items()
                   if m is not None and (k == "juliafit" or k.startswith("juliafit."))]
        for mod_name, fn_name, counter in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"juliafit.{mod_name}"], fn_name)
            wrapper = self.span(f"{mod_name}.{fn_name}", original, counter)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def all_spans(self) -> list[dict]:
        """In-memory spans plus those the pool workers spooled to disk."""
        spans = list(self.spans)
        for fname in sorted(os.listdir(self.spool_dir)):
            if fname.startswith("spans-") and fname.endswith(".jsonl"):
                with open(os.path.join(self.spool_dir, fname), encoding="utf-8") as fh:
                    spans.extend(json.loads(line) for line in fh)
        return spans

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.all_spans():
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list[dict], passes: int) -> dict:
    """Per-layer figures, per traced pass. ``s`` sums span durations, so
    concurrent pool-worker spans can add up to more than the wall time;
    ``self_s`` subtracts the direct children run by the same process."""
    dur = {tuple(s["id"]): s["end"] - s["start"] for s in spans}
    children: dict[tuple, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(tuple(s["parent"]), []).append(s)

    def kids(s, name=None):
        return [c for c in children.get(tuple(s["id"]), [])
                if c["pid"] == s["pid"] and (name is None or c["name"] == name)]

    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name, key=None):
        items = by_name.get(name, [])
        if key is None:
            return sum(dur[tuple(s["id"])] for s in items)
        return sum(s.get(key, 0) for s in items)

    out = {}
    for mod_name, fn_name, _ in LAYER_FUNCTIONS:
        name = f"{mod_name}.{fn_name}"
        out[f"{name}.s"] = total(name) / passes
    for name in COUNTED_CALLS:
        out[f"{name}.calls"] = len(by_name.get(name, [])) / passes
    for name in ("curves.winding_numbers", "curves.distance_to_polyline"):
        out[f"{name}.pairs"] = total(name, "pairs") / passes
    out["conformal.evaluate_map.points"] = total("conformal.evaluate_map", "points") / passes
    for name in ("shapepoly.p_step_array", "shapepoly.omega_scaled_array"):
        out[f"{name}.root_products"] = total(name, "root_products") / passes

    kept = drawn = 0
    for s in by_name.get("curves.sample_interior", []):
        tests = sorted(kids(s, "curves.winding_numbers"), key=lambda c: c["start"])
        if s.get("exclude"):
            # each batch is tested against the curve, then against the
            # excluded region, which lies inside the curve
            drawn += sum(c["queries"] for c in tests[::2])
            kept += (sum(c["inside"] for c in tests[::2])
                     - sum(c["inside"] for c in tests[1::2]))
        else:
            drawn += sum(c["queries"] for c in tests)
            kept += sum(c["inside"] for c in tests)
    out["curves.sample_interior.accept_ratio"] = kept / drawn if drawn else 0.0

    tries = sum(len(kids(s, "conformal.evaluate_map"))
                for s in by_name.get("shapepoly.select_epsilon", []))
    out["shapepoly.select_epsilon.tries"] = tries / passes

    pixels = total("render.render", "pixels")
    out["render.render.pixels"] = pixels / passes
    out["render.render.pixel_iterations"] = total("render.render", "pixel_iterations") / passes
    out["render.render.undecided_share"] = (
        total("render.render", "undecided") / pixels if pixels else 0.0)
    out["render.render.workers"] = max(
        (s.get("workers", 0) for s in by_name.get("render.render", [])), default=0)

    # busy time of a layer: spans of the benchmark process not nested in
    # another span of the same layer, over the time spent in CLI commands
    main_pid = {s["pid"] for c in CLI_COMMANDS for s in by_name.get(f"cli.{c}", [])}
    spans_by_id = {tuple(s["id"]): s for s in spans}

    def nested(s, layer):
        p = s["parent"]
        while p is not None:
            s = spans_by_id[tuple(p)]
            if s["name"].startswith(layer + "."):
                return True
            p = s["parent"]
        return False

    cli_time = sum(total(f"cli.{c}") for c in CLI_COMMANDS)
    for layer in dict.fromkeys(m for m, _, _ in LAYER_FUNCTIONS):
        busy = sum(dur[tuple(s["id"])] for s in spans
                   if s["pid"] in main_pid and s["name"].startswith(layer + ".")
                   and not nested(s, layer))
        out[f"{layer}.busy_share"] = busy / cli_time if cli_time else 0.0

    for cmd in CLI_COMMANDS:
        items = by_name.get(f"cli.{cmd}", [])
        self_time = sum(dur[tuple(s["id"])] - sum(dur[tuple(c["id"])] for c in kids(s))
                        for s in items)
        out[f"cli.{cmd}.self_s"] = self_time / passes
    return out

"""juliafit benchmark: the CLI commands run in-process in a closed loop.

    python3 perfbench/run.py --workload fit-blob --seed 1 --seconds 20 --trace 0

One client issues one command at a time and the next only after the last
returns; each command is timed around ``juliafit.cli.main(argv)`` with the
render pool at its default size. A pass is the workload's command sequence;
passes repeat on the same inputs until the commands have run for
``--seconds`` (at least one pass). Every pass writes into its own directory
and is checked by ``check.py`` outside the timed region.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics (per traced pass),
runs the kernel probes and writes the spans to
``.perfbench_work/trace-<workload>-<seed>.jsonl``. Either way the line before
the result carries the per-command figures.

The program is imported from ``src/`` of the checkout this file sits in; the
benchmark refuses to run without it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

import check
import probes
import tracing
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s", "cycle_s": "s", "peak_rss_mb": "MB", "roots_n": "count",
    "hausdorff_ratio": "ratio", "success_rate": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name == "src.lines":
        return "lines"
    if name.endswith("ns_per_root_product"):
        return "ns"
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def load_program():
    if not os.path.isfile(os.path.join(SRC, "juliafit", "cli.py")):
        fail(f"no juliafit sources under {SRC}")
    sys.path.insert(0, SRC)
    from juliafit import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        fail(f"imported juliafit from {cli.__file__}, not from {SRC}")
    return cli


def run_command(cli, argv: list[str]) -> int:
    """Exit code of one CLI invocation; its messages go to stderr only when
    it fails, and an exception escaping the CLI counts as a failure."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:
        rc = -1
        err.write(traceback.format_exc())
    if rc != 0:
        sys.stderr.write(f"perfbench: {' '.join(argv)} -> {rc}\n{err.getvalue()}")
    return rc


def set_up(cli, workload, seed: int, run_dir: str):
    """Fresh-process import, input generation and any prebuilt dump, done
    SETUP_REPEATS times; returns the inputs, the dump directory and the
    set-up times."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for k in range(SETUP_REPEATS):
        d = os.path.join(run_dir, f"setup{k}")
        os.makedirs(d)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import juliafit.cli"], env=env,
                       cwd=ROOT, check=True, timeout=120)
        inputs = workload.make_inputs(seed, d)
        argv = workload.prepare(inputs, os.path.join(d, "dump"), seed)
        if argv is not None and run_command(cli, argv) != 0:
            fail("set-up command failed")
        times.append(time.perf_counter() - t0)
    return inputs, {"dir": os.path.join(d, "dump")}, times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = load_program()
    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    spool = os.path.join(run_dir, "spool")
    os.makedirs(spool)
    # a terminated run still removes its scratch files and joins the pool
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return measure(cli, workload, args, run_dir, spool)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(cli, workload, args, run_dir, spool) -> int:
    inputs, prep, setup_times = set_up(cli, workload, args.seed, run_dir)
    tracer = tracing.Tracer(spool) if args.trace else None

    cmd_times = {}          # command -> wall times of untraced runs
    pass_times = {False: [], True: []}
    facts = {}              # command -> figures read from its outputs
    attempted = failed = leaks = 0
    correct = True
    reference = None        # digests of the first pass
    measured = 0.0
    k = 0
    while (k == 0 or measured < args.seconds
           or (tracer is not None and not pass_times[True])):
        traced = tracer is not None and k % 2 == 1
        pass_dir = os.path.join(run_dir, f"pass{k}")
        commands = workload.commands(inputs, pass_dir, args.seed, prep)
        if traced:
            tracer.install()
        elapsed = 0.0
        results = []
        try:
            for cmd in commands:
                if traced:
                    tracer.request = f"pass{k}.{cmd.name}"
                    timed = tracer.span(f"cli.{cmd.name}", run_command)
                else:
                    timed = run_command
                t0 = time.perf_counter()
                rc = timed(cli, cmd.argv)
                dt = time.perf_counter() - t0
                elapsed += dt
                results.append((cmd, rc))
                if not traced:
                    cmd_times.setdefault(cmd.name, []).append(dt)
        finally:
            if traced:
                tracer.uninstall()
        measured += elapsed
        pass_times[traced].append(elapsed)

        pass_digests = {}
        for cmd, rc in results:
            attempted += 1
            try:
                problems, got = check.check_command(cmd, rc)
                if not problems:
                    pass_digests[cmd.name], n_leaks = check.digests(cmd.out)
                    if k == 0:
                        leaks += n_leaks
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"{cmd.name}: unreadable output: {exc!r}"]
            if (not problems and reference is not None
                    and pass_digests[cmd.name] != reference.get(cmd.name)):
                problems.append(f"{cmd.name}: artifacts differ from pass 0")
            for p in problems:
                print(f"perfbench: check failed: {p}", file=sys.stderr)
            if problems:
                failed += 1
                correct = False
            elif facts.setdefault(cmd.name, got) != got:
                print(f"perfbench: {cmd.name} figures changed between passes",
                      file=sys.stderr)
                correct = False
        if reference is None:
            reference = pass_digests
        shutil.rmtree(pass_dir, ignore_errors=True)
        k += 1

    if failed == 0 and not compare_with_earlier_runs(args, reference):
        correct = False

    detail = {f"{name}_s": summary(ts, "s") for name, ts in cmd_times.items()}
    for name, got in facts.items():
        if "n" in got:
            detail[f"{name}_n"] = {"value": got["n"], "unit": "count"}
    ratios = [got["ratio"] for got in facts.values() if "ratio" in got]
    detail["hausdorff_ratio"] = {"value": max(ratios) if ratios else None, "unit": "ratio"}
    detail["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
    detail["config_leaks"] = {"value": leaks, "unit": "count"}
    detail["passes"] = {"value": len(pass_times[False]), "unit": "count"}

    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    roots = sum(got["n"] for got in facts.values() if "n" in got)
    if workload.name == "render-deep":
        with open(os.path.join(prep["dir"], "shape.json"), encoding="utf-8") as fh:
            roots = json.load(fh)["n"]
    values = {
        "setup_s": statistics.median(setup_times),
        "cycle_s": statistics.median(pass_times[False]),
        "peak_rss_mb": (self_kib + child_kib) * 1024 / 1e6,
        "roots_n": roots,
        "hausdorff_ratio": detail["hausdorff_ratio"]["value"],
        "success_rate": (attempted - failed) / attempted,
    }
    units = END_TO_END_UNITS
    if tracer is not None:
        detail["end_to_end"] = {name: {"value": values[name], "unit": unit}
                                for name, unit in units.items()}
        values = tracing.layer_metrics(tracer.all_spans(), len(pass_times[True]))
        values["trace.overhead_share"] = (statistics.median(pass_times[True])
                                          / statistics.median(pass_times[False]) - 1.0)
        values["src.lines"] = src_lines()
        values.update(probes.run(args.seed))
        tracer.write(os.path.join(WORK, f"trace-{workload.name}-{args.seed}.jsonl"))
        units = {name: per_layer_unit(name) for name in values}

    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def summary(times: list[float], unit: str) -> dict:
    return {"value": statistics.median(times), "unit": unit,
            "min": min(times), "max": max(times), "samples": len(times)}


def compare_with_earlier_runs(args, digests: dict | None) -> bool:
    """The first run of a workload and seed in this checkout stores its
    artifact digests; later runs of the same seed must reproduce them."""
    if not digests:
        return True
    store = os.path.join(WORK, "digests")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, f"{args.workload}-{args.seed}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        if earlier != digests:
            print("perfbench: artifacts differ from an earlier run of this seed",
                  file=sys.stderr)
            return False
        return True
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, sort_keys=True)
    os.replace(tmp, path)
    return True


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


if __name__ == "__main__":
    raise SystemExit(main())

"""Smoke test of the benchmark: one reduced traced run per workload.

    python3 perfbench/smoke.py

Each run makes one untraced and one traced pass. The test asserts that every
metric BENCHMARK.json names is reported with its unit (the per-layer ones on
the result line, the end-to-end ones on the detail line before it), that the
outputs passed every check and that no command failed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_metrics(declared: list[dict], reported: dict, where: str) -> list[str]:
    problems = []
    for m in declared:
        got = reported.get(m["name"])
        if got is None:
            problems.append(f"{where}: {m['name']} missing")
        elif got["unit"] != m["unit"]:
            problems.append(f"{where}: {m['name']} in {got['unit']}, declared {m['unit']}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for w in bench["workloads"]:
        proc = subprocess.run(
            bench["command"] + ["--workload", w["name"], "--seed", "1",
                                "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            problems.append(f"{w['name']}: exit {proc.returncode}\n{proc.stderr}")
            continue
        *_, detail_line, result_line = proc.stdout.splitlines()
        detail = json.loads(detail_line)["detail"]
        result = json.loads(result_line)
        problems += check_metrics(bench["per_layer"], result["metrics"], w["name"])
        problems += check_metrics(bench["end_to_end"], detail["end_to_end"], w["name"])
        if detail["error_rate"]["value"] != 0:
            problems.append(f"{w['name']}: error_rate {detail['error_rate']['value']}")
        if not result["correct"] or result["failed"]:
            problems.append(f"{w['name']}: outputs failed their checks\n{proc.stderr}")
        print(f"{w['name']}: {result['attempted']} commands checked", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

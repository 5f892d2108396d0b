#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how steady each metric is.

    python3 benchmark/prove.py --runs 10 [--workload instant-500 ...] [--json FILE]

Reads the command, run length, workloads and metrics from BENCHMARK.json,
runs `<command> --workload W --seed S --seconds <run_seconds> --trace 0` for
seeds 1..runs, and prints, per (end-to-end metric, workload), the median,
the quartiles and the spread: the distance between the quartiles as a share
of the median. The per-stage times and counts run.py prints for people are
summarised the same way, without a bound. Exits nonzero when a run fails or
a spread exceeds the metric's bound. As in the benchmark contract, the spread
of setup_s is not gated (it is marked `exempt` when above its bound); only
its median is compared between two sets of runs.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# Lines for people that run.py prints before its result: "# name = value unit".
_REPORT_LINE = re.compile(r"^# (\w+) = (\S+) (\S+)$")


def run_once(spec: dict, workload: str, seed: int) -> dict:
    command = [*spec["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: output checks failed")
    values = {m.group(1): float(m.group(2)) for m in map(_REPORT_LINE.match, lines) if m}
    values.update((name, m["value"]) for name, m in result["metrics"].items())
    return values


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--json", help="write every value and summary to this file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, ok = {}, True
    for workload in workloads:
        runs = [run_once(spec, workload, seed) for seed in range(1, args.runs + 1)]
        report[workload] = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            summary = summarize(values)
            report[workload][name] = {"values": values, **summary}
            if summary["spread"] <= bound / 3:
                status = "ok"
            elif summary["spread"] <= bound:
                status = "near"
            elif name == "setup_s":
                status = "exempt"
            else:
                status, ok = "WIDE", False
            print(f"{workload:12s} {name:16s} median {summary['median']:10.4f} "
                  f"q1 {summary['q1']:10.4f} q3 {summary['q3']:10.4f} "
                  f"spread {summary['spread']:.4f} bound {bound} {status}", flush=True)
        for name in sorted(set(runs[0]) - set(bounds)):  # stage times and counts, no bound
            summary = summarize([r[name] for r in runs])
            report[workload][name] = {"values": [r[name] for r in runs], **summary}
            print(f"{workload:12s} {name:16s} median {summary['median']:10.4f} "
                  f"spread {summary['spread']:.4f}", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

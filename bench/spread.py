#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload certify-d32 --seeds 1-10 --seconds 15

Runs ``run.py`` once per seed, one run at a time, and prints for each metric
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (third minus first quartile, as a share of the median).  ``--json``
also writes the runs and the summary to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median,
                         "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--json", help="write runs and summary here")
    args = parser.parse_args()
    runs = []
    for seed in seeds(args.seeds):
        proc = subprocess.run([sys.executable, str(RUN), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(args.seconds),
                               "--trace", "0"],
                              capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {values}", flush=True)
    summary = summarize(runs)
    for name, s in summary.items():
        print(f"{name:30s} median {s['median']:12.6g} {s['unit']:6s} "
              f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {100 * s['spread']:6.2f}%")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds, "runs": runs,
             "summary": summary}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

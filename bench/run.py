#!/usr/bin/env python3
"""Certification benchmark: four CLI workloads and a per-module traced run.

Run one workload (the last stdout line is the JSON result):

    python3 bench/run.py --workload certify-small --seed 1 --seconds 15 --trace 0

or every workload, each in its own fresh process, with a metric table:

    python3 bench/run.py --seed 1 --seconds 15

Each workload calls ``singlet_selftest.cli.main`` from ``src/`` in-process, in
a closed loop (the next call starts when the previous one returns), over
whole passes of inputs generated from ``--seed``.  After timing, every
output is compared with the output of ``bench/seedref`` (a frozen copy of the
library at the commit that defined this benchmark) on the same input; see
``check.py``.  Timings are scaled to a nominal machine speed by a calibration
sample timed between calls (``calibrate.py``); raw timings are printed too.
``--trace 1`` instead alternates untraced and traced passes and reports
per-module metrics from spans recorded by ``tracing.py``, and writes the
spans to ``.bench_work/spans/<workload>-seed<seed>.jsonl.gz``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: it keeps each process at or below
# the machine's two cores (the sweep pool adds its own threads) and gives the
# plain single-threaded baseline.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import check  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPANS_DIR = ROOT / ".bench_work" / "spans"
WORKLOADS = ("certify-d32", "certify-small", "search-d4", "sweep-threads")
SETUP_REPEATS = 3
P90_MIN_CALLS = 100

DEFAULT_SECONDS = 15.0
# Seconds of calls between two calibration samples (see calibrate.py).
CAL_INTERVAL_S = 0.25

UNIT_NAMES = {
    "certify-d32": "certified device",
    "certify-small": "certified device",
    "search-d4": "search evaluation",
    "sweep-threads": "sweep point",
}

# Per-layer metrics: counts are per workload unit, times per pass.
COUNTED = ("linalg.tensor_embed", "linalg.operator_sign", "device.validate",
           "device.correlation", "isometry.junk_candidate", "isometry.apply_isometry",
           "explorer.evaluate_device")
TIMED = ("linalg.tensor_embed", "linalg.operator_sign", "device.validate",
         "device.correlation", "derive.operators", "derive.condition_residuals",
         "derive.diagnostics", "isometry.extraction_error", "isometry.b_measured_error",
         "isometry.junk_candidate", "isometry.apply_isometry", "bounds.certify",
         "explorer.family_points", "explorer.evaluate_device", "explorer.worst_case_search",
         "documents.load_device", "documents.digest", "documents.report_to_document",
         "documents.write", "cli.sweep_csv", "cli.main")
KERNEL_SPANS = ("derive.operators", "derive.condition_residuals", "derive.diagnostics",
                "device.correlation", "linalg.tensor_embed")


def import_library():
    """The library under test, from ``src/`` of this checkout only."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import singlet_selftest.cli as cli
    except ImportError as err:
        raise SystemExit(f"error: cannot import singlet_selftest from {src}: {err}")
    if Path(cli.__file__).resolve().parents[1] != src:
        raise SystemExit(f"error: singlet_selftest resolved outside {src}: {cli.__file__}")
    return cli


def import_reference():
    import seedref.cli

    return seedref.cli


def run_call(cli, call: inputs.Call, out_dir: Path) -> tuple[check.Outcome, float]:
    """One CLI call with stdout/stderr captured; returns outcome and seconds."""
    for name in call.outputs:
        (out_dir / name).unlink(missing_ok=True)
    argv = call.command(out_dir)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as err:  # a crash is a failed call, checked like any other
            code = f"raised {type(err).__name__}: {err}"
        elapsed = time.perf_counter() - start
    files = []
    for name in call.outputs:
        path = out_dir / name
        files.append(path.read_bytes() if path.exists() else None)
    return check.Outcome(code, tuple(files)), elapsed


class Recorder:
    """Distinct outcomes per call index, with how often each was seen."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.samples: dict = {}

    def add(self, index: int, outcome: check.Outcome) -> None:
        h = hashlib.blake2b(str(outcome.code).encode(), digest_size=16)
        for data in outcome.files:
            h.update(b"-" if data is None else len(data).to_bytes(8, "little") + data)
        key = (index, h.digest())
        self.counts[key] += 1
        self.samples.setdefault(key, outcome)

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())


def verify(calls, recorder: Recorder, ref_dir: Path) -> tuple[int, list[str]]:
    """Failed call count and messages, against the frozen reference library."""
    ref_cli = import_reference()
    ref_dir.mkdir(parents=True, exist_ok=True)
    failed = 0
    messages = []
    references = {}
    for (index, digest), count in sorted(recorder.counts.items()):
        if index not in references:
            references[index] = run_call(ref_cli, calls[index], ref_dir)[0]
        diffs = check.differences(references[index], recorder.samples[(index, digest)],
                                  calls[index].outputs)
        if diffs:
            failed += count
            messages.append(f"call {index} ({' '.join(calls[index].argv[:3])}), "
                            f"{count} time(s): " + "; ".join(diffs[:5]))
    return failed, messages


def prepare(workload: str, seed: int, workdir: Path):
    """Set-up: import, generate inputs, one warm-up call."""
    cli = import_library()
    calls = inputs.generate(workload, seed, workdir / "inputs")
    out_dir = workdir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    recorder = Recorder()
    recorder.add(0, run_call(cli, calls[0], out_dir)[0])
    return cli, calls, out_dir, recorder


def measure_setup(args, workdir: Path) -> list[float]:
    """Set-up seconds of fresh processes, from spawn until ready to time."""
    times = []
    for i in range(SETUP_REPEATS):
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                   "--seed", str(args.seed), "--setup-only", str(workdir / f"setup{i}")]
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"error: set-up process exited {code} before it was ready")
        times.append(elapsed)
    return times


def run_pass(cli, calls, out_dir, recorder) -> float:
    start = time.perf_counter()
    for index, call in enumerate(calls):
        recorder.add(index, run_call(cli, call, out_dir)[0])
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(args, cli, calls, out_dir, recorder, calibrator):
    """Closed loop over whole passes until ``--seconds`` of calls have run.

    A calibration sample is taken before the first call, between calls once
    CAL_INTERVAL_S of calls have run since the last one, and after the last
    call; sampling time is not run time.  Returns the pass count and, per
    call, its wall time (with recording its outcome), its latency and the
    machine's slowdown around it: the mean of the samples just before and
    after it over calibrate.NOMINAL_S.
    """
    records = []
    passes = 0
    wall = since_sample = 0.0
    calibrator.sample()
    while passes == 0 or wall < args.seconds:
        for index, call in enumerate(calls):
            if since_sample >= CAL_INTERVAL_S:
                calibrator.sample()
                since_sample = 0.0
            start = time.perf_counter()
            outcome, latency = run_call(cli, call, out_dir)
            recorder.add(index, outcome)
            step = time.perf_counter() - start
            wall += step
            since_sample += step
            records.append((step, latency, len(calibrator.samples) - 1))
        passes += 1
    calibrator.sample()
    samples = calibrator.samples
    timed = [(step, latency, (samples[k] + samples[k + 1]) / (2.0 * calibrate.NOMINAL_S))
             for step, latency, k in records]
    return passes, timed, peak_rss_mb()


def traced_run(args, cli, calls, out_dir, recorder):
    """Alternate untraced and traced passes until ``--seconds`` have elapsed."""
    tracer = tracing.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        plain.append(run_pass(cli, calls, out_dir, recorder))
        patched = tracing.install(tracer)
        try:
            traced.append(run_pass(cli, calls, out_dir, recorder))
        finally:
            tracing.uninstall(patched)
    return tracer.spans, plain, traced


def _info_sum(spans, name: str) -> int:
    """Sum of the byte counts the hooks recorded on spans of ``name``."""
    return sum(s.info for s in spans if s.name == name and isinstance(s.info, int))


def layer_metrics(spans, passes: int, units: int, overhead: float) -> dict:
    """Per-layer metrics from the traced passes; ``units`` counts all of them."""
    own = tracing.self_times(spans)
    calls = Counter(span.name for span in spans)
    self_s = defaultdict(float)
    for span, seconds in own.items():
        self_s[span.name] += seconds
    metrics = {}
    for name in COUNTED:
        metrics[f"{name}.calls"] = (calls[name] / units, "count/unit")
    metrics["linalg.tensor_embed.bytes"] = (_info_sum(spans, "linalg.tensor_embed") / units,
                                            "B/unit")
    for name in TIMED:
        metrics[f"{name}.self_ms"] = (1000.0 * self_s[name] / passes, "ms")
    metrics["documents.bytes_read"] = (_info_sum(spans, "documents.load_device") / units,
                                       "B/unit")
    metrics["documents.bytes_written"] = (_info_sum(spans, "documents.write") / units, "B/unit")

    evaluations = [s for s in spans if s.name == "explorer.evaluate_device"
                   and tracing.has_ancestor(s, "explorer.worst_case_search")]
    useful = sum(1 for s in evaluations if isinstance(s.info, tuple) and s.info[0] is False
                 and s.info[1] <= inputs.SEARCH_EPSILON_CEILING)
    metrics["explorer.search.useful_ratio"] = (
        useful / len(evaluations) if evaluations else 0.0, "ratio")

    sweeps = [s for s in spans if s.name == "cli.sweep_csv"]
    workers = defaultdict(set)
    busy = defaultdict(float)
    for s in spans:
        if s.name == "explorer.evaluate_device" and s.parent and s.parent.name == "cli.sweep_csv":
            workers[s.parent].add(s.thread)
            busy[s.parent] += s.duration
    widths = [len(workers[s]) for s in sweeps if workers[s]]
    capacity = sum(s.duration * len(workers[s]) for s in sweeps if workers[s])
    metrics["cli.sweep.width"] = (max(widths) if widths else 0, "threads")
    metrics["cli.sweep.pool_util"] = (sum(busy.values()) / capacity if capacity else 0.0,
                                      "ratio")

    top = sum(s.duration for s in spans if s.name == "cli.main")
    kernel = sum(self_s[name] for name in KERNEL_SPANS)
    metrics["trace.kernel_self_share"] = (kernel / top if top else 0.0, "ratio")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def sweep_width() -> int:
    """The CLI's sweep pool width for SELFTEST_THREADS and the CPU count."""
    try:
        width = int(os.environ.get("SELFTEST_THREADS") or 0)
    except ValueError:
        width = 0
    return min(width if width > 0 else os.cpu_count() or 1, inputs.SWEEP_POINTS)


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    raw = os.environ.get("SELFTEST_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "selftest_threads": raw if raw is not None else "unset",
        "sweep_width": sweep_width(),
        "commit": git_commit(),
        "calibration": f"v{calibrate.VERSION}, nominal {calibrate.NOMINAL_S} s",
    }


def run_workload(args) -> int:
    import_library()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_times = [] if args.trace else measure_setup(args, workdir)
        cli, calls, out_dir, recorder = prepare(args.workload, args.seed, workdir)
        if args.trace:
            spans, plain, traced = traced_run(args, cli, calls, out_dir, recorder)
            units = len(traced) * sum(call.units for call in calls)
            overhead = statistics.median(traced) / statistics.median(plain) - 1.0
            metrics = layer_metrics(spans, len(traced), units, overhead)
            SPANS_DIR.mkdir(parents=True, exist_ok=True)
            spans_path = SPANS_DIR / f"{args.workload}-seed{args.seed}.jsonl.gz"
            tracing.write_spans(spans, spans_path)
            summary = (f"{len(plain)} untraced and {len(traced)} traced passes of "
                       f"{len(calls)} calls; {len(spans)} spans written to "
                       f"{spans_path.relative_to(ROOT)}")
        else:
            calibrator = calibrate.Calibrator()
            passes, timed, rss = timed_run(args, cli, calls, out_dir, recorder, calibrator)
            units = passes * sum(call.units for call in calls)
            raw_wall = sum(step for step, _, _ in timed)
            wall = sum(step / slowdown for step, _, slowdown in timed)
            raw_ms = sorted(1000.0 * latency for _, latency, _ in timed)
            lat_ms = sorted(1000.0 * latency / slowdown for _, latency, slowdown in timed)
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "units_per_s": (units / wall, "1/s"),
                "call_ms_p50": (statistics.median(lat_ms), "ms"),
                "peak_rss_mb": (rss, "MB"),
            }
            summary = (f"{len(lat_ms)} timed calls in {passes} passes, {raw_wall:.2f} s; "
                       f"unit = one {UNIT_NAMES[args.workload]}; "
                       f"set-up runs {', '.join(f'{t:.3f}' for t in setup_times)} s; "
                       f"machine slowdown {raw_wall / wall:.4f} ("
                       f"{len(calibrator.samples)} samples); raw units_per_s "
                       f"{units / raw_wall:.6g}, raw call_ms_p50 {statistics.median(raw_ms):.6g}")
            if len(lat_ms) >= P90_MIN_CALLS:
                p90, raw_p90 = (statistics.quantiles(x, n=10, method="inclusive")[-1]
                                for x in (lat_ms, raw_ms))
                summary += f"; call_ms_p90 {p90:.6g} ms, raw {raw_p90:.6g} (n={len(lat_ms)})"
            summary += f"; call_ms_p50 n={len(lat_ms)}"
        failed, messages = verify(calls, recorder, workdir / "ref")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    attempted = recorder.attempted
    print(f"workload {args.workload} seed {args.seed}: {summary}")
    print(f"fail_frac {failed / attempted:.6g} ({failed}/{attempted} calls disagree "
          "with the reference)")
    for message in messages:
        print(f"  mismatch: {message}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process; prints one metric table."""
    results = {}
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        proc = subprocess.run(command, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"error: workload {workload} exited {proc.returncode}")
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(results.values()))["metrics"])
    print()
    print(f"{'metric':40s} {'unit':>10s} " + " ".join(f"{w:>14s}" for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        cells = " ".join(f"{results[w]['metrics'][name]['value']:14.6g}" for w in WORKLOADS)
        print(f"{name:40s} {unit:>10s} {cells}")
    fails = " ".join(f"{results[w]['failed'] / results[w]['attempted']:14.6g}"
                     for w in WORKLOADS)
    print(f"{'fail_frac':40s} {'ratio':>10s} {fails}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": value for w, r in results.items()
                    for name, value in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        workdir = Path(args.setup_only)
        try:
            prepare(args.workload, args.seed, workdir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

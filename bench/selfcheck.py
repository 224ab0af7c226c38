#!/usr/bin/env python3
"""Self-checks of the benchmark's own machinery; run before trusting it:

    python3 bench/selfcheck.py

1. The input generator is deterministic: the same seed gives byte-identical
   files, a different seed different ones; and certify-small's degenerate
   devices do take certify's degenerate-junk branch.
2. The output checker counts a failure for a report number moved by 1e-9, a
   flipped pass flag, a changed exit code and a moved or NaN-flipped CSV
   cell, and none for an unmodified output.
3. Self time is computed correctly on synthetic nested and overlapping
   spans, and worker-thread spans nest under the span that submitted them.
4. Traced calls reproduce the per-call counts of the frozen reference
   library (``seedref``), which later changes cite.  The same counts are
   printed for the library under test in ``src/``; they may differ once the
   library changes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import run  # first: pins BLAS threads before numpy loads

import check
import inputs
import tracing

# Per CLI certify call, for a device whose junk is non-degenerate.
SEED_CERTIFY_COUNTS = {
    "chsh": {"device.validate": 4, "device.correlation": 4, "linalg.tensor_embed": 19,
             "linalg.operator_sign": 3, "isometry.junk_candidate": 7,
             "isometry.apply_isometry": 9},
    "my": {"device.validate": 4, "device.correlation": 6, "linalg.tensor_embed": 23,
           "linalg.operator_sign": 0, "isometry.junk_candidate": 1,
           "isometry.apply_isometry": 9},
}
SEARCH_BUDGET = 40
SWEEP_POINTS = 12
# Per search call: 2 validate and 9 apply_isometry calls per evaluation (all
# proposals here are valid and non-degenerate), plus 3 validate and 9
# apply_isometry calls for the closing certify.  A sweep validates each point
# twice: once in the CLI, once when deriving operators.
SEED_SEARCH_COUNTS = {"explorer.evaluate_device": SEARCH_BUDGET,
                      "device.validate": 2 * SEARCH_BUDGET + 3,
                      "isometry.apply_isometry": 9 * SEARCH_BUDGET + 9}


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def check_generator(tmp: Path) -> None:
    for workload in run.WORKLOADS:
        first = _files_of(workload, 7, tmp / "a")
        again = _files_of(workload, 7, tmp / "b")
        other = _files_of(workload, 8, tmp / "c")
        expect(first == again, f"{workload}: seed 7 twice gave different files")
        if first:
            expect(first != other, f"{workload}: seeds 7 and 8 gave identical files")
    print("ok  generator: same seed byte-identical, different seed different")


def _files_of(workload: str, seed: int, directory: Path) -> dict:
    shutil.rmtree(directory, ignore_errors=True)
    calls = inputs.generate(workload, seed, directory)
    files = _files(directory)
    # Search takes no input files; its inputs are the seeds in its argv.
    files["argv"] = repr([c.argv for c in calls]).replace(str(directory), "").encode()
    return files


def check_degenerate(tmp: Path) -> None:
    """The certify-small corpus reaches certify's degenerate-junk branch."""
    calls = [c for c in inputs.generate("certify-small", 7, tmp / "inputs")
             if "degenerate" in Path(c.argv[2]).name]
    expect(len(calls) == 6, f"expected 6 degenerate certify calls, got {len(calls)}")
    (tmp / "out").mkdir()
    _, _, degenerate = traced_counts("seedref", run.import_reference(), calls, tmp / "out")
    expect(all(degenerate), "a degenerate device's junk candidate did not raise")
    print("ok  generator: certify-small's degenerate devices raise in junk_candidate")


def _replace_first(doc, predicate, change):
    """Apply ``change`` to the first leaf (depth-first) matching ``predicate``."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return False
    for key, value in items:
        if isinstance(value, (dict, list)):
            if _replace_first(value, predicate, change):
                return True
        elif predicate(key, value):
            doc[key] = change(value)
            return True
    return False


def check_checker(tmp: Path) -> None:
    ref_cli = run.import_reference()
    calls = inputs.generate("certify-small", 3, tmp / "inputs")
    (tmp / "out").mkdir()
    names = calls[0].outputs
    ref, _ = run.run_call(ref_cli, calls[0], tmp / "out")
    expect(ref.code == 0, "near-ideal reference device did not pass")
    expect(not check.differences(ref, ref, names), "unmodified output counted as failure")

    def corrupted(predicate, change, code=None):
        doc = json.loads(ref.files[0])
        if predicate is not None:
            expect(_replace_first(doc["report"]["rows"], predicate, change),
                   "no field to corrupt")
        data = (json.dumps(doc, indent=2) + "\n").encode()
        return check.Outcome(ref.code if code is None else code, (data,))

    cases = {
        "report number moved by 1e-9": corrupted(
            lambda k, v: k == "measured" and isinstance(v, float), lambda v: v + 1e-9),
        "flipped pass flag": corrupted(lambda k, v: k == "pass", lambda v: not v),
        "changed exit code": corrupted(None, None, code=1),
    }
    expect(not check.differences(ref, corrupted(None, None), names),
           "re-serialized unmodified report counted as failure")
    for label, outcome in cases.items():
        expect(check.differences(ref, outcome, names), f"checker missed: {label}")

    sweep = inputs.generate("sweep-threads", 3, tmp / "sweep")[0]
    csv_ref, _ = run.run_call(ref_cli, sweep, tmp / "out")
    lines = csv_ref.files[0].decode().splitlines()
    cells = lines[1].split(",")
    for label, cell in (("CSV cell moved by 1e-9", repr(float(cells[2]) + 1e-9)),
                        ("CSV cell turned NaN", "nan")):
        changed = ",".join(cells[:2] + [cell] + cells[3:])
        bad = "\n".join([lines[0], changed] + lines[2:]) + "\n"
        outcome = check.Outcome(csv_ref.code, (bad.encode(),))
        expect(check.differences(csv_ref, outcome, sweep.outputs), f"checker missed: {label}")
    expect(not check.differences(csv_ref, csv_ref, sweep.outputs),
           "unmodified CSV counted as failure")
    print("ok  checker: flags a 1e-9 move, a flipped pass flag, a changed exit code, "
          "CSV moves and NaNs; passes unmodified outputs")


def _span(name, start, end, parent=None):
    span = tracing.Span(name, parent, 0)
    span.start, span.end = start, end
    return span


def check_self_time() -> None:
    root = _span("root", 0.0, 10.0)
    a = _span("a", 1.0, 3.0, root)
    b = _span("b", 2.0, 5.0, root)  # overlaps a, as on a second worker thread
    c = _span("c", 8.0, 12.0, root)  # runs past its parent's end; clipped
    d = _span("d", 1.5, 2.5, a)
    own = tracing.self_times([root, a, b, c, d])
    expected = {root: 10.0 - (4.0 + 2.0), a: 1.0, b: 3.0, c: 4.0, d: 1.0}
    for span, value in expected.items():
        expect(abs(own[span] - value) < 1e-12,
               f"self time of {span.name}: {own[span]} != {value}")

    tracer = tracing.Tracer()
    outer = tracer.open("outer")
    with ThreadPoolExecutor(max_workers=2) as pool:
        def work(_):
            inner = tracer.open("inner")
            tracer.close(inner)
        list(pool.map(work, range(4)))
    tracer.close(outer)
    inner = [s for s in tracer.spans if s.name == "inner"]
    expect(len(inner) == 4 and all(s.parent is outer and s.call == outer.call for s in inner),
           "worker-thread spans did not nest under the submitting span")
    print("ok  self time: nested, overlapping and clipped children; worker threads nest")


def traced_counts(package: str, cli, calls, out_dir: Path):
    """Span-name counters per top-level call, each call's exit code, and
    whether its junk candidate was degenerate."""
    tracer = tracing.Tracer()
    patched = tracing.install(tracer, package)
    try:
        codes = []
        for call in calls:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(call.command(out_dir)))
    finally:
        tracing.uninstall(patched)
    per_call = [Counter() for _ in calls]
    degenerate = [False] * len(calls)
    for span in tracer.spans:
        per_call[span.call][span.name] += 1
        if span.name == "isometry.junk_candidate" and span.info and span.info[0] == "raised":
            degenerate[span.call] = True
    return per_call, codes, degenerate


def _search_calls(budget):
    return [inputs.Call(("search", "--mode", mode, "--epsilon-ceiling", "0.05",
                         "--dims", "4,4", "--budget", str(budget), "--seed", str(i)),
                        f"search-{mode}.json", (), budget)
            for i, mode in enumerate(inputs.MODES)]


def _sweep_calls(tmp: Path):
    path = tmp / "family.json"
    path.write_text(json.dumps({"kind": "measurement-noise", "dims": [2, 2], "seed": 5,
                                "parameters": {"eta": [0.0, 0.5, SWEEP_POINTS]}}))
    return [inputs.Call(("sweep", "--family", str(path)), "sweep.csv", (), SWEEP_POINTS)]


def count_table(package: str, cli, tmp: Path) -> dict:
    """Per-call span counts of ``package`` on certify, search and sweep calls."""
    out = tmp / package
    out.mkdir(parents=True)
    calls = [c for c in inputs.generate("certify-small", 11, tmp / "certify")
             if "near-ideal0-4x4" in c.argv[2]]
    per_call, codes, degenerate = traced_counts(package, cli, calls, out)
    table = {}
    for call, counts, code, junk_degenerate in zip(calls, per_call, codes, degenerate):
        expect(code == 0 and not junk_degenerate, f"{package}: near-ideal certify did not pass")
        mode = call.argv[call.argv.index("--mode") + 1]
        table[f"certify {mode}"] = {k: counts[k] for k in SEED_CERTIFY_COUNTS[mode]}
    per_call, _, _ = traced_counts(package, cli, _search_calls(SEARCH_BUDGET), out)
    for mode, counts in zip(inputs.MODES, per_call):
        table[f"search {mode}"] = {k: counts[k] for k in SEED_SEARCH_COUNTS}
    per_call, _, _ = traced_counts(package, cli, _sweep_calls(tmp), out)
    table["sweep"] = {"device.validate": per_call[0]["device.validate"]}
    return table


def check_seed_counts(tmp: Path) -> None:
    expected = {f"certify {mode}": counts for mode, counts in SEED_CERTIFY_COUNTS.items()}
    expected.update({f"search {mode}": SEED_SEARCH_COUNTS for mode in inputs.MODES})
    expected["sweep"] = {"device.validate": 2 * SWEEP_POINTS}
    seed_table = count_table("seedref", run.import_reference(), tmp / "seed")
    for key, counts in expected.items():
        expect(seed_table[key] == counts, f"{key}: traced {seed_table[key]} != {counts}")
    print("ok  traced counts reproduce the reference library's per-call counts:")
    live_table = count_table("singlet_selftest", run.import_library(), tmp / "live")
    for key, counts in seed_table.items():
        same = "same in src/" if live_table[key] == counts else f"src/ gives {live_table[key]}"
        print(f"      {key}: {counts}  ({same})")


def check_metric_names() -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer = set(run.layer_metrics([], 1, 1, 0.0))
    expect(layer == {m["name"] for m in declared["per_layer"]},
           f"traced metrics differ from BENCHMARK.json: {sorted(layer)}")
    expect({"setup_s", "units_per_s", "call_ms_p50", "peak_rss_mb"}
           == {m["name"] for m in declared["end_to_end"]},
           "end-to-end metrics differ from BENCHMARK.json")
    expect([w["name"] for w in declared["workloads"]] == list(run.WORKLOADS),
           "workloads differ from BENCHMARK.json")
    print("ok  metric and workload names match BENCHMARK.json")


def main() -> int:
    work = run.ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=work))
    try:
        check_metric_names()
        check_generator(tmp / "gen")
        check_degenerate(tmp / "degenerate")
        check_checker(tmp / "checker")
        check_self_time()
        check_seed_counts(tmp / "counts")
    except CheckFailed as err:
        print(f"FAIL {err}")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())

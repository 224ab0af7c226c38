"""Span tracing of the library from outside, by wrapping its public functions.

``install`` replaces every module attribute of the library that *is* one of
the target function objects.  Modules import names by value and sometimes
under aliases (``cli.validate_device`` is ``device.validate``), so patching
only the defining module would miss calls.  Each span records its name,
start, end, parent span and top-level call id.  Parents are tracked with one
stack per thread; a span opened on a worker thread with an empty stack takes
the innermost open span of the main thread as its parent, which is the span
that handed the work to the pool.  Spans stay in memory until the run ends;
``write_spans`` then saves them.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "call", "thread", "info")

    def __init__(self, name, parent, call):
        self.name = name
        self.parent = parent
        self.call = call
        self.thread = threading.get_ident()
        self.info = None
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._calls = itertools.count()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        span = Span(name, parent, parent.call if parent else next(self._calls))
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)


def _embed_bytes(args, kwargs, result):
    """Bytes of the embedded complex128 matrix: 16*(dA*dB)**2."""
    return 16 * result.shape[0] * result.shape[1]


def _bytes_read(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _bytes_written(args, kwargs, result):
    return len((args[1] if len(args) > 1 else kwargs["text"]).encode("utf-8"))


def _evaluation(args, kwargs, result):
    return (bool(result.degenerate), float(result.epsilon))


# (module, function, span name, hook recording span.info from the call).
TARGETS = (
    ("linalg", "tensor_embed", "linalg.tensor_embed", _embed_bytes),
    ("linalg", "operator_sign", "linalg.operator_sign", None),
    ("device", "validate", "device.validate", None),
    ("device", "correlation", "device.correlation", None),
    ("derive", "derive_chsh_operators", "derive.operators", None),
    ("derive", "my_operators", "derive.operators", None),
    ("derive", "condition_residuals", "derive.condition_residuals", None),
    ("derive", "chsh_diagnostics", "derive.diagnostics", None),
    ("derive", "my_diagnostics", "derive.diagnostics", None),
    ("isometry", "junk_candidate", "isometry.junk_candidate", None),
    ("isometry", "apply_isometry", "isometry.apply_isometry", None),
    ("isometry", "extraction_error", "isometry.extraction_error", None),
    ("isometry", "b_measured_error", "isometry.b_measured_error", None),
    ("bounds", "certify", "bounds.certify", None),
    ("explorer", "family_points", "explorer.family_points", None),
    ("explorer", "evaluate_device", "explorer.evaluate_device", _evaluation),
    ("explorer", "worst_case_search", "explorer.worst_case_search", None),
    ("documents", "load_device", "documents.load_device", _bytes_read),
    ("documents", "device_to_document", "documents.digest", None),
    ("documents", "document_digest", "documents.digest", None),
    ("documents", "report_to_document", "documents.report_to_document", None),
    ("documents", "write_text_atomic", "documents.write", _bytes_written),
    ("documents", "write_json_atomic", "documents.write", None),
    ("documents", "save_device", "documents.write", None),
    ("cli", "sweep_csv", "cli.sweep_csv", None),
    ("cli", "main", "cli.main", None),
)


def _wrap(tracer: Tracer, fn, name: str, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                span.info = hook(args, kwargs, result)
            return result
        except BaseException as err:
            span.info = ("raised", type(err).__name__)
            raise
        finally:
            tracer.close(span)

    return traced


def install(tracer: Tracer, package: str = "singlet_selftest"):
    """Wrap every target in every loaded module of ``package``.

    Targets a later version no longer defines are skipped, so their metrics
    read 0.  Returns the patch list that ``uninstall`` restores.
    """
    by_id = {}
    for module, func, name, hook in TARGETS:
        fn = getattr(sys.modules.get(f"{package}.{module}"), func, None)
        if callable(fn):
            by_id[id(fn)] = (fn, _wrap(tracer, fn, name, hook))
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == package or key.startswith(package + "."))]
    patched = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            entry = by_id.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                patched.append((module, attr, value))
    return patched


def uninstall(patched) -> None:
    for module, attr, value in patched:
        setattr(module, attr, value)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span -> duration minus the part of it that its child spans cover.

    Children on worker threads may overlap each other, so coverage is the
    union of the child intervals, not their sum.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span: span.duration - _covered(children.get(span, ()), span.start, span.end)
        for span in spans
    }


def has_ancestor(span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False


def write_spans(spans, path) -> None:
    """One JSON array per span and line, gzipped: id, name, start, end, parent id,
    call id, thread id and the hook's info.

    Times are ``time.perf_counter`` seconds; ``parent`` is the id of the
    parent span's line, or null for a top-level span.
    """
    ids = {span: i for i, span in enumerate(spans)}
    with gzip.open(path, "wt", encoding="utf-8") as out:
        for span, i in ids.items():
            parent = ids.get(span.parent) if span.parent is not None else None
            out.write(json.dumps([i, span.name, span.start, span.end, parent, span.call,
                                  span.thread, span.info]) + "\n")

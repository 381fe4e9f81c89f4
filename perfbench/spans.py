"""Outside-in tracing of a tarpreg CLI call.

``install`` replaces every public function of every loaded ``tarpreg.*``
module with a timing wrapper, in every module that binds it: the function
object behind ``tarpreg.cli.read_csv`` and ``tarpreg.data.read_csv`` gets one
wrapper, and its spans are named after the defining module, ``data.read_csv``.
Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, extra]``: perf_counter seconds, the
index of the enclosing span in the same process (or None) and a dict of
shape-derived counts for the few layers with an observer.  When the outermost
span of a process closes, the spans are appended to ``spans-<pid>.jsonl``.
Forked pool workers start with an empty stack, so their outermost spans are
the calls ``_benchmark_one`` makes (``generate``, ``run_tarp``, ...) and each
is flushed when it returns; workers leave through ``os._exit`` and would
never run an atexit hook.  Workers made with the ``spawn`` method re-import
tarpreg and would not be traced.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

NAME, START, END, PARENT, EXTRA = range(5)


def _read_csv_extra(result, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


def _compress_extra(result, X, proj, *args, **kwargs):
    # computed from shapes: the n x p_gamma gather of X and the GEMM against m rows
    n, p_gamma, m = len(X), proj.p_gamma, proj.m
    return {"gather_bytes": 8 * n * p_gamma, "flop": 2 * n * p_gamma * m}


def _sample_gamma_extra(result, *args, **kwargs):
    return {"p_gamma": result.p_gamma}


OBSERVERS = {
    "data.read_csv": _read_csv_extra,
    "projection.compress": _compress_extra,
    "screening.sample_gamma": _sample_gamma_extra,
}


class Recorder:
    """Span store for one process; reset in a forked child."""

    def __init__(self, span_dir):
        self.span_dir = span_dir
        self.spans = []
        self.stack = []
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self.stack[-1] if self.stack else None,
                    None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[END] = time.perf_counter()
                if observe is not None:
                    try:
                        span[EXTRA] = observe(result, *args, **kwargs)
                    except (AttributeError, TypeError, ValueError, OSError):
                        pass  # a changed signature loses the counts, not the call
                return result
            finally:
                if span[END] is None:
                    span[END] = time.perf_counter()
                self.stack.pop()
                if not self.stack:
                    self.flush()

        return traced

    def flush(self):
        """Append the spans, all closed once the stack is empty, as one JSON line."""
        if not self.spans:
            return
        path = os.path.join(self.span_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"pid": os.getpid(), "spans": self.spans}) + "\n")
        self.spans = []


def install(span_dir) -> Recorder:
    """Wrap the public functions of every imported ``tarpreg`` module."""
    recorder = Recorder(span_dir)
    modules = [m for key, m in sorted(sys.modules.items())
               if (key == "tarpreg" or key.startswith("tarpreg.")) and m is not None]
    wrappers = {}
    for module in modules:
        for obj in vars(module).values():
            if (inspect.isfunction(obj) and not obj.__name__.startswith("_")
                    and obj.__module__.startswith("tarpreg.")):
                if obj not in wrappers:
                    name = f"{obj.__module__.split('.', 1)[1]}.{obj.__name__}"
                    wrappers[obj] = recorder.wrap(name, obj)
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
    return recorder


def read_batches(span_dir) -> list:
    """All flushed batches of one traced call, as (pid, spans) pairs."""
    batches = []
    for entry in sorted(os.listdir(span_dir)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            with open(os.path.join(span_dir, entry), encoding="utf-8") as fh:
                for line in fh:
                    obj = json.loads(line)
                    batches.append((obj["pid"], obj["spans"]))
    return batches


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval its children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append(span)
    out = []
    for span, kids in zip(spans, children):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for kid in sorted(kids, key=lambda s: s[START]):
            lo, hi = max(kid[START], reach), min(kid[END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def summarize(batches, main_pid: int) -> dict:
    """Per function: calls, total and self seconds, summed extras; plus pool figures."""
    table = {}
    worker_run_tarp = 0.0
    for pid, spans in batches:
        for span, own in zip(spans, self_times(spans)):
            row = table.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span[END] - span[START]
            row["self_s"] += own
            for key, value in (span[EXTRA] or {}).items():
                row[key] = row.get(key, 0) + value
            if pid != main_pid and span[NAME] == "ensemble.run_tarp":
                worker_run_tarp += span[END] - span[START]
    return {"functions": table, "worker_run_tarp_s": worker_run_tarp,
            "worker_pids": sorted({pid for pid, _ in batches if pid != main_pid})}

"""In-memory span recorder that wraps sqgt's public functions from outside.

A traced run replaces module attributes at layer boundaries (for example
`sqgt.simulate.bp_decode_batch`) with wrappers that record one span per call:
(name, start, end, parent, thread). Library code looks those names up in its
module globals at call time, so the wrappers see every call made through
them; the benchmark's own calls use function objects captured before the
wrappers were installed, and get their spans from `Tracer.span`. The
library itself is never edited. Timed runs install nothing.
"""

import functools
import gzip
import importlib
import json
import os
import threading
import time
from contextlib import contextmanager

# (module, attribute, span name). Every binding a layer's callers look up
# is listed, because `from x import f` makes one binding per importing module.
TARGETS = (
    ("sqgt.simulate", "random_disjunct", "construct"),
    ("sqgt.construct", "concat_disjunct", "construct"),
    ("sqgt.simulate", "syndrome", "model.encode"),
    ("sqgt.simulate", "apply_noise", "model.encode"),
    ("sqgt.cli", "syndrome", "model.encode"),
    ("sqgt.cli", "apply_noise", "model.encode"),
    ("sqgt.simulate", "bp_decode_batch", "decode.bp"),
    ("sqgt.decode", "bp_decode_batch", "decode.bp"),
    ("sqgt.simulate", "select_topd", "decode.select"),
    ("sqgt.simulate", "select_threshold", "decode.select"),
    ("sqgt.decode", "select_topd", "decode.select"),
    ("sqgt.decode", "select_threshold", "decode.select"),
    ("sqgt.verify", "quantize_sums", "model.quantize"),
    ("sqgt.capacity", "rate_objective", "capacity.objective"),
    ("sqgt.capacity", "mutual_information", "capacity.mi"),
    ("sqgt.cli", "read_matrix", "fileio.read"),
    ("sqgt.cli", "write_matrix", "fileio.write"),
)

CALIBRATION_CALLS = 20000


class Tracer:
    """Records spans in memory; `install` patches TARGETS until `uninstall`."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, thread id]
        self.bp_calls = []  # (C, trials, iterations) per decode.bp call
        self.file_bytes = 0
        self._local = threading.local()
        self._saved = []

    def _open(self, name):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        idx = len(self.spans)
        parent = stack[-1] if stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, threading.get_ident()])
        stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._local.stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn, record=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if record is not None:
                record(args, result)
            return result

        return wrapper

    def _record(self, attr):
        # counts are taken after the span closes, so they cost the caller's
        # self time, not the layer's
        if attr == "bp_decode_batch":
            return lambda args, res: self.bp_calls.append(
                (args[0], len(args[2]), res.iterations)
            )
        if attr in ("read_matrix", "write_matrix"):
            def count(args, res):
                self.file_bytes += os.path.getsize(args[0])
            return count
        return None

    def install(self):
        for mod_name, attr, name in TARGETS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(name, orig, self._record(attr)))

    def uninstall(self):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def write(self, path):
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, thread in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "thread": thread}) + "\n")


def self_times(spans):
    """Per span name: (call count, total duration, total self time).

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread never overlap, so the self times of all
    spans under a root add up to the root's duration.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        calls, total, own = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + end - start, own + (end - start) - child[i])
    return out


def span_cost():
    """Seconds one wrapper call adds over a direct call, measured here."""
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("calibrate", noop)
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_CALLS):
        noop()
    t1 = time.perf_counter()
    for _ in range(CALIBRATION_CALLS):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / CALIBRATION_CALLS)

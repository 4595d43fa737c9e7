"""Span tracing of the package's layers, from outside the package.

A Tracer replaces the public functions the CLI and the harness call
with wrappers that record one span per call: name, start, end, parent
span and an item count (signatures rendered, windows scored, ...).
Functions imported by name into another module are wrapped at the name
the caller uses: ``harness.render_signature_batch``, not
``optics.render_signature_batch``.  Spans stay in memory until the run
writes them out.  The parent is taken from a call stack, which is right
only while every traced call runs on one thread (``jobs = 1``).
"""

import functools
import json
import time
from collections import namedtuple

Span = namedtuple("Span", "name start end parent items")


def _offsets_len(args, kwargs):
    return len(args[1] if len(args) > 1 else kwargs["offsets"])


def _windows_len(args, kwargs):
    return len(args[0] if args else kwargs["windows"])


def targets():
    """(owner, attribute, span name, item counter) for every traced call."""
    from subpixdet import clutter, harness, optics
    return [
        (harness, "run_roc", "harness.run", None),
        (harness, "run_mse", "harness.run", None),
        (harness, "empirical_roc_from_scores", "harness.roc_reduce", None),
        (harness, "write_roc_csv", "harness.write_csv", None),
        (harness, "write_mse_csv", "harness.write_csv", None),
        (harness, "build_signature_bank", "optics.bank", None),
        (harness, "build_alrt_bank", "optics.bank", None),
        (harness, "render_signature_batch", "optics.render", _offsets_len),
        (optics, "average_energy", "optics.energy", None),
        (harness, "build_subspace", "detectors.subspace", None),
        (harness, "batch_scores", "detectors.score", _windows_len),
        (harness, "batch_estimates", "estimators.estimate", _windows_len),
        (clutter, "synthesize_fbm", "clutter.fbm", None),
        (clutter, "estimate_autocovariance", "clutter.acf", None),
        (clutter, "assemble_window_covariance", "clutter.covariance", None),
        (clutter, "white_covariance", "clutter.covariance", None),
        (clutter.CovarianceModel, "solve", "clutter.solve", None),
    ]


class Tracer:
    """Records spans while installed; keeps the first call's arguments of
    the span names listed in ``keep_args``."""

    def __init__(self, keep_args=()):
        self.spans = []
        self.first_args = {}
        self._keep = set(keep_args)
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in self._keep and name not in self.first_args:
                self.first_args[name] = (args, kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                items = counter(args, kwargs) if counter else 0
                self.spans[index] = Span(name, start, end, parent, items)
        return traced

    def install(self):
        for owner, attr, name, counter in targets():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        t0 = self.spans[0].start if self.spans else 0.0
        records = [{"id": i, "name": s.name, "start": s.start - t0, "end": s.end - t0,
                    "parent": s.parent, "items": s.items} for i, s in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump(records, fh)


def summarize(spans, lo=0, hi=None):
    """Per-name totals over spans[lo:hi]: seconds, calls, items, self seconds.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap on a single thread.
    """
    hi = len(spans) if hi is None else hi
    child_time = {}
    for s in spans[lo:hi]:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    out = {}
    for i in range(lo, hi):
        s = spans[i]
        agg = out.setdefault(s.name, {"s": 0.0, "calls": 0, "items": 0, "self_s": 0.0})
        dur = s.end - s.start
        agg["s"] += dur
        agg["calls"] += 1
        agg["items"] += s.items
        agg["self_s"] += dur - child_time.get(i, 0.0)
    return out

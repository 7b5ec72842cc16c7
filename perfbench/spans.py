"""In-memory span tracing of panelvuong's layers, installed from outside.

A span is recorded by replacing a public function with a wrapper at the place
where its caller looks it up (``panelvuong.montecarlo.generate`` is the name
``_run_one`` calls, ``panelvuong.rng.normal_quantile`` the one ``rng.normals``
calls).  Nothing under ``src/`` changes.  A wrapped name that no longer exists
is skipped, and every layer whose names are all gone is reported as absent.

Each span is ``[layer, start, end, parent, value, error]``: ``parent`` indexes
the enclosing span (-1 for none), ``value`` is a count taken from the return
value where the layer defines one, and ``error`` the class name of an
exception that left the span.  Leaf callables called thousands of times per
operation (a likelihood family's) only add to a call count and a time, which
are noted at the end of every operation.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from collections import defaultdict
from time import perf_counter

OP = "op"   # the benchmark's own span around one timed operation


def _rows(loaded):
    panel = loaded[0]
    return panel.n * panel.T


# (layer, module, attribute, count taken from the return value).  A layer may
# be looked up in several places; each place gets its own wrapper.
WRAP_POINTS = [
    ("montecarlo.rep", "panelvuong.montecarlo", "_run_one", None),
    ("montecarlo.generate", "panelvuong.montecarlo", "generate", None),
    ("montecarlo.summarize", "panelvuong", "summarize", None),
    ("montecarlo.serialise", "panelvuong.montecarlo", "size_power_csv", None),
    ("montecarlo.serialise", "panelvuong.montecarlo", "replications_jsonl", None),
    ("rng.stream", "panelvuong.montecarlo", "stream", None),
    ("rng.normals", "panelvuong.montecarlo", "normals", lambda a: a.size),
    ("stats.normal_quantile", "panelvuong.rng", "normal_quantile", None),
    ("panel.make_panel", "panelvuong.montecarlo", "make_panel", None),
    ("panel.make_panel", "panelvuong.cli", "make_panel", None),
    ("estimation.fit_grouped_time", "panelvuong.twfe", "fit_grouped_time", None),
    ("estimation.fit_twfe", "panelvuong.twfe", "fit_twfe", None),
    ("estimation.fit_linear_cells", "panelvuong.estimation", "fit_linear_cells", None),
    ("estimation.fit_profile_mle", "panelvuong.estimation", "fit_profile_mle",
     lambda fit: fit.iterations),
    ("estimation.fit_profile_mle", "panelvuong", "fit_profile_mle",
     lambda fit: fit.iterations),
    ("twfe.components", "panelvuong.twfe", "twfe_components", None),
    ("twfe.test", "panelvuong.montecarlo", "run_twfe_test", None),
    ("twfe.test", "panelvuong.twfe", "run_twfe_test", None),
    ("classic.components", "panelvuong.classic", "classic_components", None),
    ("classic.test", "panelvuong.montecarlo", "run_classic_test", None),
    ("classic.test", "panelvuong.classic", "run_classic_test", None),
    ("classic.test", "panelvuong", "run_classic_test", None),
    ("report.decide", "panelvuong.twfe", "decide", None),
    ("report.decide", "panelvuong.classic", "decide", None),
    ("report.render", "panelvuong.cli", "to_document", None),
    ("report.render", "panelvuong.cli", "render_json", None),
    ("cli.load_csv", "panelvuong.cli", "load_csv", _rows),
    ("cli.file_digest", "panelvuong.cli", "file_digest", None),
]

# The callables of a LikelihoodFamily, counted by ``Tracer.family``.
FAMILY_CALLABLES = ("psi", "psi_theta", "psi_gamma", "psi_gammagamma")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.roots: list[int] = []       # index of each operation's OP span
        self.absent: list[str] = []
        self.leaves: dict[str, list] = {}       # layer -> [calls, seconds]
        self.marks: list[dict] = []             # ``leaves`` after each operation
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, layer, fn, value=None):
        """``fn`` recording one span per call under ``layer``."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if value is not None:
                rec[4] = value(out)
            return out

        return traced

    def install(self):
        """Wrap every point of WRAP_POINTS that exists."""
        present, listed = set(), []
        for layer, module, attr, value in WRAP_POINTS:
            if layer not in listed:
                listed.append(layer)
            mod = sys.modules.get(module)
            fn = getattr(mod, attr, None)
            if not callable(fn):
                continue
            present.add(layer)
            self._patched.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(layer, fn, value))
        self.absent = [layer for layer in listed if layer not in present]

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def count(self, layer, fn):
        """``fn`` adding its calls and seconds to ``leaves[layer]``, without spans."""
        stat = self.leaves.setdefault(layer, [0, 0.0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stat[0] += 1
                stat[1] += perf_counter() - start

        return counted

    def family(self, family):
        """A copy of ``family`` whose callables are counted."""
        return dataclasses.replace(family, **{
            name: self.count(f"families.{name}", getattr(family, name))
            for name in FAMILY_CALLABLES})

    def open_op(self):
        self.roots.append(len(self.spans))
        self._stack.append(len(self.spans))
        self.spans.append([OP, perf_counter(), 0.0, -1, None, None])

    def close_op(self):
        self.spans[self._stack.pop()][2] = perf_counter()
        self.marks.append({layer: tuple(stat) for layer, stat in self.leaves.items()})


def summarize_spans(spans, first=0, stop=None):
    """Per-layer totals over ``spans[first:stop]``.

    Returns ``{layer: {"calls", "failed", "total", "self", "value"}}`` with
    times in seconds; ``failed`` counts spans left by an exception, ``value``
    sums the counts the layer took from return values and ``self`` is a span's
    duration minus that of its direct children.
    """
    stop = len(spans) if stop is None else stop
    child = defaultdict(float)
    for rec in spans[first:stop]:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    out = defaultdict(lambda: {"calls": 0, "failed": 0, "total": 0.0, "self": 0.0,
                               "value": 0})
    for idx in range(first, stop):
        layer, start, end, _, value, error = spans[idx]
        agg = out[layer]
        agg["calls"] += 1
        agg["failed"] += error is not None
        agg["total"] += end - start
        agg["self"] += end - start - child[idx]
        if value is not None:
            agg["value"] += value
    return out

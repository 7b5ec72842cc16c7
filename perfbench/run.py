"""Benchmark of panelvuong: Monte Carlo throughput, CLI latency, profile-Newton latency.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc_null_100 --seed 1 --seconds 30 --trace 0

It imports ``panelvuong`` from ``src/`` of the same checkout, builds the
workload's inputs from ``--seed``, runs operations in a single-process closed
loop (one client; the next call starts when the previous one returns) for
``--seconds``, checks every output, and prints one line per metric followed by
a JSON line of run details and, last, the JSON result.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs every operation twice, untraced
and then with spans recorded around each layer, and reports the per-layer
metrics and the tracing overhead.  The exit status is 1 when a correctness check fails
and 2 when the program cannot be found.
"""

import os

# One BLAS thread, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from spans import OP, Tracer, summarize_spans  # noqa: E402
from workloads import WORKLOADS, KindCPanels  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPS = 5        # set-ups per run; setup_s is their median
MIN_OPS = 100         # timed operations per run at least, so ten lie beyond p90
MEASURE_LIMIT_S = 120.0

ERROR_CLASSES = ("NonFinite", "Unbalanced", "TooSmall", "EmptyGroup", "OutOfRange",
                 "DomainError", "SingularInformation", "NoConvergence", "RankDeficient",
                 "GroupingViolation", "ConfigError", "ParseError", "GroupDrift", "Empty")

# metric -> (layer, "total" or "self" time), reported in ms per unit
TIME_METRICS = {
    "rng.stream_ms": ("rng.stream", "total"),
    "rng.normals_ms": ("rng.normals", "total"),
    "stats.normal_quantile_ms": ("stats.normal_quantile", "total"),
    "montecarlo.generate_ms": ("montecarlo.generate", "total"),
    "montecarlo.generate_self_ms": ("montecarlo.generate", "self"),
    "montecarlo.rep_self_ms": ("montecarlo.rep", "self"),
    "montecarlo.summarize_ms": ("montecarlo.summarize", "total"),
    "montecarlo.serialise_ms": ("montecarlo.serialise", "total"),
    "panel.make_panel_ms": ("panel.make_panel", "total"),
    "estimation.fit_grouped_time_ms": ("estimation.fit_grouped_time", "total"),
    "estimation.fit_twfe_ms": ("estimation.fit_twfe", "total"),
    "estimation.fit_linear_cells_ms": ("estimation.fit_linear_cells", "total"),
    "estimation.fit_profile_mle_ms": ("estimation.fit_profile_mle", "total"),
    "twfe.components_ms": ("twfe.components", "total"),
    "twfe.test_ms": ("twfe.test", "total"),
    "classic.components_ms": ("classic.components", "total"),
    "classic.test_ms": ("classic.test", "total"),
    "report.decide_ms": ("report.decide", "total"),
    "report.render_ms": ("report.render", "total"),
    "cli.load_csv_ms": ("cli.load_csv", "total"),
    "cli.file_digest_ms": ("cli.file_digest", "total"),
}
FAMILY_LAYERS = ("families.psi", "families.psi_theta", "families.psi_gamma",
                 "families.psi_gammagamma")


class Clock:
    """Times the body of each ``with``; opens an operation span when traced."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times: list[float] = []

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.open_op()
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.times.append(perf_counter() - self._start)
        if self.tracer is not None:
            self.tracer.close_op()
        return False


def fresh_import():
    """Import panelvuong (and its CLI) anew, as a new user process would."""
    for name in [m for m in sys.modules if m == "panelvuong" or m.startswith("panelvuong.")]:
        del sys.modules[name]
    pv = importlib.import_module("panelvuong")
    importlib.import_module("panelvuong.cli")
    return pv


def measure(workload, seconds, min_ops, tracer=None, on_trace=None):
    """Closed loop: run operations 0, 1, ... for ``seconds`` and ``min_ops``.

    With a tracer each operation runs twice, untraced and then traced, so both
    timings see the same load on the machine; ``on_trace(True)`` and
    ``on_trace(False)`` are called around the traced run.  Returns the
    untraced times, the traced times and the outcomes.
    """
    clock, traced = Clock(), Clock(tracer)
    outcomes = []
    start = perf_counter()
    while len(outcomes) < min_ops or perf_counter() - start < seconds:
        if perf_counter() - start > MEASURE_LIMIT_S:
            break
        i = len(outcomes)
        outcome = workload.run(i, clock)
        if tracer is not None:
            tracer.install()
            if on_trace:
                on_trace(True)
            try:
                outcome = workload.run(i, traced)
            finally:
                tracer.uninstall()
                if on_trace:
                    on_trace(False)
        outcomes.append(outcome)
    return clock.times, traced.times, outcomes


def end_to_end(times, outcomes, setup_times):
    units = sum(o.units for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    deciles = statistics.quantiles(times, n=10)
    return {
        "ops_per_s": (units / sum(times), "1/s"),
        "latency_p50_ms": (1e3 * deciles[4], "ms"),
        "latency_p90_ms": (1e3 * deciles[8], "ms"),
        "ok_ratio": (1.0 - failed / units, "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def error_counts(outcomes):
    counts = Counter()
    for o in outcomes:
        counts.update(o.errors)
    return counts


def per_layer(workload, tracer, outcomes, times, base_times):
    """Layer metrics of a traced phase.

    Times are per unit (replication on mc_null_100, call elsewhere) over every
    traced operation; counts are per unit over the workload's first
    ``count_ops`` operations, so they repeat exactly for a given seed.
    """
    window = workload.count_ops
    spans = tracer.spans
    every = summarize_spans(spans)
    first = summarize_spans(spans, 0, tracer.roots[window]
                            if len(tracer.roots) > window else len(spans))
    units = sum(o.units for o in outcomes)
    first_units = sum(o.units for o in outcomes[:window])
    op_time = every[OP]["total"]
    out = {}

    def put(name, layer, value, unit):
        if layer not in tracer.absent:
            out[name] = (value, unit)

    def ratio(a, b):
        return a / b if b else 0.0

    for name, (layer, key) in TIME_METRICS.items():
        put(name, layer, 1e3 * every[layer][key] / units, "ms")
    normals = every["rng.normals"]
    put("rng.normals_per_s", "rng.normals", ratio(normals["value"], normals["total"]), "1/s")
    put("rng.share", "rng.normals",
        ratio(every["rng.stream"]["total"] + normals["total"], op_time), "ratio")
    put("rng.draws", "rng.normals", first["rng.normals"]["value"] / first_units, "count")
    fits = first["estimation.fit_profile_mle"]
    put("estimation.profile_iterations", "estimation.fit_profile_mle",
        ratio(fits["value"], fits["calls"] - fits["failed"]), "count")
    counted = tracer.marks[window - 1]
    for layer in FAMILY_LAYERS:
        out[f"{layer}_calls"] = (counted.get(layer, (0, 0.0))[0] / first_units, "count")
    family_time = sum(seconds for _, seconds in tracer.leaves.values())
    out["families.eval_ms"] = (1e3 * family_time / units, "ms")
    out["families.eval_share"] = (ratio(family_time, op_time), "ratio")
    load = every["cli.load_csv"]
    put("cli.rows_per_s", "cli.load_csv", ratio(load["value"], load["total"]), "1/s")
    cli_self = every[OP]["self"] if workload.name == "cli_csv" else 0.0
    out["cli.self_ms"] = (1e3 * cli_self / units, "ms")
    errors = error_counts(outcomes[:window])
    for cls in ERROR_CLASSES:
        out[f"errors.{cls}"] = (errors.pop(cls, 0), "count")
    out["errors.other"] = (sum(errors.values()), "count")
    out["trace.overhead_pct"] = (100.0 * (sum(times) / sum(base_times) - 1.0), "%")
    return out


def environment(seed):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas_threads": 1,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "panelvuong" / "__init__.py").is_file():
        print(f"error: no panelvuong package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cls = WORKLOADS[args.workload]

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            start = perf_counter()
            pv = fresh_import()
            workload = cls(pv, args.seed, workdir)
            workload.warm_up()
            setup_times.append(perf_counter() - start)
        if not Path(pv.__file__).resolve().is_relative_to(SRC):
            print(f"error: imported panelvuong from {pv.__file__}", file=sys.stderr)
            return 2

        if args.trace:
            tracer = Tracer()
            on_trace = None
            if isinstance(workload, KindCPanels):
                plain = workload.spec_1.family
                counted = tracer.family(plain)

                def on_trace(active):
                    workload.use_family(counted if active else plain)

            base_times, times, outcomes = measure(workload, args.seconds, cls.count_ops,
                                                  tracer, on_trace)
            metrics = per_layer(workload, tracer, outcomes, times, base_times)
        else:
            times, _, outcomes = measure(workload, args.seconds, MIN_OPS)
            metrics = end_to_end(times, outcomes, setup_times)
        problems = workload.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.units for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(f"{'failed_ratio':34s} {failed / attempted:14.6g} ratio")
    if cls.name == "mc_null_100" and not args.trace:
        print(f"{'reps_per_s':34s} {metrics['ops_per_s'][0]:14.6g} 1/s")
    for problem in problems[:10]:
        print(f"check failed: {problem}")
    if len(problems) > 10:
        print(f"check failed: ... and {len(problems) - 10} more")
    details = {
        "workload": cls.name,
        "operation": cls.__doc__.split("\n")[0],
        "unit": cls.unit,
        "operations_timed": len(times),
        "failed_ratio": failed / attempted,
        "errors": dict(sorted(error_counts(outcomes).items())),
        "setup_times_s": setup_times,
        "fields": workload.fields(),
        "absent_layers": tracer.absent if args.trace else [],
        "environment": environment(args.seed),
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

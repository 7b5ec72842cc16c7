"""Seeded data-generating processes and the replication engine.

Five DGP kinds cover the nulls and alternatives the two tests are built for:

* ``A``  additive group + time effects; both linear models are correctly
  specified (null for the grouped-time vs two-way comparison).
* ``B``  adds a group-by-time interaction of scale kappa*sigma that only the
  grouped-time model can absorb (alternative for the same comparison).
* ``C``  time-invariant unit effects constant within groups; the individual
  and grouped effect models fit equally well (null for the classic test).
* ``D``  unit effects deviate from their group mean by kappa*sigma
  (alternative for the classic test).
* ``E``  the kind-B interaction with scale c*sigma*(nT)^(-1/4), holding the
  standardized drift roughly constant across panel sizes.

kappa is read by kinds B and D, c by kind E; a positive value on any other
kind is refused, as that kind would silently run its null.

Group and time effects are standard normal and have no scale setting: both
models of each test absorb them, so their scale cannot enter the statistic.

Every replication is a pure function of (master seed, replication index):
each variate family draws from its own counter-based stream.  A
:class:`RepRecord` keeps only what its test measured; the rest is derived.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from typing import Any

import numpy as np

from .classic import run_classic_test
from .errors import ConfigError, Empty, PanelVuongError
from .estimation import ModelSpec
from .families import gaussian_fixed_scale
from .panel import GroupMap, PanelData, individual_groups, linear_index, make_panel
from .rng import GENERATOR_VERSION, normals, stream
from .report import TestReport, rejects
from .stats import binomial_se, ks_distance
from .twfe import run_twfe_test

KINDS = ("A", "B", "C", "D", "E")
_TEST_FOR_KIND = {"A": "twfe", "B": "twfe", "C": "classic", "D": "classic", "E": "twfe"}


@dataclass(frozen=True)
class DgpConfig:
    kind: str
    n: int
    T: int
    G: int
    K: int = 1                 # covariate count
    noise: float = 1.0         # idiosyncratic standard deviation
    kappa: float = 0.0         # signal in noise units (kinds B and D)
    c: float = 0.0             # local-drift constant (kind E)
    master_seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown DGP kind {self.kind!r}; choose from {KINDS}")
        for name in ("n", "T", "G", "K", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be nonnegative, got {self.master_seed}")
        if self.n < 2 or self.T < 2:
            raise ConfigError(f"need n >= 2 and T >= 2, got n={self.n}, T={self.T}")
        if not 1 <= self.G <= self.n:
            raise ConfigError(f"need 1 <= G <= n, got G={self.G}, n={self.n}")
        for name in ("noise", "kappa", "c"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.noise <= 0:
            raise ConfigError(f"noise must be positive, got {self.noise}")
        if self.kappa < 0:
            raise ConfigError(f"kappa must be nonnegative, got {self.kappa}")
        if self.c < 0:
            raise ConfigError(f"c must be nonnegative, got {self.c}")
        if self.kappa > 0 and self.kind not in ("B", "D"):
            raise ConfigError(f"kind {self.kind} ignores kappa (read by kinds B and D), "
                              f"got kappa={self.kappa}")
        if self.c > 0 and self.kind != "E":
            raise ConfigError(f"kind {self.kind} ignores c (read by kind E), got c={self.c}")
        if self.K < 0:
            raise ConfigError(f"K must be nonnegative, got {self.K}")
        if not np.isfinite(self.signal):
            raise ConfigError(f"effective signal scale of kind {self.kind} must be "
                              f"finite, got {self.signal}")

    @property
    def signal(self) -> float:
        """Effective signal scale: kappa*noise for kinds B and D,
        c*noise*(nT)^(-1/4) for kind E, 0 for the nulls A and C."""
        if self.kind in ("B", "D"):
            return self.kappa * self.noise
        if self.kind == "E":
            return self.c * self.noise * (self.n * self.T) ** -0.25
        return 0.0

    @property
    def test(self) -> str:
        return _TEST_FOR_KIND[self.kind]


@functools.cache
def block_groups(n: int, G: int) -> GroupMap:
    """Contiguous groups with sizes as equal as possible; one frozen map per (n, G)."""
    if not 1 <= G <= n:     # G > n would leave trailing groups empty
        raise ConfigError(f"need 1 <= G <= n, got G={G}, n={n}")
    base, extra = divmod(n, G)
    sizes = [base + (1 if g < extra else 0) for g in range(G)]
    return GroupMap(codes=np.repeat(np.arange(G), sizes))


def generate(config: DgpConfig, rep_index: int) -> tuple[PanelData, GroupMap]:
    """One replication's panel and its group map; one :func:`normals` call draws
    every stream the kind reads, and each stream's draws are a view of its result."""
    if isinstance(rep_index, bool) or not isinstance(rep_index, (int, np.integer)) \
            or rep_index < 0:
        raise ConfigError(f"replication index must be a nonnegative integer, got {rep_index!r}")
    n, T, G, K = config.n, config.T, config.G, config.K
    gmap = block_groups(n, G)
    signal = config.signal
    twoway = config.kind in ("A", "B", "E")

    shapes = {"noise": (n, T), "group_effects": (G,)}
    if K:
        shapes["covariates"] = (n, T, K)
    if twoway:
        shapes["time_effects"] = (T,)
        if signal > 0.0:
            shapes["interaction"] = (G, T)
    elif signal > 0.0:
        shapes["unit_deviations"] = (n,)
    counts = [math.prod(shape) for shape in shapes.values()]
    flat = normals([stream(config.master_seed, rep_index, name) for name in shapes],
                   counts)
    draws, start = {}, 0
    for (name, shape), count in zip(shapes.items(), counts):
        draws[name] = flat[start:start + count].reshape(shape)
        start += count

    x = draws["covariates"] if K else None
    y = (linear_index(x, np.ones(K)) if K else 0.0) + config.noise * draws["noise"]
    a = draws["group_effects"]
    if twoway:
        y = y + a[gmap.codes][:, None] + draws["time_effects"][None, :]
        if signal > 0.0:
            y = y + signal * draws["interaction"][gmap.codes]
    else:  # kinds C, D: time-invariant unit effects
        alpha = a[gmap.codes]
        if signal > 0.0:
            alpha = alpha + signal * draws["unit_deviations"]
        y = y + alpha[:, None]

    return make_panel(y, x), gmap


@dataclass
class RepRecord:
    rep: int
    mqlr: float = np.nan
    omega2: float = np.nan
    qlr: float = np.nan
    statistic: float | None = None  # the report's; None when degenerate or failed
    error: str | None = None        # "ErrorClass: message" when the replication failed

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def degenerate(self) -> bool:
        return self.statistic is None and not self.failed

    @property
    def raw_statistic(self) -> float | None:
        """qlr standardized without the bias correction."""
        return None if self.statistic is None else self.qlr / self.omega2 ** 0.5


@dataclass
class McResult:
    config: DgpConfig
    levels: tuple[float, ...]
    records: list[RepRecord]

    @property
    def reps(self) -> int:
        return len(self.records)

    def valid_records(self) -> list[RepRecord]:
        return [r for r in self.records if not r.failed and not r.degenerate]

    @property
    def degenerate_count(self) -> int:
        return sum(r.degenerate for r in self.records)

    @property
    def failure_count(self) -> int:
        return sum(r.failed for r in self.records)

    def rejection_rate(self, level: float, side: str) -> tuple[float, float, int]:
        """(rate, binomial SE, effective count) excluding degenerate reps;
        ``side`` is "two" or "one"."""
        return _rejection_rate(self.valid_records(), level, side)


def _rejection_rate(valid: list[RepRecord], level: float,
                    side: str) -> tuple[float, float, int]:
    if side not in ("two", "one"):
        raise ConfigError(f"side must be 'two' or 'one', got {side!r}")
    pick = 0 if side == "two" else 1
    flags = [rejects(r.statistic, level)[pick] for r in valid]
    count = len(flags)
    if count == 0:
        raise Empty("no valid replications to aggregate")
    rate = float(np.mean(flags))
    return rate, binomial_se(rate, count), count


def _run_one(config: DgpConfig, rep_index: int) -> RepRecord:
    try:
        panel, gmap = generate(config, rep_index)
        if config.test == "classic":
            spec_1 = ModelSpec(gaussian_fixed_scale(config.K), individual_groups(config.n))
            spec_2 = ModelSpec(gaussian_fixed_scale(config.K), gmap)
            report: TestReport = run_classic_test(panel, spec_1, spec_2)
        else:
            report = run_twfe_test(panel, gmap)
    except PanelVuongError as exc:
        return RepRecord(rep=rep_index, error=f"{type(exc).__name__}: {exc}")
    return RepRecord(rep=rep_index, mqlr=report.mqlr, omega2=report.omega2_hat,
                     qlr=report.components.qlr, statistic=report.statistic)


_pool: list = []    # this process's forked workers, as (Process, Connection) pairs
if hasattr(os, "register_at_fork"):    # a forked child must not share its parent's pipes
    os.register_at_fork(after_in_child=_pool.clear)


def _cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _run_range(config: DgpConfig, start: int, stop: int) -> list[RepRecord]:
    # Keep the campaign's working memory resident.  glibc mmaps a block over
    # 128 KiB, and freeing one of at most 32 MiB raises its mmap threshold to
    # the block's size and its heap-trim threshold to twice that (mallopt(3)).
    # After this block, 8x the (n, T, K + 1) panel and capped below 32 MiB, each
    # replication's temporaries reuse resident heap pages instead of being
    # trimmed and faulted in again.  Other allocators ignore it; no value changes.
    np.empty(min(8 * config.n * config.T * (config.K + 1), 4_000_000))
    return [_run_one(config, r) for r in range(start, stop)]


def _serve(conn, parent_end) -> None:
    """A worker: it sends back the records of each (config, start, stop) it
    receives, or the exception that is not a PanelVuongError, until EOF."""
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)    # Ctrl-C is the caller's to handle
    parent_end.close()
    while True:
        try:
            job = conn.recv()
        except EOFError:
            return
        try:
            conn.send(_run_range(*job))
        except Exception as exc:
            conn.send(exc)


def _workers(count: int) -> list:
    """``count`` workers, forked on first need; none without the fork start
    method or in a daemonic process, which may not have children."""
    import multiprocessing      # here, so that nothing else pays for the import
    if multiprocessing.current_process().daemon \
            or "fork" not in multiprocessing.get_all_start_methods():
        return []
    context = multiprocessing.get_context("fork")
    while len(_pool) < count:
        parent_end, child_end = context.Pipe()
        process = context.Process(target=_serve, args=(child_end, parent_end), daemon=True)
        process.start()
        child_end.close()
        _pool.append((process, parent_end))
    return _pool[:count]


def run_replications(config: DgpConfig, levels=(0.05,), reps: int = 1) -> McResult:
    """Run seeded replications of the test that ``config.kind`` pairs with.

    The result is a pure function of (config, levels, reps): replication r
    draws only from streams keyed by (master_seed, r).
    Failed replications are recorded, not fatal, unless they exceed 1%.
    ``range(reps)`` is cut into one contiguous range per usable core; the
    caller runs the first and this process's forked workers the others.
    """
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    levels = tuple(float(p) for p in levels)
    if any(not 0.0 < p < 1.0 for p in levels) or not levels:
        raise ConfigError(f"levels must lie in (0, 1), got {levels}")
    if len(set(levels)) < len(levels):
        raise ConfigError(f"levels must be distinct, got {levels}")

    workers = _workers(min(_cores(), reps) - 1)
    cuts = [reps * i // (len(workers) + 1) for i in range(len(workers) + 2)]
    jobs = list(zip(workers, cuts[1:], cuts[2:]))
    try:
        for (_, conn), start, stop in jobs:
            try:
                conn.send((config, start, stop))
            except ConnectionError:     # a dead worker, whose recv raises EOFError
                pass
        parts = [_run_range(config, 0, cuts[1])]
        for worker, start, stop in jobs:
            try:
                parts.append(worker[1].recv())
            except (EOFError, ConnectionError):     # it died: run its range here
                _pool.remove(worker)
                parts.append(_run_range(config, start, stop))
    except BaseException:       # an unread result would answer the next campaign
        for process, _ in _pool:
            process.terminate()
        _pool.clear()
        raise
    for part in parts:
        if isinstance(part, Exception):
            raise part
    records = [record for part in parts for record in part]

    failures = sum(r.failed for r in records)
    if failures > 0.01 * reps:
        first = next(r for r in records if r.failed)
        raise ConfigError(
            f"{failures}/{reps} replications failed; first error: {first.error}")
    return McResult(config=config, levels=levels, records=records)


@dataclass
class SizePowerRow:
    level: float
    side: str
    rate: float
    se: float
    reps: int


@dataclass
class Summary:
    config: DgpConfig
    rows: list[SizePowerRow]
    mean_statistic: float
    sd_statistic: float
    mean_raw_statistic: float
    ks_normal: float
    degenerate_count: int


def summarize(mc: McResult) -> Summary:
    """Size/power rows per (level, side) plus normality diagnostics."""
    valid = mc.valid_records()      # one filter pass serves every row and moment
    if not valid:
        raise Empty("cannot summarize an empty result")
    rows = [SizePowerRow(level, side, *_rejection_rate(valid, level, side))
            for level in mc.levels for side in ("two", "one")]
    stats = np.array([r.statistic for r in valid])
    raw = np.array([r.raw_statistic for r in valid])
    return Summary(
        config=mc.config,
        rows=rows,
        mean_statistic=float(stats.mean()),
        sd_statistic=float(stats.std(ddof=1)) if stats.size > 1 else 0.0,
        mean_raw_statistic=float(raw.mean()),
        ks_normal=ks_distance(stats),
        degenerate_count=mc.degenerate_count,
    )


def size_power_csv(summary: Summary) -> str:
    cfg = summary.config
    lines = ["kind,n,T,G,kappa,c,level,side,rate,se,reps,degenerate_count,"
             "generator_version"]
    for r in summary.rows:
        lines.append(
            f"{cfg.kind},{cfg.n},{cfg.T},{cfg.G},{cfg.kappa!r},{cfg.c!r},{r.level!r},"
            f"{r.side},{r.rate!r},{r.se!r},{r.reps},{summary.degenerate_count},"
            f"{GENERATOR_VERSION}")
    return "\n".join(lines) + "\n"


def replications_jsonl(mc: McResult) -> str:
    """One JSON object per replication, keys and float formatting fixed."""
    lines = []
    for r in mc.records:
        if r.failed:
            obj: dict[str, Any] = {"rep": r.rep, "failed": True, "error": r.error}
        else:
            decided = {} if r.degenerate else {   # a degenerate rep decides nothing
                repr(level): rejects(r.statistic, level) for level in mc.levels}
            obj = {
                "rep": r.rep,
                "mqlr": r.mqlr,
                "omega2": r.omega2,
                "statistic": r.statistic,
                "qlr": r.qlr,
                "raw_statistic": r.raw_statistic,
                "degenerate": r.degenerate,
                "reject_two": {k: two for k, (two, _) in decided.items()},
                "reject_one": {k: one for k, (_, one) in decided.items()},
            }
        lines.append(json.dumps(obj, sort_keys=False, allow_nan=False))
    return "\n".join(lines) + "\n"

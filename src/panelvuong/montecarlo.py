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

Every replication is a pure function of (master seed, replication index):
each variate family draws from its own counter-based stream, so results are
identical no matter how replications are scheduled across workers.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .classic import run_classic_test
from .errors import ConfigError, Empty, PanelVuongError
from .estimation import ModelSpec
from .families import gaussian_fixed_scale
from .panel import GroupMap, PanelData, individual_groups, make_panel
from .rng import normals, stream
from .report import TestReport
from .stats import binomial_se, critical_values, ks_distance, normal_cdf
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
    a_scale: float = 1.0       # group-effect scale
    b_scale: float = 1.0       # time-effect scale
    noise: float = 1.0         # idiosyncratic standard deviation
    kappa: float = 0.0         # signal in noise units (kinds B and D)
    c: float = 0.0             # local-drift constant (kind E)
    master_seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown DGP kind {self.kind!r}; choose from {KINDS}")
        if self.n < 2 or self.T < 2:
            raise ConfigError(f"need n >= 2 and T >= 2, got n={self.n}, T={self.T}")
        if not 1 <= self.G <= self.n:
            raise ConfigError(f"need 1 <= G <= n, got G={self.G}, n={self.n}")
        if self.noise <= 0:
            raise ConfigError(f"noise must be positive, got {self.noise}")
        if self.kappa < 0:
            raise ConfigError(f"kappa must be nonnegative, got {self.kappa}")
        if self.K < 0:
            raise ConfigError(f"K must be nonnegative, got {self.K}")

    @property
    def test(self) -> str:
        return _TEST_FOR_KIND[self.kind]


def block_groups(n: int, G: int) -> GroupMap:
    """Contiguous groups with sizes as equal as possible."""
    base, extra = divmod(n, G)
    sizes = [base + (1 if g < extra else 0) for g in range(G)]
    return GroupMap(codes=np.repeat(np.arange(G), sizes), G=G)


def generate(config: DgpConfig, rep_index: int) -> tuple[PanelData, GroupMap, dict]:
    """One replication's panel, its group map, and the truth record."""
    n, T, K = config.n, config.T, config.K
    gmap = block_groups(n, config.G)
    beta = np.ones(K)

    eps = config.noise * normals(stream(config.master_seed, rep_index, "noise"), (n, T))
    x = normals(stream(config.master_seed, rep_index, "covariates"), (n, T, K)) \
        if K else np.zeros((n, T, 0))
    a = config.a_scale * normals(stream(config.master_seed, rep_index, "group_effects"),
                                 config.G)

    truth: dict[str, Any] = {"kind": config.kind, "beta": beta.tolist()}
    y = (x @ beta if K else 0.0) + eps

    if config.kind in ("A", "B", "E"):
        b = config.b_scale * normals(stream(config.master_seed, rep_index, "time_effects"), T)
        y = y + a[gmap.codes][:, None] + b[None, :]
        if config.kind == "B":
            kappa_eff = config.kappa * config.noise
        elif config.kind == "E":
            kappa_eff = config.c * config.noise * (n * T) ** -0.25
        else:
            kappa_eff = 0.0
        if kappa_eff > 0.0:
            eta = normals(stream(config.master_seed, rep_index, "interaction"),
                          (config.G, T))
            y = y + kappa_eff * eta[gmap.codes]
        truth["kappa_effective"] = kappa_eff
    else:  # kinds C, D: time-invariant unit effects
        alpha = a[gmap.codes]
        kappa_eff = config.kappa * config.noise if config.kind == "D" else 0.0
        if kappa_eff > 0.0:
            u = normals(stream(config.master_seed, rep_index, "unit_deviations"), n)
            alpha = alpha + kappa_eff * u
        y = y + alpha[:, None]
        truth["kappa_effective"] = kappa_eff

    return make_panel(y, x if K else None), gmap, truth


@dataclass
class RepRecord:
    rep: int
    mqlr: float = np.nan
    omega2: float = np.nan
    statistic: float | None = None
    qlr: float = np.nan
    raw_statistic: float | None = None
    degenerate: bool = False
    reject_two: dict = field(default_factory=dict)   # level -> bool
    reject_one: dict = field(default_factory=dict)
    failed: bool = False
    error: str | None = None


@dataclass
class McResult:
    config: DgpConfig
    test: str
    levels: tuple[float, ...]
    records: list[RepRecord]

    @property
    def reps(self) -> int:
        return len(self.records)

    def valid_records(self) -> list[RepRecord]:
        return [r for r in self.records if not r.failed and not r.degenerate]

    def statistics(self) -> np.ndarray:
        return np.array([r.statistic for r in self.valid_records()])

    def raw_statistics(self) -> np.ndarray:
        return np.array([r.raw_statistic for r in self.valid_records()])

    def mqlr_values(self) -> np.ndarray:
        return np.array([r.mqlr for r in self.valid_records()])

    def omega2_values(self) -> np.ndarray:
        return np.array([r.omega2 for r in self.valid_records()])

    @property
    def degenerate_count(self) -> int:
        return sum(r.degenerate for r in self.records)

    @property
    def failure_count(self) -> int:
        return sum(r.failed for r in self.records)

    def rejection_rate(self, level: float, side: str) -> tuple[float, float, int]:
        """(rate, binomial SE, effective count) excluding degenerate reps."""
        flags = [(r.reject_two if side == "two" else r.reject_one)[level]
                 for r in self.valid_records()]
        count = len(flags)
        if count == 0:
            raise Empty("no valid replications to aggregate")
        rate = float(np.mean(flags))
        return rate, binomial_se(rate, count), count


def _run_one(config: DgpConfig, test: str, levels: tuple[float, ...],
             rep_index: int) -> RepRecord:
    rec = RepRecord(rep=rep_index)
    try:
        panel, gmap, _ = generate(config, rep_index)
        if test == "classic":
            spec_1 = ModelSpec(gaussian_fixed_scale(config.K), individual_groups(config.n))
            spec_2 = ModelSpec(gaussian_fixed_scale(config.K), gmap)
            report: TestReport = run_classic_test(panel, spec_1, spec_2, level=levels[0])
        else:
            report = run_twfe_test(panel, gmap, level=levels[0])

        comp = report.components
        rec.mqlr = report.mqlr
        rec.omega2 = report.omega2_hat
        rec.qlr = comp.qlr
        rec.degenerate = report.degenerate
        if not report.degenerate:
            omega = report.omega2_hat ** 0.5
            rec.statistic = report.mqlr / omega
            rec.raw_statistic = comp.qlr / omega
            for level in levels:
                z2, z1 = critical_values(level)
                rec.reject_two[level] = bool(abs(rec.statistic) > z2)
                rec.reject_one[level] = bool(rec.statistic > z1)
    except PanelVuongError as exc:
        rec.failed = True
        rec.error = f"{type(exc).__name__}: {exc}"
    return rec


def run_replications(config: DgpConfig, test: str | None = None,
                     levels=(0.05,), reps: int = 1, n_jobs: int = 1) -> McResult:
    """Run seeded replications of one test over one DGP.

    The result is a pure function of (config, levels, reps): replication r
    draws only from streams keyed by (master_seed, r), and records are merged
    in replication order, so ``n_jobs`` changes wall time but never output.
    At most one worker thread per CPU core runs.
    Failed replications are recorded, not fatal, unless they exceed 1%.
    """
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    if n_jobs < 1:
        raise ConfigError(f"n_jobs must be >= 1, got {n_jobs}")
    levels = tuple(float(p) for p in levels)
    if any(not 0.0 < p < 1.0 for p in levels) or not levels:
        raise ConfigError(f"levels must lie in (0, 1), got {levels}")
    if test is None:
        test = config.test
    if test not in ("classic", "twfe"):
        raise ConfigError(f"unknown test {test!r}")
    if test != config.test:
        raise ConfigError(
            f"kind {config.kind} pairs with the {config.test} test, not {test}")

    workers = min(n_jobs, os.cpu_count() or 1, reps)
    if workers == 1:
        records = [_run_one(config, test, levels, r) for r in range(reps)]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(lambda r: _run_one(config, test, levels, r),
                                    range(reps)))
    records.sort(key=lambda rec: rec.rep)

    failures = sum(r.failed for r in records)
    if failures > 0.01 * reps:
        first = next(r for r in records if r.failed)
        raise ConfigError(
            f"{failures}/{reps} replications failed; first error: {first.error}")
    return McResult(config=config, test=test, levels=levels, records=records)


@dataclass
class SizePowerRow:
    kind: str
    n: int
    T: int
    G: int
    kappa: float
    c: float
    level: float
    side: str
    rate: float
    se: float
    reps: int
    degenerate_count: int


@dataclass
class Summary:
    rows: list[SizePowerRow]
    mean_statistic: float
    sd_statistic: float
    mean_raw_statistic: float
    ks_normal: float
    degenerate_count: int
    failure_count: int


def summarize(mc: McResult) -> Summary:
    """Size/power rows per (level, side) plus normality diagnostics."""
    if mc.reps == 0 or not mc.valid_records():
        raise Empty("cannot summarize an empty result")
    cfg = mc.config
    rows = []
    for level in mc.levels:
        for side in ("two", "one"):
            rate, se, count = mc.rejection_rate(level, side)
            rows.append(SizePowerRow(
                kind=cfg.kind, n=cfg.n, T=cfg.T, G=cfg.G, kappa=cfg.kappa, c=cfg.c,
                level=level, side=side, rate=rate, se=se, reps=count,
                degenerate_count=mc.degenerate_count))
    stats = mc.statistics()
    raw = mc.raw_statistics()
    return Summary(
        rows=rows,
        mean_statistic=float(stats.mean()),
        sd_statistic=float(stats.std(ddof=1)) if stats.size > 1 else 0.0,
        mean_raw_statistic=float(raw.mean()),
        ks_normal=ks_distance(stats),
        degenerate_count=mc.degenerate_count,
        failure_count=mc.failure_count,
    )


def size_power_csv(summary: Summary) -> str:
    lines = ["kind,n,T,G,kappa,c,level,side,rate,se,reps,degenerate_count"]
    for r in summary.rows:
        lines.append(
            f"{r.kind},{r.n},{r.T},{r.G},{r.kappa!r},{r.c!r},{r.level!r},"
            f"{r.side},{r.rate!r},{r.se!r},{r.reps},{r.degenerate_count}")
    return "\n".join(lines) + "\n"


def replications_jsonl(mc: McResult) -> str:
    """One JSON object per replication, keys and float formatting fixed."""
    lines = []
    for r in mc.records:
        if r.failed:
            obj: dict[str, Any] = {"rep": r.rep, "failed": True, "error": r.error}
        else:
            obj = {
                "rep": r.rep,
                "mqlr": r.mqlr,
                "omega2": r.omega2,
                "statistic": r.statistic,
                "qlr": r.qlr,
                "raw_statistic": r.raw_statistic,
                "degenerate": r.degenerate,
                "reject_two": {repr(k): v for k, v in r.reject_two.items()},
                "reject_one": {repr(k): v for k, v in r.reject_one.items()},
            }
        lines.append(json.dumps(obj, sort_keys=False, allow_nan=False))
    return "\n".join(lines) + "\n"


def local_power_curve(c: float, level: float = 0.05) -> float:
    """Limiting one-sided rejection rate at standardized drift c."""
    return float(1.0 - normal_cdf(critical_values(level)[1] - c))

"""The benchmark's workloads: inputs from the seed, one timed operation, checks.

A workload is built in set-up from ``(pv, seed, workdir)``.  ``run(i, clock)``
performs operation ``i`` with the program call inside ``with clock:`` and
returns an :class:`Outcome`; it checks that operation's outputs outside the
timed region.  ``check()`` runs the checks that need the whole run and
returns the list of problems found (empty when every output was correct).
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

LEVEL = 0.05


@dataclass
class Outcome:
    units: int                  # replications or calls the operation attempted
    failed: int = 0
    errors: Counter = field(default_factory=Counter)   # failures by error class


class McNull100:
    """Alternating kind-A (twfe) and kind-C (classic) ``simulate`` campaigns.

    One operation is a kind-A campaign followed by a kind-C campaign, each of
    REPS replications at n = T = 100, G = 10, K = 1: ``run_replications``,
    ``summarize``, both serialisers and the two file writes.  Operation ``i``
    uses master seed ``seed * 100_000 + i``; operation 0 also runs in the
    warm-up, so every run compares two same-seed campaigns byte for byte.
    """

    name = "mc_null_100"
    unit = "replication"
    count_ops = 2         # operations whose counts a traced run reports
    REPS = 10
    SHAPE = dict(n=100, T=100, G=10, K=1)

    def __init__(self, pv, seed, workdir):
        self.pv = pv
        self.seed = seed
        self.out = workdir / "mc"
        self.first: dict[str, bytes] = {}     # operation 0's files by path
        self.problems: list[str] = []

    def warm_up(self):
        self.run(0, _NoClock())

    def run(self, i, clock) -> Outcome:
        pv = self.pv
        outcome = Outcome(units=0)
        files, rates = {}, []
        with clock:
            for kind in ("A", "C"):
                outcome.units += self.REPS
                config = pv.DgpConfig(kind=kind, master_seed=self.seed * 100_000 + i,
                                      **self.SHAPE)
                try:
                    result = pv.run_replications(config, levels=(LEVEL,), reps=self.REPS)
                    summary = pv.summarize(result)
                except pv.PanelVuongError as exc:
                    outcome.failed += self.REPS
                    outcome.errors[type(exc).__name__] += self.REPS
                    continue
                out = self.out / kind
                out.mkdir(parents=True, exist_ok=True)
                for name, text in (("size_power.csv", pv.montecarlo.size_power_csv(summary)),
                                   ("replications.jsonl",
                                    pv.montecarlo.replications_jsonl(result))):
                    (out / name).write_text(text, encoding="utf-8")
                    files[f"{kind}/{name}"] = text
                for rec in result.records:
                    if rec.failed:
                        outcome.failed += 1
                        outcome.errors[rec.error.split(":", 1)[0]] += 1
                rates += [row.rate for row in summary.rows]
        if not all(0.0 <= r <= 1.0 for r in rates):
            self.problems.append(f"{self.name} op {i}: rejection rate outside [0, 1]")
        if i == 0:
            for path, text in files.items():
                data = text.encode("utf-8")
                if self.first.setdefault(path, data) != data:
                    self.problems.append(f"{self.name}: {path} differs between "
                                         "two campaigns with the same seed")
        return outcome

    def check(self) -> list[str]:
        return self.problems

    def fields(self) -> dict:
        return {f"sha256:{path}": hashlib.sha256(data).hexdigest()
                for path, data in sorted(self.first.items())}


class CliCsv:
    """``panelvuong test twfe`` then ``test classic`` on one CSV.

    The input is a 100 x 100 panel with columns unit, time, y, x1 and region
    (G = 10), drawn in set-up from ``numpy.random.default_rng(seed)`` with
    additive region and time effects.  Both tests use the fixed-scale family
    and write their JSON report to a file.  One operation is the pair of
    calls, so its time has one mode rather than one per test.
    """

    name = "cli_csv"
    unit = "call"
    count_ops = 1
    TESTS = ("twfe", "classic")
    N = T = 100
    G = 10

    def __init__(self, pv, seed, workdir):
        self.pv = pv
        rng = np.random.default_rng(seed)
        region = np.repeat(np.arange(self.G), self.N // self.G)
        x = rng.standard_normal((self.N, self.T))
        y = (x + rng.standard_normal(self.G)[region][:, None]
             + rng.standard_normal(self.T)[None, :] + rng.standard_normal((self.N, self.T)))
        self.csv = workdir / "panel.csv"
        lines = ["unit,time,y,x1,region"]
        for i, (y_i, x_i) in enumerate(zip(y.tolist(), x.tolist())):
            for t in range(self.T):
                lines.append(f"u{i + 1:03d},{t + 1},{y_i[t]!r},{x_i[t]!r},r{region[i] + 1:02d}")
        self.csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        common = ["--input", str(self.csv), "--x-cols", "x1"]
        self.argv = {
            "twfe": ["test", "twfe", *common, "--group-col", "region"],
            "classic": ["test", "classic", *common, "--model2-group-col", "region",
                        "--model1-family", "gaussian-fixed-scale",
                        "--model2-family", "gaussian-fixed-scale"],
        }
        self.out = {test: workdir / f"{test}.json" for test in self.argv}
        self.statistics: dict[str, set] = {test: set() for test in self.argv}
        self.problems: list[str] = []

    def warm_up(self):
        self.run(0, _NoClock())

    def run(self, i, clock) -> Outcome:
        argvs = {}
        for test in self.TESTS:
            self.out[test].unlink(missing_ok=True)
            argvs[test] = [*self.argv[test], "--out", str(self.out[test])]
        codes = {}
        with clock:
            for test in self.TESTS:
                try:
                    codes[test] = self.pv.cli.main(argvs[test])
                except SystemExit as exc:
                    codes[test] = exc.code
        outcome = Outcome(units=len(self.TESTS))
        for test, code in codes.items():
            if code not in (0, 2):
                # the CLI reports the error's message on stderr, not its class
                outcome.failed += 1
                outcome.errors[f"exit {code}"] += 1
                continue
            try:
                doc = json.loads(self.out[test].read_text(encoding="utf-8"))
                self.statistics[test].add(doc["test"]["statistic"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                self.problems.append(f"{self.name} op {i}: unreadable {test} report: {exc!r}")
        return outcome

    def check(self) -> list[str]:
        pv = self.pv
        schema = pv.cli.CsvSchema(x_cols=["x1"], group_cols=["region"])
        panel, gmaps, _ = pv.cli.load_csv(self.csv, schema)
        fixed = pv.gaussian_fixed_scale(panel.K)
        expected = {
            "twfe": pv.run_twfe_test(panel, gmaps["region"], level=LEVEL).statistic,
            "classic": pv.run_classic_test(
                panel, pv.ModelSpec(fixed, pv.individual_groups(panel.n)),
                pv.ModelSpec(fixed, gmaps["region"]), level=LEVEL).statistic,
        }
        problems = list(self.problems)
        for test, seen in self.statistics.items():
            if seen - {expected[test]}:
                problems.append(f"{self.name}: {test} statistics {sorted(seen)} != "
                                f"library {expected[test]!r}")
        return problems

    def fields(self) -> dict:
        return {}


class KindCPanels:
    """Set-up shared by the library workloads: PANELS kind-C panels.

    The panels (group-constant effects, noise 1, K = 1, n = T = 50) are drawn
    from ``numpy.random.default_rng(seed)`` and used in turn.  Model 1 has
    individual effects, model 2 the known G = 10 grouping; both use the
    workload's FAMILY.
    """

    unit = "call"
    N = T = 50
    G = 10
    K = 1
    PANELS = 400
    TOL = 1e-10

    def __init__(self, pv, seed, workdir):
        self.pv = pv
        rng = np.random.default_rng(seed)
        self.gmap = pv.block_groups(self.N, self.G)
        beta = np.ones(self.K)
        self.panels = []
        for _ in range(self.PANELS):
            x = rng.standard_normal((self.N, self.T, self.K))
            a = rng.standard_normal(self.G)
            y = x @ beta + a[self.gmap.codes][:, None] + rng.standard_normal((self.N, self.T))
            self.panels.append(pv.make_panel(y, x))
        self.use_family(getattr(pv, self.FAMILY)(self.K))
        self.fits: list[tuple] = []     # (panel, gmap, theta) of every converged fit

    def use_family(self, family):
        self.spec_1 = self.pv.ModelSpec(family, self.pv.individual_groups(self.N))
        self.spec_2 = self.pv.ModelSpec(family, self.gmap)

    def warm_up(self):
        self.run(0, _NoClock())

    def check(self) -> list[str]:
        """beta equals the closed form's for every fit, and so does s2 if estimated."""
        problems = []
        exact_fits = {}
        for panel, gmap, theta in self.fits:
            key = (id(panel), gmap.G)
            if key not in exact_fits:
                exact_fits[key] = self.pv.fit_linear_cells(panel, gmap)
            exact = exact_fits[key]
            beta_gap = float(np.max(np.abs(theta[:self.K] - exact.theta)))
            s2_gap = 0.0
            if len(theta) > self.K:
                s2 = float(np.sum(exact.score_gamma ** 2)) / (panel.n * panel.T)
                s2_gap = abs(theta[-1] - s2) / s2
            if not (beta_gap <= self.TOL and s2_gap <= self.TOL):
                problems.append(f"{self.name}: G={gmap.G} fit off the closed form "
                                f"(beta gap {beta_gap:.3e}, s2 relative gap {s2_gap:.3e})")
        return problems

    def fields(self) -> dict:
        return {"fits_checked": len(self.fits)}


class LibProfileNewton(KindCPanels):
    """Library ``fit_profile_mle`` with ``gaussian_fixed_scale(1)`` for both models.

    One operation fits model 1 then model 2 on the next kind-C panel by
    profile-Newton, the path every family other than the fixed-scale Gaussian
    takes inside ``run_classic_test``.  The fixed-scale family has no scale
    parameter, so no fit meets the scale divergence of ``lib_full_scale``.
    """

    name = "lib_profile_newton"
    unit = "fit"
    count_ops = 20
    FAMILY = "gaussian_fixed_scale"

    def run(self, i, clock) -> Outcome:
        pv = self.pv
        panel = self.panels[i % self.PANELS]
        outcome = Outcome(units=2)
        fits = []
        with clock:
            for spec in (self.spec_1, self.spec_2):
                try:
                    fits.append((spec.gmap, pv.fit_profile_mle(panel, spec)))
                except pv.PanelVuongError as exc:
                    outcome.failed += 1
                    outcome.errors[type(exc).__name__] += 1
        self.fits += [(panel, gmap, fit.theta) for gmap, fit in fits]
        return outcome


class LibFullScale(KindCPanels):
    """Library ``run_classic_test`` with ``gaussian_full_scale(1)`` for both models.

    Not in BENCHMARK.json: over a third of its calls raise
    ``SingularInformation`` (the scale divergence of ROADMAP D4), so its
    failure count varies with how many calls a run fits in.  Run it by name
    to time and count that divergence; raised ``PanelVuongError``s are
    failures, counted, never avoided.
    """

    name = "lib_full_scale"
    count_ops = 20
    FAMILY = "gaussian_full_scale"

    def __init__(self, pv, seed, workdir):
        super().__init__(pv, seed, workdir)
        fit_model = pv.classic.fit_model

        def recorded(panel, spec, **opts):
            fit = fit_model(panel, spec, **opts)
            self.fits.append((panel, spec.gmap, fit.theta))
            return fit

        # run_classic_test looks fit_model up here; keeping each estimate costs
        # one list append per fit
        pv.classic.fit_model = recorded

    def run(self, i, clock) -> Outcome:
        pv = self.pv
        panel = self.panels[i % self.PANELS]
        with clock:
            try:
                pv.run_classic_test(panel, self.spec_1, self.spec_2, level=LEVEL)
            except pv.PanelVuongError as exc:
                return Outcome(units=1, failed=1, errors=Counter({type(exc).__name__: 1}))
        return Outcome(units=1)


class _NoClock:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


WORKLOADS = {w.name: w for w in (McNull100, CliCsv, LibProfileNewton, LibFullScale)}

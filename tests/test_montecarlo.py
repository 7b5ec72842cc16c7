"""DGP determinism and the replication engine."""

import json
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles import local_power_curve, size_power_row
from panelvuong import (DgpConfig, ModelSpec, gaussian_fixed_scale, generate,
                        individual_groups, run_classic_test, run_replications,
                        run_twfe_test, summarize)
from panelvuong import montecarlo, rng
from panelvuong.errors import ConfigError, Empty, NoConvergence
from panelvuong.montecarlo import (McResult, RepRecord, block_groups,
                                   replications_jsonl, size_power_csv)
from panelvuong.report import rejects


def cfg(**kw):
    base = dict(kind="A", n=12, T=10, G=3, K=1, master_seed=7)
    base.update(kw)
    return DgpConfig(**base)


class TestConfig:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            cfg(kind="Z")

    @pytest.mark.parametrize("bad", [dict(n=1), dict(T=1), dict(G=0),
                                     dict(G=20), dict(noise=0.0),
                                     dict(kappa=-1.0), dict(K=-1),
                                     dict(kind="E", c=-3.0),
                                     dict(kind="B", kappa=np.nan),
                                     dict(kind="E", c=np.nan),
                                     dict(noise=np.inf), dict(noise=np.nan),
                                     dict(kind="D", kappa=np.inf),
                                     dict(kind="B", kappa=1e200, noise=1e200),
                                     # a signal the kind ignores would run the null
                                     dict(kind="A", kappa=0.5), dict(kind="C", c=2.0),
                                     dict(kind="E", kappa=0.5), dict(kind="D", c=1.0),
                                     # ints beyond the float range
                                     dict(noise=10 ** 400),
                                     dict(kind="B", kappa=10 ** 300, noise=10 ** 300)])
    def test_invalid_dimensions(self, bad):
        with pytest.raises(ConfigError):
            cfg(**bad)

    @pytest.mark.parametrize("bad", [dict(n=10.5), dict(T=10.0), dict(G=2.5),
                                     dict(K=1.5), dict(n=True), dict(master_seed=1.5)])
    def test_non_integer_sizes(self, bad):
        # sizes and the seed index arrays and streams, so only integers are valid
        (name, value), = bad.items()
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            cfg(**bad)

    @pytest.mark.parametrize("field, bad", [
        ("noise", dict(noise="a")), ("noise", dict(noise=None)),
        ("noise", dict(noise=1 + 0j)), ("kappa", dict(kind="B", kappa=True)),
        ("c", dict(kind="E", c=np.True_)), ("kappa", dict(kind="D", kappa=[0.5]))])
    def test_non_real_signal_fields(self, field, bad):
        # numpy's TypeError used to escape, and a bool ran as 1.0
        with pytest.raises(ConfigError, match=f"{field} must be a real number"):
            cfg(**bad)

    def test_real_fields_stored_as_floats(self):
        # a Fraction noise failed every replication as NonFinite, and a numpy
        # kappa wrote np.float64(0.5) into the kappa column of size_power.csv
        config = cfg(noise=Fraction(1, 2), kind="B", kappa=np.float64(0.5), c=0)
        assert [type(v) for v in (config.noise, config.kappa, config.c)] == [float] * 3
        mc = run_replications(config, reps=3, levels=(0.05, 0.1))
        assert mc.failure_count == 0
        same = run_replications(cfg(noise=0.5, kind="B", kappa=0.5), reps=3, levels=(0.05, 0.1))
        assert size_power_csv(summarize(mc)) == size_power_csv(summarize(same))
        assert replications_jsonl(mc) == replications_jsonl(same)

    def test_negative_seed(self):
        # SeedSequence takes nonnegative entropy only
        with pytest.raises(ConfigError, match="master_seed must be an integer >= 0"):
            cfg(master_seed=-1)

    def test_numpy_integers_accepted(self):
        config = cfg(n=np.int64(12), master_seed=np.int64(7))
        assert np.array_equal(generate(config, 0)[0].y, generate(cfg(), 0)[0].y)

    def test_kind_to_test_mapping(self):
        assert cfg(kind="A").test == "twfe"
        assert cfg(kind="C").test == "classic"
        assert cfg(kind="E").test == "twfe"


class TestBlockGroups:
    def test_sizes_balanced(self):
        gmap = block_groups(10, 3)
        assert sorted(gmap.sizes.tolist()) == [3, 3, 4]
        assert gmap.sizes.sum() == 10

    def test_contiguous(self):
        gmap = block_groups(6, 2)
        assert gmap.codes.tolist() == [0, 0, 0, 1, 1, 1]


class TestGenerate:
    def test_deterministic(self):
        p1, g1 = generate(cfg(), 4)
        p2, g2 = generate(cfg(), 4)
        assert np.array_equal(p1.y, p2.y)
        assert np.array_equal(p1.x, p2.x)
        assert np.array_equal(g1.codes, g2.codes)

    def test_reps_differ(self):
        p1, _ = generate(cfg(), 0)
        p2, _ = generate(cfg(), 1)
        assert not np.array_equal(p1.y, p2.y)

    def test_kind_d_at_zero_kappa_equals_kind_c(self):
        pc, _ = generate(cfg(kind="C"), 3)
        pd, _ = generate(cfg(kind="D", kappa=0.0), 3)
        assert np.array_equal(pc.y, pd.y)

    def test_kind_e_at_zero_c_equals_kind_a(self):
        pa, _ = generate(cfg(kind="A"), 3)
        pe, _ = generate(cfg(kind="E", c=0.0), 3)
        assert np.array_equal(pa.y, pe.y)

    def test_signal_recorded(self):
        assert cfg(kind="B", kappa=0.5, noise=2.0).signal == pytest.approx(1.0)

    @pytest.mark.parametrize("rep", [-1, 1.5])
    def test_rep_index_not_a_nonnegative_integer_refused(self, rep):
        # SeedSequence raises its own ValueError on -1, and int() truncates 1.5 to rep 1
        with pytest.raises(ConfigError, match="replication index"):
            generate(DgpConfig(kind="A", n=4, T=3, G=2), rep)

    def test_shapes(self):
        panel, gmap = generate(cfg(n=9, T=7, G=4, K=2), 0)
        assert (panel.n, panel.T, panel.K) == (9, 7, 2)
        assert gmap.G == 4


# Streams each kind reads besides noise, group_effects and (K > 0) covariates,
# with the signal that switches on its interaction or unit_deviations stream.
_KIND_STREAMS = {
    "A": ({}, ("time_effects",)),
    "B": ({"kappa": 0.7}, ("time_effects", "interaction")),
    "C": ({}, ()),
    "D": ({"kappa": 0.7}, ("unit_deviations",)),
    "E": ({"c": 2.0}, ("time_effects", "interaction")),
}


class TestTracedDrawLayers:
    """The benchmark times the draw layer through the names
    montecarlo.stream, montecarlo.normals (whose result's size is the draw
    count) and rng.normal_quantile; a replication must call each as counted
    here, or its traced run loses the layer's metrics."""

    @staticmethod
    def _count(monkeypatch, module, name, calls):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append((args, out))
            return out

        monkeypatch.setattr(module, name, counted)

    @pytest.mark.parametrize("K", [0, 1, 2])
    @pytest.mark.parametrize("kind", list(_KIND_STREAMS))
    def test_one_quantile_pass_per_replication(self, monkeypatch, kind, K):
        streams, quantiles, draws = [], [], []
        self._count(monkeypatch, montecarlo, "stream", streams)
        self._count(monkeypatch, montecarlo, "normals", draws)
        self._count(monkeypatch, rng, "normal_quantile", quantiles)
        signal, extra = _KIND_STREAMS[kind]
        n, T, G = 100, 100, 10
        generate(DgpConfig(kind=kind, n=n, T=T, G=G, K=K, master_seed=3, **signal), 2)

        read = ["noise", "group_effects", *(["covariates"] if K else []), *extra]
        assert sorted(args[2] for args, _ in streams) == sorted(read)
        assert all(args[:2] == (3, 2) for args, _ in streams)
        assert len(draws) == 1 and len(quantiles) == 1
        sizes = {"noise": n * T, "covariates": n * T * K, "group_effects": G,
                 "time_effects": T, "interaction": G * T, "unit_deviations": n}
        assert draws[0][1].size == sum(sizes[name] for name in read)

    @pytest.mark.parametrize("kind, count", [("A", 20110), ("C", 20010)])
    def test_acceptance_shape_draw_count(self, monkeypatch, kind, count):
        draws = []
        self._count(monkeypatch, montecarlo, "normals", draws)
        generate(DgpConfig(kind=kind, n=100, T=100, G=10, K=1), 0)
        assert [out.size for _, out in draws] == [count]


class TestRunReplications:
    def test_reproducible_and_merge_order(self):
        mc1 = run_replications(cfg(), reps=20)
        mc2 = run_replications(cfg(), reps=20)
        assert [r.mqlr for r in mc1.records] == [r.mqlr for r in mc2.records]
        assert [r.rep for r in mc1.records] == list(range(20))

    # a bool is refused as DgpConfig refuses one, not run as 1 replication
    @pytest.mark.parametrize("reps", [0, 2.0, 3.5, True, "3", None])
    def test_bad_reps(self, reps):
        with pytest.raises(ConfigError, match="reps must be an integer"):
            run_replications(cfg(), reps=reps)

    @pytest.mark.parametrize("levels, match", [
        ((0.0,), "lie in"),
        # a repeated level would write its size/power rows twice
        ((0.05, 0.05), "distinct"),
        (0.05, "iterable of real numbers"),
        ("0.05", "iterable of real numbers"),
        ([None], "iterable of real numbers"),
    ])
    def test_bad_levels(self, levels, match):
        with pytest.raises(ConfigError, match=match):
            run_replications(cfg(), levels=levels, reps=2)

    @staticmethod
    def fail_once(monkeypatch, rep):
        """Make the twfe test raise NoConvergence at replication ``rep`` only.

        The campaign is pinned to one core: a worker forked earlier never sees
        this patch, and one forked under it would keep the flaky test for the
        rest of the session.  One process runs the replications in index
        order, so the call count is the index."""
        monkeypatch.setattr(montecarlo, "_cores", lambda: 1)
        real, calls = montecarlo.run_twfe_test, []

        def flaky(panel, gmap):
            calls.append(None)
            if len(calls) == rep + 1:
                raise NoConvergence("boom")
            return real(panel, gmap)
        monkeypatch.setattr(montecarlo, "run_twfe_test", flaky)

    def test_failures_up_to_one_percent_are_recorded(self, monkeypatch):
        self.fail_once(monkeypatch, 3)
        mc = run_replications(cfg(), reps=200)
        assert [r.rep for r in mc.records if r.failed] == [3]
        assert mc.records[3].error == "NoConvergence: boom"
        assert replications_jsonl(mc).splitlines()[3] == \
            '{"rep": 3, "failed": true, "error": "NoConvergence: boom"}'

    def test_failures_above_one_percent_are_fatal(self, monkeypatch):
        self.fail_once(monkeypatch, 3)
        with pytest.raises(ConfigError) as info:
            run_replications(cfg(), reps=50)
        assert str(info.value) == "1/50 replications failed; first error: NoConvergence: boom"

    def test_classic_kind_runs(self):
        mc = run_replications(cfg(kind="C", n=15, T=10, G=3), reps=5)
        assert mc.config.test == "classic"
        assert all(not r.failed for r in mc.records)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the mmap and heap-trim thresholds are glibc's")
    def test_replications_do_not_fault_memory_in(self):
        # a fresh process, as earlier tests may have moved this one's thresholds,
        # pinned to one CPU, so that every replication runs in the measured
        # process; without the campaign's threshold block a rep here took
        # about 85 faults
        out = _python("""
            import os, resource
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            from panelvuong import DgpConfig, run_replications
            config = DgpConfig(kind="C", n=100, T=100, G=10, K=1, master_seed=1)
            run_replications(config, reps=2)          # warm-up
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            run_replications(config, reps=10)
            print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
        """)
        assert float(out) < 5.0, out


def _python(script: str) -> str:
    """Standard output of ``script`` run by a fresh interpreter on this package."""
    src = str(Path(montecarlo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          check=True, capture_output=True, text=True, timeout=120).stdout


class TestWorkers:
    """A campaign split between the caller and its forked worker gives the
    serial campaign's records, whatever happens to the worker."""

    @staticmethod
    def jsonl(reps, cores, monkeypatch):
        monkeypatch.setattr(montecarlo, "_cores", lambda: cores)
        return replications_jsonl(run_replications(cfg(), reps=reps))

    @pytest.mark.parametrize("cores, reps", [(3, 7), (5, 2)])
    def test_ranges_cover_every_rep_at_any_core_count(self, monkeypatch, cores, reps):
        # at most one range per rep: 5 cores split 2 reps between 2 processes
        serial = self.jsonl(reps, 1, monkeypatch)
        assert self.jsonl(reps, cores, monkeypatch) == serial
        assert len(montecarlo._pool) >= min(cores, reps) - 1

    def test_worker_failures_are_recorded_in_rep_order(self):
        # patched before the first campaign, so the worker forked by it fails
        # too; a replication fails by its panel, not by a call count
        out = _python("""
            import json, os
            from panelvuong import montecarlo
            from panelvuong.errors import ConfigError, NoConvergence
            config = montecarlo.DgpConfig(kind="A", n=12, T=10, G=3, K=1, master_seed=7)
            failing = {float(montecarlo.generate(config, rep)[0].y[0, 0]) for rep in (30, 103)}
            real, caller = montecarlo.run_twfe_test, os.getpid()

            def flaky(panel, gmap):
                if float(panel.y[0, 0]) in failing:
                    raise NoConvergence("caller" if os.getpid() == caller else "worker")
                return real(panel, gmap)

            montecarlo.run_twfe_test, montecarlo._cores = flaky, lambda: 2
            mc = montecarlo.run_replications(config, reps=200)
            try:
                montecarlo.run_replications(config, reps=50)
            except ConfigError as exc:
                fatal = str(exc)
            print(json.dumps({
                "reps": [r.rep for r in mc.records],
                "errors": {r.rep: r.error for r in mc.records if r.failed},
                "line": montecarlo.replications_jsonl(mc).splitlines()[103],
                "fatal": fatal}))
        """)
        got = json.loads(out)
        assert got["reps"] == list(range(200))
        # reps 0-99 run in the caller and 100-199 in the worker; 2 of 200 is 1%
        assert got["errors"] == {"30": "NoConvergence: caller", "103": "NoConvergence: worker"}
        assert got["line"] == '{"rep": 103, "failed": true, "error": "NoConvergence: worker"}'
        # of 50 reps, 25-49 run in the worker: its one failure is over 1%
        assert got["fatal"] == "1/50 replications failed; first error: NoConvergence: worker"

    def test_worker_exception_is_raised_in_the_caller(self):
        # an error that is not a PanelVuongError is the caller's, wherever it
        # happens; the second campaign shows that the pipe is still in step
        out = _python("""
            import os
            from panelvuong import montecarlo
            config = montecarlo.DgpConfig(kind="A", n=12, T=10, G=3, K=1, master_seed=7)
            real, caller = montecarlo.run_twfe_test, os.getpid()

            def broken(panel, gmap):
                if os.getpid() != caller:
                    raise ZeroDivisionError("in the worker")
                return real(panel, gmap)

            montecarlo.run_twfe_test, montecarlo._cores = broken, lambda: 2
            for _ in range(2):
                try:
                    montecarlo.run_replications(config, reps=10)
                except ZeroDivisionError as exc:
                    print(exc, len(montecarlo._pool))
        """)
        assert out == "in the worker 1\nin the worker 1\n"

    def test_caller_exception_leaves_no_result_behind(self, monkeypatch):
        # the worker's result of an interrupted campaign is never read: the
        # pool is dropped, or that result would answer the next campaign
        serial = self.jsonl(20, 1, monkeypatch)
        self.jsonl(20, 2, monkeypatch)          # a worker is running
        real = montecarlo.run_twfe_test

        def broken(panel, gmap):
            raise RuntimeError("in the caller")

        monkeypatch.setattr(montecarlo, "run_twfe_test", broken)
        with pytest.raises(RuntimeError, match="in the caller"):
            run_replications(cfg(master_seed=8), reps=20)
        monkeypatch.setattr(montecarlo, "run_twfe_test", real)
        assert self.jsonl(20, 2, monkeypatch) == serial

    def test_worker_that_dies_mid_campaign_changes_no_byte(self):
        # the worker exits inside its range; the caller runs that range itself
        out = _python("""
            import os
            from panelvuong import montecarlo
            config = montecarlo.DgpConfig(kind="A", n=12, T=10, G=3, K=1, master_seed=7)
            montecarlo._cores = lambda: 1
            serial = montecarlo.replications_jsonl(montecarlo.run_replications(config, reps=40))
            real, caller = montecarlo.run_twfe_test, os.getpid()

            def dying(panel, gmap):
                if os.getpid() != caller:
                    os._exit(3)
                return real(panel, gmap)

            montecarlo.run_twfe_test, montecarlo._cores = dying, lambda: 2
            for _ in range(2):
                mc = montecarlo.run_replications(config, reps=40)
                print(montecarlo.replications_jsonl(mc) == serial, len(montecarlo._pool))
        """)
        # each campaign forks a worker that dies and is dropped
        assert out == "True 0\nTrue 0\n"

    def test_killed_worker_changes_no_byte(self, monkeypatch):
        serial = self.jsonl(20, 1, monkeypatch)
        assert self.jsonl(20, 2, monkeypatch) == serial
        process, _ = montecarlo._pool[0]
        os.kill(process.pid, signal.SIGKILL)    # our own child, between two campaigns
        process.join(10)
        assert not process.is_alive()
        assert self.jsonl(20, 2, monkeypatch) == serial     # run by the caller alone
        assert self.jsonl(20, 2, monkeypatch) == serial     # with a new worker
        assert montecarlo._pool[0][0].is_alive() and montecarlo._pool[0][0] is not process

    @staticmethod
    def in_forked_child(campaign, daemon):
        """What ``campaign()`` returns in a fork-context child, or its error's repr."""
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)

        def run():
            try:
                send.send(campaign())
            except BaseException as exc:
                send.send(repr(exc))

        process = context.Process(target=run, daemon=daemon)
        process.start()
        assert receive.poll(60)
        result = receive.recv()
        process.join(10)
        assert not process.is_alive()
        return result

    def test_daemonic_process_runs_serially(self, monkeypatch):
        # a daemonic process may not start children: Process.start would assert
        serial = self.jsonl(20, 1, monkeypatch)
        monkeypatch.setattr(montecarlo, "_cores", lambda: 2)
        assert self.in_forked_child(
            lambda: replications_jsonl(run_replications(cfg(), reps=20)), daemon=True) == serial

    def test_forked_child_starts_with_no_worker(self, monkeypatch):
        # a child sending on its parent's pipes would race the parent for the
        # worker's results; a child that is not daemonic forks its own worker
        serial = self.jsonl(20, 2, monkeypatch)     # the parent's worker is running
        assert self.in_forked_child(
            lambda: (len(montecarlo._pool),
                     replications_jsonl(run_replications(cfg(), reps=20))),
            daemon=False) == (0, serial)
        assert self.jsonl(20, 2, monkeypatch) == serial

    def test_worker_ends_with_its_interpreter(self):
        # multiprocessing's exit handler terminates and joins daemonic children,
        # so a campaign leaves no process running behind it
        pid = int(_python("""
            from panelvuong import DgpConfig, montecarlo, run_replications
            montecarlo._cores = lambda: 2
            run_replications(DgpConfig(kind="A", n=12, T=10, G=3, K=1), reps=4)
            print(montecarlo._pool[0][0].pid)
        """))
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)         # signal 0 sends nothing: it asks whether pid exists


class TestSummarize:
    def test_all_reject_synthetic(self):
        records = [RepRecord(rep=i, mqlr=5.0, omega2=1.0, qlr=5.0, statistic=5.0)
                   for i in range(10)]
        mc = McResult(config=cfg(), levels=(0.05,), records=records)
        summary = summarize(mc)
        two = [r for r in summary.rows if r.side == "two"][0]
        assert two.rate == 1.0
        assert two.se == 0.0

    def test_degenerate_excluded_from_denominator(self):
        records = [RepRecord(rep=0, mqlr=5.0, omega2=1.0, qlr=5.0, statistic=5.0),
                   RepRecord(rep=1, mqlr=0.0, omega2=0.0, qlr=0.0)]
        mc = McResult(config=cfg(), levels=(0.05,), records=records)
        summary = summarize(mc)
        assert summary.rows[0].reps == 1
        assert summary.rows[0].rate == 1.0
        assert summary.degenerate_count == 1

    def test_empty_raises(self):
        mc = McResult(config=cfg(), levels=(0.05,), records=[])
        with pytest.raises(Empty):
            summarize(mc)

    def test_rate_ordering_in_local_signal(self):
        # drift increases with c, up to Monte Carlo noise
        lo = run_replications(cfg(kind="E", n=24, T=24, G=4, c=0.0), reps=60)
        hi = run_replications(cfg(kind="E", n=24, T=24, G=4, c=3.0), reps=60)
        assert size_power_row(hi, 0.05, "one").rate > size_power_row(lo, 0.05, "one").rate

    def test_power_monotone_in_kappa(self):
        # one-sided rejection nondecreasing in the signal, up to a 2 SE band
        rates, ses = [], []
        for kappa in (0.0, 0.25, 0.5):
            mc = run_replications(cfg(kind="B", n=30, T=30, G=3, kappa=kappa),
                                  reps=80)
            row = size_power_row(mc, 0.05, "one")
            rates.append(row.rate)
            ses.append(row.se)
        for k in range(2):
            assert rates[k + 1] >= rates[k] - 2.0 * max(ses[k], ses[k + 1])

    def test_local_power_curve_endpoints(self):
        assert local_power_curve(0.0, 0.05) == pytest.approx(0.05)
        assert local_power_curve(5.0, 0.05) > 0.99


class TestWriters:
    def test_csv_shape(self):
        mc = run_replications(cfg(), reps=5, levels=(0.05, 0.10))
        text = size_power_csv(summarize(mc))
        lines = text.strip().split("\n")
        assert lines[0].startswith("kind,n,T,G")
        assert len(lines) == 1 + 4   # two levels x two sides

    @pytest.mark.parametrize("kind", ["A", "C"])
    def test_csv_counts_the_jsonl_lines(self, kind):
        # per level and side, a size_power.csv row counts the replications.jsonl
        # lines that decided: reps of them, rate * reps rejecting
        levels = (0.01, 0.05, 0.1)
        mc = run_replications(cfg(kind=kind), levels=levels, reps=30)
        mc.records += [RepRecord(rep=30, mqlr=0.0, omega2=0.0, qlr=0.0),
                       RepRecord(rep=31, error="NonFinite: statistic is not finite")]
        lines = [json.loads(line) for line in replications_jsonl(mc).splitlines()]
        decided = [obj for obj in lines if "failed" not in obj and not obj["degenerate"]]
        degenerate = sum("failed" not in obj and obj["degenerate"] for obj in lines)
        header, *rows = [line.split(",") for line in size_power_csv(summarize(mc)).splitlines()]
        assert len(rows) == 2 * len(levels)
        for row in (dict(zip(header, row, strict=True)) for row in rows):
            flags = [obj[f"reject_{row['side']}"][row["level"]] for obj in decided]
            assert int(row["reps"]) == len(flags) == 30
            assert float(row["rate"]) * len(flags) == pytest.approx(sum(flags), abs=1e-9)
            assert int(row["degenerate_count"]) == degenerate == 1

    def test_jsonl_roundtrip(self):
        mc = run_replications(cfg(), reps=3)
        lines = replications_jsonl(mc).strip().split("\n")
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert first["rep"] == 0
        assert "mqlr" in first and "reject_two" in first


SIGNAL_FOR_KIND = {"A": {}, "B": dict(kappa=0.5), "C": {}, "D": dict(kappa=0.5),
                   "E": dict(c=2.0)}


class TestRecordDerivation:
    """A record keeps what its test measured; everything else derives from it."""

    @pytest.mark.parametrize("kind", sorted(SIGNAL_FOR_KIND))
    def test_statistic_and_flags_match_the_test(self, kind):
        config = cfg(kind=kind, **SIGNAL_FOR_KIND[kind])
        levels = (0.05, 0.1)
        mc = run_replications(config, levels=levels, reps=4)
        lines = replications_jsonl(mc).splitlines()
        for r, (rec, line) in enumerate(zip(mc.records, lines, strict=True)):
            panel, gmap = generate(config, r)
            if config.test == "classic":
                report = run_classic_test(
                    panel, ModelSpec(gaussian_fixed_scale(config.K), individual_groups(config.n)),
                    ModelSpec(gaussian_fixed_scale(config.K), gmap))
            else:
                report = run_twfe_test(panel, gmap)
            assert rec.statistic == report.statistic   # same bits
            obj = json.loads(line)
            assert obj["statistic"] == report.statistic
            for level in levels:
                two, one = rejects(report.statistic, level)
                assert obj["reject_two"][repr(level)] is two
                assert obj["reject_one"][repr(level)] is one

    def test_jsonl_lines_pinned(self):
        records = [RepRecord(rep=0, mqlr=3.4, omega2=4.0, qlr=2.0, statistic=1.7),
                   RepRecord(rep=1, mqlr=0.5, omega2=0.0, qlr=0.25),
                   RepRecord(rep=2, error="NoConvergence: outer iteration limit 100 reached")]
        assert [(r.degenerate, r.failed) for r in records] == \
            [(False, False), (True, False), (False, True)]
        mc = McResult(config=cfg(), levels=(0.05, 0.1), records=records)
        assert replications_jsonl(mc).splitlines() == [
            '{"rep": 0, "mqlr": 3.4, "omega2": 4.0, "statistic": 1.7, "qlr": 2.0, '
            '"raw_statistic": 1.0, "degenerate": false, '
            '"reject_two": {"0.05": false, "0.1": true}, '
            '"reject_one": {"0.05": true, "0.1": true}}',
            '{"rep": 1, "mqlr": 0.5, "omega2": 0.0, "statistic": null, "qlr": 0.25, '
            '"raw_statistic": null, "degenerate": true, "reject_two": {}, "reject_one": {}}',
            '{"rep": 2, "failed": true, "error": "NoConvergence: outer iteration limit 100 '
            'reached"}']

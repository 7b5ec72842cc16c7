"""DGP determinism and the replication engine."""

import numpy as np
import pytest

from panelvuong import (DgpConfig, generate, local_power_curve, montecarlo,
                        run_replications, summarize)
from panelvuong.errors import ConfigError, Empty
from panelvuong.montecarlo import (McResult, RepRecord, block_groups,
                                   replications_jsonl, size_power_csv)


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
                                     dict(kappa=-1.0), dict(K=-1)])
    def test_invalid_dimensions(self, bad):
        with pytest.raises(ConfigError):
            cfg(**bad)

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
        p1, g1, t1 = generate(cfg(), 4)
        p2, g2, t2 = generate(cfg(), 4)
        assert np.array_equal(p1.y, p2.y)
        assert np.array_equal(p1.x, p2.x)
        assert np.array_equal(g1.codes, g2.codes)
        assert t1 == t2

    def test_reps_differ(self):
        p1, _, _ = generate(cfg(), 0)
        p2, _, _ = generate(cfg(), 1)
        assert not np.array_equal(p1.y, p2.y)

    def test_kind_d_at_zero_kappa_equals_kind_c(self):
        pc, _, _ = generate(cfg(kind="C"), 3)
        pd, _, _ = generate(cfg(kind="D", kappa=0.0), 3)
        assert np.array_equal(pc.y, pd.y)

    def test_kind_e_at_zero_c_equals_kind_a(self):
        pa, _, _ = generate(cfg(kind="A"), 3)
        pe, _, _ = generate(cfg(kind="E", c=0.0), 3)
        assert np.array_equal(pa.y, pe.y)

    def test_signal_recorded(self):
        _, _, truth = generate(cfg(kind="B", kappa=0.5, noise=2.0), 0)
        assert truth["kappa_effective"] == pytest.approx(1.0)

    def test_shapes(self):
        panel, gmap, _ = generate(cfg(n=9, T=7, G=4, K=2), 0)
        assert (panel.n, panel.T, panel.K) == (9, 7, 2)
        assert gmap.G == 4


class TestRunReplications:
    def test_reproducible_and_merge_order(self):
        mc1 = run_replications(cfg(), reps=20)
        mc2 = run_replications(cfg(), reps=20)
        assert [r.mqlr for r in mc1.records] == [r.mqlr for r in mc2.records]
        assert [r.rep for r in mc1.records] == list(range(20))

    def test_parallel_identical(self):
        serial = run_replications(cfg(), reps=16, n_jobs=1)
        threaded = run_replications(cfg(), reps=16, n_jobs=4)
        assert [r.mqlr for r in serial.records] == [r.mqlr for r in threaded.records]
        assert [r.reject_two for r in serial.records] == \
               [r.reject_two for r in threaded.records]

    def test_mismatched_test_rejected(self):
        with pytest.raises(ConfigError):
            run_replications(cfg(kind="A"), test="classic", reps=2)

    def test_bad_reps(self):
        with pytest.raises(ConfigError):
            run_replications(cfg(), reps=0)

    def test_bad_levels(self):
        with pytest.raises(ConfigError):
            run_replications(cfg(), levels=(0.0,), reps=2)

    @pytest.mark.parametrize("n_jobs", [0, -3])
    def test_bad_jobs(self, n_jobs):
        with pytest.raises(ConfigError, match="n_jobs"):
            run_replications(cfg(), reps=2, n_jobs=n_jobs)

    @pytest.mark.parametrize("cores, n_jobs, reps, workers", [
        (2, 5000, 6, 2), (8, 5000, 3, 3), (8, 4, 16, 4), (None, 4, 6, None),
        (8, 1, 6, None)])
    def test_pool_capped_at_cores_and_reps(self, monkeypatch, cores, n_jobs, reps,
                                           workers):
        # records the pool size asked for; never starts more than one thread
        real_pool = montecarlo.concurrent.futures.ThreadPoolExecutor
        asked = []

        def recorder(max_workers):
            asked.append(max_workers)
            return real_pool(max_workers=1)
        serial = run_replications(cfg(), reps=reps)
        monkeypatch.setattr(montecarlo.concurrent.futures, "ThreadPoolExecutor", recorder)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cores)
        pooled = run_replications(cfg(), reps=reps, n_jobs=n_jobs)
        assert asked == ([] if workers is None else [workers])
        assert [r.mqlr for r in pooled.records] == [r.mqlr for r in serial.records]

    def test_classic_kind_runs(self):
        mc = run_replications(cfg(kind="C", n=15, T=10, G=3), reps=5)
        assert mc.test == "classic"
        assert all(not r.failed for r in mc.records)


class TestSummarize:
    def test_all_reject_synthetic(self):
        records = [RepRecord(rep=i, mqlr=5.0, omega2=1.0, statistic=5.0, qlr=5.0,
                             raw_statistic=5.0, reject_two={0.05: True},
                             reject_one={0.05: True}) for i in range(10)]
        mc = McResult(config=cfg(), test="twfe", levels=(0.05,), records=records)
        summary = summarize(mc)
        two = [r for r in summary.rows if r.side == "two"][0]
        assert two.rate == 1.0
        assert two.se == 0.0

    def test_degenerate_excluded_from_denominator(self):
        records = [RepRecord(rep=0, mqlr=5.0, omega2=1.0, statistic=5.0, qlr=5.0,
                             raw_statistic=5.0, reject_two={0.05: True},
                             reject_one={0.05: True}),
                   RepRecord(rep=1, mqlr=0.0, omega2=0.0, degenerate=True)]
        mc = McResult(config=cfg(), test="twfe", levels=(0.05,), records=records)
        summary = summarize(mc)
        assert summary.rows[0].reps == 1
        assert summary.rows[0].rate == 1.0
        assert summary.degenerate_count == 1

    def test_empty_raises(self):
        mc = McResult(config=cfg(), test="twfe", levels=(0.05,), records=[])
        with pytest.raises(Empty):
            summarize(mc)

    def test_rate_ordering_in_local_signal(self):
        # drift increases with c, up to Monte Carlo noise
        lo = run_replications(cfg(kind="E", n=24, T=24, G=4, c=0.0), reps=60)
        hi = run_replications(cfg(kind="E", n=24, T=24, G=4, c=3.0), reps=60)
        rate_lo = lo.rejection_rate(0.05, "one")[0]
        rate_hi = hi.rejection_rate(0.05, "one")[0]
        assert rate_hi > rate_lo

    def test_power_monotone_in_kappa(self):
        # one-sided rejection nondecreasing in the signal, up to a 2 SE band
        rates, ses = [], []
        for kappa in (0.0, 0.25, 0.5):
            mc = run_replications(cfg(kind="B", n=30, T=30, G=3, kappa=kappa),
                                  reps=80)
            rate, se, _ = mc.rejection_rate(0.05, "one")
            rates.append(rate)
            ses.append(se)
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

    def test_jsonl_roundtrip(self):
        import json

        mc = run_replications(cfg(), reps=3)
        lines = replications_jsonl(mc).strip().split("\n")
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert first["rep"] == 0
        assert "mqlr" in first and "reject_two" in first

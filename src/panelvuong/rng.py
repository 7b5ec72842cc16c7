"""Counter-based random streams keyed by (master seed, replication, stream).

Each replication draws from Philox streams addressed by a fixed integer
triple, so results never depend on execution order.  Normal variates go
through the package's own inverse CDF, so draws are identical across reruns.
``tests/test_rng.py`` pins their digests on x86-64 with numpy 2.4; ``np.log``
may round differently on other CPUs or numpy builds and move a tail draw by an
ulp.
"""

from __future__ import annotations

import numpy as np

from .stats import normal_quantile

# Version of the normal generator, written into every size_power.csv row:
# 1 was a rational guess plus two Halley steps against the erfc-based CDF,
# 2 is Wichura's AS241 (stats.normal_quantile).
GENERATOR_VERSION = 2

# Fixed stream addresses; appending new ones keeps existing draws unchanged.
STREAMS = {
    "noise": 0,
    "covariates": 1,
    "group_effects": 2,
    "time_effects": 3,
    "interaction": 4,
    "unit_deviations": 5,
}

_TWO53 = 1 << 53


def stream(master_seed: int, rep_index: int, name: str) -> np.random.Generator:
    """Philox generator for one named stream of one replication."""
    key = np.random.SeedSequence((int(master_seed), int(rep_index), STREAMS[name]))
    return np.random.Generator(np.random.Philox(key))


def uniforms_open(gen: np.random.Generator, size) -> np.ndarray:
    """Uniform draws on the open interval (0, 1)."""
    return gen.integers(1, _TWO53, size=size).astype(float) / _TWO53


def normals(gens, counts) -> np.ndarray:
    """Standard-normal draws via the shared inverse CDF: ``counts[i]``
    uniforms from each ``gens[i]``, returned in order as one flat array from
    a single quantile pass.  The quantile works elementwise, so each stream's
    slice is bit for bit what that stream would give alone.
    """
    return normal_quantile(np.concatenate(
        [uniforms_open(g, count) for g, count in zip(gens, counts, strict=True)]))

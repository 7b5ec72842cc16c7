"""Immutable balanced-panel containers and group-assignment structures.

A panel holds an outcome array ``y`` of shape (n, T) and covariates ``x`` of
shape (n, T, K) with K possibly zero.  Group structures are stored with
contiguous zero-based codes internally; one-based labels appear only in
reports.  Everything is frozen and checked when it is built, and safe to
share between threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import EmptyGroup, NonFinite, OutOfRange, TooSmall


def _int_array(values, what: str) -> np.ndarray:
    """Values as a fresh int64 array; a value the cast would change is refused."""
    raw = np.asarray(values)
    with np.errstate(invalid="ignore"):     # NaN and inf fail the check below
        out = raw.astype(np.int64)
    if not np.array_equal(out, raw):
        raise OutOfRange(f"{what} must be whole numbers")
    return out


def _frozen(a) -> np.ndarray:
    # a copy, so that freezing never makes the caller's own array read-only
    a = np.array(a, dtype=float, order="C")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PanelData:
    """Balanced n x T panel of outcome and covariates, frozen and checked when built."""

    y: np.ndarray                  # (n, T)
    x: np.ndarray                  # (n, T, K), K may be 0

    def __post_init__(self):
        object.__setattr__(self, "y", _frozen(self.y))
        object.__setattr__(self, "x", _frozen(self.x))
        y, x = self.y, self.x
        if y.ndim != 2:
            raise TooSmall(f"y must be a 2-d (n, T) array, got shape {y.shape}")
        n, T = y.shape
        if x.ndim != 3 or x.shape[:2] != (n, T):
            raise TooSmall(f"x must have shape (n, T, K) = ({n}, {T}, K), got {x.shape}")
        if n < 2 or T < 2:
            raise TooSmall(f"panel needs n >= 2 and T >= 2, got n={n}, T={T}")
        if not np.all(np.isfinite(y)):
            i, t = np.argwhere(~np.isfinite(y))[0]
            raise NonFinite(f"y[{i + 1}][{t + 1}] is not finite")
        if x.size and not np.all(np.isfinite(x)):
            i, t, k = np.argwhere(~np.isfinite(x))[0]
            raise NonFinite(f"x[{i + 1}][{t + 1}][{k + 1}] is not finite")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def T(self) -> int:
        return self.y.shape[1]

    @property
    def K(self) -> int:
        return self.x.shape[2]


def linear_index(x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """x'theta over the trailing covariate axis of ``x``, for K > 0.

    One BLAS matrix-vector product over the flattened (rows, K) view: numpy's
    stacked ``x @ theta`` runs one product per leading index, several times
    slower on an (n, T, K) panel.  Through K = 7 both give the same bits
    (numpy 2.4, OpenBLAS 0.3.31); from K = 8 on they can differ in the last place.
    """
    return x.reshape(-1, x.shape[-1]).dot(theta).reshape(x.shape[:-1])


def make_panel(y, x=None) -> PanelData:
    """Assemble a panel from raw arrays.

    Parameters
    ----------
    y : array-like, shape (n, T)
        Outcome for every (unit, time) cell.
    x : array-like, shape (n, T, K), optional
        Covariates; omit for a pure fixed-effects panel (K = 0).
    """
    y = np.asarray(y, dtype=float)
    return PanelData(y=y, x=np.zeros(y.shape + (0,)) if x is None else x)


@dataclass(frozen=True)
class GroupMap:
    """Known assignment of units to groups 1..G (stored zero-based)."""

    codes: np.ndarray              # (n,) ints in [0, G)
    G: int

    def __post_init__(self):
        codes = _int_array(self.codes, "group codes")
        if self.G < 1:
            raise OutOfRange(f"G must be >= 1, got {self.G}")
        if codes.ndim != 1:
            raise OutOfRange("group codes must be a 1-d array")
        if codes.size and (codes.min() < 0 or codes.max() >= self.G):
            raise OutOfRange(f"group codes must lie in [0, {self.G})")
        sizes = np.bincount(codes, minlength=self.G)
        if np.any(sizes == 0):
            g = int(np.argmin(sizes))
            raise EmptyGroup(f"group {g + 1} of {self.G} has no members")
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)

    @property
    def n(self) -> int:
        return self.codes.size

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.codes, minlength=self.G)


def individual_groups(n: int) -> GroupMap:
    """One group per unit (G = n)."""
    return GroupMap(codes=np.arange(n), G=n)


def groups_from_labels(labels) -> tuple[GroupMap, dict]:
    """Map arbitrary labels to contiguous codes by first appearance."""
    order: dict = {}
    codes = np.empty(len(labels), dtype=np.int64)
    for i, lab in enumerate(labels):
        if lab not in order:
            order[lab] = len(order)
        codes[i] = order[lab]
    return GroupMap(codes=codes, G=len(order)), order


@dataclass(frozen=True)
class TimeGroupMap:
    """Nondecreasing assignment of periods to contiguous blocks 1..M."""

    codes: np.ndarray              # (T,) ints in [0, M), nondecreasing
    M: int

    def __post_init__(self):
        codes = _int_array(self.codes, "time codes")
        if self.M < 1:
            raise OutOfRange(f"M must be >= 1, got {self.M}")
        if codes.ndim != 1 or codes.size == 0:
            raise OutOfRange("time codes must be a nonempty 1-d array")
        if codes[0] != 0 or codes[-1] != self.M - 1 or np.any(np.diff(codes) < 0) \
                or np.any(np.diff(codes) > 1):
            raise OutOfRange("time blocks must be contiguous intervals covering 1..T")
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)

    @property
    def T(self) -> int:
        return self.codes.size


@functools.cache
def single_block(T: int) -> TimeGroupMap:
    """All periods in one block (M = 1); one frozen map per T."""
    return TimeGroupMap(codes=np.zeros(T, dtype=np.int64), M=1)

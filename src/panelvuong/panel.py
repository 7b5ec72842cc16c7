"""Immutable balanced-panel containers and group-assignment structures.

A panel holds an outcome array ``y`` of shape (n, T) and covariates ``x`` of
shape (n, T, K) with K possibly zero.  Group structures are stored with
contiguous zero-based codes internally; one-based labels appear only in
reports.  A group map is its codes: the group count G, the group sizes and
the block count M are derived from them, never passed in.  Everything is
frozen and checked when it is built, and safe to share between threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyGroup, NonFinite, OutOfRange, TooSmall


def _int_array(values, what: str) -> np.ndarray:
    """Values as a fresh int64 array; a non-number or a value the cast would change is refused."""
    try:
        raw = np.asarray(values)
    except ValueError:      # numpy refuses sequences nested to unequal lengths
        raise OutOfRange(f"{what} are ragged: a 1-d array is needed") from None
    if raw.dtype.kind in "biuf":
        with np.errstate(invalid="ignore"):     # NaN and inf fail the check below
            out = raw.astype(np.int64)
        if np.array_equal(out, raw):
            return out
    raise OutOfRange(f"{what} must be whole numbers")


def _frozen(a, what: str) -> np.ndarray:
    try:
        raw = np.asarray(a)
    except ValueError:      # numpy refuses sequences nested to unequal lengths
        raise TooSmall(f"{what} is ragged: its rows differ in length") from None
    if raw.dtype.kind not in "biuf":
        raise NonFinite(f"{what} holds an entry that is not a real number")
    # a copy, so that freezing never makes the caller's own array read-only
    a = np.array(raw, dtype=float, order="C")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PanelData:
    """Balanced n x T panel of outcome and covariates, frozen and checked when built."""

    y: np.ndarray                  # (n, T)
    x: np.ndarray                  # (n, T, K), K may be 0

    def __post_init__(self):
        object.__setattr__(self, "y", _frozen(self.y, "y"))
        object.__setattr__(self, "x", _frozen(self.x, "x"))
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
    if x is None:
        y = _frozen(y, "y")
        x = np.zeros(y.shape + (0,))
    return PanelData(y=y, x=x)


@dataclass(frozen=True, eq=False)
class GroupMap:
    """Known assignment of units to groups 1..G (stored zero-based), G from the codes."""

    codes: np.ndarray              # (n,) ints in [0, G), every group present
    G: int = field(init=False)
    sizes: np.ndarray = field(init=False)  # (G,) units per group, frozen

    def __post_init__(self):
        codes = _int_array(self.codes, "group codes")
        if codes.ndim != 1 or codes.size == 0:
            raise OutOfRange("group codes must be a nonempty 1-d array")
        if codes.min() < 0:
            raise OutOfRange("group codes must be nonnegative")
        if codes.max() >= codes.size:   # more groups than units, so one is empty
            raise EmptyGroup(f"group codes name {codes.max() + 1} groups for {codes.size} units")
        sizes = np.bincount(codes)
        if not sizes.all():
            g = int(np.argmin(sizes))
            raise EmptyGroup(f"group {g + 1} of {sizes.size} has no members")
        codes.flags.writeable = False
        sizes.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "G", sizes.size)
        object.__setattr__(self, "sizes", sizes)

    @property
    def n(self) -> int:
        return self.codes.size


@functools.cache
def individual_groups(n: int) -> GroupMap:
    """One group per unit (G = n); one frozen map per n."""
    return GroupMap(codes=np.arange(n))


def groups_from_labels(labels) -> tuple[GroupMap, dict]:
    """Map arbitrary labels to contiguous codes by first appearance."""
    order: dict = {}
    codes = [order.setdefault(lab, len(order)) for lab in labels]
    return GroupMap(codes=codes), order


@dataclass(frozen=True, eq=False)
class TimeGroupMap:
    """Nondecreasing assignment of periods to contiguous blocks 1..M, M from the codes."""

    codes: np.ndarray              # (T,) ints in [0, M), nondecreasing
    M: int = field(init=False)

    def __post_init__(self):
        codes = _int_array(self.codes, "time codes")
        if codes.ndim != 1 or codes.size == 0:
            raise OutOfRange("time codes must be a nonempty 1-d array")
        steps = np.diff(codes)
        if codes[0] != 0 or np.any((steps < 0) | (steps > 1)):
            raise OutOfRange("time blocks must be contiguous intervals covering 1..T")
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "M", int(codes[-1]) + 1)

    @property
    def T(self) -> int:
        return self.codes.size


@functools.cache
def single_block(T: int) -> TimeGroupMap:
    """All periods in one block (M = 1); one frozen map per T."""
    return TimeGroupMap(codes=np.zeros(T, dtype=np.int64))

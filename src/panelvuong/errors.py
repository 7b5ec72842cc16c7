"""Exception hierarchy shared across the package."""


class PanelVuongError(Exception):
    """Base class for all errors raised by this package."""


class NonFinite(PanelVuongError):
    """A panel entry is NaN or infinite."""


class Unbalanced(PanelVuongError):
    """A (unit, time) cell is missing or duplicated."""


class TooSmall(PanelVuongError):
    """Panel dimensions below the minimum (n >= 2 and T >= 2)."""


class EmptyGroup(PanelVuongError):
    """A group label in {1..G} has no members."""


class OutOfRange(PanelVuongError):
    """An index, assignment, or probability is outside its admissible range."""


class DomainError(PanelVuongError):
    """Likelihood evaluated outside the family's parameter domain."""


class SingularInformation(PanelVuongError):
    """A cell's curvature |Psi_gg| fell below tolerance during estimation."""


class NoConvergence(PanelVuongError):
    """Iteration limit reached with first-order conditions above tolerance."""


class RankDeficient(PanelVuongError):
    """Demeaned Gram matrix is numerically rank deficient."""


class GroupingViolation(PanelVuongError):
    """A group map that does not cover the panel, or a grouping the test does not allow."""


class ConfigError(PanelVuongError):
    """Invalid simulation or CLI configuration."""


class ParseError(PanelVuongError):
    """Malformed input file; carries row/column context."""

    def __init__(self, message: str, row: int | None = None, col: str | None = None):
        loc = []
        if row is not None:
            loc.append(f"row {row}")
        if col is not None:
            loc.append(f"column {col!r}")
        super().__init__(f"{message} ({', '.join(loc)})" if loc else message)
        self.row = row
        self.col = col


class GroupDrift(PanelVuongError):
    """A unit's group label varies over time."""


class Empty(PanelVuongError):
    """Operation on an empty result set."""

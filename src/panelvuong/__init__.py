"""Model-selection tests for panel models with grouped fixed effects."""

__version__ = "0.1.0"

from .errors import (ConfigError, DomainError, Empty, EmptyGroup, GroupDrift,
                     GroupingViolation, NoConvergence, NonFinite, OutOfRange,
                     PanelVuongError, ParseError, RankDeficient,
                     SingularInformation, TooSmall, Unbalanced)
from .families import (LikelihoodFamily, check_derivatives, gaussian_fixed_scale,
                       gaussian_full_scale)
from .panel import GroupMap, PanelData, TimeGroupMap, individual_groups, make_panel
from .estimation import (FitResult, GroupedTimeFit, ModelSpec, TwfeFit,
                         fit_grouped_time, fit_linear_cells, fit_model,
                         fit_profile_mle, fit_twfe)
from .classic import ClassicComponents, classic_components, run_classic_test
from .twfe import TwfeTestComponents, run_twfe_test, twfe_components
from .report import TestReport, render_csv, render_json, to_document
from .montecarlo import (DgpConfig, McResult, Summary, block_groups, generate,
                         run_replications, summarize)
from .stats import normal_quantile

__all__ = [
    # errors
    "ConfigError", "DomainError", "Empty", "EmptyGroup", "GroupDrift",
    "GroupingViolation", "NoConvergence", "NonFinite", "OutOfRange",
    "PanelVuongError", "ParseError", "RankDeficient", "SingularInformation",
    "TooSmall", "Unbalanced",
    # families
    "LikelihoodFamily", "check_derivatives", "gaussian_fixed_scale",
    "gaussian_full_scale",
    # panel
    "GroupMap", "PanelData", "TimeGroupMap", "individual_groups", "make_panel",
    # estimation
    "FitResult", "GroupedTimeFit", "ModelSpec", "TwfeFit", "fit_grouped_time",
    "fit_linear_cells", "fit_model", "fit_profile_mle", "fit_twfe",
    # classic
    "ClassicComponents", "classic_components", "run_classic_test",
    # twfe
    "TwfeTestComponents", "run_twfe_test", "twfe_components",
    # report
    "TestReport", "render_csv", "render_json", "to_document",
    # montecarlo
    "DgpConfig", "McResult", "Summary", "block_groups", "generate",
    "run_replications", "summarize",
    # stats
    "normal_quantile",
]

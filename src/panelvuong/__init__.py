"""Model-selection tests for panel models with grouped fixed effects."""

__version__ = "0.1.0"

from .errors import (ConfigError, DomainError, Empty, EmptyGroup, GroupDrift,
                     GroupingViolation, NoConvergence, NonFinite, OutOfRange,
                     PanelVuongError, ParseError, RankDeficient,
                     SingularInformation, TooSmall, Unbalanced)
from .families import (LikelihoodFamily, check_derivatives, eval_derivatives,
                       eval_psi, gaussian_fixed_scale, gaussian_full_scale)
from .panel import (GroupMap, PanelData, TimeGroupMap, blocks_from_sizes,
                    group_partition, groups_from_labels, individual_groups,
                    make_panel, pooled_groups, single_block, validate_panel)
from .estimation import (FitResult, GroupedTimeFit, ModelSpec, TwfeFit,
                         fit_grouped_time, fit_linear_cells, fit_model,
                         fit_profile_mle, fit_twfe, foc_residuals)
from .classic import (ClassicComponents, classic_components, omega2_hybrid,
                      run_classic_test)
from .twfe import (TwfeTestComponents, bias_hat, omega2_twfe, qlr_twfe,
                   run_twfe_test, sigma2_u_direct, twfe_components)
from .report import TestReport, render_csv, render_json, to_document
from .montecarlo import (DgpConfig, McResult, Summary, block_groups, generate,
                         local_power_curve, run_replications, summarize)
from .stats import binomial_se, ks_distance, normal_cdf, normal_quantile

__all__ = [
    # errors
    "ConfigError", "DomainError", "Empty", "EmptyGroup", "GroupDrift",
    "GroupingViolation", "NoConvergence", "NonFinite", "OutOfRange",
    "PanelVuongError", "ParseError", "RankDeficient", "SingularInformation",
    "TooSmall", "Unbalanced",
    # families
    "LikelihoodFamily", "check_derivatives", "eval_derivatives", "eval_psi",
    "gaussian_fixed_scale", "gaussian_full_scale",
    # panel
    "GroupMap", "PanelData", "TimeGroupMap", "blocks_from_sizes",
    "group_partition", "groups_from_labels", "individual_groups", "make_panel",
    "pooled_groups", "single_block", "validate_panel",
    # estimation
    "FitResult", "GroupedTimeFit", "ModelSpec", "TwfeFit", "fit_grouped_time",
    "fit_linear_cells", "fit_model", "fit_profile_mle", "fit_twfe",
    "foc_residuals",
    # classic
    "ClassicComponents", "classic_components", "omega2_hybrid",
    "run_classic_test",
    # twfe
    "TwfeTestComponents", "bias_hat", "omega2_twfe", "qlr_twfe",
    "run_twfe_test", "sigma2_u_direct", "twfe_components",
    # report
    "TestReport", "render_csv", "render_json", "to_document",
    # montecarlo
    "DgpConfig", "McResult", "Summary", "block_groups", "generate",
    "local_power_curve", "run_replications", "summarize",
    # stats
    "binomial_se", "ks_distance", "normal_cdf", "normal_quantile",
]

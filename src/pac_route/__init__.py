"""Risk-controlled routing between a thinking and a non-thinking model.

The library calibrates per-group uncertainty thresholds with statistical
upper confidence bounds so that the extra loss of routing easy inputs to the
cheap model stays below a tolerance with high probability, optionally learns
the groups by clustering the uncertainty scores, and verifies the guarantees
by Monte Carlo simulation against populations with known risk.
"""

__version__ = "0.1.0"

from .calibration import (
    CHEAP,
    GROUP_ALL,
    MODES,
    POLICY_VERSION,
    THINK,
    CalibrationReport,
    GroupThreshold,
    LabelAssigner,
    Partition,
    PolicyVersionError,
    RouteDecision,
    RoutingPolicy,
    TrivialAssigner,
    calibrate_gpac,
    calibrate_group,
    load_policy,
    route,
    save_policy,
)
from .clustering import ClusterConfig, calibrate_cpac, kmeans_1d
from .estimator import (
    EstimatorConfig,
    UcbCurve,
    ZSamples,
    candidate_grid,
    draw_z_samples,
    hoeffding_delta,
    ucb_clt,
    ucb_hoeffding,
)
from .evaluation import MetricsReport, error_gap, evaluate, stp, trial_error
from .io import load_records
from .records import (
    LossSpec,
    MissingTokensError,
    NoRecordsError,
    RecordColumns,
    RecordTable,
    binary_loss,
    cosine_loss,
    resolve_loss,
)
from .seeding import derive_seed, substream
from .simulation import (
    CoverageReport,
    GroupSpec,
    SyntheticSpec,
    coverage_experiment,
    generate,
    load_spec,
    policy_true_metrics,
    true_risk,
)

__all__ = [
    "__version__",
    "CHEAP", "THINK", "GROUP_ALL", "MODES", "POLICY_VERSION",
    "RecordColumns", "RecordTable", "LossSpec",
    "NoRecordsError", "MissingTokensError",
    "binary_loss", "cosine_loss", "resolve_loss",
    "EstimatorConfig", "ZSamples", "UcbCurve",
    "draw_z_samples", "candidate_grid", "ucb_clt", "ucb_hoeffding",
    "hoeffding_delta",
    "TrivialAssigner", "LabelAssigner", "GroupThreshold", "RoutingPolicy",
    "RouteDecision", "CalibrationReport", "PolicyVersionError",
    "calibrate_group", "calibrate_gpac", "route", "save_policy", "load_policy",
    "Partition", "ClusterConfig", "kmeans_1d", "calibrate_cpac",
    "MetricsReport", "trial_error", "error_gap", "stp", "evaluate",
    "GroupSpec", "SyntheticSpec", "CoverageReport", "load_spec",
    "generate", "true_risk", "policy_true_metrics", "coverage_experiment",
    "load_records",
    "derive_seed", "substream",
]

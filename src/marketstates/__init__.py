"""Market state detection on asset return panels.

Builds a sparse Gaussian model per latent state (correlation structure
filtered to a planar chordal graph, precision assembled clique by clique)
and segments the return series with an exact switching-penalty solver.
"""

from .analysis import (
    RatioSeries,
    StateSummary,
    label_agreement,
    likelihood_ratio,
    suggest_ratio_states,
    summarize,
)
from .errors import (
    ConfigError,
    DataError,
    EstimationError,
    FitError,
    MarketStatesError,
    SingularSubmatrixError,
)
from .ifn import (
    SparsePrecision,
    TmfgGraph,
    build_tmfg,
    logdet_precision,
    logo_precision,
)
from .ingest import (
    PricePanel,
    ReturnsPanel,
    load_price_panel,
    standardize_returns,
    to_log_returns,
)
from .segment import (
    ClusteringConfig,
    ClusterModel,
    FitReport,
    ScoreMatrix,
    StatePath,
    estimate_cluster,
    fit,
    score_states,
    solve_path,
)

__version__ = "0.1.0"

__all__ = [
    "ClusteringConfig",
    "ClusterModel",
    "ConfigError",
    "DataError",
    "EstimationError",
    "FitError",
    "FitReport",
    "MarketStatesError",
    "PricePanel",
    "RatioSeries",
    "ReturnsPanel",
    "ScoreMatrix",
    "SingularSubmatrixError",
    "SparsePrecision",
    "StatePath",
    "StateSummary",
    "TmfgGraph",
    "build_tmfg",
    "estimate_cluster",
    "fit",
    "label_agreement",
    "likelihood_ratio",
    "load_price_panel",
    "logdet_precision",
    "logo_precision",
    "score_states",
    "solve_path",
    "standardize_returns",
    "suggest_ratio_states",
    "summarize",
    "to_log_returns",
    "__version__",
]

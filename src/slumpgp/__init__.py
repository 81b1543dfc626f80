"""Geometric-semantic GP for concrete slump regression, with reference baselines."""

from .baselines import (
    LinearModel,
    LssvmModel,
    StgpConfig,
    lssvm_fit,
    lssvm_predict,
    ols_fit,
    ols_predict,
    stgp_run,
)
from .dataset import Dataset, Sample, SplitSpec, builtin_table1, load_csv, save_csv, split
from .gsgp import (
    GsgpConfig,
    RunResult,
    estimate_size,
    evolve,
)
from .stats import (
    BoxSummary,
    RankSumResult,
    box_summary,
    pearson_r,
    relative_errors,
    rmse,
    wilcoxon_rank_sum,
)

__version__ = "0.1.0"

__all__ = [
    "BoxSummary",
    "Dataset",
    "GsgpConfig",
    "LinearModel",
    "LssvmModel",
    "RankSumResult",
    "RunResult",
    "Sample",
    "SplitSpec",
    "StgpConfig",
    "box_summary",
    "builtin_table1",
    "estimate_size",
    "evolve",
    "load_csv",
    "lssvm_fit",
    "lssvm_predict",
    "ols_fit",
    "ols_predict",
    "pearson_r",
    "relative_errors",
    "rmse",
    "save_csv",
    "split",
    "stgp_run",
    "wilcoxon_rank_sum",
]

"""Geometric-semantic GP for concrete slump regression, with reference baselines."""

from .baselines import StgpConfig, lssvm_outputs, ols_outputs, stgp_run
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
    "lssvm_outputs",
    "ols_outputs",
    "pearson_r",
    "relative_errors",
    "rmse",
    "save_csv",
    "split",
    "stgp_run",
    "wilcoxon_rank_sum",
]

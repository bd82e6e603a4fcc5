"""Combine individually valid, conditionally i.i.d. p-values into one.

The core object is the corrected k-th order statistic: `CombinerSpec.solve`
finds the exact correction for a given (n, k), `combine_pvalues` applies it
to data, and the simulation modules verify by Monte Carlo that the corrected
value is a valid p-value and that nothing smaller is.
"""

from .binom import binom_upper_tail, binom_upper_tail_derivative
from .bcmc import (
    BinaryMatrix,
    ChainConfig,
    checkerboard_score,
    generate_null_matrix,
    serial_pvalue,
)
from .combine import CombineResult, combine_pvalues, default_k, order_statistic
from .correction import CombinerSpec, envelope, solve_combiner, tail_ratio
from .subsample import (
    GroupedDataset,
    PipelineResult,
    make_bcmc_test,
    rank_sum_test,
    run_pipeline,
)
from .validity import (
    SimConfig,
    SimReport,
    adversarial_kernel,
    check_validity,
    tightness_scan,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryMatrix",
    "ChainConfig",
    "CombineResult",
    "CombinerSpec",
    "GroupedDataset",
    "PipelineResult",
    "SimConfig",
    "SimReport",
    "adversarial_kernel",
    "binom_upper_tail",
    "binom_upper_tail_derivative",
    "checkerboard_score",
    "check_validity",
    "combine_pvalues",
    "default_k",
    "envelope",
    "generate_null_matrix",
    "make_bcmc_test",
    "order_statistic",
    "rank_sum_test",
    "run_pipeline",
    "serial_pvalue",
    "solve_combiner",
    "tail_ratio",
    "tightness_scan",
]

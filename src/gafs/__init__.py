"""Genetic-algorithm wrapper feature selection for per-attack DoS detection.

NSL-KDD records are encoded numerically, feature subsets are 41-gene binary
masks, and each mask is scored by training a decision-tree classifier on the
masked training set and measuring ``1 - f_measure`` on the masked test set.

The top level exports the library workflow (load, encode, relabel, search)
and the experiment entry points; everything else lives in the submodules.
"""

from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    emit_reports,
    run_experiment,
    verify_appendix,
)
from .ga import GAConfig, run
from .nslkdd import FeatureMask, build_codebook, encode, parse_file, relabel

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "FeatureMask",
    "GAConfig",
    "build_codebook",
    "emit_reports",
    "encode",
    "parse_file",
    "relabel",
    "run",
    "run_experiment",
    "verify_appendix",
]

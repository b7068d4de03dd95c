"""Bayesian sparse Gaussian graphical models for two-class data.

Jointly estimates class-specific sparse precision matrices, flags
conserved and differential edges via Bayesian FDR, and classifies
unlabeled samples within the same MCMC run.
"""

__version__ = "0.1.0"

from .errors import InputError, NumericalAbort, ValidationError
from .model import (
    CLASS1,
    CLASS2,
    UNKNOWN,
    ChainState,
    Dataset,
    Hyperparameters,
    PriorNetwork,
    apply_prior_network,
    center_mean_prior,
    default_hyperparameters,
    validate_state,
)
from .sampler import ChainConfig, ChainSamples, init_state, run_chain
from .inference import (
    NetworkCall,
    PosteriorSummary,
    call_network,
    fdr_threshold,
    predict_labels,
    summarize,
)
from .baselines import BenchmarkResult, SplitPlan, benchmark
from .synthetic import TrueModel, generate_model, sample_data

__all__ = [
    "CLASS1", "CLASS2", "UNKNOWN",
    "ChainConfig", "ChainSamples", "ChainState", "Dataset",
    "Hyperparameters", "PriorNetwork", "NetworkCall", "PosteriorSummary",
    "BenchmarkResult", "SplitPlan", "TrueModel",
    "InputError", "ValidationError", "NumericalAbort",
    "apply_prior_network", "benchmark", "call_network", "center_mean_prior",
    "default_hyperparameters", "fdr_threshold", "generate_model",
    "init_state", "predict_labels", "run_chain", "sample_data",
    "summarize", "validate_state",
]

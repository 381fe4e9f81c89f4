"""Targeted random projection regression.

High-dimensional prediction by screening-weighted random compression:
predictors are kept with probability proportional to a power of their
marginal utility, the survivors are compressed with a sparse three-point
random projection or a partial-SVD projection, and an exact conjugate
normal-inverse-gamma fit on the compressed features yields point predictions
and Student-t prediction intervals.  Replicated draws of the whole pipeline
are aggregated by simple averaging (or evidence weighting / CV selection).

Each public name imports its module on first access (PEP 562), so ``import
tarpreg`` loads no numpy and ``tarpreg.cli`` can set the BLAS threads first.
"""
import importlib

__version__ = "0.1.0"

_MODULE_OF = {name: module for module, names in {
    "data": "Dataset apply_standardization read_csv standardize write_csv write_matrix_csv",
    "ensemble": "TarpBinaryResult TarpConfig TarpResult ReplicateRecord dataset_seed kfold_mse "
                "run_replicate run_tarp run_tarp_binary screening_probs",
    "errors": "DimensionError IngestionError ParameterError ReplicateError TarpError",
    "metrics": "calibration_msd ecp_width misclass mspe roc_auc",
    "posterior": "CompressedPosterior PredictiveSummary PriorHyper ProbitFit fit_compressed "
                 "log_marginal_likelihood predict predict_probit probit_gibbs sigma2_posterior",
    "projection": "ProjectionMatrix compress gen_pcr_matrix gen_rp_matrix",
    "screening": "GammaMask InclusionProbs default_delta inclusion_probabilities "
                 "marginal_utility sample_gamma",
    "simulate": "SchemeSpec SimulatedData generate",
    "studentt": "t_cdf t_interval_halfwidth t_ppf",
}.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    globals()[name] = value = getattr(module, name)
    return value

"""Targeted random projection regression.

High-dimensional prediction by screening-weighted random compression:
predictors are kept with probability proportional to a power of their
marginal utility, the survivors are compressed with a sparse three-point
random projection or a partial-SVD projection, and an exact conjugate
normal-inverse-gamma fit on the compressed features yields point predictions
and Student-t prediction intervals.  Replicated draws of the whole pipeline
are aggregated by simple averaging (or evidence weighting / CV selection).
"""

__version__ = "0.1.0"

from .data import (Dataset, apply_standardization, read_csv, standardize,
                   write_csv, write_matrix_csv)
from .ensemble import (TarpBinaryResult, TarpConfig, TarpResult, ReplicateRecord,
                       dataset_seed, kfold_mse, replicate_stream, run_replicate,
                       run_tarp, run_tarp_binary, screening_probs, substream)
from .errors import (DimensionError, IngestionError, ParameterError,
                     ReplicateError, TarpError)
from .metrics import calibration_msd, ecp_width, misclass, mspe, roc_auc
from .posterior import (CompressedPosterior, PredictiveSummary, PriorHyper,
                        ProbitFit, fit_compressed, log_marginal_likelihood,
                        predict, predict_probit, probit_gibbs, sigma2_posterior)
from .projection import (ProjectionMatrix, compress, gen_pcr_matrix,
                         gen_rp_matrix, gen_sparse_rp_matrix)
from .screening import (GammaMask, InclusionProbs, default_delta,
                        expected_selection_count, export_screened,
                        inclusion_probabilities, marginal_utility, sample_gamma)
from .simulate import (SchemeSpec, SimulatedData, generate, gen_scheme1,
                       gen_scheme2, gen_scheme3, gen_scheme4, make_response)
from .studentt import t_cdf, t_interval_halfwidth, t_ppf

"""Ensemble orchestration: replicate draws, fits, and aggregation.

One run draws ``n_replicates`` independent configurations (m, psi, gamma, R)
and passes each through ``run_replicate``, the one per-replicate kernel: it
compresses the training rows, fits them (the conjugate posterior for a
continuous response, the probit Gibbs sampler for a binary one) and predicts
the test rows.  ``run_tarp`` combines the Gaussian replicates by simple
averaging (default), evidence-weighted model averaging, or K-fold
cross-validation selection of a single candidate; ``run_tarp_binary``
averages the class-1 probabilities.  Marginal utilities are computed once per
run, never per replicate.

Replicate ``l`` draws from a deterministic substream derived from
(seed, REPLICATE, l), so results are bit-reproducible regardless of
execution order or worker count, and any replicate of either path can be
re-run alone, with the evidence or cv error its config implies.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

import numpy as np

from ._blas import one_thread
from .data import Dataset, RESPONSE_BINARY, RESPONSE_CONTINUOUS, all_finite
from .errors import (DimensionError, IngestionError, ParameterError, ReplicateError,
                     TarpError)
from .posterior import (CompressedPosterior, PriorHyper, fit_compressed,
                        log_marginal_likelihood, predict, predict_probit, probit_gibbs)
from .projection import compress, gen_pcr_matrix, gen_rp_matrix
from .screening import (GammaMask, InclusionProbs, inclusion_probabilities, default_delta,
                        marginal_utility, sample_gamma)

BACKEND_RP = "ris-rp"
BACKEND_PCR = "ris-pcr"
BACKENDS = (BACKEND_RP, BACKEND_PCR)

AGG_AVERAGE = "average"
AGG_MODEL_AVERAGE = "model-average"
AGG_CV = "cv"
AGGREGATIONS = (AGG_AVERAGE, AGG_MODEL_AVERAGE, AGG_CV)

_DOMAIN_REPLICATE = 1
_DOMAIN_FOLDS = 2
_DOMAIN_DATASET = 3
_K_FOLDS = 5   # cv aggregation's folds


def substream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator for (seed, key...)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(key)))


def dataset_seed(seed: int, index: int) -> int:
    """Published per-dataset seed so any benchmark dataset is re-runnable alone.

    Kept within 48 bits so the value survives a float64 CSV column exactly.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(_DOMAIN_DATASET, index))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 16)


@dataclass(frozen=True)
class TarpConfig:
    backend: str = BACKEND_RP
    delta: object = "auto"            # "auto" (the default rule), or a number >= 0 stored as float
    n_replicates: int = 100
    m_range: Optional[tuple] = None   # default [ceil(2 ln p), floor(3n/4)] clipped to [1, p]
    psi_range: tuple = (0.1, 0.4)
    prior: PriorHyper = field(default_factory=PriorHyper)
    aggregation: str = AGG_AVERAGE
    level: float = 0.5
    seed: int = 0
    probit_iterations: int = 2000
    probit_burnin: int = 500
    keep_replicates: bool = True

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ParameterError(f"backend must be one of {BACKENDS}")
        if self.aggregation not in AGGREGATIONS:
            raise ParameterError(f"aggregation must be one of {AGGREGATIONS}")
        if self.delta != "auto":
            try:
                delta = float(self.delta)
            except (TypeError, ValueError):
                delta = float("nan")
            if not delta >= 0:
                raise ParameterError(f"delta must be 'auto' or a number >= 0, got {self.delta!r}")
            object.__setattr__(self, "delta", delta)
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 1 << 64):
            raise ParameterError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if self.n_replicates < 1:
            raise ParameterError("n_replicates must be >= 1")
        lo, hi = self.psi_range
        if not (0.0 < lo <= hi <= 0.5):
            raise ParameterError("psi_range must lie within (0, 0.5]")
        if self.m_range is not None:
            mlo, mhi = self.m_range
            if mlo < 1 or mhi < mlo:
                raise ParameterError("m_range must satisfy 1 <= lo <= hi")
        if not 0.0 < self.level < 1.0:
            raise ParameterError("level must lie in (0, 1)")
        if not self.probit_iterations > self.probit_burnin >= 0:
            raise ParameterError("need probit_iterations > probit_burnin >= 0, got "
                                 f"{self.probit_iterations} and {self.probit_burnin}")
        # a setting the backend never reads is an error, not a silent no-op
        if tuple(self.psi_range) != TarpConfig.psi_range and self.backend != BACKEND_RP:
            raise ParameterError(f"psi_range applies only to backend {BACKEND_RP!r}, "
                                 f"not {self.backend!r}")

    def resolved_m_range(self, n: int, p: int) -> tuple:
        if self.m_range is not None:
            lo, hi = int(self.m_range[0]), int(self.m_range[1])
            if lo > p:  # clipping would run m at values the range excludes
                raise ParameterError(f"m_range lower end {lo} exceeds p = {p}")
        else:
            lo = int(np.ceil(2.0 * np.log(p)))
            hi = int(np.floor(3.0 * n / 4.0))
        lo = min(max(lo, 1), p)
        hi = min(max(hi, 1), p)
        if hi < lo:
            raise ParameterError(f"empty m range [{lo}, {hi}] after clipping")
        return lo, hi


@dataclass(frozen=True)
class ReplicateRecord:
    m: int
    m_effective: int
    psi: Optional[float]
    p_gamma: int
    mask_digest: str
    yhat: np.ndarray                     # probabilities on the binary path
    lower: Optional[np.ndarray] = None   # intervals omitted for binary runs
    upper: Optional[np.ndarray] = None
    scale: Optional[np.ndarray] = None   # per-point predictive t scale
    df: Optional[float] = None
    log_evidence: Optional[float] = None
    cv_mse: Optional[float] = None


@dataclass(frozen=True)
class TarpResult:
    yhat: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    per_replicate: Optional[tuple]
    wall_time: float
    phase_times: dict
    weights: Optional[np.ndarray] = None     # model averaging
    cv_mse: Optional[np.ndarray] = None      # cv selection
    selected_replicate: Optional[int] = None

    def __post_init__(self):
        # written as passing conditions so that NaN fails them
        if not (self.lower <= self.upper).all():
            raise TarpError("aggregated interval is not ordered lower <= upper")
        if not ((self.lower <= self.yhat) & (self.yhat <= self.upper)).all():
            raise TarpError("aggregated point prediction escaped its interval")


@dataclass(frozen=True)
class TarpBinaryResult:
    prob: np.ndarray
    per_replicate: Optional[tuple]
    wall_time: float
    phase_times: dict


@dataclass(frozen=True)
class ReplicateDraw:
    """One replicate's (m, psi, gamma); projection and probit sampler continue ``rng``."""
    m: int
    psi: Optional[float]
    mask: GammaMask
    rng: np.random.Generator


def screening_probs(train: Dataset, cfg: TarpConfig) -> InclusionProbs:
    """Inclusion probabilities from the training data; pure in (train, cfg)."""
    delta = default_delta(train.n, train.p) if cfg.delta == "auto" else cfg.delta
    return inclusion_probabilities(marginal_utility(train), delta)


def draw_replicate(train: Dataset, cfg: TarpConfig, probs: InclusionProbs,
                   index: int) -> ReplicateDraw:
    """m, then psi (ris-rp only), then gamma, from replicate ``index``'s substream."""
    rng = substream(cfg.seed, _DOMAIN_REPLICATE, index)
    m_lo, m_hi = cfg.resolved_m_range(train.n, train.p)
    m = int(rng.integers(m_lo, m_hi + 1))
    psi = float(rng.uniform(*cfg.psi_range)) if cfg.backend == BACKEND_RP else None
    return ReplicateDraw(m, psi, sample_gamma(probs, rng), rng)


def run_replicate(train: Dataset, X_new: np.ndarray, cfg: TarpConfig, index: int,
                  probs: Optional[InclusionProbs] = None,
                  phase: Optional[dict] = None) -> ReplicateRecord:
    """One (m, psi, gamma, R) draw, fit on all training rows, test prediction.

    A continuous response gets the conjugate fit, its log evidence under
    model-average and its K-fold error under cv; a binary response gets the
    probit Gibbs sampler, which continues the replicate's generator.  Every
    input comes from (train, cfg) and the generator from (cfg.seed, index), so
    a single replicate reproduces exactly what a full run computes at that index.
    """
    if probs is None:  # called alone: the run's checks first
        probs = _checked_probs(train, X_new, cfg)
    t0 = time.perf_counter()
    draw = draw_replicate(train, cfg, probs, index)
    mask = draw.mask
    t1 = time.perf_counter()
    if cfg.backend == BACKEND_RP:
        proj = gen_rp_matrix(mask.p_gamma, draw.m, draw.psi, draw.rng,
                             column_map=mask.selected)
    else:
        proj = gen_pcr_matrix(train.X[:, mask.selected], draw.m, column_map=mask.selected)
    Z = compress(train.X, proj)
    t2 = time.perf_counter()
    if train.response_kind == RESPONSE_BINARY:
        fit = probit_gibbs(Z, train.y, cfg.probit_iterations, cfg.probit_burnin, draw.rng)
        t3 = time.perf_counter()
        out = dict(yhat=predict_probit(fit, compress(X_new, proj)))
    else:
        y_offset = float(train.y.mean())
        y_fit = train.y - y_offset
        post = fit_compressed(Z, y_fit, cfg.prior)
        log_ev = log_marginal_likelihood(post) if cfg.aggregation == AGG_MODEL_AVERAGE else None
        cv = None
        if cfg.aggregation == AGG_CV:
            fold_plan = substream(cfg.seed, _DOMAIN_FOLDS).permutation(train.n)
            cv = kfold_mse(Z, y_fit, post, _K_FOLDS, fold_plan)
        t3 = time.perf_counter()
        summary = predict(post, compress(X_new, proj), cfg.level)
        out = dict(yhat=summary.mean + y_offset, lower=summary.lower + y_offset,
                   upper=summary.upper + y_offset, scale=summary.marginal_scale,
                   df=summary.df, log_evidence=log_ev, cv_mse=cv)
    t4 = time.perf_counter()
    if phase is not None:
        phase["screen"] += t1 - t0
        phase["project"] += t2 - t1
        phase["fit"] += t3 - t2
        phase["predict"] += t4 - t3
    return ReplicateRecord(m=draw.m, m_effective=proj.m, psi=draw.psi,
                           p_gamma=mask.p_gamma, mask_digest=mask.digest(), **out)


def _run_replicates(train: Dataset, X_new: np.ndarray, cfg: TarpConfig):
    """Check and screen once, then run every replicate in index order; (records, phase times)."""
    with one_thread():
        t0 = time.perf_counter()
        probs = _checked_probs(train, X_new, cfg)
        phase = {"screen": time.perf_counter() - t0, "project": 0.0, "fit": 0.0, "predict": 0.0}
        records = []
        for l in range(cfg.n_replicates):
            try:
                records.append(run_replicate(train, X_new, cfg, l, probs=probs, phase=phase))
            except Exception as exc:  # no silent skipping
                raise ReplicateError(l, cfg.seed, exc) from exc
    return records, phase


def run_tarp(train: Dataset, X_new: np.ndarray, cfg: TarpConfig) -> TarpResult:
    """Full ensemble run on a standardized training set and pre-transformed test rows."""
    if train.response_kind != RESPONSE_CONTINUOUS:
        raise ParameterError("run_tarp is the Gaussian path; use run_tarp_binary")
    started = time.perf_counter()
    records, phase = _run_replicates(train, X_new, cfg)

    yhats = np.stack([r.yhat for r in records])
    lowers = np.stack([r.lower for r in records])
    uppers = np.stack([r.upper for r in records])
    weights = cv_mse = selected = None
    if cfg.aggregation == AGG_AVERAGE:
        yhat, lower, upper = yhats.mean(axis=0), lowers.mean(axis=0), uppers.mean(axis=0)
    elif cfg.aggregation == AGG_MODEL_AVERAGE:
        log_ev = np.array([r.log_evidence for r in records])
        w = np.exp(log_ev - log_ev.max())
        weights = w / w.sum()
        yhat = weights @ yhats
        lower, upper = weights @ lowers, weights @ uppers
    else:
        cv_mse = np.array([r.cv_mse for r in records])
        selected = int(np.argmin(cv_mse))
        yhat, lower, upper = yhats[selected], lowers[selected], uppers[selected]

    return TarpResult(
        yhat=yhat, lower=lower, upper=upper,
        per_replicate=tuple(records) if cfg.keep_replicates else None,
        wall_time=time.perf_counter() - started, phase_times=phase,
        weights=weights, cv_mse=cv_mse, selected_replicate=selected)


def run_tarp_binary(train: Dataset, X_new: np.ndarray, cfg: TarpConfig) -> TarpBinaryResult:
    """Binary path: probit Gibbs per replicate, simple average of probabilities."""
    if train.response_kind != RESPONSE_BINARY:
        raise ParameterError("run_tarp_binary requires a binary response")
    started = time.perf_counter()
    records, phase = _run_replicates(train, X_new, cfg)
    return TarpBinaryResult(
        prob=np.stack([r.yhat for r in records]).mean(axis=0),
        per_replicate=tuple(records) if cfg.keep_replicates else None,
        wall_time=time.perf_counter() - started, phase_times=phase)


def kfold_mse(Z: np.ndarray, y: np.ndarray, post: CompressedPosterior, k: int,
              fold_plan: np.ndarray) -> float:
    """Mean over K folds of the mean squared validation error of the conjugate fit.

    Folds are contiguous blocks of ``fold_plan``, a permutation of the n rows
    shared across candidates; k = n gives leave-one-out.  ``post`` is the fit
    on all n rows of (Z, y), and no fold refits: with the hat matrix
    H = Z (Z'Z + I)^{-1} Z', the fit without the rows v leaves the residuals
    (I - H_vv)^{-1} (y_v - Z_v mu) on them, and H_vv is read off the columns v
    of L^{-1} Z', L^{-1} being the fit's inverse factor.
    """
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, m = Z.shape
    if (post.n, post.m) != (n, m) or y.shape != (n,):
        raise DimensionError("kfold_mse needs the posterior fitted on (Z, y)")
    if k < 2:
        raise ParameterError("k must be >= 2")
    if k > n:
        raise ParameterError("k cannot exceed n")
    fold_plan = np.asarray(fold_plan)
    if not np.array_equal(np.sort(fold_plan), np.arange(n)):
        raise ParameterError("fold_plan must be a permutation of the n rows")
    G, resid = post.chol_inv @ Z.T, y - Z @ post.mu_t         # H = G'G
    errors = [np.mean(np.linalg.solve(np.eye(v.size) - G[:, v].T @ G[:, v], resid[v]) ** 2)
              for v in np.array_split(fold_plan, k)]
    return float(np.mean(errors))


def _checked_probs(train: Dataset, X_new: np.ndarray, cfg: TarpConfig) -> InclusionProbs:
    """Every check of a run, then its screening probabilities: a replicate run alone
    rejects what the run rejects.  A setting that the path train's response takes
    never reads is an error, not a silent no-op."""
    if not train.standardized:
        raise ParameterError("training data must be standardized first")
    X_new = np.asarray(X_new)
    if X_new.ndim != 2 or X_new.shape[1] != train.p:
        raise DimensionError("X_new must be 2-d with p columns (training statistics applied)")
    if not all_finite(X_new):
        raise IngestionError("X_new contains non-finite entries")
    if train.response_kind == RESPONSE_BINARY:
        path, names = "binary", ("aggregation", "level", "prior.a_sigma", "prior.b_sigma")
    else:
        path, names = "Gaussian", ("probit_iterations", "probit_burnin")
    default = TarpConfig()
    off = [name for name in names if attrgetter(name)(cfg) != attrgetter(name)(default)]
    if off:
        raise ParameterError(f"the {path} path never reads {', '.join(off)}: leave it at its default")
    if cfg.aggregation == AGG_CV and train.n < _K_FOLDS:
        raise ParameterError(f"cv needs at least {_K_FOLDS} training rows, got {train.n}")
    cfg.resolved_m_range(train.n, train.p)  # a bad m range fails the run, not replicate 0
    return screening_probs(train, cfg)

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
re-run alone, with the evidence or cv error its config implies.  So a binary
run splits its chains over two processes (``_in_processes``) and returns the
one-process records bit for bit.
"""
from __future__ import annotations

import os
import pickle
import threading
import time
from contextlib import suppress
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from ._blas import one_thread
from .data import Dataset, RESPONSE_BINARY, RESPONSE_CONTINUOUS
from .errors import (ParameterError, ReplicateError, TarpError, checked_array, checked_int,
                     checked_number, checked_pair)
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
    ss = np.random.SeedSequence(entropy=checked_int("seed", seed, 0, 1 << 64),
                                spawn_key=(_DOMAIN_DATASET, checked_int("index", index, 0)))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 16)


@dataclass(frozen=True)
class TarpConfig:
    backend: str = BACKEND_RP
    delta: object = "auto"            # "auto" (the default rule), or a finite float >= 0
    n_replicates: int = 100
    m_range: Optional[tuple] = None   # default [ceil(2 ln p), floor(3n/4)] clipped to [1, p]
    psi_range: tuple = (0.1, 0.4)
    aggregation: str = AGG_AVERAGE
    level: float = 0.5
    seed: int = 0
    probit_iterations: int = 2000
    probit_burnin: int = 500
    keep_replicates: bool = True
    prior: ClassVar[PriorHyper] = PriorHyper()  # sigma^2's fixed Inv-Gamma(0.02, 0.02)

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ParameterError(f"backend must be one of {BACKENDS}")
        if self.aggregation not in AGGREGATIONS:
            raise ParameterError(f"aggregation must be one of {AGGREGATIONS}")
        if self.delta != "auto":  # a number, or a string that parses as one
            delta = self.delta
            if isinstance(delta, str):
                with suppress(ValueError):
                    delta = float(delta)
            object.__setattr__(self, "delta", checked_number("delta", delta, 0, ends="[)"))
        checked_int("seed", self.seed, 0, 1 << 64)
        checked_int("n_replicates", self.n_replicates, 1)
        checked_pair("psi_range", self.psi_range, checked_number, 0, 0.5, "(]")
        if self.m_range is not None:
            object.__setattr__(self, "m_range", checked_pair("m_range", self.m_range, checked_int, 1))
        checked_number("level", self.level, 0, 1)
        checked_int("probit_iterations", self.probit_iterations, 1)
        checked_int("probit_burnin (below probit_iterations)", self.probit_burnin, 0,
                    self.probit_iterations)
        if not isinstance(self.keep_replicates, bool):  # "no" is truthy
            raise ParameterError(f"keep_replicates must be a bool, got {self.keep_replicates!r}")
        # a setting the backend never reads is an error, not a silent no-op
        if tuple(self.psi_range) != TarpConfig.psi_range and self.backend != BACKEND_RP:
            raise ParameterError(f"psi_range applies only to backend {BACKEND_RP!r}, "
                                 f"not {self.backend!r}")

    def resolved_m_range(self, n: int, p: int) -> tuple:
        if self.m_range is not None:
            lo, hi = self.m_range
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
    processes: int = 1                       # that ran the replicates

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
    processes: int = 1  # that ran the replicates


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
    index = checked_int("index", index, 0)
    if probs is None:  # called alone: the run's checks and thread guard first
        with one_thread():
            return run_replicate(train, X_new, cfg, index,
                                 _checked_probs(train, X_new, cfg), phase)
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


def _run(train: Dataset, X_new: np.ndarray, cfg: TarpConfig, aggregate) -> dict:
    """One run under one thread guard: check and screen once, run every replicate (a binary
    run's in min(2, allowed CPUs) processes; a Gaussian replicate is too short for a fork
    to pay off), then ``aggregate(records)``; its fields plus per_replicate, wall_time,
    phase_times and the processes that ran the replicates.  ``phase`` counts this process's
    own seconds and its wait for the others as "fit", so they stay within the wall time."""
    started = time.perf_counter()
    with one_thread():
        screen_started = time.perf_counter()
        probs = _checked_probs(train, X_new, cfg)
        phase = {"screen": time.perf_counter() - screen_started, "project": 0.0, "fit": 0.0,
                 "predict": 0.0}

        def replicate(l):
            try:
                return run_replicate(train, X_new, cfg, l, probs=probs, phase=phase)
            except Exception as exc:  # no silent skipping
                raise ReplicateError(l, cfg.seed, exc) from exc

        binary = train.response_kind == RESPONSE_BINARY
        if binary:  # the sampler's import, paid once before a fork, not per process
            import scipy.special  # noqa: F401
        records, waited, processes = _in_processes(
            replicate, cfg.n_replicates, min(2, _allowed_cpus()) if binary else 1, "replicates")
        phase["fit"] += waited
        aggregate_started = time.perf_counter()
        fields = aggregate(records)
        phase["aggregate"] = time.perf_counter() - aggregate_started
    return dict(fields, per_replicate=tuple(records) if cfg.keep_replicates else None,
                wall_time=time.perf_counter() - started, phase_times=phase, processes=processes)


def _allowed_cpus() -> int:
    """The CPUs this process may run on (``os.sched_getaffinity``); 1 where that is missing."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _in_processes(task, n: int, k: int, what: str) -> tuple:
    """``[task(0), ..., task(n - 1)]``, the seconds this process waited for the others and the
    processes that ran them: min(k, n), or 1 without ``os.fork`` or ``os.sched_getaffinity``
    or while another thread is alive.  Task l runs in process l mod k: this one is 0, and
    each other is forked once, sends its results and first failure through a pipe and ends
    in ``os._exit``.  The lowest failing index's exception is raised, from another process
    with its traceback as text in ``__notes__``; one that sends nothing is a TarpError
    naming ``what``.  Every child is reaped, killed first if this process fails."""
    k = min(k, n) if (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
                      and threading.active_count() == 1) else 1
    if k == 1:
        return [task(l) for l in range(n)], 0.0, 1
    import signal  # loaded here, not on a one-process run's start-up
    import traceback

    def share(first):  # task(first), task(first + k), ...: results and first failure
        results = []
        for l in range(first, n, k):
            try:
                results.append(task(l))
            except Exception as exc:
                return results, (l, exc)
        return results, None

    pids, pipes = [], []
    try:
        for first in range(1, k):
            read_fd, write_fd = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    results, failure = share(first)
                    if failure is not None:  # the traceback does not pickle; its text does
                        failure[1].__notes__ = ["".join(traceback.format_exception(failure[1]))]
                    with os.fdopen(write_fd, "wb") as fh:
                        pickle.dump((results, failure), fh)
                finally:
                    os._exit(0)  # unsent results are reported by the parent
            os.close(write_fd)
            pids.append(pid)
            pipes.append(os.fdopen(read_fd, "rb"))
        shares = [share(0)]
        wait_started = time.perf_counter()
        for first, fh in enumerate(pipes, 1):
            try:
                shares.append(pickle.load(fh))
            except (EOFError, pickle.UnpicklingError):
                raise TarpError(f"the process running the {what} l = {first} (mod {k}) "
                                "ended without sending them") from None
        waited = time.perf_counter() - wait_started
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fh in pipes:
            fh.close()
        for pid in pids:
            os.waitpid(pid, 0)
    if failures := [failure for _, failure in shares if failure is not None]:
        raise min(failures)[1]  # by index, unique to each failure
    return [shares[l % k][0][l // k] for l in range(n)], waited, k


def run_tarp(train: Dataset, X_new: np.ndarray, cfg: TarpConfig) -> TarpResult:
    """Full ensemble run on a standardized training set and pre-transformed test rows."""
    if train.response_kind != RESPONSE_CONTINUOUS:
        raise ParameterError("run_tarp is the Gaussian path; use run_tarp_binary")

    def aggregate(records):
        yhats = np.stack([r.yhat for r in records])
        lowers = np.stack([r.lower for r in records])
        uppers = np.stack([r.upper for r in records])
        if cfg.aggregation == AGG_AVERAGE:
            return dict(yhat=yhats.mean(axis=0), lower=lowers.mean(axis=0),
                        upper=uppers.mean(axis=0))
        if cfg.aggregation == AGG_MODEL_AVERAGE:
            log_ev = np.array([r.log_evidence for r in records])
            w = np.exp(log_ev - log_ev.max())
            weights = w / w.sum()
            return dict(yhat=weights @ yhats, lower=weights @ lowers, upper=weights @ uppers,
                        weights=weights)
        cv_mse = np.array([r.cv_mse for r in records])
        selected = int(np.argmin(cv_mse))
        return dict(yhat=yhats[selected], lower=lowers[selected], upper=uppers[selected],
                    cv_mse=cv_mse, selected_replicate=selected)

    return TarpResult(**_run(train, X_new, cfg, aggregate))


def run_tarp_binary(train: Dataset, X_new: np.ndarray, cfg: TarpConfig) -> TarpBinaryResult:
    """Binary path: probit Gibbs per replicate, simple average of probabilities."""
    if train.response_kind != RESPONSE_BINARY:
        raise ParameterError("run_tarp_binary requires a binary response")
    return TarpBinaryResult(**_run(train, X_new, cfg, lambda records: dict(
        prob=np.stack([r.yhat for r in records]).mean(axis=0))))


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
    n = post.n  # post is the fit on (Z, y), so it gives their shapes
    Z = checked_array("Z", Z, (n, post.m))
    y = checked_array("y", y, (n,))
    checked_int("k", k, 2, n + 1)
    fold_plan = np.asarray(fold_plan)
    if fold_plan.dtype.kind not in "iu" or not np.array_equal(np.sort(fold_plan), np.arange(n)):
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
    checked_array("X_new", X_new, (None, train.p))
    if train.response_kind == RESPONSE_BINARY:
        path, names = "binary", ("aggregation", "level")
    else:
        path, names = "Gaussian", ("probit_iterations", "probit_burnin")
    default = TarpConfig()
    off = [name for name in names if getattr(cfg, name) != getattr(default, name)]
    if off:
        raise ParameterError(f"the {path} path never reads {', '.join(off)}: leave it at its default")
    if cfg.aggregation == AGG_CV and train.n < _K_FOLDS:
        raise ParameterError(f"cv needs at least {_K_FOLDS} training rows, got {train.n}")
    cfg.resolved_m_range(train.n, train.p)  # a bad m range fails the run, not replicate 0
    return screening_probs(train, cfg)

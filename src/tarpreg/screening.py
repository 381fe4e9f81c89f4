"""Marginal-utility screening: utilities, inclusion probabilities, indicator draws.

Each predictor j gets the Pearson correlation r_j with the response as its
marginal utility (also for binary responses, where it is equivalent to the
two-group t statistic), converted to inclusion probability
q_j = |r_j|^delta / max_k |r_k|^delta, and the screening indicator gamma is a
vector of independent Bernoulli(q_j) draws.  delta = 0 disables screening
(all q_j = 1); the argmax-utility column always has q = 1.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .data import Dataset, _column_blocks
from .errors import DimensionError, IngestionError, ParameterError


@dataclass(frozen=True)
class InclusionProbs:
    q: np.ndarray
    utility: np.ndarray       # the marginal utilities q was built from
    delta: float
    degenerate: bool = False  # all utilities zero; caller decides fallback

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        utility = np.array(self.utility, dtype=np.float64)
        if q.ndim != 1:
            raise DimensionError("q must be a vector")
        if ((q < 0) | (q > 1)).any():
            raise ParameterError("inclusion probabilities must lie in [0, 1]")
        q.setflags(write=False)
        utility.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "utility", utility)


@dataclass(frozen=True)
class GammaMask:
    selected: np.ndarray
    p_gamma: int

    @classmethod
    def from_indicator(cls, gamma: np.ndarray) -> "GammaMask":
        selected = np.flatnonzero(gamma).astype(np.int64)
        selected.setflags(write=False)
        return cls(selected, int(selected.size))

    def digest(self) -> str:
        return hashlib.sha1(self.selected.tobytes()).hexdigest()[:12]


def marginal_utility(data: Dataset) -> np.ndarray:
    """Pearson correlation of each predictor column with the response.

    Requires standardized predictors and n >= 3.  Constant columns (and every
    column when the response is constant) get utility exactly 0.
    """
    if not data.standardized:
        raise ParameterError("marginal_utility expects standardized predictors")
    if data.n < 3:
        raise DimensionError("marginal_utility needs n >= 3")
    with np.errstate(over="ignore", invalid="ignore"):
        yc = data.y - data.y.mean()
        ynorm = np.linalg.norm(yc)
    if not ynorm < np.inf:
        raise IngestionError("the response's sum of squares overflows float64; rescale y")
    if ynorm == 0.0:
        return np.zeros(data.p)
    xnorm = np.empty(data.p)  # np.linalg.norm(X, axis=0) a block at a time; X is centered
    for cols in _column_blocks(data.X):
        xnorm[cols] = np.sqrt(np.add.reduce(np.square(data.X[:, cols]), axis=0))
    denom = np.where(xnorm == 0.0, 1.0, xnorm) * ynorm
    r = (data.X.T @ yc) / denom
    r[xnorm == 0.0] = 0.0
    return np.clip(r, -1.0, 1.0)


def default_delta(n: int, p: int) -> float:
    """Default screening exponent max{0, (1 + ln(p/n)) / 2}."""
    if n < 1 or p < 1:
        raise ParameterError("n and p must be >= 1")
    return max(0.0, (1.0 + np.log(p / n)) / 2.0)


def inclusion_probabilities(r: np.ndarray, delta: float) -> InclusionProbs:
    """q_j = |r_j|^delta normalized by the maximum, so the top column has q = 1.

    delta = 0 gives q = 1 everywhere (screening disabled, the plain
    compressed-regression / PCR limit).  If every utility is zero the result
    is flagged degenerate with q = 0 and the caller chooses a fallback.
    """
    if delta < 0:
        raise ParameterError(f"delta must be >= 0, got {delta}")
    r = np.asarray(r, dtype=np.float64)
    a = np.abs(r)
    if delta == 0.0:
        return InclusionProbs(np.ones_like(a), r, 0.0)
    amax = a.max() if a.size else 0.0
    if amax == 0.0:
        return InclusionProbs(np.zeros_like(a), r, float(delta), degenerate=True)
    return InclusionProbs((a / amax) ** delta, r, float(delta))


def sample_gamma(q: InclusionProbs, rng: np.random.Generator) -> GammaMask:
    """Independent Bernoulli(q_j) draws of the screening indicator, from p uniforms.

    The argmax-utility column has q = 1, so a draw comes back empty only when every
    q is 0 (degenerate); then the argmax column is taken, so the result is never empty.
    """
    gamma = rng.random(q.q.shape[0]) < q.q
    if not gamma.any():
        gamma[int(np.argmax(q.q))] = True
    return GammaMask.from_indicator(gamma)

"""Exact conjugate inference on compressed features.

Model: y = Z theta + e with e ~ N(0, sigma^2 I), prior theta | sigma^2 ~
N(0, sigma^2 I) (a unit theta scale) and sigma^2 ~ Inv-Gamma(a, b).  The
posterior of theta is a scaled multivariate t with df = n + 2a, location
mu = W Z'y and W = (I + Z'Z)^{-1}; sigma^2 is Inv-Gamma(a + n/2,
(y'y - mu' W^{-1} mu)/2 + b); and the predictive at a compressed row z is a
scaled t with the same df, mean z'mu and squared scale
(y'y - mu' W^{-1} mu + 2b)(1 + z' W z) / df.

A fit factors W^{-1} = L L' (lower Cholesky) once and keeps the inverse
factor L^{-1}, built by matrix products since numpy has no triangular solve.
It gives mu = L^{-T} L^{-1} Z'y, z' W z = |L^{-1} z|^2 for all test rows in
one product, log det W (the evidence) from its diagonal, and W on request.

For binary responses a probit data-augmentation Gibbs sampler replaces the
closed form: latent y*_i ~ N(z_i'theta, 1) with y*_i > 0 iff y_i = 1, and
theta | y* ~ N((Z'Z + I)^{-1} Z'y*, (Z'Z + I)^{-1}).  Only this binary path
imports ``scipy.special`` (on first use); the Gaussian one needs numpy alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionError, IngestionError, ParameterError, TarpError
from .studentt import t_interval_halfwidth


@dataclass(frozen=True)
class PriorHyper:
    a_sigma: float = 0.02
    b_sigma: float = 0.02

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0 < value < np.inf:  # NaN fails too
                raise ParameterError(f"{f.name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class CompressedPosterior:
    mu_t: np.ndarray         # posterior location, length m
    chol_inv: np.ndarray     # L^{-1}, L the lower Cholesky factor of I + Z'Z
    df: float                # n + 2 a_sigma
    scale_factor: float      # y'y - mu' W^{-1} mu + 2 b_sigma
    n: int
    prior: PriorHyper

    @property
    def m(self) -> int:
        return self.mu_t.shape[0]

    @property
    def W(self) -> np.ndarray:
        """(I + Z'Z)^{-1}, formed from the factor on request."""
        return self.chol_inv.T @ self.chol_inv


@dataclass(frozen=True)
class PredictiveSummary:
    mean: np.ndarray
    marginal_scale: np.ndarray
    df: float
    lower: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True)
class ProbitFit:
    theta_mean: np.ndarray
    theta_draws: np.ndarray  # post-burnin draws, draws x m


def fit_compressed(Z: np.ndarray, y: np.ndarray, prior: PriorHyper) -> CompressedPosterior:
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[0] < 1 or Z.shape[1] < 1:
        raise DimensionError("Z must be n x m with n, m >= 1")
    if y.shape != (Z.shape[0],):
        raise DimensionError("y length must match Z rows")
    if not (np.isfinite(Z).all() and np.isfinite(y).all()):
        raise IngestionError("fit_compressed requires finite inputs")
    n, m = Z.shape
    chol_inv = _lower_inverse(np.linalg.cholesky(Z.T @ Z + np.eye(m)))
    Zty = Z.T @ y
    mu = chol_inv.T @ (chol_inv @ Zty)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
        scale_factor = float(y @ y - mu @ Zty + 2.0 * prior.b_sigma)
    if not 0 < scale_factor < np.inf:  # NaN fails too
        raise TarpError(f"scale factor must be positive and finite, got {scale_factor}")
    return CompressedPosterior(mu, chol_inv, float(n + 2.0 * prior.a_sigma),
                               scale_factor, n, prior)


def sigma2_posterior(post: CompressedPosterior):
    """Inverse-gamma (shape, rate) of sigma^2."""
    return post.prior.a_sigma + post.n / 2.0, post.scale_factor / 2.0


def predict(post: CompressedPosterior, Z_new: np.ndarray, level: float) -> PredictiveSummary:
    """Per-point predictive mean, t scale, and central ``level`` interval.

    Only the marginal scales (diagonal of the predictive scale matrix) are
    formed, never the full n_new x n_new matrix.
    """
    Z_new = np.atleast_2d(np.asarray(Z_new, dtype=np.float64))
    if Z_new.shape[1] != post.m:
        raise DimensionError(f"Z_new has {Z_new.shape[1]} columns, expected {post.m}")
    if not 0.0 < level < 1.0:
        raise ParameterError("level must lie in (0, 1)")
    mean = Z_new @ post.mu_t
    V = Z_new @ post.chol_inv.T              # z' W z = |L^{-1} z|^2, all rows at once
    quad = np.einsum("ij,ij->i", V, V)
    scale = np.sqrt(post.scale_factor * (1.0 + quad) / post.df)
    half = t_interval_halfwidth(level, post.df) * scale
    return PredictiveSummary(mean, scale, post.df, mean - half, mean + half)


def log_marginal_likelihood(post: CompressedPosterior) -> float:
    """Log evidence of the fitted conjugate model, the model-averaging weight.

    Reads log det W off the fit's inverse factor; constant terms are kept so
    the value is comparable across models on the same data.
    """
    n, prior = post.n, post.prior
    log_det_W = 2.0 * float(np.sum(np.log(np.diag(post.chol_inv))))
    return (-(n / 2.0) * np.log(2.0 * np.pi)
            + 0.5 * log_det_W
            + prior.a_sigma * np.log(prior.b_sigma) - math.lgamma(prior.a_sigma)
            + math.lgamma(post.df / 2.0)
            - (post.df / 2.0) * np.log(post.scale_factor / 2.0))


def probit_gibbs(Z: np.ndarray, y: np.ndarray, iterations: int, burnin: int,
                 rng: np.random.Generator) -> ProbitFit:
    """Data-augmentation Gibbs sampler for probit regression on compressed rows.

    Alternates theta | y* ~ N((Z'Z + I)^{-1} Z'y*, (Z'Z + I)^{-1}) with
    truncated-normal updates of the latent y* (positive iff y = 1).  Returns
    the post-burnin mean of theta and the draws.

    The chain runs on the reflected latent w = S y* with S = diag(+-1) from
    the labels, so every w is truncated to [0, inf).  All linear algebra is
    done once: with U'U = Z'Z + I and B = S Z U^{-1}, the chain carries v = U theta,
    so each iteration is two products with one n x m operator, v = B'w + N(0, I)
    and the next latent mean B v; one product maps the kept v back to theta.
    """
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not np.isin(y, (0.0, 1.0)).all():
        raise ParameterError("probit_gibbs requires a binary response in {0, 1}")
    if not iterations > burnin >= 0:
        raise ParameterError("need iterations > burnin >= 0")
    from scipy import special
    n, m = Z.shape
    upper_inv = _lower_inverse(np.linalg.cholesky(Z.T @ Z + np.eye(m))).T  # U = L'
    B = np.where(y == 1.0, 1.0, -1.0)[:, None] * Z @ upper_inv
    e, scratch = np.zeros(n), np.empty((3, n))
    kept_v = np.empty((iterations - burnin, m))
    for it in range(iterations):
        v = B.T @ _truncated_latent(e, rng, special, scratch) + rng.standard_normal(m)
        np.matmul(B, v, out=e)
        if it >= burnin:
            kept_v[it - burnin] = v
    kept = kept_v @ upper_inv.T
    return ProbitFit(kept.mean(axis=0), kept)


def predict_probit(fit: ProbitFit, Z_new: np.ndarray) -> np.ndarray:
    """P(y = 1) = Phi(z' theta), plug-in at the posterior mean of theta."""
    Z_new = np.atleast_2d(np.asarray(Z_new, dtype=np.float64))
    if Z_new.shape[1] != fit.theta_mean.shape[0]:
        raise DimensionError("Z_new column count does not match fit")
    from scipy import special
    return special.ndtr(Z_new @ fit.theta_mean)


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular L by halves: the lower-left block of L^{-1}
    is -L22^{-1} L21 L11^{-1}, so all but the small leaves is matrix products."""
    if L.shape[0] <= 32:
        return np.linalg.inv(L)
    h = L.shape[0] // 2
    out = np.zeros_like(L)
    out[:h, :h], out[h:, h:] = _lower_inverse(L[:h, :h]), _lower_inverse(L[h:, h:])
    out[h:, :h] = -out[h:, h:] @ (L[h:, :h] @ out[:h, :h])
    return out


def _truncated_latent(e: np.ndarray, rng, special, scratch=None) -> np.ndarray:
    """Sample w_i ~ N(e_i, 1) truncated to [0, inf).

    This is the latent y*_i ~ N(eta_i, 1), truncated to (0, inf) if y_i = 1
    and to (-inf, 0] otherwise, reflected by s_i = +-1: e = s eta, y* = s w.
    Inverse-CDF in the complementary tail (stable down to ~1e-300 tail mass);
    below that mass, which means e < -37 (ndtr(-37) = 5.7e-300), the law is
    approximated by the boundary exponential with rate -e.  ``special`` is
    scipy.special.  The rows of a 3 x n ``scratch`` array, if given, hold u,
    the tail mass and w.
    """
    u, q, w = np.empty((3, e.shape[0])) if scratch is None else scratch
    rng.random(out=u)
    special.ndtr(e, out=q)           # mass of N(e, 1) above the truncation point
    special.ndtri(np.maximum(np.multiply(u, q, out=w), 1e-308, out=w), out=w)
    np.subtract(e, w, out=w)
    if np.minimum.reduce(q) < 1e-300:     # one C-level reduction per iteration
        deep = q < 1e-300
        w[deep] = -np.log(u[deep]) / -e[deep]
    return w

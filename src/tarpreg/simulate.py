"""Seeded generators for the four benchmark simulation designs.

* ``ar1``     rows from a stationary AR(1) predictor process,
              corr(x_i, x_j) = rho^|i-j|
* ``block``   (p - 200)/block_size equicorrelated blocks (half at rho_low,
              half at rho_high) plus 200 independent predictors; all but one
              active column sit in high-correlation blocks
* ``pcr``     rank-3 covariance P diag(15^2, 10^2, 7^2) P' with the response
              driven by the leading principal direction; a few training rows
              perturbed to isotropic wide-variance outliers
* ``bridge``  each row is one Brownian-bridge path on (0, t_max), pinned to 0
              at both ends, read at p equispaced interior points and scaled so
              the midpoint standard deviation equals t_max / 4

Unless a scheme defines its own coefficients, ``n_active`` random columns get
coefficient ``coef_value`` and y = X beta + noise_sd * N(0, I).  Generators
emit raw (unstandardized) data; standardization is the caller's step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DimensionError, ParameterError

SCHEME_AR1 = "ar1"
SCHEME_BLOCK = "block"
SCHEME_PCR = "pcr"
SCHEME_BRIDGE = "bridge"
SCHEMES = (SCHEME_AR1, SCHEME_BLOCK, SCHEME_PCR, SCHEME_BRIDGE)


@dataclass(frozen=True)
class SchemeSpec:
    scheme: str
    n: int = 200
    p: int = 2000
    n_test: int = 100
    n_active: int = 50
    coef_value: float = 1.0
    noise_sd: float = 1.0
    rho: float = 0.3                  # ar1
    block_size: int = 100             # block
    rho_low: float = 0.3
    rho_high: float = 0.9
    n_outliers: int = 5               # pcr
    outlier_sd: float = 10.0
    t_max: float = 10.0               # bridge
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ParameterError(f"scheme must be one of {SCHEMES}")
        if self.n < 2 or self.p < 1 or self.n_test < 1:
            raise DimensionError("need n >= 2, p >= 1, n_test >= 1")
        if self.scheme != SCHEME_PCR and self.n_active > self.p:
            raise ParameterError("n_active cannot exceed p")
        # passing conditions, so that NaN fails them
        if not abs(self.rho) < 1:
            raise ParameterError(f"rho must satisfy |rho| < 1, got {self.rho}")
        for name in ("rho_low", "rho_high"):
            if not 0 <= getattr(self, name) <= 1:
                raise ParameterError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        if not self.noise_sd >= 0:
            raise ParameterError(f"noise_sd must be >= 0, got {self.noise_sd}")
        for name in ("outlier_sd", "t_max"):
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.scheme == SCHEME_BLOCK:
            if self.p < 400:
                raise ParameterError("block scheme needs p >= 400")
            if (self.p - 200) % self.block_size:
                raise ParameterError("block_size must divide p - 200")
        if self.scheme == SCHEME_PCR:
            if self.p < 3:
                raise ParameterError("rank-3 scheme needs p >= 3")
            if self.n_outliers >= self.n:
                raise ParameterError("n_outliers must be < n")


@dataclass(frozen=True)
class SimulatedData:
    train: Dataset
    test_X: np.ndarray
    test_y: np.ndarray
    true_beta: np.ndarray
    active_idx: np.ndarray


def generate(spec: SchemeSpec) -> SimulatedData:
    """n training rows, then n_test test rows, drawn from ``spec.seed``; data that
    overflows float64 is a ParameterError, raised before any of it is written."""
    rng = np.random.default_rng(spec.seed)
    design = {SCHEME_AR1: _ar1, SCHEME_BLOCK: _block,
              SCHEME_PCR: _pcr, SCHEME_BRIDGE: _bridge}[spec.scheme]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is the check below
        X, y, beta, active = design(spec, rng, spec.n + spec.n_test)
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        # pcr draws no coef_value: its beta is a unit vector
        a, b = ("noise_sd", "outlier_sd") if spec.scheme == SCHEME_PCR else ("coef_value", "noise_sd")
        raise ParameterError(f"{a} and {b} give non-finite data "
                             f"({a}={getattr(spec, a)}, {b}={getattr(spec, b)})")
    train = Dataset.from_arrays(X[:spec.n], y[:spec.n])
    beta.setflags(write=False)
    active = np.asarray(active, dtype=np.int64)
    active.setflags(write=False)
    return SimulatedData(train, X[spec.n:].copy(), y[spec.n:].copy(), beta, active)


def make_response(X: np.ndarray, beta: np.ndarray, noise_sd: float,
                  rng: np.random.Generator) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if X.shape[1] != beta.shape[0]:
        raise DimensionError("beta length must match X columns")
    return X @ beta + noise_sd * rng.standard_normal(X.shape[0])


def _sparse_linear(spec: SchemeSpec, X, active, rng):
    """beta = coef_value on the active columns, zero elsewhere; y = X beta + noise."""
    beta = np.zeros(spec.p)
    beta[active] = spec.coef_value
    return X, make_response(X, beta, spec.noise_sd, rng), beta, active


def _ar1(spec: SchemeSpec, rng, rows):
    """Stationary AR(1) predictors: x_1 = e_1, x_j = rho x_{j-1} + sqrt(1-rho^2) e_j."""
    X = rng.standard_normal((rows, spec.p))
    X[:, 1:] *= np.sqrt(1.0 - spec.rho ** 2)
    for j in range(1, spec.p):
        X[:, j] += spec.rho * X[:, j - 1]
    active = np.sort(rng.choice(spec.p, spec.n_active, replace=False))
    return _sparse_linear(spec, X, active, rng)


def _block(spec: SchemeSpec, rng, rows):
    """Equicorrelated blocks via the one-factor construction
    x = sqrt(rho) g_block + sqrt(1-rho) e, plus an independent tail of 200."""
    n_blocks = (spec.p - 200) // spec.block_size
    n_low = n_blocks // 2
    X = np.empty((rows, spec.p))
    col = 0
    high_cols = []
    for b in range(n_blocks):
        rho = spec.rho_low if b < n_low else spec.rho_high
        g = rng.standard_normal((rows, 1))
        e = rng.standard_normal((rows, spec.block_size))
        X[:, col:col + spec.block_size] = np.sqrt(rho) * g + np.sqrt(1.0 - rho) * e
        if b >= n_low:
            high_cols.extend(range(col, col + spec.block_size))
        col += spec.block_size
    X[:, col:] = rng.standard_normal((rows, 200))

    if spec.n_active - 1 > len(high_cols):
        raise ParameterError("not enough high-correlation columns for the active set")
    if spec.n_active == 0:
        active = np.empty(0, dtype=np.int64)
    else:
        active_high = rng.choice(np.asarray(high_cols), spec.n_active - 1, replace=False)
        active_tail = rng.integers(col, spec.p)
        active = np.sort(np.append(active_high, active_tail)).astype(np.int64)
    return _sparse_linear(spec, X, active, rng)


def _pcr(spec: SchemeSpec, rng, rows):
    """Rank-3 covariance P diag(15^2,10^2,7^2) P'; beta is the first column of P.

    The first n rows are training rows; n_outliers of them are replaced by
    isotropic N(0, outlier_sd^2) regressors, with their responses regenerated
    through the same model.
    """
    P, _ = np.linalg.qr(rng.standard_normal((spec.p, 3)))
    d_half = np.array([15.0, 10.0, 7.0])
    X = rng.standard_normal((rows, 3)) * d_half @ P.T
    beta = P[:, 0].copy()
    y = make_response(X, beta, spec.noise_sd, rng)
    if spec.n_outliers:
        out_rows = rng.choice(spec.n, spec.n_outliers, replace=False)
        X[out_rows] = spec.outlier_sd * rng.standard_normal((spec.n_outliers, spec.p))
        y[out_rows] = make_response(X[out_rows], beta, spec.noise_sd, rng)
    return X, y, beta, np.empty(0, dtype=np.int64)


def _bridge(spec: SchemeSpec, rng, rows):
    """Brownian-bridge rows on (0, t_max) by the sequential conditional
    construction, pinned to 0 at both ends and scaled so sd at the midpoint
    is t_max / 4."""
    if spec.p < 2:
        raise DimensionError("bridge scheme needs p >= 2")
    T = spec.t_max
    t = T * np.arange(1, spec.p + 1) / (spec.p + 1)
    X = np.empty((rows, spec.p))
    prev = np.zeros(rows)
    t_prev = 0.0
    for j in range(spec.p):
        gap_left = t[j] - t_prev
        gap_right = T - t[j]
        mean = prev * gap_right / (T - t_prev)
        var = gap_left * gap_right / (T - t_prev)
        prev = mean + np.sqrt(var) * rng.standard_normal(rows)
        X[:, j] = prev
        t_prev = t[j]
    X *= np.sqrt(T / 4.0)  # midpoint sd of the raw bridge is sqrt(T)/2
    active = np.sort(rng.choice(spec.p, spec.n_active, replace=False))
    return _sparse_linear(spec, X, active, rng)

"""Seeded generators for the four benchmark simulation designs.

* ``ar1``     rows from a stationary AR(1) predictor process,
              corr(x_i, x_j) = 0.3^|i-j|
* ``block``   (p - 200)/100 equicorrelated blocks of 100 (half at rho 0.3,
              half at rho 0.9) plus 200 independent predictors; all but one
              active column sit in high-correlation blocks
* ``pcr``     rank-3 covariance P diag(15^2, 10^2, 7^2) P' with the response
              driven by the leading principal direction; 5 training rows
              perturbed to isotropic N(0, 10^2) outliers
* ``bridge``  each row is one Brownian-bridge path on (0, 10), pinned to 0
              at both ends, read at p equispaced interior points and scaled so
              the midpoint standard deviation equals 10 / 4

These design constants are fixed.  Unless a scheme defines its own
coefficients, ``n_active`` random columns get coefficient ``coef_value`` and
y = X beta + noise_sd * N(0, I); pcr's beta is the unit leading direction, so
it rejects ``n_active`` and ``coef_value`` off their defaults.  Generators
emit raw (unstandardized) data; standardization is the caller's step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import one_thread
from .data import RESPONSE_CONTINUOUS, Dataset, all_finite
from .errors import DimensionError, IngestionError, ParameterError, checked_int, checked_number

SCHEME_AR1 = "ar1"
SCHEME_BLOCK = "block"
SCHEME_PCR = "pcr"
SCHEME_BRIDGE = "bridge"
SCHEMES = (SCHEME_AR1, SCHEME_BLOCK, SCHEME_PCR, SCHEME_BRIDGE)

_AR1_RHO = 0.3
_BLOCK_SIZE, _BLOCK_RHO_LOW, _BLOCK_RHO_HIGH = 100, 0.3, 0.9
_N_OUTLIERS, _OUTLIER_SD = 5, 10.0  # pcr's outlier training rows
_T_MAX = 10.0  # bridge
_MIN_P = {SCHEME_BLOCK: 400, SCHEME_PCR: 3, SCHEME_BRIDGE: 2}  # two blocks; rank 3; two points


@dataclass(frozen=True)
class SchemeSpec:
    scheme: str
    n: int = 200
    p: int = 2000
    n_test: int = 100
    n_active: int = 50
    coef_value: float = 1.0
    noise_sd: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ParameterError(f"scheme must be one of {SCHEMES}")
        for name, lo in (("n", 2), ("p", 1), ("n_test", 1)):
            checked_int(name, getattr(self, name), lo, error=DimensionError)
        checked_int(f"p for scheme {self.scheme!r}", self.p, _MIN_P.get(self.scheme, 1))
        checked_int("n_active", self.n_active, 0)
        if self.scheme != SCHEME_PCR and self.n_active > self.p:
            raise ParameterError("n_active cannot exceed p")
        checked_number("coef_value", self.coef_value)
        checked_number("noise_sd", self.noise_sd, 0, ends="[)")
        checked_int("seed", self.seed, 0, 1 << 64)
        if self.scheme == SCHEME_BLOCK:
            if (self.p - 200) % _BLOCK_SIZE:
                raise ParameterError(f"block scheme needs p - 200 a multiple of {_BLOCK_SIZE}")
            n_blocks = (self.p - 200) // _BLOCK_SIZE
            n_high = (n_blocks - n_blocks // 2) * _BLOCK_SIZE  # the upper half of the blocks
            if self.n_active - 1 > n_high:  # all active columns but one sit there
                raise ParameterError(f"n_active must be <= {n_high + 1}, one more than the "
                                     f"{n_high} high-correlation columns at p = {self.p}, "
                                     f"got {self.n_active}")
        if self.scheme == SCHEME_PCR:
            if self.n <= _N_OUTLIERS:
                raise ParameterError(f"pcr scheme needs n > {_N_OUTLIERS}, its outlier rows")
            for name in ("n_active", "coef_value"):  # beta is the unit leading direction
                if getattr(self, name) != getattr(SchemeSpec, name):
                    raise ParameterError(f"{name} does not apply to scheme {SCHEME_PCR!r}")


@dataclass(frozen=True)
class SimulatedData:
    train: Dataset
    test_X: np.ndarray
    test_y: np.ndarray
    true_beta: np.ndarray
    active_idx: np.ndarray


def generate(spec: SchemeSpec) -> SimulatedData:
    """n training rows, then n_test test rows, drawn from ``spec.seed``; data that
    overflows float64 is a ParameterError, raised before any of it is written.
    ``train.X`` and ``test_X`` are read-only views of the first n and the last
    n_test rows of one drawn matrix, as are ``train.y`` and ``test_y``.  The
    response is continuous by construction, even when every drawn value is 0 or 1."""
    rng = np.random.default_rng(spec.seed)
    design = {SCHEME_AR1: _ar1, SCHEME_BLOCK: _block,
              SCHEME_PCR: _pcr, SCHEME_BRIDGE: _bridge}[spec.scheme]
    with one_thread(), np.errstate(over="ignore", invalid="ignore"):  # overflow is the check below
        X, y, beta, active = design(spec, rng, spec.n + spec.n_test)
    try:  # from_arrays checks the training rows, and rejects a column whose variance overflows
        train = Dataset.from_arrays(X[:spec.n], y[:spec.n], response_kind=RESPONSE_CONTINUOUS)
        if not (all_finite(X[spec.n:]) and all_finite(y[spec.n:])):
            raise IngestionError("non-finite test rows")
    except IngestionError:  # the design is fixed, so y overflows; pcr's beta is a unit vector
        names = ("noise_sd",) if spec.scheme == SCHEME_PCR else ("coef_value", "noise_sd")
        raise ParameterError(f"{' and '.join(names)} give{'s' * (len(names) == 1)} non-finite "
                             "data (" + ", ".join(f"{a}={getattr(spec, a)}" for a in names) + ")")
    active = np.asarray(active, dtype=np.int64)
    for a in (X, y, beta, active):  # so every view of X and y is read-only too
        a.setflags(write=False)
    return SimulatedData(train, X[spec.n:], y[spec.n:], beta, active)


def _make_response(X, beta, noise_sd, rng):
    return X @ beta + noise_sd * rng.standard_normal(X.shape[0])


def _sparse_linear(spec: SchemeSpec, X, active, rng):
    """beta = coef_value on the active columns, zero elsewhere; y = X beta + noise."""
    beta = np.zeros(spec.p)
    beta[active] = spec.coef_value
    return X, _make_response(X, beta, spec.noise_sd, rng), beta, active


def _ar1(spec: SchemeSpec, rng, rows):
    """Stationary AR(1) predictors: x_1 = e_1, x_j = rho x_{j-1} + sqrt(1-rho^2) e_j."""
    X = rng.standard_normal((rows, spec.p))
    X[:, 1:] *= np.sqrt(1.0 - _AR1_RHO ** 2)
    for j in range(1, spec.p):
        X[:, j] += _AR1_RHO * X[:, j - 1]
    active = np.sort(rng.choice(spec.p, spec.n_active, replace=False))
    return _sparse_linear(spec, X, active, rng)


def _block(spec: SchemeSpec, rng, rows):
    """Equicorrelated blocks via the one-factor construction
    x = sqrt(rho) g_block + sqrt(1-rho) e, plus an independent tail of 200."""
    n_blocks = (spec.p - 200) // _BLOCK_SIZE
    n_low = n_blocks // 2
    X = np.empty((rows, spec.p))
    col = 0
    high_cols = []
    for b in range(n_blocks):
        rho = _BLOCK_RHO_LOW if b < n_low else _BLOCK_RHO_HIGH
        g = rng.standard_normal((rows, 1))
        e = rng.standard_normal((rows, _BLOCK_SIZE))
        X[:, col:col + _BLOCK_SIZE] = np.sqrt(rho) * g + np.sqrt(1.0 - rho) * e
        if b >= n_low:
            high_cols.extend(range(col, col + _BLOCK_SIZE))
        col += _BLOCK_SIZE
    X[:, col:] = rng.standard_normal((rows, 200))

    if spec.n_active == 0:
        active = np.empty(0, dtype=np.int64)
    else:
        active_high = rng.choice(np.asarray(high_cols), spec.n_active - 1, replace=False)
        active_tail = rng.integers(col, spec.p)
        active = np.sort(np.append(active_high, active_tail)).astype(np.int64)
    return _sparse_linear(spec, X, active, rng)


def _pcr(spec: SchemeSpec, rng, rows):
    """Rank-3 covariance P diag(15^2,10^2,7^2) P'; beta is the first column of P.

    The first n rows are training rows; _N_OUTLIERS of them are replaced by
    isotropic N(0, _OUTLIER_SD^2) regressors, with their responses regenerated
    through the same model.
    """
    P, _ = np.linalg.qr(rng.standard_normal((spec.p, 3)))
    d_half = np.array([15.0, 10.0, 7.0])
    X = rng.standard_normal((rows, 3)) * d_half @ P.T
    beta = P[:, 0].copy()
    y = _make_response(X, beta, spec.noise_sd, rng)
    out_rows = rng.choice(spec.n, _N_OUTLIERS, replace=False)
    X[out_rows] = _OUTLIER_SD * rng.standard_normal((_N_OUTLIERS, spec.p))
    y[out_rows] = _make_response(X[out_rows], beta, spec.noise_sd, rng)
    return X, y, beta, np.empty(0, dtype=np.int64)


def _bridge(spec: SchemeSpec, rng, rows):
    """Brownian-bridge rows on (0, T) by the sequential conditional
    construction, pinned to 0 at both ends and scaled so sd at the midpoint
    is T / 4."""
    T = _T_MAX
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

"""Seeded CSV inputs for the ``fit`` workloads, made without tarpreg.

The design is the one ``tarpreg simulate --scheme ar1`` draws: predictors from
a stationary AR(1) process across columns (x_1 = e_1, x_j = rho x_{j-1} +
sqrt(1 - rho^2) e_j, so corr(x_i, x_j) = rho^|i-j|), ``n_active`` columns with
coefficient 1 and unit Gaussian noise.  The numbers come from this module's own
numpy code and are written with a ``%.17g`` writer, so a change to the
program's simulator or CSV writer cannot change what ``fit`` is timed on.
"""
from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

N_TRAIN = 200
N_TEST = 100
P = 2000
N_ACTIVE = 50
RHO = 0.3


@dataclass(frozen=True)
class Split:
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray


def ar1_split(seed: int, index: int, n_train: int = N_TRAIN, n_test: int = N_TEST,
              p: int = P, n_active: int = N_ACTIVE, rho: float = RHO) -> Split:
    """Dataset ``index`` of ``seed``: the same pair always gives the same numbers."""
    rng = np.random.default_rng([seed, index])
    eps = rng.standard_normal((n_train + n_test, p))
    X = np.empty_like(eps)
    X[:, 0] = eps[:, 0]
    innovation = np.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        X[:, j] = rho * X[:, j - 1] + innovation * eps[:, j]
    active = rng.choice(p, n_active, replace=False)
    y = X[:, active].sum(axis=1) + rng.standard_normal(n_train + n_test)
    return Split(X[:n_train], y[:n_train], X[n_train:], y[n_train:])


def binarize(split: Split) -> Split:
    """Threshold the response at the training median (1 above, 0 otherwise)."""
    cut = np.median(split.y_train)
    return Split(split.X_train, (split.y_train > cut).astype(np.float64),
                 split.X_test, (split.y_test > cut).astype(np.float64))


def write_csv(path, X: np.ndarray, y: np.ndarray) -> dict:
    """Write ``x0..x{p-1},y`` with every value as ``%.17g``; return size and sha256."""
    header = ",".join([f"x{j}" for j in range(X.shape[1])] + ["y"])
    np.savetxt(path, np.column_stack([X, y]), fmt="%.17g", delimiter=",",
               header=header, comments="")
    return {"path": os.path.basename(path), "bytes": os.path.getsize(path),
            "sha256": file_sha256(path)}


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()

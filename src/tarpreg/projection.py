"""Projection matrices for compressing the screened design matrix.

Two back-ends produce the m x p_gamma matrix applied to the selected
columns:

* ``rp``   three-point random projection: entries +-1/sqrt(2 psi) with
           probability psi each, 0 with probability 1 - 2 psi
           (psi in (0, 0.5]; psi = 0.5 is the dense +-1 boundary)
* ``pcr``  rows are the leading right singular vectors of X_gamma
           (principal-component projection), orthonormal by construction

Columns outside the screen are never touched: ``compress`` slices the
selected columns and multiplies, so the implicit full R has zero blocks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError, checked_array, checked_int, checked_number


@dataclass(frozen=True)
class ProjectionMatrix:
    entries: np.ndarray            # m x p_gamma, row-major float64
    column_map: np.ndarray         # indices into the original p columns
    m: int                         # effective row count
    rank_truncated: bool = False

    def __post_init__(self):
        cmap = np.asarray(self.column_map)
        if cmap.ndim != 1 or cmap.size and cmap.dtype.kind not in "iu":  # empty stays valid
            raise ParameterError(f"column_map must be a 1-d integer array, got {cmap.dtype} "
                                 f"of shape {cmap.shape}")
        cmap = np.ascontiguousarray(cmap, dtype=np.int64)
        entries = np.ascontiguousarray(
            checked_array("entries", self.entries, (self.m, cmap.shape[0]), finite=False))
        entries.setflags(write=False)
        cmap.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "column_map", cmap)

    @property
    def p_gamma(self) -> int:
        return self.column_map.shape[0]


def gen_rp_matrix(p_gamma: int, m: int, psi: float, rng: np.random.Generator,
                  column_map=None) -> ProjectionMatrix:
    """i.i.d. three-point entries: +-1/sqrt(2 psi) w.p. psi each, else 0, one uniform each."""
    checked_number("psi", psi, 0, 0.5, "(]")
    checked_int("p_gamma", p_gamma, 1, error=DimensionError)
    checked_int("m", m, 1, error=DimensionError)
    u = rng.random((m, p_gamma))
    v = 1.0 / np.sqrt(2.0 * psi)
    entries = np.where(u < psi, v, np.where(u < 2.0 * psi, -v, 0.0))
    return ProjectionMatrix(entries, _cmap(column_map, p_gamma), m=m)


def gen_pcr_matrix(X_gamma: np.ndarray, m: int, column_map=None) -> ProjectionMatrix:
    """Rows are the top-min(m, rank) right singular vectors of X_gamma.

    Thin SVD of X_gamma directly (X'X is never formed).  Row signs are
    normalized so each row's largest-magnitude entry is positive.  If m
    exceeds the numerical rank the effective m is truncated and flagged.
    """
    X_gamma = checked_array("X_gamma", X_gamma, (None, None), finite=False, nonempty=True)
    checked_int("m", m, 1, error=DimensionError)
    _, s, vt = np.linalg.svd(X_gamma, full_matrices=False)
    rank = int((s > s[0] * max(X_gamma.shape) * np.finfo(np.float64).eps).sum())
    m_eff = max(1, min(m, rank))
    rows = vt[:m_eff].copy()
    for row in rows:
        lead = int(np.argmax(np.abs(row)))
        if row[lead] < 0:
            row *= -1.0
    return ProjectionMatrix(rows, _cmap(column_map, X_gamma.shape[1]), m=m_eff,
                            rank_truncated=m_eff < m)


def compress(X: np.ndarray, proj: ProjectionMatrix) -> np.ndarray:
    """Z = X[:, column_map] @ entries'; columns outside the screen never enter."""
    X = checked_array("X", X, (None, None), finite=False)
    cmap = proj.column_map
    if cmap.size and (cmap.min() < 0 or cmap.max() >= X.shape[1]):
        raise DimensionError("column_map index outside X columns")
    return X[:, cmap] @ proj.entries.T


def _cmap(column_map, p_gamma: int) -> np.ndarray:
    return np.arange(p_gamma, dtype=np.int64) if column_map is None else column_map

"""Student-t distribution function and quantiles for predictive intervals.

Thin checked wrappers over ``scipy.special.stdtr`` (the CDF) and
``scipy.special.stdtrit`` (its inverse in the probability).  Non-integer
degrees of freedom are supported; df = 1 is Cauchy (quartile exactly 1).
"""
from __future__ import annotations

import numpy as np
from scipy import special

from .errors import ParameterError


def t_cdf(x, df):
    """P(T <= x) for T Student-t with df > 0 degrees of freedom."""
    if df <= 0:
        raise ParameterError("df must be positive")
    return special.stdtr(df, x)


def t_ppf(prob, df):
    """Quantile of the Student-t: inverse of ``t_cdf`` in its first argument."""
    if df <= 0:
        raise ParameterError("df must be positive")
    prob = np.asarray(prob, dtype=np.float64)
    if ((prob <= 0) | (prob >= 1)).any():
        raise ParameterError("probability must lie strictly in (0, 1)")
    out = special.stdtrit(df, prob)
    return float(out) if out.ndim == 0 else out


def t_interval_halfwidth(level, df):
    """Half-width multiplier of a central ``level`` interval: upper-tail quantile."""
    if not 0.0 < level < 1.0:
        raise ParameterError("level must lie in (0, 1)")
    return float(t_ppf((1.0 + level) / 2.0, df))

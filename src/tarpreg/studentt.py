"""Student-t distribution function and quantiles for predictive intervals.

The quantile needs only ``math``: for t > 0, P(|T| > t) = I_x(df/2, 1/2) with
x = df / (df + t^2), whose continued fraction is evaluated by the modified
Lentz method (Press et al., *Numerical Recipes*, 3rd ed., section 6.4).
Safeguarded Newton steps in log t on the log of the smaller of P(|T| > t) and
P(|T| < t) find it, once per (probability, df) and process.  At large df,
where the continued fraction loses accuracy, the four-term Cornish-Fisher
expansion of Hill (1970) around the normal quantile takes over wherever its
first neglected term is below 1e-16 relative.  The CDF serves only the
acceptance gate's round-trip check of the quantile, t_cdf(t_ppf(p)) = p; it
imports ``scipy.special.stdtr`` on first use.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ParameterError

# B_2k / (2k (2k - 1)): the Stirling series of log Gamma, exact to < 1e-16 from 10 up
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
# Hill (1970), Abramowitz & Stegun 26.7.5: t = z + sum_k g_k(z) / df^k, where
# g_k(z) = z poly_k(z^2) / divisor_k; coefficients in rising powers of z^2.
# Four terms are summed; the fifth only sizes the error of the first four.
_HILL = (((1, 1), 4), ((3, 16, 5), 96), ((-15, 17, 19, 3), 384),
         ((-945, -1920, 1482, 776, 79), 92160),
         ((17955, -765, -1782, 930, 339, 27), 368640))


def t_cdf(x, df):
    """P(T <= x) for T Student-t with df > 0 degrees of freedom."""
    if df <= 0:
        raise ParameterError("df must be positive")
    from scipy.special import stdtr
    return stdtr(df, x)


def t_ppf(prob, df):
    """Quantile of the Student-t: inverse of ``t_cdf`` in its first argument."""
    if not 0 < df < math.inf:
        raise ParameterError("df must be positive and finite")
    prob = np.asarray(prob, dtype=np.float64)
    if not ((prob > 0) & (prob < 1)).all():
        raise ParameterError("probability must lie strictly in (0, 1)")
    out = np.array([_quantile(p, float(df)) for p in prob.ravel().tolist()])
    return float(out[0]) if prob.ndim == 0 else out.reshape(prob.shape)


def t_interval_halfwidth(level, df):
    """Half-width multiplier of a central ``level`` interval: upper-tail quantile."""
    if not 0.0 < level < 1.0:
        raise ParameterError("level must lie in (0, 1)")
    return float(t_ppf((1.0 + level) / 2.0, df))


@lru_cache(maxsize=1024)
def _quantile(p: float, df: float) -> float:
    if p == 0.5:
        return 0.0
    if df > 800.0:                                  # below, Hill's series never qualifies
        from statistics import NormalDist
        z = NormalDist().inv_cdf(p)
        *terms, left_out = (z * sum(c * (z * z) ** i for i, c in enumerate(poly)) / divisor
                            for poly, divisor in _HILL)
        if abs(left_out) * df ** -5 < 1e-16 * abs(z):
            return z + sum(g * df ** -k for k, g in enumerate(terms, 1))
    tail = 2.0 * p if p < 0.5 else 2.0 - 2.0 * p    # P(|T| > t), exact in binary
    side = 0 if tail <= 0.5 else 1                  # solve on the smaller mass
    target = math.log(tail if side == 0 else 1.0 - tail)
    lo, hi, u = -700.0, 700.0, 0.0                  # bracket and iterate in u = log t
    for _ in range(200):
        masses = _log_masses(u, df)
        excess = masses[side] - target
        # d log P(|T| > t) / du = -2 t f(t) / P(|T| > t); the other mass rises as fast
        slope = 2.0 * math.exp(masses[2] - masses[side]) * (1 if side else -1)
        lo, hi = (u, hi) if (excess > 0) == (side == 0) else (lo, u)
        newton = u - excess / slope
        if abs(newton - u) < 1e-13 or hi - lo < 1e-13:  # the latter: stuck at rounding noise
            u = newton if lo <= newton <= hi else u
            break
        u = newton if lo < newton < hi else 0.5 * (lo + hi)
    return math.copysign(math.exp(u) if u < 699.0 else math.inf, p - 0.5)  # inf: past double range


def _log_masses(u: float, df: float) -> tuple:
    """log P(|T| > t), log P(|T| < t) and log(t f(t)) at t = e^u, f the t density."""
    a, lr = 0.5 * df, 2.0 * u - math.log(df)        # lr = log(t^2 / df), finite for any u
    log_x = -max(lr, 0.0) - math.log1p(math.exp(-abs(lr)))  # x = df / (df + t^2)
    x, y = math.exp(log_x), math.exp(lr + log_x)    # y = 1 - x without cancellation
    # log(x^a y^(1/2) / B(a, 1/2)), which is log(t f(t))
    log_tf = (a + 0.5) * log_x + 0.5 * lr + _log_gamma_ratio(a) - 0.5 * math.log(math.pi)
    if x < (a + 1.0) / (a + 2.5):                   # where each continued fraction converges
        log_tail = log_tf + math.log(_beta_cf(a, 0.5, x) / a)
        return log_tail, math.log1p(-math.exp(log_tail)), log_tf
    log_central = log_tf + math.log(2.0 * _beta_cf(0.5, a, y))
    return math.log1p(-math.exp(log_central)), log_central, log_tf


def _beta_cf(a: float, b: float, x: float) -> float:
    """1 / (1 + d_1 / (1 + d_2 / ...)), the continued fraction of I_x(a, b),
    by the modified Lentz method; a zero numerator ends it exactly."""
    f, c, d = 1.0, 1.0, 0.0
    for j in range(1, 100_000):
        m = j // 2
        num = (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)) if j % 2 == 0
               else -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)))
        d = 1.0 / ((1.0 + num * d) or 1e-300)
        c = (1.0 + num / c) or 1e-300
        f *= c * d
        if abs(c * d - 1.0) < 1e-16:
            break
    return 1.0 / f


def _log_gamma_ratio(a: float) -> float:
    """log(Gamma(a + 1/2) / Gamma(a)) without the cancellation of two large log
    Gammas: step a past 10 by Gamma(s + 1) = s Gamma(s), then difference the
    Stirling series."""
    shift = 1.0
    while a < 10.0:
        shift, a = shift * a / (a + 0.5), a + 1.0
    series = sum(c * ((a + 0.5) ** (1 - 2 * k) - a ** (1 - 2 * k))
                 for k, c in enumerate(_STIRLING, 1))
    return a * math.log1p(0.5 / a) + 0.5 * math.log(a) - 0.5 + series + math.log(shift)

import math

import numpy as np
import pytest
from scipy import special, stats

from tarpreg import ParameterError, t_cdf, t_interval_halfwidth, t_ppf


def test_cauchy_quartile_is_one():
    # df = 1 is Cauchy: the 50% central interval has half-width exactly 1
    assert t_interval_halfwidth(0.5, 1.0) == pytest.approx(1.0, abs=1e-10)


def test_roundtrip_inverse_of_cdf():
    for df in (1.0, 1.04, 2.0, 4.7, 30.0, 250.0):
        p = np.linspace(0.001, 0.999, 97)
        back = t_cdf(t_ppf(p, df), df)
        assert np.abs(back - p).max() < 1e-10


def test_matches_reference_quantiles():
    for df in (1.0, 3.3, 11.0, 100.0):
        p = np.array([0.01, 0.25, 0.6, 0.75, 0.95, 0.999])
        assert t_ppf(p, df) == pytest.approx(stats.t.ppf(p, df), rel=1e-9, abs=1e-9)


def test_cdf_matches_reference():
    x = np.array([-8.0, -1.3, 0.0, 0.2, 2.5, 40.0])
    for df in (1.0, 2.5, 60.0):
        assert t_cdf(x, df) == pytest.approx(stats.t.cdf(x, df), abs=1e-12)


def test_quantile_monotone_in_level():
    halves = [t_interval_halfwidth(l, 5.0) for l in (0.1, 0.5, 0.8, 0.99)]
    assert all(np.diff(halves) > 0)


def test_symmetry():
    assert t_ppf(0.2, 7.0) == pytest.approx(-t_ppf(0.8, 7.0), abs=1e-12)
    assert t_ppf(0.5, 7.0) == 0.0


def test_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        t_ppf(0.0, 5.0)
    with pytest.raises(ParameterError):
        t_ppf(0.5, -1.0)
    with pytest.raises(ParameterError):
        t_interval_halfwidth(1.0, 5.0)


def test_matches_stdtrit_on_a_grid():
    # scipy's quantile is relative-accurate only from about 1e-3 away from p = 1/2;
    # test_centre_is_offset_over_density covers the centre
    p = np.geomspace(1e-8, 0.499, 30)
    p = np.concatenate([p, 1.0 - p])
    for df in np.geomspace(0.3, 1e5, 41):
        rel = np.abs(t_ppf(p, df) / special.stdtrit(df, p) - 1.0).max()
        assert rel <= (1e-12 if df <= 1e3 else 1e-10), df


def test_centre_is_offset_over_density():
    # t = (p - 1/2) / f(0) up to a relative O((p - 1/2)^2), f the t density
    for df in (0.3, 1.0, 3.7, 10.0):
        f0 = 1.0 / (math.sqrt(df) * special.beta(df / 2.0, 0.5))
        for p in (0.5 + 1e-12, 0.5 - 1e-10, 0.5 + 1e-7):
            assert t_ppf(p, df) == pytest.approx((p - 0.5) / f0, rel=1e-12)


def test_rejects_nan_and_infinite_arguments():
    for prob, df in ((np.nan, 5.0), (0.5, np.nan), (0.5, np.inf)):
        with pytest.raises(ParameterError):
            t_ppf(prob, df)


def test_large_df_matches_mpmath():
    # past df ~ 1e5 the continued fraction loses digits; the Cornish-Fisher expansion takes
    # over from df ~ 850 (p near 1/2) to 8e3 (p = 1e-8), so 2e3 and 1e4 see both methods
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    p = np.geomspace(1e-8, 0.499, 8)
    p = np.concatenate([p, 1.0 - p])
    for df in (2e3, 1e4, 1e5, 1e6, 1e7, 1e9):
        a = mpmath.mpf(df) / 2

        def cdf(t, target):
            tail = mpmath.betainc(a, 0.5, 0, a * 2 / (a * 2 + t * t), regularized=True) / 2
            return (tail if t < 0 else 1 - tail) - target

        got = t_ppf(p, df)
        for pi, ti in zip(p.tolist(), got.tolist()):
            want = mpmath.findroot(lambda t: cdf(t, mpmath.mpf(pi)), mpmath.mpf(ti))
            assert abs(ti / float(want) - 1.0) <= 1e-13, (df, pi)

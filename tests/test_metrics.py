import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tarpreg import (DimensionError, ParameterError, calibration_msd, ecp_width,
                     misclass, mspe, roc_auc)


def test_mspe_examples():
    y = np.array([1.0, 2.0, 3.0])
    assert mspe(y, y) == 0.0
    assert mspe(y + 2, y) == pytest.approx(4.0)
    assert mspe(np.array([1.0, 2.0]), np.zeros(2)) == pytest.approx(2.5)
    with pytest.raises(DimensionError):
        mspe(np.zeros(2), np.zeros(3))


def test_mspe_zero_iff_equal():
    rng = np.random.default_rng(0)
    a = rng.normal(size=20)
    assert mspe(a, a) == 0.0
    b = a.copy()
    b[3] += 1e-6
    assert mspe(a, b) > 0.0


def test_ecp_width_examples():
    y = np.array([0.0, 1.0, 2.0])
    ecp, width = ecp_width(y - 1, y + 1, y)
    assert ecp == 1.0 and width == pytest.approx(2.0)
    # zero-width intervals at the truth still cover (closed intervals)
    ecp, width = ecp_width(y, y, y)
    assert ecp == 1.0 and width == 0.0
    ecp, _ = ecp_width(np.array([0.0, 5.0, 5.0]), np.array([0.5, 6.0, 6.0]), y)
    assert ecp == pytest.approx(1 / 3)
    with pytest.raises(ParameterError):
        ecp_width(np.array([1.0]), np.array([0.0]), np.array([0.5]))


def test_misclass_examples():
    y = np.array([0.0, 1.0, 1.0, 0.0])
    assert misclass(y, y) == 0.0
    assert misclass(1 - y, y) == 1.0
    # ties at the threshold classify as positive
    assert misclass(np.full(4, 0.5), y) == pytest.approx(0.5)
    with pytest.raises(ParameterError):
        misclass(np.array([1.5]), np.array([1.0]))


def test_roc_auc_examples():
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    labels = np.array([0.0, 0.0, 1.0, 1.0])
    assert roc_auc(scores, labels) == pytest.approx(0.75)
    assert roc_auc(labels, labels) == 1.0
    assert roc_auc(np.full(4, 0.7), labels) == 0.5
    with pytest.raises(ParameterError):
        roc_auc(scores, np.ones(4))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_roc_auc_invariances(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    labels = np.zeros(n)
    labels[: max(1, n // 3)] = 1.0
    rng.shuffle(labels)
    scores = rng.normal(size=n)
    if rng.integers(2):
        scores = np.round(scores, 1)  # ties within and across the classes
    base = roc_auc(scores, labels)
    pos, neg = scores[labels == 1.0], scores[labels == 0.0]
    greater = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    assert base == (greater + ties / 2) / (pos.size * neg.size)
    # invariant under strictly increasing transforms
    assert roc_auc(np.exp(scores / 2), labels) == pytest.approx(base, abs=1e-12)
    assert roc_auc(3 * scores + 5, labels) == pytest.approx(base, abs=1e-12)
    # negating the scores reflects the area
    assert roc_auc(-scores, labels) == pytest.approx(1.0 - base, abs=1e-12)


def test_calibration_msd_examples():
    y0 = np.zeros(10)
    assert calibration_msd(np.full(10, 0.05), y0) == pytest.approx(0.0025)
    assert calibration_msd(np.full(10, 0.95), y0) == pytest.approx(0.9025)
    # empirical rate equal to the midpoint in every nonempty bin
    probs = np.array([0.05] * 20 + [0.75] * 20)
    y = np.array([1.0] * 1 + [0.0] * 19 + [1.0] * 15 + [0.0] * 5)
    assert calibration_msd(probs, y) == pytest.approx(0.0)
    with pytest.raises(DimensionError):
        calibration_msd(np.array([]), np.array([]))


def test_calibration_msd_top_bin_closed():
    assert calibration_msd(np.array([1.0]), np.array([1.0])) == pytest.approx(0.05 ** 2)


def test_ecp_approaches_level_on_well_specified_data():
    # the predictive t intervals are asymptotically calibrated on data drawn
    # from the fitted model family
    from tarpreg import PriorHyper, fit_compressed, predict
    rng = np.random.default_rng(1)
    n, m, n_test, level = 600, 3, 4000, 0.5
    Z = rng.normal(size=(n, m))
    theta = np.array([1.0, -0.7, 0.4])
    y = Z @ theta + rng.normal(size=n)
    post = fit_compressed(Z, y, PriorHyper())
    Znew = rng.normal(size=(n_test, m))
    ynew = Znew @ theta + rng.normal(size=n_test)
    out = predict(post, Znew, level)
    ecp, _ = ecp_width(out.lower, out.upper, ynew)
    se = np.sqrt(level * (1 - level) / n_test)
    assert abs(ecp - level) < 4 * se + 2 * m / n

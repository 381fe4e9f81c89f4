import numpy as np
import pytest

from tarpreg import (Dataset, DimensionError, InclusionProbs, ParameterError, default_delta,
                     inclusion_probabilities, marginal_utility, sample_gamma,
                     standardize)


def _std(X, y):
    return standardize(Dataset.from_arrays(X, y))


def test_utility_of_response_copy_is_one():
    rng = np.random.default_rng(0)
    y = rng.normal(size=20)
    X = np.column_stack([y, -y, rng.normal(size=20)])
    r = marginal_utility(_std(X, y))
    assert r[0] == pytest.approx(1.0)
    assert r[1] == pytest.approx(-1.0)
    assert abs(r[2]) < 1.0


def test_utility_hand_value():
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([1.0, 2.0, 4.0])
    r = marginal_utility(_std(X, y))
    assert r[0] == pytest.approx(0.9819805060619659, abs=1e-12)


def test_utility_zero_for_constant_column_and_needs_n3():
    X = np.column_stack([np.full(5, 2.0), np.arange(5.0)])
    r = marginal_utility(_std(X, np.arange(5.0)))
    assert r[0] == 0.0
    small = _std(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
    with pytest.raises(DimensionError):
        marginal_utility(small)


def test_utility_requires_standardized():
    ds = Dataset.from_arrays(np.random.default_rng(0).normal(size=(5, 2)), np.zeros(5))
    with pytest.raises(ParameterError):
        marginal_utility(ds)


def test_utility_invariant_to_affine_rescaling_of_raw_columns():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    r1 = marginal_utility(_std(X, y))
    r2 = marginal_utility(_std(X * np.array([3.0, 0.1, 40.0, 2.0]) + 7.0, y))
    assert np.abs(r1 - r2).max() < 1e-10


@pytest.mark.parametrize("n,p,expect", [
    (200, 200, 0.5),
    (100, 10, 0.0),
    (200, 2000, (1 + np.log(10.0)) / 2),
])
def test_default_delta(n, p, expect):
    assert default_delta(n, p) == pytest.approx(expect, abs=1e-10)


def test_inclusion_probabilities_example():
    probs = inclusion_probabilities(np.array([0.5, 1.0, 0.25]), 2.0)
    assert probs.q == pytest.approx([0.25, 1.0, 0.0625])
    assert not probs.degenerate


def test_delta_zero_disables_screening():
    probs = inclusion_probabilities(np.array([0.0, 0.3, -0.8]), 0.0)
    assert probs.q.tolist() == [1.0, 1.0, 1.0]


def test_argmax_always_one_and_ties_share_it():
    probs = inclusion_probabilities(np.array([0.4, -0.4, 0.1]), 3.0)
    assert probs.q[0] == 1.0 and probs.q[1] == 1.0
    assert probs.q[2] < 1.0


def test_all_zero_utilities_flagged_degenerate():
    probs = inclusion_probabilities(np.zeros(4), 2.0)
    assert probs.degenerate
    assert probs.q.tolist() == [0.0] * 4


def test_monotonicity_in_abs_utility():
    rng = np.random.default_rng(2)
    r = rng.uniform(-1, 1, size=50)
    for delta in (0.5, 1.0, 2.0, 3.5):
        q = inclusion_probabilities(r, delta).q
        order = np.argsort(np.abs(r))
        assert (np.diff(q[order]) >= -1e-15).all()


def test_increasing_delta_weakly_decreases_q_except_argmax():
    rng = np.random.default_rng(3)
    r = rng.uniform(-1, 1, size=40)
    q1 = inclusion_probabilities(r, 1.0).q
    q2 = inclusion_probabilities(r, 2.5).q
    top = np.argmax(np.abs(r))
    assert q2[top] == 1.0 and q1[top] == 1.0
    assert (q2 <= q1 + 1e-15).all()


def test_sample_gamma_degenerate_corners():
    rng = np.random.default_rng(4)
    all_ones = inclusion_probabilities(np.ones(7), 1.0)
    mask = sample_gamma(all_ones, rng)
    assert mask.p_gamma == 7

    single = inclusion_probabilities(np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.9]), 5.0)
    mask = sample_gamma(single, rng)
    assert mask.selected.tolist() == [5]


def test_sample_gamma_forces_top_column_when_empty():
    probs = inclusion_probabilities(np.zeros(6), 2.0)  # degenerate: q = 0
    mask = sample_gamma(probs, np.random.default_rng(5))
    assert mask.p_gamma == 1
    assert mask.selected.tolist() == [0]


def test_sample_gamma_draws_p_uniforms_once_when_every_q_is_zero():
    probs = inclusion_probabilities(np.zeros(50), 2.0)
    rng, twin = np.random.default_rng(8), np.random.default_rng(8)
    assert sample_gamma(probs, rng).selected.tolist() == [0]
    twin.random(50)
    assert rng.random() == twin.random()


def test_sample_gamma_binomial_mean():
    # q_j = 0.5 for p = 1000: E[count] = 500, sd of the 1e4-draw mean = sqrt(250)/100
    from tarpreg.screening import InclusionProbs
    probs = InclusionProbs(np.full(1000, 0.5), np.full(1000, 0.5), 1.0)
    rng = np.random.default_rng(6)
    counts = [sample_gamma(probs, rng).p_gamma for _ in range(10_000)]
    assert abs(np.mean(counts) - 500.0) < 3 * np.sqrt(250.0) / 100.0


def test_selection_frequency_matches_q():
    rng = np.random.default_rng(7)
    r = rng.uniform(-1, 1, size=12)
    probs = inclusion_probabilities(r, 1.5)
    draws = np.zeros(12)
    n = 10_000
    for _ in range(n):
        draws[sample_gamma(probs, rng).selected] += 1
    freq = draws / n
    se = np.sqrt(np.maximum(probs.q * (1 - probs.q), 1e-12) / n)
    assert (np.abs(freq - probs.q) <= 4 * se + 1e-12).all()


def test_inclusion_probs_reject_nan():
    # the check is a passing condition: NaN lies in no interval
    with pytest.raises(ParameterError, match="inclusion probabilities"):
        InclusionProbs(np.array([0.5, np.nan]), np.zeros(2), 1.0)

import numpy as np
import pytest

from tarpreg import (Dataset, IngestionError, ParameterError, PriorHyper, ReplicateError,
                     TarpConfig, TarpError, TarpResult, apply_standardization,
                     fit_compressed, kfold_mse, run_replicate, run_tarp, run_tarp_binary,
                     screening_probs, standardize)
from tarpreg.simulate import SchemeSpec, generate


def _toy(seed=0, n=60, p=40, n_active=5, noise=1.0):
    data = generate(SchemeSpec("ar1", n=n, p=p, n_test=25, n_active=n_active,
                               noise_sd=noise, seed=seed))
    std = standardize(data.train)
    return std, apply_standardization(std, data.test_X), data


def test_single_replicate_run_equals_that_replicate():
    std, Xn, _ = _toy()
    cfg = TarpConfig(n_replicates=1, seed=11)
    res = run_tarp(std, Xn, cfg)
    rec = run_replicate(std, Xn, cfg, 0)
    assert np.array_equal(res.yhat, rec.yhat)
    assert np.array_equal(res.lower, rec.lower)
    assert np.array_equal(res.upper, rec.upper)


def test_zero_response_predicts_zero_with_symmetric_intervals():
    rng = np.random.default_rng(1)
    train = standardize(Dataset.from_arrays(rng.normal(size=(30, 10)), np.zeros(30),
                                            response_kind="continuous"))
    Xn = apply_standardization(train, rng.normal(size=(8, 10)))
    res = run_tarp(train, Xn, TarpConfig(n_replicates=4, seed=2))
    assert res.yhat == pytest.approx(np.zeros(8))
    assert res.upper == pytest.approx(-res.lower)


def test_bit_reproducible_across_runs():
    std, Xn, _ = _toy(seed=3)
    cfg = TarpConfig(n_replicates=6, seed=9)
    a = run_tarp(std, Xn, cfg)
    b = run_tarp(std, Xn, cfg)
    assert np.array_equal(a.yhat, b.yhat)
    assert np.array_equal(a.lower, b.lower)
    assert np.array_equal(a.upper, b.upper)


def test_delta_zero_selects_everything():
    std, Xn, _ = _toy(seed=4)
    for backend in ("ris-rp", "ris-pcr"):
        cfg = TarpConfig(backend=backend, delta=0.0, n_replicates=3, seed=5)
        probs = screening_probs(std, cfg)
        assert probs.q.tolist() == [1.0] * std.p
        res = run_tarp(std, Xn, cfg)
        assert all(rec.p_gamma == std.p for rec in res.per_replicate)


def test_averaging_linearity():
    std, Xn, _ = _toy(seed=6)
    cfg = TarpConfig(n_replicates=5, seed=13)
    full = run_tarp(std, Xn, cfg)
    singles = [run_replicate(std, Xn, cfg, l) for l in range(5)]
    assert full.yhat == pytest.approx(np.mean([s.yhat for s in singles], axis=0), rel=1e-15)
    assert full.lower == pytest.approx(np.mean([s.lower for s in singles], axis=0), rel=1e-15)


def test_model_average_weights():
    std, Xn, _ = _toy(seed=7)
    cfg = TarpConfig(n_replicates=6, seed=3, aggregation="model-average")
    res = run_tarp(std, Xn, cfg)
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert (res.weights >= 0).all()
    # invariance to a constant shift of every log evidence
    log_ev = np.array([r.log_evidence for r in res.per_replicate])
    w = np.exp(log_ev + 123.0 - (log_ev + 123.0).max())
    assert res.weights == pytest.approx(w / w.sum(), rel=1e-10)


def test_cv_aggregation_picks_minimum():
    std, Xn, _ = _toy(seed=8)
    cfg = TarpConfig(n_replicates=5, seed=4, aggregation="cv", k_folds=4)
    res = run_tarp(std, Xn, cfg)
    assert res.selected_replicate == int(np.argmin(res.cv_mse))
    chosen = res.per_replicate[res.selected_replicate]
    assert np.array_equal(res.yhat, chosen.yhat)


def test_interval_width_monotone_in_level():
    std, Xn, _ = _toy(seed=9)
    lo = run_tarp(std, Xn, TarpConfig(n_replicates=4, seed=6, level=0.5))
    hi = run_tarp(std, Xn, TarpConfig(n_replicates=4, seed=6, level=0.8))
    assert ((hi.upper - hi.lower) > (lo.upper - lo.lower)).all()


def test_mixture_interval_contains_more_than_endpoint_average():
    std, Xn, _ = _toy(seed=10)
    base = TarpConfig(n_replicates=8, seed=7)
    ends = run_tarp(std, Xn, base)
    from dataclasses import replace
    mix = run_tarp(std, Xn, replace(base, pi_method="mixture"))
    assert np.array_equal(ends.yhat, mix.yhat)
    # pooled quantiles widen (or match) averaged endpoints when replicates disagree
    assert ((mix.upper - mix.lower) >= (ends.upper - ends.lower) - 1e-9).all()


def test_sparse_backend_runs():
    std, Xn, _ = _toy(seed=11)
    res = run_tarp(std, Xn, TarpConfig(backend="sparse-ris-rp", kappa=0.5,
                                       n_replicates=3, seed=8))
    assert np.isfinite(res.yhat).all()


def test_requires_standardized_train():
    data = generate(SchemeSpec("ar1", n=30, p=20, n_test=5, n_active=3, seed=0))
    with pytest.raises(ParameterError):
        run_tarp(data.train, data.test_X, TarpConfig(n_replicates=1))


def test_empty_m_range_rejected():
    with pytest.raises(ParameterError):
        TarpConfig(m_range=(5, 2))
    # clipping to [1, p] can empty a user range only if lo > p already
    cfg = TarpConfig(m_range=(30, 60))
    assert cfg.resolved_m_range(100, 40) == (30, 40)


def test_m_range_fails_the_run_before_any_replicate():
    std, Xn, _ = _toy(n=3, p=40)
    with pytest.raises(ParameterError, match="empty m range"):  # [8, 2]: not a ReplicateError
        run_tarp(std, Xn, TarpConfig(n_replicates=2))
    # a user range is never narrowed to values it excludes
    with pytest.raises(ParameterError, match="exceeds p"):
        TarpConfig(m_range=(50, 50)).resolved_m_range(100, 10)


@pytest.mark.parametrize("cls, kwargs", [
    (TarpConfig, {"delta": "abc"}),
    (TarpConfig, {"delta": float("nan")}),
    (PriorHyper, {"b_sigma": float("nan")}),
    (PriorHyper, {"theta_scale": float("inf")}),
    (TarpConfig, {"kappa": float("nan")}),
    (TarpConfig, {"kappa": 1.5}),
    (TarpConfig, {"kappa": 0.0}),
    (TarpConfig, {"probit_iterations": 10, "probit_burnin": 50}),
    (TarpConfig, {"probit_burnin": -1}),
], ids=["delta-abc", "delta-nan", "b_sigma-nan", "theta_scale-inf", "kappa-nan",
        "kappa-1.5", "kappa-0", "burnin-exceeds-iterations", "burnin-negative"])
def test_settings_reject_unparsed_and_non_finite_values(cls, kwargs):
    with pytest.raises(ParameterError):
        cls(**kwargs)


def test_delta_string_is_stored_as_its_float():
    assert TarpConfig(delta="0.5").delta == 0.5
    assert TarpConfig(delta="auto").delta == "auto"


def test_result_rejects_nan_interval_endpoint():
    lower = np.array([np.nan, -1.0])
    with pytest.raises(TarpError):
        TarpResult(np.zeros(2), lower, np.ones(2), None, TarpConfig(), 0.0, {})


def test_replicate_failure_reports_index_and_seed(fail_second_call):
    std, Xn, _ = _toy(seed=12)
    fail_second_call("fit_compressed")
    with pytest.raises(ReplicateError) as err:
        run_tarp(std, Xn, TarpConfig(n_replicates=4, seed=99))
    assert err.value.index == 1
    assert err.value.seed == 99


def test_binary_balanced_symmetric_probabilities():
    rng = np.random.default_rng(13)
    n, p = 60, 12
    X = rng.normal(size=(n, p))
    y = (np.arange(n) % 2).astype(float)  # labels independent of X
    train = standardize(Dataset.from_arrays(X, y))
    Xn = apply_standardization(train, rng.normal(size=(30, p)))
    cfg = TarpConfig(n_replicates=6, seed=3, probit_iterations=300, probit_burnin=100)
    res = run_tarp_binary(train, Xn, cfg)
    assert np.abs(res.prob - 0.5).mean() < 0.2


def test_binary_requires_binary_response():
    std, Xn, _ = _toy(seed=14)
    with pytest.raises(ParameterError):
        run_tarp_binary(std, Xn, TarpConfig(n_replicates=1))


def test_continuous_path_rejects_binary():
    rng = np.random.default_rng(15)
    train = standardize(Dataset.from_arrays(rng.normal(size=(20, 5)),
                                            (rng.random(20) < 0.5).astype(float)))
    with pytest.raises(ParameterError):
        run_tarp(train, np.zeros((2, 5)), TarpConfig(n_replicates=1))


def test_kfold_perfect_fit_is_zero():
    rng = np.random.default_rng(16)
    Z = rng.normal(size=(40, 3)) * 300.0
    beta = np.array([1.0, -2.0, 0.5]) / 300.0
    y = Z @ beta  # order-1 responses, exactly linear, no noise
    got = kfold_mse(Z, y, fit_compressed(Z, y, PriorHyper()), 5,
                    np.random.default_rng(0).permutation(40))
    assert got < 1e-10


def test_kfold_null_candidate_matches_variance():
    rng = np.random.default_rng(17)
    y = rng.normal(size=400)
    Z = np.zeros((400, 1))
    got = kfold_mse(Z, y, fit_compressed(Z, y, PriorHyper()), 5,
                    np.random.default_rng(1).permutation(400))
    assert got == pytest.approx(np.mean(y ** 2), rel=1e-12)  # predicts 0 everywhere


def test_kfold_loo_matches_bruteforce():
    rng = np.random.default_rng(18)
    Z = rng.normal(size=(12, 2))
    y = rng.normal(size=12)
    plan = np.random.default_rng(2).permutation(12)
    got = kfold_mse(Z, y, fit_compressed(Z, y, PriorHyper()), 12, plan)
    errs = []
    for i in plan:
        keep = np.array([j for j in plan if j != i])
        post = fit_compressed(Z[keep], y[keep], PriorHyper())
        errs.append((Z[i] @ post.mu_t - y[i]) ** 2)
    assert got == pytest.approx(np.mean(errs), rel=1e-12)


def _null_fit(n=5):
    return fit_compressed(np.zeros((n, 1)), np.zeros(n), PriorHyper())


def test_kfold_validates_k():
    with pytest.raises(ParameterError):
        kfold_mse(np.zeros((5, 1)), np.zeros(5), _null_fit(), 6, np.arange(5))
    with pytest.raises(ParameterError):
        kfold_mse(np.zeros((5, 1)), np.zeros(5), _null_fit(), 1, np.arange(5))


def test_kfold_rejects_plan_that_is_not_a_permutation():
    with pytest.raises(ParameterError):
        kfold_mse(np.zeros((5, 1)), np.zeros(5), _null_fit(), 2, np.array([0, 1, 2, 3, 3]))
    with pytest.raises(ParameterError):
        kfold_mse(np.zeros((5, 1)), np.zeros(5), _null_fit(), 2, np.arange(4))


def _binary_toy(seed=20, n=40, p=8):
    rng = np.random.default_rng(seed)
    train = standardize(Dataset.from_arrays(rng.normal(size=(n, p)),
                                            (np.arange(n) % 2).astype(float)))
    return train, apply_standardization(train, rng.normal(size=(5, p)))


def test_gaussian_path_rejects_non_finite_test_rows():
    std, Xn, _ = _toy(seed=21)
    for bad in (np.nan, np.inf):
        Xn = Xn.copy()
        Xn[3, 7] = bad
        with pytest.raises(IngestionError):
            run_tarp(std, Xn, TarpConfig(n_replicates=2))


def test_binary_path_rejects_non_finite_test_rows():
    train, Xn = _binary_toy()
    Xn[1, 2] = -np.inf
    with pytest.raises(IngestionError):
        run_tarp_binary(train, Xn, TarpConfig(n_replicates=2, probit_iterations=20,
                                              probit_burnin=5))


@pytest.mark.parametrize("setting", [dict(aggregation="cv"),
                                     dict(aggregation="model-average"),
                                     dict(pi_method="mixture"),
                                     dict(level=0.9)],
                         ids=["cv", "model-average", "mixture", "level"])
def test_binary_path_rejects_settings_it_cannot_honour(setting):
    train, Xn = _binary_toy()
    cfg = TarpConfig(n_replicates=2, probit_iterations=20, probit_burnin=5, **setting)
    with pytest.raises(ParameterError):
        run_tarp_binary(train, Xn, cfg)


@pytest.mark.parametrize("backend", ["ris-rp", "ris-pcr", "sparse-ris-rp"])
def test_binary_single_replicate_equals_that_replicate(backend):
    train, Xn = _binary_toy(seed=22)
    cfg = TarpConfig(backend=backend, n_replicates=4, seed=17, probit_iterations=40,
                     probit_burnin=10)
    res = run_tarp_binary(train, Xn, cfg)
    singles = [run_replicate(train, Xn, cfg, l) for l in range(4)]
    for single, full in zip(singles, res.per_replicate):
        assert (single.m, single.m_effective, single.psi, single.p_gamma, single.mask_digest) \
            == (full.m, full.m_effective, full.psi, full.p_gamma, full.mask_digest)
        assert np.array_equal(single.yhat, full.yhat)
    assert np.array_equal(np.mean([s.yhat for s in singles], axis=0), res.prob)


@pytest.mark.parametrize("aggregation", ["cv", "model-average"])
def test_single_replicate_carries_the_runs_selection_statistic(aggregation):
    std, Xn, _ = _toy(seed=23)
    cfg = TarpConfig(n_replicates=4, seed=21, aggregation=aggregation, k_folds=4)
    res = run_tarp(std, Xn, cfg)
    for l, full in enumerate(res.per_replicate):
        single = run_replicate(std, Xn, cfg, l)
        assert (single.cv_mse, single.log_evidence) == (full.cv_mse, full.log_evidence)
        assert np.array_equal(single.yhat, full.yhat)
    field = "cv_mse" if aggregation == "cv" else "log_evidence"
    assert all(getattr(r, field) is not None for r in res.per_replicate)


def test_binary_replicate_failure_reports_index_and_seed(fail_second_call):
    train, Xn = _binary_toy(seed=24)
    fail_second_call("probit_gibbs")
    with pytest.raises(ReplicateError) as err:
        run_tarp_binary(train, Xn, TarpConfig(n_replicates=3, seed=31, probit_iterations=20,
                                              probit_burnin=5))
    assert (err.value.index, err.value.seed) == (1, 31)

from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tarpreg import (Dataset, DimensionError, IngestionError, ParameterError, PriorHyper,
                     ReplicateError, TarpConfig, TarpError, TarpResult, apply_standardization,
                     fit_compressed, kfold_mse, run_replicate, run_tarp, run_tarp_binary,
                     screening_probs, standardize)
from tarpreg.ensemble import BACKENDS
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
    cfg = TarpConfig(n_replicates=5, seed=4, aggregation="cv")
    res = run_tarp(std, Xn, cfg)
    assert res.selected_replicate == int(np.argmin(res.cv_mse))
    chosen = res.per_replicate[res.selected_replicate]
    assert np.array_equal(res.yhat, chosen.yhat)


@pytest.mark.parametrize("aggregation", ["average", "model-average", "cv"])
def test_center_y_carries_a_response_shift_into_the_predictions(aggregation):
    std, Xn, data = _toy(seed=31)
    shifted = standardize(Dataset.from_arrays(data.train.X, data.train.y + 100.0))
    cfg = TarpConfig(n_replicates=8, seed=5, aggregation=aggregation)
    base, moved = run_tarp(std, Xn, cfg), run_tarp(shifted, Xn, cfg)
    gap = max(np.abs(getattr(moved, k) - getattr(base, k) - 100.0).max()
              for k in ("yhat", "lower", "upper"))
    assert gap <= 1e-12 * 100


@pytest.mark.parametrize("backend", ["ris-rp", "ris-pcr"])
@pytest.mark.parametrize("aggregation", ["average", "model-average"])
def test_permuting_the_training_rows_leaves_the_predictions_unchanged(backend, aggregation):
    # cv is left out: its folds follow the row order
    cfg = TarpConfig(backend=backend, aggregation=aggregation, n_replicates=6, seed=7)
    for seed in range(3):
        std, Xn, data = _toy(seed=40 + seed)
        order = np.random.default_rng(seed).permutation(std.n)
        moved = standardize(Dataset.from_arrays(data.train.X[order], data.train.y[order]))
        base = run_tarp(std, Xn, cfg)
        perm = run_tarp(moved, apply_standardization(moved, data.test_X), cfg)
        for key in ("yhat", "lower", "upper"):
            want = getattr(base, key)
            assert np.abs(getattr(perm, key) - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("delta", ["auto", 0.0, 2.0])
def test_permuting_the_columns_permutes_the_inclusion_probabilities(delta):
    cfg = TarpConfig(delta=delta)
    for seed in range(3):
        data = generate(SchemeSpec("ar1", n=60, p=300, n_test=1, n_active=5, seed=seed))
        order = np.random.default_rng(seed).permutation(300)
        base = screening_probs(standardize(data.train), cfg)
        perm = screening_probs(standardize(Dataset.from_arrays(data.train.X[:, order],
                                                               data.train.y)), cfg)
        assert np.abs(perm.q - base.q[order]).max() <= 1e-12


def test_interval_width_monotone_in_level():
    std, Xn, _ = _toy(seed=9)
    lo = run_tarp(std, Xn, TarpConfig(n_replicates=4, seed=6, level=0.5))
    hi = run_tarp(std, Xn, TarpConfig(n_replicates=4, seed=6, level=0.8))
    assert ((hi.upper - hi.lower) > (lo.upper - lo.lower)).all()


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
    (TarpConfig, {"probit_iterations": 10, "probit_burnin": 50}),
    (TarpConfig, {"probit_burnin": -1}),
    # a seed outside [0, 2**64) used to be taken modulo 2**64, or to fail in numpy
    *[(cls, {**scheme, "seed": seed}) for cls, scheme in ((TarpConfig, {}),
                                                          (SchemeSpec, {"scheme": "ar1"}))
      for seed in (-1, 2 ** 64, float("nan"), 1.5, "3")],
], ids=["delta-abc", "delta-nan", "b_sigma-nan", "burnin-exceeds-iterations",
        "burnin-negative", *[f"{cls}-seed-{seed}" for cls in ("config", "scheme")
                             for seed in ("negative", "2-64", "nan", "float", "str")]])
def test_settings_reject_unparsed_and_non_finite_values(cls, kwargs):
    with pytest.raises(ParameterError, match=list(kwargs)[-1]):
        cls(**kwargs)


def test_largest_seed_is_accepted():
    for seed in (2 ** 64 - 1, np.uint64(2 ** 64 - 1)):
        assert TarpConfig(seed=seed).seed == SchemeSpec("ar1", seed=seed).seed == 2 ** 64 - 1


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
    for k in (12, 4):  # at k < n the folds are blocks of the plan, not of the row order
        got = kfold_mse(Z, y, fit_compressed(Z, y, PriorHyper()), k, plan)
        errs = []
        for v in np.array_split(plan, k):
            keep = np.setdiff1d(plan, v)
            post = fit_compressed(Z[keep], y[keep], PriorHyper())
            errs.append(np.mean((Z[v] @ post.mu_t - y[v]) ** 2))
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
                                     dict(level=0.9),
                                     dict(prior=PriorHyper(a_sigma=3.0)),
                                     dict(prior=PriorHyper(b_sigma=5.0))],
                         ids=["cv", "model-average", "level", "a_sigma", "b_sigma"])
def test_binary_path_rejects_settings_it_cannot_honour(setting):
    train, Xn = _binary_toy()
    cfg = TarpConfig(n_replicates=2, probit_iterations=20, probit_burnin=5, **setting)
    with pytest.raises(ParameterError):
        run_tarp_binary(train, Xn, cfg)


@pytest.mark.parametrize("setting, message", [
    (dict(probit_iterations=3000), "Gaussian path never reads probit_iterations"),
    (dict(probit_burnin=100), "Gaussian path never reads probit_burnin"),
    (dict(prior=PriorHyper(b_sigma=5.0)), "binary path never reads prior.b_sigma"),
], ids=["probit-iterations", "probit-burnin", "binary-b-sigma"])
def test_a_setting_the_path_never_reads_is_named(setting, message):
    if "binary" in message:
        train, Xn = _binary_toy()
        with pytest.raises(ParameterError, match=message):
            run_tarp_binary(train, Xn, TarpConfig(n_replicates=2, **setting))
    else:
        std, Xn, _ = _toy(seed=25)
        with pytest.raises(ParameterError, match=message):
            run_tarp(std, Xn, TarpConfig(n_replicates=2, **setting))


def _off_default(cfg):
    """A value off its default, and off ``cfg``'s, for each TarpConfig and PriorHyper field."""
    return {"backend": "ris-pcr", "delta": 0.5, "n_replicates": cfg.n_replicates + 1,
            "m_range": (2, 4), "psi_range": (0.2, 0.3), "aggregation": "model-average",
            "level": 0.8, "seed": cfg.seed + 1, "probit_iterations": cfg.probit_iterations + 1,
            "probit_burnin": cfg.probit_burnin + 1, "keep_replicates": False,
            "a_sigma": 3.0, "b_sigma": 5.0}


def _same_result(a, b):
    """Equal in every field but the timings, down to each replicate record."""
    if is_dataclass(a):
        return type(a) is type(b) and all(
            _same_result(getattr(a, f.name), getattr(b, f.name))
            for f in fields(a) if f.name not in ("wall_time", "phase_times"))
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same_result, a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("path", ["continuous", "binary"])
def test_every_run_setting_changes_the_result_or_is_rejected(path):
    # a setting the run never reads must not pass silently; this also covers
    # the next field added to TarpConfig or PriorHyper
    if path == "binary":
        (train, Xn), run = _binary_toy(), run_tarp_binary
        base = TarpConfig(n_replicates=2, probit_iterations=40, probit_burnin=10)
        never_read = {"aggregation", "level", "a_sigma", "b_sigma"}
    else:
        (train, Xn, _), run = _toy(seed=26), run_tarp
        base = TarpConfig(n_replicates=2)
        never_read = {"probit_iterations", "probit_burnin"}
    off = _off_default(base)
    prior_fields = {f.name for f in fields(PriorHyper)}
    assert set(off) == {f.name for f in fields(TarpConfig) if f.name != "prior"} | prior_fields
    expected = run(train, Xn, base)
    rejected = set()
    for name, value in off.items():
        assert value != getattr(TarpConfig(), name, getattr(PriorHyper(), name, None)), name
        try:
            cfg = (replace(base, prior=replace(base.prior, **{name: value}))
                   if name in prior_fields else replace(base, **{name: value}))
            result = run(train, Xn, cfg)
        except ParameterError as exc:
            assert name in str(exc), (name, str(exc))
            rejected.add(name)
        else:
            assert not _same_result(expected, result), f"{name}={value!r} changed nothing"
    assert rejected == never_read


@pytest.mark.parametrize("n", [3, 4])
def test_cv_needs_one_training_row_per_fold(n):
    std, Xn, _ = _toy(n=n, p=40)
    cfg = TarpConfig(n_replicates=2, aggregation="cv", m_range=(1, 2))
    with pytest.raises(ParameterError, match=f"cv needs at least 5 training rows, got {n}"):
        run_tarp(std, Xn, cfg)
    with pytest.raises(ParameterError, match="at least 5 training rows"):
        run_replicate(std, Xn, cfg, 0)
    assert run_tarp(std, Xn, replace(cfg, aggregation="average")).yhat.shape == (len(Xn),)


@pytest.mark.parametrize("backend", ["ris-rp", "ris-pcr"])
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
    cfg = TarpConfig(n_replicates=4, seed=21, aggregation=aggregation)
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


def _rejected_run(case):
    """(run, train, X_new, cfg, error, message) for one input that a run rejects."""
    if case == "cv-on-binary":
        train, Xn = _binary_toy()
        return (run_tarp_binary, train, Xn, TarpConfig(aggregation="cv"), ParameterError,
                "the binary path never reads aggregation: leave it at its default")
    std, Xn, data = _toy(n=4 if case == "cv-n-below-5" else 40, p=60)
    bad_rows = Xn.copy()
    bad_rows[1] = {"nan-row": np.nan, "inf-row": np.inf}.get(case, 0.0)
    return run_tarp, *{
        "unstandardized": (data.train, Xn, TarpConfig(), ParameterError,
                           "training data must be standardized first"),
        "wrong-width": (std, Xn[:, :-1], TarpConfig(), DimensionError,
                        "X_new must be 2-d with p columns (training statistics applied)"),
        "nan-row": (std, bad_rows, TarpConfig(), IngestionError,
                    "X_new contains non-finite entries"),
        "inf-row": (std, bad_rows, TarpConfig(), IngestionError,
                    "X_new contains non-finite entries"),
        "probit-settings-on-gaussian": (
            std, Xn, TarpConfig(probit_iterations=9000, probit_burnin=100), ParameterError,
            "the Gaussian path never reads probit_iterations, probit_burnin: leave it at its "
            "default"),
        "cv-n-below-5": (std, Xn, TarpConfig(aggregation="cv", m_range=(1, 2)), ParameterError,
                         "cv needs at least 5 training rows, got 4"),
        "m-range-above-p": (std, Xn, TarpConfig(m_range=(61, 70)), ParameterError,
                            "m_range lower end 61 exceeds p = 60"),
    }[case]


@pytest.mark.parametrize("case", ["unstandardized", "wrong-width", "nan-row", "inf-row",
                                  "probit-settings-on-gaussian", "cv-on-binary",
                                  "cv-n-below-5", "m-range-above-p"])
def test_single_replicate_rejects_what_the_run_rejects(case):
    # a replicate run alone used to skip the input checks: a non-finite test row
    # gave a NaN prediction and interval, with no error
    run, train, Xn, cfg, error, message = _rejected_run(case)
    with pytest.raises(error) as full:
        run(train, Xn, cfg)
    with pytest.raises(TarpError) as alone:
        run_replicate(train, Xn, cfg, 0)
    assert (type(full.value), str(full.value)) == (error, message)
    assert (type(alone.value), str(alone.value)) == (error, message)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), backend=st.sampled_from(BACKENDS),
       aggregation=st.sampled_from(["average", "cv"]))
def test_halving_coef_and_noise_halves_yhat_bit_for_bit(seed, backend, aggregation):
    # model-average is left out: its weights read the prior's fixed b_sigma
    def yhat(scale):
        data = generate(SchemeSpec("ar1", n=40, p=60, n_test=10, n_active=5,
                                   coef_value=scale, noise_sd=scale, seed=seed))
        std = standardize(data.train)
        cfg = TarpConfig(backend=backend, aggregation=aggregation, n_replicates=5, seed=seed)
        return run_tarp(std, apply_standardization(std, data.test_X), cfg).yhat
    assert np.array_equal(yhat(1.0) * 0.5, yhat(0.5))

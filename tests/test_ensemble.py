import os
import re
import threading
import time
import traceback
from dataclasses import fields, is_dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tarpreg import (Dataset, DimensionError, InclusionProbs, IngestionError, ParameterError,
                     PriorHyper, ProbitFit, ProjectionMatrix, ReplicateError, TarpConfig,
                     TarpError, TarpResult, apply_standardization, calibration_msd, compress,
                     default_delta, ecp_width, fit_compressed, gen_pcr_matrix, gen_rp_matrix,
                     inclusion_probabilities, kfold_mse, misclass, mspe, predict,
                     predict_probit, probit_gibbs, roc_auc, run_replicate, run_tarp,
                     run_tarp_binary, screening_probs, standardize, t_interval_halfwidth, t_ppf,
                     write_csv)
from tarpreg import ensemble
from tarpreg.ensemble import BACKENDS, dataset_seed
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
    # each used to pass the check and fail inside the run with a TypeError or ValueError
    (TarpConfig, {"n_replicates": float("nan")}),
    (TarpConfig, {"n_replicates": 2.5}),
    (TarpConfig, {"m_range": (float("nan"), 5)}),
    # a seed outside [0, 2**64) used to be taken modulo 2**64, or to fail in numpy
    *[(cls, {**scheme, "seed": seed}) for cls, scheme in ((TarpConfig, {}),
                                                          (SchemeSpec, {"scheme": "ar1"}))
      for seed in (-1, 2 ** 64, float("nan"), 1.5, "3")],
    # each of these was accepted, or failed with a TypeError or ValueError, or failed
    # later: inside replicate 0, or on the summary JSON after every replicate had run
    (TarpConfig, {"probit_burnin": 10, "probit_iterations": 50.5}),
    (TarpConfig, {"probit_burnin": 10.5}),
    (TarpConfig, {"probit_burnin": False, "probit_iterations": True}),
    (TarpConfig, {"psi_range": (0.1, 0.2, 0.3)}),
    (TarpConfig, {"psi_range": 0.2}),
    (TarpConfig, {"m_range": (3,)}),
    (TarpConfig, {"m_range": 5}),
    (TarpConfig, {"level": "0.5"}),
    (TarpConfig, {"delta": float("inf")}),
    (TarpConfig, {"delta": "1e400"}),
    (PriorHyper, {"a_sigma": "1"}),
    (PriorHyper, {"a_sigma": True}),
    (PriorHyper, {"a_sigma": 1e308}),
    (PriorHyper, {"b_sigma": 1e308}),
    (SchemeSpec, {"scheme": "ar1", "n_active": 2.5}),
    # a truthy "no" kept the replicate records
    (TarpConfig, {"keep_replicates": "no"}),
    (TarpConfig, {"keep_replicates": 1}),
    (TarpConfig, {"keep_replicates": None}),
], ids=["delta-abc", "delta-nan", "b_sigma-nan", "burnin-exceeds-iterations",
        "burnin-negative", "replicates-nan", "replicates-float", "m-range-nan",
        *[f"{cls}-seed-{seed}" for cls in ("config", "scheme")
          for seed in ("negative", "2-64", "nan", "float", "str")],
        "iterations-float", "burnin-float", "iterations-bool", "psi-range-triple",
        "psi-range-scalar", "m-range-single", "m-range-scalar", "level-str", "delta-inf",
        "delta-str-overflows", "a_sigma-str", "a_sigma-bool", "a_sigma-doubles-to-inf",
        "b_sigma-doubles-to-inf", "n-active-float", "keep-replicates-str",
        "keep-replicates-int", "keep-replicates-none"])
def test_settings_reject_unparsed_and_non_finite_values(cls, kwargs):
    with pytest.raises(ParameterError, match=list(kwargs)[-1]):
        cls(**kwargs)


@pytest.mark.parametrize("field", ["n", "p", "n_test"])
def test_scheme_sizes_reject_non_integers(field):
    with pytest.raises(DimensionError, match=rf"^{field} must be an integer"):
        SchemeSpec("ar1", **{field: 40.5})


@pytest.mark.parametrize("call, error, field", [
    (lambda Z, y, post, rng: inclusion_probabilities(np.array([0.5, -0.2]), float("nan")),
     ParameterError, "delta"),
    (lambda Z, y, post, rng: gen_rp_matrix(2.5, 3, 0.2, rng), DimensionError, "p_gamma"),
    (lambda Z, y, post, rng: gen_pcr_matrix(Z, 2.5), DimensionError, "m"),
    (lambda Z, y, post, rng: probit_gibbs(Z, (y > 0).astype(float), 20.5, 5, rng),
     ParameterError, "iterations"),
    (lambda Z, y, post, rng: kfold_mse(Z, y, post, 2.5, np.arange(len(y))),
     ParameterError, "k"),
    (lambda Z, y, post, rng: predict(post, Z, "0.5"), ParameterError, "level"),
    (lambda Z, y, post, rng: t_interval_halfwidth("0.5", 10.0), ParameterError, "level"),
    (lambda Z, y, post, rng: t_ppf(0.75, "10"), ParameterError, "df"),
    *[(lambda Z, y, post, rng, seed=seed: dataset_seed(seed, 0), ParameterError, "seed")
      for seed in (0.7, True, -1, 2 ** 64)],
    *[(lambda Z, y, post, rng, index=index: dataset_seed(0, index), ParameterError, "index")
      for index in (-1, 1.0)],
    *[(lambda Z, y, post, rng, index=index: run_replicate(
        standardize(Dataset.from_arrays(Z.copy(), y)), Z, TarpConfig(), index),
       ParameterError, "index") for index in (True, "1", -1, 1.0)],
    (lambda Z, y, post, rng: gen_rp_matrix(2, 2, 0.3, rng, column_map=np.array([0.5, 2.7])),
     ParameterError, "column_map"),
    (lambda Z, y, post, rng: gen_pcr_matrix(Z, 1, column_map=np.array([True, False])),
     ParameterError, "column_map"),
    (lambda Z, y, post, rng: ProjectionMatrix(np.ones((1, 2)), np.array(["a", "b"]), 1),
     ParameterError, "column_map"),
    (lambda Z, y, post, rng: ProjectionMatrix(np.ones((1, 2)), np.array([[0, 1]]), 1),
     ParameterError, "column_map"),
    (lambda Z, y, post, rng: mspe(["a"], [1.0]), IngestionError, "yhat"),
    (lambda Z, y, post, rng: mspe([[1, 2], [3]], [1.0]), IngestionError, "yhat"),
    (lambda Z, y, post, rng: InclusionProbs(np.ones((2, 2)), np.ones(2), 1.0),
     DimensionError, "q"),
    (lambda Z, y, post, rng: default_delta(0, 5), ParameterError, "n and p"),
], ids=["inclusion-delta-nan", "rp-p-gamma-float", "pcr-m-float", "gibbs-iterations-float",
        "kfold-k-float", "predict-level-str", "halfwidth-level-str", "t-ppf-df-str",
        "dataset-seed-float", "dataset-seed-bool", "dataset-seed-negative", "dataset-seed-2-64",
        "dataset-index-negative", "dataset-index-float", "replicate-index-bool",
        "replicate-index-str", "replicate-index-negative", "replicate-index-float",
        "rp-column-map-float", "pcr-column-map-bool", "column-map-str", "column-map-2d",
        "mspe-yhat-str", "mspe-yhat-ragged", "inclusion-q-2d", "default-delta-n-zero"])
def test_functions_reject_unparsed_and_non_finite_arguments(call, error, field):
    # each was accepted (2.5 folds ran, NaN delta gave NaN probabilities, a float seed or
    # index was truncated, a bool read as 0 or 1) or raised a TypeError or numpy's ValueError
    rng = np.random.default_rng(3)
    Z, y = rng.normal(size=(10, 2)), rng.normal(size=10)
    with pytest.raises(error, match=rf"^{field} must be"):
        call(Z, y, fit_compressed(Z, y, PriorHyper()), rng)


_NAN, _INF = float("nan"), float("inf")
_RULE_MESSAGE = {DimensionError: r"must be (an|a non-empty) array of shape \(",
                 IngestionError: "contains non-finite entries", ParameterError: "must lie in "}
_ARRAY_CASES = {
    # the gaps: each returned NaN or a wrong number, wrote the cells, or raised numpy's error
    "misclass-nan-prob": (lambda a: misclass([_NAN, .9], [1, 1]), IngestionError, "probs"),
    "roc-auc-nan-score": (lambda a: roc_auc([_NAN, .2, .9], [1, 0, 1]), IngestionError, "scores"),
    "calibration-nan-prob": (lambda a: calibration_msd([_NAN, .95], [1, 1]), IngestionError,
                             "probs"),
    "mspe-nan": (lambda a: mspe([_NAN, 1], [0, 1]), IngestionError, "yhat"),
    "ecp-nan-endpoint": (lambda a: ecp_width([_NAN, 0], [1, 1], [.5, .5]), IngestionError,
                         "lower"),
    "ecp-inf-endpoints": (lambda a: ecp_width([-_INF, 0], [1, _INF], [.5, .5]), IngestionError,
                          "lower"),
    "gibbs-y-short": (lambda a: probit_gibbs(a.Z, a.b[:-1], 20, 5, a.rng), DimensionError, "y"),
    "gibbs-z-1d": (lambda a: probit_gibbs(a.Z[:, 0], a.b, 20, 5, a.rng), DimensionError, "Z"),
    "gibbs-z-nan": (lambda a: probit_gibbs(a.Z_nan, a.b, 20, 5, a.rng), IngestionError, "Z"),
    "predict-probit-nan-row": (lambda a: predict_probit(a.fit, a.Z_nan), IngestionError,
                               "Z_new"),
    "kfold-z-nan": (lambda a: kfold_mse(a.Z_nan, a.y, a.post, 2, np.arange(10)),
                    IngestionError, "Z"),
    "standardize-nan-row": (lambda a: apply_standardization(a.std, a.X_nan), IngestionError,
                            "new_X"),
    "write-csv-nan-inf-column": (lambda a: write_csv(a.path, [[1, 2], [_NAN, -_INF]], ["a", "b"]),
                                 IngestionError, "columns[1] ('b')"),
    # one wrong-ndim and one wrong-length case per routed function
    "fit-z-1d": (lambda a: fit_compressed(a.Z[:, 0], a.y, PriorHyper()), DimensionError, "Z"),
    "fit-y-short": (lambda a: fit_compressed(a.Z, a.y[:-1], PriorHyper()), DimensionError, "y"),
    "predict-z-1d": (lambda a: predict(a.post, a.Z[0], 0.5), DimensionError, "Z_new"),
    "predict-z-wide": (lambda a: predict(a.post, a.X, 0.5), DimensionError, "Z_new"),
    "gibbs-label-2": (lambda a: probit_gibbs(a.Z, 2 * a.b, 20, 5, a.rng), ParameterError, "y"),
    "predict-probit-z-1d": (lambda a: predict_probit(a.fit, a.Z[0]), DimensionError, "Z_new"),
    "predict-probit-z-wide": (lambda a: predict_probit(a.fit, a.X), DimensionError, "Z_new"),
    "kfold-y-2d": (lambda a: kfold_mse(a.Z, a.Z, a.post, 2, np.arange(10)), DimensionError, "y"),
    "kfold-z-short": (lambda a: kfold_mse(a.Z[:-1], a.y, a.post, 2, np.arange(10)),
                      DimensionError, "Z"),
    "inclusion-nan-utility": (lambda a: inclusion_probabilities([_NAN, .5], 0.0), IngestionError,
                              "r"),
    "inclusion-r-2d": (lambda a: inclusion_probabilities(a.Z, 1.0), DimensionError, "r"),
    "compress-x-1d": (lambda a: compress(a.X[0], a.proj), DimensionError, "X"),
    "pcr-x-1d": (lambda a: gen_pcr_matrix(a.X[0], 2), DimensionError, "X_gamma"),
    "pcr-x-no-column": (lambda a: gen_pcr_matrix(a.X[:, :0], 2), DimensionError, "X_gamma"),
    "projection-entries-wide": (lambda a: ProjectionMatrix(a.X, np.arange(2), 10),
                                DimensionError, "entries"),
    "standardize-1d": (lambda a: apply_standardization(a.std, a.X[0]), DimensionError, "new_X"),
    "standardize-narrow": (lambda a: apply_standardization(a.std, a.Z), DimensionError, "new_X"),
    "dataset-x-1d": (lambda a: Dataset(a.X[0], a.y[:3], "continuous", np.zeros(3), np.ones(3),
                                       False), DimensionError, "X"),
    "dataset-y-short": (lambda a: Dataset(a.X, a.y[:-1], "continuous", np.zeros(3), np.ones(3),
                                          False), DimensionError, "y"),
    "run-x-new-1d": (lambda a: run_tarp(a.std, a.X[0], TarpConfig()), DimensionError, "X_new"),
    "run-x-new-narrow": (lambda a: run_tarp(a.std, a.Z, TarpConfig()), DimensionError, "X_new"),
    "mspe-2d": (lambda a: mspe(a.Z, a.Z), DimensionError, "yhat"),
    "mspe-short": (lambda a: mspe(a.y, a.y[:-1]), DimensionError, "ytrue"),
    "ecp-2d": (lambda a: ecp_width(a.Z, a.Z + 1, a.Z), DimensionError, "lower"),
    "ecp-short": (lambda a: ecp_width(a.y, a.y + 1, a.y[:-1]), DimensionError, "ytrue"),
    "misclass-2d": (lambda a: misclass(a.b[:, None], a.b[:, None]), DimensionError, "probs"),
    "misclass-short": (lambda a: misclass(a.b, a.b[:-1]), DimensionError, "ytrue"),
    "misclass-prob-above-1": (lambda a: misclass([1.5], [1]), ParameterError, "probs"),
    "roc-auc-2d": (lambda a: roc_auc(a.Z, a.b[:, None]), DimensionError, "scores"),
    "roc-auc-short": (lambda a: roc_auc(a.y, a.b[:-1]), DimensionError, "ytrue"),
    "calibration-2d": (lambda a: calibration_msd(a.b[:, None], a.b[:, None]), DimensionError,
                       "probs"),
    "calibration-short": (lambda a: calibration_msd(a.b, a.b[:-1]), DimensionError, "ytrue"),
}


@pytest.mark.parametrize("case", list(_ARRAY_CASES))
def test_array_arguments_are_checked_by_one_rule_per_kind(case, tmp_path):
    call, error, name = _ARRAY_CASES[case]
    rng = np.random.default_rng(3)
    Z, X, y = rng.normal(size=(10, 2)), rng.normal(size=(10, 3)), rng.normal(size=10)
    Z_nan, X_nan = Z.copy(), X.copy()
    Z_nan[4, 1] = X_nan[6, 0] = np.nan
    a = SimpleNamespace(Z=Z, X=X, y=y, b=(y > 0).astype(float), Z_nan=Z_nan, X_nan=X_nan,
                        rng=rng, post=fit_compressed(Z, y, PriorHyper()),
                        fit=ProbitFit(np.zeros(2), np.zeros((1, 2))),
                        std=standardize(Dataset.from_arrays(X.copy(), y)),
                        proj=gen_rp_matrix(2, 2, 0.3, rng), path=tmp_path / "out.csv")
    with pytest.raises(error, match="^" + re.escape(name) + " " + _RULE_MESSAGE[error]):
        call(a)
    assert not a.path.exists()


@pytest.mark.parametrize("fold_plan", [np.arange(10.0), np.arange(9), np.zeros(10, dtype=int)],
                         ids=["float", "short", "repeated"])
def test_kfold_mse_takes_only_a_permutation_of_the_rows(fold_plan):
    # a float permutation raised numpy's IndexError
    rng = np.random.default_rng(3)
    Z, y = rng.normal(size=(10, 2)), rng.normal(size=10)
    with pytest.raises(ParameterError, match="^fold_plan must be a permutation"):
        kfold_mse(Z, y, fit_compressed(Z, y, PriorHyper()), 2, fold_plan)


_SCHEME_VALID = {"scheme": "bridge", "n": 30, "p": 600, "n_test": 5, "n_active": 3,
                 "coef_value": -2.0, "noise_sd": 0.5, "seed": 7}
_SETTINGS = [(cls, f.name) for cls in (TarpConfig, SchemeSpec, PriorHyper) for f in fields(cls)]
_VALID = object()  # stands for a valid value of the drawn field
_ODD_VALUES = [0, 1, -1, 2.5, float("nan"), float("inf"), -float("inf"), 1e308, True, "1",
               None, (1,), (1, 2, 3)]


@settings(max_examples=400, deadline=None)
@given(setting=st.sampled_from(_SETTINGS), value=st.sampled_from([_VALID, *_ODD_VALUES]))
@example(setting=(TarpConfig, "probit_iterations"), value=50.5)  # once failed in replicate 0
@example(setting=(TarpConfig, "delta"), value=float("inf"))      # once failed on the JSON
def test_a_setting_is_accepted_or_rejected_by_name(setting, value):
    cls, name = setting
    if value is _VALID:
        value = (_SCHEME_VALID if cls is SchemeSpec
                 else {**_off_default(TarpConfig()), "a_sigma": 3.0, "b_sigma": 5.0})[name]
    try:  # a TypeError or ValueError fails the test
        if cls is SchemeSpec:
            SchemeSpec(value) if name == "scheme" else SchemeSpec("ar1", **{name: value})
        else:
            cls(**{name: value})
    except TarpError as exc:
        assert re.search(rf"\b{name}\b", str(exc)), (cls.__name__, name, value, str(exc))


def test_largest_seed_is_accepted():
    for seed in (2 ** 64 - 1, np.uint64(2 ** 64 - 1)):
        assert TarpConfig(seed=seed).seed == SchemeSpec("ar1", seed=seed).seed == 2 ** 64 - 1


def test_sigma2_prior_is_fixed_not_a_setting():
    assert TarpConfig.prior == TarpConfig().prior == PriorHyper(0.02, 0.02)
    assert "prior" not in {f.name for f in fields(TarpConfig)}
    with pytest.raises(TypeError):
        TarpConfig(prior=PriorHyper(b_sigma=5.0))


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


@pytest.mark.parametrize("path", ["average", "model-average", "cv", "binary",
                                  "binary-two-processes"])
def test_phase_times_are_the_five_phases_within_the_wall_time(path, monkeypatch):
    if path == "binary-two-processes":  # the time waiting for the other process is "fit"
        _allow_cpus(monkeypatch, 2)
    if path.startswith("binary"):
        train, Xn = _binary_toy()
        res = run_tarp_binary(train, Xn, TarpConfig(n_replicates=3, probit_iterations=50,
                                                    probit_burnin=10))
    else:
        std, Xn, _ = _toy(seed=26)
        res = run_tarp(std, Xn, TarpConfig(n_replicates=3, aggregation=path))
    assert list(res.phase_times) == ["screen", "project", "fit", "predict", "aggregate"]
    assert all(t >= 0 for t in res.phase_times.values())
    assert sum(res.phase_times.values()) <= res.wall_time
    if path == "binary-two-processes":
        assert res.processes == (2 if hasattr(os, "fork") else 1)


@pytest.mark.parametrize("setting", [dict(aggregation="cv"),
                                     dict(aggregation="model-average"),
                                     dict(level=0.9)],
                         ids=["cv", "model-average", "level"])
def test_binary_path_rejects_settings_it_cannot_honour(setting):
    train, Xn = _binary_toy()
    cfg = TarpConfig(n_replicates=2, probit_iterations=20, probit_burnin=5, **setting)
    with pytest.raises(ParameterError):
        run_tarp_binary(train, Xn, cfg)


@pytest.mark.parametrize("setting, message", [
    (dict(probit_iterations=3000), "Gaussian path never reads probit_iterations"),
    (dict(probit_burnin=100), "Gaussian path never reads probit_burnin"),
    (dict(level=0.9), "binary path never reads level"),
], ids=["probit-iterations", "probit-burnin", "binary-level"])
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
    """A value off its default, and off ``cfg``'s, for each TarpConfig field."""
    return {"backend": "ris-pcr", "delta": 0.5, "n_replicates": cfg.n_replicates + 1,
            "m_range": (2, 4), "psi_range": (0.2, 0.3), "aggregation": "model-average",
            "level": 0.8, "seed": cfg.seed + 1, "probit_iterations": cfg.probit_iterations + 1,
            "probit_burnin": cfg.probit_burnin + 1, "keep_replicates": False}


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
    # the next field added to TarpConfig
    if path == "binary":
        (train, Xn), run = _binary_toy(), run_tarp_binary
        base = TarpConfig(n_replicates=2, probit_iterations=40, probit_burnin=10)
        never_read = {"aggregation", "level"}
    else:
        (train, Xn, _), run = _toy(seed=26), run_tarp
        base = TarpConfig(n_replicates=2)
        never_read = {"probit_iterations", "probit_burnin"}
    off = _off_default(base)
    assert set(off) == {f.name for f in fields(TarpConfig)}
    expected = run(train, Xn, base)
    rejected = set()
    for name, value in off.items():
        assert value != getattr(TarpConfig(), name), name
        try:
            result = run(train, Xn, replace(base, **{name: value}))
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


def test_binary_replicate_failure_reports_index_and_seed(fail_second_call, monkeypatch):
    # one process: the fixture counts the calls of the process it runs in
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    train, Xn = _binary_toy(seed=24)
    fail_second_call("probit_gibbs")
    with pytest.raises(ReplicateError) as err:
        run_tarp_binary(train, Xn, TarpConfig(n_replicates=3, seed=31, probit_iterations=20,
                                              probit_burnin=5))
    assert (err.value.index, err.value.seed) == (1, 31)


_forking = pytest.mark.skipif(not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
                              reason="needs os.fork and os.sched_getaffinity")
_SHORT_CHAIN = dict(probit_iterations=20, probit_burnin=5)


def _allow_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@_forking
def test_binary_records_are_identical_in_one_and_two_processes(monkeypatch, no_child_left):
    train, Xn = _binary_toy(seed=25)
    cfg = TarpConfig(n_replicates=5, seed=7, **_SHORT_CHAIN)
    real_fork, forks, runs = os.fork, [], []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    for cpus in (1, 2):
        _allow_cpus(monkeypatch, cpus)
        runs.append(run_tarp_binary(train, Xn, cfg))
        no_child_left()
    assert len(forks) == 1
    one, two = runs
    assert (one.processes, two.processes) == (1, 2)
    assert one.prob.tobytes() == two.prob.tobytes()
    record = lambda r: (r.m, r.psi, r.p_gamma, r.mask_digest, r.yhat.tobytes())
    assert [record(r) for r in one.per_replicate] == [record(r) for r in two.per_replicate]
    assert one.phase_times.keys() == two.phase_times.keys()


@_forking
@pytest.mark.parametrize("failing, lowest", [((3, 4), 3), ((2, 3), 2)])
def test_lowest_failing_replicate_is_raised_from_either_process(monkeypatch, no_child_left,
                                                               failing, lowest):
    # in two processes, this one runs the even indices and the child the odd ones
    train, Xn = _binary_toy(seed=24)
    real = ensemble.run_replicate

    def flaky(train, X_new, cfg, index, **kwargs):
        if index in failing:
            raise RuntimeError(f"synthetic failure {index}")
        return real(train, X_new, cfg, index, **kwargs)

    monkeypatch.setattr(ensemble, "run_replicate", flaky)
    for cpus in (1, 2):
        _allow_cpus(monkeypatch, cpus)
        with pytest.raises(ReplicateError) as err:
            run_tarp_binary(train, Xn, TarpConfig(n_replicates=5, seed=31, **_SHORT_CHAIN))
        assert (err.value.index, err.value.seed) == (lowest, 31)
        assert f"synthetic failure {lowest}" in str(err.value)
        assert f'raise RuntimeError(f"synthetic failure {{index}}")' in _diagnostic(err.value)
        no_child_left()


def _diagnostic(error):
    """What a caller can print of a replicate failure: its chained cause's traceback, or the
    traceback text that a failure in another process carries as a note."""
    return "".join(traceback.format_exception(error)) + "".join(getattr(error, "__notes__", ()))


@_forking
def test_a_child_that_dies_or_an_interrupt_leaves_no_process(monkeypatch, no_child_left):
    train, Xn = _binary_toy(seed=24)
    cfg = TarpConfig(n_replicates=4, seed=3, **_SHORT_CHAIN)
    real, parent = ensemble.run_replicate, os.getpid()

    def dies(train, X_new, cfg, index, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return real(train, X_new, cfg, index, **kwargs)

    def interrupted(train, X_new, cfg, index, **kwargs):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(20)  # killed, not waited for

    _allow_cpus(monkeypatch, 2)
    monkeypatch.setattr(ensemble, "run_replicate", dies)
    with pytest.raises(TarpError, match=r"replicates l = 1 \(mod 2\) ended without sending"):
        run_tarp_binary(train, Xn, cfg)
    no_child_left()
    monkeypatch.setattr(ensemble, "run_replicate", interrupted)
    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_tarp_binary(train, Xn, cfg)
    assert time.perf_counter() - started < 10
    no_child_left()


@pytest.mark.parametrize("case", ["one-cpu", "another-thread", "gaussian"])
def test_replicates_run_in_this_process(monkeypatch, case):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"), raising=False)
    _allow_cpus(monkeypatch, 1 if case == "one-cpu" else 2)
    if case == "gaussian":
        std, Xn, _ = _toy(seed=26)
        assert run_tarp(std, Xn, TarpConfig(n_replicates=3)).per_replicate
        return
    train, Xn = _binary_toy(seed=26)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if case == "another-thread":
        thread.start()
    try:
        assert len(run_tarp_binary(train, Xn, TarpConfig(n_replicates=3, **_SHORT_CHAIN))
                   .per_replicate) == 3
    finally:
        stop.set()
    if case == "another-thread":
        thread.join(timeout=5)
        assert not thread.is_alive()


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
                        "X_new must be an array of shape (*, 60), got shape (25, 59)"),
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

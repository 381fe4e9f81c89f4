import re
from dataclasses import fields

import numpy as np
import pytest
from scipy import signal, stats

from tarpreg import ParameterError, SchemeSpec, generate
from tarpreg.data import RESPONSE_CONTINUOUS


def test_ar1_lag_two_correlation():
    spec = SchemeSpec("ar1", n=100_000, p=6, n_test=10, n_active=2, seed=0)
    X = generate(spec).train.X
    got = np.corrcoef(X[:, 0], X[:, 2])[0, 1]
    assert got == pytest.approx(0.09, abs=0.01)  # rho^2 at rho = 0.3
    lag1 = np.corrcoef(X[:, 3], X[:, 4])[0, 1]
    assert lag1 == pytest.approx(0.3, abs=0.01)


def test_ar1_noiseless_response_exactly_linear():
    spec = SchemeSpec("ar1", n=50, p=30, n_test=10, n_active=4, noise_sd=0.0, seed=2)
    data = generate(spec)
    assert data.train.y == pytest.approx(data.train.X @ data.true_beta, abs=1e-12)
    assert data.active_idx.size == 4
    assert np.flatnonzero(data.true_beta).tolist() == data.active_idx.tolist()


@pytest.mark.parametrize("rho", [0.3])  # the generator's fixed AR(1) coefficient
def test_ar1_recursion_matches_lfilter(rho):
    spec = SchemeSpec("ar1", n=40, p=300, n_test=7, n_active=5, seed=5)
    data = generate(spec)
    # the generator's own draws, filtered by the reference IIR implementation
    rng = np.random.default_rng(spec.seed)
    eps = rng.standard_normal((spec.n + spec.n_test, spec.p))
    eps[:, 1:] *= np.sqrt(1.0 - rho ** 2)
    ref = signal.lfilter([1.0], [1.0, -rho], eps, axis=1)
    assert np.array_equal(data.train.X, ref[:spec.n])
    assert np.array_equal(data.test_X, ref[spec.n:])


def test_block_scheme_correlations():
    spec = SchemeSpec("block", n=50_000, p=600, n_test=10, n_active=5, seed=3)
    X = generate(spec).train.X
    # blocks: [0:100] low rho, [100:400] ... with 4 blocks: 2 low, 2 high
    low = np.corrcoef(X[:, 0], X[:, 1])[0, 1]
    high = np.corrcoef(X[:, 300], X[:, 350])[0, 1]
    across = np.corrcoef(X[:, 0], X[:, 150])[0, 1]
    indep = np.corrcoef(X[:, 450], X[:, 500])[0, 1]
    assert low == pytest.approx(0.3, abs=0.01)
    assert high == pytest.approx(0.9, abs=0.01)
    assert across == pytest.approx(0.0, abs=0.01)
    assert indep == pytest.approx(0.0, abs=0.01)


def test_block_scheme_active_split():
    spec = SchemeSpec("block", n=30, p=10_000, n_test=5, n_active=50, seed=4)
    data = generate(spec)
    assert data.active_idx.size == 50
    n_blocks = (10_000 - 200) // 100
    high_start = (n_blocks // 2) * 100
    tail_start = 10_000 - 200
    in_high = ((data.active_idx >= high_start) & (data.active_idx < tail_start)).sum()
    in_tail = (data.active_idx >= tail_start).sum()
    assert in_high == 49
    assert in_tail == 1


def test_block_scheme_validates_p():
    with pytest.raises(ParameterError):
        SchemeSpec("block", n=10, p=300, n_test=5)
    with pytest.raises(ParameterError):
        SchemeSpec("block", n=10, p=650, n_test=5)


def test_rank3_scheme_singular_values():
    # the test rows: the outliers are training rows only
    spec = SchemeSpec("pcr", n=10, p=300, n_test=10_000, seed=5)
    X = generate(spec).test_X
    s = np.linalg.svd(X, compute_uv=False)[:4]
    assert s[0] == pytest.approx(np.sqrt(10_000) * 15, rel=0.05)
    assert s[1] == pytest.approx(np.sqrt(10_000) * 10, rel=0.05)
    assert s[2] == pytest.approx(np.sqrt(10_000) * 7, rel=0.05)
    assert s[3] < 1e-8 * s[0]  # exactly rank three by default


def test_rank3_beta_is_unit_leading_direction():
    spec = SchemeSpec("pcr", n=50, p=120, n_test=10, seed=6)
    data = generate(spec)
    assert np.linalg.norm(data.true_beta) == pytest.approx(1.0, abs=1e-10)
    assert data.active_idx.size == 0


def test_rank3_outliers_inflate_training_rows():
    data = generate(SchemeSpec("pcr", n=60, p=80, n_test=40, seed=7))
    norms = np.linalg.norm(data.train.X, axis=1)
    # 5 isotropic sd-10 rows stand far above the rank-3 rows
    assert (norms > 3 * np.median(norms)).sum() == 5
    test_norms = np.linalg.norm(data.test_X, axis=1)
    assert (test_norms > 3 * np.median(norms)).sum() == 0  # outliers only in training


def test_bridge_moments():
    spec = SchemeSpec("bridge", n=60_000, p=9, n_test=10, n_active=3, seed=8)
    X = generate(spec).train.X
    assert np.abs(X.mean(axis=0)).max() < 4 * X.std(axis=0).max() / np.sqrt(60_000) + 1e-3
    var = X.var(axis=0)
    # variance rises to the midpoint then falls, pinned ends smallest
    mid = 4  # t = 5.0 of (0, 10) on the 9-point grid
    assert np.argmax(var) == mid
    assert var[0] < var[1] < var[mid]
    assert var[-1] < var[-2] < var[mid]
    assert var[mid] == pytest.approx((10.0 / 4.0) ** 2, rel=0.03)  # t_max = 10


def test_bridge_covariance_ratio():
    spec = SchemeSpec("bridge", n=100_000, p=3, n_test=10, n_active=2, seed=9)
    X = generate(spec).train.X
    # grid points at t = 2.5, 5.0, 7.5
    got = np.cov(X[:, 0], X[:, 2])[0, 1]
    # scaled bridge covariance (t_max / 4) s (1 - t / t_max) at s = 2.5 <= t = 7.5
    theory = (10.0 / 4.0) * 2.5 * (1.0 - 7.5 / 10.0)
    assert got / theory == pytest.approx(1.0, abs=0.05)


def test_generators_deterministic_and_seed_sensitive():
    for scheme, kw in (("ar1", dict(n_active=3)), ("block", dict(p=600, n_active=3)),
                       ("pcr", {}), ("bridge", dict(p=50, n_active=3))):
        a, b, c = (generate(SchemeSpec(scheme, n=30, n_test=5, seed=seed, **{"p": 100, **kw}))
                   for seed in (42, 42, 43))
        assert np.array_equal(a.train.X, b.train.X)
        assert np.array_equal(a.test_y, b.test_y)
        assert not np.array_equal(a.train.X, c.train.X)


def test_train_test_same_distribution():
    spec = SchemeSpec("ar1", n=4000, p=20, n_test=4000, n_active=5, seed=10)
    data = generate(spec)
    col = 7
    stat, pval = stats.ttest_ind(data.train.X[:, col], data.test_X[:, col])
    assert pval > 0.01


def test_response_is_x_beta_plus_noise_sd_noise():
    # pcr draws its own beta and regenerates its outlier rows' responses
    for scheme, p in (("ar1", 30), ("block", 400), ("pcr", 30), ("bridge", 30)):
        active = {} if scheme == "pcr" else dict(n_active=4)
        exact = generate(SchemeSpec(scheme, n=50, p=p, n_test=10, noise_sd=0.0, seed=11,
                                    **active))
        assert exact.train.y == pytest.approx(exact.train.X @ exact.true_beta, abs=1e-12)
        assert exact.test_y == pytest.approx(exact.test_X @ exact.true_beta, abs=1e-12)
        noisy = generate(SchemeSpec(scheme, n=2000, p=p, n_test=10, noise_sd=3.0, seed=12,
                                    **active))
        residual = noisy.train.y - noisy.train.X @ noisy.true_beta
        assert residual.var() == pytest.approx(9.0, rel=0.1), scheme


@pytest.mark.parametrize("scheme, p", [("ar1", 20), ("block", 400), ("bridge", 20)])
def test_response_is_continuous_even_when_every_value_is_0_or_1(scheme, p):
    data = generate(SchemeSpec(scheme, n=20, p=p, n_test=5, n_active=0, noise_sd=0.0))
    assert (data.train.y == 0.0).all()
    assert data.train.response_kind == RESPONSE_CONTINUOUS


def test_scheme_validation():
    with pytest.raises(ParameterError):
        SchemeSpec("nope")
    with pytest.raises(ParameterError):
        SchemeSpec("ar1", p=10, n_active=20)
    with pytest.raises(ParameterError, match="n > 5"):  # its 5 outlier rows are training rows
        SchemeSpec("pcr", n=5)


@pytest.mark.parametrize("scheme, p", [("ar1", 100), ("block", 600), ("pcr", 100),
                                       ("bridge", 50)])
def test_test_rows_are_read_only_views_of_the_drawn_matrix(scheme, p):
    active = {} if scheme == "pcr" else dict(n_active=3)
    data = generate(SchemeSpec(scheme, n=30, p=p, n_test=5, seed=1, **active))
    for test, train in ((data.test_X, data.train.X), (data.test_y, data.train.y)):
        assert not test.flags.writeable
        assert test.base is not None and test.base is train.base
    with pytest.raises(ValueError):
        data.test_X[0, 0] = 0.0


_TINY = dict(n=10, p=400, n_test=3)  # block needs p >= 400


def _off_default(field):
    value = _TINY.get(field.name, field.default)
    return value + 100 if field.name == "p" else value + 1 if type(value) is int else 2 * value


@pytest.mark.parametrize("scheme", ["ar1", "block", "pcr", "bridge"])
def test_every_scheme_setting_changes_the_draw_or_is_rejected(scheme):
    # a setting that a scheme never reads is an error naming it, never a silent no-op
    def draw(**changed):
        data = generate(SchemeSpec(scheme, seed=1, **{**_TINY, **changed}))
        return data.train.X, data.train.y, data.test_X, data.test_y

    base = draw()
    for field in fields(SchemeSpec):
        if field.name in ("scheme", "seed"):
            continue
        try:
            got = draw(**{field.name: _off_default(field)})
        except ParameterError as exc:
            assert re.search(rf"\b{field.name}\b", str(exc)), (field.name, str(exc))
            continue
        assert not all(np.array_equal(a, b) for a, b in zip(base, got)), field.name

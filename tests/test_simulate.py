import numpy as np
import pytest
from scipy import signal, stats

from tarpreg import DimensionError, ParameterError, SchemeSpec, generate, make_response


def test_ar1_lag_two_correlation():
    spec = SchemeSpec("ar1", n=100_000, p=6, n_test=10, n_active=2, seed=0)
    X = generate(spec).train.X
    got = np.corrcoef(X[:, 0], X[:, 2])[0, 1]
    assert got == pytest.approx(0.09, abs=0.01)  # rho^2 at rho = 0.3
    lag1 = np.corrcoef(X[:, 3], X[:, 4])[0, 1]
    assert lag1 == pytest.approx(0.3, abs=0.01)


def test_ar1_rho_zero_gives_independent_columns():
    spec = SchemeSpec("ar1", n=4000, p=8, n_test=10, n_active=2, rho=0.0, seed=1)
    X = generate(spec).train.X
    corr = np.corrcoef(X.T)
    off = corr[~np.eye(8, dtype=bool)]
    assert np.abs(off).max() < 4 / np.sqrt(4000)


def test_ar1_noiseless_response_exactly_linear():
    spec = SchemeSpec("ar1", n=50, p=30, n_test=10, n_active=4, noise_sd=0.0, seed=2)
    data = generate(spec)
    assert data.train.y == pytest.approx(data.train.X @ data.true_beta, abs=1e-12)
    assert data.active_idx.size == 4
    assert np.flatnonzero(data.true_beta).tolist() == data.active_idx.tolist()


@pytest.mark.parametrize("rho", [0.3, 0.0, -0.9])
def test_ar1_recursion_matches_lfilter(rho):
    spec = SchemeSpec("ar1", n=40, p=300, n_test=7, n_active=5, rho=rho, seed=5)
    data = generate(spec)
    # the generator's own draws, filtered by the reference IIR implementation
    rng = np.random.default_rng(spec.seed)
    eps = rng.standard_normal((spec.n + spec.n_test, spec.p))
    eps[:, 1:] *= np.sqrt(1.0 - rho ** 2)
    ref = signal.lfilter([1.0], [1.0, -rho], eps, axis=1)
    assert np.array_equal(data.train.X, ref[:spec.n])
    assert np.array_equal(data.test_X, ref[spec.n:])


def test_block_scheme_correlations():
    spec = SchemeSpec("block", n=50_000, p=600, n_test=10, block_size=100,
                      n_active=5, seed=3)
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
        SchemeSpec("block", n=10, p=650, n_test=5, block_size=100)


def test_rank3_scheme_singular_values():
    spec = SchemeSpec("pcr", n=10_000, p=300, n_test=10, n_outliers=0, seed=5)
    X = generate(spec).train.X
    s = np.linalg.svd(X, compute_uv=False)[:4]
    assert s[0] == pytest.approx(np.sqrt(10_000) * 15, rel=0.05)
    assert s[1] == pytest.approx(np.sqrt(10_000) * 10, rel=0.05)
    assert s[2] == pytest.approx(np.sqrt(10_000) * 7, rel=0.05)
    assert s[3] < 1e-8 * s[0]  # exactly rank three by default


def test_rank3_beta_is_unit_leading_direction():
    spec = SchemeSpec("pcr", n=50, p=120, n_test=10, n_outliers=0, seed=6)
    data = generate(spec)
    assert np.linalg.norm(data.true_beta) == pytest.approx(1.0, abs=1e-10)
    assert data.active_idx.size == 0


def test_rank3_outliers_inflate_training_rows():
    base = SchemeSpec("pcr", n=60, p=80, n_test=40, n_outliers=5, outlier_sd=10.0,
                      seed=7)
    data = generate(base)
    norms = np.linalg.norm(data.train.X, axis=1)
    # 5 isotropic sd-10 rows stand far above the rank-3 rows
    assert (norms > 3 * np.median(norms)).sum() == 5
    clean = generate(SchemeSpec("pcr", n=60, p=80, n_test=40, n_outliers=0, seed=7))
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
    assert var[mid] == pytest.approx((spec.t_max / 4.0) ** 2, rel=0.03)


def test_bridge_covariance_ratio():
    spec = SchemeSpec("bridge", n=100_000, p=3, n_test=10, n_active=2, seed=9)
    X = generate(spec).train.X
    # grid points at t = 2.5, 5.0, 7.5
    got = np.cov(X[:, 0], X[:, 2])[0, 1]
    # scaled bridge covariance (t_max / 4) s (1 - t / t_max) at s = 2.5 <= t = 7.5
    theory = (10.0 / 4.0) * 2.5 * (1.0 - 7.5 / 10.0)
    assert got / theory == pytest.approx(1.0, abs=0.05)


def test_generators_deterministic_and_seed_sensitive():
    for scheme, kw in (("ar1", {}), ("block", dict(p=600)), ("pcr", {}),
                       ("bridge", dict(p=50))):
        a = generate(SchemeSpec(scheme, n=30, p=kw.get("p", 100), n_test=5,
                                n_active=3, seed=42))
        b = generate(SchemeSpec(scheme, n=30, p=kw.get("p", 100), n_test=5,
                                n_active=3, seed=42))
        c = generate(SchemeSpec(scheme, n=30, p=kw.get("p", 100), n_test=5,
                                n_active=3, seed=43))
        assert np.array_equal(a.train.X, b.train.X)
        assert np.array_equal(a.test_y, b.test_y)
        assert not np.array_equal(a.train.X, c.train.X)


def test_train_test_same_distribution():
    spec = SchemeSpec("ar1", n=4000, p=20, n_test=4000, n_active=5, seed=10)
    data = generate(spec)
    col = 7
    stat, pval = stats.ttest_ind(data.train.X[:, col], data.test_X[:, col])
    assert pval > 0.01


def test_make_response():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(2000, 4))
    beta = np.array([1.0, 0.0, -2.0, 0.5])
    exact = make_response(X, beta, 0.0, np.random.default_rng(0))
    assert exact == pytest.approx(X @ beta)
    noise = make_response(X, np.zeros(4), 3.0, np.random.default_rng(1))
    assert noise.var() == pytest.approx(9.0, rel=0.1)
    with pytest.raises(DimensionError):
        make_response(X, beta[:2], 1.0, rng)


def test_scheme_validation():
    with pytest.raises(ParameterError):
        SchemeSpec("nope")
    with pytest.raises(ParameterError):
        SchemeSpec("ar1", rho=1.0)
    with pytest.raises(ParameterError):
        SchemeSpec("ar1", p=10, n_active=20)
    with pytest.raises(ParameterError):
        SchemeSpec("pcr", n=10, n_outliers=10)

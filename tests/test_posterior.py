import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, linalg, special, stats

from tarpreg import (DimensionError, ParameterError, PriorHyper, TarpError, fit_compressed,
                     log_marginal_likelihood, predict, predict_probit,
                     probit_gibbs, sigma2_posterior, t_interval_halfwidth)

PRIOR = PriorHyper(a_sigma=0.02, b_sigma=0.02)


def test_fit_zero_design_prior_dominates():
    y = np.array([1.0, -2.0, 0.5])
    post = fit_compressed(np.zeros((3, 2)), y, PRIOR)
    assert post.mu_t == pytest.approx([0.0, 0.0])
    assert post.W == pytest.approx(np.eye(2))
    assert post.scale_factor == pytest.approx(y @ y + 2 * PRIOR.b_sigma)


def test_fit_scalar_hand_computation():
    post = fit_compressed(np.array([[1.0]]), np.array([1.0]), PRIOR)
    assert post.W[0, 0] == pytest.approx(0.5)
    assert post.mu_t[0] == pytest.approx(0.5)
    assert post.df == pytest.approx(1.04)
    assert post.scale_factor == pytest.approx(0.54)


def test_fit_identity_two_dim():
    post = fit_compressed(np.eye(2), np.array([2.0, 0.0]), PRIOR)
    assert post.W == pytest.approx(np.eye(2) / 2)
    assert post.mu_t == pytest.approx([1.0, 0.0])


def test_fit_rejects_bad_inputs():
    with pytest.raises(DimensionError):
        fit_compressed(np.zeros((0, 1)), np.zeros(0), PRIOR)
    with pytest.raises(DimensionError):
        fit_compressed(np.zeros((3, 1)), np.zeros(2), PRIOR)
    from tarpreg import IngestionError
    with pytest.raises(IngestionError):
        fit_compressed(np.array([[np.inf]]), np.array([1.0]), PRIOR)


@pytest.mark.parametrize("y", [[1e200, -1e200], [1e200, 1e200]], ids=["inf", "nan"])
def test_fit_rejects_an_overflowing_scale_factor(y):
    with pytest.raises(TarpError, match="scale factor"):
        fit_compressed(np.ones((2, 1)), np.array(y), PRIOR)


def test_sigma2_posterior_hand_values():
    y = np.array([np.sqrt(2.0), -np.sqrt(2.0)])  # y'y = 4
    post = fit_compressed(np.zeros((2, 1)), y, PRIOR)
    shape, rate = sigma2_posterior(post)
    assert shape == pytest.approx(1.02)
    assert rate == pytest.approx(2.02)


def test_sigma2_rate_equals_half_scale_factor():
    rng = np.random.default_rng(0)
    for _ in range(5):
        Z = rng.normal(size=(12, 3))
        post = fit_compressed(Z, rng.normal(size=12), PRIOR)
        _, rate = sigma2_posterior(post)
        assert rate == pytest.approx(post.scale_factor / 2, rel=1e-14)


def test_predict_zero_row():
    y = np.array([1.0, -1.0, 2.0])
    post = fit_compressed(np.zeros((3, 1)), y, PRIOR)
    out = predict(post, np.zeros((1, 1)), 0.5)
    assert out.mean[0] == 0.0
    assert out.marginal_scale[0] == pytest.approx(np.sqrt(post.scale_factor / post.df))
    assert out.lower[0] == pytest.approx(-out.upper[0])


def test_predict_scalar_hand_computation():
    post = fit_compressed(np.array([[1.0]]), np.array([1.0]), PRIOR)
    out = predict(post, np.array([[1.0]]), 0.5)
    assert out.mean[0] == pytest.approx(0.5)
    s2 = 0.54 * (1 + 0.5) / 1.04
    assert out.marginal_scale[0] ** 2 == pytest.approx(s2)
    half = t_interval_halfwidth(0.5, 1.04) * np.sqrt(s2)
    assert out.upper[0] - out.mean[0] == pytest.approx(half)
    assert out.mean[0] - out.lower[0] == pytest.approx(half)


def test_predict_width_grows_with_level():
    rng = np.random.default_rng(1)
    post = fit_compressed(rng.normal(size=(20, 3)), rng.normal(size=20), PRIOR)
    znew = rng.normal(size=(4, 3))
    widths = [(predict(post, znew, l).upper - predict(post, znew, l).lower)
              for l in (0.5, 0.8, 0.95, 0.999)]
    for a, b in zip(widths, widths[1:]):
        assert (b > a).all()


def test_predict_validates():
    post = fit_compressed(np.eye(2), np.zeros(2), PRIOR)
    with pytest.raises(DimensionError):
        predict(post, np.zeros((1, 3)), 0.5)
    with pytest.raises(ParameterError):
        predict(post, np.zeros((1, 2)), 1.0)


def test_predict_rejects_an_overflowing_predictive_scale():
    # scale factor * (1 + z'Wz) overflowed to +-inf endpoints with a RuntimeWarning
    rng = np.random.default_rng(2)
    Z, y = rng.normal(size=(20, 3)), rng.normal(size=20)
    post = fit_compressed(Z, y, PriorHyper(b_sigma=8e307))
    with pytest.raises(TarpError, match="predictive scale must be finite, got inf"):
        predict(post, rng.normal(size=(4, 3)), 0.5)
    assert np.isfinite(predict(post, np.zeros((1, 3)), 0.5).upper).all()  # z'Wz = 0 still fits


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 30), st.integers(1, 8), st.integers(1, 6),
       st.integers(0, 2 ** 31 - 1), st.floats(0.05, 0.95))
def test_predict_scale_matches_inverse_form(n, m, n_new, seed, level):
    # the triangular-solve scales against the explicit-W form they replace
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(n, m)) * rng.uniform(0.1, 5.0)
    post = fit_compressed(Z, rng.normal(size=n), PRIOR)
    Z_new = rng.normal(size=(n_new, m))
    out = predict(post, Z_new, level)
    quad = np.einsum("ij,jk,ik->i", Z_new, post.W, Z_new)
    want = np.sqrt(post.scale_factor * (1.0 + quad) / post.df)
    assert out.marginal_scale == pytest.approx(want, rel=1e-12, abs=0)


def test_posterior_monte_carlo_oracle():
    # draws from the exact normal-inverse-gamma posterior reproduce mu_t and
    # the central-interval endpoints computed analytically
    rng = np.random.default_rng(2)
    n, m = 20, 3
    Z = rng.normal(size=(n, m))
    y = Z @ np.array([1.0, -0.5, 0.25]) + rng.normal(size=n)
    post = fit_compressed(Z, y, PRIOR)
    shape, rate = sigma2_posterior(post)
    # test points whose interval endpoints sit well away from zero, so the
    # relative comparison is meaningful against the Monte Carlo quantile error
    znew = np.array([[2.5, 1.0, 0.0], [-1.0, 2.0, -0.5]])
    out = predict(post, znew, 0.5)
    assert np.abs([out.lower, out.upper]).min() > 0.3

    draws = 200_000
    sig2 = rate / rng.gamma(shape, size=draws)
    L = np.linalg.cholesky(post.W)
    theta = post.mu_t + (L @ rng.standard_normal((m, draws))).T * np.sqrt(sig2)[:, None]
    for i in range(2):
        ynew = theta @ znew[i] + np.sqrt(sig2) * rng.standard_normal(draws)
        lo, hi = np.quantile(ynew, [0.25, 0.75])
        assert out.lower[i] == pytest.approx(lo, rel=0.02)
        assert out.upper[i] == pytest.approx(hi, rel=0.02)
        assert out.mean[i] == pytest.approx(ynew.mean(), abs=4 * ynew.std() / np.sqrt(draws))
    assert sig2.mean() == pytest.approx(rate / (shape - 1), rel=0.02)


def test_predictive_interval_covers_draws_from_the_prior_at_its_level():
    # (sigma^2, theta, y, y_new) drawn from the model itself: the predictive
    # interval covers y_new with probability exactly ``level``.  n = 2 and
    # a_sigma = 3 give df = 8, where t and normal quantiles differ visibly
    rng = np.random.default_rng(4)
    prior = PriorHyper(a_sigma=3.0, b_sigma=2.0)
    Z = rng.normal(size=(2, 3))
    z_new = rng.normal(size=(1, 3))
    draws = 4000
    sig = np.sqrt(prior.b_sigma / rng.gamma(prior.a_sigma, size=draws))
    theta = rng.standard_normal((draws, 3)) * sig[:, None]
    y = theta @ Z.T + rng.standard_normal((draws, 2)) * sig[:, None]
    y_new = theta @ z_new[0] + rng.standard_normal(draws) * sig
    for level in (0.5, 0.9):
        covered = 0
        for i in range(draws):
            out = predict(fit_compressed(Z, y[i], prior), z_new, level)
            covered += bool(out.lower[0] <= y_new[i] <= out.upper[0])
        assert out.df == 8.0
        assert abs(covered / draws - level) <= 4 * np.sqrt(level * (1 - level) / draws)


def test_scale_invariance_of_location():
    rng = np.random.default_rng(3)
    Z = rng.normal(size=(15, 4))
    y = rng.normal(size=15)
    a = fit_compressed(Z, y, PRIOR)
    b = fit_compressed(Z, 3.5 * y, PRIOR)
    assert b.mu_t == pytest.approx(3.5 * a.mu_t, rel=1e-12)
    assert np.array_equal(a.W, b.W)


def test_w_eigenvalues_in_unit_interval():
    rng = np.random.default_rng(4)
    for _ in range(10):
        Z = rng.normal(size=(rng.integers(3, 30), rng.integers(1, 6)))
        post = fit_compressed(Z, rng.normal(size=Z.shape[0]), PRIOR)
        eig = np.linalg.eigvalsh(post.W)
        assert eig.min() > 0
        assert eig.max() <= 1 + 1e-12


def test_log_evidence_deterministic_and_ranks_informative_model():
    rng = np.random.default_rng(5)
    Z = rng.normal(size=(25, 2))
    y = Z @ np.array([2.0, -1.0]) + 0.3 * rng.normal(size=25)
    le1 = log_marginal_likelihood(fit_compressed(Z, y, PRIOR))
    le2 = log_marginal_likelihood(fit_compressed(Z, y, PRIOR))
    assert le1 == pytest.approx(le2, abs=1e-12)
    null = log_marginal_likelihood(fit_compressed(np.zeros((25, 2)), y, PRIOR))
    assert le1 > null


def test_log_evidence_matches_quadrature():
    # brute-force 2-d integration of likelihood x prior for n = 5, m = 1
    rng = np.random.default_rng(6)
    Z = rng.normal(size=(5, 1))
    y = Z[:, 0] * 0.8 + 0.5 * rng.normal(size=5)
    a, b = 0.6, 0.7  # heavier prior keeps the integrand comfortably bounded
    prior = PriorHyper(a_sigma=a, b_sigma=b)
    got = log_marginal_likelihood(fit_compressed(Z, y, prior))

    def integrand(theta, s2):
        lik = np.prod(stats.norm.pdf(y, Z[:, 0] * theta, np.sqrt(s2)))
        return lik * stats.norm.pdf(theta, 0.0, np.sqrt(s2)) * stats.invgamma.pdf(s2, a, scale=b)

    val, err = integrate.dblquad(integrand, 0.005, 60.0, -12.0, 12.0)
    assert np.log(val) == pytest.approx(got, abs=1e-4)


def test_probit_gibbs_zero_design_matches_standard_normal():
    # with Z = 0 the full conditional of theta is N(0, I) for every latent
    # state, so the chain draws are iid standard normal
    rng = np.random.default_rng(7)
    Z = np.zeros((40, 2))
    y = (rng.random(40) < 0.5).astype(float)
    fit = probit_gibbs(Z, y, iterations=10_500, burnin=500, rng=rng)
    stat, pval = stats.kstest(fit.theta_draws[:, 0], "norm")
    assert pval > 0.01
    probs = predict_probit(fit, np.zeros((3, 2)))
    assert probs == pytest.approx([0.5, 0.5, 0.5], abs=0.2)


def test_probit_gibbs_separated_sign_and_label_flip():
    rng = np.random.default_rng(8)
    z = np.where(np.arange(60) % 2 == 0, 2.0, -2.0)[:, None]
    y = (z[:, 0] > 0).astype(float)
    fit = probit_gibbs(z, y, iterations=1500, burnin=300, rng=np.random.default_rng(1))
    flip = probit_gibbs(z, 1.0 - y, iterations=1500, burnin=300, rng=np.random.default_rng(2))
    assert fit.theta_mean[0] > 0 > flip.theta_mean[0]
    se = fit.theta_draws[:, 0].std(ddof=1) / np.sqrt(200.0)  # generous ess guess
    assert abs(fit.theta_mean[0] + flip.theta_mean[0]) < 6 * se


def test_probit_gibbs_validates():
    with pytest.raises(ParameterError):
        probit_gibbs(np.zeros((3, 1)), np.array([0.0, 2.0, 1.0]), 10, 2,
                     np.random.default_rng(0))
    with pytest.raises(ParameterError):
        probit_gibbs(np.zeros((3, 1)), np.zeros(3), 10, 10, np.random.default_rng(0))


def test_predict_probit_values():
    from tarpreg.posterior import ProbitFit
    fit = ProbitFit(np.array([1.0]), theta_draws=np.array([[1.0]]))
    probs = predict_probit(fit, np.array([[0.0], [1.0], [8.0]]))
    assert probs[0] == pytest.approx(0.5)
    assert probs[1] == pytest.approx(0.8413447460685429, abs=1e-10)
    assert probs[2] > 0.999999
    with pytest.raises(DimensionError):
        predict_probit(fit, np.zeros((1, 2)))


def test_truncated_latent_far_tail_robust():
    from tarpreg.posterior import _truncated_latent
    rng = np.random.default_rng(9)
    eta = np.array([-50.0, -8.0, 0.0, 8.0, 50.0])
    # the helper draws the reflected latent w = s y* given e = s eta, with
    # s = +1 for a positive label and -1 for a negative one
    for _ in range(200):
        v = _truncated_latent(eta, rng, special)
        assert np.isfinite(v).all()
        assert (v > 0).all()
    for _ in range(200):
        v = -_truncated_latent(-eta, rng, special)
        assert np.isfinite(v).all()
        assert (v <= 0).all()


def test_truncated_latent_switches_to_the_exponential_below_1e_300_mass():
    # ndtr(-35) = 1.1e-268 takes the inverse CDF and ndtr(-40) = 0 the exponential,
    # which at e = -35 would be off by about 1e-3 relative
    from tarpreg.posterior import _truncated_latent
    e = np.array([-35.0, -40.0])
    w = _truncated_latent(e, np.random.default_rng(10), special)
    u = np.random.default_rng(10).random(2)
    assert w[0] == pytest.approx(e[0] - special.ndtri(u[0] * special.ndtr(e[0])), abs=1e-12)
    assert w[1] == pytest.approx(-np.log(u[1]) / 40.0, abs=1e-12)
    assert abs(-np.log(u[0]) / 35.0 - w[0]) > 1e-4 * w[0]


def test_probit_gibbs_matches_the_grid_posterior():
    # n = 12, m = 2: the exact posterior of theta under the N(0, I) prior is
    # summed on an 801 x 801 grid over [-8, 8]^2; the chain's means of theta and
    # of P(y = 1 | z) = Phi(z'theta) at two rows must agree within 4 standard
    # errors, each from 40 batch means of 1000 kept draws
    rng = np.random.default_rng(12)
    Z = rng.normal(size=(12, 2))
    y = (Z @ np.array([1.0, -0.7]) + rng.normal(size=12) > 0).astype(float)
    s = np.where(y == 1.0, 1.0, -1.0)
    angles = np.linspace(0.0, 2.0 * np.pi, 3600, endpoint=False)
    margins = (s[:, None] * Z) @ np.array([np.cos(angles), np.sin(angles)])
    assert (margins.min(axis=0) < 0).all()  # no direction separates the labels
    rows = np.array([[1.0, 0.5], [-0.3, 1.2]])

    grid = np.linspace(-8.0, 8.0, 801)
    t1, t2 = np.meshgrid(grid, grid, indexing="ij")
    log_post = -(t1 ** 2 + t2 ** 2) / 2.0
    for (z1, z2), si in zip(Z, s):
        log_post += special.log_ndtr(si * (z1 * t1 + z2 * t2))
    weight = np.exp(log_post - log_post.max())
    weight /= weight.sum()
    exact = [(weight * t1).sum(), (weight * t2).sum()]
    exact += [(weight * special.ndtr(a * t1 + b * t2)).sum() for a, b in rows]

    fit = probit_gibbs(Z, y, iterations=41_000, burnin=1_000, rng=np.random.default_rng(13))
    series = np.column_stack([fit.theta_draws, special.ndtr(fit.theta_draws @ rows.T)])
    batches = series.reshape(40, 1000, 4).mean(axis=1)
    se = batches.std(axis=0, ddof=1) / np.sqrt(40.0)
    assert np.abs((series.mean(axis=0) - exact) / se).max() < 4


def _probit_gibbs_reference(Z, y, iterations, burnin, rng):
    # the sampler as first written: a Cholesky solve and a triangular solve per
    # iteration, with the unreflected latent draw below
    n, m = Z.shape
    upper = linalg.cho_factor(Z.T @ Z + np.eye(m), lower=False, check_finite=False)
    pos = y == 1.0
    theta = np.zeros(m)
    kept = np.empty((iterations - burnin, m))
    deep_draws = 0
    for it in range(iterations):
        eta = Z @ theta
        deep_draws += int((np.where(pos, eta, -eta) < -38.0).sum())
        ystar = _truncated_latent_reference(eta, pos, rng)
        mean = linalg.cho_solve(upper, Z.T @ ystar, check_finite=False)
        noise = linalg.solve_triangular(upper[0], rng.standard_normal(m),
                                        lower=False, check_finite=False)
        theta = mean + noise
        if it >= burnin:
            kept[it - burnin] = theta
    return kept, deep_draws


def _truncated_latent_reference(eta, pos, rng):
    u = rng.random(eta.shape[0])
    sign = np.where(pos, 1.0, -1.0)
    e = sign * eta
    q = special.ndtr(e)
    deep = q < 1e-300
    z = -special.ndtri(np.clip(u * q, 1e-308, 1.0))
    ystar = sign * (e + z)
    if deep.any():
        rate = np.maximum(-e[deep], 1.0)
        ystar[deep] = sign[deep] * (-np.log(u[deep]) / rate)
    return ystar


def _separated_with_far_outlier():
    # 5000 separated rows drive theta to about 1; the one mislabelled row at
    # z = 40 then sits at eta < -38, beyond the inverse-CDF range
    z = np.where(np.arange(5000) % 2 == 0, 1.0, -1.0)
    return (np.append(z, 40.0)[:, None], np.append(z > 0, False).astype(float), 60, 10)


@pytest.mark.parametrize("case", ["random", "far-tail"])
@pytest.mark.parametrize("seed", [0, 1])
def test_probit_gibbs_matches_reference_sampler(case, seed):
    if case == "random":
        rng = np.random.default_rng(100 + seed)
        Z = rng.normal(size=(120, 25)) * rng.uniform(0.2, 3.0, size=25)
        y = (Z @ rng.normal(size=25) + rng.normal(size=120) > 0).astype(float)
        iterations, burnin = 400, 100
    else:
        Z, y, iterations, burnin = _separated_with_far_outlier()
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want, deep_draws = _probit_gibbs_reference(Z, y, iterations, burnin, ref_rng)
    fit = probit_gibbs(Z, y, iterations, burnin, rng)
    assert (deep_draws > 0) == (case == "far-tail")
    assert np.abs(fit.theta_draws - want).max() <= 1e-10
    assert fit.theta_mean == pytest.approx(want.mean(axis=0), abs=1e-10)
    assert rng.bit_generator.state == ref_rng.bit_generator.state

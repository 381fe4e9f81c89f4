import numpy as np
import pytest

from tarpreg import DimensionError, ParameterError, compress, gen_pcr_matrix, gen_rp_matrix


def test_rp_entries_are_three_point():
    proj = gen_rp_matrix(40, 20, 0.2, np.random.default_rng(0))
    v = 1.0 / np.sqrt(0.4)
    assert set(np.round(np.unique(proj.entries), 12)) <= {-round(v, 12), 0.0, round(v, 12)}


def test_rp_boundary_psi_half_never_zero():
    proj = gen_rp_matrix(50, 30, 0.5, np.random.default_rng(1))
    assert set(np.unique(proj.entries)) == {-1.0, 1.0}


def test_rp_second_moment_is_one():
    rng = np.random.default_rng(2)
    for psi in (0.1, 0.25, 0.4):
        proj = gen_rp_matrix(1000, 1000, psi, rng)
        assert np.mean(proj.entries ** 2) == pytest.approx(1.0, abs=0.01)


def test_rp_zero_fraction():
    proj = gen_rp_matrix(1000, 1000, 0.25, np.random.default_rng(3))
    assert np.mean(proj.entries == 0.0) == pytest.approx(0.5, abs=0.005)


def test_rp_rejects_bad_psi():
    rng = np.random.default_rng(0)
    for psi in (0.0, -0.1, 0.51):
        with pytest.raises(ParameterError):
            gen_rp_matrix(5, 5, psi, rng)


def test_pcr_diagonal_example():
    proj = gen_pcr_matrix(np.diag([3.0, 2.0]), 1)
    assert proj.entries == pytest.approx(np.array([[1.0, 0.0]]))
    assert proj.m == 1 and not proj.rank_truncated


def test_pcr_rows_orthonormal():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 8))
    proj = gen_pcr_matrix(X, 8)
    assert np.abs(proj.entries @ proj.entries.T - np.eye(8)).max() < 1e-8


def test_pcr_rank_truncation_reported():
    rng = np.random.default_rng(6)
    base = rng.normal(size=(20, 3))
    X = np.column_stack([base, base[:, 0]])  # rank 3, p_gamma landing at 4
    proj = gen_pcr_matrix(X, 4)
    assert proj.m == 3
    assert proj.rank_truncated


def test_pcr_keeps_a_direction_above_the_rank_tolerance():
    # sigma_min / sigma_1 is about 4.6e-10, above the tolerance max(n, p) * eps = 8.9e-15
    rng = np.random.default_rng(8)
    base = rng.normal(size=(40, 4))
    X = np.column_stack([base, base[:, 0] + 1e-9 * rng.normal(size=40)])
    proj = gen_pcr_matrix(X, 5)
    assert proj.m == 5
    assert not proj.rank_truncated


def test_pcr_sign_convention_deterministic():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(25, 6))
    a = gen_pcr_matrix(X, 4)
    b = gen_pcr_matrix(X.copy(), 4)
    assert np.array_equal(a.entries, b.entries)
    for row in a.entries:
        assert row[np.argmax(np.abs(row))] > 0


def test_compress_examples():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(10, 3))
    from tarpreg.projection import ProjectionMatrix
    proj = ProjectionMatrix(np.array([[2.0]]), np.array([1]), m=1)
    assert np.allclose(compress(X, proj), 2.0 * X[:, [1]])
    assert np.allclose(compress(np.zeros((4, 3)), proj), 0.0)
    with pytest.raises(DimensionError):
        compress(X[:, :1], proj)  # column_map index out of range
    empty = ProjectionMatrix(np.zeros((2, 0)), [], m=2)  # an empty map stays valid
    assert empty.p_gamma == 0 and np.array_equal(compress(X, empty), np.zeros((10, 2)))


def test_compress_matches_scores_for_pcr():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(40, 12))
    proj = gen_pcr_matrix(X, 5)
    U, S, Vt = np.linalg.svd(X, full_matrices=False)
    scores = U[:, :5] * S[:5]
    Z = compress(X, proj)
    # equal up to the per-row sign normalization
    for k in range(5):
        diff = min(np.abs(Z[:, k] - scores[:, k]).max(),
                   np.abs(Z[:, k] + scores[:, k]).max())
        assert diff < 1e-8


def test_rp_norm_mean_identity():
    # E ||R x||^2 = m ||x||^2 for the screened coordinates
    rng = np.random.default_rng(10)
    p_gamma, m, psi = 100, 50, 0.25
    x = rng.normal(size=p_gamma)
    draws = 10_000
    vals = np.empty(draws)
    for i in range(draws):
        proj = gen_rp_matrix(p_gamma, m, psi, rng)
        vals[i] = np.sum((proj.entries @ x) ** 2)
    ratio = vals / (m * x @ x)
    se = ratio.std(ddof=1) / np.sqrt(draws)
    assert abs(ratio.mean() - 1.0) < 4 * se


def _rp_norm_variance(p_gamma, m, psi, seed, draws=100_000, chunk=5000):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=p_gamma)
    value = 1.0 / np.sqrt(2 * psi)
    norms = np.empty(draws)
    for start in range(0, draws, chunk):
        u = rng.random((chunk, m, p_gamma))
        R = np.where(u < psi, value, np.where(u < 2 * psi, -value, 0.0))
        norms[start:start + chunk] = ((R @ x) ** 2).sum(axis=1)
    return x, float(np.var(norms, ddof=1))


def test_rp_norm_variance_identity():
    # Per-row, for iid entries with E r^2 = 1 and E r^4 = (2 psi)^-1:
    #   var((r.x)^2) = 2 (sum x^2)^2 + ((2 psi)^-1 - 3) sum x^4,
    # confirmed by the psi = 1/2 closed form var = 2||x||^4 - 2 sum x^4.
    x, got = _rp_norm_variance(60, 20, 0.125, seed=11)
    theory = 20 * (2 * (x @ x) ** 2 + (1 / (2 * 0.125) - 3) * np.sum(x ** 4))
    assert got == pytest.approx(theory, rel=0.10)


def test_rp_norm_variance_rademacher_closed_form():
    x, got = _rp_norm_variance(10, 5, 0.5, seed=14)
    assert got == pytest.approx(5 * (2 * (x @ x) ** 2 - 2 * np.sum(x ** 4)), rel=0.10)


@pytest.mark.xfail(strict=True, reason="printed variance identity drops the reversed-pair "
                   "cross term and is ~2x low for spread-out x; see docs/calibration.md")
def test_rp_norm_variance_printed_identity():
    x, got = _rp_norm_variance(60, 20, 0.125, seed=11)
    printed = 20 * (x @ x) ** 2 * (1 + (1 / (2 * 0.125) - 2) * np.sum(x ** 4) / (x @ x) ** 2)
    assert got == pytest.approx(printed, rel=0.10)


def test_concentration_improves_at_scale():
    # sd of ||R x_gamma||^2/(m p) halves when (m, p) are both quadrupled,
    # matching the var ~ c1/p + c2/m concentration rate
    rng = np.random.default_rng(12)

    def spread(p, m, reps=100):
        x = rng.choice([-1.0, 1.0], size=p)  # standardized, bounded
        vals = np.empty(reps)
        for i in range(reps):
            gamma = rng.random(p) < 0.5
            proj = gen_rp_matrix(int(gamma.sum()), m, 0.25, rng)
            vals[i] = np.sum((proj.entries @ x[gamma]) ** 2) / (m * p)
        return vals.std(ddof=1)

    small = spread(2500, 100)
    large = spread(10000, 400)
    assert small / large >= 2.0 * 0.7  # 30% slack on the Monte Carlo ratio


def test_generation_deterministic_given_seed():
    a = gen_rp_matrix(30, 10, 0.3, np.random.default_rng(42))
    b = gen_rp_matrix(30, 10, 0.3, np.random.default_rng(42))
    assert np.array_equal(a.entries, b.entries)


def test_three_point_generators_draw_one_uniform_per_entry():
    # the construction written out: one uniform per entry, +v below psi,
    # -v below 2 psi, else 0, and nothing else drawn
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    proj = gen_rp_matrix(30, 10, 0.2, rng)
    u, v = ref.random((10, 30)), 1.0 / np.sqrt(0.4)
    assert np.array_equal(proj.entries, np.where(u < 0.2, v, np.where(u < 0.4, -v, 0.0)))
    assert rng.bit_generator.state == ref.bit_generator.state

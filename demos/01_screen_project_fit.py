"""Walk through one pass of the pipeline, piece by piece.

Generates a small autoregressive dataset, screens predictors by marginal
correlation, compresses the survivors with a three-point random projection,
fits the conjugate posterior on the compressed features, and prints the
resulting prediction intervals next to the truth.
"""
import numpy as np

from tarpreg import (SchemeSpec, TarpConfig, apply_standardization, compress,
                     default_delta, fit_compressed, gen_rp_matrix, generate,
                     inclusion_probabilities, marginal_utility, predict,
                     sample_gamma, standardize)

spec = SchemeSpec("ar1", n=150, p=500, n_test=8, n_active=10, seed=42)
data = generate(spec)
train = standardize(data.train)
X_test = apply_standardization(train, data.test_X)
print(f"dataset: n={train.n}, p={train.p}, {spec.n_active} active columns")

# 1. marginal utilities and inclusion probabilities
r = marginal_utility(train)
delta = default_delta(train.n, train.p)
probs = inclusion_probabilities(r, delta)
print(f"\nscreening exponent delta = {delta:.3f} (default rule)")
print(f"top-5 |utility| columns: {np.argsort(-np.abs(r))[:5]}")
print(f"active columns:          {data.active_idx}")
print(f"expected screened count: {probs.q.sum():.1f} of {train.p}")

# 2. draw the screening indicator and a random projection
rng = np.random.default_rng(7)
mask = sample_gamma(probs, rng)
hit = np.intersect1d(mask.selected, data.active_idx).size
print(f"\ndrawn screen keeps {mask.p_gamma} columns ({hit} of the {spec.n_active} active)")

m = 40
proj = gen_rp_matrix(mask.p_gamma, m, psi=0.25, rng=rng, column_map=mask.selected)
nonzero = np.count_nonzero(proj.entries) / proj.entries.size
print(f"projection: rp, {proj.m} x {proj.p_gamma}, "
      f"nonzero fraction {nonzero:.2f} (2*psi = 0.5)")

# 3. conjugate fit on the compressed features and t prediction intervals
Z = compress(train.X, proj)
y_bar = train.y.mean()
post = fit_compressed(Z, train.y - y_bar, prior=TarpConfig().prior)
out = predict(post, compress(X_test, proj), level=0.5)
print(f"\nposterior: df = {post.df:.2f}, scale factor = {post.scale_factor:.1f}")
print("\n  truth    point     50% interval")
for i in range(X_test.shape[0]):
    print(f"  {data.test_y[i]:7.2f}  {out.mean[i] + y_bar:7.2f}   "
          f"[{out.lower[i] + y_bar:7.2f}, {out.upper[i] + y_bar:7.2f}]")

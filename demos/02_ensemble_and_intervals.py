"""Ensemble aggregation and interval behaviour.

Runs the full replicate ensemble on one dataset, compares the three
aggregation rules, and shows how empirical coverage tracks the requested
interval level.
"""
from dataclasses import replace

import numpy as np

from tarpreg import (SchemeSpec, TarpConfig, apply_standardization, ecp_width,
                     generate, mspe, run_tarp, standardize)

data = generate(SchemeSpec("ar1", n=150, p=800, n_test=200, n_active=10, seed=3))
train = standardize(data.train)
X_test = apply_standardization(train, data.test_X)

base = TarpConfig(backend="ris-rp", delta="auto", n_replicates=60, seed=11)

print("aggregation rule comparison (same replicate draws):")
for agg in ("average", "model-average", "cv"):
    res = run_tarp(train, X_test, replace(base, aggregation=agg))
    ecp, width = ecp_width(res.lower, res.upper, data.test_y)
    print(f"  {agg:14s} MSPE {mspe(res.yhat, data.test_y):6.2f}   "
          f"ECP {100 * ecp:5.1f}%   width {width:5.2f}")

print("\nper-replicate spread behind the average:")
res = run_tarp(train, X_test, base)
p_gammas = [r.p_gamma for r in res.per_replicate]
ms = [r.m for r in res.per_replicate]
print(f"  screened columns: min {min(p_gammas)}, mean {np.mean(p_gammas):.0f}, "
      f"max {max(p_gammas)}")
print(f"  compression dims: min {min(ms)}, mean {np.mean(ms):.0f}, max {max(ms)}")

print("\ncoverage against requested level (averaged interval endpoints):")
for level in (0.25, 0.5, 0.8, 0.95):
    res = run_tarp(train, X_test, replace(base, level=level))
    ecp, width = ecp_width(res.lower, res.upper, data.test_y)
    print(f"  level {level:4.2f}   ECP {100 * ecp:5.1f}%   width {width:5.2f}")

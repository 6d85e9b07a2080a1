import numpy as np
import pytest
from scipy.stats import kstest, kstwo

from boxcgf import ks

# (n, x, the routine that computes the CDF, if any) for each branch of
# kolmogorov_sf, in its order of dispatch
BRANCHES = [
    (10, 0.04, None),           # n x <= 1/2: P = 1
    (10, 0.08, None),           # n x <= 1, n <= 140: product
    (200, 0.004, None),         # n x <= 1, n > 140: Stirling
    (10, 0.95, None),           # n x >= n - 1
    (2, 0.6, None),             # n x >= n - 1, n = 2
    (10, 0.6, None),            # x >= 1/2: 2 smirnov
    (100, 0.08, "_durbin_cdf"),       # n <= 140, n x^2 <= 0.754693
    (140, 0.07, "_durbin_cdf"),
    (100, 0.15, "_pomeranz_cdf"),     # n <= 140, n x^2 <= 4
    (140, 0.16, "_pomeranz_cdf"),
    (100, 0.25, None),          # n <= 140, n x^2 > 4: 2 smirnov
    (2000, 0.45, None),         # n > 140, n x^2 >= 370: 0
    (1000, 0.05, None),         # n > 140, n x^2 >= 2.2: 2 smirnov
    (200, 0.01, "_durbin_cdf"),       # n > 140, n x^1.5 <= 1.4
    (141, 0.015, "_durbin_cdf"),
    (10_000, 0.01, "_pelz_good_cdf"),  # n x^1.5 > 1.4
    (200_000, 0.001, "_pelz_good_cdf"),  # n > 1e5
    (1_000_000, 2e-6, "_pelz_good_cdf"),  # z so small that P(D <= x) = 0
]


@pytest.mark.parametrize("n, x, routine", BRANCHES)
def test_kolmogorov_sf_equals_scipy_in_each_branch(n, x, routine, monkeypatch):
    called = []
    for name in ("_durbin_cdf", "_pomeranz_cdf", "_pelz_good_cdf"):
        def spy(*args, _name=name, _fn=getattr(ks, name)):
            called.append(_name)
            return _fn(*args)
        monkeypatch.setattr(ks, name, spy)
    p = float(np.clip(ks.kolmogorov_sf(n, x), 0.0, 1.0))
    assert p == float(kstwo.sf(x, n))
    assert called == ([routine] if routine else [])


@pytest.mark.parametrize("n", [2, 10, 140, 141, 300, 10_000])
def test_ks_norm_equals_scipy_kstest(n):
    rng = np.random.default_rng(n)
    for sd in (0.7, 1.0, 1.3):  # p-values from near 0 to near 1
        y = rng.normal(0.0, 1.0, n)
        res = kstest(y, "norm", args=(0.0, sd))
        assert ks.ks_norm(y, sd) == (float(res.statistic), float(res.pvalue))

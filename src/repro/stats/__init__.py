"""Statistical tests used by the first-stage aggregation.

- :mod:`repro.stats.distributions` -- Gaussian CDF and quantile helpers.
- :mod:`repro.stats.ks` -- one-sample Kolmogorov-Smirnov test, batched
  over the rows of a sample matrix (statistics, asymptotic p-values, CDF
  envelopes from Theorem 2, and the per-rank bounds that decide the test
  without the CDF).
- :mod:`repro.stats.norm_test` -- the chi-square norm-interval test
  ("Norm test" in Section 4.3).
"""

from repro.stats.distributions import normal_cdf, normal_ppf
from repro.stats.ks import (
    kolmogorov_survival,
    ks_envelopes,
    ks_pvalues,
    ks_statistics,
    theorem2_interval,
)
from repro.stats.norm_test import norm_interval, squared_norm_interval

__all__ = [
    "normal_cdf",
    "normal_ppf",
    "kolmogorov_survival",
    "ks_envelopes",
    "ks_pvalues",
    "ks_statistics",
    "theorem2_interval",
    "norm_interval",
    "squared_norm_interval",
]

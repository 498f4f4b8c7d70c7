"""Whole-array ratio sampler: the reference for ``mrsk.ratio_stats.sample_ratio``.

``sample_ratio`` bins its ratios a block at a time and never holds them;
this module draws the same stream in whole arrays (all n numerators, all
n denominators, then each redraw round's numerators and denominators)
and keeps the ratios, so tests can compare bin counts and redraws bit
for bit and run distribution tests on the values.
"""

import numpy as np

from mrsk import ratio_stats
from mrsk.ratio_stats import GaussPair


def ratio_values(pair: GaussPair, n: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """n ratios X/Y with every |Y| <= ``SAMPLE_DENOM_EPS`` redrawn, and the redraw count."""
    eps = ratio_stats.SAMPLE_DENOM_EPS
    x = rng.normal(pair.mu_x, pair.sigma_x, size=n)
    y = rng.normal(pair.mu_y, pair.sigma_y, size=n)
    redraws = 0
    bad = np.abs(y) <= eps
    while np.any(bad):
        k = int(bad.sum())
        redraws += k
        x[bad] = rng.normal(pair.mu_x, pair.sigma_x, size=k)
        y[bad] = rng.normal(pair.mu_y, pair.sigma_y, size=k)
        bad = np.abs(y) <= eps
    return x / y, redraws

"""Whole-array ratio sampler: the reference for ``mrsk.ratio_stats.sample_ratio``.

``sample_ratio`` bins its ratios a block at a time and never holds them;
this module draws the same stream of (numerator, denominator) pairs of
standard normals in whole arrays (the n pairs as one (n, 2) array, then
one (k, 2) array per redraw round of k pairs) and keeps the ratios, so
tests can compare bin counts and redraws bit for bit and run
distribution tests on the values.
"""

import numpy as np

from mrsk import ratio_stats
from mrsk.ratio_stats import GaussPair


def ratio_values(pair: GaussPair, n: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """n ratios X/Y with every |Y| <= ``SAMPLE_DENOM_EPS`` redrawn, and the redraw count."""
    eps = ratio_stats.SAMPLE_DENOM_EPS
    z = rng.standard_normal((n, 2))
    x = z[:, 0] * pair.sigma_x + pair.mu_x
    y = z[:, 1] * pair.sigma_y + pair.mu_y
    redraws = 0
    bad = np.abs(y) <= eps
    while np.any(bad):
        k = int(bad.sum())
        redraws += k
        z = rng.standard_normal((k, 2))
        x[bad] = z[:, 0] * pair.sigma_x + pair.mu_x
        y[bad] = z[:, 1] * pair.sigma_y + pair.mu_y
        bad = np.abs(y) <= eps
    return x / y, redraws

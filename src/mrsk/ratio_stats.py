"""Distributions of the ratio of two independent noncentral Gaussians.

Three analytic descriptions of eta = X/Y are provided: the exact density,
a closed-form "solid" approximation whose CDF is elementary, and a plain
Gaussian approximation.  An empirical sampler bins drawn ratios, each
read from one (numerator, denominator) pair of standard normals, as the
ground truth against all three; the whole-array sampler of the same pair
stream it must match bit for bit is tests/ratio_oracle.py.

The three densities ``pdf`` prints take a :class:`GaussPair`; the solid
CDF and :func:`gaussian_ratio_params` take floats or arrays of moments:
FTD's closed-form BER reads the one, MLSD's Gaussian metric the other.
MLSD's solid metric keeps a log-density kernel of its own: it takes
log erf(q) once per window, where a call of the density would recompute
it per block, 1.3-1.45 times slower.

The solid approximation is parameterized by the dimensionless triple
(p, q, r) = (mu_x / (sqrt(2) sigma_x), mu_y / (sqrt(2) sigma_y), mu_x / mu_y):
the numerator's and denominator's signal-to-noise ratios and the expected
ratio.  Its CDF is

    Psi(eta0) = (1 + erf(g(eta0)) / erf(q)) / 2,
    g(eta0)   = p (eta0/r - 1) / sqrt(1 + (p/q)^2 (eta0/r)^2),

and the density is d Psi/d eta.  Both carry the ratio normalization in
the erf argument (eta0/r - 1, and a 1/r prefactor in the density); the
variants without it fail the quadrature oracle whenever r != 1, see
tests/test_ratio_stats.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

from .errors import check_cap

__all__ = [
    "GaussPair",
    "RatioSample",
    "exact_ratio_pdf",
    "solid_ratio_pdf",
    "solid_ratio_cdf",
    "gaussian_ratio_params",
    "gaussian_ratio_pdf",
    "sample_ratio",
    "SAMPLE_DENOM_EPS",
    "SAMPLE_DRAWS_CAP",
]

# (numerator, denominator) pairs drawn per block of the sampler (512 KiB of float64)
_SAMPLE_BLOCK = 1 << 15
# the sampler redraws denominators of at most this magnitude
SAMPLE_DENOM_EPS = 1e-12
# sample_ratio refuses, before any draw, n ratios that expect more pair draws
SAMPLE_DRAWS_CAP = 10_000_000


@dataclass(frozen=True)
class GaussPair:
    """Means and standard deviations of the numerator X and denominator Y.

    Physically meaningful ratios need the denominator mass at Y <= 0 to be
    negligible; mu_y / sigma_y >= 2 is the documented soft precondition,
    not enforced here.
    """

    mu_x: float
    mu_y: float
    sigma_x: float
    sigma_y: float

    def __post_init__(self) -> None:
        # NaN fails every comparison, inf the upper bounds
        if not (0 < self.sigma_x < math.inf and 0 < self.sigma_y < math.inf):
            raise ValueError(
                f"standard deviations must be positive and finite, got {self.sigma_x}, {self.sigma_y}"
            )


class RatioSample(NamedTuple):
    """Bin counts of the ratios drawn by :func:`sample_ratio`, and its redraws."""

    counts: np.ndarray
    redraws: int


def exact_ratio_pdf(eta, pair: GaussPair):
    """Exact density of X/Y for independent Gaussians X and Y."""
    eta_arr = np.asarray(eta, dtype=float)
    sx, sy = pair.sigma_x, pair.sigma_y
    a = np.sqrt(eta_arr**2 / sx**2 + 1.0 / sy**2)
    b = pair.mu_x * eta_arr / sx**2 + pair.mu_y / sy**2
    c = pair.mu_x**2 / sx**2 + pair.mu_y**2 / sy**2
    d = np.exp((b**2 - c * a**2) / (2.0 * a**2))
    # Phi(b/a) - Phi(-b/a) == erf(b / (a sqrt(2)))
    term1 = b * d / (a**3 * np.sqrt(2.0 * np.pi) * sx * sy) * special.erf(b / (a * np.sqrt(2.0)))
    term2 = np.exp(-c / 2.0) / (a**2 * np.pi * sx * sy)
    out = term1 + term2
    return out if out.ndim else float(out)


def solid_ratio_pdf(eta, pair: GaussPair):
    """Solid-approximation density; integrates to one over the real line.

    The expression can dip below zero far in the negative tail (where its
    numerator changes sign); that dip is part of the approximation and is
    exponentially small for q >= 2.
    """
    if pair.mu_x <= 0 or pair.mu_y <= 0:
        raise ValueError("the solid approximation needs positive means")
    p = pair.mu_x / (np.sqrt(2.0) * pair.sigma_x)
    q = pair.mu_y / (np.sqrt(2.0) * pair.sigma_y)
    r = pair.mu_x / pair.mu_y
    eta_arr = np.asarray(eta, dtype=float)
    t = eta_arr / r
    w = (p / q) ** 2
    denom = 1.0 + w * t * t
    pref = p / (r * np.sqrt(np.pi) * special.erf(q))
    out = pref * (1.0 + w * t) / denom**1.5 * np.exp(-p**2 * (t - 1.0) ** 2 / denom)
    return out if out.ndim else float(out)


def solid_ratio_cdf(eta, mu_x, var_x, mu_y, var_y):
    """Closed-form CDF of the solid approximation, from floats or arrays of moments.

    Psi in the moments: g = (mu_y eta - mu_x) / sqrt(2 (var_x + var_y eta^2)).
    """
    g = (mu_y * eta - mu_x) / np.sqrt(2.0 * (var_x + var_y * eta * eta))
    return 0.5 * (1.0 + special.erf(g) / special.erf(mu_y / np.sqrt(2.0 * var_y)))


def gaussian_ratio_params(mu_x, var_x, mu_y, var_y):
    """Mean beta and variance lambda^2 of the Gaussian X/Y, from floats or arrays of moments."""
    beta = mu_x / mu_y
    lam2 = beta**2 * (var_x / mu_x**2 + var_y / mu_y**2)
    return beta, lam2


def gaussian_ratio_pdf(eta, pair: GaussPair):
    """Gaussian approximation N(beta, lambda^2) of the ratio density."""
    beta, lam2 = gaussian_ratio_params(pair.mu_x, pair.sigma_x**2, pair.mu_y, pair.sigma_y**2)
    eta_arr = np.asarray(eta, dtype=float)
    out = np.exp(-((eta_arr - beta) ** 2) / (2.0 * lam2)) / np.sqrt(2.0 * np.pi * lam2)
    return out if out.ndim else float(out)


def sample_ratio(pair: GaussPair, n: int, rng: np.random.Generator, edges) -> RatioSample:
    """Bin n independent ratios X/Y into the increasing bin ``edges``.

    Each ratio reads one pair of standard normals z, scaled as
    z * (sigma_x, sigma_y) + (mu_x, mu_y).  Pairs whose denominator
    magnitude is at most ``SAMPLE_DENOM_EPS`` are redrawn, as pairs, in
    rounds after the n pairs, so the sample matches the conditional law
    the analytic forms approximate; the redraw count is reported, and n
    ratios that expect more than ``SAMPLE_DRAWS_CAP`` pair draws are
    refused with :class:`CapacityError` before any draw.  The pairs are
    drawn and binned a block at a time, which leaves the stream
    independent of the block size and ``counts`` what ``np.histogram``
    counts of the whole sample, in memory of a few blocks.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    # n / P(|Y| > eps) pair draws are expected; P is 0 or tiny when the law sits within eps
    eps, scale = SAMPLE_DENOM_EPS, pair.sigma_y * math.sqrt(2.0)
    kept = 0.5 * (math.erfc((eps - pair.mu_y) / scale) + math.erfc((eps + pair.mu_y) / scale))
    draws = n / kept if kept else math.inf
    check_cap(
        draws, "SAMPLE_DRAWS_CAP", SAMPLE_DRAWS_CAP,
        f"an expected {draws:.4g} pair draws for {n} ratios at P(|Y| > {eps}) = {kept:.3g}",
        "request fewer samples",
    )
    edges = np.asarray(edges, dtype=float)
    counts = np.zeros(edges.size - 1, dtype=np.intp)
    redraws, todo = 0, n
    while todo:  # the first round, then each round of redraws
        bad = 0
        for start in range(0, todo, _SAMPLE_BLOCK):
            z = rng.standard_normal((min(_SAMPLE_BLOCK, todo - start), 2))
            x = z[:, 0] * pair.sigma_x + pair.mu_x
            y = z[:, 1] * pair.sigma_y + pair.mu_y
            keep = np.abs(y) > SAMPLE_DENOM_EPS
            bad += keep.size - int(np.count_nonzero(keep))
            counts += np.histogram(x[keep] / y[keep], edges)[0]
        redraws += bad
        todo = bad
    return RatioSample(counts=counts, redraws=redraws)

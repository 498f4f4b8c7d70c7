"""Distributions of the ratio of two independent noncentral Gaussians.

Three analytic descriptions of eta = X/Y are provided: the exact density,
a closed-form "solid" approximation whose CDF is elementary, and a plain
Gaussian approximation.  An empirical sampler bins drawn ratios as the
ground truth against all three; the whole-array sampler it must match
bit for bit is tests/ratio_oracle.py.

The solid approximation is parameterized by the dimensionless triple
(p, q, r): p and q are signal-to-noise ratios of numerator and
denominator, r the expected ratio.  Its CDF is

    Psi(eta0) = (1 + erf(g(eta0)) / erf(q)) / 2,
    g(eta0)   = p (eta0/r - 1) / sqrt(1 + (p/q)^2 (eta0/r)^2),

and the density is d Psi/d eta.  Both carry the ratio normalization in
the erf argument (eta0/r - 1, and a 1/r prefactor in the density); the
variants without it fail the quadrature oracle whenever r != 1, see
tests/test_ratio_stats.py.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

__all__ = [
    "GaussPair",
    "SolidParams",
    "RatioSample",
    "exact_ratio_pdf",
    "solid_ratio_pdf",
    "solid_ratio_cdf",
    "gaussian_ratio_params",
    "gaussian_ratio_pdf",
    "sample_ratio",
    "SAMPLE_DENOM_EPS",
]

# denominators drawn per block of the sampler (512 KiB of float64)
_SAMPLE_BLOCK = 1 << 16
# the sampler redraws denominators of at most this magnitude
SAMPLE_DENOM_EPS = 1e-12


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


@dataclass(frozen=True)
class SolidParams:
    """Dimensionless (p, q, r) triple of the solid approximation."""

    p: float
    q: float
    r: float

    def __post_init__(self) -> None:
        if self.p <= 0 or self.q <= 0 or self.r <= 0:
            raise ValueError(f"p, q, r must be positive, got {self.p}, {self.q}, {self.r}")

    @classmethod
    def from_pair(cls, pair: GaussPair) -> "SolidParams":
        if pair.mu_x <= 0 or pair.mu_y <= 0:
            raise ValueError("solid parameters need positive means")
        return cls(
            p=pair.mu_x / (np.sqrt(2.0) * pair.sigma_x),
            q=pair.mu_y / (np.sqrt(2.0) * pair.sigma_y),
            r=pair.mu_x / pair.mu_y,
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


def solid_ratio_pdf(eta, sp: SolidParams):
    """Solid-approximation density; integrates to one over the real line.

    The expression can dip below zero far in the negative tail (where its
    numerator changes sign); that dip is part of the approximation and is
    exponentially small for q >= 2.
    """
    eta_arr = np.asarray(eta, dtype=float)
    t = eta_arr / sp.r
    w = (sp.p / sp.q) ** 2
    denom = 1.0 + w * t * t
    pref = sp.p / (sp.r * np.sqrt(np.pi) * special.erf(sp.q))
    out = pref * (1.0 + w * t) / denom**1.5 * np.exp(-sp.p**2 * (t - 1.0) ** 2 / denom)
    return out if out.ndim else float(out)


def solid_ratio_cdf(eta0, sp: SolidParams):
    """Closed-form CDF of the solid approximation."""
    eta_arr = np.asarray(eta0, dtype=float)
    t = eta_arr / sp.r
    g = sp.p * (t - 1.0) / np.sqrt(1.0 + (sp.p / sp.q) ** 2 * t * t)
    out = 0.5 * (1.0 + special.erf(g) / special.erf(sp.q))
    return out if out.ndim else float(out)


def gaussian_ratio_params(pair: GaussPair) -> tuple[float, float]:
    """Mean beta and variance lambda^2 of the Gaussian ratio approximation."""
    if pair.mu_y == 0:
        raise ValueError("denominator mean must be nonzero")
    beta = pair.mu_x / pair.mu_y
    lam2 = beta**2 * (
        pair.sigma_x**2 / pair.mu_x**2 + pair.sigma_y**2 / pair.mu_y**2
    )
    return beta, lam2


def gaussian_ratio_pdf(eta, pair: GaussPair):
    """Gaussian approximation N(beta, lambda^2) of the ratio density."""
    beta, lam2 = gaussian_ratio_params(pair)
    eta_arr = np.asarray(eta, dtype=float)
    out = np.exp(-((eta_arr - beta) ** 2) / (2.0 * lam2)) / np.sqrt(2.0 * np.pi * lam2)
    return out if out.ndim else float(out)


def sample_ratio(pair: GaussPair, n: int, rng: np.random.Generator, edges) -> RatioSample:
    """Bin n independent ratios X/Y into the increasing bin ``edges``.

    Draws whose denominator magnitude is at most ``SAMPLE_DENOM_EPS`` are
    redrawn (both coordinates) so the sample matches the conditional law
    the analytic forms approximate; the redraw count is reported.  All n
    numerators come first, then the n denominators, then the redraws of
    each round (numerators, then denominators).  ``counts`` holds what
    ``np.histogram`` counts of those ratios, in memory of a few blocks.

    The denominators start where the n numerators end, and the ziggurat
    takes a varying number of raw draws per normal, so the numerators are
    drawn twice: once into one reused block to pass them, and once more,
    a block at a time beside their denominators, from a copy of the
    generator taken before them.  Bin counts add over blocks, and the
    values a redraw replaces are never counted, so the counts are those of
    the whole sample.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    edges = np.asarray(edges, dtype=float)
    numerators = copy.deepcopy(rng)
    passed = np.empty(min(n, _SAMPLE_BLOCK))
    for start in range(0, n, _SAMPLE_BLOCK):
        rng.standard_normal(out=passed[: min(_SAMPLE_BLOCK, n - start)])
    del passed
    counts = np.zeros(edges.size - 1, dtype=np.intp)
    bad = 0
    for start in range(0, n, _SAMPLE_BLOCK):
        size = min(_SAMPLE_BLOCK, n - start)
        block, small = _bin_ratios(
            numerators.normal(pair.mu_x, pair.sigma_x, size=size),
            rng.normal(pair.mu_y, pair.sigma_y, size=size),
            edges,
        )
        counts += block
        bad += small
    redraws = 0
    while bad:  # the still-small ones go again
        redraws += bad
        block, bad = _bin_ratios(
            rng.normal(pair.mu_x, pair.sigma_x, size=bad),
            rng.normal(pair.mu_y, pair.sigma_y, size=bad),
            edges,
        )
        counts += block
    return RatioSample(counts=counts, redraws=redraws)


def _bin_ratios(x: np.ndarray, y: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, int]:
    """Bin counts of the ratios x/y whose denominators are not small, and how many are."""
    small = (y <= SAMPLE_DENOM_EPS) & (y >= -SAMPLE_DENOM_EPS)
    bad = int(np.count_nonzero(small))
    if bad:
        x, y = x[~small], y[~small]
    return np.histogram(np.divide(x, y, out=x), edges)[0], bad

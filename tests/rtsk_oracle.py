"""Monte Carlo RTSK: the check of the closed-form ``mrsk.baselines.rtsk_ber``.

Each symbol's single first arrival is drawn as its release offset plus a
Levy delay, and the two detectors decide on the drawn time (the ML one
by comparing the two Levy log-likelihoods directly rather than through
the closed form's threshold).
"""

import math

import numpy as np

from mrsk.baselines import RtskConfig, levy_median, levy_scale
from mrsk.channel import ChannelParams


def levy_logpdf(t: np.ndarray, c: float) -> np.ndarray:
    out = np.full(t.shape, -np.inf)
    pos = t > 0
    tp = t[pos]
    out[pos] = 0.5 * math.log(c / (2.0 * math.pi)) - 1.5 * np.log(tp) - c / (2.0 * tp)
    return out


def sample_levy(c: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Levy draws via the reciprocal-square of a standard normal."""
    z = rng.standard_normal(n)
    with np.errstate(divide="ignore"):
        return c / (z * z)


def rtsk_error_counts(
    config: RtskConfig,
    channel: ChannelParams,
    t_b: float,
    n_symbols: int,
    seed: int = 0,
) -> tuple[int, int]:
    """Monte Carlo bit errors of RTSK over n_symbols; returns (errors, n).

    A symbol releases at offset 0 (bit 0) or Delta (bit 1); the receiver
    sees offset plus one Levy delay.  Arrivals past the symbol window are
    erasures decided by a fair coin.  The linear detector thresholds the
    arrival time midway between the two conditional medians; the ML
    detector compares the two Levy likelihoods.
    """
    if not config.Delta < t_b:
        raise ValueError(f"release offset {config.Delta} must lie inside the bit interval {t_b}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    c = levy_scale(channel)
    bits = rng.integers(0, 2, size=n_symbols)
    arrivals = config.Delta * bits + sample_levy(c, n_symbols, rng)
    erased = arrivals > t_b
    if config.detector == "linear":
        midpoint = config.Delta / 2.0 + levy_median(c)
        decided = (arrivals >= midpoint).astype(np.int64)
    else:
        ll0 = levy_logpdf(arrivals, c)
        ll1 = levy_logpdf(arrivals - config.Delta, c)
        decided = (ll1 > ll0).astype(np.int64)
    coin = rng.integers(0, 2, size=n_symbols)
    decided = np.where(erased, coin, decided)
    return int(np.count_nonzero(decided != bits)), n_symbols

"""Reference modulations on the identical diffusive channel.

On-off keying, binary concentration shift keying and binary molecule
shift keying are evaluated in closed form by enumerating all 2^L bit
histories and integrating Gaussian arrival tails.  Release-time shift
keying rides a first-arrival timing channel whose delay is Levy
distributed; both of its detectors threshold the arrival time, so its
error rate is exact too, from the Levy CDF at the threshold and at the
bit interval (tests/rtsk_oracle.py is its Monte Carlo check).  The
OOK and MoSK thresholds are the reference settings; the sweeps that
find their optima are in tests/test_baselines.py.
All four consume :mod:`mrsk.channel`, so the comparison against the
ratio scheme shares one physics implementation.

Threshold conventions: counts at a threshold decide upward (consistent
with the ratio detector's tie-break), and frames where neither or both
molecule-shift counts clear the threshold are resolved by a fair coin,
which keeps every error rate at or below one half on uniform bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .channel import ChannelParams, arrival_moments, cir

__all__ = [
    "OokConfig",
    "CskConfig",
    "MoskConfig",
    "RtskConfig",
    "ook_ber",
    "csk_ber",
    "mosk_ber",
    "rtsk_ber",
    "levy_scale",
    "levy_cdf",
    "levy_median",
]


def _check_count(Q: float) -> None:
    # NaN fails the comparison, inf the upper bound
    if not 0 < Q < math.inf:
        raise ValueError(f"Q must be positive and finite, got {Q}")


@dataclass(frozen=True)
class OokConfig:
    """On-off keying: Q molecules for bit 1, none for bit 0; threshold alpha*Q."""

    Q: float = 1000.0
    alpha: float = 0.78

    def __post_init__(self) -> None:
        _check_count(self.Q)
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"threshold fraction must lie in [0, 1), got {self.alpha}")


@dataclass(frozen=True)
class CskConfig:
    """Binary concentration shift keying with amplitudes Q and Gamma*Q."""

    Q: float = 1000.0
    Gamma: float = 2.0

    def __post_init__(self) -> None:
        _check_count(self.Q)
        if not 1.0 < self.Gamma < math.inf:
            raise ValueError(f"amplitude ratio must be finite and exceed 1, got {self.Gamma}")


@dataclass(frozen=True)
class MoskConfig:
    """Binary molecule shift keying with per-type threshold Lambda."""

    Q: float = 1000.0
    Lambda: float = 340.0

    def __post_init__(self) -> None:
        _check_count(self.Q)
        if not 0 < self.Lambda < math.inf:
            raise ValueError(f"per-type threshold must be positive and finite, got {self.Lambda}")


@dataclass(frozen=True)
class RtskConfig:
    """Release-time shift keying over the first-arrival timing channel.

    Bits map to release offsets {0, Delta} within the symbol interval;
    the single first-arrival delay follows a Levy law with scale
    (d-r)^2 / (2D).
    """

    Delta: float = 0.5
    detector: str = "ml"

    def __post_init__(self) -> None:
        if not 0 < self.Delta < math.inf:
            raise ValueError(f"release offset must be positive and finite, got {self.Delta}")
        if self.detector not in ("ml", "linear"):
            raise ValueError(f"detector must be 'ml' or 'linear', got {self.detector!r}")


# ---------------------------------------------------------------------------
# shared enumeration helpers
# ---------------------------------------------------------------------------


def _histories(L: int) -> np.ndarray:
    """All 2^L bit histories as rows, oldest interval first."""
    n = 1 << L
    bits = (np.arange(n)[:, None] >> np.arange(L - 1, -1, -1)) & 1
    return bits.astype(float)


def _p_above(threshold: float, mu: np.ndarray, var: np.ndarray) -> np.ndarray:
    """P(count >= threshold) under the Gaussian arrival model.

    Zero-variance histories are deterministic: the boundary decides
    upward, matching the count detectors' tie-break.
    """
    sigma = np.sqrt(var)
    out = np.empty_like(mu)
    deterministic = sigma == 0.0
    out[deterministic] = (mu[deterministic] >= threshold).astype(float)
    ok = ~deterministic
    out[ok] = special.ndtr((mu[ok] - threshold) / sigma[ok])
    return out


def ook_ber(config: OokConfig, channel: ChannelParams, t_b: float) -> float:
    """Closed-form OOK error rate with threshold alpha*Q.

    Averages the Gaussian tail against the threshold over every bit
    history of length L (one bit per symbol interval t_b).
    """
    taps = cir(replace(channel, Ts=t_b))
    hist = _histories(channel.L)
    mu, var = arrival_moments(config.Q * hist[..., None], taps)
    p1 = _p_above(config.alpha * config.Q, mu[:, 0], var[:, 0])
    current = hist[:, -1]
    err = np.where(current == 1.0, 1.0 - p1, p1)
    return float(err.mean())


def csk_ber(config: CskConfig, channel: ChannelParams, t_b: float) -> float:
    """Closed-form binary CSK error rate.

    Amplitudes are Q (bit 0) and Gamma*Q (bit 1); the threshold is the
    geometric mean of the two expected isolated-pulse counts.
    """
    taps = cir(replace(channel, Ts=t_b))
    hist = _histories(channel.L)
    levels = config.Q * np.where(hist == 1.0, config.Gamma, 1.0)
    mu, var = arrival_moments(levels[..., None], taps)
    threshold = math.sqrt(config.Gamma) * config.Q * taps[0]
    p1 = _p_above(threshold, mu[:, 0], var[:, 0])
    current = hist[:, -1]
    err = np.where(current == 1.0, 1.0 - p1, p1)
    return float(err.mean())


def mosk_ber(config: MoskConfig, channel: ChannelParams, t_b: float) -> float:
    """Closed-form binary MoSK error rate.

    Each bit releases Q molecules of its own type.  A symbol decodes
    correctly when exactly the transmitted type's count clears Lambda;
    when neither or both clear it the receiver guesses, contributing a
    half error, and when only the wrong type clears it the bit is lost.
    """
    taps = cir(replace(channel, Ts=t_b))
    hist = _histories(channel.L)
    # type emissions follow the history bits: type 0 encodes bit 0, type 1 bit 1
    mu, var = arrival_moments(config.Q * np.stack([1.0 - hist, hist], axis=-1), taps)
    p0_above = _p_above(config.Lambda, mu[:, 0], var[:, 0])
    p1_above = _p_above(config.Lambda, mu[:, 1], var[:, 1])
    current = hist[:, -1]
    pt = np.where(current == 1.0, p1_above, p0_above)
    po = np.where(current == 1.0, p0_above, p1_above)
    wrong_only = (1.0 - pt) * po
    ambiguous = pt * po + (1.0 - pt) * (1.0 - po)
    return float((wrong_only + 0.5 * ambiguous).mean())


# ---------------------------------------------------------------------------
# release-time shift keying
# ---------------------------------------------------------------------------


def levy_scale(channel: ChannelParams) -> float:
    """Levy scale (d-r)^2 / (2D) of the first-arrival delay."""
    return (channel.d - channel.r) ** 2 / (2.0 * channel.D)


def levy_cdf(t, c: float):
    """CDF of the one-sided Levy law: erfc(sqrt(c / 2t)) for t > 0."""
    t_arr = np.asarray(t, dtype=float)
    out = np.zeros_like(t_arr)
    pos = t_arr > 0
    out[pos] = special.erfc(np.sqrt(c / (2.0 * t_arr[pos])))
    return out if out.ndim else float(out)


def levy_median(c: float) -> float:
    """Median delay: c / (2 * erfcinv(1/2)^2)."""
    return c / (2.0 * special.erfcinv(0.5) ** 2)


def _rtsk_threshold(config: RtskConfig, c: float) -> float:
    """Arrival time above which the detector decides bit 1.

    Linear: midway between the two conditional medians.  ML: the Levy
    log-likelihoods cross once, at Delta + u* with u* the root of
    h(u) = 1.5 u (u + Delta) log1p(Delta / u) - c Delta / 2; h increases
    from -c Delta / 2, and log(1 + x) >= x / (1 + x) gives
    h(u) >= 1.5 u Delta - c Delta / 2, so the root lies in (0, c/3].
    Bisection runs until the bracket stops shrinking.
    """
    delta = config.Delta
    if config.detector == "linear":
        return delta / 2.0 + levy_median(c)
    lo, hi = 0.0, c / 3.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return delta + hi
        if 1.5 * mid * (mid + delta) * math.log1p(delta / mid) < 0.5 * c * delta:
            lo = mid
        else:
            hi = mid


def rtsk_ber(config: RtskConfig, channel: ChannelParams, t_b: float) -> float:
    """Exact RTSK error rate; independent of any molecule count.

    With F_b the arrival CDF given bit b (a Levy law shifted by b*Delta),
    threshold tau and tau' = min(tau, t_b): bit 0 errs when it arrives in
    [tau', t_b], bit 1 when it arrives before tau', and an arrival past
    t_b is a fair coin.
    """
    if not config.Delta < t_b:
        raise ValueError(f"release offset {config.Delta} must lie inside the bit interval {t_b}")
    c = levy_scale(channel)
    tau = min(_rtsk_threshold(config, c), t_b)
    f0_tb, f0_tau = levy_cdf(t_b, c), levy_cdf(tau, c)
    f1_tb, f1_tau = levy_cdf(t_b - config.Delta, c), levy_cdf(tau - config.Delta, c)
    return 0.5 * (f0_tb - f0_tau) + 0.5 * f1_tau + 0.25 * (2.0 - f0_tb - f1_tb)

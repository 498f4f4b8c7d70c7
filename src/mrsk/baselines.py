"""Reference modulations on the identical diffusive channel.

On-off keying, binary concentration shift keying and binary molecule
shift keying are evaluated in closed form from one enumeration of all
2^L bit histories and their Gaussian arrival tails.  OOK is CSK with a
silent bit 0: one threshold rule serves both, with levels (0, Q) and
(Q, Gamma*Q).  Release-time shift keying rides a first-arrival timing
channel whose delay is Levy distributed; both of its detectors threshold
the arrival time, so its error rate is exact too, from the Levy CDF at
the threshold and at the bit interval (tests/rtsk_oracle.py is its Monte
Carlo check).  The OOK and MoSK thresholds are the reference settings;
the sweeps that find their optima are in tests/test_baselines.py.
All four consume :mod:`mrsk.channel`, so the comparison against the
ratio scheme shares one physics implementation.  Each sends one bit per
symbol, so the ``channel.Ts`` it is given is its bit interval.

Threshold conventions: counts at a threshold decide upward (consistent
with the ratio detector's tie-break), and frames where neither or both
molecule-shift counts clear the threshold are resolved by a fair coin,
which keeps every error rate at or below one half on uniform bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .channel import ChannelParams, arrival_moments, cir
from .errors import CapacityError
from .modem import radix_digits

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
    "HISTORY_CAP",
]

# bit histories 2^L the count baselines enumerate: `compare` peaks near 600 MB at the cap
HISTORY_CAP = 1 << 20


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
# count keying: one history enumeration, one threshold rule
# ---------------------------------------------------------------------------


def _histories(levels, taps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Moments (mu, var), each (2^L, types), of every L-bit history, and its current bit.

    Row b of the (2, types) ``levels`` is what each type emits for bit b.
    Refused above ``HISTORY_CAP`` histories, before any array is built.
    """
    L = taps.size
    if L >= HISTORY_CAP.bit_length():  # 2^L is compared by its exponent, never built
        raise CapacityError(f"2^{L} bit histories exceed HISTORY_CAP = {HISTORY_CAP}; reduce L")
    hist = radix_digits(np.arange(1 << L), 2, L)
    mu, var = arrival_moments(np.asarray(levels)[hist], taps)
    return mu, var, hist[:, -1]


def _p_above(threshold: float, mu: np.ndarray, var: np.ndarray) -> np.ndarray:
    """P(count >= threshold) under the Gaussian arrival model.

    Zero-variance histories are deterministic: the boundary decides
    upward, matching the count detectors' tie-break.
    """
    sigma = np.sqrt(var)
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = special.ndtr((mu - threshold) / sigma)
    return np.where(sigma == 0.0, mu >= threshold, tail)


def _threshold_ber(low: float, high: float, threshold: float, taps: np.ndarray) -> float:
    """BER of one type sent at ``low`` or ``high`` per bit, deciding 1 at ``threshold`` and up."""
    mu, var, current = _histories([[low], [high]], taps)
    p1 = _p_above(threshold, mu[:, 0], var[:, 0])
    return float(np.where(current == 1, 1.0 - p1, p1).mean())


def ook_ber(config: OokConfig, channel: ChannelParams) -> float:
    """Closed-form OOK error rate: CSK with a silent bit 0 (levels 0 and Q), threshold alpha*Q."""
    return _threshold_ber(0.0, config.Q, config.alpha * config.Q, cir(channel))


def csk_ber(config: CskConfig, channel: ChannelParams) -> float:
    """Closed-form binary CSK error rate.

    Amplitudes are Q (bit 0) and Gamma*Q (bit 1); the threshold is the
    geometric mean of the two expected isolated-pulse counts.
    """
    taps = cir(channel)
    threshold = math.sqrt(config.Gamma) * config.Q * taps[0]
    return _threshold_ber(config.Q, config.Q * config.Gamma, threshold, taps)


def mosk_ber(config: MoskConfig, channel: ChannelParams) -> float:
    """Closed-form binary MoSK error rate.

    Each bit releases Q molecules of its own type.  A symbol decodes
    correctly when exactly the transmitted type's count clears Lambda;
    when neither or both clear it the receiver guesses, contributing a
    half error, and when only the wrong type clears it the bit is lost.
    """
    mu, var, current = _histories(config.Q * np.eye(2), cir(channel))
    above = _p_above(config.Lambda, mu, var)
    pt, po = np.where(current[:, None] == 1, above[:, ::-1], above).T  # sent type, other type
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


def rtsk_ber(config: RtskConfig, channel: ChannelParams) -> float:
    """Exact RTSK error rate; independent of any molecule count.

    With T = channel.Ts the bit interval, F_b the arrival CDF given bit b
    (a Levy law shifted by b*Delta), threshold tau and tau' = min(tau, T):
    bit 0 errs when it arrives in [tau', T], bit 1 when it arrives before
    tau', and an arrival past T is a fair coin.
    """
    interval = channel.Ts
    if not config.Delta < interval:
        raise ValueError(f"release offset {config.Delta} must lie inside the bit interval {interval}")
    c = levy_scale(channel)
    tau = min(_rtsk_threshold(config, c), interval)
    f0_end, f0_tau = levy_cdf(interval, c), levy_cdf(tau, c)
    f1_end, f1_tau = levy_cdf(interval - config.Delta, c), levy_cdf(tau - config.Delta, c)
    return 0.5 * (f0_end - f0_tau) + 0.5 * f1_tau + 0.25 * (2.0 - f0_end - f1_end)

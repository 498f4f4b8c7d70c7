"""Diffusive point-to-sphere channel: hit probabilities and FIR moments.

Models an unbounded 3D fluid with a point transmitter and a perfectly
absorbing spherical receiver.  Everything downstream (modem, analysis,
simulation engines, baselines) consumes the per-interval hit
probabilities and the one FIR moment computation defined here, so all
schemes share one physics implementation.  The arrival samplers are the
``statistical`` and ``binomial`` engines of :mod:`mrsk.simulate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import check_cap

__all__ = [
    "ChannelParams",
    "hit_fraction",
    "cir",
    "arrival_moments",
    "MEMORY_CAP",
]

# taps a channel may keep: one frame of symbols, since no engine reads an
# interval further back than its frame start
MEMORY_CAP = 1 << 13


@dataclass(frozen=True)
class ChannelParams:
    """Geometry and physics of one diffusive link.

    d: transmitter to receiver-center distance (um)
    r: receiver radius (um)
    D: diffusion coefficient (um^2/s)
    Ts: symbol interval (s)
    L: channel memory length (number of intervals kept in the FIR model)
    """

    d: float = 10.0
    r: float = 5.0
    D: float = 79.4
    Ts: float = 0.5
    L: int = 5

    def __post_init__(self) -> None:
        # written so that NaN fails each comparison and inf fails the upper bound
        if not math.inf > self.d > self.r > 0:
            raise ValueError(f"need finite d > r > 0, got d={self.d}, r={self.r}")
        if not 0 < self.D < math.inf:
            raise ValueError(f"diffusion coefficient must be positive and finite, got {self.D}")
        if not 0 < self.Ts < math.inf:
            raise ValueError(f"symbol interval must be positive and finite, got {self.Ts}")
        if self.L < 1:
            raise ValueError(f"channel memory must be >= 1, got {self.L}")


def hit_fraction(t, params: ChannelParams):
    """Fraction of emitted molecules absorbed by time ``t`` after release.

    Equals (r/d) * erfc((d - r) / sqrt(4 D t)); 0 at t = 0 and r/d as
    t -> infinity.  Accepts scalars or arrays.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("time must be nonnegative")
    out = np.zeros_like(t_arr)
    pos = t_arr > 0
    if np.any(pos):
        arg = (params.d - params.r) / np.sqrt(4.0 * params.D * t_arr[pos])
        out[pos] = (params.r / params.d) * special.erfc(arg)
    return out if out.ndim else float(out)


def cir(params: ChannelParams) -> np.ndarray:
    """Channel impulse response: the L absorption probabilities per symbol interval.

    Tap k is F(k*Ts) - F((k-1)*Ts), k = 1..L, where F is the hit-time CDF,
    so the taps telescope back to hit_fraction(L*Ts) exactly.  Refused
    with :class:`CapacityError` when L exceeds ``MEMORY_CAP``.
    """
    check_cap(params.L, "MEMORY_CAP", MEMORY_CAP, f"channel memory L={params.L}", "reduce L")
    return np.diff(hit_fraction(np.arange(params.L + 1) * params.Ts, params))


def arrival_moments(emissions, taps) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian moments (mu, var) of the received counts under the FIR model.

    ``emissions`` has shape (..., n, N): the counts emitted in the last
    n <= L intervals, oldest first and the current interval last, with a
    cold start (nothing emitted before the first row).  Returns the mean
    and variance of the count received in the current interval, each of
    shape (..., N).
    """
    s = np.asarray(emissions, dtype=float)
    p = np.asarray(taps, dtype=float)
    n = s.shape[-2]
    if not 1 <= n <= p.size:
        raise ValueError(f"history length {n} must lie in 1..{p.size} (the memory length)")
    if np.any(s < 0):
        raise ValueError("emission counts must be nonnegative")
    w = p[:n][::-1]
    mu = np.einsum("m,...mn->...n", w, s)
    var = np.einsum("m,...mn->...n", (p * (1.0 - p))[:n][::-1], s)
    return mu, var

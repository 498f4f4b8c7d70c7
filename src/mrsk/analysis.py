"""Closed-form bit-error-rate evaluation for fixed-threshold detection.

Enumerates every length-L symbol-id sequence, computes the
signal-dependent arrival moments it induces
(:func:`mrsk.channel.arrival_moments`), and integrates the
solid-approximation ratio law over the decision buckets
(:func:`ftd_detection_prob`); :func:`ftd_ber` contracts those bucket
probabilities with :func:`hamming_table`.  The erf argument of the bucket
probabilities uses the ratio-normalized form (mu_den * E - mu_num); the
unnormalized variant fails the quadrature and Monte Carlo oracles
whenever the expected ratio differs from one.

Error rates for adaptive memory cancellation are deliberately not
derived here: the conditioning on past decisions makes the exact
recursion grow combinatorially, so that detector is evaluated by
simulation only (``simulate.run_link`` with ``detector="admc"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import special

from .channel import ChannelParams, arrival_moments, cir
from .errors import CapacityError
from .modem import (
    MrskConfig,
    codewords,
    radix_digits,
    symbol_index_combos,
    symbol_quantities,
    thresholds,
)

__all__ = [
    "SequenceSpace",
    "BerResult",
    "hamming_table",
    "ftd_detection_prob",
    "ftd_ber",
]

DEFAULT_SEQUENCE_CAP = 1 << 24
_CHUNK = 1 << 15


@dataclass(frozen=True)
class SequenceSpace:
    """Size bookkeeping for the exhaustive sequence enumeration."""

    L: int
    symbol_count: int

    @property
    def total(self) -> int:
        return self.symbol_count**self.L

    def require_within(self, cap: int) -> None:
        if self.total > cap:
            raise CapacityError(
                f"enumerating {self.total} symbol sequences "
                f"(symbol_count={self.symbol_count}, L={self.L}) exceeds the "
                f"configured cap of {cap}; raise the cap to at least "
                f"{self.total} or use the simulation path"
            )


@dataclass(frozen=True)
class BerResult:
    """Analytic BER, optionally with the per-sequence error breakdown.

    ``per_sequence_errors`` maps each transmitted symbol-id sequence,
    oldest first, to the per-bit error probability of its newest symbol.
    """

    ber: float
    per_sequence_errors: Optional[dict[tuple[int, ...], float]] = None


def hamming_table(M: int, coding: str) -> np.ndarray:
    """(2^M, 2^M) table of codeword bit differences, 0-based indices."""
    codes = codewords(M, coding)
    x = codes[:, None] ^ codes[None, :]
    return np.vectorize(lambda v: bin(v).count("1"))(x).astype(np.int64)


def _bucket_probs(
    mu_num: np.ndarray,
    var_num: np.ndarray,
    mu_den: np.ndarray,
    var_den: np.ndarray,
    edges: np.ndarray,
) -> np.ndarray:
    """P(received ratio falls in each threshold bucket), shape (..., len(edges) + 1).

    Evaluates the solid-approximation CDF at the interior thresholds with
    the moments substituted; the outer edges are -inf and +inf, where the
    CDF is exactly 0 and 1.
    """
    mn, vn, md, vd = (
        np.asarray(a, dtype=float)[..., None] for a in (mu_num, var_num, mu_den, var_den)
    )
    g = (md * edges - mn) / np.sqrt(2.0 * (vn + vd * edges * edges))
    q = md / np.sqrt(2.0 * vd)
    cdf = 0.5 * (1.0 + special.erf(g) / special.erf(q))
    zeros = np.zeros(cdf.shape[:-1] + (1,))
    return np.diff(np.concatenate([zeros, cdf, zeros + 1.0], axis=-1), axis=-1)


def ftd_detection_prob(sequences, taps: np.ndarray, config: MrskConfig) -> np.ndarray:
    """Bucket probabilities of the newest symbol's ratios, shape (..., N-1, 2^M).

    ``sequences`` holds symbol-id sequences, shape (..., n), oldest first;
    n is the memory length L, or less for a cold start.  Entry [..., j, i] is P(ratio position j of the newest
    symbol is detected as alphabet index i); the entries over i partition
    the real line, so they sum to one.
    """
    mu, var = arrival_moments(symbol_quantities(config)[sequences], taps)
    return _bucket_probs(mu[..., 1:], var[..., 1:], mu[..., :-1], var[..., :-1], thresholds(config))


def _sequence_error_probs(
    sequences: np.ndarray, config: MrskConfig, taps: np.ndarray
) -> np.ndarray:
    """Per-bit error probability of the newest symbol for each (n, L) sequence."""
    probs = ftd_detection_prob(sequences, taps, config)
    true_idx0 = symbol_index_combos(config)[sequences[:, -1]]  # (n, N-1)
    ham = hamming_table(config.M, config.coding)
    err_bits = np.zeros(sequences.shape[0])
    for j in range(config.N - 1):
        err_bits += np.einsum("ci,ci->c", probs[:, j], ham[true_idx0[:, j]])
    return err_bits / config.bits_per_symbol


def ftd_ber(
    config: MrskConfig,
    channel: ChannelParams,
    sequence_cap: int = DEFAULT_SEQUENCE_CAP,
    per_sequence: bool = False,
) -> BerResult:
    """Exact BER of fixed-threshold detection under the FIR channel model.

    Averages the per-bit error probability of the newest symbol over all
    symbol_count^L equally likely transmit sequences.  Enumeration runs
    in fixed-size chunks, so memory stays flat and partial sums combine
    associatively regardless of partitioning.
    """
    space = SequenceSpace(L=channel.L, symbol_count=config.symbol_count)
    space.require_within(sequence_cap)
    taps = cir(channel).array

    total = space.total
    acc = 0.0
    per_seq: Optional[dict] = {} if per_sequence else None
    for start in range(0, total, _CHUNK):
        ids = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        sequences = radix_digits(ids, space.symbol_count, space.L)
        pe = _sequence_error_probs(sequences, config, taps)
        acc += float(pe.sum())
        if per_seq is not None:
            per_seq.update(zip(map(tuple, sequences.tolist()), pe.tolist()))
    return BerResult(ber=acc / total, per_sequence_errors=per_seq)

"""Closed-form bit-error-rate evaluation for fixed-threshold detection.

The newest symbol's ratio position j reads molecule types j and j+1,
whose emissions are Q times products of the symbol's first j and j+1
alphabet values.  So its error probability depends only on the first
j+1 alphabet digits of each of the last L symbols, and :func:`ftd_ber`
averages it over those (2^M)^((j+1)L) windows instead of over all
symbol_count^L sequences.  The FIR moments of a window are sums over
its L intervals of per-interval emission factors, computed in blocks
as a (head, tail) split of the window's digits: head factors times tail
factors, contracted over the intervals.  Each window's moments give the
probability of every decision bucket, :func:`ratio_stats.solid_ratio_cdf`
at the thresholds and then differences, dotted with the Hamming row of
the true index.

The last ratio position needs all symbol_count^L windows, so the
sequence cap counts that: ``ftd_ber`` refuses exactly when
symbol_count^L exceeds ``SEQUENCE_CAP`` (:func:`check_sequences`), after
the taps (refused above ``channel.MEMORY_CAP``) and the alphabet refusal
of :func:`check_alphabet`.

Adaptive memory cancellation has no closed form here: its exact law, a
finite Markov chain over (last L sent symbols, previous decision), is not
implemented, so it is simulated (``simulate.run_link``, ``detector="admc"``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, cir
from .errors import check_cap
from .modem import MrskConfig, check_moments, codewords, ratio_alphabet, thresholds
from .ratio_stats import solid_ratio_cdf

__all__ = [
    "BerResult",
    "hamming_table",
    "check_alphabet",
    "check_sequences",
    "ftd_ber",
    "ALPHABET_CAP",
    "SEQUENCE_CAP",
]

# symbol sequences ftd_ber may average over: symbol_count^L
SEQUENCE_CAP = 1 << 24
# ratio alphabet entries, 2^M: the (2^M, 2^M) int64 Hamming table, and a
# block of bucket temporaries, take 128 MiB each at the cap
ALPHABET_CAP = 1 << 12
# windows per block are (2^M)^t with t * M <= _BLOCK_BITS: about a MiB of
# bucket temporaries
_BLOCK_BITS = 12


@dataclass(frozen=True)
class BerResult:
    """Analytic BER of fixed-threshold detection."""

    ber: float


def hamming_table(M: int, coding: str) -> np.ndarray:
    """(2^M, 2^M) table of codeword bit differences, 0-based indices."""
    codes = codewords(np.arange(1 << M), coding)
    return np.bitwise_count(codes[:, None] ^ codes).astype(np.int64)


def check_alphabet(config: MrskConfig) -> None:
    """Refuse, with :class:`CapacityError`, an alphabet above ``ALPHABET_CAP`` entries."""
    check_cap(
        1 << min(config.M, ALPHABET_CAP.bit_length()), "ALPHABET_CAP", ALPHABET_CAP,
        f"the alphabet (M={config.M} gives 2^{config.M} alphabet entries)", "reduce M",
    )


def check_sequences(config: MrskConfig, L: int) -> None:
    """Refuse, with :class:`CapacityError`, symbol_count^L above ``SEQUENCE_CAP`` sequences."""
    bits = config.bits_per_symbol  # symbol_count = 2^bits
    check_cap(
        1 << min(bits * L, SEQUENCE_CAP.bit_length()), "SEQUENCE_CAP", SEQUENCE_CAP,
        f"enumerating S^L = 2^{bits * L} symbol sequences (S = 2^{bits} symbols, L = {L})",
        "use the simulation path",
    )


def _bucket_probs(
    mu_num: np.ndarray,
    var_num: np.ndarray,
    mu_den: np.ndarray,
    var_den: np.ndarray,
    edges: np.ndarray,
) -> np.ndarray:
    """P(received ratio falls in each threshold bucket), shape (..., len(edges) + 1).

    The solid CDF at the interior thresholds, then differences; the outer
    edges are -inf and +inf, where the CDF is exactly 0 and 1.
    """
    # thresholds on the leading axis keep the inner loops long
    e = edges.reshape(edges.shape + (1,) * np.ndim(mu_den))
    cdf = solid_ratio_cdf(e, mu_num, var_num, mu_den, var_den)
    return np.moveaxis(np.diff(cdf, axis=0, prepend=0.0, append=1.0), 0, -1)


def _digit_factors(
    alphabet: np.ndarray, j: int, L: int, first: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Emission factors of window digits first..first+count-1, each (L, 2^M ** count).

    A window of ratio position j holds j+1 alphabet digits per interval,
    oldest interval first.  Column c enumerates those ``count`` digits
    (first one most significant); entry [m, c] is the product of the
    alphabet values of interval m's digits among them, over its first j
    digits (denominator type j) or all j+1 (numerator type j+1).
    """
    k = alphabet.size
    den = np.ones((L,) + (k,) * count)
    num = np.ones((L,) + (k,) * count)
    for axis in range(count):
        m, slot = divmod(first + axis, j + 1)
        column = alphabet.reshape((k,) + (1,) * (count - 1 - axis))
        num[m] *= column
        if slot < j:
            den[m] *= column
    return den.reshape(L, -1), num.reshape(L, -1)


def _position_errors(config: MrskConfig, taps: np.ndarray, j: int, ham: np.ndarray) -> float:
    """Mean bit errors at ratio position j of the newest symbol, over its windows."""
    k, L = config.alphabet_size, taps.size
    alphabet, edges = ratio_alphabet(config), thresholds(config)
    digits = (j + 1) * L
    tail = max(1, min(digits, _BLOCK_BITS // config.M))
    head_den, head_num = _digit_factors(alphabet, j, L, 0, digits - tail)
    tail_den, tail_num = _digit_factors(alphabet, j, L, digits - tail, tail)
    # (2, L): mean and variance weights per interval, oldest first
    weights = config.Q * np.stack([taps, taps * (1.0 - taps)])[:, ::-1]
    total = 0.0
    for h in range(head_den.shape[1]):
        mu_den, var_den = (weights * head_den[:, h]) @ tail_den
        mu_num, var_num = (weights * head_num[:, h]) @ tail_num
        probs = _bucket_probs(mu_num, var_num, mu_den, var_den, edges)
        # the last window digit, the newest symbol's index j, varies fastest
        total += float(np.einsum("rti,ti->", probs.reshape(-1, k, k), ham))
    return total / k**digits


def ftd_ber(config: MrskConfig, channel: ChannelParams) -> BerResult:
    """Exact BER of fixed-threshold detection under the FIR channel model.

    The per-bit error probability of the newest symbol, averaged over all
    symbol_count^L equally likely transmit sequences, one ratio position
    at a time over the digit windows that position reads; one half when
    every tap is 0, as every symbol then decodes as symbol 0 (all bits 0).
    Refuses with :class:`CapacityError` when L exceeds
    ``channel.MEMORY_CAP``, 2^M exceeds ``ALPHABET_CAP`` or
    symbol_count^L exceeds ``SEQUENCE_CAP``, then with ValueError when
    the moments overflow (:func:`modem.check_moments`).
    """
    taps = cir(channel)
    check_alphabet(config)
    check_sequences(config, channel.L)
    check_moments(config)
    if not taps.any():
        return BerResult(ber=0.5)
    ham = hamming_table(config.M, config.coding)
    errors = sum(_position_errors(config, taps, j, ham) for j in range(config.N - 1))
    return BerResult(ber=errors / config.bits_per_symbol)

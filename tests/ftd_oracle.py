"""Whole-sequence FTD reference: every symbol_count^L sequence, gathered emissions.

``mrsk.analysis.ftd_ber`` enumerates digit windows per ratio position
and builds its moments from per-interval factors; this module keeps the
direct evaluation (each length-L symbol sequence, its emission table
rows and :func:`mrsk.channel.arrival_moments`) so the two share only
the bucket arithmetic and the Hamming table.
"""

import numpy as np

from encode_oracle import symbol_indices
from mrsk.analysis import _bucket_probs, hamming_table
from mrsk.channel import ChannelParams, arrival_moments, cir
from mrsk.modem import MrskConfig, radix_digits, symbol_quantities, thresholds

_CHUNK = 1 << 15


def ftd_detection_prob(sequences, taps: np.ndarray, config: MrskConfig) -> np.ndarray:
    """Bucket probabilities of the newest symbol's ratios, shape (..., N-1, 2^M).

    ``sequences`` holds symbol sequences, shape (..., n), oldest first;
    n is the memory length L, or less for a cold start.  Entry [..., j, i]
    is P(ratio position j of the newest symbol is detected as alphabet
    index i); the entries over i partition the real line, so they sum to one.
    """
    mu, var = arrival_moments(symbol_quantities(config)[sequences], taps)
    return _bucket_probs(mu[..., 1:], var[..., 1:], mu[..., :-1], var[..., :-1], thresholds(config))


def sequence_error_probs(sequences: np.ndarray, config: MrskConfig, taps: np.ndarray) -> np.ndarray:
    """Per-bit error probability of the newest symbol for each (n, L) sequence."""
    probs = ftd_detection_prob(sequences, taps, config)
    true_idx0 = symbol_indices(sequences[:, -1], config)  # (n, N-1)
    ham = hamming_table(config.M, config.coding)
    err_bits = np.zeros(sequences.shape[0])
    for j in range(config.N - 1):
        err_bits += np.einsum("ci,ci->c", probs[:, j], ham[true_idx0[:, j]])
    return err_bits / config.bits_per_symbol


def ftd_ber_oracle(config: MrskConfig, channel: ChannelParams) -> float:
    """Mean of :func:`sequence_error_probs` over all symbol_count^L sequences, in chunks."""
    taps = cir(channel)
    total = config.symbol_count**channel.L
    acc = 0.0
    for start in range(0, total, _CHUNK):
        ids = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        sequences = radix_digits(ids, config.symbol_count, channel.L)
        acc += float(sequence_error_probs(sequences, config, taps).sum())
    return acc / total

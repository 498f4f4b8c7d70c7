"""Bits to alphabet-index rows, the mapping that ``mrsk.modem`` folds into its symbols.

A symbol is the integer of its bits (``mrsk.modem.pack``), and frames
never build index rows, so the encoder lives here, where the round-trip
tests, the index-row frame reference and the whole-sequence FTD oracle
use it.
"""

import numpy as np

from mrsk.modem import MrskConfig, codewords, pack, radix_digits


def value_to_index(M: int, coding: str) -> np.ndarray:
    """Inverse of :func:`mrsk.modem.codewords`: bit-group value -> 0-based index."""
    codes = codewords(np.arange(1 << M), coding)
    inv = np.empty_like(codes)
    inv[codes] = np.arange(codes.size)
    return inv


def encode_bits_to_indices(bits, config: MrskConfig) -> np.ndarray:
    """Bits -> (n_symbols, N-1) array of 0-based alphabet indices."""
    b = np.asarray(bits)
    if b.ndim != 1:
        raise ValueError("bits must be one-dimensional")
    if np.any((b != 0) & (b != 1)):
        raise ValueError("bits must be 0/1")
    bps = config.bits_per_symbol
    if b.size == 0 or b.size % bps != 0:
        raise ValueError(
            f"bit count {b.size} is not a positive multiple of {bps} bits per symbol"
        )
    indices = value_to_index(config.M, config.coding)[pack(b.reshape(-1, config.M), 1)]
    return indices.reshape(-1, config.N - 1)


def symbol_indices(symbols, config: MrskConfig) -> np.ndarray:
    """(n, N-1) alphabet-index rows of symbols, each symbol the integer of its bits."""
    bits = radix_digits(np.ravel(symbols), 2, config.bits_per_symbol)
    return encode_bits_to_indices(bits.ravel(), config)

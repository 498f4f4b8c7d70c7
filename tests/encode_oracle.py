"""Bits to alphabet-index rows: the inverse of ``mrsk.modem.decode_indices_to_bits``.

Frames pack each symbol's bits into one integer value (``bit_values``)
and never build index rows, so the encoder lives here, where the
round-trip tests and the index-row frame reference use it.
"""

import numpy as np

from mrsk.modem import MrskConfig, bit_values, codewords


def value_to_index(M: int, coding: str) -> np.ndarray:
    """Inverse of :func:`mrsk.modem.codewords`: bit-group value -> 0-based index."""
    codes = codewords(M, coding)
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
    indices = value_to_index(config.M, config.coding)[bit_values(b, config.M)]
    return indices.reshape(-1, config.N - 1)

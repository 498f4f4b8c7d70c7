"""MRSK modem: ratio alphabet, bit mapping, emission quantities, detectors.

A symbol encodes M*(N-1) bits into the N-1 consecutive concentration
ratios of N molecule types.  Ratios live on a geometric grid spanning
[Omega^-1, Omega]; detection buckets each received ratio against the
geometric-mean thresholds (FTD), optionally after subtracting the
estimated one-tap interference of the previous symbol (ADMC), or jointly
over a window by a Viterbi search of the ratio log-likelihood (MLSD).
The Viterbi search works on arrays: branch metrics for every S^L symbol
window over a block of frames in one expression, add-compare-select over
(S^(L-1), S) score arrays and an integer traceback.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .channel import Cir
from .errors import CapacityError

__all__ = [
    "MrskConfig",
    "RatioSymbol",
    "EmissionVector",
    "ReceivedFrame",
    "DetectorStats",
    "ratio_alphabet",
    "thresholds",
    "codewords",
    "encode_bits",
    "decode_bits",
    "quantities",
    "average_molecules_per_bit",
    "role_rotation",
    "detect_ftd",
    "detect_admc",
    "detect_mlsd",
    "symbol_index_combos",
    "symbol_quantities",
]

_CODINGS = ("binary", "gray")
_DETECTORS = ("ftd", "admc", "mlsd")
_MLSD_METRICS = ("solid", "gaussian")
# working-set budget of one block of the vectorised sequential detectors
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class MrskConfig:
    """Modulation parameters.

    N: number of molecule types (>= 2)
    M: bits carried per ratio (>= 1)
    Omega: ratio-range base; the alphabet spans [Omega^-1, Omega]
    Q: reference molecule count of the first type
    coding: bit-to-index mapping, "binary" or "gray"
    detector: "ftd", "admc" or "mlsd"
    mlsd_window: maximum window length handed to the sequence detector
    mlsd_metric: branch metric, "solid" or "gaussian"
    rotate_roles: cyclically permute molecule roles symbol by symbol so
        reservoir usage balances; both ends apply the same deterministic
        schedule (off by default)
    denom_eps_scale: ratio denominators at or below denom_eps_scale * Q
        mark a frame degenerate
    """

    N: int = 2
    M: int = 1
    Omega: float = math.e
    Q: float = 1000.0
    coding: str = "gray"
    detector: str = "ftd"
    mlsd_window: int = 1 << 20
    mlsd_metric: str = "solid"
    rotate_roles: bool = False
    denom_eps_scale: float = 1e-6

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValueError(f"need at least two molecule types, got N={self.N}")
        if self.M < 1:
            raise ValueError(f"need at least one bit per ratio, got M={self.M}")
        if self.Omega <= 1.0:
            raise ValueError(f"ratio-range base must exceed 1, got {self.Omega}")
        if self.Q <= 0:
            raise ValueError(f"reference count must be positive, got {self.Q}")
        if self.coding not in _CODINGS:
            raise ValueError(f"coding must be one of {_CODINGS}, got {self.coding!r}")
        if self.detector not in _DETECTORS:
            raise ValueError(f"detector must be one of {_DETECTORS}, got {self.detector!r}")
        if self.mlsd_metric not in _MLSD_METRICS:
            raise ValueError(f"mlsd_metric must be one of {_MLSD_METRICS}, got {self.mlsd_metric!r}")
        if self.mlsd_window < 1:
            raise ValueError("mlsd_window must be positive")

    @property
    def bits_per_symbol(self) -> int:
        return self.M * (self.N - 1)

    @property
    def alphabet_size(self) -> int:
        return 1 << self.M

    @property
    def symbol_count(self) -> int:
        return self.alphabet_size ** (self.N - 1)

    @property
    def denom_eps(self) -> float:
        return self.denom_eps_scale * self.Q


@dataclass(frozen=True)
class RatioSymbol:
    """One symbol: N-1 alphabet indices, each 1-based in 1..2^M."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.indices) < 1 or any(i < 1 for i in self.indices):
            raise ValueError(f"indices must be 1-based positive, got {self.indices}")


@dataclass(frozen=True)
class EmissionVector:
    """Molecule counts released for one symbol, first type fixed at Q."""

    quantities: tuple[float, ...]

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.quantities, dtype=float)


@dataclass(frozen=True)
class ReceivedFrame:
    """Received counts for one symbol interval plus the derived ratios.

    Ratios are stored with denominators clamped at the degeneracy
    epsilon; ``degenerate`` records whether any clamp fired.
    """

    counts: tuple[float, ...]
    ratios: tuple[float, ...]
    degenerate: bool

    @classmethod
    def from_counts(cls, counts, config: MrskConfig) -> "ReceivedFrame":
        c = np.asarray(counts, dtype=float)
        if c.shape != (config.N,):
            raise ValueError(f"expected {config.N} counts, got shape {c.shape}")
        den = c[:-1]
        degenerate = bool(np.any(den <= config.denom_eps))
        ratios = c[1:] / np.maximum(den, config.denom_eps)
        return cls(tuple(float(v) for v in c), tuple(float(v) for v in ratios), degenerate)

    @property
    def ratio_array(self) -> np.ndarray:
        return np.asarray(self.ratios, dtype=float)


@dataclass
class DetectorStats:
    """Caller-owned diagnostic counters shared across detector calls."""

    degenerate_frames: int = 0
    admc_clamps: int = 0


# ---------------------------------------------------------------------------
# symbol construction
# ---------------------------------------------------------------------------


def ratio_alphabet(config: MrskConfig) -> np.ndarray:
    """The 2^M admissible ratio values Omega^(-1 + 2(i-1)/(2^M - 1)).

    Strictly increasing and geometric; for M = 1 this is {Omega^-1, Omega}.
    """
    k = config.alphabet_size
    if k == 2:
        exponents = np.array([-1.0, 1.0])
    else:
        exponents = -1.0 + 2.0 * np.arange(k) / (k - 1)
    return config.Omega**exponents


def thresholds(config: MrskConfig) -> np.ndarray:
    """Decision thresholds E_i = Omega^(-1 + (2i-1)/(2^M - 1)), i = 1..2^M-1.

    E_i is the geometric mean of adjacent alphabet entries; for M = 1 the
    single threshold is exactly 1.
    """
    k = config.alphabet_size
    exponents = -1.0 + (2.0 * np.arange(1, k) - 1.0) / (k - 1)
    return config.Omega**exponents


def codewords(M: int, coding: str) -> np.ndarray:
    """Codeword value carried by each 0-based alphabet index.

    Binary coding is the identity; gray coding maps index i to
    i ^ (i >> 1) so adjacent indices differ in exactly one bit.
    """
    idx = np.arange(1 << M)
    if coding == "binary":
        return idx
    if coding == "gray":
        return idx ^ (idx >> 1)
    raise ValueError(f"unknown coding {coding!r}")


def _value_to_index(M: int, coding: str) -> np.ndarray:
    """Inverse of :func:`codewords`: bit-group value -> 0-based index."""
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
    groups = b.astype(np.int64).reshape(-1, config.M)
    weights = 1 << np.arange(config.M - 1, -1, -1)
    values = groups @ weights
    indices = _value_to_index(config.M, config.coding)[values]
    return indices.reshape(-1, config.N - 1)


def decode_indices_to_bits(indices, config: MrskConfig) -> np.ndarray:
    """(n_symbols, N-1) 0-based alphabet indices -> bits."""
    idx = np.asarray(indices, dtype=np.int64)
    values = codewords(config.M, config.coding)[idx.reshape(-1)]
    shifts = np.arange(config.M - 1, -1, -1)
    bits = (values[:, None] >> shifts) & 1
    return bits.reshape(-1).astype(np.uint8)


def encode_bits(bits, config: MrskConfig) -> list[RatioSymbol]:
    """Map a bit string onto ratio symbols, M bits per ratio position.

    The bit count must be an exact multiple of M*(N-1); no implicit
    padding, so error-rate accounting stays unambiguous.
    """
    indices = encode_bits_to_indices(bits, config)
    return [RatioSymbol(tuple(int(i) + 1 for i in row)) for row in indices]


def decode_bits(symbols: Sequence[RatioSymbol], config: MrskConfig) -> np.ndarray:
    """Exact inverse of :func:`encode_bits` under the same coding."""
    idx = np.array([[i - 1 for i in s.indices] for s in symbols], dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= config.alphabet_size):
        raise ValueError("symbol index out of range for this alphabet")
    return decode_indices_to_bits(idx, config)


def quantities(symbol: RatioSymbol, config: MrskConfig) -> EmissionVector:
    """Molecule counts for one symbol: Q times the cumulative ratio product."""
    if len(symbol.indices) != config.N - 1:
        raise ValueError(f"expected {config.N - 1} ratio indices, got {len(symbol.indices)}")
    if any(i > config.alphabet_size for i in symbol.indices):
        raise ValueError("symbol index out of range for this alphabet")
    alphabet = ratio_alphabet(config)
    ratios = alphabet[[i - 1 for i in symbol.indices]]
    qty = config.Q * np.concatenate(([1.0], np.cumprod(ratios)))
    return EmissionVector(tuple(float(v) for v in qty))


def average_molecules_per_bit(config: MrskConfig) -> float:
    """Expected total emission per symbol under uniform bits, per bit.

    Ratios are i.i.d. uniform over the alphabet, so the expected count of
    type i is Q * mean(alphabet)^(i-1) and the total is a geometric sum.
    """
    m1 = float(ratio_alphabet(config).mean())
    total = config.Q * float(np.sum(m1 ** np.arange(config.N)))
    return total / config.bits_per_symbol


def role_rotation(symbol_position: int, config: MrskConfig) -> int:
    """Cyclic shift of molecule roles for the symbol at this position."""
    if not config.rotate_roles:
        return 0
    return symbol_position % config.N


def _radix(config: MrskConfig) -> np.ndarray:
    """Place value of each ratio position in a symbol id: id = index row @ radix."""
    return config.alphabet_size ** np.arange(config.N - 2, -1, -1)


def symbol_index_combos(config: MrskConfig) -> np.ndarray:
    """All symbols as (symbol_count, N-1) 0-based index rows.

    Row s is the mixed-radix digits of s, first ratio position most
    significant; every module enumerating symbols shares this order.
    """
    return np.arange(config.symbol_count)[:, None] // _radix(config) % config.alphabet_size


def symbol_quantities(config: MrskConfig) -> np.ndarray:
    """Emission quantities for every symbol id, shape (symbol_count, N)."""
    alphabet = ratio_alphabet(config)
    ratios = alphabet[symbol_index_combos(config)]
    qty = np.concatenate(
        [np.ones((ratios.shape[0], 1)), np.cumprod(ratios, axis=1)], axis=1
    )
    return config.Q * qty


# ---------------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------------


def _bucket(ratios: np.ndarray, config: MrskConfig) -> np.ndarray:
    """0-based alphabet indices for received ratios; ties go upward."""
    return np.searchsorted(thresholds(config), ratios, side="right")


def detect_ftd(
    frame: ReceivedFrame,
    config: MrskConfig,
    stats: Optional[DetectorStats] = None,
) -> RatioSymbol:
    """Fixed-threshold detection: bucket each ratio independently.

    Thresholds depend only on the ratio alphabet, never on the channel.
    A degenerate frame (near-zero denominator) yields the all-lowest-index
    symbol and bumps the diagnostic counter so Monte Carlo batches stay
    total.
    """
    if frame.degenerate:
        if stats is not None:
            stats.degenerate_frames += 1
        return RatioSymbol((1,) * (config.N - 1))
    idx0 = _bucket(frame.ratio_array, config)
    return RatioSymbol(tuple(int(i) + 1 for i in idx0))


def detect_admc(
    frame: ReceivedFrame,
    previous_detected: Optional[RatioSymbol],
    channel_cir: Cir,
    config: MrskConfig,
    stats: Optional[DetectorStats] = None,
) -> RatioSymbol:
    """Adaptive detection with one-tap memory cancellation.

    Subtracts p_hit[2] times the previous symbol's estimated emissions
    (reconstructed from the previous decision) from the received counts,
    then applies fixed-threshold detection to the adjusted ratios.  The
    first symbol of a burst has no predecessor and uses zero correction.
    Non-positive adjusted counts are clamped at the degeneracy epsilon
    and counted.
    """
    if len(channel_cir) < 2:
        raise ValueError("memory cancellation needs channel memory L >= 2")
    counts = np.asarray(frame.counts, dtype=float)
    if previous_detected is not None:
        counts = counts - channel_cir.p_hit[1] * quantities(previous_detected, config).array
    eps = config.denom_eps
    low = counts <= eps
    if np.any(low):
        if stats is not None:
            stats.admc_clamps += int(low.sum())
        counts = np.maximum(counts, eps)
    idx0 = _bucket(counts[1:] / counts[:-1], config)
    return RatioSymbol(tuple(int(i) + 1 for i in idx0))


def _block_rows(floats_per_row: int) -> int:
    """Rows per block so a block's float temporaries stay near _BLOCK_BYTES."""
    return max(1, _BLOCK_BYTES // (8 * floats_per_row))


def _window_constants(config: MrskConfig, taps: np.ndarray, n: int) -> np.ndarray:
    """Branch-metric constants of every n-id window, shape (S^n, N-1, C).

    Window w is the mixed-radix number of its ids, oldest most significant;
    the moments are the cold-start FIR sums of the window's emissions.
    """
    qty = symbol_quantities(config)
    var_taps = taps * (1.0 - taps)
    rows = []
    for window in itertools.product(range(config.symbol_count), repeat=n):
        emissions = qty[list(window)]
        mu = taps[:n][::-1] @ emissions
        var = var_taps[:n][::-1] @ emissions
        row = []
        for mu_d, var_d, mu_n, var_n in zip(mu[:-1], var[:-1], mu[1:], var[1:]):
            if config.mlsd_metric == "solid":
                lnerf = math.log(math.erf(mu_d / math.sqrt(2.0 * var_d)))
                row.append((mu_d, var_d, mu_n, var_n, lnerf))
            else:
                beta = mu_n / mu_d
                lam2 = beta * beta * (var_n / (mu_n * mu_n) + var_d / (mu_d * mu_d))
                row.append((beta, lam2, 0.5 * math.log(lam2)))
        rows.append(row)
    return np.array(rows)


def _branch_metrics(z: np.ndarray, consts: np.ndarray, config: MrskConfig) -> np.ndarray:
    """(T, W) log ratio-densities of T ratio rows under W windows' constants.

    Under ``solid`` a window with a non-positive density factor scores -1e300.
    """
    total = np.zeros((z.shape[0], consts.shape[0]))
    dead = np.zeros(total.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(consts.shape[1]):
            zj = z[:, j, None]
            if config.mlsd_metric == "solid":
                mu_d, var_d, mu_n, var_n, lnerf = consts[:, j].T
                a = mu_d * var_n + mu_n * var_d * zj
                b = var_n + var_d * zj * zj
                dead |= a <= 0.0
                total += np.log(a) - 1.5 * np.log(b) - (mu_d * zj - mu_n) ** 2 / (2.0 * b) - lnerf
            else:
                beta, lam2, half_ln_lam2 = consts[:, j].T
                total += -half_ln_lam2 - (zj - beta) * (zj - beta) / (2.0 * lam2)
    total[dead] = -1e300
    return total


def _viterbi_symbol_ids(
    ratios: np.ndarray,
    config: MrskConfig,
    taps: np.ndarray,
    state_cap: int = 1 << 16,
) -> list[int]:
    """Viterbi search over symbol ids for a (T, N-1) ratio array.

    A state is the mixed-radix index of the last L-1 ids, oldest most
    significant, so window w = state * S + id.  Ties go to the lowest
    predecessor and, at the end, to the lowest state.
    """
    L, S, T = len(taps), config.symbol_count, ratios.shape[0]
    n_states = S ** (L - 1)
    if n_states > state_cap:
        raise CapacityError(
            f"sequence detection needs {n_states} trellis states "
            f"(2^(M(N-1)(L-1))), exceeding the configured cap of {state_cap}; "
            f"raise state_cap to at least {n_states} or reduce N, M or L"
        )
    mem = min(L - 1, T)
    scores = np.zeros(1)
    for k in range(mem):  # cold start: k ids so far, so S^k states
        bm = _branch_metrics(ratios[k : k + 1], _window_constants(config, taps, k + 1), config)
        scores = (scores[:, None] + bm.reshape(-1, S)).reshape(-1)

    # add-compare-select: candidate (oldest id o, new state n) is window o * n_states + n
    consts = _window_constants(config, taps, L)
    back = np.empty((T, n_states), dtype=np.min_scalar_type(S - 1))
    block = _block_rows(8 * S**L)
    for start in range(mem, T, block):
        bm = _branch_metrics(ratios[start : start + block], consts, config)
        for k, row in enumerate(bm, start):
            cand = (scores[:, None] + row.reshape(n_states, S)).reshape(S, n_states)
            back[k] = cand.argmax(axis=0)
            scores = cand.max(axis=0)

    state, detected = int(scores.argmax()), []
    for k in range(T - 1, -1, -1):
        window = int(back[k, state]) * n_states + state if k >= mem else state
        state, symbol = divmod(window, S)
        detected.append(symbol)
    return detected[::-1]


def detect_mlsd(
    ratio_frames,
    config: MrskConfig,
    channel_cir: Cir,
    state_cap: int = 1 << 16,
) -> list[RatioSymbol]:
    """Maximum-likelihood sequence detection over a window of frames.

    Runs a Viterbi search whose states are the last L-1 symbols; the
    branch metric is the log ratio-density (solid approximation by
    default, Gaussian behind ``mlsd_metric``) evaluated with the
    signal-dependent moments of each candidate window.  The window starts
    cold: intervals before the first frame carry zero emissions.
    """
    rows = [f.ratios if isinstance(f, ReceivedFrame) else f for f in ratio_frames]
    ratios = np.atleast_2d(np.array(rows, dtype=float))
    if ratios.shape[0] > config.mlsd_window:
        raise ValueError(
            f"window of {ratios.shape[0]} frames exceeds mlsd_window={config.mlsd_window}"
        )
    ids = _viterbi_symbol_ids(ratios, config, channel_cir.array, state_cap)
    combos = symbol_index_combos(config)
    return [RatioSymbol(tuple(int(i) + 1 for i in combos[s])) for s in ids]

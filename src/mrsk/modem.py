"""MRSK modem: ratio alphabet, bit mapping, emission quantities, detectors.

A symbol encodes M*(N-1) bits into the N-1 consecutive concentration
ratios of N molecule types.  Ratios live on a geometric grid spanning
[Omega^-1, Omega].  Symbol s is the integer of the bits it carries,
first bit most significant: its base-2^M digits, first ratio position
most significant, are the codewords of its ratio indices.  Every module
numbers symbols this way, and only this module (with the Hamming table
of :mod:`mrsk.analysis`) knows the bit mapping.

The three detectors take (K, N) received counts and return (K,)
symbols plus their diagnostic counters: FTD buckets each received ratio
against the geometric-mean thresholds, ADMC first subtracts the
estimated one-tap interference of the previous decision, and MLSD runs
one Viterbi search of the ratio log-likelihood over all K symbols.
The Viterbi search works on arrays: branch metrics for every S^L symbol
window over a block of rows in one expression, add-compare-select over
(S^(L-1), S) score arrays and an integer traceback.  The trellis caps
and the degeneracy epsilon ``DENOM_EPS_SCALE * Q`` are module constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .channel import arrival_moments
from .errors import CapacityError
from .ratio_stats import gaussian_ratio_params

__all__ = [
    "MrskConfig",
    "ratio_alphabet",
    "thresholds",
    "codewords",
    "pack",
    "radix_digits",
    "symbol_quantities",
    "detect_ftd",
    "detect_admc",
    "detect_mlsd",
    "trellis_states",
    "DENOM_EPS_SCALE",
    "TRELLIS_STATE_CAP",
    "TRELLIS_WINDOW_CAP",
    "TRELLIS_WORK_CAP",
]

_CODINGS = ("binary", "gray")
_DETECTORS = ("ftd", "admc", "mlsd")
_MLSD_METRICS = ("solid", "gaussian")
# working-set budget of one block of the vectorised sequential detectors
_BLOCK_BYTES = 1 << 20
# ratio denominators at or below DENOM_EPS_SCALE * Q mark a symbol degenerate
DENOM_EPS_SCALE = 1e-6
# up to this many ascending thresholds are counted, one comparison pass
# each (M <= 5); beyond it a binary search is faster
_COUNTED_THRESHOLDS = 31
# sequence detection over S symbols and L taps keeps S^(L-1) Viterbi states
# and tabulates S^L branch windows (tens of floats each); a frame's traceback
# holds a byte per state and symbol (two above S = 256, where the window cap
# leaves at most 2^10 states), so at most 64 MiB for 8192 symbols
TRELLIS_STATE_CAP = 1 << 13
TRELLIS_WINDOW_CAP = 1 << 20
# window-symbols a sequence-detected link may score, symbols times S^L: the
# caps above bound memory, this one time (about 90 ns each, so ~95 s at the cap)
TRELLIS_WORK_CAP = 1 << 30


@dataclass(frozen=True)
class MrskConfig:
    """Modulation parameters.

    N: number of molecule types (>= 2)
    M: bits carried per ratio (>= 1)
    Omega: ratio-range base; the alphabet spans [Omega^-1, Omega]
    Q: reference molecule count of the first type
    coding: bit-to-index mapping, "binary" or "gray"
    detector: "ftd", "admc" or "mlsd"
    mlsd_metric: branch metric, "solid" or "gaussian"
    """

    N: int = 2
    M: int = 1
    Omega: float = math.e
    Q: float = 1000.0
    coding: str = "gray"
    detector: str = "ftd"
    mlsd_metric: str = "solid"

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValueError(f"need at least two molecule types, got N={self.N}")
        if self.M < 1:
            raise ValueError(f"need at least one bit per ratio, got M={self.M}")
        # NaN fails each comparison, inf the upper bound
        if not 1.0 < self.Omega < math.inf:
            raise ValueError(f"ratio-range base must be finite and exceed 1, got {self.Omega}")
        if not 0 < self.Q < math.inf:
            raise ValueError(f"reference count must be positive and finite, got {self.Q}")
        if self.coding not in _CODINGS:
            raise ValueError(f"coding must be one of {_CODINGS}, got {self.coding!r}")
        if self.detector not in _DETECTORS:
            raise ValueError(f"detector must be one of {_DETECTORS}, got {self.detector!r}")
        if self.mlsd_metric not in _MLSD_METRICS:
            raise ValueError(f"mlsd_metric must be one of {_MLSD_METRICS}, got {self.mlsd_metric!r}")

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
        return DENOM_EPS_SCALE * self.Q


# ---------------------------------------------------------------------------
# symbol construction
# ---------------------------------------------------------------------------


def ratio_alphabet(config: MrskConfig) -> np.ndarray:
    """The 2^M admissible ratio values Omega^(-1 + 2(i-1)/(2^M - 1)).

    Strictly increasing and geometric; for M = 1 this is {Omega^-1, Omega}.
    """
    k = config.alphabet_size
    return config.Omega ** (-1.0 + 2.0 * np.arange(k) / (k - 1))


def thresholds(config: MrskConfig) -> np.ndarray:
    """Decision thresholds E_i = Omega^(-1 + (2i-1)/(2^M - 1)), i = 1..2^M-1.

    E_i is the geometric mean of adjacent alphabet entries; for M = 1 the
    single threshold is exactly 1.
    """
    k = config.alphabet_size
    exponents = -1.0 + (2.0 * np.arange(1, k) - 1.0) / (k - 1)
    return config.Omega**exponents


def codewords(indices: np.ndarray, coding: str) -> np.ndarray:
    """The codeword, an M-bit value, that each 0-based alphabet index carries.

    Binary coding is the identity; gray coding maps index i to
    i ^ (i >> 1) so adjacent indices differ in exactly one bit.
    """
    if coding == "binary":
        return indices
    if coding == "gray":
        return indices ^ (indices >> 1)
    raise ValueError(f"unknown coding {coding!r}")


def pack(digits, shift: int) -> np.ndarray:
    """The integers whose base-2^shift digits run along the last axis, first most significant.

    Frames pack bits (shift 1), detectors codewords (shift M); Horner's
    rule in place, as NumPy's integer matmul is several times slower here.
    """
    digits = np.asarray(digits)
    out = digits[..., 0].astype(np.int64)
    for j in range(1, digits.shape[-1]):
        out <<= shift
        out |= digits[..., j]
    return out


def radix_digits(values, base: int, width: int) -> np.ndarray:
    """Base-``base`` digits of integer values, most significant first: shape (..., width)."""
    return np.asarray(values)[..., None] // base ** np.arange(width - 1, -1, -1) % base


def symbol_quantities(config: MrskConfig) -> np.ndarray:
    """Emission quantities of every symbol, shape (symbol_count, N).

    Row s takes, at each ratio position, the alphabet entry whose codeword
    is that base-2^M digit of s.
    """
    by_codeword = np.empty(config.alphabet_size)
    by_codeword[codewords(np.arange(config.alphabet_size), config.coding)] = ratio_alphabet(config)
    ratios = by_codeword[radix_digits(np.arange(config.symbol_count), config.alphabet_size, config.N - 1)]
    return config.Q * np.concatenate([np.ones((len(ratios), 1)), np.cumprod(ratios, axis=1)], axis=1)


# ---------------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------------


def _ratios(counts: np.ndarray, config: MrskConfig) -> tuple[np.ndarray, np.ndarray]:
    """Received ratios with clamped denominators, and the raw-degenerate rows."""
    eps = config.denom_eps
    den = counts[:, :-1]
    return counts[:, 1:] / np.maximum(den, eps), np.any(den <= eps, axis=1)


def _buckets(edges: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Bucket of each r among ascending ``edges``: ``np.searchsorted(edges, r, side="right")``.

    Small alphabets count the edges that r is not below, so ties go
    upward and NaN lands in the last bucket, exactly as in the search.
    """
    if edges.size > _COUNTED_THRESHOLDS:
        return np.searchsorted(edges, r, side="right")
    out = np.full_like(r, edges.size, dtype=np.uint8)  # r's layout, so each pass runs in order
    for e in edges:
        out -= r < e
    return out


def _symbols(ratios: np.ndarray, config: MrskConfig, edges: np.ndarray) -> np.ndarray:
    """Symbol of each row of ratios: each ratio's bucket among ``edges``, its codeword, packed."""
    return pack(codewords(_buckets(edges, ratios), config.coding), config.M)


def detect_ftd(counts: np.ndarray, config: MrskConfig) -> tuple[np.ndarray, int]:
    """Fixed-threshold detection of (K, N) counts: (symbols, degenerate symbols).

    Each ratio is bucketed independently against the alphabet thresholds
    (ties go upward).  A symbol whose raw denominator is at or below the
    degeneracy epsilon decodes as symbol 0 and is counted.
    """
    ratios, degenerate = _ratios(counts, config)
    symbols = _symbols(ratios, config, thresholds(config))
    symbols[degenerate] = 0
    return symbols, np.count_nonzero(degenerate)


def detect_admc(
    counts: np.ndarray, config: MrskConfig, taps: np.ndarray
) -> tuple[np.ndarray, int, int]:
    """One-tap memory cancellation: (symbols, raw-degenerate symbols, clamps).

    Symbol k's counts lose taps[1] times the emissions of the symbol
    decided at k-1 (none before the first symbol), adjusted counts at or
    below epsilon are clamped there and counted, and the adjusted ratios
    are bucketed as in :func:`detect_ftd`.  Decision k depends only on the
    symbol s decided at k-1, so each block tabulates next[k, s] for every
    s, walks it, and counts the clamps at the walked (k, s); row S is the
    zero emission before the first symbol.
    """
    if taps.size < 2:
        raise ValueError("memory cancellation needs channel memory L >= 2")
    S, eps = config.symbol_count, config.denom_eps
    cancel = taps[1] * np.vstack([symbol_quantities(config), np.zeros(config.N)])
    edges, ids, clamps, d = thresholds(config), [], 0, S
    block = _block_rows(4 * (S + 1) * config.N)
    for start in range(0, counts.shape[0], block):
        c = counts[start : start + block, None, :] - cancel
        low = (c <= eps).sum(axis=2)
        c = np.maximum(c, eps)
        ratios = c[..., 1:] / c[..., :-1]
        table = _symbols(ratios, config, edges)
        flat, path = table.ravel().tolist(), [d]
        for row in range(0, len(flat), S + 1):
            d = flat[row + d]
            ids.append(d)
        path += ids[start:-1]
        clamps += int(low[np.arange(len(path)), path].sum())
    return np.array(ids, dtype=np.int64), int(_ratios(counts, config)[1].sum()), clamps


def _block_rows(floats_per_row: int) -> int:
    """Rows per block so a block's float temporaries stay near _BLOCK_BYTES."""
    return max(1, _BLOCK_BYTES // (8 * floats_per_row))


def _window_constants(config: MrskConfig, taps: np.ndarray, n: int) -> np.ndarray:
    """Branch-metric constants of every n-symbol window, shape (S^n, N-1, C).

    Window w is the mixed-radix number of its symbols, oldest most significant;
    the moments are the cold-start FIR sums of the window's emissions.
    """
    windows = radix_digits(np.arange(config.symbol_count**n), config.symbol_count, n)
    mu, var = arrival_moments(symbol_quantities(config)[windows], taps)
    mu_d, var_d, mu_n, var_n = mu[:, :-1], var[:, :-1], mu[:, 1:], var[:, 1:]
    if config.mlsd_metric == "solid":
        lnerf = np.log(special.erf(mu_d / np.sqrt(2.0 * var_d)))
        return np.stack([mu_d, var_d, mu_n, var_n, lnerf], axis=-1)
    beta, lam2 = gaussian_ratio_params(mu_n, var_n, mu_d, var_d)
    return np.stack([beta, lam2, 0.5 * np.log(lam2)], axis=-1)


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


def trellis_states(config: MrskConfig, L: int) -> int:
    """Viterbi states S^(L-1) of sequence detection over L taps.

    Refused with :class:`CapacityError` when the states exceed
    ``TRELLIS_STATE_CAP`` or the S^L branch windows ``TRELLIS_WINDOW_CAP``.
    """
    # S = 2^bits_per_symbol, so powers of S are compared by their exponents, never built
    bits = config.bits_per_symbol
    states, windows = bits * (L - 1), bits * L
    if states >= TRELLIS_STATE_CAP.bit_length() or windows >= TRELLIS_WINDOW_CAP.bit_length():
        raise CapacityError(
            f"sequence detection needs S^(L-1) = 2^{states} trellis states and S^L = 2^{windows} "
            f"branch windows (S = 2^{bits} symbols, L = {L}), exceeding TRELLIS_STATE_CAP = "
            f"{TRELLIS_STATE_CAP} or TRELLIS_WINDOW_CAP = {TRELLIS_WINDOW_CAP}; reduce N, M or L"
        )
    return 1 << states


def _viterbi_symbol_ids(ratios: np.ndarray, config: MrskConfig, taps: np.ndarray) -> list[int]:
    """Viterbi search over symbols for a (T, N-1) ratio array.

    A state is the mixed-radix index of the last L-1 symbols, oldest most
    significant, so window w = state * S + symbol.  Ties go to the lowest
    predecessor and, at the end, to the lowest state.
    """
    L, S, T = len(taps), config.symbol_count, ratios.shape[0]
    n_states = trellis_states(config, L)
    consts = [_window_constants(config, taps, n) for n in range(1, L + 1)]
    mem = min(L - 1, T)
    scores = np.zeros(1)
    for k in range(mem):  # cold start: k ids so far, so S^k states
        bm = _branch_metrics(ratios[k : k + 1], consts[k], config)
        scores = (scores[:, None] + bm.reshape(-1, S)).reshape(-1)

    # add-compare-select: candidate (oldest id o, new state n) is window o * n_states + n
    back = np.empty((T, n_states), dtype=np.min_scalar_type(S - 1))
    block = _block_rows(8 * S**L)
    for start in range(mem, T, block):
        bm = _branch_metrics(ratios[start : start + block], consts[-1], config)
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


def detect_mlsd(counts: np.ndarray, config: MrskConfig, taps: np.ndarray) -> tuple[np.ndarray, int]:
    """Maximum-likelihood sequence detection: (symbols, degenerate symbols).

    One Viterbi trellis, whose states are the last L-1 symbols, searches
    the (K, N) counts; the branch metric is the log ratio-density (solid
    approximation by default, Gaussian behind ``mlsd_metric``) under the
    signal-dependent moments of each candidate window.  The search starts
    cold: intervals before the first symbol carry zero emissions.
    """
    ratios, degenerate = _ratios(counts, config)
    return np.array(_viterbi_symbol_ids(ratios, config, taps), dtype=np.int64), int(degenerate.sum())

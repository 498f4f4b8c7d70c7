"""Exact FTD BER under the binomial engine's count law, for N = 2.

The binomial engine draws each type's count in a symbol interval as a sum
of independent Bin(v, p_m) terms, one per symbol of the window, the newest
with the first tap.  So does the particle engine in any one interval: a
molecule released m intervals earlier is absorbed there w.p. p_(m+1).
With N = 2 the detector reads one ratio X / Y, the symbol-dependent type
over the reference type, which are independent.  Given Y = y above the
degeneracy epsilon, the newest symbol lands in bucket >= i exactly when X
reaches the least x whose x / y, divided as the detector divides, is at
least E_i.  So each window's bucket law follows from two Poisson-binomial
pmfs (convolved ``scipy.stats`` binomial pmfs) and X's tail sums, summed
from the tail so that small tails do not cancel.  A Y at or below epsilon
decodes as symbol 0.  Nothing here shares code with ``mrsk.analysis``,
which models the counts as Gaussian.
"""

import numpy as np
from scipy import stats

from mrsk.channel import ChannelParams, cir
from mrsk.modem import MrskConfig, codewords, radix_digits, symbol_quantities, thresholds
from mrsk.simulate import FRAME_SYMBOLS


def count_pmf(values, taps) -> np.ndarray:
    """pmf of the sum of independent Bin(values[m], taps[m]) on 0, 1, ..., sum(values)."""
    pmf = np.ones(1)
    for v, p in zip(values, taps):
        pmf = np.convolve(pmf, stats.binom.pmf(np.arange(v + 1), v, p))
    return pmf


def least_counts(edges: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(len(edges), len(y)) least integer x with x / y >= edge in floating point."""
    x = np.ceil(np.outer(edges, y))
    x -= (x - 1.0) / y >= edges[:, None]  # e * y rounded up past an integer
    x += x / y < edges[:, None]  # or down below one
    assert np.all(x / y >= edges[:, None]) and np.all((x - 1.0) / y < edges[:, None])
    return x.astype(np.int64)


def window_errors(window, config: MrskConfig, taps: np.ndarray) -> float:
    """Expected bit errors of the newest symbol of ``window``, len(taps) symbol ids, oldest first."""
    emitted = np.rint(symbol_quantities(config)[window[::-1]]).astype(np.int64)  # newest first
    y_pmf, x_pmf = count_pmf(emitted[:, 0], taps), count_pmf(emitted[:, 1], taps)
    x_tail = np.append(np.cumsum(x_pmf[::-1])[::-1], 0.0)  # P(X >= x), x = 0 .. max + 1
    y = np.arange(y_pmf.size)
    live = y > config.denom_eps
    x_least = np.minimum(least_counts(thresholds(config), y[live]), x_pmf.size)
    # P(Y live and bucket >= i) for i = 0 .. 2^M, then per bucket by differences
    at_least = np.concatenate([[y_pmf[live].sum()], x_tail[x_least] @ y_pmf[live], [0.0]])
    buckets = at_least[:-1] - at_least[1:]
    detected = codewords(np.arange(config.alphabet_size), config.coding)  # N = 2: the symbol
    wrong = np.bitwise_count(detected ^ window[-1])
    return float(buckets @ wrong + (1.0 - at_least[0]) * wrong[0])  # degenerate: symbol 0


def history_ber(config: MrskConfig, taps: np.ndarray) -> float:
    """Per-bit FTD error rate of a symbol with len(taps) - 1 predecessors, over all its windows."""
    if config.N != 2:
        raise ValueError("the count law here reads one ratio: N = 2")
    n = taps.size
    windows = radix_digits(np.arange(config.symbol_count**n), config.symbol_count, n)
    total = sum(window_errors(w, config, taps) for w in windows)
    return total / len(windows) / config.bits_per_symbol


def run_link_ber(config: MrskConfig, channel: ChannelParams, n_bits: int) -> float:
    """Expected FTD BER of ``run_link`` on the binomial engine, cold-start frames included.

    The particle engine has the same per-interval law wherever its steps are
    exact.  Symbol k of a frame sees min(k + 1, L) taps, so the rate is a
    mean of :func:`history_ber` over the frames' symbol positions.
    """
    taps = cir(channel)
    n_symbols = -(-n_bits // config.bits_per_symbol)
    positions = np.arange(n_symbols) % FRAME_SYMBOLS  # every frame but the last is full
    seen = np.bincount(np.minimum(positions, taps.size - 1), minlength=taps.size)
    rates = [history_ber(config, taps[: n + 1]) if seen[n] else 0.0 for n in range(taps.size)]
    return float(seen @ rates) / n_symbols

"""Scalar MLSD reference: a per-window branch metric and exhaustive search.

The sequence detector in ``mrsk.modem`` evaluates its branch metrics as
arrays; this module keeps an independent scalar evaluation of the same
log ratio-densities so the brute-force oracle shares no code with it.
"""

import itertools
import math

import numpy as np

from mrsk.modem import MrskConfig, symbol_quantities


class ScalarMlsdMetric:
    """Log ratio-density of one received ratio row under one symbol window."""

    def __init__(self, config: MrskConfig, taps: np.ndarray):
        self.config = config
        self.taps = np.asarray(taps, dtype=float)
        self.var_taps = self.taps * (1.0 - self.taps)
        self.qty = symbol_quantities(config)
        self.metric = config.mlsd_metric
        self._cache: dict[tuple[int, ...], list[tuple[float, ...]]] = {}

    def _constants(self, window: tuple[int, ...]) -> list[tuple[float, ...]]:
        cached = self._cache.get(window)
        if cached is not None:
            return cached
        emissions = self.qty[list(window)]
        n = len(window)
        mu = self.taps[:n][::-1] @ emissions
        var = self.var_taps[:n][::-1] @ emissions
        consts: list[tuple[float, ...]] = []
        for j in range(self.config.N - 1):
            mu_d, var_d = float(mu[j]), float(var[j])
            mu_n, var_n = float(mu[j + 1]), float(var[j + 1])
            if self.metric == "solid":
                lnerf = math.log(math.erf(mu_d / math.sqrt(2.0 * var_d)))
                consts.append((mu_n, var_n, mu_d, var_d, lnerf))
            else:
                beta = mu_n / mu_d
                lam2 = beta * beta * (var_n / (mu_n * mu_n) + var_d / (mu_d * mu_d))
                consts.append((beta, lam2, 0.5 * math.log(lam2)))
        self._cache[window] = consts
        return consts

    def __call__(self, window: tuple[int, ...], z: np.ndarray) -> float:
        consts = self._constants(window)
        total = 0.0
        if self.metric == "solid":
            for j, (mu_n, var_n, mu_d, var_d, lnerf) in enumerate(consts):
                zj = z[j]
                a = mu_d * var_n + mu_n * var_d * zj
                b = var_n + var_d * zj * zj
                if a <= 0.0:
                    return -1e300
                total += math.log(a) - 1.5 * math.log(b) - (mu_d * zj - mu_n) ** 2 / (2.0 * b) - lnerf
        else:
            for j, (beta, lam2, half_ln_lam2) in enumerate(consts):
                dz = z[j] - beta
                total += -half_ln_lam2 - dz * dz / (2.0 * lam2)
        return total


def mlsd_exhaustive(ratios: np.ndarray, config: MrskConfig, taps: np.ndarray) -> list[int]:
    """Brute-force oracle: score every symbol sequence, keep the best."""
    L, S = len(taps), config.symbol_count
    metric = ScalarMlsdMetric(config, taps)
    best_score, best_seq = -np.inf, None
    for seq in itertools.product(range(S), repeat=ratios.shape[0]):
        score = 0.0
        for k in range(ratios.shape[0]):
            window = seq[max(0, k - L + 1) : k + 1]
            score = score + metric(tuple(window), ratios[k])
        if score > best_score:
            best_score, best_seq = score, list(seq)
    return best_seq

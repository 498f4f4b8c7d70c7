"""Plain-loop closed forms of the count baselines: OOK, binary CSK and binary MoSK.

Every L-bit history, oldest bit first and one bit per interval, is walked
in Python: the mean and variance of the current interval's count are
summed tap by tap, and each history's tails are read from
``scipy.stats.norm``.  Nothing here is shared with ``mrsk.baselines``, so
a test comparing the two checks its history enumeration, its levels and
its threshold rules.  A count at the threshold decides upward, and a
zero-variance count is its mean.

The wrong side of a threshold is read as its own tail (``norm.cdf``),
where the baselines take one minus the right side; that complement rounds
to about 1e-16 absolute, so comparisons allow it beside their relative
tolerance.
"""

import itertools

import numpy as np
from scipy import stats


def history_moments(emit, taps):
    """(mu, var, current bit) arrays over every history; ``emit(bit)`` is a type's count for a bit."""
    mus, variances, current = [], [], []
    for bits in itertools.product((0, 1), repeat=len(taps)):
        mu = var = 0.0
        for bit, tap in zip(bits, taps[::-1]):  # the oldest interval reads the last tap
            mu += emit(bit) * tap
            var += emit(bit) * (tap * (1.0 - tap))
        mus.append(mu)
        variances.append(var)
        current.append(bits[-1])
    return np.array(mus), np.array(variances), np.array(current)


def tails(threshold, mu, var):
    """(P(count >= threshold), P(count < threshold)) per history."""
    sd = np.sqrt(var)
    above = (mu >= threshold).astype(float)
    below = 1.0 - above
    noisy = sd > 0
    above[noisy] = stats.norm.sf(threshold, mu[noisy], sd[noisy])
    below[noisy] = stats.norm.cdf(threshold, mu[noisy], sd[noisy])
    return above, below


def threshold_ber(level0, level1, threshold, taps):
    """BER of one type sent at level0 for bit 0 and level1 for bit 1, deciding 1 from threshold up."""
    mu, var, current = history_moments(lambda bit: level1 if bit else level0, taps)
    above, below = tails(threshold, mu, var)
    return float(np.mean([below[h] if bit else above[h] for h, bit in enumerate(current)]))


def ook_ber_oracle(Q, alpha, taps):
    """OOK: nothing for bit 0, Q for bit 1, threshold alpha*Q."""
    return threshold_ber(0.0, Q, alpha * Q, taps)


def csk_ber_oracle(Q, Gamma, taps):
    """Binary CSK: Q for bit 0, Gamma*Q for bit 1, threshold sqrt(Gamma)*Q*taps[0]."""
    return threshold_ber(Q, Gamma * Q, np.sqrt(Gamma) * Q * taps[0], taps)


def mosk_ber_oracle(Q, Lambda, taps):
    """Binary MoSK: Q of type b for bit b, each type's count against Lambda.

    Only the sent type clearing Lambda is right, only the other one is
    wrong, and neither or both is a fair coin.
    """
    mu0, var0, current = history_moments(lambda bit: 0.0 if bit else Q, taps)
    mu1, var1, _ = history_moments(lambda bit: Q if bit else 0.0, taps)
    by_type = (tails(Lambda, mu0, var0), tails(Lambda, mu1, var1))
    errors = []
    for h, bit in enumerate(current):
        (sent_above, sent_below), (other_above, other_below) = by_type[bit], by_type[1 - bit]
        wrong_only = sent_below[h] * other_above[h]
        coin = sent_above[h] * other_above[h] + sent_below[h] * other_below[h]
        errors.append(wrong_only + 0.5 * coin)
    return float(np.mean(errors))

import math

import numpy as np
import pytest
from scipy import stats

from rtsk_oracle import rtsk_error_counts, sample_levy

from mrsk.analysis import ftd_ber
from mrsk.baselines import (
    CskConfig,
    MoskConfig,
    OokConfig,
    RtskConfig,
    csk_ber,
    levy_cdf,
    levy_median,
    levy_scale,
    mosk_ber,
    ook_ber,
    rtsk_ber,
)
from mrsk.channel import ChannelParams
from mrsk.modem import MrskConfig

CH = ChannelParams(Ts=1.0, L=5)
TB = 1.0
# the threshold fractions the sweeps try
FRACTIONS = np.arange(0.02, 0.99, 0.02)


def optimize_ook_alpha(channel, t_b, Q=1000.0):
    """Sweep the OOK threshold fraction; returns (best alpha, grid, BERs)."""
    bers = np.array([ook_ber(OokConfig(Q=Q, alpha=float(a)), channel, t_b) for a in FRACTIONS])
    return float(FRACTIONS[int(np.argmin(bers))]), FRACTIONS, bers


def optimize_mosk_lambda(channel, t_b, Q=1000.0):
    """Sweep the MoSK per-type threshold; returns (best Lambda, grid, BERs)."""
    lambdas = Q * FRACTIONS
    bers = np.array([mosk_ber(MoskConfig(Q=Q, Lambda=float(l)), channel, t_b) for l in lambdas])
    return float(lambdas[int(np.argmin(bers))]), lambdas, bers


def assert_valley_shaped(values, atol=1e-20, rtol=1e-9):
    """Nonincreasing then nondecreasing, up to numerical noise."""
    values = np.asarray(values)
    m = int(np.argmin(values))
    for i in range(m):
        assert values[i + 1] <= values[i] * (1 + rtol) + atol
    for i in range(m, len(values) - 1):
        assert values[i + 1] >= values[i] * (1 - rtol) - atol


class TestOok:
    def test_zero_threshold_gives_coin_flip(self):
        # threshold 0 decides 1 for essentially every frame, so bit zeros
        # all fail; the tiny shortfall from one half is the Gaussian
        # model's negative-count mass on weak-interference histories
        assert ook_ber(OokConfig(alpha=0.0), CH, TB) == pytest.approx(0.5, abs=1e-3)

    def test_high_snr_isolated_pulse(self):
        ch = ChannelParams(Ts=1.0, L=1)
        assert ook_ber(OokConfig(Q=1e6, alpha=0.2), ch, TB) < 1e-12

    def test_alpha_sweep_valley(self):
        best, grid, bers = optimize_ook_alpha(CH, TB)
        assert_valley_shaped(bers)
        assert grid[0] < best < grid[-1]

    def test_reported_reference_alpha_is_unreachable(self):
        # documented discrepancy: at the default geometry the received
        # count can never reach 0.78 * Q (the total hit probability is
        # bounded by r/d = 0.5), so that threshold parks every decision
        # at bit zero; the sweep-derived optimum is the operating point
        assert ook_ber(OokConfig(alpha=0.78), CH, TB) == pytest.approx(0.5, abs=1e-12)
        best, _, bers = optimize_ook_alpha(CH, TB)
        assert best < 0.5
        assert bers.min() < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            OokConfig(alpha=1.2)


class TestCsk:
    def test_indistinguishable_levels(self):
        # Gamma -> 1: both levels coincide and every decision is a coin flip
        assert csk_ber(CskConfig(Gamma=1.0 + 1e-9), CH, TB) == pytest.approx(0.5, abs=1e-3)

    def test_separated_levels(self):
        # widening the amplitude gap kills errors in the no-memory channel
        # (with memory, arbitrarily large pulses swamp later intervals)
        ch = ChannelParams(Ts=1.0, L=1)
        assert csk_ber(CskConfig(Gamma=1e6), ch, TB) < 1e-9
        assert csk_ber(CskConfig(Gamma=1e6), ch, TB) < csk_ber(CskConfig(Gamma=2.0), ch, TB)

    def test_same_order_of_magnitude_as_ook(self):
        ook = ook_ber(OokConfig(), CH, TB)
        csk = csk_ber(CskConfig(), CH, TB)
        assert 0.1 <= csk / ook <= 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CskConfig(Gamma=0.9)


class TestMosk:
    def test_vanishing_threshold_limit(self):
        # any interfering molecule of the other type makes both counts
        # clear the threshold, leaving a guess; only the all-same-bit
        # history (probability 2^-(L-1)) decodes cleanly
        expected = 0.5 * (1.0 - 2.0 ** -(CH.L - 1))
        assert mosk_ber(MoskConfig(Lambda=1e-9), CH, TB) == pytest.approx(expected, abs=1e-4)

    def test_infinite_threshold_limit(self):
        assert mosk_ber(MoskConfig(Lambda=1e9), CH, TB) == 0.5

    def test_lambda_sweep_valley(self):
        best, grid, bers = optimize_mosk_lambda(CH, TB)
        assert_valley_shaped(bers)
        assert grid[0] < best < grid[-1]

    def test_reference_threshold_beats_limits(self):
        ref = mosk_ber(MoskConfig(Lambda=0.34 * 1000.0), CH, TB)
        assert ref < mosk_ber(MoskConfig(Lambda=1e-9), CH, TB)
        assert ref < 0.5

    def test_reference_threshold_is_not_the_optimum(self):
        # documented discrepancy: the reference Lambda = 0.34 Q sits above
        # the sweep-derived optimum (about 0.22 Q), at a far higher BER
        best, _, bers = optimize_mosk_lambda(CH, TB)
        assert best < 0.34 * 1000.0
        assert bers.min() < 1e-3 * mosk_ber(MoskConfig(Lambda=0.34 * 1000.0), CH, TB)


class TestRtsk:
    def test_levy_scale_value(self):
        assert levy_scale(CH) == pytest.approx((10.0 - 5.0) ** 2 / (2 * 79.4), rel=1e-12)

    def test_levy_median(self):
        c = levy_scale(CH)
        assert levy_cdf(levy_median(c), c) == pytest.approx(0.5, abs=1e-12)

    def test_sampler_matches_cdf(self):
        c = levy_scale(CH)
        draws = sample_levy(c, 10_000, np.random.default_rng(3))
        ks = stats.kstest(draws, lambda t: levy_cdf(t, c)).statistic
        assert ks < 0.02

    def test_first_passage_particle_oracle(self):
        # 1D Brownian walk to an absorbing point at distance d - r: the
        # passage-time law is exactly Levy((d-r)^2 / 2D)
        rng = np.random.default_rng(77)
        n, dt, tmax = 4000, 1e-4, 2.0
        c = levy_scale(CH)
        x = np.full(n, CH.d - CH.r)
        alive = np.ones(n, bool)
        t_hit = np.full(n, np.inf)
        for k in range(int(tmax / dt)):
            idx = np.flatnonzero(alive)
            if idx.size == 0:
                break
            xa = x[idx]
            xb = xa + rng.normal(0.0, math.sqrt(2 * CH.D * dt), idx.size)
            crossed = xb <= 0
            same_side = ~crossed
            p_bridge = np.exp(-xa[same_side] * xb[same_side] / (CH.D * dt))
            crossed[np.flatnonzero(same_side)[rng.random(p_bridge.size) < p_bridge]] = True
            t_hit[idx[crossed]] = (k + 1) * dt
            alive[idx[crossed]] = False
            x[idx] = xb
        arrived = t_hit[np.isfinite(t_hit)]
        ks = stats.kstest(arrived, lambda t: levy_cdf(t, c) / levy_cdf(tmax, c)).statistic
        assert ks < 0.05

    def test_identical_hypotheses_are_coin_flips(self):
        ber = rtsk_ber(RtskConfig(Delta=1e-9), CH, TB)
        assert ber == pytest.approx(0.5, abs=0.01)

    def test_flat_in_molecule_count(self):
        # the detector sees a single first arrival, so the molecule budget
        # never enters; per-point seeds give independent noise and the
        # fitted slope across Q must be statistically zero
        bers = []
        qs = np.arange(100.0, 1001.0, 100.0)
        for i, _ in enumerate(qs):
            errors, n = rtsk_error_counts(RtskConfig(Delta=TB / 2), CH, TB, 100_000, seed=100 + i)
            bers.append(errors / n)
        res = stats.linregress(qs, bers)
        assert abs(res.slope) < 2.0 * res.stderr + 1e-12

    def test_ml_at_least_as_good_as_linear(self):
        ml = rtsk_ber(RtskConfig(Delta=TB / 2, detector="ml"), CH, TB)
        lin = rtsk_ber(RtskConfig(Delta=TB / 2, detector="linear"), CH, TB)
        assert ml <= lin

    def test_offset_must_fit_interval(self):
        with pytest.raises(ValueError):
            rtsk_ber(RtskConfig(Delta=2.0), CH, TB)
        with pytest.raises(ValueError):
            rtsk_error_counts(RtskConfig(Delta=2.0), CH, TB, 1000, seed=0)

    @pytest.mark.parametrize("detector", ["ml", "linear"])
    @pytest.mark.parametrize("t_b", [0.25, 0.5, 1.0, 2.0])
    def test_closed_form_matches_monte_carlo(self, detector, t_b):
        # 20 seeded Monte Carlo runs: each within 4 standard errors of the
        # closed form, and their z-scores centred on zero
        config = RtskConfig(Delta=t_b / 2, detector=detector)
        exact = rtsk_ber(config, CH, t_b)
        n = 100_000
        se = math.sqrt(exact * (1 - exact) / n)
        z = np.array(
            [(rtsk_error_counts(config, CH, t_b, n, seed)[0] / n - exact) / se for seed in range(20)]
        )
        assert np.all(np.abs(z) < 4.0)
        assert abs(z.mean()) < 0.5


class TestComparison:
    def test_error_rates_bounded_by_coin_flip(self):
        n = 100_000
        rates = [
            ook_ber(OokConfig(), CH, TB),
            csk_ber(CskConfig(), CH, TB),
            mosk_ber(MoskConfig(), CH, TB),
            rtsk_ber(RtskConfig(Delta=TB / 2), CH, TB),
        ]
        slack = 3.0 * math.sqrt(0.25 / n)
        assert all(r <= 0.5 + slack for r in rates)

    def test_headline_ordering(self):
        # ratio keying with fixed thresholds < molecule keying < the worse
        # of the single-molecule schemes, at the shared operating point
        mrsk = ftd_ber(MrskConfig(), ChannelParams(Ts=TB, L=5)).ber
        mosk = mosk_ber(MoskConfig(), CH, TB)
        ook = ook_ber(OokConfig(), CH, TB)
        csk = csk_ber(CskConfig(), CH, TB)
        assert mrsk < mosk < max(ook, csk)


@pytest.mark.parametrize(
    "make",
    [
        lambda bad: OokConfig(Q=bad),
        lambda bad: CskConfig(Q=bad),
        lambda bad: CskConfig(Gamma=bad),
        lambda bad: MoskConfig(Q=bad),
        lambda bad: MoskConfig(Lambda=bad),
        lambda bad: RtskConfig(Delta=bad),
    ],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_settings_rejected(make, bad):
    with pytest.raises(ValueError):
        make(bad)

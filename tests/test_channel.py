import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from mrsk import channel
from mrsk.channel import (
    ChannelParams,
    arrival_moments,
    cir,
    hit_fraction,
)
from mrsk.errors import CapacityError
from mrsk.simulate import _arrivals_binomial, _arrivals_statistical, _binomial_rows

DEFAULTS = ChannelParams(d=10.0, r=5.0, D=79.4, Ts=1.0, L=5)


def hitting_rate(t, params):
    """Independent oracle: the first-passage rate density, integrated numerically."""
    return (
        (params.r / params.d)
        * (params.d - params.r)
        / np.sqrt(4.0 * np.pi * params.D)
        * t**-1.5
        * np.exp(-((params.d - params.r) ** 2) / (4.0 * params.D * t))
    )


class TestHitFraction:
    def test_zero_time(self):
        assert hit_fraction(0.0, DEFAULTS) == 0.0

    def test_infinite_time_limit(self):
        assert hit_fraction(1e12, DEFAULTS) == pytest.approx(0.5, abs=1e-6)

    def test_value_at_one_second(self):
        # frozen from quadrature of the hitting-rate density
        assert hit_fraction(1.0, DEFAULTS) == pytest.approx(0.345766540633907, abs=1e-12)

    def test_matches_rate_quadrature(self):
        for t in (0.2, 1.0, 3.0):
            expected, err = integrate.quad(hitting_rate, 0, t, args=(DEFAULTS,))
            assert err < 1e-9
            assert hit_fraction(t, DEFAULTS) == pytest.approx(expected, abs=1e-8)

    def test_monotone_on_grid(self):
        grid = np.linspace(0.0, 100.0, 1000)
        vals = hit_fraction(grid, DEFAULTS)
        assert np.all(np.diff(vals) >= 0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            hit_fraction(-1.0, DEFAULTS)


class TestChannelParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"d": 4.0, "r": 5.0},
            {"d": 10.0, "r": -1.0},
            {"D": 0.0},
            {"Ts": 0.0},
            {"L": 0},
            {"d": math.inf},
            {"r": math.nan},
            {"D": math.nan},
            {"D": math.inf},
            {"Ts": math.nan},
            {"Ts": math.inf},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChannelParams(**kwargs)


class TestCir:
    def test_first_tap_equals_hit_fraction(self):
        taps = cir(DEFAULTS)
        assert taps[0] == pytest.approx(hit_fraction(DEFAULTS.Ts, DEFAULTS), abs=1e-15)

    def test_telescoping_sum(self):
        taps = cir(DEFAULTS)
        total = hit_fraction(DEFAULTS.L * DEFAULTS.Ts, DEFAULTS)
        assert abs(sum(taps) - total) < 1e-12
        assert total == pytest.approx(0.4295800755520416, abs=1e-12)

    def test_second_tap_value(self):
        # F(2) - F(1) for the default geometry
        assert cir(DEFAULTS)[1] == pytest.approx(0.0437564, abs=1e-6)

    def test_total_bounded_by_geometry(self):
        for Ts in (0.05, 0.5, 2.0):
            taps = cir(ChannelParams(Ts=Ts, L=50))
            assert sum(taps) <= DEFAULTS.r / DEFAULTS.d + 1e-12

    def test_first_tap_dominates_at_defaults(self):
        # Ts = 1 s far exceeds the mode of the hitting-rate density (~0.05 s)
        taps = cir(DEFAULTS)
        assert all(taps[0] > p for p in taps[1:])

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        d_over_r=st.floats(1.0 + 1e-6, 1e3),
        r=st.floats(1e-3, 1e3),
        D=st.floats(1e-3, 1e4),
        log_ts=st.floats(-6.0, 12.0),
        L=st.integers(1, 24),
    )
    def test_taps_are_probabilities_that_telescope(self, d_over_r, r, D, log_ts, L):
        params = ChannelParams(d=d_over_r * r, r=r, D=D, Ts=10.0**log_ts, L=L)
        taps = cir(params)
        assert taps.shape == (L,) and taps.dtype == np.float64
        assert np.all((taps >= 0.0) & (taps < 1.0))
        assert abs(taps.sum() - hit_fraction(L * params.Ts, params)) <= 1e-12

    def test_memory_cap_refusal(self, monkeypatch):
        monkeypatch.setattr(channel, "MEMORY_CAP", 7)
        assert cir(ChannelParams(L=7)).shape == (7,)
        with pytest.raises(CapacityError, match="L=8 exceeds MEMORY_CAP = 7"):
            cir(ChannelParams(L=8))


def column(history) -> np.ndarray:
    """A single-type emission history, oldest first, as an (n, 1) array."""
    return np.asarray(history, dtype=float)[:, None]


class TestArrivalMoments:
    def test_all_zero_history(self):
        mu, var = arrival_moments(np.zeros((5, 1)), cir(DEFAULTS))
        assert mu.tolist() == [0.0] and var.tolist() == [0.0]

    def test_single_emission_current_slot(self):
        taps = cir(DEFAULTS)
        mu, _ = arrival_moments(column([0, 0, 0, 0, 1000]), taps)
        assert mu[0] == pytest.approx(1000 * taps[0], rel=1e-12)
        assert mu[0] == pytest.approx(345.766540633907, abs=1e-6)

    def test_two_tap_history(self):
        taps = cir(DEFAULTS)
        mu, _ = arrival_moments(column([1000, 1000]), taps[:2])
        assert mu[0] == pytest.approx(1000 * (taps[0] + taps[1]), rel=1e-12)
        assert mu[0] == pytest.approx(389.52, abs=0.01)

    def test_linearity(self):
        taps = cir(DEFAULTS)
        rng = np.random.default_rng(0)
        s1 = rng.uniform(0, 2000, (20, 5, 3))
        s2 = rng.uniform(0, 2000, (20, 5, 3))
        a, b = rng.uniform(0, 3, (2, 20, 1, 1))
        mu, var = arrival_moments(a * s1 + b * s2, taps)
        mu1, var1 = arrival_moments(s1, taps)
        mu2, var2 = arrival_moments(s2, taps)
        assert mu.shape == var.shape == (20, 3)
        assert mu == pytest.approx(a[:, 0] * mu1 + b[:, 0] * mu2, rel=1e-10)
        assert var == pytest.approx(a[:, 0] * var1 + b[:, 0] * var2, rel=1e-10)

    def test_variance_below_mean(self):
        taps = cir(DEFAULTS)
        mu, var = arrival_moments(np.random.default_rng(1).uniform(0, 5000, (20, 5, 2)), taps)
        assert np.all(0.0 <= var) and np.all(var <= mu)

    def test_negative_emission_rejected(self):
        with pytest.raises(ValueError):
            arrival_moments(column([0, 0, 0, 0, -5]), cir(DEFAULTS))

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_emission_rejected(self, bad):
        # NaN passes a nonnegativity test and inf has no finite moments
        with pytest.raises(ValueError, match="finite and nonnegative"):
            arrival_moments([[bad, 1.0]], cir(DEFAULTS))

    def test_length_mismatch_rejected(self):
        # a history may be shorter than the memory (cold start), never longer
        taps = cir(DEFAULTS)
        for n in (0, 6):
            with pytest.raises(ValueError):
                arrival_moments(np.zeros((n, 1)), taps)
        short = arrival_moments(column([700, 1000]), taps)
        padded = arrival_moments(column([0, 0, 0, 700, 1000]), taps)
        assert np.allclose(short, padded, rtol=1e-15, atol=0.0)


def arrivals_binomial(emissions: np.ndarray, taps: np.ndarray, rng) -> np.ndarray:
    """The binomial engine on rows tabulated for ``emissions`` themselves."""
    return _arrivals_binomial(*_binomial_rows(emissions, taps), rng)


def stationary_rows(engine, level: float, taps: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Single-type arrival draws on a constant emission, past the cold start.

    Rows from L-1 on see the full memory, so they are i.i.d. draws with
    the moments of a length-L constant history.
    """
    draws = engine(np.full((n + taps.size - 1, 1), level), taps, np.random.default_rng(seed))
    return draws[taps.size - 1 :, 0]


class TestSampling:
    def test_degenerate_gaussian(self):
        # zero emissions: zero mean and variance, so the draw is exactly the mean
        rng = np.random.default_rng(0)
        draws = _arrivals_statistical(np.zeros((10, 2)), cir(DEFAULTS), rng)
        assert not draws.any()

    def test_law_of_large_numbers(self):
        taps = cir(DEFAULTS)
        mu, var = arrival_moments(np.full((5, 1), 1000.0), taps)
        draws = stationary_rows(_arrivals_statistical, 1000.0, taps, 100_000, 7)
        se = np.sqrt(var[0] / draws.size)
        assert abs(draws.mean() - mu[0]) < 3 * se

    def test_seeded_replay(self):
        emissions = np.full((50, 2), 100.0)
        taps = cir(DEFAULTS)
        for engine in (_arrivals_statistical, arrivals_binomial):
            a = engine(emissions, taps, np.random.default_rng(3))
            b = engine(emissions, taps, np.random.default_rng(3))
            assert np.array_equal(a, b)

    def test_binomial_zero_history(self):
        rng = np.random.default_rng(0)
        assert not arrivals_binomial(np.zeros((5, 1)), cir(DEFAULTS), rng).any()

    def test_binomial_single_molecule_is_bernoulli(self):
        draws = stationary_rows(arrivals_binomial, 1.0, np.array([0.3]), 20_000, 2)
        assert set(draws.tolist()) <= {0.0, 1.0}
        assert np.mean(draws) == pytest.approx(0.3, abs=0.01)

    def test_binomial_matches_moments(self):
        taps = cir(DEFAULTS)
        mu, var = arrival_moments(np.full((5, 1), 1000.0), taps)
        draws = stationary_rows(arrivals_binomial, 1000.0, taps, 100_000, 11)
        se_mean = np.sqrt(var[0] / draws.size)
        assert abs(draws.mean() - mu[0]) < 3 * se_mean
        # variance of the sample variance ~ 2 var^2 / n for near-Gaussian sums
        se_var = var[0] * np.sqrt(2.0 / draws.size)
        assert abs(draws.var() - var[0]) < 4 * se_var

    def test_gaussian_binomial_distribution_agreement(self):
        # same first two moments within tight tolerances at Q >= 500
        taps = cir(DEFAULTS)
        mu, var = arrival_moments(np.full((5, 1), 500.0), taps)
        gauss = stationary_rows(_arrivals_statistical, 500.0, taps, 100_000, 5)
        binom = stationary_rows(arrivals_binomial, 500.0, taps, 100_000, 6)
        assert abs(gauss.mean() - binom.mean()) / mu[0] < 0.01
        assert abs(gauss.var() - binom.var()) / var[0] < 0.02

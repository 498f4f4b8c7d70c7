import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special, stats

from ratio_oracle import ratio_values

from mrsk import ratio_stats
from mrsk.channel import ChannelParams, hit_fraction
from mrsk.ratio_stats import (
    GaussPair,
    SolidParams,
    exact_ratio_pdf,
    gaussian_ratio_params,
    gaussian_ratio_pdf,
    sample_ratio,
    solid_ratio_cdf,
    solid_ratio_pdf,
)

P1 = hit_fraction(1.0, ChannelParams(Ts=1.0))
Q = 1000.0


def pair_for_ratio(x: float, q_molecules: float = Q) -> GaussPair:
    """Isolated-pulse ratio statistics for a transmitted ratio x."""
    return GaussPair(
        mu_x=q_molecules * x * P1,
        mu_y=q_molecules * P1,
        sigma_x=np.sqrt(q_molecules * x * P1 * (1 - P1)),
        sigma_y=np.sqrt(q_molecules * P1 * (1 - P1)),
    )


def pair_moments(pair: GaussPair) -> tuple[float, float, float, float]:
    """(mu_x, var_x, mu_y, var_y) of a pair, the arguments of gaussian_ratio_params."""
    return pair.mu_x, pair.sigma_x**2, pair.mu_y, pair.sigma_y**2


FIG_RATIOS = (np.e, 1.0, np.exp(-1))


def integrate_density(f, center: float) -> float:
    lo = -8 * abs(center) - 5
    hi = 8 * abs(center) + 5
    mid, _ = integrate.quad(f, lo, hi, limit=400)
    left, _ = integrate.quad(f, -np.inf, lo, limit=400)
    right, _ = integrate.quad(f, hi, np.inf, limit=400)
    return left + mid + right


class TestExactPdf:
    def test_normalization(self):
        pair = GaussPair(1000.0, 300.0, 30.0, 17.0)
        val, err = integrate.quad(lambda x: exact_ratio_pdf(x, pair), -20, 20, limit=400)
        assert err < 5e-8
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_reciprocal_symmetry(self):
        # equal moments make X/Y and Y/X identically distributed
        pair = GaussPair(200.0, 200.0, 25.0, 25.0)
        for eta in (0.4, 0.9, 1.7, 3.0):
            lhs = exact_ratio_pdf(eta, pair)
            rhs = exact_ratio_pdf(1.0 / eta, pair) / eta**2
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_peak_near_mean_ratio(self):
        pair = pair_for_ratio(np.e)
        grid = np.linspace(1.5, 4.5, 20001)
        peak_at = grid[np.argmax(exact_ratio_pdf(grid, pair))]
        assert abs(peak_at - pair.mu_x / pair.mu_y) / (pair.mu_x / pair.mu_y) < 0.02

    def test_nonnegative(self):
        pair = pair_for_ratio(np.exp(-1))
        grid = np.linspace(-10, 10, 2001)
        assert np.all(exact_ratio_pdf(grid, pair) >= 0.0)


class TestSolidPdf:
    def test_normalization_fig2_cases(self):
        for x in FIG_RATIOS:
            sp = SolidParams.from_pair(pair_for_ratio(x))
            val = integrate_density(lambda t: solid_ratio_pdf(t, sp), sp.r)
            assert val == pytest.approx(1.0, abs=1e-4)

    def test_normalization_random_envelope(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            sp = SolidParams(
                p=rng.uniform(2, 40), q=rng.uniform(2, 40), r=rng.uniform(np.exp(-1), np.e)
            )
            val = integrate_density(lambda t: solid_ratio_pdf(t, sp), sp.r)
            assert val == pytest.approx(1.0, abs=1e-4)

    def test_close_to_exact(self):
        # sup-norm distance below 2% of the exact peak for all three
        # reference transmit ratios
        for x in FIG_RATIOS:
            pair = pair_for_ratio(x)
            sp = SolidParams.from_pair(pair)
            beta, lam2 = gaussian_ratio_params(*pair_moments(pair))
            grid = np.linspace(beta - 8 * np.sqrt(lam2), beta + 8 * np.sqrt(lam2), 4001)
            fe = exact_ratio_pdf(grid, pair)
            fs = solid_ratio_pdf(grid, sp)
            assert np.max(np.abs(fe - fs)) < 0.02 * fe.max()

    def test_peak_location(self):
        for x in FIG_RATIOS:
            sp = SolidParams.from_pair(pair_for_ratio(x))
            grid = np.linspace(0.3 * sp.r, 2.5 * sp.r, 20001)
            peak_at = grid[np.argmax(solid_ratio_pdf(grid, sp))]
            assert abs(peak_at - sp.r) / sp.r < 0.02

    def test_parameter_construction(self):
        pair = pair_for_ratio(np.e)
        sp = SolidParams.from_pair(pair)
        assert sp.p == pytest.approx(pair.mu_x / (np.sqrt(2) * pair.sigma_x), rel=1e-14)
        assert sp.q == pytest.approx(pair.mu_y / (np.sqrt(2) * pair.sigma_y), rel=1e-14)
        assert sp.r == pytest.approx(np.e, rel=1e-14)


class TestSolidCdf:
    def test_median_at_expected_ratio(self):
        for x in FIG_RATIOS:
            sp = SolidParams.from_pair(pair_for_ratio(x))
            assert solid_ratio_cdf(sp.r, sp) == 0.5

    def test_limits(self):
        sp = SolidParams.from_pair(pair_for_ratio(np.e))
        assert solid_ratio_cdf(1e9, sp) == pytest.approx(1.0, abs=1e-12)
        assert solid_ratio_cdf(-1e9, sp) == pytest.approx(0.0, abs=1e-12)

    def test_interval_probabilities_match_quadrature(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            sp = SolidParams(
                p=rng.uniform(2, 40), q=rng.uniform(2, 40), r=rng.uniform(np.exp(-1), np.e)
            )
            width = 6.0 * sp.r / sp.p
            a = rng.uniform(sp.r - 4 * width, sp.r + 3 * width)
            b = a + rng.uniform(0.1, 2.0) * width
            quad_val, err = integrate.quad(lambda t: solid_ratio_pdf(t, sp), a, b, limit=200)
            assert err < 5e-8
            cdf_val = solid_ratio_cdf(b, sp) - solid_ratio_cdf(a, sp)
            assert abs(cdf_val - quad_val) < 1e-6

    def test_unnormalized_erf_argument_fails_quadrature(self):
        # regression for the ratio normalization of the erf argument: the
        # variant with (eta - 1) instead of (eta/r - 1) disagrees with the
        # density's own integral whenever r != 1
        def printed_cdf(eta, sp):
            g = (sp.p / sp.r) * (eta - 1.0) / np.sqrt(1.0 + (sp.p / sp.q) ** 2 * (eta / sp.r) ** 2)
            return 0.5 * (1.0 + special.erf(g) / special.erf(sp.q))

        sp = SolidParams.from_pair(pair_for_ratio(np.e))  # r = e != 1
        a, b = sp.r - 0.3, sp.r + 0.3
        quad_val, _ = integrate.quad(lambda t: solid_ratio_pdf(t, sp), a, b, limit=200)
        assert abs((printed_cdf(b, sp) - printed_cdf(a, sp)) - quad_val) > 1e-3
        # while at r = 1 both forms coincide
        sp1 = SolidParams.from_pair(pair_for_ratio(1.0))
        assert printed_cdf(1.2, sp1) == pytest.approx(solid_ratio_cdf(1.2, sp1), abs=1e-14)

    def test_finite_difference_matches_pdf(self):
        pair = pair_for_ratio(np.e)
        sp = SolidParams.from_pair(pair)
        _, lam2 = gaussian_ratio_params(*pair_moments(pair))
        lam = np.sqrt(lam2)
        grid = np.linspace(sp.r - 5 * lam, sp.r + 5 * lam, 1000)
        h = 1e-3 * lam
        fd = (solid_ratio_cdf(grid + h, sp) - solid_ratio_cdf(grid - h, sp)) / (2 * h)
        pdf = solid_ratio_pdf(grid, sp)
        assert np.max(np.abs(fd - pdf) / pdf) < 1e-4

    def test_monotone_on_positive_grids(self):
        # the approximation's negative-tail dip lies strictly below eta = 0,
        # so the CDF is nondecreasing on the physical (positive) range
        rng = np.random.default_rng(3)
        for _ in range(20):
            sp = SolidParams(
                p=rng.uniform(2, 40), q=rng.uniform(2, 40), r=rng.uniform(np.exp(-1), np.e)
            )
            grid = np.linspace(0.0, 10 * sp.r, 2000)
            vals = solid_ratio_cdf(grid, sp)
            assert np.all(np.diff(vals) >= -1e-15)


class TestGaussianApprox:
    def test_peak_value(self):
        pair = pair_for_ratio(np.e)
        beta, lam2 = gaussian_ratio_params(*pair_moments(pair))
        assert gaussian_ratio_pdf(beta, pair) == pytest.approx(
            1.0 / np.sqrt(2 * np.pi * lam2), rel=1e-14
        )

    def test_spread_scales_inverse_sqrt_q(self):
        # quadrupling the molecule budget halves lambda, beta untouched
        b1, l1 = gaussian_ratio_params(*pair_moments(pair_for_ratio(np.e, Q)))
        b4, l4 = gaussian_ratio_params(*pair_moments(pair_for_ratio(np.e, 4 * Q)))
        assert b1 == pytest.approx(b4, rel=1e-14)
        assert np.sqrt(l1) == pytest.approx(2 * np.sqrt(l4), rel=1e-12)

    def test_kl_divergence_to_exact(self):
        for x in FIG_RATIOS:
            pair = pair_for_ratio(x)
            beta, lam2 = gaussian_ratio_params(*pair_moments(pair))
            lam = np.sqrt(lam2)
            grid = np.linspace(beta - 8 * lam, beta + 8 * lam, 4001)
            fe = exact_ratio_pdf(grid, pair)
            fg = gaussian_ratio_pdf(grid, pair)
            kl = np.trapezoid(fe * (np.log(fe) - np.log(fg)), grid)
            assert kl < 0.01


class TestSampleRatio:
    # the KS and median tests read the reference's values; the binned-count
    # tests below hold sample_ratio to the same draws bit for bit
    def test_ks_against_solid_cdf(self):
        for x in FIG_RATIOS:
            pair = pair_for_ratio(x)
            sp = SolidParams.from_pair(pair)
            values, _ = ratio_values(pair, 10_000, np.random.default_rng(17))
            ks = stats.kstest(values, lambda t: solid_ratio_cdf(t, sp)).statistic
            assert ks < 0.02

    def test_median_near_expected_ratio(self):
        pair = pair_for_ratio(np.e)
        values, _ = ratio_values(pair, 10_000, np.random.default_rng(29))
        assert abs(np.median(values) - np.e) / np.e < 0.02

    def test_no_redraws_at_high_snr(self):
        pair = pair_for_ratio(1.0)  # mu_y / sigma_y ~ 23
        assert pair.mu_y / pair.sigma_y > 8
        assert sample_ratio(pair, 50_000, np.random.default_rng(5), np.linspace(0.0, 2.0, 9)).redraws == 0

    def test_redraws_counted_near_zero_denominator(self, monkeypatch):
        monkeypatch.setattr(ratio_stats, "SAMPLE_DENOM_EPS", 0.1)
        pair = GaussPair(10.0, 0.5, 1.0, 1.0)
        sample = sample_ratio(pair, 20_000, np.random.default_rng(1), [-1100.0, 1100.0])
        assert sample.redraws > 0
        # |x / y| < 10 / 0.1 + 1000: every ratio lands in the one bin
        assert sample.counts.tolist() == [20_000]

    def test_redraws_match_the_abs_form(self, monkeypatch):
        # the sampler's blocked pairs and redraw rounds against whole-array
        # draws, the |y| <= eps loop and x / y, on a seed that forces
        # redraws and a size spanning several blocks; edges spanning every
        # ratio count each exactly once
        pair = GaussPair(10.0, 0.5, 1.0, 1.0)
        n, eps = 150_001, 0.2
        monkeypatch.setattr(ratio_stats, "SAMPLE_DENOM_EPS", eps)
        values, redraws = ratio_values(pair, n, np.random.default_rng(3))
        edges = np.linspace(values.min(), values.max(), 1001)
        sample = sample_ratio(pair, n, np.random.default_rng(3), edges)
        assert redraws > n // 10 and sample.redraws == redraws
        assert sample.counts.sum() == n
        assert np.array_equal(sample.counts, np.histogram(values, edges)[0])

    @pytest.mark.parametrize(
        "pair, eps, edges",
        [
            (pair_for_ratio(np.e), ratio_stats.SAMPLE_DENOM_EPS, np.linspace(2.0, 3.5, 802)),
            # redraws forced, and many ratios outside the edges
            (GaussPair(10.0, 0.5, 1.0, 1.0), 0.2, np.linspace(-40.0, 60.0, 401)),
        ],
    )
    def test_binned_counts_equal_histogram_of_values(self, monkeypatch, pair, eps, edges):
        # the counts streamed over three blocks and a partial one against
        # np.histogram of the whole sample, bit for bit, densities included;
        # the same at blocks of 7 and 4096 pairs, as the stream is blockless
        monkeypatch.setattr(ratio_stats, "SAMPLE_DENOM_EPS", eps)
        n = 3 * ratio_stats._SAMPLE_BLOCK + 1
        values, redraws = ratio_values(pair, n, np.random.default_rng(3))
        assert (redraws > n // 10) == (eps == 0.2)
        counts, _ = np.histogram(values, edges)
        density, _ = np.histogram(values, edges, density=True)
        for block in (ratio_stats._SAMPLE_BLOCK, 7, 4096):
            monkeypatch.setattr(ratio_stats, "_SAMPLE_BLOCK", block)
            binned = sample_ratio(pair, n, np.random.default_rng(3), edges=edges)
            assert binned.redraws == redraws
            assert np.array_equal(binned.counts, counts)
            assert np.array_equal(binned.counts / np.diff(edges) / binned.counts.sum(), density)

    def test_binned_sample_memory_is_a_few_blocks(self):
        # 10^6 samples into the pdf recipe's 4001 bins: the values (8 MB) are never held
        pair = pair_for_ratio(np.e)
        edges = np.linspace(1.5, 4.5, 4002)
        tracemalloc.start()
        try:
            sample_ratio(pair, 1_000_000, np.random.default_rng(0), edges=edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_seeded_replay(self):
        pair = pair_for_ratio(np.e)
        edges = np.linspace(0.0, 6.0, 61)
        a = sample_ratio(pair, 100, np.random.default_rng(9), edges)
        b = sample_ratio(pair, 100, np.random.default_rng(9), edges)
        assert np.array_equal(a.counts, b.counts) and a.counts.sum() == 100

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_ratio(pair_for_ratio(1.0), 0, np.random.default_rng(0), [0.0, 1.0])


class TestValidation:
    def test_gauss_pair_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            GaussPair(1.0, 1.0, 0.0, 1.0)

    def test_solid_params_reject_nonpositive(self):
        with pytest.raises(ValueError):
            SolidParams(0.0, 1.0, 1.0)

    def test_from_pair_needs_positive_means(self):
        with pytest.raises(ValueError):
            SolidParams.from_pair(GaussPair(-5.0, 10.0, 1.0, 1.0))

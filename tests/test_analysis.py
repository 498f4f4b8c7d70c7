import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ftd_oracle import ftd_ber_oracle, ftd_detection_prob
from mrsk import analysis
from mrsk.analysis import (
    BerEstimate,
    _bucket_probs,
    ftd_ber,
    hamming_table,
)
from mrsk.channel import ChannelParams, cir
from mrsk.errors import CapacityError
from mrsk.modem import (
    MrskConfig,
    codewords,
    symbol_quantities,
    thresholds,
)
from mrsk.ratio_stats import GaussPair, solid_ratio_cdf

CH = ChannelParams(Ts=0.5, L=5)


def refuse_call(*args, **kwargs):
    raise AssertionError("called after a refusal")


def random_sequence(config, L, rng):
    """L random symbol ids, oldest first."""
    return rng.integers(0, config.symbol_count, size=L)


class TestHamming:
    def test_identical_indices(self):
        assert hamming_table(2, "binary")[2, 2] == 0

    def test_binary_extremes(self):
        assert hamming_table(2, "binary")[0, 3] == 2  # 00 vs 11

    def test_gray_adjacent(self):
        table = hamming_table(2, "gray")
        for i in range(3):
            assert table[i, i + 1] == 1

    def test_table_matches_scalar(self):
        for M in (1, 3, 6):
            for coding in ("binary", "gray"):
                table = hamming_table(M, coding)
                codes = codewords(np.arange(1 << M), coding)
                assert table.dtype == np.int64
                for a in range(1 << M):
                    for b in range(1 << M):
                        assert table[a, b] == bin(int(codes[a]) ^ int(codes[b])).count("1")

    def test_range_check(self):
        # the table covers exactly the 2^M alphabet indices, symmetric with a zero diagonal
        for M in (1, 2, 3):
            table = hamming_table(M, "gray")
            assert table.shape == (1 << M, 1 << M)
            assert np.array_equal(table, table.T) and not table.diagonal().any()
            assert table.min() >= 0 and table.max() == M
            with pytest.raises(IndexError):
                table[1 << M, 0]


class TestBucketProbs:
    def test_matches_solid_cdf(self):
        # the vectorized moment-substituted form must agree with the
        # scalar solid-approximation CDF exactly
        rng = np.random.default_rng(6)
        cfg = MrskConfig(N=2, M=2)
        edges = thresholds(cfg)
        for _ in range(50):
            mu_d = rng.uniform(50, 500)
            mu_n = rng.uniform(50, 500)
            var_d = rng.uniform(10, 400)
            var_n = rng.uniform(10, 400)
            probs = _bucket_probs(
                np.array([mu_n]), np.array([var_n]), np.array([mu_d]), np.array([var_d]), edges
            )[0]
            cdf_vals = np.array([solid_ratio_cdf(e, mu_n, var_n, mu_d, var_d) for e in edges])
            expected = np.diff(np.concatenate([[0.0], cdf_vals, [1.0]]))
            assert probs == pytest.approx(expected, abs=1e-14)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(9)
        for N, M in ((2, 1), (2, 3), (3, 2)):
            cfg = MrskConfig(N=N, M=M)
            taps = cir(CH)
            seqs = np.stack([random_sequence(cfg, CH.L, rng) for _ in range(34)])
            probs = ftd_detection_prob(seqs, taps, cfg)
            assert probs.shape == (34, N - 1, cfg.alphabet_size)
            assert np.all(np.abs(probs.sum(axis=-1) - 1.0) < 1e-10)


class TestDetectionProb:
    def test_high_snr_concentrates(self):
        cfg = MrskConfig(N=2, M=1, Q=1e6)
        ch = ChannelParams(Ts=0.5, L=1)
        assert ftd_detection_prob([1], cir(ch), cfg)[0, 1] > 1.0 - 1e-12

    def test_matches_monte_carlo_frequency(self):
        # fixed random sequence; empirical bucket frequencies from Gaussian
        # arrival draws vs the closed form, three binomial standard errors
        rng = np.random.default_rng(2024)
        cfg = MrskConfig(N=2, M=1, Q=1000.0)
        taps = cir(CH)
        seq = random_sequence(cfg, CH.L, rng)
        qty = symbol_quantities(cfg)
        k = cfg.alphabet_size
        emissions = qty[seq]
        p = taps
        mu = p[::-1] @ emissions
        var = (p * (1 - p))[::-1] @ emissions
        n = 300_000
        counts = mu + np.sqrt(var) * rng.standard_normal(size=(n, 2))
        ratios = counts[:, 1] / counts[:, 0]
        edges = thresholds(cfg)
        freq = np.array(
            [np.mean(np.searchsorted(edges, ratios, side="right") == i) for i in range(k)]
        )
        for i, prob in enumerate(ftd_detection_prob(seq, p, cfg)[0]):
            se = math.sqrt(max(prob * (1 - prob), 1e-12) / n)
            assert abs(freq[i] - prob) < 3 * se + 1e-9


class TestFtdBer:
    def test_isolated_high_snr_error_free(self):
        cfg = MrskConfig(N=2, M=1, Q=1e6)
        ch = ChannelParams(Ts=0.5, L=1)
        assert ftd_ber(cfg, ch).ber < 1e-12

    def test_monotone_in_q(self):
        bers = [
            ftd_ber(MrskConfig(Q=float(q)), CH).ber for q in range(100, 1001, 100)
        ]
        assert all(b2 < b1 for b1, b2 in zip(bers, bers[1:]))

    def test_gray_at_most_binary(self):
        for M in (2, 3):
            ch = ChannelParams(Ts=M * 0.5, L=5)
            gray = ftd_ber(MrskConfig(M=M, coding="gray"), ch).ber
            binary = ftd_ber(MrskConfig(M=M, coding="binary"), ch).ber
            assert gray <= binary

    def test_two_symbol_direct_calculation(self):
        # N=2, M=1, L=1: the module's average must equal the two-case
        # computation straight from the solid CDF at the threshold
        cfg = MrskConfig(N=2, M=1, Q=1000.0)
        ch = ChannelParams(Ts=0.5, L=1)
        p1 = cir(ch)[0]
        err = 0.0
        for x in (math.e, math.exp(-1)):
            pair = GaussPair(
                mu_x=cfg.Q * x * p1,
                mu_y=cfg.Q * p1,
                sigma_x=math.sqrt(cfg.Q * x * p1 * (1 - p1)),
                sigma_y=math.sqrt(cfg.Q * p1 * (1 - p1)),
            )
            moments = pair.mu_x, pair.sigma_x**2, pair.mu_y, pair.sigma_y**2
            below_threshold = solid_ratio_cdf(1.0, *moments)
            err += below_threshold if x > 1 else (1.0 - below_threshold)
        assert ftd_ber(cfg, ch).ber == pytest.approx(err / 2.0, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        N=st.integers(2, 4),
        M=st.integers(1, 3),
        L=st.integers(1, 5),
        coding=st.sampled_from(["binary", "gray"]),
        Q=st.floats(100.0, 2000.0),
        Ts=st.floats(0.1, 2.0),
    )
    def test_matches_whole_sequence_oracle(self, N, M, L, coding, Q, Ts):
        # the per-position digit windows against every whole symbol
        # sequence; L is cut so the oracle enumerates at most 2^14 of them
        cfg = MrskConfig(N=N, M=M, Q=Q, coding=coding)
        ch = ChannelParams(Ts=Ts, L=min(L, 14 // (M * (N - 1))))
        got, want = ftd_ber(cfg, ch).ber, ftd_ber_oracle(cfg, ch)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert format(got, ".10g") == format(want, ".10g")

    def test_sequence_cap_refusal(self, monkeypatch):
        # the cap counts whole sequences, symbol_count^L, whatever the
        # windows of the earlier ratio positions
        cfg = MrskConfig(N=4, M=3)
        with pytest.raises(CapacityError, match=r"S\^L = 2\^45 .*\(S = 2\^9 symbols, L = 5\)"):
            ftd_ber(cfg, ChannelParams(Ts=0.5, L=5))
        small, ch = MrskConfig(N=3, M=1), ChannelParams(Ts=0.5, L=3)
        expected = ftd_ber(small, ch).ber
        monkeypatch.setattr(analysis, "SEQUENCE_CAP", 63)
        with pytest.raises(CapacityError, match="2\\^6 symbol sequences .*SEQUENCE_CAP = 63"):
            ftd_ber(small, ch)
        monkeypatch.setattr(analysis, "SEQUENCE_CAP", 64)
        assert ftd_ber(small, ch).ber == expected

    def test_alphabet_cap_refusal_before_any_table(self, monkeypatch):
        top = analysis.ALPHABET_CAP.bit_length() - 1
        assert top == 12
        analysis.check_alphabet(MrskConfig(M=top))
        monkeypatch.setattr(analysis, "hamming_table", refuse_call)
        monkeypatch.setattr(analysis, "_position_errors", refuse_call)
        for M in (top + 1, 20, 10**6):
            with pytest.raises(CapacityError, match=f"M={M} gives 2\\^{M} alphabet entries.*ALPHABET_CAP = 4096"):
                ftd_ber(MrskConfig(M=M), ChannelParams(L=1))

    def test_memory_cap_refusal_before_counting(self, monkeypatch):
        # the taps come first, so a huge L is refused without a sequence count
        monkeypatch.setattr(analysis, "hamming_table", refuse_call)
        with pytest.raises(CapacityError, match="MEMORY_CAP"):
            ftd_ber(MrskConfig(N=10**6), ChannelParams(L=1 << 40))

    @pytest.mark.parametrize("N, M", [(2, 1), (2, 2), (3, 2)])
    def test_all_zero_taps_give_one_half(self, N, M):
        # at d = 1000 every tap underflows to 0, so every count is 0: every
        # symbol is degenerate and decodes as symbol 0, whose bits are all 0
        from mrsk.simulate import SimConfig, run_link

        cfg = MrskConfig(N=N, M=M)
        ch = ChannelParams(d=1000.0, Ts=cfg.bits_per_symbol * 0.1, L=5)
        assert not cir(ch).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ftd_ber(cfg, ch) == BerEstimate.exact(0.5)
        est = run_link(cfg, ch, SimConfig(n_bits=40_000, seed=31))
        assert abs(est.ber - 0.5) < 3 * math.sqrt(0.25 / est.bits)

    def test_matches_monte_carlo(self):
        from mrsk.simulate import SimConfig, run_link

        cfg = MrskConfig()
        analytic = ftd_ber(cfg, CH).ber
        est = run_link(cfg, CH, SimConfig(n_bits=200_000, seed=13))
        se = math.sqrt(analytic * (1 - analytic) / est.bits)
        assert abs(est.ber - analytic) < 3 * se

    def test_matches_monte_carlo_random_configs(self):
        # five random configurations with sequence spaces within 2^12,
        # each against a million-bit run at three binomial standard errors
        from mrsk.simulate import SimConfig, run_link

        rng = np.random.default_rng(404)
        shapes = [(2, 1, 8), (2, 2, 5), (2, 3, 4), (3, 1, 6), (4, 1, 4)]
        for N, M, L in shapes:
            cfg = MrskConfig(
                N=N, M=M, Q=float(rng.uniform(500, 1500)), coding="gray"
            )
            assert cfg.symbol_count**L <= 1 << 12
            t_b = float(rng.uniform(0.3, 0.8))
            ch = ChannelParams(Ts=cfg.bits_per_symbol * t_b, L=L)
            analytic = ftd_ber(cfg, ch).ber
            est = run_link(cfg, ch, SimConfig(n_bits=1_000_000, seed=int(rng.integers(1 << 30))))
            se = math.sqrt(max(analytic * (1 - analytic), 1e-12) / est.bits)
            assert abs(est.ber - analytic) < 3 * se + 1e-9


class TestExactEstimate:
    def test_probability_range(self):
        # the closed form is an estimate without simulated bits: its interval is collapsed
        res = ftd_ber(MrskConfig(), CH)
        assert isinstance(res, BerEstimate)
        assert res.bits == 0 and res.errors == 0
        assert res.ci_low == res.ber == res.ci_high
        assert 0.0 <= res.ber <= 1.0

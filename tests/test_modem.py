import itertools
import math

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st
from encode_oracle import encode_bits_to_indices, symbol_indices
from mlsd_oracle import ScalarMlsdMetric, mlsd_exhaustive

from mrsk import modem
from mrsk.channel import ChannelParams, cir
from mrsk.errors import CapacityError
from mrsk.modem import (
    MrskConfig,
    _viterbi_symbol_ids,
    codewords,
    detect_admc,
    detect_ftd,
    detect_mlsd,
    pack,
    radix_digits,
    ratio_alphabet,
    symbol_quantities,
    thresholds,
    trellis_states,
)

CH = ChannelParams(Ts=1.0, L=5)


def exact_mean_ratios(history: list[int], config: MrskConfig, taps: np.ndarray) -> np.ndarray:
    """Noise-free received ratios for a symbol history (cold start)."""
    qty = symbol_quantities(config)
    T = len(history)
    out = np.empty((T, config.N - 1))
    for k in range(T):
        window = history[max(0, k - len(taps) + 1) : k + 1]
        emissions = qty[window]
        mu = taps[: len(window)][::-1] @ emissions
        out[k] = mu[1:] / mu[:-1]
    return out


class TestAlphabet:
    def test_binary_alphabet(self):
        a = ratio_alphabet(MrskConfig(M=1))
        assert a == pytest.approx([math.exp(-1), math.e], rel=1e-15)

    def test_m3_exponent_ladder(self):
        a = ratio_alphabet(MrskConfig(M=3))
        expected = np.exp(-1.0 + 2.0 * np.arange(8) / 7.0)
        assert a == pytest.approx(expected, rel=1e-14)

    def test_endpoints_product_is_one(self):
        for M in (1, 2, 3, 4):
            for omega in (1.5, math.e, 3.0):
                a = ratio_alphabet(MrskConfig(M=M, Omega=omega))
                assert a[0] * a[-1] == pytest.approx(1.0, abs=1e-15)

    def test_geometric_spacing(self):
        for M in (2, 3):
            a = ratio_alphabet(MrskConfig(M=M, Omega=2.0))
            factors = a[1:] / a[:-1]
            assert factors == pytest.approx(2.0 ** (2.0 / (2**M - 1)), rel=1e-12)

    def test_strictly_increasing(self):
        a = ratio_alphabet(MrskConfig(M=3, Omega=1.8))
        assert np.all(np.diff(a) > 0)


class TestThresholds:
    def test_single_threshold_exactly_one(self):
        assert thresholds(MrskConfig(M=1))[0] == 1.0

    def test_m3_values(self):
        e = thresholds(MrskConfig(M=3))
        expected = [math.exp(-1.0 + (2 * i - 1) / 7.0) for i in range(1, 8)]
        assert np.max(np.abs(e - np.array(expected))) < 1e-15
        assert e[0] == pytest.approx(0.4244, abs=1e-4)

    def test_geometric_mean_property(self):
        for M in (1, 2, 3):
            cfg = MrskConfig(M=M, Omega=2.3)
            a, e = ratio_alphabet(cfg), thresholds(cfg)
            assert e**2 == pytest.approx(a[:-1] * a[1:], rel=1e-12)

    def test_interleaving(self):
        cfg = MrskConfig(M=3, Omega=math.e)
        a, e = ratio_alphabet(cfg), thresholds(cfg)
        assert np.all(a[:-1] < e) and np.all(e < a[1:])


def emission(row, config: MrskConfig) -> np.ndarray:
    """Emission quantities of one 0-based index row: the symbol packing its codewords."""
    return symbol_quantities(config)[pack(codewords(np.asarray(row), config.coding), config.M)]


def whole_symbol_bits(cfg: MrskConfig, n_symbols: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2, size=cfg.bits_per_symbol * n_symbols, dtype=np.uint8)


class TestCoding:
    def test_binary_bit_one_maps_to_upper_index(self):
        cfg = MrskConfig(N=2, M=1, coding="binary")
        assert encode_bits_to_indices([1], cfg).tolist() == [[1]]
        assert encode_bits_to_indices([0], cfg).tolist() == [[0]]

    def test_gray_m2_sequence(self):
        # the bits of the symbol that sends alphabet entry i, for i = 0..3
        cfg = MrskConfig(N=2, M=2, coding="gray", Q=1.0)
        sent = [symbol_quantities(cfg)[:, 1].tolist().index(a) for a in ratio_alphabet(cfg)]
        carried = [tuple(radix_digits(s, 2, 2).tolist()) for s in sent]
        assert carried == [(0, 0), (0, 1), (1, 1), (1, 0)]

    def test_roundtrip_both_codings(self):
        # packing a symbol's bits and packing its index rows' codewords name the same symbol
        for seed, (N, M, coding) in enumerate(itertools.product((2, 3, 4), (1, 2, 3), ("binary", "gray"))):
            cfg = MrskConfig(N=N, M=M, coding=coding)
            bits = whole_symbol_bits(cfg, 40, seed)
            rows = encode_bits_to_indices(bits, cfg)
            sent = pack(bits.reshape(40, -1), 1)
            assert np.array_equal(pack(codewords(rows, coding), M), sent)
            assert np.array_equal(symbol_indices(sent, cfg), rows)

    @settings(max_examples=100, deadline=None)
    @given(
        N=st.integers(2, 4),
        M=st.integers(1, 3),
        coding=st.sampled_from(["binary", "gray"]),
        n_symbols=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_roundtrip_property_and_range(self, N, M, coding, n_symbols, seed):
        # the one currency: a symbol is the integer of its bits, from frame to detector
        cfg = MrskConfig(N=N, M=M, coding=coding)
        bits = whole_symbol_bits(cfg, n_symbols, seed).reshape(n_symbols, -1)
        rows = encode_bits_to_indices(bits.ravel(), cfg)
        assert rows.shape == (n_symbols, N - 1)
        assert rows.min() >= 0 and rows.max() < cfg.alphabet_size
        # pack and radix_digits are inverses, over bits (shift 1) and codewords (shift M)
        sent = pack(bits, 1)
        assert sent.min() >= 0 and sent.max() < cfg.symbol_count
        assert np.array_equal(radix_digits(sent, 2, cfg.bits_per_symbol), bits)
        codes = codewords(rows, coding)
        assert np.array_equal(radix_digits(pack(codes, M), 2**M, N - 1), codes)
        # the symbol's emissions send the alphabet at the encoder's index rows
        qty = symbol_quantities(cfg)[sent]
        assert np.allclose(qty[:, 1:] / qty[:, :-1], ratio_alphabet(cfg)[rows], rtol=1e-12, atol=0)
        # noise-free fixed-threshold detection returns the symbol sent
        detected, degenerate = detect_ftd(qty, cfg)
        assert np.array_equal(detected, sent) and degenerate == 0

    def test_gray_differs_from_binary(self):
        cfg_b = MrskConfig(N=2, M=2, coding="binary")
        cfg_g = MrskConfig(N=2, M=2, coding="gray")
        bits = np.array([1, 0], dtype=np.uint8)
        binary, gray = encode_bits_to_indices(bits, cfg_b), encode_bits_to_indices(bits, cfg_g)
        assert not np.array_equal(binary, gray)

    def test_gray_adjacency(self):
        for M in (2, 3, 4):
            codes = codewords(np.arange(1 << M), "gray")
            diffs = [bin(int(codes[i]) ^ int(codes[i + 1])).count("1") for i in range(len(codes) - 1)]
            assert all(d == 1 for d in diffs)
            binary = codewords(np.arange(1 << M), "binary")
            bdiffs = [bin(int(binary[i]) ^ int(binary[i + 1])).count("1") for i in range(len(binary) - 1)]
            assert max(bdiffs) > 1

    def test_unknown_coding_rejected(self):
        with pytest.raises(ValueError, match="unknown coding 'bogus'"):
            codewords(np.arange(4), "bogus")

    def test_length_must_divide(self):
        with pytest.raises(ValueError):
            encode_bits_to_indices([1, 0, 1], MrskConfig(N=2, M=2))

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            encode_bits_to_indices([0, 2], MrskConfig(N=2, M=1))


class TestQuantities:
    def test_binary_symbols(self):
        cfg = MrskConfig(N=2, M=1, Q=1000.0)
        down, up = symbol_quantities(cfg)  # symbols 0 and 1 carry bit 0 and bit 1
        assert up == pytest.approx((1000.0, 2718.2818284590453), rel=1e-12)
        assert down == pytest.approx((1000.0, 367.87944117144233), rel=1e-12)
        assert np.array_equal(up, emission(encode_bits_to_indices([1], cfg)[0], cfg))

    def test_cumulative_product(self):
        cfg = MrskConfig(N=3, M=1, Q=1000.0)
        assert emission([1, 1], cfg) == pytest.approx(
            (1000.0, 1000.0 * math.e, 1000.0 * math.e**2), rel=1e-12
        )

    def test_reference_count_and_range(self):
        rng = np.random.default_rng(4)
        cfg = MrskConfig(N=4, M=2, Q=500.0)
        for _ in range(20):
            q = emission(rng.integers(0, 4, size=3), cfg)
            assert q[0] == cfg.Q
            assert np.all(q >= cfg.Q * cfg.Omega ** -(cfg.N - 1) - 1e-9)
            assert np.all(q <= cfg.Q * cfg.Omega ** (cfg.N - 1) + 1e-9)


class TestFtd:
    def test_basic_buckets(self):
        cfg = MrskConfig(N=2, M=1)
        counts = np.array([[1000.0, 900.0], [1000.0, 2500.0]])  # ratios 0.9, 2.5
        assert detect_ftd(counts, cfg)[0].tolist() == [0, 1]

    def test_boundary_goes_up(self):
        cfg = MrskConfig(N=2, M=1)
        assert detect_ftd(np.array([[1000.0, 1000.0]]), cfg)[0].tolist() == [1]  # ratio exactly 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        cfg = MrskConfig(N=3, M=2)
        counts = rng.uniform(50.0, 5000.0, size=(50, 3))
        base, _ = detect_ftd(counts, cfg)
        for c in (0.25, 3.0, 1234.5):
            assert np.array_equal(detect_ftd(c * counts, cfg)[0], base)

    def test_degenerate_frame(self):
        cfg = MrskConfig(N=2, M=1)
        ids, degenerate = detect_ftd(np.array([[0.0, 500.0], [400.0, 2000.0]]), cfg)
        assert ids.tolist() == [0, 1]
        assert degenerate == 1


class TestAdmc:
    def test_zero_second_tap_equals_ftd(self):
        cfg = MrskConfig(N=2, M=1)
        taps = np.array([0.3, 0.0])
        counts = np.random.default_rng(12).uniform(100, 3000, size=(30, 2))
        assert np.array_equal(detect_admc(counts, cfg, taps)[0], detect_ftd(counts, cfg)[0])

    def test_first_symbol_equals_ftd(self):
        cfg = MrskConfig(N=2, M=1)
        counts = np.array([[400.0, 380.0]])
        ids, _, _ = detect_admc(counts, cfg, cir(CH))
        assert ids.tolist() == detect_ftd(counts, cfg)[0].tolist()

    def test_exact_interference_cancellation(self):
        # counts at the exact two-tap means: the previous symbol (decided
        # from the row before) carried ratio e, the current carries 1/e; the
        # adjusted ratio recovers 1/e exactly
        cfg = MrskConfig(N=2, M=1, Q=1000.0)
        taps = cir(CH)
        p1, p2 = taps[0], taps[1]
        prev_qty, cur_qty = emission([1], cfg), emission([0], cfg)
        counts = p1 * cur_qty + p2 * prev_qty
        raw_ratio = counts[1] / counts[0]
        adjusted = counts - p2 * prev_qty
        assert adjusted[1] / adjusted[0] == pytest.approx(math.exp(-1), rel=1e-12)
        assert abs(adjusted[1] / adjusted[0] - math.exp(-1)) < abs(raw_ratio - math.exp(-1))
        ids, _, clamps = detect_admc(np.vstack([p1 * prev_qty, counts]), cfg, taps)
        assert ids.tolist() == [1, 0] and clamps == 0

    def test_clamp_counted(self):
        cfg = MrskConfig(N=2, M=1, Q=1000.0)
        taps = cir(CH)
        counts = np.vstack([taps[0] * emission([1], cfg), [10.0, 10.0]])
        ids, _, clamps = detect_admc(counts, cfg, taps)
        assert ids[0] == 1 and clamps > 0

    def test_requires_memory(self):
        cfg = MrskConfig(N=2, M=1)
        with pytest.raises(ValueError):
            detect_admc(np.ones((1, 2)), cfg, np.array([0.3]))

    def test_equalizes_ratio_residuals(self):
        # over 10^4 symbols at the default link, cancelling the one-tap
        # memory must not widen the spread of (received - transmitted) ratio
        cfg = MrskConfig(N=2, M=1, Q=1000.0)
        ch = ChannelParams(Ts=0.5, L=5)
        taps = cir(ch)
        rng = np.random.default_rng(31)
        n = 10_000
        alphabet = ratio_alphabet(cfg)
        idx0 = rng.integers(0, 2, size=n)
        emissions = np.column_stack([np.full(n, cfg.Q), cfg.Q * alphabet[idx0]])
        from scipy.signal import lfilter

        mu = lfilter(taps, [1.0], emissions, axis=0)
        var = lfilter(taps * (1 - taps), [1.0], emissions, axis=0)
        counts = mu + np.sqrt(var) * rng.standard_normal(emissions.shape)
        raw_residual = counts[:, 1] / counts[:, 0] - alphabet[idx0]

        ids, _, _ = detect_admc(counts, cfg, taps)
        previous = np.vstack([np.zeros(2), symbol_quantities(cfg)[ids[:-1]]])
        c = np.maximum(counts - taps[1] * previous, cfg.denom_eps)
        adj_residual = c[:, 1] / c[:, 0] - alphabet[idx0]
        assert adj_residual.var() <= raw_residual.var()


class TestMlsd:
    def test_memoryless_equals_ftd_on_exact_means(self):
        cfg = MrskConfig(N=2, M=1, mlsd_metric="gaussian")
        taps = cir(ChannelParams(Ts=1.0, L=1))
        for hist in itertools.product(range(2), repeat=4):
            z = exact_mean_ratios(list(hist), cfg, taps)
            ids = _viterbi_symbol_ids(z, cfg, taps)
            ftd_ids, _ = detect_ftd(np.column_stack([np.ones(len(z)), z[:, 0]]), cfg)
            assert ids == ftd_ids.tolist() == list(hist)

    def test_noiseless_recovery_all_histories(self):
        cfg = MrskConfig(N=2, M=1)
        taps = cir(ChannelParams(Ts=0.5, L=3))
        for hist in itertools.product(range(2), repeat=3):
            z = exact_mean_ratios(list(hist), cfg, taps)
            assert _viterbi_symbol_ids(z, cfg, taps) == list(hist)

    @pytest.mark.parametrize("metric", ["solid", "gaussian"])
    def test_trellis_equals_exhaustive(self, metric):
        cfg = MrskConfig(N=2, M=1, mlsd_metric=metric)
        taps = cir(ChannelParams(Ts=0.5, L=3))
        rng = np.random.default_rng(5)
        for _ in range(100):
            z = np.exp(rng.normal(0.0, 1.2, size=(6, 1)))
            assert _viterbi_symbol_ids(z, cfg, taps) == mlsd_exhaustive(z, cfg, taps)

    @settings(max_examples=60, deadline=None)
    @given(
        N=st.sampled_from([2, 3]),
        metric=st.sampled_from(["solid", "gaussian"]),
        L=st.integers(1, 4),
        T=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_trellis_equals_exhaustive_any_length(self, N, metric, L, T, seed):
        # includes windows shorter than the channel memory (T < L - 1)
        cfg = MrskConfig(N=N, M=1, mlsd_metric=metric)
        T = min(T, 4) if N == 3 else T
        taps = cir(ChannelParams(Ts=0.5, L=L))
        z = np.exp(np.random.default_rng(seed).normal(0.0, 1.2, size=(T, N - 1)))
        assert _viterbi_symbol_ids(z, cfg, taps) == mlsd_exhaustive(z, cfg, taps)

    def test_dead_windows_match_exhaustive(self):
        # a negative ratio zeroes the solid density of some windows (metric
        # -1e300); the trellis must still find the exhaustive optimum
        cfg = MrskConfig(N=2, M=1)
        taps = cir(ChannelParams(Ts=0.5, L=3))
        metric = ScalarMlsdMetric(cfg, taps)
        windows = list(itertools.product(range(2), repeat=3))
        z_dead = next(
            z
            for z in -np.geomspace(1e-3, 10.0, 400)
            if 0 < sum(metric(w, np.array([z])) == -1e300 for w in windows) < len(windows)
        )
        rng = np.random.default_rng(9)
        for _ in range(40):
            z = np.exp(rng.normal(0.0, 1.2, size=(6, 1)))
            z[rng.integers(2, 6)] = z_dead
            assert _viterbi_symbol_ids(z, cfg, taps) == mlsd_exhaustive(z, cfg, taps)

    def test_all_dead_ties_go_to_lowest_ids(self):
        cfg = MrskConfig(N=2, M=1)
        taps = cir(ChannelParams(Ts=0.5, L=3))
        z = np.full((5, 1), -1e6)
        assert _viterbi_symbol_ids(z, cfg, taps) == mlsd_exhaustive(z, cfg, taps) == [0] * 5

    def test_returns_ratio_symbols(self):
        cfg = MrskConfig(N=2, M=1)
        taps = cir(ChannelParams(Ts=0.5, L=3))
        ids, degenerate = detect_mlsd(np.tile([300.0, 900.0], (4, 1)), cfg, taps)
        assert ids.shape == (4,) and ids.dtype.kind == "i" and degenerate == 0
        assert set(ids.tolist()) <= set(range(cfg.symbol_count))

    def test_state_cap_refusal_names_requirement(self, monkeypatch):
        cfg = MrskConfig(N=4, M=3)
        taps = cir(ChannelParams(Ts=0.5, L=5))
        counts = np.ones((2, 4))
        with pytest.raises(CapacityError, match=r"2\^36 trellis states .*\(S = 2\^9 symbols, L = 5\)"):
            detect_mlsd(counts, cfg, taps)
        # within the state cap, but 2^32 branch windows
        with pytest.raises(CapacityError, match=r"S\^L = 2\^32 branch windows"):
            trellis_states(MrskConfig(N=17, M=1), 2)
        # both caps are exact: 2^4 states and 2^6 windows pass at caps 16 and 64
        small, taps3 = MrskConfig(N=3, M=1), cir(ChannelParams(Ts=0.5, L=3))
        monkeypatch.setattr(modem, "TRELLIS_STATE_CAP", 16)
        monkeypatch.setattr(modem, "TRELLIS_WINDOW_CAP", 64)
        assert trellis_states(small, 3) == 16
        assert detect_mlsd(counts[:, :3], small, taps3)[0].shape == (2,)
        for name, cap in (("TRELLIS_STATE_CAP", 15), ("TRELLIS_WINDOW_CAP", 63)):
            with monkeypatch.context() as patch:
                patch.setattr(modem, name, cap)
                with pytest.raises(CapacityError, match=f"{name} = {cap}"):
                    detect_mlsd(counts[:, :3], small, taps3)

    def test_window_constants_built_once_per_call(self, monkeypatch):
        built = []
        original = modem._window_constants
        monkeypatch.setattr(
            modem, "_window_constants", lambda *a: built.append(a[2]) or original(*a)
        )
        taps = cir(ChannelParams(Ts=0.5, L=3))
        counts = np.random.default_rng(62).uniform(50.0, 1500.0, size=(23, 2))
        detect_mlsd(counts, MrskConfig(N=2, M=1), taps)
        assert built == [1, 2, 3]


class TestEndToEnd:
    def test_noiseless_identity_memoryless(self):
        # bits -> symbols -> emissions -> exact arrival means -> detect -> bits
        ch = ChannelParams(Ts=1.0, L=1)
        p1 = cir(ch)[0]
        for seed, (N, M) in enumerate(itertools.product((2, 3, 4), (1, 2, 3))):
            cfg = MrskConfig(N=N, M=M)
            bits = whole_symbol_bits(cfg, 25, 77 + seed)
            detected, _ = detect_ftd(p1 * symbol_quantities(cfg)[pack(bits.reshape(25, -1), 1)], cfg)
            assert np.array_equal(radix_digits(detected, 2, cfg.bits_per_symbol).ravel(), bits)

    def test_symbol_table_order_follows_bits(self):
        cfg = MrskConfig(N=3, M=2)
        alphabet = ratio_alphabet(cfg)
        qty = symbol_quantities(cfg)
        rows = symbol_indices(np.arange(16), cfg)
        for s in (0, 5, 13, 15):
            ratios = alphabet[rows[s]]
            expected = cfg.Q * np.array([1.0, ratios[0], ratios[0] * ratios[1]])
            assert qty[s] == pytest.approx(expected, rel=1e-14)
        assert qty.shape == (16, 3)
        assert np.all(qty[0] == cfg.Q * alphabet[0] ** np.arange(3))  # all-zero bits, all-zero indices
        # bits 01|10: Gray codewords 1 and 2 at indices 1 and 3, first ratio position most significant
        assert rows[6].tolist() == [1, 3]


class TestBitValues:
    def test_symbol_values_are_the_decoded_bits(self):
        # every row of the table sends the index rows the encoder gives the bits of its number
        for N, M, coding in itertools.product((2, 3, 4), (1, 2, 3), ("binary", "gray")):
            cfg = MrskConfig(N=N, M=M, coding=coding)
            bits = radix_digits(np.arange(cfg.symbol_count), 2, cfg.bits_per_symbol)
            ratios = ratio_alphabet(cfg)[encode_bits_to_indices(bits.ravel(), cfg)]
            expected = cfg.Q * np.column_stack([np.ones(cfg.symbol_count), np.cumprod(ratios, axis=1)])
            assert np.array_equal(symbol_quantities(cfg), expected)

    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(2, 5), M=st.integers(1, 4), coding=st.sampled_from(["binary", "gray"]),
           seed=st.integers(0, 2**32 - 1))
    def test_value_of_encoded_bits_names_their_symbol(self, N, M, coding, seed):
        # frames pack bits, detectors codewords: both name the same symbol
        cfg = MrskConfig(N=N, M=M, coding=coding)
        bits = whole_symbol_bits(cfg, 9, seed)
        codes = codewords(encode_bits_to_indices(bits, cfg), coding)
        assert np.array_equal(pack(codes, M), pack(bits.reshape(9, -1), 1))

    def test_bit_values_first_bit_most_significant(self):
        assert pack([[1, 0, 0], [1, 1, 1]], 1).tolist() == [4, 7]
        assert pack(np.array([[1], [0]], dtype=np.uint8), 1).tolist() == [1, 0]
        assert pack(np.array([[1, 2], [3, 0]], dtype=np.uint8), 2).tolist() == [6, 12]


class TestLayout:
    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(2, 3), M=st.integers(1, 2), L=st.integers(2, 3), K=st.integers(1, 30),
           seed=st.integers(0, 2**32 - 1))
    def test_detectors_ignore_memory_layout(self, N, M, L, K, seed):
        # the same counts C-ordered, F-ordered (as frames hand them over) and as a strided view
        cfg, taps = MrskConfig(N=N, M=M, Q=200.0), cir(ChannelParams(Ts=0.3, L=L))
        counts = np.random.default_rng(seed).uniform(-20.0, 400.0, size=(K, N))  # some degenerate
        wide = np.zeros((2 * K, 3 * N))
        wide[::2, ::3] = counts
        layouts = (np.ascontiguousarray(counts), np.asfortranarray(counts), wide[::2, ::3])
        for detect in (
            lambda c: detect_ftd(c, cfg),
            lambda c: detect_admc(c, cfg, taps),
            lambda c: detect_mlsd(c, cfg, taps),
        ):
            (ids, *counters), *others = [detect(c) for c in layouts]
            for other_ids, *other_counters in others:
                assert np.array_equal(other_ids, ids) and other_counters == counters


class TestBuckets:
    @settings(max_examples=300, deadline=None)
    @given(
        M=st.integers(1, 12),
        omega=st.floats(1.0001, 1e3),
        picks=st.lists(st.tuples(st.integers(0, 2**12), st.sampled_from(["edge", "below", "above", "any"])),
                       min_size=1, max_size=40),
        extra=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=10),
    )
    def test_buckets_equal_searchsorted(self, M, omega, picks, extra):
        # ties at every threshold, their float neighbours, arbitrary floats, NaN and inf
        edges = thresholds(MrskConfig(M=M, Omega=omega))
        r = []
        for i, how in picks:
            e = edges[i % edges.size]
            r.append({"edge": e, "below": np.nextafter(e, -np.inf), "above": np.nextafter(e, np.inf),
                      "any": e * (1 + (i % 7 - 3) * 0.1)}[how])
        r = np.array(r + extra).reshape(-1, 1)
        assert np.array_equal(modem._buckets(edges, r), np.searchsorted(edges, r, side="right"))

    def test_counting_and_search_both_exercised(self):
        # the counted path covers the small alphabets in use, the search the large ones
        assert thresholds(MrskConfig(M=5)).size <= modem._COUNTED_THRESHOLDS
        assert thresholds(MrskConfig(M=6)).size > modem._COUNTED_THRESHOLDS


@pytest.mark.parametrize(
    "kwargs", [{"Omega": math.nan}, {"Omega": math.inf}, {"Q": math.nan}, {"Q": math.inf}, {"Q": -math.inf}]
)
def test_non_finite_settings_rejected(kwargs):
    with pytest.raises(ValueError):
        MrskConfig(**kwargs)

import functools
import math
import multiprocessing.connection
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import signal, special, stats

from encode_oracle import encode_bits_to_indices, symbol_indices
from mlsd_oracle import mlsd_exhaustive

import mrsk
from mrsk import cli, modem, simulate
from mrsk.analysis import ftd_ber, hamming_table
from mrsk.cli import ExperimentSpec
from mrsk.channel import ChannelParams, arrival_moments, cir
from mrsk.errors import CapacityError
from mrsk.modem import (
    MrskConfig,
    detect_admc,
    detect_ftd,
    detect_mlsd,
    ratio_alphabet,
    symbol_quantities,
    thresholds,
)
from mrsk.simulate import (
    BerEstimate,
    SimConfig,
    ber_confidence,
    new_particle_state,
    particle_hit_fraction,
    particle_step,
    release_molecules,
    run_link,
    wilson_interval,
)

CH = ChannelParams(Ts=0.5, L=5)
CFG = MrskConfig()


def ftd_reference(counts: np.ndarray, config: MrskConfig):
    """Per-row FTD loop: (detected indices, degenerate rows)."""
    edges, eps = thresholds(config), config.denom_eps
    out = np.zeros((counts.shape[0], config.N - 1), dtype=np.int64)
    degenerate = 0
    for k, c in enumerate(counts):
        if np.any(c[:-1] <= eps):
            degenerate += 1
        else:
            out[k] = np.searchsorted(edges, c[1:] / c[:-1], side="right")
    return out, degenerate


def admc_reference(counts: np.ndarray, config: MrskConfig, taps: np.ndarray):
    """Per-symbol ADMC loop: (detected indices, clamped elements)."""
    alphabet = ratio_alphabet(config)
    edges = thresholds(config)
    eps = config.denom_eps
    p2 = taps[1]
    out = np.empty((counts.shape[0], config.N - 1), dtype=np.int64)
    clamps = 0
    prev_qty = None
    for k in range(counts.shape[0]):
        c = counts[k].copy()
        if prev_qty is not None:
            c -= p2 * prev_qty
        low = c <= eps
        if low.any():
            clamps += int(low.sum())
            c = np.maximum(c, eps)
        i0 = np.searchsorted(edges, c[1:] / c[:-1], side="right")
        out[k] = i0
        prev_qty = config.Q * np.concatenate(([1.0], np.cumprod(alphabet[i0])))
    return out, clamps


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers: int, **kwargs):
        self.sizes.append(max_workers)

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)

    def shutdown(self, wait=True):
        pass


@pytest.fixture
def recording_pool(monkeypatch):
    """Pools are RecordingPools for one test; the process's own pool is set aside and restored."""
    monkeypatch.setattr(simulate, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(simulate, "_POOL", None)


@pytest.fixture
def frame_symbols(monkeypatch):
    """Sets ``simulate.FRAME_SYMBOLS`` for one test; frames are split in the caller, so pools see it."""
    return lambda n: monkeypatch.setattr(simulate, "FRAME_SYMBOLS", n)


def sweep(workers=1, **fields):
    """The estimates of ``mrsk sweep`` at the given spec fields, one per point."""
    return [est for _, est in cli._sweep(ExperimentSpec(subcommand="sweep", **fields), workers)]


def refuse_frame(*args, **kwargs):
    raise AssertionError("every refusal must come before the first frame")


class TestConfidence:
    def test_zero_errors_rule_of_three(self):
        assert ber_confidence(0, 10_000) == (0.0, 3.0 / 10_000)

    def test_wilson_below_thirty(self):
        lo, hi = ber_confidence(5, 1000)
        wlo, whi = wilson_interval(5, 1000)
        assert (lo, hi) == (wlo, whi)
        assert lo < 5 / 1000 < hi

    def test_normal_above_thirty(self):
        lo, hi = ber_confidence(400, 10_000)
        p = 0.04
        half = 1.959963984540054 * math.sqrt(p * (1 - p) / 10_000)
        assert lo == pytest.approx(p - half, rel=1e-12)
        assert hi == pytest.approx(p + half, rel=1e-12)

    def test_estimate_invariants(self):
        est = BerEstimate.from_counts(17, 5000)
        assert est.ci_low <= est.ber <= est.ci_high
        assert est.ber == 17 / 5000

    def test_exact_estimate(self):
        est = BerEstimate.exact(0.01)
        assert est.bits == 0 and est.ci_low == est.ci_high == est.ber == 0.01


class TestSimConfig:
    def test_rejects_tiny_runs(self):
        with pytest.raises(ValueError):
            SimConfig(n_bits=100)

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            SimConfig(engine="magic")

    def test_trials_cap_refusal(self, monkeypatch):
        monkeypatch.setattr(simulate, "TRIALS_CAP", 5_000)
        with pytest.raises(CapacityError, match="10000 bits exceeds TRIALS_CAP = 5000"):
            run_link(CFG, CH, SimConfig(n_bits=10_000))


class TestDeterminism:
    def test_same_seed_same_estimate(self):
        sim = SimConfig(n_bits=20_000, seed=123)
        assert run_link(CFG, CH, sim) == run_link(CFG, CH, sim)

    def test_worker_count_invariance(self, frame_symbols):
        frame_symbols(4096)
        base = SimConfig(n_bits=40_000, seed=5)
        serial = run_link(CFG, CH, base)
        parallel = run_link(CFG, CH, base, workers=3)
        assert serial == parallel

    def test_pool_bounded_by_frames_and_cores(self, monkeypatch, recording_pool, frame_symbols):
        frame_symbols(1000)
        sim = SimConfig(n_bits=3000, seed=1)
        serial = run_link(CFG, CH, sim)
        for cores, expected in ((64, [3]), (2, [3, 2]), (None, [3, 2])):
            monkeypatch.setattr(simulate.os, "cpu_count", lambda: cores)
            assert run_link(CFG, CH, sim, workers=100_000) == serial
            assert RecordingPool.sizes == expected

    def test_admc_counters_worker_invariant(self, frame_symbols):
        frame_symbols(4096)
        cfg = MrskConfig(detector="admc", Q=100.0)
        ch = ChannelParams(Ts=0.05, L=5)
        base = SimConfig(n_bits=20_000, seed=3)
        serial = run_link(cfg, ch, base)
        parallel = run_link(cfg, ch, base, workers=2)
        assert serial == parallel
        assert serial.admc_clamps > 0

    def test_different_seeds_differ(self):
        a = run_link(CFG, CH, SimConfig(n_bits=40_000, seed=1))
        b = run_link(CFG, CH, SimConfig(n_bits=40_000, seed=2))
        assert a.errors != b.errors


def exit_worker(*job):
    os._exit(3)


def recording(folder, fn, key):
    """``fn``, appending a line ``name key(*args)`` to the file named after the calling pid."""
    def wrapper(*args):
        with open(folder / str(os.getpid()), "a") as out:
            out.write(f"{fn.__name__} {key(*args):g}\n")
        return fn(*args)
    return wrapper


def builds(folder):
    """The records ``recording`` wrote under ``folder``, by pid, and removes them."""
    records = {}
    for path in folder.iterdir():
        records[int(path.name)] = path.read_text().splitlines()
        path.unlink()
    return records


class TestFramePool:
    """The process keeps one real frame pool between calls."""

    @pytest.fixture
    def no_pool(self, monkeypatch):
        # start without a cached pool; shut down the pools the test leaves
        monkeypatch.setattr(simulate, "_POOL", None)
        yield
        if simulate._POOL is not None:
            simulate._POOL[0].shutdown(wait=True)

    def test_pool_reused_until_its_size_changes(self, monkeypatch, no_pool, frame_symbols):
        created, shut = [], []

        class CountingPool(simulate.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                created.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

            def shutdown(self, wait=True, **kwargs):
                shut.append(self._max_workers)
                super().shutdown(wait=wait, **kwargs)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 4)  # so 3 workers means 3 processes
        # 3 points of 6 frames each
        frame_symbols(1000)
        spec = dict(param="Q", values=(200.0, 500.0, 900.0), bits=6_000, seed=8)
        serial = sweep(**spec)
        for workers in (2, 2, 3, 1, 2):
            assert sweep(workers, **spec) == serial
        # one worker runs in-process and leaves the pool of 3 alone
        assert created == [2, 3, 2] and shut == [2, 3]
        assert simulate._POOL[1:] == (2, os.getpid())

    def test_inherited_pool_left_alone(self, recording_pool):
        # a forked child sees its parent's pool under the parent's pid
        inherited = mock.Mock()
        simulate._POOL = (inherited, 2, os.getpid() + 1)
        pool, fresh = simulate._pool(2)
        assert fresh and isinstance(pool, RecordingPool) and RecordingPool.sizes == [2]
        inherited.shutdown.assert_not_called()

    def test_interpreter_exit_joins_pool_workers(self, tmp_path):
        code = (
            "import sys\n"
            "from mrsk import simulate\n"
            "from mrsk.cli import run_cli\n"
            "simulate.os.cpu_count = lambda: 2\n"
            "argv = ['sweep', '--param', 'Q', '--values', '200,500', '--bits', '20000']\n"
            "rc = run_cli(argv + ['--workers', '2', '-o', sys.argv[1]])\n"
            "print(rc, *simulate._POOL[0]._processes)\n"
        )
        src = str(Path(mrsk.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "s.csv")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        rc, *pids = done.stdout.splitlines()[-1].split()
        assert rc == "0" and len(pids) == 2
        for pid in map(int, pids):  # joined, so not even a zombie is left
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_pool_replaced_after_a_worker_dies(self, monkeypatch, no_pool, frame_symbols):
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
        frame_symbols(2000)
        sim = SimConfig(n_bits=20_000, seed=9)
        serial = run_link(CFG, CH, sim)
        assert run_link(CFG, CH, sim, workers=2) == serial
        pool = simulate._POOL[0]
        victim = next(iter(pool._processes.values()))
        victim.kill()
        # not join and is_alive: the executor's management thread reaps the same child
        assert multiprocessing.connection.wait([victim.sentinel], timeout=10) == [victim.sentinel]
        assert run_link(CFG, CH, sim, workers=2) == serial
        assert simulate._POOL[0] is not pool

    def test_pool_broken_by_its_frames_is_dropped(self, monkeypatch, no_pool, frame_symbols):
        # the pool forks after the patch, so its workers run exit_worker
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
        frame = simulate._simulate_frame
        monkeypatch.setattr(simulate, "_simulate_frame", exit_worker)
        frame_symbols(1000)
        sim = SimConfig(n_bits=4_000, seed=9)
        with pytest.raises(simulate.BrokenProcessPool):
            run_link(CFG, CH, sim, workers=2)
        assert simulate._POOL is None
        monkeypatch.setattr(simulate, "_simulate_frame", frame)
        assert run_link(CFG, CH, sim, workers=2) == run_link(CFG, CH, sim)

    def test_frame_jobs_carry_only_configs(self, monkeypatch):
        # the rows of a Q = 1e7 binomial link are megabytes; its frame jobs are not
        jobs = []
        monkeypatch.setattr(simulate, "_simulate_frame", lambda *job: jobs.append(job) or (0, 1, 0, 0))
        sim = SimConfig(n_bits=10**6, engine="binomial")
        simulate.run_links([(MrskConfig(Q=1e7), ChannelParams(), sim)], workers=1)
        assert len(jobs) == -(-sim.n_bits // simulate.FRAME_SYMBOLS)
        assert max(len(pickle.dumps(job)) for job in jobs) < 1024

    def test_each_process_builds_a_link_once(self, monkeypatch, no_pool, frame_symbols, tmp_path):
        # the pool forks after the patches, so its workers record their builds too
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
        quantities = recording(tmp_path, symbol_quantities, lambda config: config.Q)
        rows = recording(tmp_path, simulate._binomial_rows, lambda emissions, taps: emissions[0, 0])
        monkeypatch.setattr(simulate, "symbol_quantities", quantities)
        monkeypatch.setattr(simulate, "_binomial_rows", rows)
        frame_symbols(1000)
        sim = SimConfig(n_bits=8_000, seed=1, engine="binomial")
        # A, A' (A at another seed) and B
        links = [(MrskConfig(Q=200.0), CH, sim), (MrskConfig(Q=200.0), CH, replace(sim, seed=2)),
                 (MrskConfig(Q=500.0), CH, sim)]
        simulate._link_tables.cache_clear()
        serial = simulate.run_links(links, workers=1)
        expected = ["symbol_quantities 200", "_binomial_rows 200", "symbol_quantities 500",
                    "_binomial_rows 500"]
        assert builds(tmp_path) == {os.getpid(): expected}
        assert simulate.run_links(links, workers=2) == serial
        records = builds(tmp_path)
        # the parent builds nothing, and no worker builds a link twice
        assert os.getpid() not in records
        assert all(len(set(lines)) == len(lines) for lines in records.values())
        assert set().union(*records.values()) == set(expected)


class TestEngines:
    def test_statistical_vs_binomial_ci_overlap(self):
        rng = np.random.default_rng(44)
        for _ in range(5):
            q = rng.uniform(500, 2000)
            t_b = rng.uniform(0.3, 0.8)
            m = int(rng.integers(1, 3))
            cfg = MrskConfig(M=m, Q=q)
            ch = ChannelParams(Ts=m * t_b, L=5)
            seed = int(rng.integers(0, 2**31))
            a = run_link(cfg, ch, SimConfig(n_bits=40_000, seed=seed, engine="statistical"))
            b = run_link(cfg, ch, SimConfig(n_bits=40_000, seed=seed + 1, engine="binomial"))
            assert a.ci_low <= b.ci_high and b.ci_low <= a.ci_high

    def test_overwhelming_snr_is_error_free(self):
        cfg = MrskConfig(Q=1e6)
        ch = ChannelParams(Ts=0.5, L=1)
        est = run_link(cfg, ch, SimConfig(n_bits=10_000, seed=0))
        assert est.errors == 0
        assert est.ci_high == pytest.approx(3.0 / est.bits)

    def test_memoryless_channel_matches_analytic(self):
        # simulating with L = 1 is the tap-disabled limit; the estimate's
        # interval must cover the closed form
        cfg = MrskConfig(Q=300.0)
        ch = ChannelParams(Ts=0.5, L=1)
        analytic = ftd_ber(cfg, ch).ber
        est = run_link(cfg, ch, SimConfig(n_bits=300_000, seed=8))
        assert est.ci_low - 1e-9 <= analytic <= est.ci_high + 1e-9

    def test_admc_beats_ftd_under_heavy_isi(self):
        ch = ChannelParams(Ts=0.05, L=5)
        sim = SimConfig(n_bits=50_000, seed=19)
        ftd = run_link(MrskConfig(detector="ftd"), ch, sim)
        admc = run_link(MrskConfig(detector="admc"), ch, sim)
        assert admc.ber < ftd.ber

    def test_mlsd_runs_and_beats_ftd(self):
        ch = ChannelParams(Ts=0.5, L=3)
        sim = SimConfig(n_bits=20_000, seed=23)
        mlsd = run_link(MrskConfig(detector="mlsd"), ch, sim)
        ftd = run_link(MrskConfig(detector="ftd"), ch, sim)
        assert mlsd.ber <= ftd.ber


class TestColdStart:
    def test_short_frames_bias_within_bound(self, frame_symbols):
        # the first L-1 symbols of each frame see less ISI: at F = 16 and L = 5
        # the BER falls visibly below the stationary one, by at most (L-1)/F
        ch, frame, n_bits = ChannelParams(Ts=0.2, L=5), 16, 40_000
        stationary = ftd_ber(CFG, ch).ber
        frame_symbols(frame)
        est = run_link(CFG, ch, SimConfig(n_bits=n_bits, seed=3))
        se = math.sqrt(stationary * (1.0 - stationary) / n_bits)
        assert abs(est.ber - stationary) <= (ch.L - 1) / frame + 4.0 * se
        assert est.ber < stationary - 4.0 * se


class TestStatisticalEngine:
    def test_moments_equal_lfilter(self):
        # the engine's FIR moments are the sums lfilter computes, bit for bit
        rng = np.random.default_rng(71)
        for k, n, L in ((1, 2, 5), (3, 2, 5), (5, 3, 5), (40, 4, 3), (200, 2, 1)):
            emissions = rng.uniform(0.0, 5000.0, size=(k, n))
            taps = cir(ChannelParams(Ts=rng.uniform(0.05, 2.0), L=L))
            mu = signal.lfilter(taps, [1.0], emissions, axis=0)
            var = signal.lfilter(taps * (1.0 - taps), [1.0], emissions, axis=0)
            expected = mu + np.sqrt(var) * np.random.default_rng(k).standard_normal((k, n))
            got = simulate._arrivals_statistical(emissions, taps, np.random.default_rng(k))
            assert np.array_equal(got, expected)

    def test_import_leaves_scipy_signal_out(self):
        # none is used, and each would add to every process's start-up
        code = (
            "import sys, mrsk; "
            "print(any(m in sys.modules for m in ('scipy.signal', 'scipy.optimize', 'scipy.stats')))"
        )
        src = str(Path(mrsk.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


class Uniforms:
    """A generator stand-in whose ``random(size)`` hands out prescribed uniforms in order."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def random(self, size):
        u = next(self.draws)
        assert u.size == size
        return u


@functools.cache
def full_cdf(v: float, p: float) -> np.ndarray:
    """P(Bin(v, p) <= k) for every count k = 0..v."""
    k = np.arange(v + 1.0)
    return special.betainc(v - k, k + 1.0, 1.0 - p)


def binomial_draws(emissions, taps, rng) -> np.ndarray:
    return simulate._arrivals_binomial(*simulate._binomial_rows(emissions, taps), rng)


def assert_rows_sorted(emissions, taps):
    """Each row's counts follow one another and its CDF never falls."""
    cdf, ks, _ = simulate._binomial_rows(emissions, taps)[1]
    ends = np.flatnonzero(np.isinf(cdf))[:-1] + 1
    for row, counts in zip(np.split(cdf, ends), np.split(ks, ends)):
        assert np.all(np.diff(row) >= 0) and np.all(np.diff(counts) == 1)


class TestBinomialEngine:
    @pytest.mark.parametrize(
        "v, p",
        [(v, p) for v in (0.0, 1.0, 7.0, 1e6) for p in (0.0, 1e-7, 0.0114, 0.287, 0.99)]
        + [(50.0, 1e-7), (3.0, 0.0114), (2718.0, 0.0114), (368.0, 0.287)],  # skewed, small v p
    )
    def test_draws_equal_full_table_search(self, v, p):
        # every draw is the full CDF's searchsorted, at random uniforms, at both
        # ends of Generator.random's range and at each reachable CDF value (ties go up)
        F = full_cdf(v, p)
        u = np.concatenate([
            np.random.default_rng(5).random(20_000),
            [2.0**-53, 1.0 - 2.0**-53],
            F[(F >= 2.0**-53) & (F <= 1.0 - 2.0**-53)],
        ])
        got = binomial_draws(np.full((u.size, 1), v), np.array([p]), Uniforms([u]))
        assert np.array_equal(got[:, 0], np.searchsorted(F, u, side="right"))
        assert_rows_sorted(np.array([[v]]), np.array([p]))

    def test_rows_sorted_whatever_betainc_rounds(self, monkeypatch):
        # a CDF that dips below 2^-53 after its first entry above it, and below 1
        # after its first 1, must neither skip a count nor unsort the row: the
        # draws are those of its running maximum, up to its first 1
        F = np.array([0.3, 1e-17, 0.6, 1.0, 1.0 - 2.0**-53, 1.0])  # Bin(5, 0.5): k = 0..5
        monkeypatch.setattr(simulate, "special", mock.Mock(betainc=lambda *args: F.copy()))
        assert_rows_sorted(np.array([[5.0]]), np.array([0.5]))
        u = np.concatenate([np.random.default_rng(6).random(1_000), [2.0**-53, 0.3, 0.6]])
        got = binomial_draws(np.full((u.size, 1), 5.0), np.array([0.5]), Uniforms([u]))
        assert np.array_equal(got[:, 0], np.searchsorted(np.maximum.accumulate(F), u, side="right"))

    def test_frame_shorter_than_memory_equals_full_table_search(self):
        # K = 3 symbols of N = 2 types under L = 5 taps: taps 0..2 draw, each
        # count the sum of its taps' searches
        emissions = np.array([[0.0, 368.0], [2718.0, 1.0], [1000.0, 7.0]])
        taps = cir(CH)  # L = 5
        rng = np.random.default_rng(8)
        draws = [rng.random(2 * (3 - m)) for m in range(3)]
        draws[1][0], draws[2][1] = 2.0**-53, 1.0 - 2.0**-53
        expected = np.zeros(emissions.shape)
        for m, u in enumerate(draws):
            for (j, n), e in np.ndenumerate(emissions[: 3 - m]):
                expected[j + m, n] += np.searchsorted(full_cdf(e, taps[m]), u[2 * j + n], side="right")
        assert np.array_equal(binomial_draws(emissions, taps, Uniforms(draws)), expected)

    def test_each_row_fits_its_pmf(self):
        # chi-square of every row of the default link (3 values x 5 taps) against
        # the betainc pmf, bins pooled to an expected count of at least 5
        quantities, taps, n = symbol_quantities(CFG), cir(CH), 20_000
        rng = np.random.default_rng(9)
        for v in np.unique(np.rint(quantities)):
            for p in taps:
                draws = binomial_draws(np.full((n, 1), v), np.array([p]), rng)[:, 0].astype(int)
                F = full_cdf(v, p)
                central = np.flatnonzero(n * np.diff(F, prepend=0.0) >= 5.0)
                observed = np.bincount(np.clip(draws, central[0], central[-1]) - central[0])
                expected = n * np.diff(np.concatenate([[0.0], F[central[:-1]], [1.0]]))
                statistic = np.sum((observed - expected) ** 2 / expected)
                assert stats.chi2.sf(statistic, central.size - 1) > 1e-4, (v, p)

    def test_row_cap_refusal_before_any_table(self, monkeypatch):
        monkeypatch.setattr(simulate, "symbol_quantities", refuse_frame)
        monkeypatch.setattr(simulate, "_simulate_frame", refuse_frame)
        links = [(MrskConfig(Q=1e15), CH, SimConfig(n_bits=1_000, engine="binomial"))]
        with pytest.raises(CapacityError, match="BINOMIAL_ROW_CAP"):
            simulate.run_links(links, workers=1)


class TestFrameRunner:
    @pytest.mark.parametrize(
        "spec, frame",
        [
            (dict(param="t_b", values=(0.25, 0.5, 1.0), bits=12_000, seed=2), 1500),
            (dict(param="Q", values=(100.0, 300.0), bits=6_000, seed=3, engine="binomial"), 1000),
            # N sets the bits per symbol, so the points have different frame counts
            (dict(param="N", values=(2.0, 3.0, 4.0), detector="admc", Q=100.0, t_b=0.05, L=3,
                  bits=6_000, seed=4), 700),
            (dict(param="Q", values=(10.0, 20.0), t_b=0.25, L=2, bits=1_000, seed=5,
                  engine="particle", dt=1e-2), 100),
        ],
        ids=["statistical-ftd", "binomial", "admc", "particle"],
    )
    def test_sweep_worker_invariance(self, spec, frame, monkeypatch, frame_symbols):
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 4)  # so 3 workers means 3 processes
        frame_symbols(frame)
        serial = sweep(**spec)
        for workers in (2, 3):
            assert sweep(workers, **spec) == serial
        if spec.get("detector") == "admc":
            assert all(est.admc_clamps > 0 for est in serial)

    def test_sweep_opens_one_pool(self, monkeypatch, recording_pool, frame_symbols):
        # 3 points of 2 frames each: 6 frames in the one queue
        frame_symbols(1000)
        spec = dict(param="Q", values=(200.0, 500.0, 900.0), bits=2_000, seed=6)
        serial = sweep(**spec)
        for workers, cores, expected in ((5, 64, [5]), (100, 64, [5, 6]), (100, 2, [5, 6, 2])):
            monkeypatch.setattr(simulate.os, "cpu_count", lambda: cores)
            assert sweep(workers, **spec) == serial
            assert RecordingPool.sizes == expected

    def test_refusal_before_any_frame(self, monkeypatch):
        monkeypatch.setattr(simulate, "_simulate_frame", refuse_frame)
        monkeypatch.setattr(simulate, "TRIALS_CAP", 1_500)
        ok = SimConfig(n_bits=1_000)
        links = [(CFG, CH, ok), (CFG, CH, ok), (CFG, CH, replace(ok, n_bits=2_000))]
        with pytest.raises(CapacityError, match="TRIALS_CAP = 1500"):
            simulate.run_links(links, workers=1)

    def test_symbol_count_refusal_before_any_table(self, monkeypatch):
        monkeypatch.setattr(simulate, "symbol_quantities", refuse_frame)
        big = MrskConfig(N=2 + simulate.SYMBOL_COUNT_CAP.bit_length() - 1)
        assert big.symbol_count == 2 * simulate.SYMBOL_COUNT_CAP
        with pytest.raises(CapacityError, match="SYMBOL_COUNT_CAP"):
            run_link(big, ChannelParams(Ts=1.0, L=1), SimConfig(n_bits=2000))

    def test_trellis_refusal_before_any_arrival(self, monkeypatch):
        monkeypatch.setattr(simulate, "_arrivals_statistical", refuse_frame)
        with pytest.raises(CapacityError, match="trellis states"):
            run_link(MrskConfig(N=3, M=2, detector="mlsd"), ChannelParams(Ts=1.0, L=6),
                     SimConfig(n_bits=2000))

    def test_trellis_work_refusal_before_any_arrival(self, monkeypatch):
        # within both trellis caps (2^12 states, S^L = 2^16 windows): refused one
        # symbol past TRELLIS_WORK_CAP window-symbols, and run at the cap
        monkeypatch.setattr(simulate, "_arrivals_statistical", refuse_frame)
        config, channel = MrskConfig(N=3, M=2, detector="mlsd"), ChannelParams(Ts=1.0, L=4)
        symbols = modem.TRELLIS_WORK_CAP >> 16
        with pytest.raises(CapacityError, match=r"TRELLIS_WORK_CAP = 2\^30"):
            run_link(config, channel, SimConfig(n_bits=4 * (symbols + 1)))
        with pytest.raises(AssertionError, match="before the first frame"):
            run_link(config, channel, SimConfig(n_bits=4 * symbols))


class TestDetectorPathEquivalence:
    def test_bulk_ftd_matches_public_detector(self):
        cfg = MrskConfig(N=3, M=2)
        rng = np.random.default_rng(55)
        counts = rng.uniform(-5.0, 4000.0, size=(300, 3))
        ids, degenerate = detect_ftd(counts.copy(), cfg)
        ref, ref_degenerate = ftd_reference(counts, cfg)
        assert np.array_equal(symbol_indices(ids, cfg), ref)
        assert degenerate == ref_degenerate > 0

    def test_bulk_admc_matches_public_detector(self):
        cfg = MrskConfig(N=2, M=1)
        taps = cir(CH)
        rng = np.random.default_rng(56)
        counts = rng.uniform(1.0, 1500.0, size=(300, 2))
        ids, _, _ = detect_admc(counts.copy(), cfg, taps)
        ref, _ = admc_reference(counts, cfg, taps)
        assert np.array_equal(symbol_indices(ids, cfg), ref)

    def test_bulk_admc_counters_match_public_detector(self):
        cfg = MrskConfig(N=3, M=1)
        taps = cir(ChannelParams(Ts=0.1, L=3))
        rng = np.random.default_rng(58)
        counts = rng.uniform(-20.0, 1500.0, size=(400, 3))
        _, degenerate, clamps = detect_admc(counts.copy(), cfg, taps)
        _, ref_clamps = admc_reference(counts, cfg, taps)
        raw_degenerate = sum(bool(np.any(c[:-1] <= cfg.denom_eps)) for c in counts)
        assert clamps == ref_clamps > 0
        assert degenerate == raw_degenerate > 0

    @settings(max_examples=80, deadline=None)
    @given(
        N=st.integers(2, 4),
        M=st.integers(1, 3),
        L=st.integers(2, 5),
        block=st.integers(1, 24),
        length=st.sampled_from(["one", "block-1", "block", "block+1", "blocks"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bulk_admc_matches_per_symbol_loop(self, N, M, L, block, length, seed):
        cfg = MrskConfig(N=N, M=M, detector="admc")
        taps = cir(ChannelParams(Ts=0.05 * cfg.bits_per_symbol, L=L))
        n = {"one": 1, "block-1": max(1, block - 1), "block": block, "block+1": block + 1}.get(
            length, 3 * block + 2
        )
        rng = np.random.default_rng(seed)
        # negative, zero and near-epsilon counts make the clamps fire
        counts = rng.uniform(-0.05, 1.0, size=(n, N)) * cfg.Q * cfg.Omega ** np.arange(N)
        eps = cfg.denom_eps
        spikes = rng.random((n, N)) < 0.15
        counts[spikes] = rng.choice([0.0, eps, -eps, 0.5 * eps, 2.0 * eps], size=int(spikes.sum()))
        with mock.patch.object(modem, "_block_rows", lambda floats_per_row: block):
            ids, degenerate, clamps = detect_admc(counts, cfg, taps)
        ref_ids, ref_clamps = admc_reference(counts, cfg, taps)
        assert np.array_equal(symbol_indices(ids, cfg), ref_ids)
        assert clamps == ref_clamps
        assert degenerate == int(np.any(counts[:, :-1] <= eps, axis=1).sum())

    def test_bulk_mlsd_matches_public_detector(self):
        # 12 rows, one search, against the exhaustive search of all 2^12 sequences
        cfg = MrskConfig(N=2, M=1)
        taps = cir(ChannelParams(Ts=0.5, L=3))
        rng = np.random.default_rng(57)
        counts = rng.uniform(50.0, 1500.0, size=(12, 2))
        ids, degenerate = detect_mlsd(counts.copy(), cfg, taps)
        ratios = counts[:, 1:] / counts[:, :-1]
        assert ids.tolist() == mlsd_exhaustive(ratios, cfg, taps) and degenerate == 0


class TestParticle:
    def test_frozen_medium_keeps_positions(self):
        # vanishing diffusion: the kick scale collapses and nothing moves
        # from the release distance d, in one-step and in multi-step blocks
        ch = ChannelParams(d=10.0, r=5.0, D=1e-15, Ts=1.0, L=1)
        for n_steps in (1, 7):
            state = new_particle_state(ch, 1)
            release_molecules(state, [100])
            assert state.positions.tolist() == [ch.d] * 100
            particle_step(state, 1e-3, np.random.default_rng(0), n_steps)
            assert state.positions.shape == (100,)
            assert np.allclose(state.positions, ch.d, atol=1e-6)
            assert state.interval_counts[0] == 0
            assert state.ages.tolist() == [n_steps] * 100

    def test_one_step_is_the_norm_of_a_3d_step(self):
        # at a fixed distance R one step's R' is |(R, 0, 0) + s Z_3|, s^2 = 2 D dt:
        # two-sample KS against Cartesian draws; the radial kick alone, |R + s Z|,
        # misses the tangential spread and fails the same test
        dt = 1e-3
        ch = ChannelParams(d=2.0, r=1e-3, D=79.4, Ts=1.0, L=1)  # d is 5 s: none absorbed
        s = math.sqrt(2.0 * ch.D * dt)
        state = new_particle_state(ch, 1)
        release_molecules(state, [50_000])
        particle_step(state, dt, np.random.default_rng(0), 1)
        assert state.alive == 50_000
        kicks = s * np.random.default_rng(100).standard_normal((50_000, 3))
        kicks[:, 0] += ch.d
        assert stats.ks_2samp(state.positions, np.linalg.norm(kicks, axis=1)).pvalue > 1e-3
        assert stats.ks_2samp(state.positions, np.abs(ch.d + s * kicks[:, 1])).pvalue < 1e-3

    def test_mean_squared_displacement(self):
        # free diffusion far from a pinhead receiver: E[R'^2 - R^2] = 6 D t, and
        # R'^2 is 2 D t times a noncentral chi-square(3, R^2 / (2 D t)), however
        # the 50 steps are split into calls
        ch = ChannelParams(d=10.0, r=1e-3, D=79.4, Ts=1.0, L=1)
        t = 0.05
        law = stats.ncx2(3, ch.d**2 / (2 * ch.D * t), scale=2 * ch.D * t)
        for n_steps in (1, 10, 50):
            state = new_particle_state(ch, 1)
            release_molecules(state, [100_000])
            rng = np.random.default_rng(3)
            for _ in range(50 // n_steps):
                particle_step(state, 1e-3, rng, n_steps)
            assert state.alive == 100_000 and np.all(state.ages == 50)
            squared = state.positions**2
            assert (squared - ch.d**2).mean() == pytest.approx(6 * ch.D * t, rel=0.01)
            assert stats.kstest(squared, law.cdf).pvalue > 1e-3

    def test_absorbed_fraction_matches_hit_fraction(self):
        from mrsk.channel import hit_fraction

        ch = ChannelParams(Ts=1.0, L=1)
        frac = particle_hit_fraction(20_000, 1.0, ch, 1e-3, np.random.default_rng(42))
        assert frac == pytest.approx(hit_fraction(1.0, ch), rel=0.025)

    def test_interval_counts_match_moments(self):
        # per-interval tallies against the FIR moments at 10^4 molecules
        ch = ChannelParams(Ts=0.5, L=3)
        taps = cir(ch)
        rng = np.random.default_rng(7)
        emissions = np.full((3, 2), 10_000.0)
        counts = simulate._arrivals_particle(emissions, ch, 1e-3, rng)
        for k in range(3):
            mu, _ = arrival_moments(emissions[: k + 1], taps)
            assert counts[k] == pytest.approx(mu, rel=0.05)

    def test_molecules_retire_after_memory(self):
        # one burst, then empty symbols: nothing is counted L or more intervals
        # after the release, though free molecules would still hit then
        ch = ChannelParams(Ts=0.25, L=2)
        emissions = np.zeros((8, 1))
        emissions[0] = 2_000
        counts = simulate._arrivals_particle(emissions, ch, 1e-2, np.random.default_rng(9))
        assert np.all(counts[: ch.L] > 0)
        assert np.all(counts[ch.L :] == 0)

    def test_burst_split_is_multinomial(self):
        # one burst of n over L intervals splits as Multinomial(n; p_1..p_L):
        # per-interval means n p_k and cross-interval covariance -n p_1 p_2
        # (independent per-tap draws would give 0, about 6.5 SE away)
        ch = ChannelParams(Ts=0.25, L=3)
        p = cir(ch)
        n, frames = 200, 2_000
        emissions = np.zeros((ch.L, 1))
        emissions[0] = n
        rng = np.random.default_rng(11)
        x = np.array([simulate._arrivals_particle(emissions, ch, 1e-2, rng)[:, 0] for _ in range(frames)])
        var = n * p * (1.0 - p)
        assert np.all(np.abs(x.mean(axis=0) - n * p) < 4.0 * np.sqrt(var / frames))
        cov = -n * p[0] * p[1]
        se = math.sqrt((var[0] * var[1] + cov * cov) / frames)  # Gaussian approximation
        assert abs(np.cov(x[:, 0], x[:, 1])[0, 1] - cov) < 4.0 * se

    def test_population_cap_refused_before_any_frame(self, monkeypatch):
        monkeypatch.setattr(simulate, "_arrivals_particle", refuse_frame)
        sim = SimConfig(n_bits=1_000, engine="particle")
        big = MrskConfig(Q=simulate.PARTICLE_POPULATION_CAP / 2)
        with pytest.raises(CapacityError, match="PARTICLE_POPULATION_CAP"):
            run_link(big, ChannelParams(L=2), sim)
        # the same link on another engine holds no molecules
        run_link(big, ChannelParams(L=2), replace(sim, engine="statistical"))

    def test_step_cap_refused_before_any_frame(self, monkeypatch):
        # the cap counts molecule-steps: symbols x round(Ts / dt) x the population bound
        monkeypatch.setattr(simulate, "_arrivals_particle", refuse_frame)
        monkeypatch.setattr(simulate, "symbol_quantities", refuse_frame)
        cfg, ch = MrskConfig(Q=50.0), ChannelParams(Ts=0.5, L=2)
        # 1000 symbols of round(0.5 / dt) steps, the last too many for an integer count
        for dt in (1e-3, 1e-6, 1e-9, 1e-320):
            with pytest.raises(CapacityError, match="PARTICLE_MOLECULE_STEP_CAP"):
                run_link(cfg, ch, SimConfig(n_bits=20_000, engine="particle", particle_dt=dt))
        monkeypatch.undo()
        monkeypatch.setattr(simulate, "_arrivals_particle", refuse_frame)
        # the same link on another engine takes no steps
        run_link(cfg, ch, SimConfig(n_bits=1_000, particle_dt=1e-9))
        # the cap is exact: 1000 symbols of 50 steps among up to L Q (1 + Omega) molecules;
        # below one molecule a step still counts once
        monkeypatch.setattr(simulate, "_simulate_frame", lambda *job: (0, 1, 0, 0))
        sim = SimConfig(n_bits=1_000, engine="particle", particle_dt=0.01)
        for q, molecule_steps in ((50.0, 1000 * 50 * 2 * 50.0 * (1 + math.e)), (0.1, 1000 * 50)):
            link = replace(cfg, Q=q)
            monkeypatch.setattr(simulate, "PARTICLE_MOLECULE_STEP_CAP", math.ceil(molecule_steps))
            run_link(link, ch, sim)
            monkeypatch.setattr(simulate, "PARTICLE_MOLECULE_STEP_CAP", math.ceil(molecule_steps) - 1)
            with pytest.raises(CapacityError, match="PARTICLE_MOLECULE_STEP_CAP"):
                run_link(link, ch, sim)

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf])
    def test_particle_dt_positive_and_finite(self, dt):
        with pytest.raises(ValueError, match="particle_dt"):
            SimConfig(particle_dt=dt)

    def test_hit_fraction_needs_a_molecule(self):
        with pytest.raises(ValueError, match="n_molecules"):
            particle_hit_fraction(0, 1.0, ChannelParams(), 1e-3, np.random.default_rng(0))

    def test_release_validation(self):
        state = new_particle_state(CH, 1)
        with pytest.raises(ValueError):
            release_molecules(state, [-1])

    def test_coarse_dt_noted(self):
        sim = SimConfig(n_bits=1_000, engine="particle", particle_dt=0.05, seed=1)
        est = run_link(MrskConfig(Q=50.0), ChannelParams(Ts=0.1, L=1), sim)
        assert any("r/5" in note for note in est.notes)

    def test_particle_link_roundtrip(self, frame_symbols):
        frame_symbols(10)
        sim = SimConfig(n_bits=1_000, engine="particle", particle_dt=1e-2, seed=4)
        est = run_link(MrskConfig(Q=100.0), ChannelParams(Ts=1.0, L=2), sim)
        assert est.bits == 1000
        assert est.ber < 0.1


class TestSweep:
    """A sweep point is the spec with the swept field replaced (:func:`mrsk.cli._points`)."""

    def test_invalid_param_names_listed(self):
        with pytest.raises(cli.CliError, match="t_b, Q, d, Omega, N, M"):
            cli._points(ExperimentSpec(subcommand="sweep", param="sigma", values=(1.0,)))

    @pytest.mark.parametrize("param", ["N", "M"])
    def test_fractional_alphabet_parameters_rejected(self, param):
        with pytest.raises(cli.CliError, match="whole number"):
            cli._points(ExperimentSpec(subcommand="sweep", param=param, values=(2.5,)))

    def test_analytic_needs_ftd(self):
        with pytest.raises(cli.CliError, match="fixed-threshold"):
            sweep(param="Q", values=(500.0,), detector="admc", engine="analytic")

    def test_q_sweep_monotone_within_ci(self):
        curve = sweep(param="Q", values=(100.0, 400.0, 700.0, 1000.0), bits=60_000, seed=15)
        for a, b in zip(curve, curve[1:]):
            assert b.ber <= a.ber or b.ci_low <= a.ci_high

    def test_d_sweep_nondecreasing(self):
        curve = sweep(param="d", values=(9.0, 10.0, 11.0, 12.0), bits=60_000, seed=16)
        for a, b in zip(curve, curve[1:]):
            assert b.ber >= a.ber or a.ci_low <= b.ci_high

    def test_bit_time_normalization_across_m(self):
        # sweeping M keeps the bit time fixed: the symbol interval grows as
        # M(N-1) * t_b, matching a direct closed-form evaluation
        curve = sweep(param="M", values=(1.0, 2.0), t_b=0.5, engine="analytic")
        for M, est in zip((1, 2), curve):
            direct = ftd_ber(MrskConfig(M=M), ChannelParams(Ts=M * 0.5, L=5)).ber
            assert est.ber == pytest.approx(direct, rel=1e-12)

    def test_analytic_sweep_deterministic(self):
        a = sweep(param="Q", values=(200.0, 800.0), engine="analytic")
        b = sweep(param="Q", values=(200.0, 800.0), engine="analytic")
        assert a == b


def reference_frame(mrsk, channel, sim, frame_index, n_symbols):
    """A frame through alphabet-index rows and the Hamming table, with emissions from
    the alphabet, stacked FIR moments and searchsorted buckets: no symbol table."""
    taps = cir(channel)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=sim.seed, spawn_key=(frame_index,)))
    bits = rng.integers(0, 2, size=n_symbols * mrsk.bits_per_symbol, dtype=np.uint8)
    idx0 = encode_bits_to_indices(bits, mrsk)
    ratios = ratio_alphabet(mrsk)[idx0]
    emissions = mrsk.Q * np.concatenate([np.ones((n_symbols, 1)), np.cumprod(ratios, axis=1)], axis=1)
    if sim.engine == "statistical":
        def fir(b):
            return np.stack([np.convolve(b, col)[: len(emissions)] for col in emissions.T], axis=1)
        mu, var = fir(taps), fir(taps * (1.0 - taps))
        counts = mu + np.sqrt(var) * rng.standard_normal(emissions.shape)
    else:
        counts = simulate._arrivals_binomial(*simulate._binomial_rows(emissions, taps), rng)
    clamps = 0
    with mock.patch.object(modem, "_buckets", lambda e, r: np.searchsorted(e, r, side="right")):
        if mrsk.detector == "ftd":
            detected, degenerate = detect_ftd(counts, mrsk)
        elif mrsk.detector == "admc":
            detected, degenerate, clamps = detect_admc(counts, mrsk, taps)
        else:
            detected, degenerate = detect_mlsd(counts, mrsk, taps)
    errors = int(hamming_table(mrsk.M, mrsk.coding)[idx0, symbol_indices(detected, mrsk)].sum())
    return errors, bits.size, degenerate, clamps


@st.composite
def frame_links(draw):
    """A link whose frames are 1, 7 or 8192 symbols long."""
    detector = draw(st.sampled_from(["ftd", "admc", "mlsd"]))
    length = draw(st.sampled_from([1, 7, 8192]))
    N, M = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    L = draw(st.integers(2 if detector == "admc" else 1, 5))
    bits = M * (N - 1)
    # per symbol ADMC tabulates S + 1 rows and MLSD S^L windows: keep long frames small
    if detector == "admc":
        assume(length < 8192 or bits <= 6)
    if detector == "mlsd":
        assume(bits * L <= (12 if length < 8192 else 6))
    config = MrskConfig(
        N=N, M=M, coding=draw(st.sampled_from(["binary", "gray"])), detector=detector,
        Q=draw(st.sampled_from([0.5, 30.0, 1000.0])),
    )
    channel = ChannelParams(Ts=draw(st.sampled_from([0.05, 0.2, 0.5])) * bits, L=L)
    sim = SimConfig(
        n_bits=max(1000, 2 * length * bits), seed=draw(st.integers(0, 2**32 - 1)),
        engine=draw(st.sampled_from(["statistical", "binomial"])),
    )
    return config, channel, sim, length


class TestFrameEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(link=frame_links(), which=st.integers(0, 1))
    def test_frame_equals_index_row_reference(self, link, which):
        *link, length = link
        jobs = []
        # patched per example: hypothesis runs every example in one call of the
        # test, for which a function-scoped fixture is set up only once
        with mock.patch.object(simulate, "FRAME_SYMBOLS", length), mock.patch.object(
            simulate, "_simulate_frame", lambda *job: jobs.append(job) or (0, 1, 0, 0)
        ):
            simulate.run_links([tuple(link)], workers=1)
        mrsk, channel, sim, index, n_symbols = jobs[which]
        got = simulate._simulate_frame(mrsk, channel, sim, index, n_symbols)
        assert got == reference_frame(mrsk, channel, sim, index, n_symbols)

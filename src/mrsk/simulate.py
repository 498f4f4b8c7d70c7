"""Monte Carlo link engines and a Brownian particle simulator.

Three arrival engines share one transmit/detect pipeline: ``statistical``
draws Gaussian counts from the FIR moments, ``binomial`` draws the
per-tap binomial counts, and ``particle`` steps every molecule's distance
to the absorbing receiver in blocks inside each symbol interval, retiring
it at age L intervals (the FIR truncation of the other engines).
A frame draws random bits and packs each symbol's bits_per_symbol bits
into the integer that is the symbol (:func:`mrsk.modem.pack`), takes its
emissions from the per-link :func:`mrsk.modem.symbol_quantities` table,
draws arrivals, hands the (K, N) counts to a :mod:`mrsk.modem` detector
and counts bit errors as the popcount of sent ^ detected; the bit
mapping stays inside :mod:`mrsk.modem`.
Bit streams are split into frames of ``FRAME_SYMBOLS`` symbols with
independently derived random streams.  One call of :func:`run_links`
(:func:`run_link` is its one-link case; a sweep's links are built in
:mod:`mrsk.cli`) builds each link's tables once and queues the frames of
all its links together on the process's one frame pool (in-process at
one worker), which lives until exit and is replaced only when the worker
bound changes; per-link sums in frame order make the results bit-for-bit
reproducible for a seed at any worker count.  Each size cap
(``TRIALS_CAP``, ``SYMBOL_COUNT_CAP``, ``PARTICLE_POPULATION_CAP``,
``PARTICLE_MOLECULE_STEP_CAP`` and those of the other modules) is a module
constant, checked before any frame runs.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, cir
from .errors import CapacityError
from .modem import (
    TRELLIS_WORK_CAP,
    MrskConfig,
    detect_admc,
    detect_ftd,
    detect_mlsd,
    pack,
    symbol_quantities,
    trellis_states,
)
from .analysis import check_alphabet

__all__ = [
    "SimConfig",
    "BerEstimate",
    "run_link",
    "run_links",
    "ParticleState",
    "new_particle_state",
    "release_molecules",
    "particle_step",
    "particle_hit_fraction",
    "ber_confidence",
    "child_seed",
    "close_pool",
    "FRAME_SYMBOLS",
    "PARTICLE_POPULATION_CAP",
    "PARTICLE_MOLECULE_STEP_CAP",
    "SYMBOL_COUNT_CAP",
    "TRIALS_CAP",
]

_Z95 = 1.959963984540054
# symbols per independent frame: a fixed split keeps results worker-count independent
FRAME_SYMBOLS = 8192
# bits one link may simulate
TRIALS_CAP = 10**9
# live molecules a particle link may hold: L intervals of its largest symbol
PARTICLE_POPULATION_CAP = 10**6
# molecule-steps a particle link may take, symbols times round(Ts / dt) times
# its population bound (at least 1: a block step costs ~0.3 us even in a
# near-empty medium); about 30 ns each, so ~30 s at the cap
PARTICLE_MOLECULE_STEP_CAP = 10**9
# symbols a link may tabulate: its (S, N) emission table and the (S, N-1)
# digits it is built from take 8 (2N - 1) S bytes, about 160 MB at the cap
# (M = 1, N = 20)
SYMBOL_COUNT_CAP = 1 << 19
# molecule-steps per particle block: ~1 MiB of float64 temporaries at 4 per
# molecule-step (radii, distances to the surface, normals reused for the
# bridge's exponentials, step exponentials reused for its products)
_PARTICLE_BLOCK_STEPS = (1 << 20) // (4 * 8)


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run parameters.

    n_bits: bits to simulate (at least 1000 so interval reporting is
        meaningful); rounded up to whole symbols
    seed: master seed; every frame derives its own child stream
    engine: "statistical", "binomial" or "particle"
    particle_dt: Brownian time step (particle engine only)

    Frames of ``FRAME_SYMBOLS`` = F symbols are cold-start bursts: each
    starts with an empty channel, so its first L-1 symbols see less
    intersymbol interference than the stationary link of
    :func:`mrsk.analysis.ftd_ber`.  Those are (L-1)/F of the symbols, so
    they move the BER by at most (L-1)/F.
    """

    n_bits: int = 100_000
    seed: int = 0
    engine: str = "statistical"
    particle_dt: float = 1e-3

    def __post_init__(self) -> None:
        if self.n_bits < 1000:
            raise ValueError(f"need at least 1000 bits for interval reporting, got {self.n_bits}")
        if self.engine not in ("statistical", "binomial", "particle"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if not 0 < self.particle_dt < math.inf:  # NaN fails too
            raise ValueError(f"particle_dt must be positive and finite, got {self.particle_dt}")


@dataclass(frozen=True)
class BerEstimate:
    """Bit-error estimate with a 95% confidence interval.

    Analytic results are carried with bits=0 and a collapsed interval.
    ``degenerate_frames`` counts symbols whose raw ratio denominators fall
    at or below the degeneracy epsilon; ``admc_clamps`` counts the
    memory-cancelled count elements clamped at it.
    """

    errors: int
    bits: int
    ber: float
    ci_low: float
    ci_high: float
    degenerate_frames: int = 0
    notes: tuple[str, ...] = ()
    admc_clamps: int = 0

    @classmethod
    def from_counts(cls, errors: int, bits: int, **counters) -> "BerEstimate":
        """Estimate from an error count; ``counters`` fill the remaining fields."""
        lo, hi = ber_confidence(errors, bits)
        return cls(errors=errors, bits=bits, ber=errors / bits, ci_low=lo, ci_high=hi, **counters)

    @classmethod
    def exact(cls, ber: float) -> "BerEstimate":
        return cls(errors=0, bits=0, ber=ber, ci_low=ber, ci_high=ber)


def wilson_interval(errors: int, n: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    phat = errors / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def ber_confidence(errors: int, bits: int) -> tuple[float, float]:
    """95% interval: rule of three at zero errors, Wilson below 30, normal above."""
    if bits <= 0:
        raise ValueError("need simulated bits to build an interval")
    if errors == 0:
        return 0.0, min(1.0, 3.0 / bits)
    if errors < 30:
        return wilson_interval(errors, bits)
    p = errors / bits
    half = _Z95 * math.sqrt(p * (1 - p) / bits)
    return max(0.0, p - half), min(1.0, p + half)


# ---------------------------------------------------------------------------
# particle engine
# ---------------------------------------------------------------------------


@dataclass
class ParticleState:
    """Mutable Brownian-dynamics state.

    The receiver sphere sits at the origin and the transmitter point at
    distance d from it.  Absorption reads nothing but a molecule's distance
    from the receiver centre, so ``positions`` holds only that distance,
    one float per live molecule.  ``ages`` counts the steps each live
    molecule has taken and ``interval_counts`` accumulates absorptions per
    molecule type since the last reset.
    """

    channel: ChannelParams
    positions: np.ndarray
    types: np.ndarray
    ages: np.ndarray
    interval_counts: np.ndarray

    @property
    def alive(self) -> int:
        return self.positions.shape[0]

    def keep(self, mask: np.ndarray) -> None:
        """Drop every molecule whose ``mask`` entry is False."""
        self.positions = self.positions[mask]
        self.types, self.ages = self.types[mask], self.ages[mask]


def new_particle_state(channel: ChannelParams, n_types: int) -> ParticleState:
    return ParticleState(
        channel=channel,
        positions=np.empty(0),
        types=np.empty(0, dtype=np.int64),
        ages=np.empty(0, dtype=np.int64),
        interval_counts=np.zeros(n_types, dtype=np.int64),
    )


def release_molecules(state: ParticleState, counts_by_type) -> None:
    """Release molecules of each type at the transmitter point, distance d from the receiver centre."""
    counts = np.asarray(counts_by_type, dtype=np.int64)
    if np.any(counts < 0):
        raise ValueError("release counts must be nonnegative")
    n = int(counts.sum())
    if n == 0:
        return
    state.positions = np.concatenate([state.positions, np.full(n, state.channel.d)])
    state.types = np.concatenate([state.types, np.repeat(np.arange(counts.size), counts)])
    state.ages = np.concatenate([state.ages, np.zeros(n, dtype=np.int64)])


def particle_step(
    state: ParticleState, dt: float, rng: np.random.Generator, n_steps: int = 1
) -> ParticleState:
    """Advance every molecule by ``n_steps`` Brownian steps and absorb hits.

    A molecule's distance R from the receiver centre is a 3-dimensional
    Bessel process, stepped exactly: with s^2 = 2 D dt, Z ~ N(0, 1) and
    E ~ Exp(1), R' = sqrt((R + s Z)^2 + 2 s^2 E), the radial and the two
    tangential components of an N(0, s^2) kick per axis.  A molecule ending
    a step within the receiver radius is absorbed, and so is one whose
    straddling Brownian bridge crosses it, w.p. exp(-g0*g1 / (D dt)) for
    its distances g0, g1 to the surface.  Steps run in blocks of (b, n)
    draws, normals then exponentials; a molecule absorbed at any step of a
    block is tallied once.
    """
    if dt <= 0 or n_steps < 0:
        raise ValueError("dt must be positive and n_steps nonnegative")
    ch = state.channel
    var = 2.0 * ch.D * dt
    while n_steps and state.alive:
        n = state.alive
        b = min(n_steps, max(1, _PARTICLE_BLOCK_STEPS // n))
        radii = np.empty((b + 1, n))
        radii[0] = state.positions
        kick = rng.standard_normal((b, n))
        kick *= math.sqrt(var)
        spread = rng.standard_exponential((b, n))
        spread *= 2.0 * var
        for before, r, k, c in zip(radii[:-1], radii[1:], kick, spread):  # R' in place
            np.add(before, k, r)
            np.square(r, r)
            np.add(r, c, r)
            np.sqrt(r, r)
        gap = radii - ch.r  # (b + 1, n) distances to the receiver surface
        hit = gap[1:] <= 0.0
        # the bridge crosses w.p. exp(-x) exactly when an Exp(1) draw exceeds x
        bridge = rng.standard_exponential(out=kick)
        bridge *= ch.D * dt
        hit |= np.multiply(gap[:-1], gap[1:], out=spread) < bridge
        absorbed = hit.any(axis=0)
        state.interval_counts += np.bincount(state.types[absorbed], minlength=len(state.interval_counts))
        state.positions = radii[-1]
        state.keep(~absorbed)  # copies, so the block is freed
        state.ages += b
        n_steps -= b
    return state


def particle_hit_fraction(
    n_molecules: int, t: float, channel: ChannelParams, dt: float, rng: np.random.Generator
) -> float:
    """Absorbed fraction of a single burst after time t (particle oracle)."""
    state = new_particle_state(channel, 1)
    release_molecules(state, [n_molecules])
    particle_step(state, dt, rng, int(round(t / dt)))
    return float(state.interval_counts[0]) / n_molecules


def _arrivals_particle(
    emissions: np.ndarray,
    channel: ChannelParams,
    dt: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-interval absorbed counts of a frame of emissions (K, N); retires molecules at age L·Ts."""
    k_symbols, n_types = emissions.shape
    state = new_particle_state(channel, n_types)
    n_steps = max(1, int(round(channel.Ts / dt)))
    counts = np.zeros((k_symbols, n_types))
    for k in range(k_symbols):
        release_molecules(state, np.rint(emissions[k]).astype(np.int64))
        particle_step(state, dt, rng, n_steps)
        counts[k] = state.interval_counts
        state.interval_counts[:] = 0
        state.keep(state.ages < channel.L * n_steps)
    return counts


# ---------------------------------------------------------------------------
# statistical / binomial engines and the link pipeline
# ---------------------------------------------------------------------------


def _arrivals_statistical(
    emissions: np.ndarray, taps: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Gaussian counts mu + sqrt(var) z of the cold-start FIR moments of (K, N) emissions.

    Each moment column is bit for bit ``lfilter(b, [1.0], ., axis=0)``.
    """
    k_symbols = len(emissions)
    mu, var = np.empty(emissions.shape), np.empty(emissions.shape)
    taps_var = taps * (1.0 - taps)
    for j, col in enumerate(emissions.T):
        mu[:, j] = np.convolve(taps, col)[:k_symbols]
        var[:, j] = np.convolve(taps_var, col)[:k_symbols]
    counts = rng.standard_normal(emissions.shape)
    counts *= np.sqrt(var, out=var)
    counts += mu
    return counts


def _arrivals_binomial(
    emissions: np.ndarray, taps: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    e_int = np.rint(emissions).astype(np.int64)
    k_symbols = e_int.shape[0]
    counts = np.zeros(e_int.shape, dtype=np.int64)
    for m, p in enumerate(taps):
        if m >= k_symbols:
            break
        counts[m:] += rng.binomial(e_int[: k_symbols - m], p)
    return counts.astype(float)


def _simulate_frame(
    mrsk: MrskConfig,
    channel: ChannelParams,
    sim: SimConfig,
    tables: tuple[np.ndarray, np.ndarray],
    frame_index: int,
    n_symbols: int,
) -> tuple[int, int, int, int]:
    """Simulate one independent frame; returns (errors, bits, degenerate, ADMC clamps).

    ``tables`` are the link's (symbol quantities, taps).
    """
    quantities, taps = tables
    rng = np.random.default_rng(np.random.SeedSequence(entropy=sim.seed, spawn_key=(frame_index,)))
    bits = rng.integers(0, 2, size=n_symbols * mrsk.bits_per_symbol, dtype=np.uint8)
    sent = pack(bits.reshape(n_symbols, -1), 1)
    emissions = np.take(quantities, sent, axis=0)

    if sim.engine == "statistical":
        counts = _arrivals_statistical(emissions, taps, rng)
    elif sim.engine == "binomial":
        counts = _arrivals_binomial(emissions, taps, rng)
    else:
        counts = _arrivals_particle(emissions, channel, sim.particle_dt, rng)

    clamps = 0
    if mrsk.detector == "ftd":
        detected, degenerate = detect_ftd(counts, mrsk)
    elif mrsk.detector == "admc":
        detected, degenerate, clamps = detect_admc(counts, mrsk, taps)
    else:
        detected, degenerate = detect_mlsd(counts, mrsk, taps)

    errors = int(np.bitwise_count(sent ^ detected).sum())
    return errors, bits.size, degenerate, clamps


# the process's frame pool, kept between calls: (executor, workers, creator pid)
_POOL: tuple[ProcessPoolExecutor, int, int] | None = None


def _pool(workers: int) -> tuple[ProcessPoolExecutor, bool]:
    """The process's frame pool of ``workers`` processes, and whether it was just created.

    A pool of another size is shut down and joined before the new one forks,
    so no executor thread is alive at fork time; a pool inherited across a
    fork belongs to the parent and is left alone.  Idle workers live until
    the interpreter exits, when ``concurrent.futures`` joins them.  The pool
    is shared by the whole process, so calls from several threads must not
    ask for different sizes at once.
    """
    global _POOL
    if _POOL is not None and _POOL[2] != os.getpid():
        _POOL = None
    elif _POOL is not None and _POOL[1] != workers:
        _POOL[0].shutdown(wait=True)
        _POOL = None
    if _POOL is not None:
        return _POOL[0], False
    _POOL = (ProcessPoolExecutor(max_workers=workers), workers, os.getpid())
    return _POOL[0], True


def close_pool() -> None:
    """Shut the process's frame pool down: queued frames are cancelled, running ones finish.

    Its workers are joined, so none outlives the call; the next pooled call
    starts a fresh pool.  A pool inherited across a fork is only dropped.
    """
    global _POOL
    if _POOL is not None and _POOL[2] == os.getpid():
        _POOL[0].shutdown(wait=True, cancel_futures=True)
    _POOL = None


def _map_frames(jobs: list[tuple], workers: int) -> list[tuple[int, int, int, int]]:
    """Every frame's counts in job order, on the frame pool of ``workers`` processes.

    A broken pool is dropped, so the next call starts a fresh one.  A reused
    pool may have lost a worker while idle, so its frames run once more on a
    fresh pool; frames are pure, so the counts are the same.
    """
    global _POOL
    chunk = max(1, len(jobs) // (8 * workers))  # ~8 chunks a worker: balance vs IPC
    while True:
        pool, fresh = _pool(workers)
        try:
            return list(pool.map(_simulate_frame, *zip(*jobs), chunksize=chunk))
        except BrokenProcessPool:
            _POOL = None
            if fresh:
                raise


def run_links(
    links: list[tuple[MrskConfig, ChannelParams, SimConfig]], workers: int
) -> list[BerEstimate]:
    """One estimate per (mrsk, channel, sim) link; all their frames share one queue.

    Every link is checked against the caps before any frame runs; the
    frames run on the pool of ``workers`` processes.
    """
    owners, jobs = [], []
    for link, (mrsk, channel, sim) in enumerate(links):
        if sim.n_bits > TRIALS_CAP:
            raise CapacityError(
                f"requested {sim.n_bits} bits exceeds TRIALS_CAP = {TRIALS_CAP}; request fewer bits"
            )
        # symbol_count = 2^bits_per_symbol is compared by its exponent, never built
        if mrsk.bits_per_symbol >= SYMBOL_COUNT_CAP.bit_length():
            raise CapacityError(
                f"N={mrsk.N}, M={mrsk.M} gives 2^{mrsk.bits_per_symbol} symbols, exceeding "
                f"SYMBOL_COUNT_CAP = {SYMBOL_COUNT_CAP}; reduce N or M"
            )
        check_alphabet(mrsk)
        n_symbols = -(-sim.n_bits // mrsk.bits_per_symbol)
        if mrsk.detector == "mlsd":
            trellis_states(mrsk, channel.L)
            windows = mrsk.bits_per_symbol * channel.L  # S^L = 2^windows, within the window cap
            work = n_symbols << windows
            if work > TRELLIS_WORK_CAP:
                raise CapacityError(
                    f"sequence detection of {n_symbols} symbols over S^L = 2^{windows} branch "
                    f"windows scores {work:.4g} window-symbols, exceeding "
                    f"TRELLIS_WORK_CAP = 2^{TRELLIS_WORK_CAP.bit_length() - 1}; request fewer "
                    "bits or reduce N, M or L"
                )
        if sim.engine == "particle":
            # retirement bounds the population by L intervals of the largest symbol,
            # Q (1 + Omega + ... + Omega^(N-1)): every ratio at the top of the alphabet
            with np.errstate(over="ignore"):  # an infinite bound is refused below
                largest = mrsk.Q * float(np.sum(mrsk.Omega ** np.arange(mrsk.N, dtype=float)))
            population = channel.L * largest
            if population > PARTICLE_POPULATION_CAP:
                raise CapacityError(
                    f"a particle link may hold {population:.4g} live molecules (L times the largest "
                    f"symbol), exceeding PARTICLE_POPULATION_CAP = {PARTICLE_POPULATION_CAP}; "
                    "reduce Q, Omega, N, M or L"
                )
            # steps rounded as _arrivals_particle rounds, in floats so a huge Ts / dt stays
            # comparable; a step costs a block step even with under one molecule alive
            steps = n_symbols * max(1.0, round(channel.Ts / sim.particle_dt, 0))
            molecule_steps = steps * max(1.0, population)
            if molecule_steps > PARTICLE_MOLECULE_STEP_CAP:
                raise CapacityError(
                    f"a particle link of {n_symbols} symbols at round(Ts/dt) steps each, holding up "
                    f"to {population:.4g} live molecules, takes up to {molecule_steps:.4g} "
                    f"molecule-steps, exceeding PARTICLE_MOLECULE_STEP_CAP = "
                    f"{PARTICLE_MOLECULE_STEP_CAP:.0e}; raise dt, request fewer bits or reduce Q"
                )
        taps = cir(channel)  # refuses an L above MEMORY_CAP, so before the symbol table
        tables = (symbol_quantities(mrsk), taps)
        for index, start in enumerate(range(0, n_symbols, FRAME_SYMBOLS)):
            owners.append(link)
            jobs.append((mrsk, channel, sim, tables, index, min(FRAME_SYMBOLS, n_symbols - start)))

    # results do not depend on the worker count: start no more processes than frames or cores
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        results = _map_frames(jobs, workers)
    else:
        results = [_simulate_frame(*job) for job in jobs]

    totals = np.zeros((len(links), 4), dtype=np.int64)
    np.add.at(totals, owners, results)
    estimates = []
    for (mrsk, channel, sim), (errors, bits, degenerate, clamps) in zip(links, totals.tolist()):
        notes: tuple[str, ...] = ()
        if sim.engine == "particle":
            step_rms = math.sqrt(2.0 * channel.D * sim.particle_dt)
            if step_rms > channel.r / 5.0:
                notes = (
                    f"particle step rms {step_rms:.3g} um exceeds r/5 = {channel.r / 5.0:.3g} um; "
                    "absorption accuracy degrades at this dt",
                )
        estimates.append(
            BerEstimate.from_counts(
                errors, bits, degenerate_frames=degenerate, admc_clamps=clamps, notes=notes
            )
        )
    return estimates


def run_link(
    mrsk: MrskConfig, channel: ChannelParams, sim: SimConfig, workers: int = 1
) -> BerEstimate:
    """End-to-end Monte Carlo BER of one link configuration, its frames on ``workers`` processes.

    Generates uniform bits, encodes, superposes the full L-tap
    interference through the chosen arrival engine, detects with the
    configured detector and counts bit errors.  Frames are independent
    bursts (cold channel at each frame start), so partial results add
    associatively and the estimate is identical for any worker count.
    """
    return run_links([(mrsk, channel, sim)], workers)[0]


def child_seed(seed: int, index: int) -> int:
    """The seed of link ``index`` of a run of several links seeded with ``seed``."""
    return int(
        np.random.SeedSequence(entropy=seed, spawn_key=(index,)).generate_state(1, np.uint64)[0]
    )

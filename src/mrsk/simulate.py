"""Monte Carlo link engines and a Brownian particle simulator.

Three arrival engines share one transmit/detect pipeline: ``statistical``
draws type-major Gaussian counts from the FIR moments (the reference type
emits Q in every symbol, so the link's plan holds its moments), ``binomial``
per-tap binomial counts from per-link inverse-CDF rows, and ``particle``
steps each molecule's distance to the absorbing receiver for L intervals
from its release (the FIR truncation of the others); molecules never
interact, so a cohort of consecutive symbols steps together.  A frame
packs each symbol's random bits into the integer that is the symbol
(:func:`mrsk.modem.pack`), takes its emissions from the plan's
:func:`mrsk.modem.symbol_quantities` table, draws arrivals, hands the (K, N)
counts to a :mod:`mrsk.modem` detector and counts bit errors as
popcount(sent ^ detected); modem keeps the bit mapping.
Bit streams are split into frames of ``FRAME_SYMBOLS`` symbols with
independently derived random streams.  One call of :func:`run_links`
(:func:`run_link` is its one-link case; a sweep's links are built in
:mod:`mrsk.cli`) checks every link against each size cap (``TRIALS_CAP``,
``SYMBOL_COUNT_CAP``, ``BINOMIAL_ROW_CAP``, ``PARTICLE_POPULATION_CAP``,
``PARTICLE_MOLECULE_STEP_CAP`` and those of the other modules, all module
constants) and queues the frames of all its links together, each frame
carrying only its link's configs, on the process's one frame pool
(in-process at one worker), which lives until exit and is replaced only
when the worker bound changes.  Each process builds a link's plan once,
at its first frame of the link; per-link sums in frame order make the
results bit-for-bit reproducible for a seed at any worker count.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np
from scipy import special

from .channel import ChannelParams, cir
from .errors import check_cap
from .modem import (
    TRELLIS_WORK_CAP,
    MrskConfig,
    check_moments,
    detect_admc,
    detect_ftd,
    detect_mlsd,
    pack,
    symbol_quantities,
    trellis_states,
)
from .analysis import check_alphabet

__all__ = [
    "SimConfig", "BerEstimate", "run_link", "run_links", "ParticleState", "new_particle_state",
    "release_molecules", "particle_step", "particle_hit_fraction", "ber_confidence", "child_seed",
    "FRAME_SYMBOLS", "PARTICLE_POPULATION_CAP", "PARTICLE_MOLECULE_STEP_CAP", "SYMBOL_COUNT_CAP",
    "TRIALS_CAP", "BINOMIAL_ROW_CAP",
]

_Z95 = 1.959963984540054
# symbols per independent frame: a fixed split keeps results worker-count independent
FRAME_SYMBOLS = 8192
# bits one link may simulate
TRIALS_CAP = 10**9
# molecules a particle link may have in flight, L intervals of its largest symbol
# (each molecule steps L intervals), and molecules of one hit-fraction burst; a
# link's live population, one cohort, is at most max(one block, one symbol)
PARTICLE_POPULATION_CAP = 10**6
# molecule-steps a particle link may take, symbols times round(Ts / dt) times
# its molecules in flight (at least 1: a block step costs ~0.3 us even in a
# near-empty medium), or one hit-fraction burst; about 30 ns each, so ~30 s at the cap
PARTICLE_MOLECULE_STEP_CAP = 10**9
# symbols a link may tabulate: its (S, N) emission table and the (S, N-1)
# digits it is built from take 8 (2N - 1) S bytes, about 160 MB at the cap
# (M = 1, N = 20)
SYMBOL_COUNT_CAP = 1 << 19
# CDF entries of a binomial link's rows, bounded from its largest emission: with
# their guides 32 bytes an entry (130 MB at the cap), about 80 while being built.
# An entry costs 0.9-1.6 us of betainc once per process per link, whatever its bits,
# so the rows beat per-draw rng.binomial only past 15-30 draws an entry (Q = 1e5-1e7)
BINOMIAL_ROW_CAP = 1 << 22
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
    one float per live molecule, and ``types`` its tally bin; a link's
    state holds one cohort, a run of symbols released at once, with one bin
    per (symbol, type).  ``interval_counts`` accumulates absorptions per bin
    since the last reset.
    """

    channel: ChannelParams
    positions: np.ndarray
    types: np.ndarray
    interval_counts: np.ndarray

    @property
    def alive(self) -> int:
        return self.positions.shape[0]


def new_particle_state(channel: ChannelParams, n_types: int) -> ParticleState:
    return ParticleState(
        channel=channel,
        positions=np.empty(0),
        types=np.empty(0, dtype=np.int64),
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
    if not 0 < dt < math.inf or n_steps < 0:  # NaN fails too
        raise ValueError(f"dt must be positive and finite, n_steps >= 0; got {dt}, {n_steps}")
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
        # boolean indexing copies, so the block is freed
        state.positions, state.types = radii[-1][~absorbed], state.types[~absorbed]
        n_steps -= b
    return state


def _particle_steps(t: float, dt: float) -> float:
    """round(t / dt) in Python floats, where a t / dt past the floats is inf, unwarned."""
    return round(float(t) / float(dt), 0)


def _check_particle_budget(molecules: float, steps: float) -> None:
    """Refuse ``molecules`` past ``PARTICLE_POPULATION_CAP``, or ``steps`` among them (at least
    one) past ``PARTICLE_MOLECULE_STEP_CAP`` molecule-steps, with :class:`CapacityError`."""
    check_cap(
        molecules, "PARTICLE_POPULATION_CAP", PARTICLE_POPULATION_CAP,
        f"a population of {molecules:.7g} molecules in flight",
        "release fewer molecules (reduce Q, Omega, N, M or L)",
    )
    check_cap(
        steps * max(1.0, molecules), "PARTICLE_MOLECULE_STEP_CAP", PARTICLE_MOLECULE_STEP_CAP,
        f"a walk of {steps:.4g} steps among {molecules:.4g} molecules",
        "raise dt or simulate less time",
    )


def particle_hit_fraction(
    n_molecules: int, t: float, channel: ChannelParams, dt: float, rng: np.random.Generator
) -> float:
    """Absorbed fraction of a burst of ``n_molecules`` >= 1 after time t (particle oracle).

    Refuses a burst past ``PARTICLE_POPULATION_CAP`` molecules or past
    ``PARTICLE_MOLECULE_STEP_CAP`` molecule-steps with :class:`CapacityError`,
    before any allocation.
    """
    if n_molecules < 1:
        raise ValueError(f"n_molecules must be at least 1, got {n_molecules}")
    if not 0 <= t < math.inf:  # NaN fails too
        raise ValueError(f"hit time t must be finite and nonnegative, got {t}")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    steps = _particle_steps(t, dt)
    _check_particle_budget(n_molecules, steps)
    state = new_particle_state(channel, 1)
    release_molecules(state, [n_molecules])
    particle_step(state, dt, rng, int(steps))
    return float(state.interval_counts[0]) / n_molecules


def _arrivals_particle(
    emissions: np.ndarray, channel: ChannelParams, dt: float, rng: np.random.Generator
) -> np.ndarray:
    """Per-interval absorbed counts of a frame of emissions (K, N), a cohort of symbols at a time.

    A cohort holds about one block of molecules, all of one age: after its step call m, symbol
    k's tallies land in row k + m, and it is dropped after L calls (age L·Ts)."""
    k_symbols, n_types = emissions.shape
    n_steps = max(1, int(_particle_steps(channel.Ts, dt)))
    released = np.rint(emissions).astype(np.int64)
    size = max(1, _PARTICLE_BLOCK_STEPS // int(released.sum(axis=1).max(initial=1)))
    counts = np.zeros((k_symbols, n_types))
    for start in range(0, k_symbols, size):
        cohort = released[start : start + size]
        state = new_particle_state(channel, cohort.size)
        release_molecules(state, cohort.ravel())
        for row in range(start, min(start + channel.L, k_symbols)):
            particle_step(state, dt, rng, n_steps)
            tallies = state.interval_counts.reshape(cohort.shape)
            counts[row : row + len(cohort)] += tallies[: k_symbols - row]
            state.interval_counts[:] = 0
    return counts


# ---------------------------------------------------------------------------
# statistical / binomial engines and the link pipeline
# ---------------------------------------------------------------------------


def _fir_moments(emitted: np.ndarray, taps: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Cold-start FIR (mean, sd) of one type's contiguous emissions over its first k symbols."""
    return np.convolve(taps, emitted)[:k], np.sqrt(np.convolve(taps * (1.0 - taps), emitted)[:k])


def _arrivals_statistical(
    emissions: np.ndarray, taps: np.ndarray, rng: np.random.Generator, reference=None
) -> np.ndarray:
    """Type-major (F-ordered) Gaussian counts mu + sd z of (K, N) emissions, z drawn (K, N).

    Each moment column is bit for bit ``lfilter(b, [1.0], ., axis=0)``.  ``reference``, the
    moment rows of a first type emitting alike in every symbol, stands in for its sums when
    it covers K symbols past the taps (up to them numpy sums in another order).
    """
    k = len(emissions)
    known = reference is not None and taps.size < k <= reference.shape[1]
    moments = [reference[:, :k]] if known else []
    moments += [_fir_moments(np.ascontiguousarray(c), taps, k) for c in emissions.T[len(moments):]]
    counts = np.asfortranarray(rng.standard_normal(emissions.shape))
    for z, (mu, sd) in zip(counts.T, moments):
        z *= sd
        z += mu
    return counts


def _binomial_window(v, p):
    """Counts [lo, hi] outside which Bin(v, p) has under e^-40 < 2^-54 per side (Bernstein)."""
    t = 40.0 / 3.0 + np.sqrt(40.0**2 / 9.0 + 80.0 * v * p * (1.0 - p))
    return np.maximum(0.0, np.floor(v * p - t)), np.minimum(v, np.ceil(v * p + t))


def _binomial_rows(emissions: np.ndarray, taps: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Value ids of rint(``emissions``), and rows of F(k) = P(Bin(v_i, p_m) <= k), k in ``ks``.

    Row m V + i spans the k a uniform in [2^-53, 1 - 2^-53] reaches, its last F +inf.  Tap m's
    guide has G_m + 1 slots a value (G_m = 2^j >= its rows): the first F > g / G_m, the end.
    """
    values, ids = np.unique(np.rint(emissions), return_inverse=True)
    v, p = np.tile(values, len(taps)), np.repeat(taps, len(values))
    lo, hi = _binomial_window(v, p)
    row = np.repeat(np.arange(v.size), (hi - lo + 1.0).astype(np.int64))
    at, heads = np.arange(row.size), np.searchsorted(row, np.arange(v.size))  # row r from heads[r]
    ks = lo[row].astype(np.int64) + at - heads[row]
    cdf = special.betainc(v[row] - ks, ks + 1.0, 1.0 - p[row])  # betainc(0, ., .) = 1 = F(v)
    # each row runs from its first F > 2^-53 to its first F = 1, one count after another
    tail = np.append(heads[1:], row.size)[row] - 1
    first = np.minimum.reduceat(np.where(cdf > 2.0**-53, at, tail), heads)
    last = np.minimum.reduceat(np.where(cdf >= 1.0, at, tail), heads)
    keep = (first[row] <= at) & (at <= last[row])
    cdf, ks, row = cdf[keep], ks[keep], row[keep]
    for r in np.unique(row[1:][(np.diff(cdf) < 0) & (row[1:] == row[:-1])]):  # betainc rounding
        cdf[row == r] = np.maximum.accumulate(cdf[row == r])
    cdf[np.append(row[1:] != row[:-1], True)] = np.inf
    size = 1 << np.ceil(np.log2(np.bincount(row).reshape(len(taps), -1).max(1))).astype(np.int64)
    slots = np.repeat(size, len(values))
    # entry F keys to bucket ceil(F G), exact as G = 2^j; row r's G + 1 keys start at base[r]
    base = np.cumsum(slots + 1) - slots - 1
    keys = base[row] + np.minimum(np.ceil(cdf * slots[row]), slots[row]).astype(np.int64)
    guide = np.searchsorted(keys, np.arange(base[-1] + slots[-1] + 1), "right")
    guides = list(zip(np.split(guide, np.cumsum((size + 1) * len(values))[:-1]), size.tolist()))
    return ids.reshape(emissions.shape), (cdf, ks, guides)


def _arrivals_binomial(ids: np.ndarray, rows: tuple, rng: np.random.Generator) -> np.ndarray:
    """Per-tap Bin(v, p_m) counts of (K, N) value ids, each ``np.searchsorted(F, u, "right")``."""
    cdf, ks, guides = rows
    counts = np.zeros(ids.shape, dtype=np.int64)
    for m, (guide, size) in enumerate(guides[: len(ids)]):
        now = ids[: len(ids) - m].ravel()
        u = rng.random(now.size)
        pos = guide[now * (size + 1) + (u * size).astype(np.int64)]
        pos += cdf[pos] <= u
        late = np.flatnonzero(cdf[pos] <= u)
        for i in np.unique(now[late]):  # rare, past one step: search the row
            rest = late[now[late] == i]
            a, b = guide[i * (size + 1)], guide[i * (size + 1) + size]
            pos[rest] = a + np.searchsorted(cdf[a:b], u[rest], side="right")
        counts[m:] += ks[pos].reshape(-1, ids.shape[1])
    return counts.astype(float)


@functools.lru_cache(maxsize=1)
def _link_tables(mrsk: MrskConfig, channel: ChannelParams, engine: str, reached: int) -> tuple:
    """A link's plan: (symbol quantities, taps, binomial rows over its first ``reached`` taps
    or None, the reference type's FIR moments over ``FRAME_SYMBOLS`` or None).

    Pure, and kept for the last link the process asked for: frames are queued link by
    link and each worker takes its chunks in queue order.  Frames share its arrays, so
    they are read-only.
    """
    quantities, taps = symbol_quantities(mrsk), cir(channel)
    quantities.flags.writeable = taps.flags.writeable = False
    rows = _binomial_rows(quantities, taps[:reached]) if engine == "binomial" else None
    reference = None
    if engine == "statistical":  # the reference type emits Q in every symbol, so frames share it
        reference = np.stack(_fir_moments(np.full(FRAME_SYMBOLS, mrsk.Q), taps, FRAME_SYMBOLS))
        reference.flags.writeable = False
    return quantities, taps, rows, reference


def _simulate_frame(
    mrsk: MrskConfig, channel: ChannelParams, sim: SimConfig, frame_index: int, n_symbols: int
) -> tuple[int, int, int, int]:
    """Simulate one independent frame of a link; returns (errors, bits, degenerate, ADMC clamps)."""
    reached = min(channel.L, FRAME_SYMBOLS, -(-sim.n_bits // mrsk.bits_per_symbol))
    quantities, taps, binomial, reference = _link_tables(mrsk, channel, sim.engine, reached)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=sim.seed, spawn_key=(frame_index,)))
    bits = rng.integers(0, 2, size=n_symbols * mrsk.bits_per_symbol, dtype=np.uint8)
    sent = pack(bits.reshape(n_symbols, -1), 1)

    if sim.engine == "binomial":
        counts = _arrivals_binomial(np.take(binomial[0], sent, axis=0), binomial[1], rng)
    elif sim.engine == "statistical":
        counts = _arrivals_statistical(np.take(quantities, sent, axis=0), taps, rng, reference)
    else:
        counts = _arrivals_particle(np.take(quantities, sent, axis=0), channel, sim.particle_dt, rng)

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
    pool = ProcessPoolExecutor(workers, initializer=_watch_parent)
    _POOL = (pool, workers, os.getpid())
    return pool, True


def _watch_parent() -> None:
    """Pool-worker initializer: exit once orphaned, as a parent killed by SIGKILL shuts nothing down.

    The worker's parent is the pool's maker under fork and spawn but the fork
    server under forkserver, which lives while workers hold its pipe; so the
    maker's end is also read from the sentinel ``multiprocessing`` keeps of it.
    """
    maker, parent = multiprocessing.parent_process(), os.getppid()

    def watch() -> None:
        while os.getppid() == parent and maker.is_alive():
            time.sleep(0.2)
        os._exit(1)
    threading.Thread(target=watch, daemon=True).start()


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


def _refuse(mrsk: MrskConfig, channel: ChannelParams, sim: SimConfig) -> None:
    """Raise :class:`CapacityError` past a cap, ValueError for overflow or ADMC at L = 1; no table."""
    check_cap(sim.n_bits, "TRIALS_CAP", TRIALS_CAP, f"requested {sim.n_bits} bits", "request fewer bits")
    bits = mrsk.bits_per_symbol  # symbol_count = 2^bits
    check_cap(
        1 << min(bits, SYMBOL_COUNT_CAP.bit_length()), "SYMBOL_COUNT_CAP", SYMBOL_COUNT_CAP,
        f"the symbol set (N={mrsk.N}, M={mrsk.M} gives 2^{bits} symbols)", "reduce N or M",
    )
    check_alphabet(mrsk)
    n_symbols = -(-sim.n_bits // bits)
    if mrsk.detector != "ftd":
        # a symbol costs MLSD its S^L branch windows (within the window cap) and ADMC its S + 1
        # tabulated decisions, one per previous decision and one from the cold start
        if mrsk.detector == "mlsd":
            trellis_states(mrsk, channel.L)
            per_symbol, what = 1 << bits * channel.L, f"S^L = 2^{bits * channel.L} branch windows"
        else:
            per_symbol, what = (1 << bits) + 1, f"S + 1 = 2^{bits} + 1 decisions"
        work = n_symbols * per_symbol
        check_cap(
            work, "TRELLIS_WORK_CAP", TRELLIS_WORK_CAP,
            f"{mrsk.detector} detection scoring {work} candidate-symbols ({n_symbols} symbols"
            f" over {what} each)",
            "request fewer bits or reduce N, M or L",
        )
    check_moments(mrsk)
    if sim.engine == "particle":
        # each molecule steps L intervals, so at most L intervals of the largest symbol,
        # Q (1 + Omega + ... + Omega^(N-1)), are in flight: every ratio at the top of the
        # alphabet.  That bounds the cohorts' molecules and each interval's molecule-steps;
        # an interval takes at least one step, as in _arrivals_particle
        largest = mrsk.Q * float(np.sum(mrsk.Omega ** np.arange(mrsk.N, dtype=float)))
        steps = n_symbols * max(1.0, _particle_steps(channel.Ts, sim.particle_dt))
        _check_particle_budget(channel.L * largest, steps)
    taps = cir(channel)  # refuses an L above MEMORY_CAP
    if sim.engine == "binomial":
        reached = taps[: min(FRAME_SYMBOLS, n_symbols)]  # the taps a frame reaches
        # column j takes j (2^M - 1) + 1 values Q Omega^e at most, each rint to two at most
        lo, hi = _binomial_window(mrsk.Q * np.float64(mrsk.Omega) ** (mrsk.N - 1), reached)
        entries = mrsk.N * (2 + (mrsk.alphabet_size - 1) * (mrsk.N - 1)) * np.sum(hi - lo + 1)
        check_cap(
            entries, "BINOMIAL_ROW_CAP", BINOMIAL_ROW_CAP,
            f"a binomial row table of up to {entries:.4g} CDF entries", "reduce Q, Omega, N or M",
        )
    if mrsk.detector == "admc" and channel.L < 2:  # as detect_admc would, after the arrivals
        raise ValueError("memory cancellation needs channel memory L >= 2")


def run_links(
    links: list[tuple[MrskConfig, ChannelParams, SimConfig]], workers: int
) -> list[BerEstimate]:
    """One estimate per (mrsk, channel, sim) link; all their frames share one queue.

    Every link is checked against the caps before any table is built or
    frame runs; the frames run on the pool of ``workers`` processes.
    """
    owners, jobs = [], []  # a job carries configs only, so queueing builds nothing
    for link, (mrsk, channel, sim) in enumerate(links):
        _refuse(mrsk, channel, sim)
        n_symbols = -(-sim.n_bits // mrsk.bits_per_symbol)
        for index, start in enumerate(range(0, n_symbols, FRAME_SYMBOLS)):
            owners.append(link)
            jobs.append((mrsk, channel, sim, index, min(FRAME_SYMBOLS, n_symbols - start)))

    # results do not depend on the worker count: start no more processes than frames or cores
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        results = _map_frames(jobs, workers)
    else:
        try:
            results = [_simulate_frame(*job) for job in jobs]
        finally:  # the caller keeps no tables, even after a raise; an idle worker keeps one link's
            _link_tables.cache_clear()

    totals = np.zeros((len(links), 4), dtype=np.int64)
    np.add.at(totals, owners, results)
    estimates = []
    for (mrsk, channel, sim), (errors, bits, degenerate, clamps) in zip(links, totals.tolist()):
        step_rms = math.sqrt(2.0 * channel.D * sim.particle_dt)
        coarse = sim.engine == "particle" and step_rms > channel.r / 5.0
        notes = (
            f"particle step rms {step_rms:.3g} um exceeds r/5 = {channel.r / 5.0:.3g} um; "
            "absorption accuracy degrades at this dt",
        ) if coarse else ()
        counters = dict(degenerate_frames=degenerate, admc_clamps=clamps, notes=notes)
        estimates.append(BerEstimate.from_counts(errors, bits, **counters))
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

"""The benchmark's two workloads and the code that runs and checks them.

A workload is a fixed list of experiments.  A batch issues them back to
back, in-process, through ``mrsk.cli.run_cli`` (or, for the particle
oracle, ``mrsk.simulate.particle_hit_fraction``): a closed loop with one
client.  Every CLI experiment gets ``--seed`` from the benchmark's seed
and ``-o`` into a scratch directory, so the same seed gives the same
inputs and the same CSV bytes.

Only this module and ``tracing.py`` import ``mrsk``; they are loaded by the
workload process that ``run.py`` starts with ``src/`` on its path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mrsk.analysis
import mrsk.channel
import mrsk.cli
import mrsk.modem
import mrsk.simulate

# the throughput metric fed by each kind of experiment
KIND_METRIC = {
    "stat_ftd": "stat_ftd_bits_per_s",
    "binom_ftd": "binom_ftd_bits_per_s",
    "admc": "admc_bits_per_s",
    "mlsd": "mlsd_bits_per_s",
    "particle": "particle_bits_per_s",
    "hit_fraction": "hit_fraction_molecule_steps_per_s",
    "ftd_seq": "ftd_ber_seq_per_s",
    "compare": "compare_points_per_s",
}
CSV_HEADER = "param,value,scheme,detector,coding,ber,ci_low,ci_high,trials"
PDF_HEADER = "eta,exact,solid,gaussian,empirical"

# the acceptance gate's default FTD point: N=2, M=1, L=5, t_b=0.5
GATE_EXPERIMENT = "sweep_tb"
GATE_T_B = 0.5
GATE_SE = 3.0
HIT_FRACTION_SE = 4.0
HIT_FRACTION_REL = 0.02


@dataclass(frozen=True)
class Cli:
    """One CLI invocation; ``name`` is its CSV file stem."""

    name: str
    kind: str | None
    argv: tuple[str, ...]
    workers: int = 1


@dataclass(frozen=True)
class HitFraction:
    """One single-burst ``particle_hit_fraction`` call on the default channel."""

    name: str
    n_molecules: int
    t: float
    dt: float
    kind: str = "hit_fraction"
    workers: int = 1

    @property
    def molecule_steps(self) -> int:
        return self.n_molecules * int(round(self.t / self.dt))


def _cli(name: str, kind: str | None, args: str, workers: int = 1) -> Cli:
    return Cli(name, kind, tuple(args.split()), workers)


_FTD_SWEEP = "--engine statistical --bits 600000"
_ADMC = "--t-b 0.05 --L 3 --detector admc --engine statistical --bits 24000"
_PDF = "pdf --t-b 1.0 --samples 1000000 --grid-points 4001 --ratio"
# the FTD sweeps run on a pool of as many workers as the reference machine
# has cores; everything else runs in the workload process
POOL = 2

WORKLOADS: dict[str, tuple] = {
    "monte_carlo": (
        # arrivals, encode, bulk FTD, error count, framing and the process pool
        _cli("sweep_tb", "stat_ftd", f"sweep --param t_b --values 0.25:0.25:2.0 {_FTD_SWEEP}", POOL),
        _cli("sweep_d", "stat_ftd", f"sweep --param d --values 8:1:12 {_FTD_SWEEP}", POOL),
        _cli("sweep_omega", "stat_ftd", f"sweep --param Omega --values 1.5:0.3:3.0 {_FTD_SWEEP}", POOL),
        _cli(
            "sweep_tb_binomial",
            "binom_ftd",
            "sweep --param t_b --values 0.25:0.25:2.0 --engine binomial --bits 60000",
            POOL,
        ),
        # the per-symbol Python loops of the sequential detectors
        _cli("m_study", "admc", f"sweep --param M --values 1,2,3 {_ADMC}"),
        _cli("n_study", "admc", f"sweep --param N --values 2,3,4 {_ADMC}"),
        _cli("mlsd_n2", "mlsd", "ber-sim --detector mlsd --N 2 --L 3 --bits 12000"),
        _cli("mlsd_n3", "mlsd", "ber-sim --detector mlsd --N 3 --L 3 --bits 5000"),
    ),
    "physics_closed_form": (
        # the Brownian stepper, used by a many-burst link and by one burst
        _cli("particle_check", "particle", "ber-particle --bits 1000 --Q 10 --t-b 0.25 --L 2 --dt 0.01"),
        HitFraction("hit_fraction_t025", 5000, 0.25, 1e-3),
        HitFraction("hit_fraction_t05", 5000, 0.5, 1e-3),
        HitFraction("hit_fraction_t1", 5000, 1.0, 1e-3),
        # ratio laws, baselines and the closed-form enumeration, small and large
        _cli("pdf_up", None, f"{_PDF} 2.718281828459045"),
        _cli("pdf_unit", None, f"{_PDF} 1.0"),
        _cli("pdf_down", None, f"{_PDF} 0.3678794411714423"),
        _cli("q_study", None, "sweep --param Q --values 100:100:1000 --engine analytic"),
        _cli("compare_tb", "compare", "compare --param t_b --values 0.25:0.25:2.0 --bits 400000"),
        _cli("compare_q", "compare", "compare --param Q --values 100:100:1000 --bits 400000"),
        _cli("analytic_m3_l6", "ftd_seq", "ber-analytic --M 3 --L 6"),
        _cli("analytic_n3_m2_l5", "ftd_seq", "ber-analytic --N 3 --M 2 --L 5"),
    ),
}

@dataclass
class Record:
    """What one experiment did: its time, its error if any, and its output."""

    exp: Cli | HitFraction
    seconds: float
    error: str | None = None
    text: str | None = None
    value: float | None = None
    ok: bool = False  # set once the output checks pass

    @property
    def digest(self) -> str | None:
        return None if self.text is None else hashlib.sha256(self.text.encode()).hexdigest()


def run_experiment(exp, index: int, seed: int, out_dir: Path, workers: int | None = None) -> Record:
    """Run one experiment; a raise or a non-zero exit is recorded, not raised.

    ``workers`` overrides the experiment's own worker count.
    """
    if isinstance(exp, HitFraction):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
        t0 = time.perf_counter()
        try:
            value = mrsk.simulate.particle_hit_fraction(
                exp.n_molecules, exp.t, mrsk.channel.ChannelParams(), exp.dt, rng
            )
        except Exception as exc:  # counted as a failed experiment
            return Record(exp, time.perf_counter() - t0, error=repr(exc))
        return Record(exp, time.perf_counter() - t0, value=value, text=repr(value))
    path = out_dir / f"{exp.name}.csv"
    path.unlink(missing_ok=True)
    workers = exp.workers if workers is None else workers
    argv = [*exp.argv, "--seed", str(seed), "--workers", str(workers), "-o", str(path)]
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = mrsk.cli.run_cli(argv)
    except Exception as exc:  # counted as a failed experiment
        return Record(exp, time.perf_counter() - t0, error=repr(exc))
    seconds = time.perf_counter() - t0
    if rc != 0:
        return Record(exp, seconds, error=f"exit code {rc}")
    try:
        return Record(exp, seconds, text=path.read_text())
    except OSError as exc:
        return Record(exp, seconds, error=f"no output: {exc}")


def run_batch(workload: str, seed: int, out_dir: Path, workers: int | None = None) -> list[Record]:
    return [
        run_experiment(exp, i, seed, out_dir, workers)
        for i, exp in enumerate(WORKLOADS[workload])
    ]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def gate_reference() -> float:
    """Closed-form BER at the acceptance gate's default FTD point."""
    cfg = mrsk.modem.MrskConfig(N=2, M=1)
    return mrsk.analysis.ftd_ber(cfg, mrsk.channel.ChannelParams(Ts=GATE_T_B, L=5)).ber


def hit_fraction_reference(exp: HitFraction) -> float:
    return float(mrsk.channel.hit_fraction(exp.t, mrsk.channel.ChannelParams()))


def spec_values(text: str) -> dict[str, str]:
    """key -> raw value of a CSV's ``# spec:`` line."""
    first = text.split("\n", 1)[0]
    return dict(tok.partition("=")[::2] for tok in first[len("# spec: ") :].split())


def data_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()[2:] if line]


def check_record(rec: Record, references: dict[str, float]) -> str | None:
    """The first problem with one experiment's output, or None."""
    if rec.error is not None:
        return rec.error
    try:
        return _check_output(rec, references)
    except (ValueError, IndexError, KeyError) as exc:
        return f"malformed output: {exc!r}"


def _check_output(rec: Record, references: dict[str, float]) -> str | None:
    exp = rec.exp
    if isinstance(exp, HitFraction):
        ref = references[exp.name]
        tol = max(HIT_FRACTION_REL * ref, HIT_FRACTION_SE * math.sqrt(ref * (1 - ref) / exp.n_molecules))
        if abs(rec.value - ref) > tol:
            return f"hit fraction {rec.value:.5f} is {abs(rec.value - ref):.5f} from erfc {ref:.5f} (tolerance {tol:.5f})"
        return None
    lines = rec.text.splitlines()
    header = PDF_HEADER if exp.argv[0] == "pdf" else CSV_HEADER
    if len(lines) < 3 or not lines[0].startswith("# spec: ") or lines[1] != header:
        return "missing spec line, header or rows"
    if exp.argv[0] == "pdf":
        return None
    for row in data_rows(rec.text):
        ber, lo, hi = (float(v) for v in row[5:8])
        if not 0.0 <= lo <= ber <= hi <= 1.0:
            return f"row {','.join(row)} breaks 0 <= ci_low <= ber <= ci_high <= 1"
    if exp.name == GATE_EXPERIMENT:
        ref = references[GATE_EXPERIMENT]
        rows = [r for r in data_rows(rec.text) if float(r[1]) == GATE_T_B]
        if len(rows) != 1:
            return f"no t_b={GATE_T_B} row"
        ber, trials = float(rows[0][5]), int(rows[0][8])
        se = math.sqrt(ref * (1 - ref) / trials)
        if abs(ber - ref) > GATE_SE * se:
            return f"BER {ber} is {abs(ber - ref) / se:.2f} SE from ftd_ber {ref:.6g}"
    return None


def references_for(experiments) -> dict[str, float]:
    """Closed-form values the checks compare against, computed untimed."""
    refs = {}
    for exp in experiments:
        if isinstance(exp, HitFraction):
            refs[exp.name] = hit_fraction_reference(exp)
        elif exp.name == GATE_EXPERIMENT:
            refs[exp.name] = gate_reference()
    return refs


# ---------------------------------------------------------------------------
# work counted from the outputs
# ---------------------------------------------------------------------------


def work_units(rec: Record) -> float:
    """Bits, rows, sequences or molecule steps one experiment did."""
    exp = rec.exp
    if isinstance(exp, HitFraction):
        return float(exp.molecule_steps)
    rows = data_rows(rec.text)
    if exp.kind == "compare":
        return float(len(rows))
    if exp.kind == "ftd_seq":
        spec = spec_values(rec.text)
        n, m, L = int(spec["N"]), int(spec["M"]), int(spec["L"])
        return float((1 << m) ** (n - 1)) ** L
    return float(sum(int(r[8]) for r in rows))


def kind_rate(records: list[Record], kind: str) -> float:
    """Work per second over the checked experiments of one kind."""
    chosen = [r for r in records if r.exp.kind == kind and r.ok]
    seconds = sum(r.seconds for r in chosen)
    return sum(work_units(r) for r in chosen) / seconds if chosen else 0.0

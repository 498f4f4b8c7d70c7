"""Batch experiment runner emitting deterministic CSV.

Subcommands: ``pdf`` (ratio-density curves), ``ber-analytic``,
``ber-sim``, ``ber-particle``, ``compare`` (all baselines plus the ratio
scheme at shared settings) and ``sweep``.  Every output starts with a
commented line holding the fully resolved experiment spec and seed, from
which the file can be regenerated byte for byte (:func:`replay_csv`);
worker count never enters the spec because it never changes a result.
A sweep or compare point is the spec with the ``--param`` field replaced,
run as ``ber-sim`` (point i at seed ``child_seed(seed, i)``) or
``ber-analytic``; :attr:`ExperimentSpec.channel` is the one place the bit
time ``t_b`` becomes a symbol interval.

Flags override keys from an optional flat ``key=value`` config file.
When no output path is given, files land in ``$MRSK_OUT_DIR`` (or the
working directory).  Exit codes: 0 success, 1 usage or I/O error,
2 capability refusal, printed as the one line
``mrsk: refused: <what> exceeds NAME = <cap>; <advice>`` that names the
violated cap, a module constant (the README lists them all).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .analysis import BerEstimate, check_sequences, ftd_ber
from .baselines import (
    CskConfig,
    MoskConfig,
    OokConfig,
    RtskConfig,
    csk_ber,
    mosk_ber,
    ook_ber,
    rtsk_ber,
)
from .channel import ChannelParams, hit_fraction
from .errors import CapacityError, check_cap
from .modem import MrskConfig, check_moments
from .ratio_stats import (
    GaussPair,
    exact_ratio_pdf,
    gaussian_ratio_params,
    gaussian_ratio_pdf,
    sample_ratio,
    solid_ratio_pdf,
)
from .simulate import SimConfig, child_seed, run_link, run_links

__all__ = ["run_cli", "main", "write_csv", "replay_csv", "ExperimentSpec"]

CSV_HEADER = "param,value,scheme,detector,coding,ber,ci_low,ci_high,trials"
PDF_HEADER = "eta,exact,solid,gaussian,empirical"
OUT_DIR_ENV = "MRSK_OUT_DIR"
# pdf refuses more grid points before any draw: the per-point arrays and CSV
# rows take about 200 bytes per point (sample_ratio bounds --samples)
PDF_GRID_POINTS_CAP = 100_000
# a larger --workers is a typo: the pool never exceeds the frame or core count
WORKERS_CAP = 256
# points a values list or start:step:stop range may hold
VALUES_CAP = 10_000

_SUBCOMMANDS = ("pdf", "ber-analytic", "ber-sim", "ber-particle", "compare", "sweep")
# the spec field each --param name replaces at a sweep or compare point
_PARAM_FIELDS = {"t_b": "t_b", "Q": "Q", "d": "d", "Omega": "omega", "N": "N", "M": "M"}


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved experiment description; the unit of reproducibility."""

    subcommand: str
    d: float = 10.0
    r: float = 5.0
    D: float = 79.4
    L: int = 5
    t_b: float = 0.5
    N: int = 2
    M: int = 1
    omega: float = math.e
    Q: float = 1000.0
    coding: str = "gray"
    detector: str = "ftd"
    mlsd_metric: str = "solid"
    engine: str = "statistical"
    bits: int = 100_000
    dt: float = 1e-3
    seed: int = 0
    param: str = "t_b"
    values: tuple[float, ...] | None = None
    ratio: float = math.e
    grid_points: int = 801
    samples: int = 10_000
    ook_alpha: float = 0.78
    csk_gamma: float = 2.0
    mosk_lambda_frac: float = 0.34
    rtsk_detector: str = "ml"

    def __post_init__(self) -> None:
        # an empty tuple would serialize as "values=", which cannot be read back
        if self.values == ():
            raise ValueError("values must hold at least one value")
        # every string setting is in its domain, read or not: the owning configs check them
        MrskConfig(coding=self.coding, detector=self.detector, mlsd_metric=self.mlsd_metric)
        if not (self.subcommand == "sweep" and self.engine == "analytic"):
            SimConfig(engine=self.engine)
        RtskConfig(detector=self.rtsk_detector)

    def serialize(self) -> str:
        parts = []
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None:
                continue
            if f.name == "values":
                parts.append("values=" + ",".join(repr(float(x)) for x in v))
            else:
                parts.append(f"{f.name}={v!r}" if isinstance(v, str) else f"{f.name}={v}")
        return "# spec: " + " ".join(parts)

    @classmethod
    def deserialize(cls, line: str) -> "ExperimentSpec":
        if not line.startswith("# spec: "):
            raise ValueError("not a spec header line")
        kwargs: dict = {}
        for token in line[len("# spec: ") :].split():
            key, _, raw = token.partition("=")
            if key == "values":
                kwargs[key] = _parse_values(raw)
            elif key not in _SPEC_TYPES:
                raise ValueError(f"unknown spec key {key!r}")
            elif _SPEC_TYPES[key] is str:
                kwargs[key] = raw.strip("'")
            else:
                kwargs[key] = _SPEC_TYPES[key](raw)
        return cls(**kwargs)

    @property
    def channel(self) -> ChannelParams:
        # the one home of the bit time: a symbol carries M (N - 1) bits, so
        # every scheme and point compares at the data rate 1 / t_b
        return ChannelParams(
            d=self.d, r=self.r, D=self.D, Ts=self.M * (self.N - 1) * self.t_b, L=self.L
        )

    @property
    def mrsk(self) -> MrskConfig:
        return MrskConfig(
            N=self.N,
            M=self.M,
            Omega=self.omega,
            Q=self.Q,
            coding=self.coding,
            detector=self.detector,
            mlsd_metric=self.mlsd_metric,
        )

    def sim(self) -> SimConfig:
        return SimConfig(n_bits=self.bits, seed=self.seed, engine=self.engine, particle_dt=self.dt)


# one schema, read off the dataclass: every field but ``values`` (a float
# tuple) is an int, float or str; flags follow the field order, and
# ``subcommand`` is the positional argument
_HINTS = get_type_hints(ExperimentSpec)
_SPEC_TYPES = {f.name: _HINTS[f.name] for f in fields(ExperimentSpec) if f.name != "values"}
_SPEC_FLAGS = [(name, typ) for name, typ in _SPEC_TYPES.items() if name != "subcommand"]


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def _estimate_row(
    param: str, value: float, scheme: str, detector: str, coding: str, est: BerEstimate
) -> str:
    return ",".join(
        [
            param,
            _fmt(value),
            scheme,
            detector,
            coding,
            _fmt(est.ber),
            _fmt(est.ci_low),
            _fmt(est.ci_high),
            str(est.bits),
        ]
    )


def write_csv(text: str, path) -> None:
    """Write rendered CSV text to ``path``.

    IO failures surface as CliError (exit 1) with the path in the message.
    """
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


class CliError(RuntimeError):
    """Usage or I/O failure; maps to exit code 1."""


# ---------------------------------------------------------------------------
# subcommand implementations (spec -> csv text)
# ---------------------------------------------------------------------------


def _run_pdf(spec: ExperimentSpec) -> str:
    for flag, value in (("--samples", spec.samples), ("--grid-points", spec.grid_points)):
        if value < 1:
            raise CliError(f"{flag} must be positive, got {value}")
    check_cap(
        spec.grid_points, "PDF_GRID_POINTS_CAP", PDF_GRID_POINTS_CAP,
        f"--grid-points {spec.grid_points}", "request fewer grid points",
    )
    channel = spec.channel
    p1 = hit_fraction(channel.Ts, channel)
    mu_x, mu_y = spec.Q * spec.ratio * p1, spec.Q * p1
    pair = GaussPair(mu_x, mu_y, math.sqrt(mu_x * (1 - p1)), math.sqrt(mu_y * (1 - p1)))
    beta, lam2 = gaussian_ratio_params(pair.mu_x, pair.sigma_x**2, pair.mu_y, pair.sigma_y**2)
    lam = math.sqrt(lam2)
    edges = np.linspace(beta - 8 * lam, beta + 8 * lam, spec.grid_points + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(0,)))
    counts = sample_ratio(pair, spec.samples, rng, edges=edges).counts
    empirical = counts / np.diff(edges) / counts.sum()  # np.histogram's density
    table = np.column_stack(
        [
            centers,
            exact_ratio_pdf(centers, pair),
            solid_ratio_pdf(centers, pair),
            gaussian_ratio_pdf(centers, pair),
            empirical,
        ]
    )
    # "%.10g" % x is _fmt(x) for every float
    rows = ["%.10g,%.10g,%.10g,%.10g,%.10g" % tuple(row) for row in table.tolist()]
    return "\n".join([spec.serialize(), PDF_HEADER, *rows]) + "\n"


def _render_point(spec: ExperimentSpec, est: BerEstimate) -> str:
    """The CSV of one ratio-scheme estimate at the spec's bit time."""
    row = _estimate_row("t_b", spec.t_b, "mrsk", spec.detector, spec.coding, est)
    return "\n".join([spec.serialize(), CSV_HEADER, row]) + "\n"


def _points(spec: ExperimentSpec) -> list[tuple[float, ExperimentSpec]]:
    """(value, the spec with the swept field set to it), by default at the field's own value."""
    field = _PARAM_FIELDS.get(spec.param)
    if field is None:
        raise CliError(
            f"unknown sweep parameter {spec.param!r}; valid names: {', '.join(_PARAM_FIELDS)}"
        )
    values = spec.values if spec.values is not None else (getattr(spec, field),)
    points = []
    for value in values:
        if field in ("N", "M") and not float(value).is_integer():
            raise CliError(f"{spec.param} must be a whole number, got {value}")
        points.append((value, replace(spec, **{field: _SPEC_TYPES[field](value)})))
    return points


def _analytic(spec: ExperimentSpec) -> BerEstimate:
    """The closed-form estimate of one point, which exists for the fixed-threshold detector only."""
    if spec.detector != "ftd":
        raise CliError("the analytic path covers the fixed-threshold detector only")
    return ftd_ber(spec.mrsk, spec.channel)


def _sweep(spec: ExperimentSpec, workers: int) -> list[tuple[float, BerEstimate]]:
    """(value, estimate) at each point; simulated point i runs with seed child_seed(seed, i)."""
    points = _points(spec)
    if spec.engine != "analytic":
        links = [
            (p.mrsk, p.channel, replace(p.sim(), seed=child_seed(spec.seed, i)))
            for i, (_, p) in enumerate(points)
        ]
        return [(value, est) for (value, _), est in zip(points, run_links(links, workers))]
    return [(value, _analytic(p)) for value, p in points]


def _run_sweep(spec: ExperimentSpec, workers: int) -> str:
    rows = [
        _estimate_row(spec.param, value, "mrsk", spec.detector, spec.coding, est)
        for value, est in _sweep(spec, workers)
    ]
    return "\n".join([spec.serialize(), CSV_HEADER, *rows]) + "\n"


def _run_compare(spec: ExperimentSpec) -> str:
    """Every scheme at each point, in closed form; a baseline's symbol interval is the bit time."""
    if spec.param not in ("t_b", "Q"):
        raise CliError("compare sweeps t_b or Q only")
    points = _points(spec)
    for _, point in points:  # every point's sequence cap and moment range before any work
        check_sequences(point.mrsk, point.L)
        check_moments(point.mrsk)
    lines = [spec.serialize(), CSV_HEADER]
    for value, point in points:
        q, t_b = point.Q, point.t_b
        bit_channel = replace(point.channel, Ts=t_b)
        ook = OokConfig(Q=q, alpha=spec.ook_alpha)
        csk = CskConfig(Q=q, Gamma=spec.csk_gamma)
        mosk = MoskConfig(Q=q, Lambda=spec.mosk_lambda_frac * q)
        rtsk = RtskConfig(Delta=t_b / 2.0, detector=spec.rtsk_detector)
        # the baselines run first, so their history cap refuses before ftd_ber's work
        rows = [
            ("ook", "fixed", "-", ook_ber(ook, bit_channel)),
            ("csk", "fixed", "-", csk_ber(csk, bit_channel)),
            ("mosk", "fixed", "-", mosk_ber(mosk, bit_channel)),
            ("rtsk", spec.rtsk_detector, "-", rtsk_ber(rtsk, bit_channel)),
        ]
        rows.insert(0, ("mrsk", "ftd", spec.coding, _analytic(point).ber))
        for scheme, detector, coding, ber in rows:
            est = BerEstimate.exact(ber)
            lines.append(_estimate_row(spec.param, value, scheme, detector, coding, est))
    return "\n".join(lines) + "\n"


def run_spec(spec: ExperimentSpec, workers: int = 1) -> str:
    """Execute one resolved experiment spec and return the CSV text."""
    if spec.subcommand == "pdf":
        return _run_pdf(spec)
    if spec.subcommand == "ber-analytic":
        return _render_point(spec, _analytic(spec))
    if spec.subcommand in ("ber-sim", "ber-particle"):
        return _render_point(spec, run_link(spec.mrsk, spec.channel, spec.sim(), workers))
    if spec.subcommand == "compare":
        return _run_compare(spec)
    if spec.subcommand == "sweep":
        return _run_sweep(spec, workers)
    raise CliError(f"unknown subcommand {spec.subcommand!r}")


def replay_csv(path) -> str:
    """Regenerate a CSV from its own commented spec header."""
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
    return run_spec(ExperimentSpec.deserialize(first))


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_values(raw: str) -> tuple[float, ...]:
    """The points of a comma list or start:step:stop range, refused past ``VALUES_CAP`` unbuilt."""
    parts = raw.strip().split(":")
    if len(parts) == 1:
        points = parts[0].count(",") + 1
    elif len(parts) == 3:
        start, step, stop = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, step, stop))):
            raise CliError(f"range bounds and step must be finite, got {raw!r}")
        if step <= 0:
            raise CliError("range step must be positive")
        span = (stop - start) / step + 1e-9  # may overflow to +-inf, so it is clipped to count
        points = math.floor(min(max(span, -1.0), VALUES_CAP)) + 1
    else:
        raise CliError(f"range must be start:step:stop, got {raw!r}")
    check_cap(points, "VALUES_CAP", VALUES_CAP, "the values' point count", "give fewer points")
    if len(parts) == 1:
        return tuple(float(p) for p in parts[0].split(","))
    return tuple(start + k * step for k in range(points))


def _load_config(path) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "subcommand" or key not in {*_SPEC_TYPES, "values"}:  # no spec flag reads it
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = value
    return out


@functools.cache
def _build_parser() -> _Parser:
    """The one parser, built on first use; it keeps no state between parses."""
    parser = _Parser(prog="mrsk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        for key, typ in _SPEC_FLAGS:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=typ, default=None)
        p.add_argument("--values", type=str, default=None, help="comma list or start:step:stop")
        p.add_argument("--config", type=str, default=None, help="flat key=value config file")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("-o", "--output", type=str, default=None)
    return parser


def _resolve_spec(args: argparse.Namespace) -> ExperimentSpec:
    kwargs: dict = {"subcommand": args.subcommand}
    file_values: dict[str, str] = _load_config(args.config) if args.config else {}
    for key, typ in _SPEC_FLAGS:
        flag = getattr(args, key)
        if flag is not None:
            kwargs[key] = flag
        elif key in file_values:
            kwargs[key] = typ(file_values[key])
    raw_values = args.values if args.values is not None else file_values.get("values")
    if raw_values is not None:
        kwargs["values"] = _parse_values(raw_values)
    if args.subcommand == "ber-particle":
        kwargs["engine"] = "particle"
    try:
        return ExperimentSpec(**kwargs)
    except (TypeError, ValueError) as exc:
        raise CliError(str(exc)) from exc


def _default_output(subcommand: str) -> Path:
    return Path(os.environ.get(OUT_DIR_ENV, ".")) / f"{subcommand}.csv"


def run_cli(argv=None) -> int:
    """Parse arguments, run the experiment, write the CSV; returns exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.workers < 1:
            raise CliError(f"--workers must be positive, got {args.workers}")
        check_cap(args.workers, "WORKERS_CAP", WORKERS_CAP, f"--workers {args.workers}", "use fewer")
        spec = _resolve_spec(args)
        text = run_spec(spec, workers=args.workers)
        out = Path(args.output) if args.output else _default_output(args.subcommand)
        write_csv(text, out)
    except (CliError, ValueError) as exc:
        print(f"mrsk: error: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"mrsk: refused: {exc}", file=sys.stderr)
        return 2
    print(out)
    return 0


def main() -> None:
    """Console entry point: ``run_cli`` on ``sys.argv``, then exit with its code.

    A signal such as SIGTERM ends the run by its default action; the frame
    pool's workers notice that their parent is gone and exit.
    """
    sys.exit(run_cli())

import contextlib
import dataclasses
import io
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mrsk import analysis, baselines, channel, cli, modem, ratio_stats, simulate
from mrsk.cli import (
    CSV_HEADER,
    ExperimentSpec,
    replay_csv,
    run_cli,
    write_csv,
)
from mrsk.errors import CapacityError
from mrsk.simulate import BerEstimate, child_seed


def run(tmp_path, name, args):
    out = tmp_path / name
    rc = run_cli(args + ["-o", str(out)])
    return rc, out


def refuse_call(*args, **kwargs):
    raise AssertionError("the size check must run before any sampling")


def data_lines(text: str) -> list[str]:
    return [l for l in text.splitlines() if l and not l.startswith("#")]


class TestSweepCommand:
    def test_q_sweep_csv_shape_and_trend(self, tmp_path):
        rc, out = run(
            tmp_path,
            "q.csv",
            ["sweep", "--param", "Q", "--values", "100:100:1000", "--engine", "analytic"],
        )
        assert rc == 0
        lines = data_lines(out.read_text())
        assert lines[0] == CSV_HEADER
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 10
        bers = [float(r[5]) for r in rows]
        assert all(b2 <= b1 for b1, b2 in zip(bers, bers[1:]))

    def test_identical_invocations_byte_identical(self, tmp_path):
        args = ["sweep", "--param", "Q", "--values", "200,800", "--bits", "20000", "--seed", "4"]
        _, a = run(tmp_path, "a.csv", args)
        _, b = run(tmp_path, "b.csv", args)
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        base = ["ber-sim", "--bits", "40000", "--seed", "6"]
        _, a = run(tmp_path, "w1.csv", base + ["--workers", "1"])
        _, b = run(tmp_path, "w3.csv", base + ["--workers", "3"])
        assert a.read_bytes() == b.read_bytes()

    def test_replay_from_header(self, tmp_path):
        for args, name in [
            (["sweep", "--param", "t_b", "--values", "0.5,1.0", "--bits", "15000", "--seed", "2"], "s.csv"),
            (["compare", "--bits", "20000", "--seed", "3"], "c.csv"),
            (["pdf", "--t-b", "1.0", "--grid-points", "101"], "p.csv"),
            (["ber-analytic"], "ba.csv"),
        ]:
            rc, out = run(tmp_path, name, args)
            assert rc == 0
            assert replay_csv(out) == out.read_text()


    def test_default_value_is_the_swept_fields_own(self, tmp_path):
        # without --values a sweep runs one point, at the spec's value of the swept field
        rc, out = run(tmp_path, "q.csv", ["sweep", "--param", "Q", "--engine", "analytic"])
        assert rc == 0
        rows = [l.split(",") for l in data_lines(out.read_text())[1:]]
        _, ref = run(tmp_path, "ba.csv", ["ber-analytic"])
        expected = data_lines(ref.read_text())[1].split(",")
        assert len(rows) == 1 and rows[0][:2] == ["Q", "1000"] and rows[0][5:] == expected[5:]
        for param, value in (("d", "10"), ("Omega", "2.718281828"), ("N", "2")):
            rc, out = run(tmp_path, f"{param}.csv", ["sweep", "--param", param, "--bits", "2000"])
            assert rc == 0, param
            rows = [l.split(",") for l in data_lines(out.read_text())[1:]]
            assert [row[:2] for row in rows] == [[param, value]]


class TestOnePointPath:
    """A sweep point is the spec with one field replaced: each row is a single-point run."""

    @pytest.mark.parametrize(
        "param, flag, value",
        [("t_b", "--t-b", "0.75"), ("Q", "--Q", "400"), ("d", "--d", "11"),
         ("Omega", "--omega", "2"), ("N", "--N", "3"), ("M", "--M", "2")],
    )
    def test_analytic_rows_are_ber_analytic(self, tmp_path, param, flag, value):
        base = ["--t-b", "0.3", "--L", "3"]
        sweep = ["sweep", "--engine", "analytic", "--param", param, "--values", value, *base]
        rc, out = run(tmp_path, "s.csv", sweep)
        assert rc == 0
        (row,) = data_lines(out.read_text())[1:]
        rc, ref = run(tmp_path, "ba.csv", ["ber-analytic", *base, flag, value])
        assert rc == 0
        assert row.split(",")[5] == data_lines(ref.read_text())[1].split(",")[5]

    def test_simulated_rows_are_ber_sim_at_child_seeds(self, tmp_path):
        args = ["--bits", "20000", "--L", "3"]
        sweep = ["sweep", "--param", "Q", "--values", "200,600,1000", "--seed", "9", *args]
        rc, out = run(tmp_path, "s.csv", sweep)
        assert rc == 0
        rows = data_lines(out.read_text())[1:]
        assert len(rows) == 3
        for i, (row, q) in enumerate(zip(rows, ("200", "600", "1000"))):
            ber_sim = ["ber-sim", "--Q", q, "--seed", str(child_seed(9, i)), *args]
            rc, ref = run(tmp_path, f"b{i}.csv", ber_sim)
            assert rc == 0
            assert row.split(",")[5:] == data_lines(ref.read_text())[1].split(",")[5:]


class TestPdfCommand:
    def test_argmax_near_transmitted_ratio(self, tmp_path):
        rc, out = run(tmp_path, "pdf.csv", ["pdf", "--t-b", "1.0"])
        assert rc == 0
        rows = [l.split(",") for l in data_lines(out.read_text())[1:]]
        eta = np.array([float(r[0]) for r in rows])
        for col in (1, 2, 3, 4):  # exact, solid, gaussian, empirical
            dens = np.array([float(r[col]) for r in rows])
            assert abs(eta[np.argmax(dens)] - math.e) / math.e < 0.02

    def test_header(self, tmp_path):
        _, out = run(tmp_path, "pdf.csv", ["pdf", "--grid-points", "31"])
        assert data_lines(out.read_text())[0] == "eta,exact,solid,gaussian,empirical"

    @pytest.mark.parametrize("x", [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300, 1e-300])
    def test_row_format_is_fmt(self, x):
        # pdf formats a whole row with one "%.10g" format string
        assert "%.10g" % x == cli._fmt(x)
        assert "%.10g" % -x == cli._fmt(-x)


class TestCompareCommand:
    def test_all_schemes_present(self, tmp_path):
        rc, out = run(tmp_path, "cmp.csv", ["compare", "--t-b", "1.0", "--bits", "20000"])
        assert rc == 0
        rows = [l.split(",") for l in data_lines(out.read_text())[1:]]
        schemes = [r[2] for r in rows]
        assert schemes == ["mrsk", "ook", "csk", "mosk", "rtsk"]
        by_scheme = {r[2]: float(r[5]) for r in rows}
        assert by_scheme["mrsk"] < by_scheme["mosk"] < max(by_scheme["ook"], by_scheme["csk"])

    def test_rtsk_rows_are_exact(self, tmp_path):
        # every scheme is closed form: trials 0, a collapsed interval, and
        # the rows do not depend on --bits (only the spec line does)
        texts = []
        for bits in ("20000", "400000"):
            rc, out = run(tmp_path, f"cmp{bits}.csv", ["compare", "--t-b", "1.0", "--bits", bits])
            assert rc == 0
            texts.append(out.read_text())
        rows = [l.split(",") for l in data_lines(texts[0])[1:]]
        rtsk = [r for r in rows if r[2] == "rtsk"]
        assert len(rtsk) == 1 and rtsk[0][5] == rtsk[0][6] == rtsk[0][7] and rtsk[0][8] == "0"
        assert data_lines(texts[0])[1:] == data_lines(texts[1])[1:]

    def test_q_sweep_rows(self, tmp_path):
        rc, out = run(
            tmp_path,
            "cmpq.csv",
            ["compare", "--param", "Q", "--values", "500,1000", "--bits", "15000"],
        )
        rows = [l.split(",") for l in data_lines(out.read_text())[1:]]
        assert len(rows) == 10
        assert {r[0] for r in rows} == {"Q"}


class TestWriteCsv:
    def test_single_estimate_two_lines(self, tmp_path):
        spec = ExperimentSpec(subcommand="ber-sim", Q=500.0)
        text = cli._render_point(spec, BerEstimate.from_counts(10, 1000))
        assert len(data_lines(text)) == 2

    def test_roundtrip_ten_significant_digits(self, tmp_path):
        est = BerEstimate.from_counts(1234, 987_654)
        path = tmp_path / "r.csv"
        write_csv(cli._estimate_row("Q", 1000.0 / 3.0, "mrsk", "ftd", "gray", est) + "\n", path)
        row = path.read_text().split(",")
        for emitted, original in [
            (row[1], 1000.0 / 3.0),
            (row[5], est.ber),
            (row[6], est.ci_low),
            (row[7], est.ci_high),
        ]:
            assert float(emitted) == pytest.approx(original, rel=1e-9)
            assert format(float(emitted), ".10g") == emitted

    def test_unwritable_path_exit_one(self, tmp_path, capsys):
        rc = run_cli(["ber-analytic", "-o", str(tmp_path / "no" / "dir" / "x.csv")])
        assert rc == 1
        assert "x.csv" in capsys.readouterr().err


class TestErrors:
    def test_usage_error_exit_one(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "x.csv", ["sweep", "--param", "bogus", "--values", "1,2"])
        assert rc == 1
        assert "valid names" in capsys.readouterr().err

    def test_parser_built_once_reports_to_current_stderr(self, capsys):
        parser = cli._build_parser()
        for _ in range(2):  # each call's usage reaches the stream captured at that call
            assert run_cli(["ber-sim", "--bogus"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage: mrsk ") and "unrecognized arguments: --bogus" in err
        assert cli._build_parser() is parser

    def test_bad_values_string_exit_one(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "x.csv", ["sweep", "--param", "Q", "--values", "1:2"])
        assert rc == 1

    def test_fractional_n_exit_one(self, tmp_path, capsys):
        rc, out = run(tmp_path, "x.csv", ["sweep", "--param", "N", "--values", "2.5", "--bits", "1000"])
        assert rc == 1
        assert "whole number" in capsys.readouterr().err
        assert not out.exists()

    def test_analytic_engine_only_for_sweeps(self, tmp_path, capsys):
        # "analytic" names no simulation engine: ber-sim refuses it rather than simulate
        rc, out = run(tmp_path, "x.csv", ["ber-sim", "--engine", "analytic", "--bits", "1000"])
        assert rc == 1 and not out.exists()
        assert "unknown engine 'analytic'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--engine", "bogus", "--bits", "5"],
            ["pdf", "--coding", "bogus", "--detector", "nope"],
            ["pdf", "--mlsd-metric", "bogus"],
            ["ber-analytic", "--engine", "analytic"],
            ["ber-sim", "--rtsk-detector", "bogus", "--bits", "1000"],
            ["sweep", "--engine", "analytic", "--coding", "bogus"],
        ],
        ids=" ".join,
    )
    def test_unread_string_settings_refused(self, tmp_path, capsys, argv):
        # every string setting is in its domain, whether or not the subcommand reads it
        rc, out = run(tmp_path, "x.csv", argv)
        assert rc == 1 and not out.exists()
        assert capsys.readouterr().err.startswith("mrsk: error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["ber-analytic", "--detector", "mlsd"],
            ["compare", "--detector", "admc"],
            ["sweep", "--engine", "analytic", "--detector", "mlsd"],
        ],
        ids=" ".join,
    )
    def test_analytic_rows_need_ftd(self, tmp_path, capsys, monkeypatch, argv):
        # one closed-form point function, one refusal, before any closed form is evaluated
        monkeypatch.setattr(cli, "ftd_ber", refuse_call)
        rc, out = run(tmp_path, "x.csv", argv)
        assert rc == 1 and not out.exists()
        err = capsys.readouterr().err
        assert err == "mrsk: error: the analytic path covers the fixed-threshold detector only\n"

    def test_capability_refusal_exit_two(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "x.csv", ["ber-analytic", "--N", "4", "--M", "3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "16777216" in err  # the violated cap is named

    def test_trellis_refusal_exit_two(self, tmp_path, capsys, monkeypatch):
        # refused before any frame: no arrivals are drawn
        monkeypatch.setattr(simulate, "_arrivals_statistical", refuse_call)
        argv = ["ber-sim", "--N", "3", "--M", "2", "--L", "6", "--detector", "mlsd", "--bits", "2000"]
        rc, out = run(tmp_path, "x.csv", argv)
        assert rc == 2
        assert "2^20 trellis states" in capsys.readouterr().err
        assert not out.exists()

    def test_admc_without_memory_exit_one_before_any_arrival(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(simulate, "_arrivals_statistical", refuse_call)
        argv = ["ber-sim", "--detector", "admc", "--L", "1", "--bits", "1000"]
        rc, out = run(tmp_path, "x.csv", argv)
        assert rc == 1 and not out.exists()
        assert capsys.readouterr().err == (
            "mrsk: error: memory cancellation needs channel memory L >= 2\n"
        )

    def test_particle_population_refusal_exit_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(simulate, "_arrivals_particle", refuse_call)
        rc, out = run(tmp_path, "x.csv", ["ber-particle", "--Q", "1e6", "--bits", "1000"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "PARTICLE_POPULATION_CAP" in err and str(simulate.PARTICLE_POPULATION_CAP) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["ber-analytic", "--t-b", "nan"],
            ["ber-sim", "--omega", "nan", "--bits", "1000"],
            ["ber-analytic", "--Q", "inf"],
            ["ber-analytic", "--d", "inf"],
            ["ber-analytic", "--D=-inf"],
            ["ber-sim", "--dt", "nan", "--bits", "1000"],
            ["compare", "--csk-gamma", "inf"],
            ["compare", "--mosk-lambda-frac", "nan"],
            ["pdf", "--ratio", "inf"],
        ],
        ids=" ".join,
    )
    def test_non_finite_settings_exit_one(self, argv, tmp_path, capsys):
        rc, out = run(tmp_path, "x.csv", argv)
        assert rc == 1 and not out.exists()
        assert capsys.readouterr().err.startswith("mrsk: error: ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--engine", "analytic", "--values", "1:0:2"], "range step must be positive"),
            (["ber-analytic", "--config", os.path.join(os.devnull, "missing.cfg")], "cannot read config"),
            # (stop - start) / step overflows to -inf: an empty range, not a traceback
            (["sweep", "--engine", "analytic", "--values=1e308:1e-300:-1e308"], "at least one value"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v,
    )
    def test_usage_errors_exit_one(self, argv, message, tmp_path, capsys):
        rc, out = run(tmp_path, "x.csv", argv)
        assert rc == 1 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("mrsk: error: ") and message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["ber-analytic", "--omega", "1e200", "--N", "3"],
            ["ber-sim", "--detector", "mlsd", "--L", "2", "--Q", "1e160", "--bits", "1000"],
            ["ber-analytic", "--N", "3", "--omega", "1e100", "--Q", "1e100"],
            ["compare", "--param", "Q", "--values", "100,1e160"],
        ],
        ids=" ".join,
    )
    def test_overflowing_moments_exit_one(self, argv, tmp_path, capsys, monkeypatch):
        # (Q Omega^(N-1))^2 overflows a float: refused before any table or point's work,
        # where NaN or meaningless BERs came out
        monkeypatch.setattr(simulate, "symbol_quantities", refuse_call)
        monkeypatch.setattr(analysis, "hamming_table", refuse_call)
        monkeypatch.setattr(cli, "ook_ber", refuse_call)
        rc, out = run(tmp_path, "x.csv", argv)
        assert rc == 1 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("mrsk: error: ") and "overflow when squared" in err

    def test_symbol_count_refusal_exit_two(self, tmp_path, capsys, monkeypatch):
        # refused before any per-link table is built
        monkeypatch.setattr(simulate, "symbol_quantities", refuse_call)
        rc, out = run(tmp_path, "x.csv", ["ber-sim", "--N", "40", "--bits", "1000"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "SYMBOL_COUNT_CAP" in err and str(simulate.SYMBOL_COUNT_CAP) in err
        assert not out.exists()

    def test_unknown_flag_exit_one(self, capsys):
        assert run_cli(["sweep", "--frobnicate", "1"]) == 1

    @pytest.mark.parametrize("flag", ["--samples", "--grid-points"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_pdf_sizes_must_be_positive(self, tmp_path, capsys, monkeypatch, flag, value):
        monkeypatch.setattr(cli, "sample_ratio", refuse_call)
        rc, out = run(tmp_path, "x.csv", ["pdf", flag, value])
        assert rc == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, cap", [("--samples", "SAMPLE_DRAWS_CAP"), ("--grid-points", "PDF_GRID_POINTS_CAP")]
    )
    def test_pdf_size_caps_exit_two(self, tmp_path, capsys, monkeypatch, flag, cap):
        # refused before any draw: the grid before the sampler is reached, the samples by
        # the sampler itself, which leaves its generator as it found it
        owner = ratio_stats if cap == "SAMPLE_DRAWS_CAP" else cli
        states = []

        def sampler(pair, n, rng, edges):
            assert flag == "--samples", "the grid is refused before the sampler"
            states.append(rng.bit_generator.state)
            try:
                return ratio_stats.sample_ratio(pair, n, rng, edges)
            finally:
                states.append(rng.bit_generator.state)

        monkeypatch.setattr(cli, "sample_ratio", sampler)
        rc, out = run(tmp_path, "x.csv", ["pdf", flag, str(getattr(owner, cap) + 1)])
        assert rc == 2
        err = capsys.readouterr().err
        assert cap in err and str(getattr(owner, cap)) in err
        assert not out.exists()
        if flag == "--samples":
            assert len(states) == 2 and states[0] == states[1]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_must_be_positive(self, tmp_path, capsys, monkeypatch, workers):
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", refuse_call)
        rc, out = run(tmp_path, "x.csv", ["ber-sim", "--bits", "1000", "--workers", workers])
        assert rc == 1
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_workers_cap_exit_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", refuse_call)
        too_many = str(cli.WORKERS_CAP + 1)
        rc, out = run(tmp_path, "x.csv", ["ber-sim", "--bits", "1000", "--workers", too_many])
        assert rc == 2
        err = capsys.readouterr().err
        assert "WORKERS_CAP" in err and str(cli.WORKERS_CAP) in err
        assert not out.exists()
        # the cap itself is admitted
        rc, _ = run(tmp_path, "y.csv", ["ber-analytic", "--workers", str(cli.WORKERS_CAP)])
        assert rc == 0

    def test_values_range_cap_exit_two(self, tmp_path, capsys):
        # the range is refused before it is expanded
        assert len(cli._parse_values(f"1:1:{cli.VALUES_CAP}")) == cli.VALUES_CAP
        for values in (f"1:1:{cli.VALUES_CAP + 1}", "0:1e-12:1"):
            rc, out = run(tmp_path, "x.csv", ["sweep", "--engine", "analytic", "--values", values])
            assert rc == 2 and not out.exists()
            assert "VALUES_CAP = 10000" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["--values", "config file", "spec line"])
    def test_values_list_cap_on_every_source(self, source, tmp_path, capsys, monkeypatch):
        # VALUES_CAP listed points are admitted from every source that reads values, and one
        # more is refused before any point is built: run_spec, which builds them, is never
        # reached (ranges: test_values_range_cap_exit_two)
        def read(n):
            raw = ",".join(map(str, range(1, n + 1)))
            if source == "spec line":
                (tmp_path / "old.csv").write_text(f"# spec: subcommand='sweep' values={raw}\n")
                cli.replay_csv(tmp_path / "old.csv")
                return
            argv = ["sweep", "--engine", "analytic", "--values", raw]
            if source == "config file":
                (tmp_path / "run.cfg").write_text(f"values={raw}\n")
                argv[-2:] = ["--config", str(tmp_path / "run.cfg")]
            rc = run_cli(argv + ["-o", os.devnull])
            if rc == 2:
                raise CapacityError(capsys.readouterr().err)
            assert rc == 0

        seen = []
        monkeypatch.setattr(cli, "run_spec", lambda spec, workers=1: seen.append(spec) or "")
        read(cli.VALUES_CAP)
        assert len(seen[0].values) == cli.VALUES_CAP
        monkeypatch.setattr(cli, "run_spec", refuse_call)
        with pytest.raises(CapacityError, match="VALUES_CAP = 10000"):
            read(cli.VALUES_CAP + 1)

    def test_admc_work_refusal_exit_two(self, tmp_path, capsys, monkeypatch):
        # S = 2^18 symbols: 4,445 symbols x (S + 1) tabulated decisions pass TRELLIS_WORK_CAP,
        # refused before any arrival
        monkeypatch.setattr(simulate, "_arrivals_statistical", refuse_call)
        argv = ["ber-sim", "--detector", "admc", "--N", "3", "--M", "9", "--bits", "80000"]
        rc, out = run(tmp_path, "x.csv", argv)
        assert rc == 2 and not out.exists()
        assert "TRELLIS_WORK_CAP = 1073741824" in capsys.readouterr().err

    def test_non_finite_range_exit_one(self, tmp_path, capsys):
        # a usage error, before any point count is computed
        for values in ("inf:1:2", "-inf:1:2", "0:inf:1", "0:nan:1", "0:1:inf"):
            rc, out = run(tmp_path, "x.csv", ["sweep", "--engine", "analytic", f"--values={values}"])
            assert rc == 1 and not out.exists()
            assert "must be finite" in capsys.readouterr().err

    def test_pdf_caps_admit_the_largest_recipe(self):
        assert ratio_stats.SAMPLE_DRAWS_CAP >= 1_000_000 and cli.PDF_GRID_POINTS_CAP >= 4001


class TestConfigFile:
    def test_config_keys_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\nQ=500\nt_b=1.0\nseed=9\n")
        rc, out = run(tmp_path, "c.csv", ["ber-analytic", "--config", str(cfg)])
        assert rc == 0
        assert "Q=500.0" in out.read_text().splitlines()[0]
        rc, out2 = run(
            tmp_path, "c2.csv", ["ber-analytic", "--config", str(cfg), "--Q", "800"]
        )
        assert "Q=800.0" in out2.read_text().splitlines()[0]

    def test_malformed_config_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value line\n")
        rc, _ = run(tmp_path, "x.csv", ["ber-analytic", "--config", str(cfg)])
        assert rc == 1

    @pytest.mark.parametrize("key", ["omgea", "workers", "subcommand", "t-b", "output"])
    def test_unknown_config_key_exit_one(self, key, tmp_path, capsys, monkeypatch):
        # a key no spec flag reads is refused, naming the file and the key, before any work
        monkeypatch.setattr(cli, "run_spec", refuse_call)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"Q=500\n{key}=3.0\n")
        rc, out = run(tmp_path, "x.csv", ["ber-analytic", "--config", str(cfg)])
        assert rc == 1 and not out.exists()
        err = capsys.readouterr().err
        assert f"{cfg}:2: unknown config key {key!r}" in err


class TestOutputDir:
    def test_env_var_default_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MRSK_OUT_DIR", str(tmp_path))
        rc = run_cli(["ber-analytic"])
        assert rc == 0
        assert (tmp_path / "ber-analytic.csv").exists()


def child_pids(pid: int) -> list[int]:
    """The pids whose parent is ``pid``, read from /proc."""
    children = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text() if entry.name.isdigit() else ""
        except OSError:  # exited while listed
            continue
        if stat and int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            children.append(int(entry.name))
    return children


def running(pid: int) -> bool:
    """Whether ``pid`` exists and has not exited: an unreaped orphan is a zombie, not running."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@contextlib.contextmanager
def pooled_sweep(out: Path):
    """A ``sweep --workers 2`` CLI run in a subprocess, mid-sweep: (process, its pool workers)."""
    code = (
        "import sys\n"
        "from mrsk import cli, simulate\n"
        "simulate.os.cpu_count = lambda: 2\n"
        "sys.argv = ['mrsk', 'sweep', '--param', 'Q', '--values', '100:100:4000',\n"
        "            '--bits', '1000000', '--workers', '2', '-o', sys.argv[1]]\n"
        "cli.main()\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-c", code, str(out)],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    workers: list[int] = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = child_pids(proc.pid)
        assert len(workers) == 2, "the sweep never started its pool of two"
        time.sleep(0.5)  # the 40-point sweep takes seconds: this is mid-sweep
        yield proc, workers
    finally:
        for pid in workers:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        proc.kill()
        proc.wait()


def all_exit(pids: list[int], seconds: float = 5.0) -> bool:
    """Whether every process of ``pids`` has stopped running within ``seconds``."""
    deadline = time.monotonic() + seconds
    while any(map(running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return not any(map(running, pids))


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="finds pool workers in /proc")
class TestMain:
    def test_sigterm_mid_sweep_shuts_the_pool_down(self, tmp_path):
        # SIGTERM ends the run by its default action: the orphaned workers must exit
        out = tmp_path / "s.csv"
        with pooled_sweep(out) as (proc, workers):
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == -signal.SIGTERM
            assert not out.exists()
            assert all_exit(workers)

    def test_sigkill_mid_sweep_leaves_no_worker(self, tmp_path):
        # SIGKILL runs no shutdown: the orphaned workers must notice and exit
        out = tmp_path / "s.csv"
        with pooled_sweep(out) as (proc, workers):
            proc.kill()
            assert proc.wait(timeout=60) == -signal.SIGKILL
            assert not out.exists()
            assert all_exit(workers)

    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_orphaned_workers_exit_under_every_start_method(self, method):
        # a worker's parent is the pool's maker under fork and spawn, the fork
        # server under forkserver: working workers outlive several checks of
        # their parent, and exit once the maker is killed
        code = (
            "import multiprocessing, sys, time\n"
            "from mrsk import simulate\n"
            "multiprocessing.set_start_method(sys.argv[1])\n"
            "pool, _ = simulate._pool(2)\n"
            "assert list(pool.map(time.sleep, [0.5] * 4)) == [None] * 4\n"
            "print(*pool._processes, flush=True)\n"
            "time.sleep(60)\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-c", code, method],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE,
            text=True,
        )
        workers: list[int] = []
        try:
            workers = [int(pid) for pid in proc.stdout.readline().split()]
            assert len(workers) == 2 and all(map(running, workers))
            proc.kill()
            proc.wait(timeout=60)
            assert all_exit(workers)
        finally:
            for pid in workers:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            proc.kill()
            proc.wait()
            proc.stdout.close()


class TestDocumentedRecipes:
    def test_every_readme_recipe_runs(self, tmp_path):
        # each documented figure-reproduction recipe is one CLI invocation;
        # run them all at reduced trial counts
        import pathlib

        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        recipes = [
            line.strip()
            for line in readme.read_text().splitlines()
            if line.strip().startswith("mrsk ") and " -o " in line and "<" not in line
        ]
        assert len(recipes) >= 12
        for i, recipe in enumerate(recipes):
            args = recipe.split()[1:]
            if "--bits" in args:
                k = args.index("--bits")
                args[k + 1] = str(min(int(args[k + 1]), 20_000))
            if "--dt" in args:  # particle recipes: coarser step, same pipeline
                k = args.index("--dt")
                args[k + 1] = str(max(float(args[k + 1]), 0.02))
            k = args.index("-o")
            args[k + 1] = str(tmp_path / f"recipe_{i}.csv")
            assert run_cli(args) == 0, recipe
            assert (tmp_path / f"recipe_{i}.csv").exists()

    def test_particle_recipes_within_population_cap(self, tmp_path, monkeypatch):
        # every documented and benchmarked particle recipe passes the
        # population and molecule-step refusals (frames stubbed: only the
        # refusals run; the -o that run() appends overrides a recipe's own)
        import pathlib
        import re

        root = pathlib.Path(__file__).resolve().parents[1]
        readme = [
            line.split()[1:]
            for line in (root / "README.md").read_text().splitlines()
            if line.strip().startswith("mrsk ber-particle ")
        ]
        bench = (root / "perfbench" / "workloads.py").read_text()
        benchmarked = [r.split() for r in re.findall(r'"(ber-particle [^"]*)"', bench)]
        assert readme and benchmarked
        monkeypatch.setattr(simulate, "_simulate_frame", lambda *job: (0, 1, 0, 0))
        for args in readme + benchmarked:
            assert run(tmp_path, "x.csv", args)[0] == 0, args


class TestSpecSerialization:
    def test_roundtrip(self):
        spec = ExperimentSpec(
            subcommand="sweep", param="Omega", values=(1.5, 2.1), seed=77, bits=12345
        )
        assert ExperimentSpec.deserialize(spec.serialize()) == spec

    def test_rejects_foreign_lines(self):
        with pytest.raises(ValueError):
            ExperimentSpec.deserialize("param,value,scheme")

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown spec key 'bogus'"):
            ExperimentSpec.deserialize("# spec: subcommand='pdf' bogus=1")

    def test_run_spec_rejects_unknown_subcommands(self):
        with pytest.raises(cli.CliError, match="unknown subcommand 'bogus'"):
            cli.run_spec(ExperimentSpec(subcommand="bogus"))

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            ExperimentSpec(subcommand="sweep", values=())

    def test_flags_follow_the_dataclass(self):
        names = [f.name for f in dataclasses.fields(ExperimentSpec)]
        assert [name for name, _ in cli._SPEC_FLAGS] == [
            n for n in names if n not in ("subcommand", "values")
        ]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_roundtrip_any_spec(self, data):
        # string settings with a domain take one of its values (any word is refused below)
        words = st.text("abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=12)
        draws = {int: st.integers(), float: st.floats(allow_nan=False), str: words}
        kwargs = {
            name: data.draw(st.sampled_from(DOMAINS[name]) if name in DOMAINS else draws[typ])
            for name, typ in cli._SPEC_TYPES.items()
        }
        if kwargs["engine"] == "analytic":
            kwargs["subcommand"] = "sweep"
        kwargs["values"] = data.draw(
            st.none() | st.lists(st.floats(allow_nan=False), min_size=1, max_size=5).map(tuple)
        )
        spec = ExperimentSpec(**kwargs)
        assert ExperimentSpec.deserialize(spec.serialize()) == spec
        name, word = data.draw(st.sampled_from(sorted(DOMAINS))), data.draw(words)
        if word not in DOMAINS[name]:
            with pytest.raises(ValueError, match=re.escape(repr(word))):
                dataclasses.replace(spec, **{name: word})


# Flag pools for the exit-code totality check: (valid values, then
# invalid ones: NaN, negative, zero, unknown and over-cap).  Valid work
# sizes are small enough that any run they allow takes tens of milliseconds.
NAN = "nan"
FLAG_POOLS = {
    "--d": (["10", "12"], ["0", "-1", NAN]),
    "--r": (["5"], ["20", "0", NAN]),
    "--D": (["79.4"], ["0", "-1", NAN]),
    "--L": (["1", "2", "3"], ["0", "-1", "8000", str(channel.MEMORY_CAP + 1), NAN]),
    "--t-b": (["0.5", "0.05"], ["0", "-1", NAN]),
    "--N": (["2", "3"], ["0", "-1", "40", str(10**6)]),
    "--M": (["1", "2"], ["0", "-1", "13", "20"]),
    "--omega": (["2.718281828459045", "1.5"], ["1", "0", NAN]),
    "--Q": (["50", "100"], ["0", "-1", NAN, "1e7"]),
    "--coding": (["gray", "binary"], ["bogus"]),
    "--detector": (["ftd", "admc", "mlsd"], ["bogus"]),
    "--mlsd-metric": (["solid", "gaussian"], ["bogus"]),
    "--engine": (["statistical", "binomial", "particle", "analytic"], ["bogus"]),
    "--bits": (["1000", "2000"], ["999", "0", "-5", str(simulate.TRIALS_CAP + 1), NAN]),
    "--dt": (["0.25"], ["0", "-1", NAN]),
    "--seed": (["0", "7"], ["-1"]),
    "--param": (["t_b", "Q", "d", "Omega", "N", "M"], ["bogus"]),
    "--values": (["0.5", "2", "0.25,0.5", "1:1:2"], [NAN, "", "1:2", "0:1e-9:1", "0:1:inf", "inf:1:2", "x"]),
    "--ratio": (["2.718281828459045", "1"], ["0", "-1", NAN]),
    "--grid-points": (["11"], ["0", "-1", str(cli.PDF_GRID_POINTS_CAP + 1)]),
    "--samples": (["100"], ["0", "-1", str(ratio_stats.SAMPLE_DRAWS_CAP + 1)]),
    "--ook-alpha": (["0.78"], ["0", "-1", NAN]),
    "--csk-gamma": (["2"], ["1", "0", NAN]),
    "--mosk-lambda-frac": (["0.34"], ["0", NAN]),
    "--rtsk-detector": (["ml", "linear"], ["bogus"]),
    "--workers": (["1"], ["0", "-3", str(cli.WORKERS_CAP + 1)]),
}
# the string settings every spec checks, whatever its subcommand reads, and their domains
DOMAINS = {
    name: FLAG_POOLS["--" + name.replace("_", "-")][0]
    for name in ("coding", "detector", "mlsd_metric", "engine", "rtsk_detector")
}
# flags whose defaults are full-size runs, so they are always given
WORK_SIZE_FLAGS = ("--bits", "--samples", "--grid-points", "--dt", "--L", "--Q")


@st.composite
def cli_argv(draw):
    """A subcommand and every flag, up to two of them from their invalid pools."""
    argv = [draw(st.sampled_from(cli._SUBCOMMANDS))]
    spoiled = draw(st.lists(st.sampled_from(list(FLAG_POOLS)), min_size=1, max_size=2, unique=True))
    for flag, (valid, invalid) in FLAG_POOLS.items():
        if flag in WORK_SIZE_FLAGS or draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(valid + invalid if flag in spoiled else valid))]
    return argv


REFUSED_ARGV = [
    ["ber-analytic", "--M", "20", "--L", "1"],
    ["ber-sim", "--M", "16", "--bits", "1000"],
    ["ber-analytic", "--L", "1099511627776"],
    ["ber-sim", "--L", "100000000", "--bits", "1000"],
    ["ber-analytic", "--N", "20", "--L", "8000"],
    ["ber-sim", "--detector", "mlsd", "--N", "3", "--L", "8000", "--bits", "1000"],
    ["ber-sim", "--N", "5", "--detector", "mlsd", "--L", "5", "--bits", "1000"],
    ["ber-particle", "--dt", "1e-9", "--bits", "1000", "--Q", "50"],
    ["ber-particle"],  # 10^5 symbols of 500 steps among up to ~18,600 molecules
    ["ber-sim", "--N", "3", "--M", "2", "--L", "4", "--detector", "mlsd"],  # 25,000 symbols x 2^16 windows
    ["ber-sim", "--engine", "binomial", "--Q", "1e15", "--bits", "1000"],  # rows of ~6·10^9 entries
    ["compare", "--L", "21"],  # 2^21 bit histories: (2^21, 21, 2) float arrays
    ["pdf", "--Q", "1e-30", "--samples", "10"],  # sigma_y ~ 5e-16: every denominator is redrawn
    ["compare", "--M", "2", "--L", "20"],  # 4^20 sequences, refused before the 2^20-history baselines
    ["ber-sim", "--detector", "admc", "--N", "3", "--M", "9"],  # 5,556 symbols x (2^18 + 1) decisions
]
# every size cap, by name, as its module holds it
CAPS = {
    name: value
    for module in (analysis, baselines, channel, cli, modem, ratio_stats, simulate)
    for name, value in vars(module).items()
    if name.endswith("_CAP")
}
REFUSAL = re.compile(r"mrsk: refused: .+ exceeds (\w+_CAP) = (\d+); \S.*\n")


class TestExitCodes:
    @pytest.mark.parametrize("argv", REFUSED_ARGV, ids=" ".join)
    def test_oversized_requests_refused_in_one_line(self, argv, tmp_path, capsys, monkeypatch):
        # refused before any table: neither a symbol or Hamming table nor taps-sized work is built
        monkeypatch.setattr(simulate, "symbol_quantities", refuse_call)
        monkeypatch.setattr(analysis, "hamming_table", refuse_call)
        started = time.perf_counter()
        rc, out = run(tmp_path, "x.csv", argv)
        assert time.perf_counter() - started < 1.0
        assert rc == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("mrsk: refused: ") and err.count("\n") == 1
        # one form for every refusal, naming its cap with the exact value its module holds
        line = REFUSAL.fullmatch(err)
        assert line and int(line[2]) == CAPS[line[1]], err

    def test_oversized_requests_refused_within_two_gigabytes(self):
        # each request in a process of its own whose address space is capped at
        # 2e9 bytes, where a table built before its refusal would fail: one
        # interpreter under the cap imports mrsk once and forks a child per request
        resource = pytest.importorskip("resource")
        limit = 2_000_000 * 1024

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        code = (
            "import io, json, os, sys, time, traceback\n"
            "from mrsk.cli import run_cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    if os.fork() == 0:  # the child reports one line and never returns to the loop\n"
            "        sys.stdout = sys.stderr = out = io.StringIO()\n"
            "        rc, t = None, time.perf_counter()\n"
            "        try:\n"
            "            rc = run_cli(argv)\n"
            "        except Exception:\n"
            "            rc = traceback.format_exc()\n"
            "        finally:\n"
            "            record = [argv, rc, time.perf_counter() - t, out.getvalue()]\n"
            "            print(json.dumps(record), file=sys.__stdout__, flush=True)\n"
            "            os._exit(0)\n"
            "    assert os.wait()[1] == 0\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        requests = [argv + ["-o", os.devnull] for argv in REFUSED_ARGV]
        done = subprocess.run(
            [sys.executable, "-c", code, json.dumps(requests)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            timeout=120, preexec_fn=cap_address_space,
        )
        results = [json.loads(line) for line in done.stdout.splitlines()]
        assert done.returncode == 0 and [r[0] for r in results] == requests, done.stderr
        for argv, rc, seconds, out in results:  # out holds the child's stdout and stderr
            assert rc == 2 and seconds < 1.0, (argv, rc, seconds, out)
            assert out.startswith("mrsk: refused: ") and out.count("\n") == 1

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(argv=cli_argv())
    @example(argv=REFUSED_ARGV[0])
    @example(argv=REFUSED_ARGV[1])
    @example(argv=REFUSED_ARGV[2])
    @example(argv=REFUSED_ARGV[3])
    @example(argv=REFUSED_ARGV[4])
    @example(argv=REFUSED_ARGV[5])
    @example(argv=REFUSED_ARGV[6])
    @example(argv=REFUSED_ARGV[7])
    @example(argv=REFUSED_ARGV[9])
    @example(argv=REFUSED_ARGV[10])
    def test_any_argv_exits_zero_one_or_two(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = run_cli(argv + ["-o", os.devnull])
        assert rc in (0, 1, 2)

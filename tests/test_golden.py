"""Golden CSV bytes: an unchanged spec must give unchanged bytes.

Each recipe is a small CLI run whose whole CSV (spec line included) is
pinned by its SHA-256 digest.  Together they cover the statistical FTD
path at N 2-4 and M 1-3 under both codings (the N = 2, M = 1 runs span
three frames), a degenerate low-Q link, the binomial engine, ADMC, both
MLSD metrics and the particle engine, and the closed-form subcommands:
``pdf`` at a ratio other than one, ``ber-analytic``, ``compare`` over t_b
and over Q, and the analytic sweep.

A change that alters bytes by design re-records the digests with
``PYTHONPATH=src python tests/test_golden.py`` and says why in CHANGES.md.
NumPy's Generator streams may change between NumPy releases, so a
mismatch reports the NumPy version the digests were recorded under.
"""

import hashlib

import numpy as np
import pytest

from mrsk.cli import run_cli

RECORDED_NUMPY = "2.4.6"

_FTD = ["sweep", "--param", "M", "--values", "1,2,3", "--t-b", "0.3", "--L", "3", "--bits", "20000"]

RECIPES = {
    "ftd_n2_gray": _FTD + ["--N", "2", "--coding", "gray", "--seed", "11"],
    "ftd_n2_binary": _FTD + ["--N", "2", "--coding", "binary", "--seed", "12"],
    "ftd_n3_gray": _FTD + ["--N", "3", "--coding", "gray", "--seed", "13"],
    "ftd_n3_binary": _FTD + ["--N", "3", "--coding", "binary", "--seed", "14"],
    "ftd_n4_gray": _FTD + ["--N", "4", "--coding", "gray", "--seed", "15"],
    "ftd_n4_binary": _FTD + ["--N", "4", "--coding", "binary", "--seed", "16"],
    "ftd_degenerate": ["ber-sim", "--Q", "0.5", "--N", "3", "--M", "2", "--bits", "4000", "--seed", "17"],
    "binomial_tb": [
        "sweep", "--param", "t_b", "--values", "0.2,0.35,0.5", "--engine", "binomial",
        "--bits", "10000", "--seed", "18",
    ],
    "admc_n": [
        "sweep", "--param", "N", "--values", "2,3", "--M", "2", "--t-b", "0.05", "--L", "3",
        "--detector", "admc", "--bits", "20000", "--seed", "19",
    ],
    "mlsd_solid": [
        "ber-sim", "--detector", "mlsd", "--N", "3", "--L", "3", "--t-b", "0.06", "--bits", "4000",
        "--coding", "binary", "--seed", "20",
    ],
    "mlsd_gaussian": [
        "ber-sim", "--detector", "mlsd", "--mlsd-metric", "gaussian", "--M", "2", "--L", "2",
        "--t-b", "0.08", "--bits", "4000", "--seed", "21",
    ],
    "particle": [
        "ber-particle", "--bits", "1000", "--Q", "50", "--t-b", "0.5", "--L", "2", "--dt", "0.01",
        "--seed", "22",
    ],
    "pdf_ratio": ["pdf", "--ratio", "2.5", "--grid-points", "201", "--samples", "20000", "--seed", "23"],
    "analytic_n3_m2": ["ber-analytic", "--N", "3", "--M", "2", "--L", "3", "--t-b", "0.4"],
    "compare_tb": ["compare", "--param", "t_b", "--values", "0.25,0.5,1.0,1.5"],
    "compare_q": [
        "compare", "--param", "Q", "--values", "100,400,1000", "--L", "4", "--ook-alpha", "0.2",
        "--csk-gamma", "3", "--mosk-lambda-frac", "0.25",
    ],
    "analytic_sweep": [
        "sweep", "--param", "t_b", "--values", "0.2,0.5,0.8", "--engine", "analytic", "--M", "2",
        "--L", "4",
    ],
}

DIGESTS = {
    "admc_n": "12be925e3c2d6319b6b57f5315d5b2136873a926c72d0d0a7523f9b7f5a1e040",
    "analytic_n3_m2": "cd4d41c00050c43fa61a22fbd06e221ba20f2990b9172fe9d1bd06e388858065",
    "analytic_sweep": "f7476c38543a7653f3d7106af87b536cf320ba1ce9c376f7a804e1dbf8c5c7a2",
    "binomial_tb": "0e6a20f693f29ac7cb065c56107df087d4653f888ee1458fa6e7bc1f3d12edc7",
    "compare_q": "7f4112a5329188d8fc035df999b2bf9fbb9a18769cfec612830f1327595c46a1",
    "compare_tb": "5f2d173495275a9e1dead574149b7b9c299f82b261d8f61b5c604920a7e5a895",
    "ftd_degenerate": "73ba3d453e3d8e202e67a8a84db5fef901f57b2f6ca540ca3f0f1d7988b43ab3",
    "ftd_n2_binary": "89f0e3843319d466079602cda2449cd7c137718f65f634baf94b7323448525cb",
    "ftd_n2_gray": "5da8341cf9dbfe32a26cfa616c19d0748396d890541df1c1098eb34a013584bc",
    "ftd_n3_binary": "43baf89f8d6a86f968632f37cf3b6e282d07948e1a718f698520d92e82ac58d5",
    "ftd_n3_gray": "7257fba3cc2edb3751da2b7a0d0d15c8b93815a338a7ac05a3233799fcf57827",
    "ftd_n4_binary": "1e9e60ade000cabdd9885f4817d17f3396a687ba91f33a8ee8b5c33d032738a6",
    "ftd_n4_gray": "f1f86d3fddd860d2b6af61fab426fb3c472ec44b90c7a37e657f81099fc506bb",
    "mlsd_gaussian": "3af909d42e8e414bf39fa6c3146dd638f57179ddd272b616447f98dfa131bce8",
    "mlsd_solid": "0b957e91fa3787dcf4f2776d7f241959b8722fec3b2676e8e3bf75b11059db0c",
    "particle": "c561d98fb5662f9344d21586d249c6e1782953efa786ae2895dc90635ea4a470",
    "pdf_ratio": "b1b57da63aac2087faace8d9b37f1d812ba371061568215a354033a354f915ba",
}


def csv_digest(argv, path) -> str:
    assert run_cli(argv + ["-o", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_recipe_has_a_digest():
    assert sorted(RECIPES) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_recipe_bytes_unchanged(name, tmp_path):
    got = csv_digest(RECIPES[name], tmp_path / f"{name}.csv")
    assert got == DIGESTS[name], (
        f"{name}: CSV digest {got} differs from the recorded {DIGESTS[name]}; recorded under "
        f"NumPy {RECORDED_NUMPY}, running NumPy {np.__version__} (Generator streams may "
        "change between NumPy releases)"
    )


if __name__ == "__main__":  # print the digests to record
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(RECIPES):
            with contextlib.redirect_stdout(io.StringIO()):
                digest = csv_digest(RECIPES[name], Path(tmp) / "out.csv")
            print(f'    "{name}": "{digest}",')

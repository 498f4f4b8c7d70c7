"""Acceptance gate: one test per release criterion, each printing a
pass/fail line at its stated tolerance.

Magnitude-level claims are pinned to closed forms and cross-engine
oracles; trend and ordering claims run at desk scale with seeded Monte
Carlo and 95% intervals.
"""

import itertools
import math
import time

import numpy as np
from scipy import integrate, special, stats

from mlsd_oracle import ScalarMlsdMetric
from ratio_oracle import ratio_values
from rtsk_oracle import rtsk_error_counts

from mrsk.analysis import ftd_ber
from mrsk.baselines import (
    CskConfig,
    MoskConfig,
    OokConfig,
    RtskConfig,
    csk_ber,
    mosk_ber,
    ook_ber,
)
from mrsk.channel import ChannelParams, cir, hit_fraction
from mrsk import cli
from mrsk.cli import ExperimentSpec, replay_csv, run_cli
from mrsk.modem import (
    MrskConfig,
    _viterbi_symbol_ids,
    thresholds,
)
from mrsk.ratio_stats import (
    GaussPair,
    exact_ratio_pdf,
    solid_ratio_cdf,
    solid_ratio_pdf,
)
from mrsk.simulate import SimConfig, particle_hit_fraction, run_link


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {status} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def fig2_pair(x: float) -> GaussPair:
    ch = ChannelParams(Ts=1.0, L=5)
    p1 = hit_fraction(1.0, ch)
    return GaussPair(
        mu_x=1000.0 * x * p1,
        mu_y=1000.0 * p1,
        sigma_x=math.sqrt(1000.0 * x * p1 * (1 - p1)),
        sigma_y=math.sqrt(1000.0 * p1 * (1 - p1)),
    )


def test_distribution_agreement():
    """Exact vs solid densities within 2% of peak; empirical KS < 0.02.

    Budget: under ten seconds.
    """
    t0 = time.perf_counter()
    worst_sup, worst_ks = 0.0, 0.0
    for x in (math.exp(-1), 1.0, math.e):
        pair = fig2_pair(x)
        r = pair.mu_x / pair.mu_y
        spread = r / (pair.mu_x / (np.sqrt(2.0) * pair.sigma_x))  # r / p
        grid = np.linspace(r - 10 * spread, r + 10 * spread, 4001)
        fe = exact_ratio_pdf(grid, pair)
        fs = solid_ratio_pdf(grid, pair)
        worst_sup = max(worst_sup, float(np.max(np.abs(fe - fs)) / fe.max()))
        values, _ = ratio_values(pair, 10_000, np.random.default_rng(17))
        moments = pair.mu_x, pair.sigma_x**2, pair.mu_y, pair.sigma_y**2
        ks = stats.kstest(values, lambda t: solid_ratio_cdf(t, *moments)).statistic
        worst_ks = max(worst_ks, float(ks))
    elapsed = time.perf_counter() - t0
    report(
        "distribution-agreement",
        worst_sup < 0.02 and worst_ks < 0.02 and elapsed < 10.0,
        f"sup-norm/peak {worst_sup:.2e}, KS {worst_ks:.4f}, {elapsed:.1f}s",
    )


def test_cdf_correctness():
    """CDF differences equal density quadrature to 1e-6; the erf argument
    without the ratio normalization fails the same oracle for r != 1."""

    def printed_cdf(eta, p, q, r):
        g = (p / r) * (eta - 1.0) / np.sqrt(1.0 + (p / q) ** 2 * (eta / r) ** 2)
        return 0.5 * (1.0 + special.erf(g) / special.erf(q))

    rng = np.random.default_rng(42)
    worst = 0.0
    worst_printed = 0.0
    for _ in range(100):
        p, q, r = rng.uniform(2, 40), rng.uniform(2, 40), rng.uniform(math.exp(-1), math.e)
        # the pair of solid triple (p, q, r) at mu_y = 1
        sigma_x, sigma_y = r / (math.sqrt(2.0) * p), 1.0 / (math.sqrt(2.0) * q)
        pair, moments = GaussPair(r, 1.0, sigma_x, sigma_y), (r, sigma_x**2, 1.0, sigma_y**2)
        width = 6.0 * r / p
        a = rng.uniform(r - 4 * width, r + 3 * width)
        b = a + rng.uniform(0.1, 2.0) * width
        quad_val, _ = integrate.quad(lambda t: solid_ratio_pdf(t, pair), a, b, limit=200)
        cdf_diff = solid_ratio_cdf(b, *moments) - solid_ratio_cdf(a, *moments)
        worst = max(worst, abs(cdf_diff - quad_val))
        if abs(r - 1.0) > 0.2:
            worst_printed = max(
                worst_printed, abs((printed_cdf(b, p, q, r) - printed_cdf(a, p, q, r)) - quad_val)
            )
    report(
        "cdf-correctness",
        worst < 1e-6 and worst_printed > 1e-3,
        f"corrected max err {worst:.2e}; unnormalized variant max err {worst_printed:.2e}",
    )


def test_threshold_values():
    """thresholds(M=3) = exp(-1 + (2i-1)/7) to 1e-15; single threshold 1."""
    e3 = thresholds(MrskConfig(M=3))
    expected = np.exp(-1.0 + (2.0 * np.arange(1, 8) - 1.0) / 7.0)
    err = float(np.max(np.abs(e3 - expected)))
    exact_one = thresholds(MrskConfig(M=1))[0] == 1.0
    report("threshold-values", err < 1e-15 and exact_one, f"max err {err:.2e}")


def test_analytic_vs_monte_carlo():
    """Closed-form FTD BER within 3 binomial SE of a 1e6-bit run.

    Budget: under two minutes.
    """
    t0 = time.perf_counter()
    cfg = MrskConfig(N=2, M=1, Q=1000.0)
    ch = ChannelParams(Ts=0.5, L=5)
    analytic = ftd_ber(cfg, ch).ber
    est = run_link(cfg, ch, SimConfig(n_bits=1_000_000, seed=7))
    se = math.sqrt(analytic * (1 - analytic) / est.bits)
    dev = abs(est.ber - analytic) / se
    elapsed = time.perf_counter() - t0
    report(
        "analytic-vs-monte-carlo",
        dev < 3.0 and elapsed < 120.0,
        f"analytic {analytic:.5f}, simulated {est.ber:.5f}, {dev:.2f} SE, {elapsed:.1f}s",
    )


def test_particle_ground_truth():
    """Absorbed fraction of 1e5 molecules at t = 1 s within 2% of erfc.

    Budget: under one minute.
    """
    t0 = time.perf_counter()
    ch = ChannelParams(Ts=1.0, L=5)
    target = hit_fraction(1.0, ch)
    frac = particle_hit_fraction(100_000, 1.0, ch, 1e-3, np.random.default_rng(42))
    rel = abs(frac - target) / target
    elapsed = time.perf_counter() - t0
    report(
        "particle-ground-truth",
        rel < 0.02 and elapsed < 60.0,
        f"particle {frac:.5f} vs erfc {target:.5f} ({rel * 100:.2f}%), {elapsed:.1f}s",
    )


def monotone_within_ci(estimates, direction: str) -> bool:
    for a, b in zip(estimates, estimates[1:]):
        overlap = a.ci_low <= b.ci_high and b.ci_low <= a.ci_high
        ordered = b.ber <= a.ber if direction == "down" else b.ber >= a.ber
        if not (ordered or overlap):
            return False
    return True


def sweep(param, values):
    """The estimates of a seed-1, 10^5-bit ``mrsk sweep`` of ``param`` at N=2, M=1, t_b=0.5, L=5."""
    spec = ExperimentSpec(subcommand="sweep", param=param, values=tuple(values), bits=100_000, seed=1)
    return [est for _, est in cli._sweep(spec, 1)]


def test_trend_suite():
    """BER trends: down in t_b and Q, up in d, interior minimum in Omega."""
    ch = ChannelParams(Ts=0.5, L=5)

    tb_curve = sweep("t_b", [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0])
    q_curve = sweep("Q", range(100, 1001, 100))
    d_curve = sweep("d", [8.0, 9.0, 10.0, 11.0, 12.0])
    ok_tb = monotone_within_ci(tb_curve, "down")
    ok_q = monotone_within_ci(q_curve, "down")
    ok_d = monotone_within_ci(d_curve, "up")

    # the analytic curve pins the minimum location; the simulated curve
    # must stay valley-consistent around it within its intervals
    omegas = [1.5, 1.8, 2.1, 2.4, 2.7, 3.0]
    om_exact = [
        ftd_ber(MrskConfig(Omega=om), ch).ber for om in omegas
    ]
    om_star = omegas[int(np.argmin(om_exact))]
    om_curve = sweep("Omega", omegas)
    k = int(np.argmin(om_exact))
    ok_om = (
        1.8 <= om_star <= 2.4
        and monotone_within_ci(om_curve[k:], "up")
        and monotone_within_ci(om_curve[: k + 1], "down")
        and om_curve[-1].ci_low > om_curve[k].ci_high
    )
    report(
        "trend-suite",
        ok_tb and ok_q and ok_d and ok_om,
        f"t_b {ok_tb}, Q {ok_q}, d {ok_d}, Omega min at {om_star}",
    )


def test_high_rate_regime():
    """At t_b = 0.05 s with memory cancellation the BER minimum sits at M=2
    (short-memory channel, L = 3)."""
    t_b = 0.05
    estimates = {}
    for M in (1, 2, 3):
        ch = ChannelParams(Ts=M * t_b, L=3)
        est = run_link(
            MrskConfig(M=M, detector="admc"), ch, SimConfig(n_bits=400_000, seed=3)
        )
        estimates[M] = est
    ok = (
        estimates[2].ci_high < estimates[1].ci_low
        and estimates[2].ci_high < estimates[3].ci_low
    )
    report(
        "high-rate-regime",
        ok,
        "BER(M) = " + ", ".join(f"{m}: {e.ber:.4f}" for m, e in estimates.items()),
    )


def test_detector_ordering():
    """ADMC <= FTD at t_b = 0.05; MLSD <= FTD; trellis == exhaustive."""
    ch_fast = ChannelParams(Ts=0.05, L=5)
    sim = SimConfig(n_bits=100_000, seed=11)
    ftd_fast = run_link(MrskConfig(detector="ftd"), ch_fast, sim)
    admc_fast = run_link(MrskConfig(detector="admc"), ch_fast, sim)
    ok_admc = admc_fast.ber <= ftd_fast.ber or admc_fast.ci_low <= ftd_fast.ci_high

    ch3 = ChannelParams(Ts=0.5, L=3)
    sim3 = SimConfig(n_bits=100_000, seed=21)
    mlsd = run_link(MrskConfig(detector="mlsd"), ch3, sim3)
    ftd3 = run_link(MrskConfig(detector="ftd"), ch3, sim3)
    ok_mlsd = mlsd.ber <= ftd3.ber

    cfg = MrskConfig(detector="mlsd")
    taps = cir(ch3)
    rng = np.random.default_rng(5)
    metric = ScalarMlsdMetric(cfg, taps)

    def exhaustive(z):
        best, best_seq = -np.inf, None
        for seq in itertools.product(range(2), repeat=z.shape[0]):
            score = 0.0
            for k in range(z.shape[0]):
                score = score + metric(tuple(seq[max(0, k - 2) : k + 1]), z[k])
            if score > best:
                best, best_seq = score, list(seq)
        return best_seq

    agree = all(
        _viterbi_symbol_ids(z, cfg, taps) == exhaustive(z)
        for z in (np.exp(rng.normal(0, 1.2, size=(6, 1))) for _ in range(100))
    )
    report(
        "detector-ordering",
        ok_admc and ok_mlsd and agree,
        f"ADMC {admc_fast.ber:.4f} vs FTD {ftd_fast.ber:.4f}; "
        f"MLSD {mlsd.ber:.2e} vs FTD {ftd3.ber:.2e}; trellis==exhaustive {agree}",
    )


def test_modulation_comparison():
    """Scheme ordering at t_b = 1 s, Q = 1000; RTSK flat across Q."""
    ch = ChannelParams(Ts=1.0, L=5)
    t_b = 1.0
    mrsk = ftd_ber(MrskConfig(), ch).ber
    # each baseline sends one bit per symbol: ch's Ts is the bit time
    mosk = mosk_ber(MoskConfig(), ch)
    ook = ook_ber(OokConfig(), ch)
    csk = csk_ber(CskConfig(), ch)
    ok_order = mrsk < mosk < max(ook, csk)

    qs = np.arange(100.0, 1001.0, 100.0)
    bers = []
    for i, _ in enumerate(qs):
        errors, n = rtsk_error_counts(
            RtskConfig(Delta=t_b / 2), ch, t_b, n_symbols=100_000, seed=100 + i
        )
        bers.append(errors / n)
    fit = stats.linregress(qs, bers)
    ok_flat = abs(fit.slope) < 2.0 * fit.stderr + 1e-12
    report(
        "modulation-comparison",
        ok_order and ok_flat,
        f"mrsk {mrsk:.2e} < mosk {mosk:.2e} < max(ook {ook:.2e}, csk {csk:.2e}); "
        f"rtsk slope {fit.slope:.2e} (se {fit.stderr:.2e})",
    )


def test_coding_property():
    """Gray coding never exceeds the binary-coded BER for M in {2, 3}."""
    ok = True
    details = []
    for M in (2, 3):
        ch = ChannelParams(Ts=M * 0.5, L=5)
        gray = ftd_ber(MrskConfig(M=M, coding="gray"), ch).ber
        binary = ftd_ber(MrskConfig(M=M, coding="binary"), ch).ber
        ok = ok and gray <= binary
        details.append(f"M={M}: gray {gray:.4e} <= binary {binary:.4e}")
    report("coding-property", ok, "; ".join(details))


def test_determinism(tmp_path):
    """Every CSV regenerates byte-identically from its own header,
    independent of worker count."""
    outputs = {}
    for name, args in {
        "sweep": ["sweep", "--param", "Q", "--values", "200,600,1000", "--bits", "20000", "--seed", "9"],
        "sim": ["ber-sim", "--bits", "30000", "--seed", "5"],
        "compare": ["compare", "--bits", "20000", "--seed", "6"],
        "pdf": ["pdf", "--grid-points", "201", "--seed", "8"],
    }.items():
        path = tmp_path / f"{name}.csv"
        assert run_cli(args + ["-o", str(path)]) == 0
        outputs[name] = path
    ok_replay = all(replay_csv(p) == p.read_text() for p in outputs.values())

    w1 = tmp_path / "w1.csv"
    w3 = tmp_path / "w3.csv"
    run_cli(["ber-sim", "--bits", "40000", "--seed", "5", "--workers", "1", "-o", str(w1)])
    run_cli(["ber-sim", "--bits", "40000", "--seed", "5", "--workers", "3", "-o", str(w3)])
    ok_workers = w1.read_bytes() == w3.read_bytes()
    report("determinism", ok_replay and ok_workers, f"replay {ok_replay}, workers {ok_workers}")

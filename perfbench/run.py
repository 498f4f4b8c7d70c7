"""mrsk benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload monte_carlo --seed 1 --seconds 55 --trace 0

Run from anywhere inside a checkout that holds ``src/mrsk`` next to
``perfbench/``.  With ``--trace 0`` it times set-up in fresh processes,
then runs the workload untraced in a fresh process and prints the
end-to-end metrics; with ``--trace 1`` it prints the per-layer metrics of
a traced run.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
report, with the environment record, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
SETUP_CODE = (
    "import mrsk\n"
    "from mrsk.analysis import ftd_ber\n"
    "from mrsk.channel import ChannelParams\n"
    "from mrsk.modem import MrskConfig\n"
    "ftd_ber(MrskConfig(), ChannelParams(L=1))\n"
    "print(mrsk.__file__)\n"
)
# the whole command must end within 180 s
DEADLINE_S = 170.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in BLAS_THREADS:
        env[name] = "1"
    return env


def require_sources(mrsk_file: str) -> None:
    if not Path(mrsk_file).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: imported mrsk from {mrsk_file}, not from {ROOT / 'src'}")


def time_setup(env: dict[str, str]) -> float:
    """Seconds from a fresh interpreter to ``import mrsk`` plus one small ftd_ber."""
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    seconds = time.perf_counter() - t0
    if done.returncode != 0:
        sys.exit(f"perfbench: set-up failed:\n{done.stderr}")
    require_sources(done.stdout.strip())
    return seconds


def run_workload(args, env: dict[str, str], out: Path, timeout: float) -> dict:
    """Run measure.py in its own process group; kill the group on timeout."""
    cmd = [
        sys.executable,
        str(HERE / "measure.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--out={out}",
    ]
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"perfbench: workload {args.workload} did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not stdout.strip():
        sys.exit(f"perfbench: workload process exited with code {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    require_sources(result["mrsk_file"])
    return result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, env: dict[str, str], workers: dict, load_before, load_after) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
        "seed": args.seed,
        "workers": workers,
        **{name: env[name] for name in BLAS_THREADS},
    }


def seed_commit_diff(workload: str, seed: int, digests: dict[str, str]) -> str:
    """Which CSVs differ from the digests recorded at the seed commit (information only)."""
    recorded = json.loads((HERE / "seed_digests.json").read_text()).get(workload, {}).get(str(seed))
    if recorded is None:
        return f"no digests recorded for seed {seed}"
    differ = sorted(name for name, digest in digests.items() if recorded.get(name) != digest)
    if not differ:
        return f"all {len(digests)} outputs match"
    return "differ: " + ", ".join(differ)


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    if not (ROOT / "src" / "mrsk" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mrsk sources at {ROOT / 'src' / 'mrsk'}")
    declared = bench["per_layer" if args.trace else "end_to_end"]
    env = child_env()
    out = HERE / "out"
    out.mkdir(exist_ok=True)

    load_before = os.getloadavg()
    setup = [] if args.trace else [time_setup(env) for _ in range(SETUP_REPEATS)]
    result = run_workload(args, env, out, DEADLINE_S - (time.perf_counter() - start))
    load_after = os.getloadavg()

    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setup)
        values["ok_frac"] = 1.0 - result["failed"] / result["attempted"]
    missing = {m["name"] for m in declared} ^ set(values)
    if missing:
        sys.exit(f"perfbench: metrics and BENCHMARK.json disagree on {sorted(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "batches": result["batches"],
        "setup_samples_s": setup,
        "samples_s": result.get("samples_s", {}),
        "throughputs": result.get("throughputs", {}),
        "environment": environment(args, env, result["workers"], load_before, load_after),
        "seed_commit_digests": seed_commit_diff(args.workload, args.seed, result["digests"]),
        "digests": result["digests"],
        "problems": result["problems"],
        "counters": result.get("counters", {}),
        "metrics": metrics,
    }
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n"
    )

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['batches']} batch(es), {result['attempted']} experiments, {result['failed']} failed")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for name, value in report["throughputs"].items():
        if value and not args.trace:
            print(f"  {name:40s} {value:.6g} (information, from the batch medians)")
    if args.trace:
        label = "tracing overhead (traced / untraced wall)"
        if result["workers"]["workload"] != 1:
            label += f", includes the {result['workers']['workload']}->1 worker change"
        print(f"{label}: {values['trace.overhead_ratio']:.3f}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    print(f"seed-commit digests: {report['seed_commit_digests']}")
    print("environment: " + json.dumps(report["environment"]))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()

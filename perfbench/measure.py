"""Workload process: runs one workload and prints its figures as one JSON line.

``run.py`` starts this in a fresh interpreter with ``src/`` on the path
and the BLAS thread counts set to 1.  Untraced (``--trace 0``) it repeats
the workload's batch for ``--seconds``.  Traced (``--trace 1``) it runs
one untraced batch at the experiments' own worker counts and one traced
batch at one worker, and compares their CSV digests.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import mrsk

from workloads import (
    KIND_METRIC,
    Record,
    WORKLOADS,
    check_record,
    kind_rate,
    references_for,
    run_batch,
)
from tracing import Tracer


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


class Tally:
    """Experiments attempted, those that failed, and why."""

    def __init__(self, references: dict[str, float]) -> None:
        self.references = references
        self.attempted = 0
        self.failed: set[int] = set()
        self.problems: list[str] = []

    def _fail(self, rec, message: str) -> None:
        rec.ok = False
        self.failed.add(id(rec))
        self.problems.append(f"{rec.exp.name}: {message}")

    def check(self, records, label: str) -> None:
        for rec in records:
            self.attempted += 1
            problem = check_record(rec, self.references)
            if problem is None:
                rec.ok = True
            else:
                self._fail(rec, f"{label}: {problem}")

    def same_bytes(self, first, other, label: str) -> None:
        """Fail each output of ``other`` whose bytes differ from ``first``'s."""
        for a, b in zip(first, other):
            if a.digest is not None and b.digest is not None and a.digest != b.digest:
                self._fail(b, f"{label}: output bytes differ")


def typical(batches: list[list[Record]]) -> list[Record]:
    """Each experiment once, with its median time over the batches where it passed its checks."""
    out = []
    for reps in zip(*batches):
        ok = [r for r in reps if r.ok]
        if ok:
            out.append(replace(ok[0], seconds=statistics.median(r.seconds for r in ok)))
    return out


def pool_size(workload: str) -> int:
    return max(exp.workers for exp in WORKLOADS[workload])


def throughputs(records: list[Record]) -> dict[str, float]:
    """Work per second of each kind over checked records; 0 for a kind the workload lacks."""
    return {name: kind_rate(records, kind) for kind, name in KIND_METRIC.items()}


def untraced(workload: str, seed: int, seconds: float, out_dir: Path) -> dict:
    tally = Tally(references_for(WORKLOADS[workload]))

    # Batches (the workload's experiments back to back, in a fixed order)
    # repeat until the next one would end past the window, so every
    # experiment is sampled over the whole window; the first batch only
    # warms up when there are more.
    batches = []
    start = time.perf_counter()
    while True:
        batches.append(run_batch(workload, seed, out_dir))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(batches) > seconds:
            break
    rss = peak_rss_mb()

    for i, records in enumerate(batches):
        tally.check(records, f"batch {i}")
        tally.same_bytes(batches[0], records, f"batch {i} replay")

    # The machine's speed drifts over seconds, so each experiment counts
    # with its median time over the timed batches, and wall_s is the sum
    # of those medians.
    timed = batches[1:] or batches
    medians = typical(timed)
    return {
        "metrics": {"wall_s": sum(r.seconds for r in medians), "peak_rss_mb": rss},
        "tally": tally,
        "batches": len(batches),
        "digests": {r.exp.name: r.digest for r in batches[0]},
        "workers": {"workload": pool_size(workload)},
        "samples_s": {recs[0].exp.name: [r.seconds for r in recs] for recs in zip(*timed)},
        "throughputs": throughputs(medians),
    }


def traced(workload: str, seed: int, out_dir: Path) -> dict:
    workers = pool_size(workload)
    tally = Tally(references_for(WORKLOADS[workload]))

    t0 = time.perf_counter()
    plain = run_batch(workload, seed, out_dir)
    plain_s = time.perf_counter() - t0
    tracer = Tracer()
    with tracer:
        t0 = time.perf_counter()
        spanned = run_batch(workload, seed, out_dir, workers=1)
        traced_s = time.perf_counter() - t0
    tracer.write_spans(out_dir.parent / f"{workload}.spans.jsonl")

    tally.check(plain, f"untraced (up to {workers} workers)")
    tally.check(spanned, "traced (1 worker)")
    tally.same_bytes(plain, spanned, f"untraced (up to {workers} workers) vs 1-worker traced")

    metrics = tracer.per_layer()
    metrics.update(throughputs(plain))
    metrics["trace.untraced_wall_s"] = plain_s
    metrics["trace.traced_wall_s"] = traced_s
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    metrics["trace.untraced_workers"] = float(workers)
    metrics["trace.traced_workers"] = 1.0
    return {
        "metrics": metrics,
        "tally": tally,
        "batches": 1,
        "digests": {r.exp.name: r.digest for r in plain},
        "workers": {"workload": workers, "traced": 1},
        "counters": dict(tracer.counters),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out))
    try:
        if args.trace:
            result = traced(args.workload, args.seed, scratch)
        else:
            result = untraced(args.workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    tally = result.pop("tally")
    result.update(
        attempted=tally.attempted,
        failed=len(tally.failed),
        problems=tally.problems,
        mrsk_file=mrsk.__file__,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())

"""Record the SHA-256 of every workload output for a range of seeds.

    python3 perfbench/record_digests.py 0 15

Writes ``perfbench/seed_digests.json``, which ``run.py`` compares each
run's outputs against, as information.  Run it only on the commit whose
outputs should be the reference; it takes about 25 s per seed on two
cores.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, run_batch  # noqa: E402


def main() -> None:
    first, last = (int(v) for v in sys.argv[1:3])
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="digests-", dir=out))
    digests: dict = {}
    try:
        for workload in WORKLOADS:
            for seed in range(first, last + 1):
                records = run_batch(workload, seed, scratch)
                failed = [r.exp.name for r in records if r.error is not None]
                if failed:
                    sys.exit(f"{workload} seed {seed}: {failed} failed")
                digests.setdefault(workload, {})[str(seed)] = {r.exp.name: r.digest for r in records}
                print(workload, seed, flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    (HERE / "seed_digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

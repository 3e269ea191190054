"""Checks of the benchmark itself.

    python3 bench/selfcheck.py

1. Two traced runs of each workload with the same seed must give exactly
   the same per-layer counts (calls, tier counts, term counts).
2. The construction answers of the ``zero_test`` corpus are confirmed with
   ``sympy.simplify`` on a seeded subsample of ``PER_KIND`` items of each
   kind, for each of ``SEEDS``.  sympy is not a
   dependency of haantjes; this part is skipped when it cannot be imported.

Exits 1 when a check fails.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import corpus
import workloads

HERE = pathlib.Path(__file__).resolve().parent
SEEDS = (1, 2, 3)
PER_KIND = 2


def traced_counts(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def main() -> int:
    failures = 0

    for workload in workloads.WORKLOADS:
        first, second = (traced_counts(workload, SEEDS[0]) for _ in range(2))
        differ = sorted(k for k in first if first[k] != second.get(k))
        print(f"trace counts repeat on {workload}: {'no, ' + str(differ) if differ else 'yes'}"
              f" ({len(first)} counts)")
        failures += bool(differ)

    try:
        for seed in SEEDS:
            items = corpus.build(seed, workloads.ZeroTest.PER_KIND)
            bad = corpus.sympy_disagreements(items, seed, PER_KIND)
            print(f"sympy confirms zero_test seed {seed}: "
                  f"{'no, ' + str(bad) if bad else 'yes'}"
                  f" ({PER_KIND} items of each of {len(corpus.KINDS)} kinds)")
            failures += bool(bad)
    except ImportError:
        print("sympy not importable: corpus cross-check skipped")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

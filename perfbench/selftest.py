"""Self-test: the benchmark's exact counts repeat between two runs.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py [--seed N]

Runs the traced benchmark twice per workload with the same seed and
`--seconds 0`, so each run decides exactly the batches whose counts are
reported, and fails unless every count below is identical.  It also
fails if a run fails its own verdict gate or trace check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

EXACT = ("groebner.pairs", "groebner.zero_reductions", "matrices.terms_out",
         "poly.render_chars", "groebner.buchberger_calls", "matrices.calls",
         "groebner.radical_calls", "groebner.basis_len_max")


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run failed with exit code "
                         f"{proc.returncode}\n{proc.stderr}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in EXACT}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    ok = True
    for workload in workloads.WORKLOADS:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        for name in EXACT:
            same = first[name] == second[name]
            ok &= same
            print(f"{workload:13s} {name:26s} {first[name]:>9} {second[name]:>9}"
                  f"  {'ok' if same else 'DIFFERS'}")
    print("exact counts repeat" if ok else "exact counts differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark several times and summarise the end-to-end metrics.

Usage (from the root of a checkout):

    python3 bench/repeat.py --workload suites --seeds 1-10 [--seconds 40]

Each run is a fresh ``bench/run.py --trace 0`` process with the next seed.
Prints one line per run, then per metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median.  That spread is
what the bounds in ``BENCHMARK.json`` are compared with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--seconds", type=int,
                    default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    args = ap.parse_args(argv)
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True, cwd=HERE.parent,
        ).stdout
        res = json.loads(out.splitlines()[-1])
        shares.add((res["failed"], res["attempted"]))
        row = {k: v["value"] for k, v in res["metrics"].items()}
        for k, v in row.items():
            values.setdefault(k, []).append(v)
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} "
              + " ".join(f"{k}={v:.4f}" for k, v in row.items()), flush=True)
    print(f"{args.workload}: {len(args.seeds)} runs, failed/attempted {sorted(shares)}")
    for k, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        print(f"  {k}: median {statistics.median(vs):.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
              f"spread {(q3 - q1) / statistics.median(vs):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end ladder record: analyze_algebra on each rung in a fresh process.

Runs the ladder A4/GF(4); A5 over GF(2), GF(3), GF(4), GF(5), GF(9);
S4/GF(3); S5 over GF(2), GF(3); PSL(2,7) over GF(2), GF(7), then A6/GF(4)
and S6/GF(2), all at seed 0.  Each run is its own interpreter, so imports,
caches and the peak RSS start afresh.  The group table is built and timed
before analyze_algebra, outside its wall.  A rung runs five times; the
record keeps the median wall with that run's stage split (the report's
`timings`), the largest peak RSS and the report's sha256, so two
checkouts give a before/after pair:

    python scripts/ladder_bench.py --label before --src OTHER_CHECKOUT/src --out BENCH_<n>.json
    python scripts/ladder_bench.py --label after --out BENCH_<n>.json

--src picks the modrep to import (default: this checkout's src); --out, which
has no default, names the record to update.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUNGS = [  # (name, degree, generators, char, field degree)
    ("A4/GF(4)", 5, ["(1,2,3)", "(1,2)(3,4)"], 2, 2),
    ("A5/GF(2)", 5, ["(1,2,3,4,5)", "(1,2,3)"], 2, 1),
    ("A5/GF(3)", 5, ["(1,2,3,4,5)", "(1,2,3)"], 3, 1),
    ("A5/GF(4)", 5, ["(1,2,3,4,5)", "(1,2,3)"], 2, 2),
    ("A5/GF(5)", 5, ["(1,2,3,4,5)", "(1,2,3)"], 5, 1),
    ("A5/GF(9)", 5, ["(1,2,3,4,5)", "(1,2,3)"], 3, 2),
    ("S4/GF(3)", 4, ["(1,2,3,4)", "(1,2)"], 3, 1),
    ("S5/GF(2)", 5, ["(1,2,3,4,5)", "(1,2)"], 2, 1),
    ("S5/GF(3)", 5, ["(1,2,3,4,5)", "(1,2)"], 3, 1),
    ("PSL(2,7)/GF(2)", 7, ["(1,2,3,4,5,6,7)", "(1,2)(3,6)"], 2, 1),
    ("PSL(2,7)/GF(7)", 7, ["(1,2,3,4,5,6,7)", "(1,2)(3,6)"], 7, 1),
    ("A6/GF(4)", 6, ["(1,2,3)", "(2,3,4,5,6)"], 2, 2),
    ("S6/GF(2)", 6, ["(1,2,3,4,5,6)", "(1,2)"], 2, 1),
]
REPEATS = 5

# one rung in a fresh interpreter: argv = [src, json [degree, generators, char, field degree]]
WORKER = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from modrep import field_make
from modrep.permgroup import group_from_json
from modrep.report import analyze_algebra
degree, gens, p, k = json.loads(sys.argv[2])
t0 = time.perf_counter()
group = group_from_json({"degree": degree, "generators": gens})
table_s = time.perf_counter() - t0
field = field_make(p, k)
t0 = time.perf_counter()
an = analyze_algebra(group, field, 0)
wall_s = time.perf_counter() - t0
peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
import hashlib  # after the RSS read: its OpenSSL load is this tool's, not modrep's
print(json.dumps({
    "table_s": table_s,
    "wall_s": wall_s,
    "peak_rss_mib": peak_rss_mib,
    "timings": an.report.timings,
    "all_passed": an.report.all_passed,
    "report_sha256": hashlib.sha256(an.report.to_json().encode()).hexdigest(),
}))
"""


def run_rung(src: str, degree: int, gens: list[str], p: int, k: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", WORKER, src, json.dumps([degree, gens, p, k])],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def run(src: str) -> list[dict]:
    rows = []
    for name, degree, gens, p, k in RUNGS:
        runs = sorted((run_rung(src, degree, gens, p, k) for _ in range(REPEATS)),
                      key=lambda r: r["wall_s"])
        mid = runs[len(runs) // 2]
        if {r["report_sha256"] for r in runs} != {mid["report_sha256"]}:
            raise SystemExit(f"{name}: reports differ between runs")
        row = {
            "rung": name,
            "wall_s": mid["wall_s"],
            "wall_s_runs": [r["wall_s"] for r in runs],
            "table_s": statistics.median(r["table_s"] for r in runs),
            "peak_rss_mib": max(r["peak_rss_mib"] for r in runs),
            "timings": mid["timings"],
            "all_passed": mid["all_passed"],
            "report_sha256": mid["report_sha256"],
        }
        rows.append(row)
        split = " ".join(f"{s}={t:.3f}" for s, t in row["timings"].items())
        print(f"{name:15s} wall {row['wall_s']:7.3f} s  table {row['table_s']:6.3f} s  "
              f"rss {row['peak_rss_mib']:6.1f} MiB  {split}", flush=True)
    return rows


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="name of this side, e.g. before or after")
    ap.add_argument("--src", default=str(here / "src"), help="directory holding the modrep package")
    ap.add_argument("--out", required=True, help="JSON file to update, e.g. BENCH_<n>.json")
    args = ap.parse_args(argv)
    import numpy as np

    rows = run(str(Path(args.src).resolve()))
    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data.setdefault(
        "description",
        "analyze_algebra at seed 0 on each ladder rung, A6/GF(4) and S6/GF(2), each run in a "
        "fresh process, five runs per rung: median wall seconds (all five in wall_s_runs) "
        "with that run's stage split, median group-table seconds (outside the wall), largest "
        "peak RSS and the report's sha256; written by scripts/ladder_bench.py.",
    )
    data.setdefault("runs", {})[args.label] = {
        "machine": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "results": rows,
    }
    out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

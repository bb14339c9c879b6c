"""Microbenchmark of the product kernels: _matmul_arr and GroupAlgebra.conv.

Times each kernel best-of-5 over GF(2), GF(4), GF(7) and GF(9) at sizes
16, 60, 168 and 360, and stores the per-call seconds under a label in a
JSON file, so that two checkouts give a before/after pair:

    python scripts/kernel_bench.py --label before --src OTHER_CHECKOUT/src --out BENCH_<n>.json
    python scripts/kernel_bench.py --label after --out BENCH_<n>.json

--src picks the modrep to import (default: this checkout's src); --out, which
has no default, names the record to update.  The matmul inputs are random
n x n matrices; conv multiplies a random element of kG, |G| = n, into a
random stack of n coefficient rows (conv_stack) and into one row (conv_row).  The groups are C16, A5, PSL(2,7) and A6.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

FIELDS = {"GF(2)": (2, 1), "GF(4)": (2, 2), "GF(7)": (7, 1), "GF(9)": (3, 2)}
GROUPS = {  # order: (degree, generators)
    16: (16, ["(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16)"]),
    60: (5, ["(1,2,3,4,5)", "(1,2,3)"]),
    168: (7, ["(1,2,3,4,5,6,7)", "(1,2)(3,6)"]),
    360: (6, ["(1,2,3)", "(2,3,4,5,6)"]),
}
REPEATS = 5
MIN_REPEAT_S = 0.01


def best_of(fn, repeats: int = REPEATS) -> float:
    """Least seconds per call over `repeats` timed batches of equal size."""
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    inner = max(1, int(MIN_REPEAT_S / max(once, 1e-7)))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def run() -> list[dict]:
    import numpy as np

    from modrep.fieldcore import field_make
    from modrep.linalg import _matmul_arr
    from modrep.modalg import GroupAlgebra
    from modrep.permgroup import group_from_json

    rng = np.random.default_rng(0)
    groups = {
        n: group_from_json({"degree": degree, "generators": gens})
        for n, (degree, gens) in GROUPS.items()
    }
    rows = []
    for fname, (p, k) in FIELDS.items():
        ctx = field_make(p, k)
        for n, group in groups.items():
            if group.order != n:
                raise SystemExit(f"group of order {group.order}, expected {n}")
            a = rng.integers(0, ctx.order, (n, n)).astype(ctx.dtype)
            b = rng.integers(0, ctx.order, (n, n)).astype(ctx.dtype)
            alg = GroupAlgebra(group, ctx)
            x = rng.integers(0, ctx.order, n).astype(ctx.dtype)
            cases = {
                "matmul": lambda: _matmul_arr(ctx, a, b),
                "conv_stack": lambda: alg.conv(x, b),
                "conv_row": lambda: alg.conv(x, b[0]),
            }
            for kernel, fn in cases.items():
                rows.append({"kernel": kernel, "field": fname, "n": n, "best_s": best_of(fn)})
                print(f"{kernel:10s} {fname:6s} n={n:3d} {rows[-1]['best_s'] * 1e3:9.3f} ms", flush=True)
    return rows


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="name of this side, e.g. before or after")
    ap.add_argument("--src", default=str(here / "src"), help="directory holding the modrep package")
    ap.add_argument("--out", required=True, help="JSON file to update, e.g. BENCH_<n>.json")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    import numpy as np

    rows = run()
    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data.setdefault(
        "description",
        "Per-call seconds, best of 5, of linalg._matmul_arr on random n x n matrices and of "
        "GroupAlgebra.conv(x, rows) with |G| = n (conv_stack: n rows, conv_row: one row); "
        "written by scripts/kernel_bench.py.",
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

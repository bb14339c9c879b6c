"""End-to-end benchmark of modrep.

Usage (from the root of a checkout; modrep is imported from ./src):

    python3 bench/run.py --workload char2-pims --seed 0 --seconds 30 --trace 0

One process runs one workload: set-up, then whole passes over the
workload's inputs, one after another, until another pass would overrun
``--seconds`` (at least one pass).  Every pass repeats the same operations
with ``seed=`` passed to the pipeline, so each pass gives the same reports.
After each pass, outside the timed region, every output is checked by the
oracles in ``oracles.py``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are end to end (``wall_s``: median timed wall of a pass;
``setup_s``: median of fresh-process set-ups; ``peak_rss_mib``); with
``--trace 1`` they are the per-layer metrics of ``spantrace.py`` over the
set-up and the first pass, and the spans are written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import workloads
from spantrace import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 5


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _setup_samples(workload: str) -> list[float]:
    """Set-up times of fresh interpreters; each pays the imports again."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.split()[-1]))
    return out


def _check_pass(workload, inputs, facts, outcomes, first_reports, log):
    """Oracle verdicts for one pass: (failed operations, wrong outputs)."""
    failed = wrong = 0
    by_label = {spec.label: (spec, f) for (spec, *_), f in zip(inputs, facts)}
    for o in outcomes:
        if o.error:
            failed += 1
            log.append(f"{o.label}: raised {o.error}")
            continue
        if workload == "suites":
            problems = oracles.check_suite_result(o.check)
        else:
            spec, gfacts = by_label[o.label]
            af = oracles.analysis_facts(o.analysis, gfacts)
            problems = oracles.check_analysis(af, gfacts, spec.brauer_degrees)
            digest = hashlib.sha256(o.report_json.encode()).hexdigest()
            first = first_reports.setdefault(o.label, {
                "sha256": digest, "timings": o.analysis.report.timings,
                "simple_dims": [s["dim"] for s in af.report["simples"]],
                "cartan": af.report["cartan"],
            })
            if first["sha256"] != digest:
                problems.append("report JSON differs from the first pass with the same seed")
        if problems:
            failed += 1
            wrong += 1
            log.extend(f"{o.label}: {p}" for p in problems)
    return failed, wrong


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "modrep" / "__init__.py").is_file():
        print(f"bench: no modrep sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads.import_modrep(args.workload)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    inputs = workloads.build_inputs(args.workload)
    facts = [oracles.group_facts(spec.generators, spec.degree) for spec, *_ in inputs]
    setup = [] if tracer else _setup_samples(args.workload)

    passes: list[float] = []
    attempted = failed = wrong = 0
    log: list[str] = []
    first_reports: dict = {}
    mark = None
    t_start = time.perf_counter()
    while True:
        wall, outcomes = workloads.run_pass(args.workload, inputs, args.seed)
        passes.append(wall)
        if tracer:
            mark = mark or tracer.mark()
            tracer.paused = True
        f, w = _check_pass(args.workload, inputs, facts, outcomes, first_reports, log)
        if tracer:
            tracer.paused = False
        attempted += len(outcomes)
        failed += f
        wrong += w
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / len(passes) > args.seconds:
            break

    if tracer:
        metrics = tracer.metrics(mark)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(passes), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
        }
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"result": result, "pass_walls": passes, "setup_samples": setup,
              "reports": first_reports, "problems": log}
    if tracer:
        spans = RESULTS / f"{args.workload}-seed{args.seed}.spans.json"
        tracer.dump(spans)
        detail["spans"] = str(spans.relative_to(HERE.parent))
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    for line in log:
        print(f"bench: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

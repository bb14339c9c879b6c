"""Benchmark inputs and the measured pass of each workload.

Stdlib only at import time: the set-up timer starts before ``import modrep``
(and so before numpy), and this module is imported before it starts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

A5_GENERATORS = ("(1,2,3,4,5)", "(1,2,3)")
S5_GENERATORS = ("(1,2,3,4,5)", "(1,2)")


@dataclass(frozen=True)
class InputSpec:
    """One group algebra: the group as cycle-notation generators on `degree`
    points, the field GF(char^field_degree), and the published Brauer
    character degrees of the group in that characteristic (Jansen-Lux-
    Parker-Wilson, An Atlas of Brauer Characters, 1995)."""

    label: str
    generators: tuple[str, ...]
    degree: int
    char: int
    field_degree: int
    brauer_degrees: tuple[int, ...]
    builtin: Optional[str] = None  # load through modrep's builtin() table


# Every field below is a splitting field of its group, so every certificate
# of the pipeline can pass.
WORKLOADS: dict[str, list[InputSpec]] = {
    # PIM stage dominates; both char-2 matmul paths (GF(4) table, GF(2) int64).
    "char2-pims": [
        InputSpec("A5/GF(4)", A5_GENERATORS, 5, 2, 2, (1, 2, 2, 4), builtin="A5"),
        InputSpec("S5/GF(2)", S5_GENERATORS, 5, 2, 1, (1, 4, 4)),
    ],
    # Exhaustive center search dominates on GF(9) (9^5 candidates); odd-char
    # ADD-table paths, prime and extension field.
    "oddchar-center": [
        InputSpec("A5/GF(5)", A5_GENERATORS, 5, 5, 1, (1, 3, 5), builtin="A5"),
        InputSpec("A5/GF(9)", A5_GENERATORS, 5, 3, 2, (1, 3, 3, 4), builtin="A5"),
    ],
    # What `modrep check` runs: many small algebras and per-call overhead.
    "suites": [],
}


def import_modrep(workload: str) -> None:
    """The imports a user of this workload pays for."""
    import modrep  # noqa: F401
    import modrep.permgroup  # noqa: F401

    if workload == "suites":
        import modrep.goldens  # noqa: F401


def build_inputs(workload: str) -> list[tuple[InputSpec, object, object, Optional[dict]]]:
    """Group tables and field contexts: (spec, group, field, group_spec)."""
    from modrep import builtin, field_make
    from modrep.permgroup import group_from_json

    out = []
    for spec in WORKLOADS[workload]:
        if spec.builtin:
            group = builtin(spec.builtin)
            gspec = {"builtin": spec.builtin}
        else:
            group = group_from_json({"degree": spec.degree, "generators": list(spec.generators)})
            gspec = None
        out.append((spec, group, field_make(spec.char, spec.field_degree), gspec))
    return out


def setup(workload: str):
    import_modrep(workload)
    return build_inputs(workload)


@dataclass
class Outcome:
    """One measured operation: an analysis, or one check of a suite."""

    label: str
    analysis: object = None  # modrep Analysis (analysis workloads)
    report_json: str = ""
    check: object = None  # modrep CheckResult (suites)
    error: str = ""


def run_pass(workload: str, inputs, seed: int) -> tuple[float, list[Outcome]]:
    """One pass over the workload's inputs; returns (timed wall, outcomes).

    Only the program's calls are timed: every analyze_algebra plus
    report.to_json(), or the two suite calls.
    """
    from modrep import analyze_algebra

    outcomes: list[Outcome] = []
    wall = 0.0
    if workload == "suites":
        from modrep.goldens import run_paper_suite, run_property_suite

        for suite in (run_paper_suite, run_property_suite):
            t0 = time.perf_counter()
            try:
                results, error = suite(seed), ""
            except Exception as exc:  # a crash is a failed operation, not a crashed run
                results, error = [], f"{type(exc).__name__}: {exc}"
            wall += time.perf_counter() - t0
            if error:
                outcomes.append(Outcome(suite.__name__, error=error))
            outcomes.extend(Outcome(f"{suite.__name__}:{r.name}", check=r) for r in results)
        return wall, outcomes

    for spec, group, field, gspec in inputs:
        t0 = time.perf_counter()
        try:
            an = analyze_algebra(group, field, seed=seed, group_spec=gspec)
            outcome = Outcome(spec.label, analysis=an, report_json=an.report.to_json())
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            outcome = Outcome(spec.label, error=f"{type(exc).__name__}: {exc}")
        wall += time.perf_counter() - t0
        outcomes.append(outcome)
    return wall, outcomes

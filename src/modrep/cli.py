"""Batch front door: analyze one group algebra or run the check suites.

Exit codes: 0 all certificates/checks pass, 1 input error (single
machine-parseable line on stderr), 2 certificate or check failure (the
report is still written).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .errors import ModrepError
from .fieldcore import field_make
from .permgroup import builtin, group_from_json
from .report import analyze_algebra


def _parse_label_map(text: Optional[str]) -> dict[str, str]:
    if not text:
        return {}
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ValueError(f"label map entry {piece!r} is not of the form OLD=NEW")
        old, new = piece.split("=", 1)
        out[old.strip()] = new.strip()
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modrep",
        description="modular structure of group algebras kG over small finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="run the structure pipeline on one algebra")
    src = an.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", help="named group (C2, C3, C4, C5, V4, S3, S4, A4, A5)")
    src.add_argument("--group-file", help="JSON group spec {degree, generators}")
    an.add_argument("--char", type=int, required=True, help="field characteristic (prime)")
    an.add_argument("--degree", type=int, default=1, help="field extension degree")
    an.add_argument(
        "--modulus",
        help="modulus polynomial coefficients low->high, comma separated",
    )
    an.add_argument("--seed", type=int, default=0)
    an.add_argument("--out", help="output path (default: stdout)")
    an.add_argument("--format", choices=["json", "text"], default="json")
    an.add_argument("--label-map", help='rename simples in output, e.g. "S1=T1,S2=T2"')
    an.add_argument(
        "--timings", action="store_true", help="include wall-clock timings in JSON output"
    )

    ck = sub.add_parser("check", help="run the reproduction or property suites")
    ck.add_argument("--suite", choices=["paper", "properties"], required=True)
    ck.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_analyze(args) -> int:
    if args.builtin:
        group = builtin(args.builtin)
        gspec = {"builtin": args.builtin}
    else:
        text = Path(args.group_file).read_text(encoding="utf-8")
        group = group_from_json(text)
        gspec = {"file": args.group_file}
    modulus = None
    if args.modulus:
        modulus = [int(c) for c in args.modulus.split(",")]
    fieldctx = field_make(args.char, args.degree, modulus)
    analysis = analyze_algebra(
        group,
        fieldctx,
        seed=args.seed,
        group_spec=gspec,
        label_map=_parse_label_map(args.label_map),
    )
    report = analysis.report
    if args.format == "json":
        payload = report.to_json(include_timings=args.timings)
    else:
        payload = report.to_text()
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
    return 0 if report.all_passed else 2


def _cmd_check(args) -> int:
    # imported here so that `modrep analyze` never loads the suites
    from .goldens import run_paper_suite, run_property_suite

    if args.suite == "paper":
        results = run_paper_suite(args.seed)
    else:
        results = run_property_suite(args.seed)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed (suite {args.suite})")
    return 2 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        return _cmd_check(args)
    except (ModrepError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"modrep: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

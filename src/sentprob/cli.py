"""Command line front end: run suites, cross-checks, and the demo."""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

from .harness import (
    ConfigError,
    CrosscheckResult,
    SuiteResult,
    load_config,
    parse_config,
    run_crosscheck,
    run_suite,
)
from .sequences import builtin_catalog

EXIT_PASS = 0
EXIT_ASSERT = 1
EXIT_USAGE = 2


def _report_suite(result: SuiteResult) -> None:
    for o in result.outcomes:
        print(o.line)
    for path in result.artifacts:
        print(f"wrote {path}")


def _report_crosscheck(result: CrosscheckResult) -> None:
    for r in result.rows:
        print(r.line)
    for path in result.artifacts:
        print(f"wrote {path}")


def _prepare_output(out_dir: str) -> Optional[str]:
    """Create the output directory, or say why it cannot be used. Run before
    any work, so a bad --out fails at once and not after the accumulation."""
    path = Path(out_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return f"cannot create output directory {path}: {exc.strerror or exc}"
    if not os.access(path, os.W_OK | os.X_OK):
        return f"cannot write to output directory {path}"
    return None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentprob",
        description="Sentence-probability trend experiments over random machines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a suite config and assert its trends")
    run_p.add_argument("config", help="path to an INI suite config")
    run_p.add_argument("--out", help="override the output directory")
    cc_p = sub.add_parser(
        "crosscheck", help="compare membership against extension probabilities"
    )
    cc_p.add_argument("config", help="path to an INI config with a [crosscheck] section")
    cc_p.add_argument("--out", help="override the output directory")
    sub.add_parser("list-sequences", help="list the builtin sentence families")
    demo_p = sub.add_parser("demo", help="run the small packaged demo suite")
    demo_p.add_argument("--out", help="override the output directory")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-sequences":
        for seq in builtin_catalog():
            print(f"{seq.id:24} {seq.description}")
        return EXIT_PASS
    try:
        if args.command == "demo":
            text = (
                resources.files("sentprob")
                .joinpath("configs/demo.ini")
                .read_text(encoding="utf-8")
            )
            cfg = parse_config(text, source="demo.ini")
        else:
            cfg = load_config(args.config)
        problem = _prepare_output(args.out if args.out is not None else cfg.out_dir)
        if problem is not None:
            print(f"output error: {problem}", file=sys.stderr)
            return EXIT_USAGE
        if args.command == "crosscheck":
            cc = run_crosscheck(cfg, args.out)
            _report_crosscheck(cc)
            return EXIT_PASS if cc.passed else EXIT_ASSERT
        result = run_suite(cfg, args.out)
        _report_suite(result)
        return EXIT_PASS if result.passed else EXIT_ASSERT
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

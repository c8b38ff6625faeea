"""``repro lint`` command line: stable exit codes for CI gating.

Exit codes: 0 — clean; 1 — findings reported; 2 — a file could not be
linted (bad path, syntax error) or the invocation itself was invalid.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.cli import add_lint_arguments
from repro.lint.core import LintError, iter_python_files, lint_paths
from repro.lint.report import render_json, render_text
from repro.lint.rules import all_rules, rule_ids

__all__ = ["add_lint_arguments", "run_lint", "main"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def run_lint(args: argparse.Namespace) -> int:
    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.id:26s} {rule.description}")
        return EXIT_CLEAN
    if args.rules:
        known = set(rule_ids())
        unknown = [r for r in args.rules if r not in known]
        if unknown:
            print(f"repro lint: unknown rule id(s): {', '.join(unknown)} "
                  f"(see --list-rules)", file=sys.stderr)
            return EXIT_ERROR
        rules = [rule for rule in rules if rule.id in set(args.rules)]
    try:
        files = iter_python_files(args.paths)
        findings = lint_paths(args.paths, rules)
    except LintError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.json is not None:
        payload = render_json(findings, files_checked=len(files),
                              rules=rules)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
    if args.json != "-":
        print(render_text(findings, files_checked=len(files)))
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST determinism & state-contract checks (DESIGN.md §13)",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

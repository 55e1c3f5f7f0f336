"""``python -m repro lint`` — the invariant linter from the shell.

Exit status: 0 when every checked contract holds, 1 when violations were
found, 2 on usage errors.  ``--json`` emits the schema-stable report
(``schema_version`` 1) that CI uploads as a build artifact::

    {
      "schema_version": 1,
      "root": "src/repro",
      "rules_run": ["R0", "R1", ...],
      "files_checked": 63,
      "ok": true,
      "counts": {},
      "violations": []
    }

``violations`` entries are ``{rule, path, line, col, message}`` sorted by
``(path, line, col, rule)``; ``counts`` maps rule id to violation count for
the rules that fired.  The schema is locked by ``tests/test_lint.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import repro
from repro.exceptions import InvalidParameterError, ReproError
from repro.lint.ast_checks import lint_tree
from repro.lint.rules import RULES, Violation, rule_ids
from repro.lint.typing_gate import run_mypy

__all__ = ["build_report", "main"]

#: JSON report schema version; bump only with a migration note in
#: ``docs/static_analysis.md``.
SCHEMA_VERSION = 1


def _default_root() -> Path:
    """The installed ``repro`` package directory (works from any cwd)."""
    package_file = repro.__file__
    if package_file is None:  # pragma: no cover - namespace-package guard
        raise InvalidParameterError(
            "cannot locate the repro package source; pass an explicit path"
        )
    return Path(package_file).parent


def build_report(
    root: Path | str,
    violations: list[Violation],
    files_checked: int,
    rules_run: tuple[str, ...],
) -> dict[str, object]:
    """Assemble the schema-stable JSON payload from one lint run."""
    counts: dict[str, int] = {}
    for violation in violations:
        counts[violation.rule] = counts.get(violation.rule, 0) + 1
    return {
        "schema_version": SCHEMA_VERSION,
        "root": str(root),
        "rules_run": list(rules_run),
        "files_checked": files_checked,
        "ok": not violations,
        "counts": dict(sorted(counts.items())),
        "violations": [violation.to_dict() for violation in violations],
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description=(
            "AST invariant linter for the paper-bound code contracts "
            "(rules R0-R6 and the T1 strict-typing gate; see "
            "docs/static_analysis.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or package roots to lint (default: the repro package)",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable report")
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="ID",
        help="run only this rule (repeatable; R0 pragma discipline always runs)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    parser.add_argument(
        "--pyproject",
        default=None,
        help="pyproject.toml carrying the [tool.mypy] ratchet (default: auto-detect)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="also write the JSON report to FILE (for CI artifacts)",
    )
    parser.add_argument(
        "--mypy",
        action="store_true",
        help="additionally run the staged mypy gate when mypy is installed",
    )
    return parser


def _cmd_list_rules(as_json: bool) -> int:
    if as_json:
        payload = [
            {
                "id": rule.id,
                "name": rule.name,
                "scope": rule.scope,
                "summary": rule.summary,
                "rationale": rule.rationale,
            }
            for rule in RULES.values()
        ]
        print(json.dumps(payload, indent=2))
        return 0
    for rule in RULES.values():
        print(f"{rule.id}  {rule.name} [{rule.scope}]")
        print(f"    {rule.summary}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit status (0 clean, 1 violations)."""
    try:
        return _main(argv)
    except BrokenPipeError:
        # Piping into `head` closes stdout early; that is not a lint failure.
        return 0


def _main(argv: list[str] | None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        return _cmd_list_rules(args.json)

    selected: frozenset[str] | None = None
    if args.rule:
        unknown = sorted(set(args.rule) - set(RULES))
        if unknown:
            print(
                f"error: unknown rule(s) {', '.join(unknown)}; "
                f"known: {', '.join(rule_ids())}",
                file=sys.stderr,
            )
            return 2
        selected = frozenset(args.rule)

    roots = [Path(raw) for raw in args.paths] if args.paths else [_default_root()]
    pyproject = Path(args.pyproject) if args.pyproject else None

    violations: list[Violation] = []
    files_checked = 0
    try:
        for root in roots:
            tree_violations, tree_files = lint_tree(
                root, rules=selected, pyproject=pyproject
            )
            violations.extend(tree_violations)
            files_checked += tree_files
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rules_run = rule_ids() if selected is None else tuple(
        rule for rule in rule_ids() if rule in (selected | {"R0"})
    )
    report = build_report(
        roots[0] if len(roots) == 1 else Path("."), violations, files_checked, rules_run
    )

    mypy_note: str | None = None
    if args.mypy:
        mypy_result = run_mypy()
        if mypy_result is None:
            mypy_note = "mypy gate: skipped (mypy is not installed; CI runs it)"
            report["mypy"] = {"ran": False, "exit_status": None}
        else:
            status, output = mypy_result
            mypy_note = output.strip() or f"mypy gate: exit status {status}"
            report["mypy"] = {"ran": True, "exit_status": status}
            if status != 0:
                report["ok"] = False

    if args.output:
        Path(args.output).write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )

    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for violation in violations:
            print(violation.render())
        if mypy_note:
            print(mypy_note)
        status_word = "ok" if report["ok"] else "FAILED"
        print(
            f"repro lint: {files_checked} files, "
            f"{len(violations)} violation(s) — {status_word}"
        )
    return 0 if report["ok"] else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

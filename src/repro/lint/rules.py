"""Rule and violation records for the :mod:`repro.lint` invariant linter.

A :class:`Rule` is a declared contract between the codebase and the paper
reproduction; a :class:`Violation` is one place a file breaks it.  The rule
catalogue is data, not behaviour — the checkers live in
:mod:`repro.lint.ast_checks` and :mod:`repro.lint.typing_gate` — so tools
(the CLI, the JSON report, the docs table) can enumerate rules without
importing any checker machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RULES", "Rule", "Violation", "rule_ids"]


@dataclass(frozen=True)
class Rule:
    """One machine-checked contract.

    Attributes
    ----------
    id:
        Stable short identifier (``"R1"`` ... ``"R6"``, ``"T1"``, ``"R0"``)
        used in pragmas, ``--rule`` filters and the JSON report.
    name:
        Kebab-case human name.
    summary:
        One-line statement of what the rule flags.
    rationale:
        The paper-bound invariant the rule protects, and the dynamic
        check it is the static twin of.
    scope:
        ``"file"`` rules run on every linted file; ``"hot-paths"`` rules
        only on the declared mask-native modules; ``"project"`` rules need
        the whole source tree; ``"ratchet"`` rules run on the modules the
        mypy strictness ratchet lists.
    """

    id: str
    name: str
    summary: str
    rationale: str
    scope: str = "file"


@dataclass(frozen=True)
class Violation:
    """One spot where a file breaks a rule."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> dict[str, object]:
        """Return the schema-stable JSON form (see ``docs/static_analysis.md``)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        """Return the one-line human form ``path:line:col: RULE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


RULES: dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule(
            id="R0",
            name="pragma-discipline",
            summary=(
                "every '# repro-lint: disable=RULE' pragma must carry a "
                "'-- justification' and name rules that exist"
            ),
            rationale=(
                "Suppressions are part of the audited contract surface: an "
                "unexplained or dangling pragma silently widens an invariant "
                "exception, so the linter refuses it."
            ),
        ),
        Rule(
            id="R1",
            name="determinism",
            summary=(
                "no module-level random.*/np.random.* RNG and no unseeded "
                "default_rng() inside src/repro; sampling code must thread a "
                "numpy Generator or a seed"
            ),
            rationale=(
                "Every experiment must be a deterministic function of its "
                "seed (the static twin of tests/test_determinism.py); ambient "
                "entropy makes the paper-conformance envelopes unreproducible. "
                "The single audited entropy entry point is "
                "repro.core.rng.ensure_rng."
            ),
        ),
        Rule(
            id="R2",
            name="mask-native",
            summary=(
                "no frozenset-family traversal (.quorums()/.iter_quorums()) "
                "inside the mask-native modules (core/ measures, strategies and "
                "derived systems, M-Path, the workload engine); use "
                "quorum_masks()/support_masks()/BitsetEngine views"
            ),
            rationale=(
                "A construction states its quorum family once, as int bitmasks, "
                "and every measure is a function of that family; asking for the "
                "labelled family inside the library converts each mask to a "
                "frozenset and straight back. Labels are built only for "
                "returned witnesses and for caller input."
            ),
            scope="hot-paths",
        ),
        Rule(
            id="R3",
            name="exception-taxonomy",
            summary=(
                "no bare ValueError/TypeError/RuntimeError/Exception raises "
                "inside src/repro; raise the repro.exceptions hierarchy "
                "(inside repro/storage/, raw OSError/IOError raises are "
                "banned too — wrap them in StorageError)"
            ),
            rationale=(
                "Callers catch ReproError subclasses at API boundaries and the "
                "CLI maps them onto exit codes 2/3; a bare builtin raise "
                "escapes both.  This is the static form of the registry-wide "
                "InvalidParameterError contract asserted in tests/test_api.py. "
                "The storage branch enforces the recovery contract of "
                "repro.storage — nothing escapes past StorageError, so raw "
                "I/O errors must be wrapped where they occur."
            ),
        ),
        Rule(
            id="R4",
            name="float-equality",
            summary=(
                "no ==/!= comparison against float expressions (float "
                "literals or float() casts); use the 1e-9 tolerance helpers "
                "in repro.core.floats"
            ),
            rationale=(
                "The analytic and exact engines agree to 1e-9, not exactly "
                "(core/analytic.py cross-validation); exact float equality "
                "encodes a tolerance of 0 that no measure path promises."
            ),
        ),
        Rule(
            id="R5",
            name="registry-complete",
            summary=(
                "every module under constructions/ is imported by "
                "api/registry.py and every register() entry declares typed "
                "parameter specs (checked from the AST, without importing)"
            ),
            rationale=(
                "The facade's reproducibility story (SystemSpec round-trips, "
                "CLI reachability, spec-driven workloads) holds only if the "
                "registry covers the whole catalogue; an unregistered "
                "construction is invisible to measure()/run()/compare."
            ),
            scope="project",
        ),
        Rule(
            id="R6",
            name="no-bare-print",
            summary=(
                "no print() call inside src/repro outside the two command-line "
                "front ends, api/cli.py and lint/cli.py"
            ),
            rationale=(
                "Library code reports through return values, exceptions and "
                "the CLI's --json payloads; a stray print corrupts a machine-"
                "readable stdout and is invisible to every test that checks "
                "results.  Observability belongs to structured logging, not "
                "to ad-hoc prints."
            ),
        ),
        Rule(
            id="T1",
            name="typing-gate",
            summary=(
                "public functions and methods of ratcheted modules must have "
                "fully annotated parameters and return types"
            ),
            rationale=(
                "The AST half of the mypy --strict ratchet: it enforces "
                "annotation completeness even where mypy is not installed, so "
                "the gate cannot silently rot between CI runs."
            ),
            scope="ratchet",
        ),
    )
}


def rule_ids() -> tuple[str, ...]:
    """Return the rule identifiers in catalogue order."""
    return tuple(RULES)

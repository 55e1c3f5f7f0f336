"""``repro.lint`` — AST invariant linter for the paper-bound code contracts.

:mod:`repro.analysis.conformance` makes the paper's *runtime* guarantees
test-callable; this package makes the *code-level* contracts those checks
rely on machine-checkable **before any test runs**.  Each rule is the static
twin of a dynamic guarantee:

========  ===================  ==================================================
Rule      Name                 Invariant protected
========  ===================  ==================================================
``R1``    determinism          seed-threaded RNG everywhere (no ambient entropy)
``R2``    mask-native          hot paths stay on ``int`` bitmasks, not frozensets
``R3``    exception-taxonomy   every raise uses the :mod:`repro.exceptions` tree
``R4``    float-equality       no ``==``/``!=`` on floats; use the 1e-9 helpers
``R5``    registry-complete    every construction module is registered with
                               typed parameter specs
``R6``    no-bare-print        only the two command-line front ends print
``T1``    typing-gate          ratcheted modules keep fully annotated public
                               surfaces (the AST half of ``mypy --strict``)
``R0``    pragma-discipline    every ``# repro-lint: disable=`` carries a
                               justification and names real rules
========  ===================  ==================================================

Run it as ``python -m repro lint [--json]`` (or ``python -m repro.lint``),
or from Python::

    >>> from repro.lint import lint_source
    >>> lint_source("raise ValueError('boom')")[0].rule
    'R3'

Deliberate exceptions are declared in-line::

    np.random.default_rng()  # repro-lint: disable=R1 -- audited entropy entry

A pragma without the ``-- justification`` text is itself a violation (R0).
``docs/static_analysis.md`` documents every rule, the invariant it protects
and how it maps onto the paper / the conformance layer.
"""

from __future__ import annotations

from repro.lint.ast_checks import (
    check_registry,
    lint_file,
    lint_paths,
    lint_source,
    lint_tree,
)
from repro.lint.rules import RULES, Rule, Violation
from repro.lint.typing_gate import (
    check_annotations,
    ratchet_module_patterns,
    run_mypy,
)

__all__ = [
    "RULES",
    "Rule",
    "Violation",
    "check_annotations",
    "check_registry",
    "lint_file",
    "lint_paths",
    "lint_source",
    "lint_tree",
    "ratchet_module_patterns",
    "run_mypy",
]

"""AST checkers behind the :mod:`repro.lint` rules.

Everything here works on source text and :mod:`ast` trees only — no module
under lint is ever imported, so the linter can flag a file whose import-time
behaviour is exactly what is broken (R5 checks the construction registry
this way on purpose).

The per-file rules (R1-R4, R6) run through :func:`lint_file` /
:func:`lint_source`; the project rule (R5) through :func:`check_registry`;
:func:`lint_tree` composes them with the typing gate over a package root the
way ``python -m repro lint`` does.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

from repro.exceptions import InvalidParameterError
from repro.lint.rules import RULES, Violation

__all__ = [
    "HOT_MODULES",
    "PRINT_MODULES",
    "STORAGE_MODULES",
    "check_registry",
    "lint_file",
    "lint_paths",
    "lint_source",
    "lint_tree",
]

#: Modules whose call graphs must stay mask-native (rule R2), as path
#: suffixes relative to the linted root.
HOT_MODULES: tuple[str, ...] = (
    "core/availability.py",
    "core/bitset.py",
    "core/composition.py",
    "core/load.py",
    "core/masking.py",
    "core/membership.py",
    "core/strategy.py",
    "core/transversal.py",
    "constructions/mpath.py",
    "simulation/engine.py",
)

#: The command-line front ends, the only modules allowed to print (rule R6),
#: as path suffixes relative to the linted root.
PRINT_MODULES: tuple[str, ...] = ("api/cli.py", "lint/cli.py")

#: Frozenset-family traversal calls R2 flags inside the hot modules.
_FROZENSET_TRAVERSALS = frozenset({"quorums", "iter_quorums"})

#: Builtin exception names R3 refuses to see raised inside the library.
_BANNED_RAISES = frozenset({"ValueError", "TypeError", "RuntimeError", "Exception"})

#: Modules forming the durable-storage layer (rule R3's StorageError branch),
#: as path fragments relative to the linted root.
STORAGE_MODULES: tuple[str, ...] = ("repro/storage/",)

#: OS-level exception names R3 additionally refuses inside STORAGE_MODULES:
#: the storage contract is that nothing escapes past StorageError, so raw
#: I/O errors must be wrapped at the point they occur.
_BANNED_STORAGE_RAISES = frozenset({"OSError", "IOError"})

#: ``numpy.random`` module-level functions that draw from the legacy global
#: RNG state (R1); ``default_rng``/``Generator``/``SeedSequence`` are the
#: seed-threaded API and stay legal when seeded.
_NUMPY_LEGACY_RNG = frozenset(
    {
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "seed",
        "get_state",
        "set_state",
        "choice",
        "shuffle",
        "permutation",
        "bytes",
        "uniform",
        "normal",
        "standard_normal",
        "binomial",
        "poisson",
        "exponential",
        "geometric",
    }
)

_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+?)\s*(?:--\s*(.*\S))?\s*$"
)


def _iter_comments(source: str) -> list[tuple[int, int, str]]:
    """Yield ``(line, col, text)`` for every comment token of ``source``.

    Tokenising (rather than scanning raw lines) keeps pragma discipline from
    firing on docstrings or string literals that merely *mention* pragmas —
    including this linter's own sources.
    """
    comments: list[tuple[int, int, str]] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.start[1], token.string))
    except tokenize.TokenError:  # pragma: no cover - ast.parse accepted it
        pass
    return comments


class _PragmaIndex:
    """Per-line ``# repro-lint: disable=RULE -- why`` suppressions of one file.

    A pragma suppresses the named rules *on its own line only*.  Pragmas
    missing the justification text, or naming rules that do not exist, are
    violations themselves (rule R0) — suppression is part of the audited
    surface, not an escape hatch.
    """

    def __init__(self, path: str, source: str):
        self._suppressed: dict[int, frozenset[str]] = {}
        self._violations: list[Violation] = []
        for lineno, col, comment in _iter_comments(source):
            if "repro-lint" not in comment:
                continue
            match = _PRAGMA_RE.search(comment)
            if match is None:
                self._violations.append(
                    Violation(
                        rule="R0",
                        path=path,
                        line=lineno,
                        col=col,
                        message=(
                            "malformed repro-lint pragma; expected "
                            "'# repro-lint: disable=RULE[,RULE] -- justification'"
                        ),
                    )
                )
                continue
            names = frozenset(
                name.strip() for name in match.group(1).split(",") if name.strip()
            )
            unknown = sorted(name for name in names if name not in RULES)
            if unknown:
                self._violations.append(
                    Violation(
                        rule="R0",
                        path=path,
                        line=lineno,
                        col=col + match.start(),
                        message=(
                            f"pragma disables unknown rule(s) {', '.join(unknown)}; "
                            f"known rules: {', '.join(RULES)}"
                        ),
                    )
                )
                continue
            if not match.group(2):
                self._violations.append(
                    Violation(
                        rule="R0",
                        path=path,
                        line=lineno,
                        col=col + match.start(),
                        message=(
                            "pragma has no justification; append "
                            "'-- <why this exception is deliberate>'"
                        ),
                    )
                )
                continue
            self._suppressed[lineno] = names

    def suppresses(self, line: int, rule: str) -> bool:
        return rule in self._suppressed.get(line, frozenset())

    @property
    def violations(self) -> list[Violation]:
        return list(self._violations)


def _dotted_name(node: ast.AST) -> str | None:
    """Resolve an ``ast.Name``/``ast.Attribute`` chain to ``"a.b.c"``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the full dotted names they import.

    ``import numpy as np`` maps ``np -> numpy``; ``from numpy.random import
    default_rng as rng_factory`` maps ``rng_factory -> numpy.random.default_rng``.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = (
                    name.name if name.asname else name.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for name in node.names:
                if name.name == "*":
                    continue
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def _resolve_call_target(call: ast.Call, aliases: dict[str, str]) -> str | None:
    """Return the imported dotted name a call resolves to, if resolvable."""
    dotted = _dotted_name(call.func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    expanded = aliases.get(head)
    if expanded is None:
        return dotted if head in ("random", "numpy") else None
    return f"{expanded}.{rest}" if rest else expanded


def _is_none_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


# ----------------------------------------------------------------------
# R1 — determinism.
# ----------------------------------------------------------------------
def _check_determinism(path: str, tree: ast.Module) -> list[Violation]:
    violations: list[Violation] = []
    aliases = _import_aliases(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = _resolve_call_target(node, aliases)
        if target is None:
            continue
        if target == "numpy.random.default_rng":
            argless = not node.args and not node.keywords
            none_seed = len(node.args) == 1 and _is_none_literal(node.args[0])
            if argless or none_seed:
                violations.append(
                    Violation(
                        rule="R1",
                        path=path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            "unseeded default_rng() draws ambient entropy; "
                            "thread a numpy Generator or seed (see "
                            "repro.core.rng.ensure_rng)"
                        ),
                    )
                )
        elif target.startswith("numpy.random."):
            tail = target.rsplit(".", 1)[1]
            if tail in _NUMPY_LEGACY_RNG:
                violations.append(
                    Violation(
                        rule="R1",
                        path=path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"numpy.random.{tail} uses the legacy global RNG "
                            "state; thread an explicit numpy Generator instead"
                        ),
                    )
                )
        elif target.startswith("random."):
            tail = target.rsplit(".", 1)[1]
            if tail not in ("Random", "SystemRandom"):
                violations.append(
                    Violation(
                        rule="R1",
                        path=path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"random.{tail} uses the process-global stdlib RNG; "
                            "thread an explicit numpy Generator instead"
                        ),
                    )
                )
    return violations


# ----------------------------------------------------------------------
# R2 — mask-native hot paths.
# ----------------------------------------------------------------------
def _is_hot_module(path: str) -> bool:
    normalised = path.replace("\\", "/")
    return any(normalised.endswith(suffix) for suffix in HOT_MODULES)


def _check_mask_native(path: str, tree: ast.Module) -> list[Violation]:
    if not _is_hot_module(path):
        return []
    violations: list[Violation] = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _FROZENSET_TRAVERSALS
        ):
            violations.append(
                Violation(
                    rule="R2",
                    path=path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f".{node.func.attr}() materialises the frozenset "
                        "quorum family inside a mask-native hot module; use "
                        "iter_quorum_masks()/support_masks()/BitsetEngine views"
                    ),
                )
            )
    return violations


# ----------------------------------------------------------------------
# R3 — exception taxonomy.
# ----------------------------------------------------------------------
def _is_storage_module(path: str) -> bool:
    normalised = path.replace("\\", "/")
    return any(fragment in normalised for fragment in STORAGE_MODULES)


def _check_exception_taxonomy(path: str, tree: ast.Module) -> list[Violation]:
    storage = _is_storage_module(path)
    violations: list[Violation] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        name = None
        if isinstance(exc, ast.Call):
            name = _dotted_name(exc.func)
        elif isinstance(exc, (ast.Name, ast.Attribute)):
            name = _dotted_name(exc)
        if name in _BANNED_RAISES:
            violations.append(
                Violation(
                    rule="R3",
                    path=path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"bare {name} escapes the ReproError hierarchy; raise "
                        "a repro.exceptions type (InvalidParameterError for "
                        "argument validation)"
                    ),
                )
            )
        elif storage and name in _BANNED_STORAGE_RAISES:
            violations.append(
                Violation(
                    rule="R3",
                    path=path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"raw {name} escapes the storage layer's StorageError "
                        "contract; wrap I/O failures in "
                        "repro.exceptions.StorageError at the point they occur"
                    ),
                )
            )
    return violations


# ----------------------------------------------------------------------
# R4 — float discipline.
# ----------------------------------------------------------------------
def _is_float_expression(node: ast.AST) -> bool:
    """Conservatively recognise expressions that are statically float-typed."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_expression(node.operand)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "float"
    return False


def _check_float_equality(path: str, tree: ast.Module) -> list[Violation]:
    violations: list[Violation] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[index], operands[index + 1]
            if _is_float_expression(left) or _is_float_expression(right):
                violations.append(
                    Violation(
                        rule="R4",
                        path=path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            "exact ==/!= against a float promises a tolerance "
                            "of 0 that no measure path provides; use "
                            "repro.core.floats.isclose/is_zero (1e-9)"
                        ),
                    )
                )
                break
    return violations


# ----------------------------------------------------------------------
# R6 — no bare print.
# ----------------------------------------------------------------------
def _check_bare_print(path: str, tree: ast.Module) -> list[Violation]:
    if path.replace("\\", "/").endswith(PRINT_MODULES):
        return []
    return [
        Violation(
            rule="R6",
            path=path,
            line=node.lineno,
            col=node.col_offset,
            message=(
                "print() inside the library; return the value, raise a "
                "repro.exceptions type, or leave output to the command line"
            ),
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    ]


_FILE_CHECKS = (
    _check_determinism,
    _check_mask_native,
    _check_exception_taxonomy,
    _check_float_equality,
    _check_bare_print,
)


# ----------------------------------------------------------------------
# Per-file driver.
# ----------------------------------------------------------------------
def lint_source(
    source: str,
    path: str = "<string>",
    rules: frozenset[str] | set[str] | None = None,
) -> list[Violation]:
    """Lint one file's source text; returns violations sorted by position.

    Parameters
    ----------
    source:
        The file contents.
    path:
        Display path recorded on violations and matched against the
        hot-module list of rule R2.
    rules:
        Optional subset of rule ids to run (pragma discipline R0 always
        runs, because suppression correctness is what makes every other
        rule trustworthy).
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise InvalidParameterError(f"{path} is not parseable python: {exc}") from exc
    pragmas = _PragmaIndex(path, source)
    violations = [
        violation
        for check in _FILE_CHECKS
        for violation in check(path, tree)
        if not pragmas.suppresses(violation.line, violation.rule)
    ]
    violations.extend(pragmas.violations)
    if rules is not None:
        wanted = set(rules) | {"R0"}
        violations = [v for v in violations if v.rule in wanted]
    return sorted(violations, key=lambda v: (v.path, v.line, v.col, v.rule))


def lint_file(
    path: Path | str, rules: frozenset[str] | set[str] | None = None
) -> list[Violation]:
    """Lint one file on disk (see :func:`lint_source`)."""
    file_path = Path(path)
    return lint_source(file_path.read_text(encoding="utf-8"), str(file_path), rules)


def lint_paths(
    paths: list[Path | str] | tuple[Path | str, ...],
    rules: frozenset[str] | set[str] | None = None,
) -> list[Violation]:
    """Lint files and directories (recursively, ``*.py``), merged and sorted."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    violations: list[Violation] = []
    for file_path in files:
        violations.extend(lint_file(file_path, rules))
    return sorted(violations, key=lambda v: (v.path, v.line, v.col, v.rule))


# ----------------------------------------------------------------------
# R5 — registry completeness (project scope, AST only).
# ----------------------------------------------------------------------
def _public_classes(tree: ast.Module) -> list[str]:
    return [
        node.name
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
    ]


def check_registry(
    constructions_dir: Path | str,
    registry_path: Path | str,
    package: str = "repro.constructions",
) -> list[Violation]:
    """Check registry completeness from the AST, without importing anything.

    Three contracts:

    1. every module under ``constructions_dir`` (except ``__init__``) is
       imported by the registry module from ``package``;
    2. every public class a construction module defines is referenced by the
       registry (imported, so it can appear as a ``factory``/``instance_of``);
    3. every ``register(ConstructionEntry(...))`` call declares ``params=``
       — the typed parameter specs the facade's validation contract needs.
    """
    constructions = Path(constructions_dir)
    registry_file = Path(registry_path)
    registry_display = str(registry_file)
    try:
        registry_tree = ast.parse(
            registry_file.read_text(encoding="utf-8"), filename=registry_display
        )
    except (OSError, SyntaxError) as exc:
        raise InvalidParameterError(f"cannot parse registry {registry_file}: {exc}") from exc

    imported_modules: set[str] = set()
    imported_names: set[str] = set()
    for node in ast.walk(registry_tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module == package or node.module.startswith(package + "."):
                imported_modules.add(node.module)
                imported_names.update(alias.name for alias in node.names)

    violations: list[Violation] = []
    for module_path in sorted(constructions.glob("*.py")):
        if module_path.stem.startswith("_"):
            continue
        module_name = f"{package}.{module_path.stem}"
        try:
            module_tree = ast.parse(
                module_path.read_text(encoding="utf-8"), filename=str(module_path)
            )
        except SyntaxError as exc:
            raise InvalidParameterError(
                f"cannot parse construction module {module_path}: {exc}"
            ) from exc
        classes = _public_classes(module_tree)
        if module_name not in imported_modules:
            violations.append(
                Violation(
                    rule="R5",
                    path=str(module_path),
                    line=1,
                    col=0,
                    message=(
                        f"construction module {module_name} is not imported by "
                        f"{registry_display}; unregistered constructions are "
                        "invisible to the facade"
                    ),
                )
            )
            continue
        for class_name in classes:
            if class_name not in imported_names:
                violations.append(
                    Violation(
                        rule="R5",
                        path=str(module_path),
                        line=1,
                        col=0,
                        message=(
                            f"public construction class {class_name} is not "
                            f"imported by {registry_display}; register it or "
                            "prefix it with '_'"
                        ),
                    )
                )

    for node in ast.walk(registry_tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "register"
        ):
            continue
        for arg in node.args:
            if not (
                isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Name)
                and arg.func.id == "ConstructionEntry"
            ):
                continue
            keywords = {kw.arg for kw in arg.keywords if kw.arg}
            if "params" not in keywords:
                violations.append(
                    Violation(
                        rule="R5",
                        path=registry_display,
                        line=arg.lineno,
                        col=arg.col_offset,
                        message=(
                            "register() entry declares no typed parameter "
                            "specs (params=...); the facade's uniform "
                            "validation contract needs them"
                        ),
                    )
                )
    return sorted(violations, key=lambda v: (v.path, v.line, v.col, v.rule))


# ----------------------------------------------------------------------
# Tree driver: per-file rules + project rules + the typing gate.
# ----------------------------------------------------------------------
def lint_tree(
    root: Path | str,
    rules: frozenset[str] | set[str] | None = None,
    pyproject: Path | str | None = None,
) -> tuple[list[Violation], int]:
    """Lint a package root the way ``python -m repro lint`` does.

    Runs the per-file rules over every ``*.py`` under ``root``, the registry
    rule R5 when ``root`` contains the ``constructions/`` + ``api/registry.py``
    layout, and the typing gate T1 over the modules the mypy ratchet in
    ``pyproject`` (when given) or the built-in default lists.

    Returns ``(violations, files_checked)``.
    """
    from repro.lint import typing_gate

    root_path = Path(root)
    if not root_path.exists():
        raise InvalidParameterError(f"lint root {root_path} does not exist")
    files = sorted(root_path.rglob("*.py")) if root_path.is_dir() else [root_path]
    wanted = None if rules is None else set(rules) | {"R0"}

    violations: list[Violation] = []
    for file_path in files:
        violations.extend(lint_file(file_path, wanted))

    constructions_dir = root_path / "constructions"
    registry_path = root_path / "api" / "registry.py"
    if (
        (wanted is None or "R5" in wanted)
        and constructions_dir.is_dir()
        and registry_path.is_file()
    ):
        violations.extend(check_registry(constructions_dir, registry_path))

    if wanted is None or "T1" in wanted:
        violations.extend(
            typing_gate.check_annotations_for_root(root_path, pyproject=pyproject)
        )

    return (
        sorted(violations, key=lambda v: (v.path, v.line, v.col, v.rule)),
        len(files),
    )

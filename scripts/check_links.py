#!/usr/bin/env python3
"""Link and name checker for the markdown docs and the source docstrings.

Verifies that every relative markdown link (``[text](target)``) points at a
file that exists in the repository; external ``http(s)`` links and pure
``#anchor`` links are skipped (the repository builds offline).  It also
resolves, by import plus ``getattr``, every backticked dotted ``repro.``
name in README.md and docs/, and every Sphinx cross-reference role
(``:class:`~repro.…```, ``:func:``, ``:meth:``, ``:mod:``, ``:data:``,
``:attr:``, ``:exc:``) in the docstrings under src/repro, so a renamed or
deleted object cannot linger in the prose.  Run from anywhere; exits
non-zero listing every broken link and unresolved name.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: A backticked span that starts with a dotted ``repro.`` name.
DOC_NAME_PATTERN = re.compile(r"`(repro(?:\.\w+)+)")
#: A cross-reference role's target, with or without ``~`` or a ``title <...>``.
ROLE_PATTERN = re.compile(
    r":(?:class|func|meth|mod|data|attr|exc):`(?:[^`<]*<)?~?(repro(?:\.\w+)+)"
)


def markdown_files(root: Path) -> list[Path]:
    files = [root / "README.md"]
    files.extend(sorted((root / "docs").glob("*.md")))
    files.extend(sorted(root.glob("*.md")))
    # Deduplicate while preserving order.
    seen: dict[Path, None] = {}
    for path in files:
        if path.exists():
            seen.setdefault(path.resolve(), None)
    return list(seen)


def check_file(path: Path, root: Path) -> list[str]:
    errors = []
    text = path.read_text(encoding="utf-8")
    for match in LINK_PATTERN.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (path.parent / relative).resolve()
        if not resolved.exists():
            line = text[: match.start()].count("\n") + 1
            errors.append(
                f"{path.relative_to(root)}:{line}: broken link -> {target}"
            )
    return errors


def resolves(name: str) -> bool:
    """Whether ``name`` is a module, or an attribute chain under one."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def check_names(path: Path, root: Path, pattern: re.Pattern) -> list[str]:
    errors = []
    text = path.read_text(encoding="utf-8")
    for match in pattern.finditer(text):
        if not resolves(match.group(1)):
            line = text[: match.start()].count("\n") + 1
            errors.append(
                f"{path.relative_to(root)}:{line}: unresolved name -> {match.group(1)}"
            )
    return errors


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    errors: list[str] = []
    checked = 0
    for path in markdown_files(root):
        errors.extend(check_file(path, root))
        checked += 1
    for path in [root / "README.md", *sorted((root / "docs").glob("*.md"))]:
        errors.extend(check_names(path, root, DOC_NAME_PATTERN))
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        errors.extend(check_names(path, root, ROLE_PATTERN))
    if errors:
        print("\n".join(errors))
        print(f"\n{len(errors)} broken link(s) or unresolved name(s)")
        return 1
    print(
        f"all relative links resolve across {checked} markdown file(s), and every "
        "repro name in the docs and docstrings imports"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

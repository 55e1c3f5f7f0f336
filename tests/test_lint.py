"""Tests for :mod:`repro.lint` — rules in both directions, pragma discipline,
the JSON report schema, the typing gate, and the self-check that ``src/repro``
itself lints clean.

Fixture sources live in ``tests/lint_fixtures/`` (see its README): one
deliberately-violating and one deliberately-clean file per rule, so every
rule is tested both for catching violations and for not flagging idiomatic
code.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.exceptions import InvalidParameterError
from repro.lint import (
    RULES,
    check_annotations,
    check_registry,
    lint_file,
    lint_source,
    lint_tree,
)
from repro.lint.cli import SCHEMA_VERSION, main
from repro.lint.typing_gate import (
    DEFAULT_RATCHET,
    check_annotations_for_root,
    ratchet_module_patterns,
)

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"


def rules_fired(violations) -> set[str]:
    return {violation.rule for violation in violations}


# ----------------------------------------------------------------------
# Rule catalogue sanity.
# ----------------------------------------------------------------------
class TestRuleCatalogue:
    def test_all_rules_present(self):
        assert set(RULES) == {"R0", "R1", "R2", "R3", "R4", "R5", "R6", "T1"}

    def test_rules_carry_documentation(self):
        for rule in RULES.values():
            assert rule.summary
            assert rule.rationale
            assert rule.scope in ("file", "hot-paths", "project", "ratchet")


# ----------------------------------------------------------------------
# R1 — determinism.
# ----------------------------------------------------------------------
class TestR1Determinism:
    def test_flags_every_untracked_entropy_source(self):
        violations = lint_file(FIXTURES / "r1_violation.py")
        assert rules_fired(violations) == {"R1"}
        # argless default_rng, default_rng(None), np.random.seed,
        # np.random.uniform, random.random
        assert len(violations) == 5

    def test_clean_seed_threading_passes(self):
        assert lint_file(FIXTURES / "r1_clean.py") == []

    def test_aliased_import_is_resolved(self):
        source = "from numpy.random import default_rng as mk\nmk()\n"
        assert rules_fired(lint_source(source, "x.py")) == {"R1"}

    def test_seeded_default_rng_is_legal(self):
        source = "import numpy as np\nnp.random.default_rng(7)\n"
        assert lint_source(source, "x.py") == []


# ----------------------------------------------------------------------
# R2 — mask-native hot paths.
# ----------------------------------------------------------------------
class TestR2MaskNative:
    def test_frozenset_traversal_in_hot_module(self):
        violations = lint_file(FIXTURES / "hot" / "core" / "bitset.py")
        assert rules_fired(violations) == {"R2"}
        assert len(violations) == 2

    def test_mask_native_hot_module_passes(self):
        assert lint_file(FIXTURES / "hot_clean" / "core" / "strategy.py") == []

    def test_rule_is_scoped_to_hot_modules_only(self):
        source = "def f(s):\n    return list(s.quorums())\n"
        assert lint_source(source, "repro/analysis/tables.py") == []
        assert rules_fired(lint_source(source, "repro/simulation/engine.py")) == {"R2"}
        assert rules_fired(lint_source(source, "repro/core/load.py")) == {"R2"}


# ----------------------------------------------------------------------
# R3 — exception taxonomy.
# ----------------------------------------------------------------------
class TestR3ExceptionTaxonomy:
    def test_bare_builtin_raises_are_flagged(self):
        violations = lint_file(FIXTURES / "r3_violation.py")
        assert rules_fired(violations) == {"R3"}
        assert len(violations) == 2

    def test_taxonomy_raises_pass(self):
        assert lint_file(FIXTURES / "r3_clean.py") == []

    def test_bare_reraise_is_legal(self):
        source = "try:\n    pass\nexcept ValueError:\n    raise\n"
        assert lint_source(source, "x.py") == []

    def test_raw_oserror_in_storage_layer_is_flagged(self):
        source = "raise OSError('disk full')\n"
        violations = lint_source(source, "repro/storage/wal.py")
        assert rules_fired(violations) == {"R3"}
        assert "StorageError" in violations[0].message

    def test_raw_ioerror_in_storage_layer_is_flagged(self):
        assert rules_fired(
            lint_source("raise IOError('boom')\n", "src/repro/storage/store.py")
        ) == {"R3"}

    def test_raw_oserror_outside_storage_layer_is_legal(self):
        assert lint_source("raise OSError('fine here')\n", "repro/service/wire.py") == []

    def test_storage_error_raise_in_storage_layer_is_legal(self):
        source = (
            "from repro.exceptions import StorageError\n"
            "raise StorageError('wrapped')\n"
        )
        assert lint_source(source, "repro/storage/snapshot.py") == []


# ----------------------------------------------------------------------
# R4 — float discipline.
# ----------------------------------------------------------------------
class TestR4FloatEquality:
    def test_exact_float_comparisons_are_flagged(self):
        violations = lint_file(FIXTURES / "r4_violation.py")
        assert rules_fired(violations) == {"R4"}
        assert len(violations) == 3

    def test_tolerance_helpers_and_int_compares_pass(self):
        assert lint_file(FIXTURES / "r4_clean.py") == []

    def test_float_ordering_comparisons_are_legal(self):
        assert lint_source("ok = x <= 1.0\n", "x.py") == []


# ----------------------------------------------------------------------
# R6 — no bare print.
# ----------------------------------------------------------------------
class TestR6NoBarePrint:
    def test_library_prints_are_flagged(self):
        violations = lint_file(FIXTURES / "r6_violation.py")
        assert rules_fired(violations) == {"R6"}
        assert len(violations) == 2

    def test_returned_values_and_print_methods_pass(self):
        assert lint_file(FIXTURES / "r6_clean.py") == []

    @pytest.mark.parametrize(
        ("path", "fires"),
        [
            ("src/repro/api/cli.py", False),
            ("src/repro/lint/cli.py", False),
            ("src/repro/service/harness.py", True),
            ("src/repro/api/workloads.py", True),
        ],
    )
    def test_only_the_command_line_front_ends_may_print(self, path, fires):
        assert bool(lint_source("print('hello')\n", path)) is fires


# ----------------------------------------------------------------------
# R0 — pragma discipline.
# ----------------------------------------------------------------------
class TestR0PragmaDiscipline:
    def test_justified_pragma_suppresses_its_line(self):
        assert lint_file(FIXTURES / "pragma_ok.py") == []

    def test_missing_justification_voids_the_suppression(self):
        violations = lint_file(FIXTURES / "pragma_missing_justification.py")
        assert rules_fired(violations) == {"R0", "R1"}

    def test_unknown_rule_in_pragma(self):
        violations = lint_file(FIXTURES / "pragma_unknown_rule.py")
        assert rules_fired(violations) == {"R0", "R1"}
        r0 = [v for v in violations if v.rule == "R0"]
        assert "unknown rule" in r0[0].message

    def test_pragma_only_covers_its_own_line(self):
        source = (
            "import numpy as np\n"
            "a = np.random.default_rng()  # repro-lint: disable=R1 -- fixture\n"
            "b = np.random.default_rng()\n"
        )
        violations = lint_source(source, "x.py")
        assert [v.line for v in violations] == [3]

    def test_pragma_in_string_literal_is_not_a_pragma(self):
        source = 'doc = "# repro-lint: disable=R1"\n'
        assert lint_source(source, "x.py") == []

    def test_r0_runs_even_under_rule_filter(self):
        source = "x = 1  # repro-lint: disable=R1\n"
        violations = lint_source(source, "x.py", rules={"R4"})
        assert rules_fired(violations) == {"R0"}


# ----------------------------------------------------------------------
# R5 — registry completeness.
# ----------------------------------------------------------------------
class TestR5Registry:
    def test_clean_registry_layout_passes(self):
        root = FIXTURES / "registry_ok"
        violations = check_registry(
            root / "constructions", root / "api" / "registry.py", package="fixturepkg.constructions"
        )
        assert violations == []

    def test_violating_registry_layout(self):
        root = FIXTURES / "registry_bad"
        violations = check_registry(
            root / "constructions", root / "api" / "registry.py", package="fixturepkg.constructions"
        )
        assert rules_fired(violations) == {"R5"}
        messages = "\n".join(v.message for v in violations)
        assert "fixturepkg.constructions.orphan" in messages  # module not imported
        assert "Hub" in messages  # public class not imported
        assert "params" in messages  # entry without typed parameter specs
        assert len(violations) == 3

    def test_real_registry_is_complete(self):
        violations = check_registry(
            SRC_ROOT / "constructions", SRC_ROOT / "api" / "registry.py"
        )
        assert violations == []


# ----------------------------------------------------------------------
# T1 — the typing gate.
# ----------------------------------------------------------------------
class TestT1TypingGate:
    def test_annotation_gaps_are_flagged(self):
        violations = check_annotations([FIXTURES / "t1_violation.py"])
        assert rules_fired(violations) == {"T1"}
        messages = "\n".join(v.message for v in violations)
        assert "return type" in messages
        assert "parameter 'n'" in messages
        assert "parameter **kwargs" in messages
        assert len(violations) == 3

    def test_fully_annotated_surface_passes(self):
        assert check_annotations([FIXTURES / "t1_clean.py"]) == []

    def test_ratchet_patterns_come_from_pyproject(self):
        patterns = ratchet_module_patterns(REPO_ROOT / "pyproject.toml")
        assert "repro.core.*" in patterns
        assert "repro.api.*" in patterns
        assert "repro.lint.*" in patterns
        assert "repro.exceptions" in patterns

    def test_ratchet_falls_back_without_pyproject(self):
        assert ratchet_module_patterns(None) == DEFAULT_RATCHET

    def test_non_package_root_is_not_ratcheted(self, tmp_path):
        (tmp_path / "loose.py").write_text("def f(x):\n    return x\n")
        assert check_annotations_for_root(tmp_path) == []


# ----------------------------------------------------------------------
# JSON report schema (locked: bump SCHEMA_VERSION to change it).
# ----------------------------------------------------------------------
class TestJsonSchema:
    def run_json(self, argv, capsys):
        status = main(argv + ["--json"])
        return status, json.loads(capsys.readouterr().out)

    def test_schema_keys_and_types(self, capsys):
        status, report = self.run_json([str(FIXTURES / "r1_violation.py")], capsys)
        assert status == 1
        assert list(report) == [
            "schema_version",
            "root",
            "rules_run",
            "files_checked",
            "ok",
            "counts",
            "violations",
        ]
        assert report["schema_version"] == SCHEMA_VERSION == 1
        assert report["ok"] is False
        assert report["files_checked"] == 1
        assert report["counts"] == {"R1": 5}
        for violation in report["violations"]:
            assert list(violation) == ["rule", "path", "line", "col", "message"]

    def test_violations_are_sorted_and_stable(self, capsys):
        _, first = self.run_json([str(FIXTURES)], capsys)
        _, second = self.run_json([str(FIXTURES)], capsys)
        assert first == second
        keys = [
            (v["path"], v["line"], v["col"], v["rule"]) for v in first["violations"]
        ]
        assert keys == sorted(keys)

    def test_clean_report(self, capsys):
        status, report = self.run_json([str(FIXTURES / "r1_clean.py")], capsys)
        assert status == 0
        assert report["ok"] is True
        assert report["counts"] == {}
        assert report["violations"] == []


# ----------------------------------------------------------------------
# CLI behaviour.
# ----------------------------------------------------------------------
class TestCli:
    def test_exit_nonzero_on_violation_fixture(self):
        assert main([str(FIXTURES / "r4_violation.py")]) == 1

    def test_exit_zero_on_clean_fixture(self):
        assert main([str(FIXTURES / "r4_clean.py")]) == 0

    def test_unknown_rule_is_a_usage_error(self, capsys):
        assert main(["--rule", "R99"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_is_a_usage_error(self, capsys):
        assert main(["does/not/exist.py"]) == 2

    def test_rule_filter_limits_what_fires(self, capsys):
        status = main([str(FIXTURES / "r1_violation.py"), "--rule", "R4", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert status == 0
        assert report["rules_run"] == ["R0", "R4"]
        assert report["violations"] == []

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out

    def test_output_file_for_ci_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "lint.json"
        status = main([str(FIXTURES / "r3_violation.py"), "--output", str(artifact)])
        assert status == 1
        report = json.loads(artifact.read_text())
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["counts"] == {"R3": 2}

    def test_unparseable_python_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        assert main([str(bad)]) == 2

    def test_lint_source_raises_on_syntax_error(self):
        with pytest.raises(InvalidParameterError):
            lint_source("def broken(:\n", "bad.py")


# ----------------------------------------------------------------------
# The self-check: the shipped library obeys its own contracts.
# ----------------------------------------------------------------------
class TestSelfCheck:
    def test_src_repro_is_violation_free(self):
        violations, files_checked = lint_tree(
            SRC_ROOT, pyproject=REPO_ROOT / "pyproject.toml"
        )
        rendered = "\n".join(v.render() for v in violations)
        assert violations == [], f"src/repro lint violations:\n{rendered}"
        assert files_checked > 60

    def test_cli_self_check_exits_zero(self):
        assert main([str(SRC_ROOT), "--pyproject", str(REPO_ROOT / "pyproject.toml")]) == 0

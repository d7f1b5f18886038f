"""Tests for repro.lint: rule fixtures, suppression hygiene, engine, CLI."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.exceptions import ReproError
from repro.lint import (
    ALL_RULES,
    Finding,
    LintError,
    PARSE_ERROR_CODE,
    SUPPRESSION_CODE,
    counts_by_code,
    discover_files,
    lint_paths,
    lint_source,
    select_rules,
)

FIXTURES = Path(__file__).parent / "lint_fixtures"

#: Synthetic paths under which each fixture is linted: path-scoped rules
#: (RPR103 hot packages, RPR104 store module, RPR106 library) key off them.
FIXTURE_PATHS = {
    "rpr101": "src/repro/scenarios/fixture.py",
    "rpr102": "src/repro/analysis/fixture.py",
    "rpr103": "src/repro/sat/fixture.py",
    "rpr104_bad": "src/repro/scenarios/fixture.py",
    "rpr104_good": "src/repro/store/store.py",
    "rpr105": "src/repro/scenarios/fixture.py",
    "rpr106": "src/repro/analysis/fixture.py",
    "rpr107": "src/repro/einsim/fused.py",
}


def rule_for(code):
    (rule,) = [rule for rule in ALL_RULES if rule.code == code]
    return rule


def lint_fixture(name, code):
    source = (FIXTURES / f"{name}.py").read_text(encoding="utf-8")
    path = FIXTURE_PATHS.get(name) or FIXTURE_PATHS[name.split("_")[0]]
    return lint_source(source, path, [rule_for(code)])


class TestRuleFixtures:
    """Every rule: at least one positive and one negative fixture."""

    @pytest.mark.parametrize(
        "code",
        ["RPR101", "RPR102", "RPR103", "RPR104", "RPR105", "RPR106", "RPR107"],
    )
    def test_bad_fixture_is_flagged(self, code):
        findings = lint_fixture(f"{code.lower()}_bad", code)
        assert findings, f"{code} positive fixture produced no findings"
        assert {finding.code for finding in findings} == {code}

    @pytest.mark.parametrize(
        "code",
        ["RPR101", "RPR102", "RPR103", "RPR104", "RPR105", "RPR106", "RPR107"],
    )
    def test_good_fixture_is_clean(self, code):
        findings = lint_fixture(f"{code.lower()}_good", code)
        assert findings == [], [finding.format() for finding in findings]

    def test_rpr101_counts(self):
        findings = lint_fixture("rpr101_bad", "RPR101")
        # for-loop, list(), join, comprehension, listdir loop, glob list
        assert len(findings) == 6

    def test_rpr102_flags_every_entropy_source(self):
        findings = lint_fixture("rpr102_bad", "RPR102")
        messages = " ".join(finding.message for finding in findings)
        for needle in ("time.time", "uuid", "Mersenne", "hash()", "seed"):
            assert needle in messages
        assert len(findings) == 10

    def test_rpr103_only_binds_in_hot_packages(self):
        source = (FIXTURES / "rpr103_bad.py").read_text(encoding="utf-8")
        outside = lint_source(
            source, "src/repro/scenarios/fixture.py", [rule_for("RPR103")]
        )
        assert outside == []

    def test_rpr105_counts(self):
        findings = lint_fixture("rpr105_bad", "RPR105")
        # lambda, bound method, nested def, nested pool, processes=4
        assert len(findings) == 5

    def test_rpr106_not_applied_outside_library(self):
        source = (FIXTURES / "rpr106_bad.py").read_text(encoding="utf-8")
        outside = lint_source(source, "tools/script.py", [rule_for("RPR106")])
        assert outside == []

    def test_rpr107_counts(self):
        findings = lint_fixture("rpr107_bad", "RPR107")
        # np.unpackbits, unpack_rows, aliased unpack_rows
        assert len(findings) == 3

    def test_rpr107_only_binds_in_fused_modules(self):
        source = (FIXTURES / "rpr107_bad.py").read_text(encoding="utf-8")
        for path in (
            "src/repro/einsim/engine.py",  # staged kernels may unpack
            "src/repro/analysis/figures.py",
            "tools/script.py",
        ):
            assert lint_source(source, path, [rule_for("RPR107")]) == []
        fused = lint_source(
            source, "src/repro/einsim/fused.py", [rule_for("RPR107")]
        )
        assert {finding.code for finding in fused} == {"RPR107"}

    def test_rpr103_binds_in_fused_module(self):
        # The fused module lives under einsim/, an RPR103 hot package: an
        # unguarded tracer call there must be flagged.
        source = (FIXTURES / "rpr103_bad.py").read_text(encoding="utf-8")
        findings = lint_source(
            source, "src/repro/einsim/fused.py", [rule_for("RPR103")]
        )
        assert findings and {finding.code for finding in findings} == {"RPR103"}


class TestSuppression:
    def test_suppression_with_reason_silences_finding(self):
        source = (
            "import time\n"
            "t = time.time()  # repro-lint: ignore[RPR102] -- wall clock wanted here\n"
        )
        findings = lint_source(source, "src/repro/x.py", [rule_for("RPR102")])
        assert findings == []

    def test_suppression_without_reason_is_flagged(self):
        source = "import time\nt = time.time()  # repro-lint: ignore[RPR102]\n"
        findings = lint_source(source, "src/repro/x.py", [rule_for("RPR102")])
        assert [finding.code for finding in findings] == [SUPPRESSION_CODE]
        assert "no reason" in findings[0].message

    def test_unused_suppression_is_flagged(self):
        source = "x = 1  # repro-lint: ignore[RPR102] -- stale leftover\n"
        findings = lint_source(source, "src/repro/x.py", [rule_for("RPR102")])
        assert [finding.code for finding in findings] == [SUPPRESSION_CODE]
        assert "unused suppression" in findings[0].message

    def test_unused_check_skipped_for_inactive_rules(self):
        source = "x = 1  # repro-lint: ignore[RPR104] -- rule not selected\n"
        findings = lint_source(source, "src/repro/x.py", [rule_for("RPR102")])
        assert findings == []

    def test_multi_code_suppression(self):
        source = (
            "import time\n"
            "names = {'a', 'b'}\n"
            "t = [time.time() for n in names]"
            "  # repro-lint: ignore[RPR101, RPR102] -- demo of both\n"
        )
        findings = lint_source(
            source, "src/repro/x.py", [rule_for("RPR101"), rule_for("RPR102")]
        )
        assert findings == []

    def test_hash_comment_in_string_is_not_a_suppression(self):
        source = (
            'marker = "# repro-lint: ignore[RPR102] -- not a comment"\n'
            "import time\n"
            "t = time.time()\n"
        )
        findings = lint_source(source, "src/repro/x.py", [rule_for("RPR102")])
        assert [finding.code for finding in findings] == ["RPR102"]

    def test_no_suppression_checks_flag(self):
        source = "x = 1  # repro-lint: ignore[RPR102] -- stale\n"
        findings = lint_source(
            source,
            "src/repro/x.py",
            [rule_for("RPR102")],
            check_suppressions=False,
        )
        assert findings == []


class TestEngine:
    def test_syntax_error_becomes_parse_finding(self):
        findings = lint_source("def broken(:\n", "src/repro/x.py", ALL_RULES)
        assert [finding.code for finding in findings] == [PARSE_ERROR_CODE]

    def test_findings_sorted_and_formatted(self):
        finding = Finding(
            path="src/x.py", line=3, col=4, code="RPR101", message="msg"
        )
        assert finding.format() == "src/x.py:3:4: RPR101 msg"
        assert finding.to_dict()["line"] == 3

    def test_counts_by_code_sorted(self):
        findings = [
            Finding("p", 1, 0, "RPR106", "m"),
            Finding("p", 2, 0, "RPR101", "m"),
            Finding("p", 3, 0, "RPR106", "m"),
        ]
        assert counts_by_code(findings) == {"RPR101": 1, "RPR106": 2}

    def test_select_rules_filters(self):
        chosen = select_rules(ALL_RULES, select=["RPR101", "RPR106"])
        assert [rule.code for rule in chosen] == ["RPR101", "RPR106"]
        chosen = select_rules(ALL_RULES, ignore=["RPR103"])
        assert "RPR103" not in [rule.code for rule in chosen]

    def test_select_rules_unknown_code_raises(self):
        with pytest.raises(LintError):
            select_rules(ALL_RULES, select=["RPR999"])
        with pytest.raises(ReproError):
            select_rules(ALL_RULES, ignore=["bogus"])

    def test_discover_files_sorted_and_deduplicated(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        sub = tmp_path / "pkg"
        sub.mkdir()
        (sub / "c.py").write_text("x = 1\n")
        files = discover_files([str(tmp_path), str(tmp_path / "a.py")])
        assert [f.name for f in files] == ["a.py", "b.py", "c.py"]

    def test_discover_files_missing_path_raises(self, tmp_path):
        with pytest.raises(LintError):
            discover_files([str(tmp_path / "absent")])

    def test_lint_paths_counts_files(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        findings, files_checked = lint_paths([str(tmp_path)], ALL_RULES)
        assert findings == []
        assert files_checked == 1


class TestCli:
    def test_clean_path_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["lint", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one_with_summary(self, capsys):
        code = main(["lint", str(FIXTURES / "rpr102_bad.py")])
        out = capsys.readouterr().out
        assert code == 1
        assert "RPR102" in out
        assert "finding(s)" in out

    def test_json_report_is_machine_readable(self, capsys):
        code = main(["lint", "--json", str(FIXTURES / "rpr102_bad.py")])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["files_checked"] == 1
        assert report["counts"]["RPR102"] == len(report["findings"])
        assert all(f["code"] for f in report["findings"])

    def test_select_limits_rules(self, capsys):
        code = main(
            ["lint", "--select", "RPR101", str(FIXTURES / "rpr102_bad.py")]
        )
        capsys.readouterr()
        assert code == 0  # entropy fixture has no iteration findings

    def test_unknown_code_exits_two(self, capsys):
        assert main(["lint", "--select", "RPR999", "src"]) == 2
        assert "unknown rule code" in capsys.readouterr().out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "absent")]) == 2
        assert "repro lint:" in capsys.readouterr().out

    def test_explain_prints_rationale(self, capsys):
        assert main(["lint", "--explain", "RPR101"]) == 0
        out = capsys.readouterr().out
        assert "RPR101" in out and "sorted" in out

    def test_explain_unknown_code_exits_two(self, capsys):
        assert main(["lint", "--explain", "RPR999"]) == 2
        assert "known codes" in capsys.readouterr().out

    def test_every_rule_has_explanation_and_fixtures(self):
        for rule in ALL_RULES:
            assert rule.code.startswith("RPR1")
            assert rule.name and rule.summary and rule.explanation
            assert (FIXTURES / f"{rule.code.lower()}_bad.py").is_file()
            assert (FIXTURES / f"{rule.code.lower()}_good.py").is_file()

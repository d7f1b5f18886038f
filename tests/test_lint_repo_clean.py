"""The tree itself must satisfy its own linter: `repro lint src perfbench`.

This is the in-tree version of the CI gate — a rule regression or a new
violation anywhere in the library or the repository benchmark fails the
ordinary test suite, not just the lint job.
"""

import os
from pathlib import Path

from repro.lint import ALL_RULES, lint_paths

REPO_ROOT = Path(__file__).resolve().parent.parent
LINTED = [REPO_ROOT / "src", REPO_ROOT / "perfbench"]


def test_repo_is_lint_clean():
    findings, files_checked = lint_paths([str(path) for path in LINTED], ALL_RULES)
    python_files = sum(
        name.endswith(".py")
        for root in LINTED
        for _, _, names in os.walk(root)
        for name in names
    )
    assert files_checked == python_files > 0  # the walk found the real tree
    assert findings == [], "\n" + "\n".join(f.format() for f in findings)


def test_lint_package_lints_itself_strictly():
    """repro.lint dogfoods every rule with zero suppression comments."""
    from repro.lint.suppress import parse_suppressions

    lint_dir = REPO_ROOT / "src" / "repro" / "lint"
    findings, _ = lint_paths([str(lint_dir)], ALL_RULES)
    assert findings == [], "\n" + "\n".join(f.format() for f in findings)
    for path in sorted(lint_dir.rglob("*.py")):
        assert parse_suppressions(path.read_text(encoding="utf-8")) == []

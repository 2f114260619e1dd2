"""Documentation must not drift: links resolve, fenced snippets run, names exist.

Delegates to :mod:`tools.check_docs` so the test suite and the CI workflow
enforce exactly the same rules.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_spec)
assert _spec.loader is not None
_spec.loader.exec_module(check_docs)


def test_readme_exists_with_quickstart():
    readme = REPO_ROOT / "README.md"
    assert readme.exists()
    text = readme.read_text()
    assert "Quickstart" in text
    assert "PYTHONPATH=src python -m pytest" in text


def test_all_relative_links_resolve():
    # The archive under docs/ is part of the surface, not a dumping ground.
    assert REPO_ROOT / "docs" / "archive" / "pre-harness.md" in check_docs.DOC_FILES
    assert check_docs.check_links() == []


def test_fenced_snippets_carry_doctests():
    """The README quickstart must stay executable (non-empty doctest set)."""
    blocks = check_docs.doctest_blocks(REPO_ROOT / "README.md")
    assert blocks, "README.md lost its doctest-able quickstart snippets"


def test_fenced_doctests_pass():
    assert check_docs.check_doctests() == []


def test_anchor_extraction_follows_github_slugs():
    assert check_docs.heading_anchor("Architecture notes") == "architecture-notes"
    assert (
        check_docs.heading_anchor("The `BENCH_PR<n>.json` convention")
        == "the-bench_prnjson-convention"
    )
    assert check_docs.heading_anchor("## is not stripped twice") != ""


def test_broken_anchor_is_reported(tmp_path):
    page = tmp_path / "page.md"
    page.write_text("# Real section\n\nSee [gone](#renamed-away) and "
                    "[ok](#real-section).\n")
    other = tmp_path / "other.md"
    other.write_text("Link [there](page.md#real-section) and "
                     "[broken](page.md#no-such-heading).\n")
    problems = check_docs.check_links([page, other])
    assert len(problems) == 2
    assert any("renamed-away" in problem for problem in problems)
    assert any("no-such-heading" in problem for problem in problems)


def test_duplicate_headings_get_suffix_anchors(tmp_path):
    page = tmp_path / "dup.md"
    page.write_text("# Setup\n\n# Setup\n\n[first](#setup) [second](#setup-1)\n")
    assert check_docs.check_links([page]) == []


def test_backticked_repro_names_resolve():
    names = [
        name for path in check_docs.PRESENT_TENSE_FILES for name in check_docs.dotted_names(path)
    ]
    assert len(names) > 20, "the name check lost its subjects"
    assert check_docs.check_names() == []


def test_a_name_that_does_not_exist_is_reported(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "`repro.ivm.FIVM(...)` and `repro.kernels.numpy_backend` exist; "
        "`repro.kernels.no_such_function()` and `repro.no_such_module.Thing` do not, "
        "and repro.unquoted.prose is not looked at.\n"
    )
    assert check_docs.dotted_names(page) == [
        "repro.ivm.FIVM",
        "repro.kernels.numpy_backend",
        "repro.kernels.no_such_function",
        "repro.no_such_module.Thing",
    ]
    problems = check_docs.check_names([page])
    assert len(problems) == 2
    assert "no_such_function" in problems[0] and "no_such_module" in problems[1]

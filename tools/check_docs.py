"""Documentation consistency checks: link integrity and runnable snippets.

Run as a script (CI does, and ``tests/test_docs.py`` calls the same
functions) to fail the build when the documentation drifts from the code::

    PYTHONPATH=src python tools/check_docs.py

Three checks:

- **link check** — every relative link target in ``README.md`` and
  ``docs/**/*.md`` must exist in the repository (external ``http(s)`` links are
  skipped), and every link *anchor* — same-file ``#section`` fragments and
  cross-file ``page.md#section`` fragments alike — must match a heading of
  the target markdown file (GitHub slug rules, any heading level), so
  renaming a section fails the build instead of silently breaking its
  inbound links;
- **doctest check** — every fenced ``python`` code block that contains
  interpreter-prompt lines (``>>>``) is executed with :mod:`doctest`;
  consecutive blocks of one file share a namespace, so a snippet can build
  on the previous one the way the README quickstart does;
- **name check** — every dotted name starting ``repro.`` inside backticks in
  ``README.md`` and ``docs/architecture.md`` must resolve by import plus
  ``getattr``, so deleting or renaming a module, class or function fails the
  build until the prose that names it is brought up to date.
  (``docs/benchmarks.md`` is sectioned per PR and names what existed then.)
"""

from __future__ import annotations

import doctest
import importlib
import re
import sys
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The documentation surface under check.
DOC_FILES = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("**/*.md"))]

#: The pages that describe the code as it is now (see :func:`check_names`).
PRESENT_TENSE_FILES = [REPO_ROOT / "README.md", REPO_ROOT / "docs" / "architecture.md"]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
_HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*$", re.MULTILINE)
_ANCHOR_DROP = re.compile(r"[^\w\- ]")
_DOTTED_NAME = re.compile(r"`(repro(?:\.\w+)+)")


def heading_anchor(heading: str) -> str:
    """The GitHub-style anchor slug of one markdown heading."""
    text = heading.replace("`", "").strip().lower()
    text = _ANCHOR_DROP.sub("", text)
    return text.replace(" ", "-")


def markdown_anchors(path: Path) -> set:
    """All heading anchors of one markdown file (every ``#``..``######`` level).

    Duplicate headings get GitHub's ``-1``/``-2`` suffixes in addition to the
    base slug, so links to either form resolve.
    """
    anchors: set = set()
    counts: dict = {}
    for match in _HEADING.finditer(path.read_text()):
        slug = heading_anchor(match.group(2))
        seen = counts.get(slug, 0)
        counts[slug] = seen + 1
        anchors.add(slug if seen == 0 else f"{slug}-{seen}")
    return anchors


def _display(path: Path) -> str:
    """Repo-relative rendering of ``path`` (plain name outside the repo)."""
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return path.name


def check_links(paths: List[Path] = None) -> List[str]:
    """Broken link targets and anchors, as ``file: problem`` strings."""
    problems: List[str] = []
    anchor_cache: dict = {}

    def anchors_of(target_path: Path) -> set:
        resolved = target_path.resolve()
        if resolved not in anchor_cache:
            anchor_cache[resolved] = markdown_anchors(resolved)
        return anchor_cache[resolved]

    for path in paths or DOC_FILES:
        if not path.exists():
            problems.append(f"{_display(path)}: file missing")
            continue
        for target in _LINK.findall(path.read_text()):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            base, _hash, fragment = target.partition("#")
            if base:
                resolved = (path.parent / base).resolve()
                if not resolved.exists():
                    problems.append(
                        f"{_display(path)}: broken link {target}"
                    )
                    continue
            else:
                resolved = path
            if fragment and resolved.suffix == ".md":
                if fragment.lower() not in anchors_of(resolved):
                    problems.append(
                        f"{_display(path)}: broken anchor {target} "
                        f"(no such heading in {resolved.name})"
                    )
    return problems


def doctest_blocks(path: Path) -> List[str]:
    """The fenced python blocks of one file that carry doctest prompts."""
    if not path.exists():
        return []
    return [
        block for block in _FENCE.findall(path.read_text()) if ">>>" in block
    ]


def check_doctests(paths: List[Path] = None) -> List[str]:
    """Doctest failures across all documentation files, as readable strings."""
    failures: List[str] = []
    runner = doctest.DocTestRunner(verbose=False, optionflags=doctest.ELLIPSIS)
    parser = doctest.DocTestParser()
    for path in paths or DOC_FILES:
        namespace: dict = {}
        for index, block in enumerate(doctest_blocks(path)):
            test = parser.get_doctest(
                block, namespace, f"{path.name}[{index}]", str(path), 0
            )
            result = runner.run(
                test, out=lambda text: failures.append(text.rstrip()), clear_globs=False
            )
            # get_doctest copies the namespace; carry definitions forward so
            # later blocks of the same file can build on earlier ones.
            namespace.update(test.globs)
            if result.failed:
                failures.append(
                    f"{path.relative_to(REPO_ROOT)}: snippet {index} failed "
                    f"({result.failed} of {result.attempted} examples)"
                )
    return failures


def dotted_names(path: Path) -> List[str]:
    """The distinct backticked ``repro.…`` names of one file, in order of appearance."""
    if not path.exists():
        return []
    return list(dict.fromkeys(_DOTTED_NAME.findall(path.read_text())))


def resolves(name: str) -> bool:
    """Whether ``name`` is an importable module or an attribute chain under one."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for attribute in parts[split:]:
                target = getattr(target, attribute)
        except AttributeError:
            return False
        return True
    return False


def check_names(paths: List[Path] = None) -> List[str]:
    """Backticked ``repro.…`` names that no longer exist, as ``file: problem`` strings."""
    return [
        f"{_display(path)}: `{name}` does not resolve"
        for path in paths or PRESENT_TENSE_FILES
        for name in dotted_names(path)
        if not resolves(name)
    ]


def main() -> int:
    problems = check_links()
    problems.extend(check_doctests())
    problems.extend(check_names())
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} documentation problem(s)", file=sys.stderr)
        return 1
    print(f"docs ok: {len(DOC_FILES)} files checked")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""``tools/reachability.py``: the call recorder and the unreached-function report.

The full run (harness smokes, figure scripts, examples) takes minutes and is
not repeated here; these pin the parts its report is built from.
"""

from __future__ import annotations

import importlib.util
import sys
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "reachability", REPO_ROOT / "tools" / "reachability.py"
)
reachability = importlib.util.module_from_spec(_spec)
assert _spec.loader is not None
_spec.loader.exec_module(reachability)


def test_functions_count_lines_from_the_first_decorator(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import functools\n"  # 1
        "\n"  # 2
        "def plain():\n"  # 3
        "    def nested():\n"  # 4
        "        return 1\n"  # 5
        "    return nested()\n"  # 6
        "\n"  # 7
        "class Box:\n"  # 8
        "    @staticmethod\n"  # 9
        "    @functools.lru_cache\n"  # 10
        "    def make():\n"  # 11
        "        return Box()\n"  # 12
        "\n"  # 13
        "    class Inner:\n"  # 14
        "        async def wait(self):\n"  # 15
        "            pass\n"  # 16
    )
    # A nested function counts with the one it is defined in, so only the
    # outer one is listed.
    assert list(reachability.functions(source)) == [
        ("plain", 3, 4),
        ("Box.make", 9, 4),
        ("Box.Inner.wait", 15, 2),
    ]


def test_unreached_lists_exactly_the_functions_not_called():
    path = reachability.PACKAGE / "sharding" / "router.py"
    found = list(reachability.functions(path))
    assert len(found) >= 2
    (first_name, first_line, first_lines), rest = found[0], found[1:]
    report = reachability.unreached({(str(path), first_line)})
    total, missed, names = report["repro.sharding.router"]
    assert total == sum(lines for _, _, lines in found)
    assert missed == total - first_lines
    assert names == [(name, lines) for name, _, lines in rest]
    assert first_name not in [name for name, _ in names]
    # A package's __init__ reports under the package's own name.
    assert "repro.sharding" in report and "repro.sharding.__init__" not in report


def _traced():
    return 1


def _after():
    return 2


def _outer_hook(_frame, _event, _arg):
    return None


def test_profiled_records_calls_in_threads_and_unsets_its_hook():
    # Whatever profiles this run (a trace of the suite itself) is set aside,
    # so that the first block starts with no hook at all, and put back last.
    saved, saved_threads = sys.getprofile(), threading.getprofile()
    sys.setprofile(None)
    threading.setprofile(None)
    try:
        called = set()
        with reachability._profiled(called):
            # Only the thread calls _traced: seeing it proves the thread hook.
            worker = threading.Thread(target=_traced)
            worker.start()
            worker.join()
        _after()
        assert (_traced.__code__.co_filename, _traced.__code__.co_firstlineno) in called
        assert (_after.__code__.co_filename, _after.__code__.co_firstlineno) not in called
        assert sys.getprofile() is None

        # An outer hook is put back, not cleared, for this thread and new ones.
        sys.setprofile(_outer_hook)
        threading.setprofile(_outer_hook)
        inner = set()
        with reachability._profiled(inner):
            _traced()
        assert (_traced.__code__.co_filename, _traced.__code__.co_firstlineno) in inner
        assert sys.getprofile() is _outer_hook
        assert threading.getprofile() is _outer_hook
    finally:
        sys.setprofile(saved)
        threading.setprofile(saved_threads)

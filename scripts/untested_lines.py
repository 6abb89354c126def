#!/usr/bin/env python3
"""Print every executable line of ``src/hgm`` that no test runs.

Runs pytest in this process under a line tracer (``sys.settrace`` and
``threading.settrace``) limited to the files of ``src/hgm``, then prints
each executable line that never ran as ``file:line: source``, sorted by
file and line. Executable lines are the line numbers of every code object
compiled from each file, so a blank line, a comment or a docstring never
shows. Arguments go to pytest unchanged; with none it runs the whole suite:

    python3 scripts/untested_lines.py
    python3 scripts/untested_lines.py tests/test_stats.py -x

The tracer makes the suite two to three times slower. The exit code is
pytest's.
"""

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hgm"


def executable_lines(path: Path) -> set:
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran = {}

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        missed = executable_lines(path) - ran.get(str(path), set())
        for line in sorted(missed):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

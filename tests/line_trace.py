"""List the lines of ``src/coplan`` that no test executes.

    python tests/line_trace.py                      # the whole suite
    python tests/line_trace.py tests/test_protocol.py -k offer

Runs pytest in this process under ``sys.settrace`` (and ``threading.settrace``,
so agent-server session threads count) with the given arguments, by default
the ``tests`` directory.  It then prints, per module, each line that holds
code (a line of some compiled code object) but never ran, with its text,
and the pytest exit status last.  Child processes, such as the ``python -O``
self-check test, are not traced, so the lines only they run are listed too.
The trace slows the suite down several times over; the runtime budgets of
the acceptance suite can then fail, which does not change the list.  The
script is not a test module, so pytest does not collect it.
"""

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coplan"


def code_lines(path):
    """Line numbers that hold code in the module at ``path``."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no source line
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv):
    prefix = str(PACKAGE)
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            ran.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        unrun = sorted(line for line in code_lines(path) if (str(path), line) not in ran)
        total += len(unrun)
        if unrun:
            text = path.read_text().splitlines()
            print(f"{path.relative_to(ROOT)}: {len(unrun)} lines never ran")
            for line in unrun:
                print(f"  {line:4d}  {text[line - 1].strip()}")
    print(f"{total} lines never ran; pytest exit status {int(status)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

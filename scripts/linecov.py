"""List the statements of src/bilop that no in-process test executed: a stdlib line probe for pytest.

Usage: PYTHONPATH=src:scripts python -m pytest -p linecov -p no:cacheprovider [pytest args]

Loaded as a pytest plugin, this module installs a sys.settrace hook (and threading.settrace, for threads
started later) as soon as pytest imports it, which is before any conftest imports bilop, so the statements
that run at import count too. It records every line executed in a file of src/bilop and, at the end of the
session, prints per file the statement lines that nothing executed, as ranges. The statement lines of a file
are the lines that its compiled code objects, nested ones included, attribute instructions to (co_lines).

Only the pytest process is traced. The CLI tests that run bilop in a child process (`python -m bilop ...`)
execute code this probe does not see, so a line that only they reach is listed as missed. Frames without a
file name, which appear at interpreter shutdown, are skipped. Tracing makes the suite a few times slower.
coverage.py would do the same job; this probe needs nothing beyond the standard library.
"""

from __future__ import annotations

import os
import sys
import threading
from types import CodeType
from typing import Callable, Optional

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src", "bilop")

#: Executed line numbers per real path of a package file.
_hits: dict[str, set[int]] = {}
#: Per code file name: the line tracer that records into its file's hits, or None outside the package.
_tracers: dict[str, Optional[Callable]] = {}


def _tracer_for(filename: str) -> Optional[Callable]:
    path = os.path.realpath(filename)
    if os.path.dirname(path) != PACKAGE:
        return None
    hits = _hits.setdefault(path, set())

    def local(frame, event, arg):
        if event == "line":
            hits.add(frame.f_lineno)
        return local

    return local


def _trace(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename:
        return None
    local = _tracers.get(filename, _trace)  # _trace itself stands for a file name not seen yet
    if local is _trace:
        local = _tracers[filename] = _tracer_for(filename)
    if local is not None:
        local(frame, "line", arg)  # the call itself: its first line
    return local


def statement_lines(path: str) -> set[int]:
    """The lines that path's compiled code objects attribute instructions to."""
    with open(path, encoding="utf-8") as f:
        code = compile(f.read(), path, "exec")
    lines: set[int] = set()
    stack: list[CodeType] = [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)  # line 0: a module's RESUME
        stack.extend(c for c in co.co_consts if isinstance(c, CodeType))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as "3, 7-9, 12"."""
    out: list[str] = []
    for n in lines:
        if out and n == last + 1:
            out[-1] = f"{out[-1].split('-')[0]}-{n}"
        else:
            out.append(str(n))
        last = n
    return ", ".join(out)


def pytest_terminal_summary(terminalreporter) -> None:
    sys.settrace(None)
    threading.settrace(None)
    terminalreporter.write_sep("-", "src/bilop statements no in-process test executed")
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        statements = statement_lines(path)
        missed = sorted(statements - _hits.get(path, set()))
        rel = os.path.join("src", "bilop", name)
        terminalreporter.write_line(f"{rel}: {len(missed)} of {len(statements)} missed" + (f": {ranges(missed)}" if missed else ""))


sys.settrace(_trace)
threading.settrace(_trace)

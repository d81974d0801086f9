"""Line coverage of the library under tier-1, with the standard library only.

Run from anywhere, with pytest installed:

    python tests/coverage.py

The script runs the tier-1 tests in this process under ``sys.settrace``
and lists every executable line of a function body under
``src/raagmcg/`` that no test ran.  A line is executable when the
compiler gives it an instruction (``co_lines``), other than the
``def`` line itself; module and class bodies run at import and are not
counted.  Lines that run only in child processes (the demo and start-up
tests) count as not run.

A ``# pragma: no cover`` comment followed by its reason exempts its line
and every following line indented deeper than it, that is the block the
line opens.  A pragma with no reason is an error.

The file name has no ``test_`` prefix, so tier-1 does not collect it.
Exits 0 when every line ran and 1 when one did not, when a pragma has
no reason, or when a test fails.
"""

from __future__ import annotations

import inspect
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "raagmcg"
PRAGMA = re.compile(r"#\s*pragma:\s*no cover\b(.*)$")
# Code objects that run inside their enclosing scope, not as functions of
# their own: a comprehension at module or class level runs at import.
INLINE = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def function_lines(code, inside_function: bool = False) -> set[int]:
    """The lines that hold an instruction of a function body in ``code``
    and the code objects nested in it, ``def`` lines excluded."""
    lines: set[int] = set()
    for const in code.co_consts:
        if not inspect.iscode(const):
            continue
        is_function = bool(const.co_flags & inspect.CO_OPTIMIZED) and (
            inside_function or const.co_name not in INLINE
        )
        if is_function:
            lines |= {line for _, _, line in const.co_lines() if line is not None}
            lines.discard(const.co_firstlineno)  # the def line: its RESUME is never a line event
        lines |= function_lines(const, is_function)
    return lines


def exempt_lines(text: str) -> tuple[set[int], list[int]]:
    """The lines that ``# pragma: no cover`` exempts, and the lines of the
    pragmas that give no reason."""
    source = text.splitlines()
    exempt: set[int] = set()
    bare: list[int] = []
    for number, line in enumerate(source, 1):
        match = PRAGMA.search(line)
        if not match:
            continue
        if not match.group(1).strip(" -:;,"):
            bare.append(number)
        exempt.add(number)
        indent = len(line) - len(line.lstrip())
        for after, body in enumerate(source[number:], number + 1):
            if body.strip() and len(body) - len(body.lstrip()) <= indent:
                break
            exempt.add(after)
    return exempt, bare


def main() -> int:
    executable: dict[str, set[int]] = {}
    sources: dict[str, list[str]] = {}
    problems: list[str] = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        exempt, bare = exempt_lines(text)
        problems += [f"{path.relative_to(ROOT)}:{n}: pragma: no cover without a reason" for n in bare]
        executable[str(path)] = function_lines(compile(text, str(path), "exec")) - exempt
        sources[str(path)] = text.splitlines()

    ran: dict[str, set[int]] = {name: set() for name in executable}

    def tracer(frame, event, arg):
        hits = ran.get(frame.f_code.co_filename)  # src/ is imported by its absolute path
        if hits is None:
            return None  # not a library file: no line events for this frame

        def lines(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return lines

        return lines

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    sys.settrace(tracer)
    try:
        status = pytest.main(
            ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", str(ROOT / "tests")]
        )
    finally:
        sys.settrace(None)
    if status != 0:
        print(f"tier-1 failed (pytest exit {int(status)}); coverage not judged")
        return 1

    missed = [
        f"{Path(name).relative_to(ROOT)}:{number}: not run: {sources[name][number - 1].strip()}"
        for name in sorted(executable)
        for number in sorted(executable[name] - ran[name])
    ]
    total = sum(map(len, executable.values()))
    print(f"{total - len(missed)} of {total} executable function-body lines under "
          f"src/raagmcg/ ran in tier-1")
    problems += missed
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

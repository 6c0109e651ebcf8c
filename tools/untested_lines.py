"""List the executable lines of ``src/biforge`` that no Tier-1 test or demo runs.

Usage, from the repository root:

    python tools/untested_lines.py [PYTEST_ARGS...]

The script runs pytest in this process (by default on ``tests/``, with
``-q -p no:cacheprovider``), then every ``demos/*.py`` as ``__main__``
with its stdout captured, all under one ``sys.settrace`` line tracer that
records only frames of ``src/biforge``.  It then prints every executable
line that never ran as ``path:line: source`` and a count per file.  It
needs only the standard library and pytest.  An executable line is one that a
compiled code object of the file maps an instruction to, so ``def`` and
``class`` statements count (they run at import) and docstrings do not.

Lines that run only in a subprocess a test starts are not seen, nor
those that run in a test after it overflows the stack (each test sets the
tracer again).  Tests that measure memory with ``tracemalloc`` see the
tracer's own allocations, so ``test_context_build_peak_stays_near_what_it_keeps``
can fail under the tracer; the lines are listed anyway and the pytest exit
code is reported.
A demo that raises is named in a note, and the other demos still run.
"""

from __future__ import annotations

import contextlib
import io
import runpy
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "biforge"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def executable_lines(path: Path) -> set[int]:
    """Every line number an instruction of ``path``'s code maps to."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def traced_run(pytest_args: list[str]) -> tuple[int, list[str], dict[str, set[int]]]:
    """pytest's exit code, a note for each demo that raised, and the lines
    of each package file that ran in the tests or the demos."""
    import pytest

    prefix = str(PACKAGE) + "/"
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        seen.setdefault(filename, set()).add(frame.f_lineno)
        return local

    class Rearm:
        # CPython unsets a tracer that raises, and a test that overflows the
        # stack makes the tracer's own call raise RecursionError; what runs
        # after it in that test is not seen, and each test sets it again
        def pytest_runtest_setup(self):
            sys.settrace(global_trace)

    failed = []
    sys.settrace(global_trace)
    try:
        code = pytest.main(pytest_args, plugins=[Rearm()])
        sys.settrace(global_trace)
        for demo in DEMOS:
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    runpy.run_path(str(demo), run_name="__main__")
            except Exception as exc:
                failed.append(f"{demo.relative_to(ROOT)} raised {type(exc).__name__}: {exc}")
    finally:
        sys.settrace(None)
    return int(code), failed, seen


def main(argv: list[str]) -> int:
    args = argv or [str(ROOT / "tests")]
    code, failed, seen = traced_run(["-q", "-p", "no:cacheprovider", *args])
    total = 0
    print()
    for path in sorted(PACKAGE.glob("*.py")):
        missing = sorted(executable_lines(path) - seen.get(str(path), set()))
        source = path.read_text().splitlines()
        for line in missing:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
        if missing:
            print(f"  {len(missing)} untested lines in {path.relative_to(ROOT)}")
        total += len(missing)
    print(f"{total} executable lines of src/biforge ran in no test or demo")
    if code != 0:
        print(
            f"note: pytest exited with code {code} under the tracer (memory tests that use "
            "tracemalloc see the tracer's allocations); the lines above are listed anyway"
        )
    for note in failed:
        print(f"note: {note}; the lines above count what it ran before it raised")
    return 0 if code in (0, 1) else code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

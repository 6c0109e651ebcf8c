"""List the executable lines of ``src/biforge`` that no Tier-1 test runs.

Usage, from the repository root:

    python tools/untested_lines.py [PYTEST_ARGS...]

The script runs pytest in this process (by default on ``tests/``, with
``-q -p no:cacheprovider``) under a ``sys.settrace`` line tracer that
records only frames of ``src/biforge``, then prints every executable line
that never ran as ``path:line: source`` and a count per file.  It needs
only the standard library and pytest.  An executable line is one that a
compiled code object of the file maps an instruction to, so ``def`` and
``class`` statements count (they run at import) and docstrings do not.

Lines that run only in a subprocess a test starts are not seen.  Tests
that measure memory with ``tracemalloc`` see the tracer's own allocations,
so ``test_context_build_peak_stays_near_what_it_keeps`` fails under the
tracer; the lines are listed anyway and the pytest exit code is reported.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "biforge"


def executable_lines(path: Path) -> set[int]:
    """Every line number an instruction of ``path``'s code maps to."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def traced_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code, and the lines of each package file that ran."""
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

    sys.settrace(global_trace)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return int(code), seen


def main(argv: list[str]) -> int:
    args = argv or [str(ROOT / "tests")]
    code, seen = traced_run(["-q", "-p", "no:cacheprovider", *args])
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
    print(f"{total} executable lines of src/biforge ran in no test")
    if code != 0:
        print(
            f"note: pytest exited with code {code} under the tracer (memory tests that use "
            "tracemalloc see the tracer's allocations); the lines above are listed anyway"
        )
    return 0 if code in (0, 1) else code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

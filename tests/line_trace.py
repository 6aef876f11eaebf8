"""List the lines of src/handleforge that no Tier-1 test runs.

Run by hand from the repository root; it is not itself a test:

    PYTHONPATH=src python tests/line_trace.py [pytest arguments]

It imports every module of the package under a `sys.settrace` line tracer,
then runs the Tier-1 suite under a second one, installed again before each
test's setup, call and teardown so that nothing a test does can leave it
switched off.  A line counts only if it runs after import: the lines that
ran while the package was imported (module and class bodies, `def` lines,
tables built at import) are left out, and every other executable line is
listed if no test ran it.  Hypothesis runs under a profile without its
explain phase, which installs a tracer of its own and would hide the lines
a `@given` test reaches.  Prints `file:line: text` for each line never
reached, then a total.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, settings

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "handleforge"


def _lines(code):
    """The line numbers of code and of every code object nested in it."""
    found = {n for _, _, n in code.co_lines() if n is not None}
    for const in code.co_consts:
        if inspect.iscode(const):
            found |= _lines(const)
    return found


class LineTracer:
    """Records the (file, line) pairs run inside the package into `reached`;
    as a pytest plugin it installs itself before each test phase."""

    def __init__(self, paths):
        self.reached = {path: set() for path in paths}

    def _global(self, frame, event, arg):
        lines = self.reached.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    def install(self):
        sys.settrace(self._global)

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        self.install()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        self.install()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_teardown(self, item):
        self.install()


def main(args):
    sys.path.insert(0, str(PACKAGE.parent))
    paths = sorted(PACKAGE.glob("*.py"))
    names = {str(p): p for p in paths}
    at_import = LineTracer(names)
    at_import.install()
    for path in paths:
        name = "handleforge" if path.stem == "__init__" else f"handleforge.{path.stem}"
        importlib.import_module(name)
    sys.settrace(None)

    settings.register_profile(
        "line-trace", phases=[p for p in Phase if p is not Phase.explain])
    settings.load_profile("line-trace")
    tracer = LineTracer(names)
    code = pytest.main(["-q", "-p", "no:cacheprovider", *args], plugins=[tracer])
    sys.settrace(None)

    total = count = 0
    for name, path in names.items():
        text = path.read_text()
        lines = _lines(compile(text, name, "exec")) - at_import.reached[name]
        count += len(lines)
        rows = text.splitlines()
        for n in sorted(lines - tracer.reached[name]):
            print(f"{path.relative_to(ROOT)}:{n}: {rows[n - 1].strip()}")
            total += 1
    print(f"{total} of {count} lines that run after import never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

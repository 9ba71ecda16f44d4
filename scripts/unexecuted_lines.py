#!/usr/bin/env python3
"""Count the lines of src/automcp that the Tier-1 suite never executes.

Usage: python scripts/unexecuted_lines.py [ROOT]

ROOT is a checkout of the repository (default: the one this script is
in). The script runs ROOT's Tier-1 suite with ROOT/src first on
PYTHONPATH and `--hypothesis-seed=0`, so that two runs draw the same
examples, under a `sys.settrace` line tracer:

- the tracer is installed again before each test's setup and call, in
  the main thread and for every thread started after that;
- each subprocess the tests start (`python -m automcp ...`) is traced
  too, through a `sitecustomize` module that exists only on this run's
  PYTHONPATH;
- every process appends each (file, line) it runs for the first time to
  its own file, unbuffered, so a process that is killed still counts.

A line is executable when it holds bytecode of a function or class body
of a module under ROOT/src/automcp, its `def` or `class` line aside. The
first line of output is the total and the count per module, the lines
after it each unexecuted line with its text. The exit status is 0
whatever the suite's result; the suite's last line goes to stderr.
Standard library only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

# installed by `sitecustomize` at start, and again by the plugin per test
_TRACER = '''\
import os
import sys
import threading

_SRC = {src!r}
_FD = os.open(os.path.join({out!r}, f"{{os.getpid()}}.lines"),
              os.O_WRONLY | os.O_CREAT | os.O_APPEND)
_SEEN = set()


def _line(frame, event, arg):
    if event == "line":
        key = (frame.f_code.co_filename, frame.f_lineno)
        if key not in _SEEN:
            _SEEN.add(key)
            os.write(_FD, f"{{key[1]}} {{key[0]}}\\n".encode())
    return _line


def _call(frame, event, arg):
    if frame.f_code.co_filename.startswith(_SRC):
        return _line
    return None


def install():
    sys.settrace(_call)
    threading.settrace(_call)


install()
'''

_PLUGIN = '''\
import sitecustomize


def pytest_runtest_setup(item):
    sitecustomize.install()


def pytest_runtest_call(item):
    sitecustomize.install()
'''


def executable_lines(path: Path) -> set[int]:
    """The lines of `path` that hold bytecode of a function or class
    body, each body's first line (its `def` or `class`) aside."""
    lines: set[int] = set()
    stack = [c for c in compile(path.read_text(encoding="utf-8"), str(path), "exec").co_consts
             if isinstance(c, types.CodeType)]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines()
                     if line is not None and line != code.co_firstlineno)
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def run_traced(root: Path, out: Path) -> None:
    """Run ROOT's Tier-1 suite with every process tracing into `out`."""
    site = out / "site"
    site.mkdir()
    package = str(root / "src" / "automcp") + os.sep
    (site / "sitecustomize.py").write_text(_TRACER.format(src=package, out=str(out)))
    (site / "_line_trace_plugin.py").write_text(_PLUGIN)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(site), str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "--hypothesis-seed=0", "-p", "_line_trace_plugin", "-p", "no:cacheprovider"],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
    print(f"tier-1 (exit {proc.returncode}): {last[0]}", file=sys.stderr)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parent.parent).resolve()
    with tempfile.TemporaryDirectory(prefix="unexecuted-lines-") as tmp:
        out = Path(tmp)
        run_traced(root, out)
        executed: set[tuple[str, int]] = set()
        for record in out.glob("*.lines"):
            for entry in record.read_text(encoding="utf-8").splitlines():
                line, _, filename = entry.partition(" ")
                executed.add((filename, int(line)))
    counts: dict[str, int] = {}
    listing = []
    for path in sorted((root / "src" / "automcp").glob("*.py")):
        missed = sorted(executable_lines(path) - {ln for f, ln in executed if f == str(path)})
        source = path.read_text(encoding="utf-8").splitlines()
        if missed:
            counts[path.stem] = len(missed)
        listing += [f"{path.stem}.py:{ln}: {source[ln - 1].strip()}" for ln in missed]
    by_module = ", ".join(f"{name} {n}" for name, n in sorted(counts.items(),
                                                                key=lambda kv: (-kv[1], kv[0])))
    print(f"unexecuted src/automcp lines: {sum(counts.values())} ({by_module or 'none'})")
    print("\n".join(listing))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

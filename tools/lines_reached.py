"""The lines of the package's functions that no step of ``tools/same_outputs.py`` runs.

Usage, from the root of a checkout:

    python3 tools/lines_reached.py [--checkout .]

Runs ``same_outputs.MATRIX`` once with the checkout's package, in one process and a fresh
empty directory, under a ``sys.settrace`` line trace limited to the checkout's ``src/``
(the standard library only; ``coverage`` is not needed).  Then prints, module by module,
each line of a function body that holds code and that no step reached, as
``path:line: source``, and a count last.  A ``def`` line and the lines of module and class
bodies run at import and are not listed.  The sampler runs all shards but the first in
forked children, whose trace ends with them; the first shard runs in the traced process,
through the same code.  A step that fails ends the run, and the tool prints the step's log
and exits 2.  Takes about as long as one checkout's run of ``same_outputs.py``, a few times
over for the trace.
"""
from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import tempfile
import types

import same_outputs

# Appended to ``same_outputs.STEPS``: runs the matrix from stdin under a line trace of the
# files under argv[1], and writes {file: [lines reached]} as JSON to argv[2].
TRACE = """
import os
src = os.path.abspath(sys.argv[1]) + os.sep
reached = {}

def on_line(frame, event, arg):
    if event == "line":
        reached[frame.f_code.co_filename].add(frame.f_lineno)
    return on_line

def on_call(frame, event, arg):
    path = frame.f_code.co_filename
    if path not in reached:
        if not path.startswith(src):
            return None
        reached[path] = set()
    return on_line

sys.settrace(on_call)
try:
    run_steps(json.load(sys.stdin))
finally:
    sys.settrace(None)
with open(sys.argv[2], "w") as fh:
    json.dump({path: sorted(lines) for path, lines in reached.items()}, fh)
"""


def function_lines(path) -> set:
    """The lines of the file ``path`` that hold code of a function, lambda or
    comprehension body, without the line that starts it."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        code = todo.pop()
        todo.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
        if code.co_flags & inspect.CO_OPTIMIZED:  # not a module or class body
            lines.update(line for _, _, line in code.co_lines()
                         if line is not None and line != code.co_firstlineno)
    return lines


def trace_matrix(checkout, workdir, matrix=same_outputs.MATRIX) -> dict:
    """Run ``matrix`` with ``checkout``'s package in the empty directory ``workdir`` under
    the line trace; returns {path: set of lines reached} for every file under its ``src/``
    that ran."""
    src = os.path.join(os.path.abspath(checkout), "src")
    out = os.path.join(workdir, "lines-reached.json")
    same_outputs.run_matrix(checkout, workdir, matrix, same_outputs.STEPS + TRACE, [src, out])
    with open(out) as fh:
        return {path: set(lines) for path, lines in json.load(fh).items()}


def unreached(checkout, reached: dict) -> dict:
    """{path: sorted function-body lines not in ``reached``} for each module under
    ``checkout``'s ``src/``, in path order."""
    src = os.path.join(os.path.abspath(checkout), "src")
    paths = sorted(os.path.join(folder, name) for folder, _, names in os.walk(src)
                   for name in names if name.endswith(".py"))
    return {path: sorted(function_lines(path) - reached.get(path, set())) for path in paths}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", default=".", help="checkout whose src/ is traced")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        try:
            reached = trace_matrix(args.checkout, tmp)
        except same_outputs.MatrixError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    missed = unreached(args.checkout, reached)
    for path, lines in missed.items():
        with open(path) as fh:
            text = fh.read().splitlines()
        name = os.path.relpath(path, args.checkout)
        for line in lines:
            print(f"{name}:{line}: {text[line - 1].strip()}")
    print(f"{sum(map(len, missed.values()))} function-body lines not reached")
    return 0


if __name__ == "__main__":
    sys.exit(main())

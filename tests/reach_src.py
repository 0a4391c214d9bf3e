"""Print the digest's lines, then every statement of a ``src/seqbounds``
function that neither the digest nor the benchmark runs.

The script runs ``tests/digest_outputs.py`` (every deterministic CLI command
at its acceptance config) and one pass of each workload of
``perfbench/workloads.py`` under ``sys.settrace``, which traces the frames
of ``seqbounds`` code alone.  It prints the lines that the digest printed,
a blank line, and then, one per line as ``module.qualname: source text``,
each statement inside a function (or method, or closure) of a
``seqbounds`` module that none of those runs reached.  A compound
statement (``if``, ``for``, ``with``, ...) counts by its header and is
printed as that header; every other statement by all of its lines, which
are printed joined into one.  ``raise`` statements are left out, and so
are statements that compile to no code (a docstring, ``global``).  Module
and class bodies count as run.  No line number is printed, so an edit
elsewhere in a module does not move a line; a listed statement may still
be reached by a test alone.

    PYTHONPATH=src python tests/reach_src.py

Not collected by pytest (no ``test_`` prefix).
"""
import ast
import contextlib
import importlib
import io
import pkgutil
import sys
import tempfile
import threading
from pathlib import Path

import seqbounds

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def code_lines(code):
    """The lines that hold bytecode in ``code`` and the code it nests."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def own_lines(node):
    """The lines that count for ``node``: the header of a compound
    statement (up to its first body statement), and every line of any
    other statement."""
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(body[0].lineno, first + 1))
    return range(first, node.end_lineno + 1)


def statements(node, owner="", in_function=False):
    """(qualname, statement) for each statement below ``node`` that lies
    inside a function, in source order; ``owner`` is the qualname of the
    function or class that ``node`` is."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, ast.stmt):
            continue
        if in_function:
            yield owner, child
        if isinstance(child, _SCOPES):
            inner = ".".join(filter(None, [
                owner, "<locals>" if in_function else "", child.name]))
            yield from statements(child, inner, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)))
        else:
            yield from statements(child, owner, in_function)


def unreached(run):
    """``module.qualname: source text`` of each statement of a seqbounds
    function whose lines with code are none of the ``run`` (file, line)
    pairs."""
    out = []
    for info in pkgutil.iter_modules(seqbounds.__path__):
        module = importlib.import_module(f"seqbounds.{info.name}")
        path = module.__file__
        source = Path(path).read_text()
        lines = source.splitlines()
        with_code = code_lines(compile(source, path, "exec"))
        for qualname, stmt in statements(ast.parse(source)):
            if isinstance(stmt, ast.Raise):
                continue
            mine = with_code.intersection(own_lines(stmt))
            if not mine or any((path, line) in run for line in mine):
                continue
            text = " ".join(line for line in (
                lines[i - 1].strip() for i in own_lines(stmt))
                if line and not line.startswith("#"))
            out.append(f"{module.__name__}.{qualname}: {text}")
    return out


def main():
    folder = str(Path(seqbounds.__file__).parent)
    run = set()
    digest = io.StringIO()

    def trace_lines(frame, event, arg):
        if event == "line":
            run.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace(frame, event, arg):
        # only seqbounds frames are traced line by line
        return (trace_lines if frame.f_code.co_filename.startswith(folder)
                else None)

    sys.settrace(trace)
    threading.settrace(trace)
    try:
        # imported here: both build configs when they load
        import digest_outputs
        import workloads
        with contextlib.redirect_stdout(digest):
            digest_outputs.main()
        with tempfile.TemporaryDirectory() as tmp:
            for workload in workloads.BUILDERS:
                for op in workloads.build(workload, 1, Path(tmp) / workload):
                    try:
                        op.call()
                    except op.fault:
                        pass
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(digest.getvalue())
    for line in unreached(run):
        print(line)


if __name__ == "__main__":
    main()

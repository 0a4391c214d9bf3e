"""Print the digest's lines, then every function of ``src/seqbounds`` that
neither the digest nor the benchmark runs.

The script runs ``tests/digest_outputs.py`` (every deterministic CLI command
at its acceptance config) and one pass of each workload of
``perfbench/workloads.py`` under ``sys.setprofile``.  It prints the lines
that the digest printed, a blank line, and then, one per line as
``module.qualname``, each function and method defined in a ``seqbounds``
module whose code none of those calls entered.  Nested functions
(closures) are not listed; a listed function may still be reached by a
test alone.

    PYTHONPATH=src python tests/reach_src.py

Not collected by pytest (no ``test_`` prefix).
"""
import contextlib
import importlib
import inspect
import io
import pkgutil
import sys
import tempfile
import threading
from pathlib import Path

import seqbounds

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]


def defined_functions():
    """(name, code) of every function and method defined in a seqbounds
    module, in source order."""
    found = []
    for info in pkgutil.iter_modules(seqbounds.__path__):
        module = importlib.import_module(f"seqbounds.{info.name}")
        owners = [module] + [v for v in vars(module).values()
                             if inspect.isclass(v)
                             and v.__module__ == module.__name__]
        for owner in owners:
            for value in vars(owner).values():
                if isinstance(value, property):
                    value = value.fget
                value = getattr(value, "__func__", value)   # static/class
                code = getattr(value, "__code__", None)
                if code is not None and code.co_filename == module.__file__:
                    found.append((f"{module.__name__}.{value.__qualname__}",
                                  code))
    return sorted(found, key=lambda item: (item[1].co_filename,
                                           item[1].co_firstlineno))


def main():
    entered = set()
    digest = io.StringIO()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    threading.setprofile(profile)
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
        sys.setprofile(None)
        threading.setprofile(None)
    print(digest.getvalue())
    for name, code in defined_functions():
        if code not in entered:
            print(name)


if __name__ == "__main__":
    main()

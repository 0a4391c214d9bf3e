"""One new interpreter runs ``tests/reach_src.py``, and two checks read its
output.  The digest's lines equal the checked-in copy
``tests/digest_outputs.txt``: the equivalence gate, so a change that moves
a line updates the copy and says why.  The statements of ``src/seqbounds``
functions that neither the digest nor one pass of each benchmark workload
runs equal the checked-in copy ``tests/unreached_statements.txt``: a
change that leaves one more statement unreached (or reaches a listed one)
names it there.  A new interpreter, so that no cache warmed by another
test hides a call."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqbounds

TESTS = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def reach():
    """The digest's lines and the unreached statements, as printed."""
    path = [str(Path(seqbounds.__file__).resolve().parents[1])] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    out = subprocess.run(
        [sys.executable, str(TESTS / "reach_src.py")], check=True,
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path))).stdout
    digest, unreached = out.split("\n\n", 1)
    return digest + "\n", unreached


def test_digest_is_the_checked_in_copy(reach):
    assert reach[0] == (TESTS / "digest_outputs.txt").read_text()


def test_unreached_statements_are_the_known_ones(reach):
    assert reach[1] == (TESTS / "unreached_statements.txt").read_text()

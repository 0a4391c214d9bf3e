"""One new interpreter runs ``tests/reach_src.py``, and two checks read its
output.  The digest's lines equal the checked-in copy
``tests/digest_outputs.txt``: the equivalence gate, so a change that moves
a line updates the copy and says why.  The functions of ``src/seqbounds``
that neither the digest nor one pass of each benchmark workload enters are
exactly the known ones: a change that leaves one more function unreached
(or reaches a listed one) names it here.  A new interpreter, so that no
cache warmed by another test hides a call."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqbounds

TESTS = Path(__file__).resolve().parent

UNREACHED = """\
seqbounds.bounds.concentration_tail
seqbounds.bounds.binomial_quarter_lemma_holds
seqbounds.bounds.chaining_rad_upper
seqbounds.classes.covering_number_exhaustive
seqbounds.cli._config_error
seqbounds.scenario.__getattr__
"""


@pytest.fixture(scope="module")
def reach():
    """The digest's lines and the unreached functions, as printed."""
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


def test_unreached_functions_are_the_known_ones(reach):
    assert reach[1] == UNREACHED

"""The functions of ``src/seqbounds`` that neither the digest nor one pass of
each benchmark workload enters, as ``tests/reach_src.py`` lists them, are
exactly the known ones: a change that leaves one more function unreached
(or reaches a listed one) names it here.  Run in a new interpreter, so that
no cache warmed by another test hides a call."""
import os
import subprocess
import sys
from pathlib import Path

import seqbounds

TESTS = Path(__file__).resolve().parent

UNREACHED = """\
seqbounds.bounds.concentration_tail
seqbounds.bounds.binomial_quarter_lemma_holds
seqbounds.bounds.chaining_rad_upper
seqbounds.classes.covering_number_exhaustive
seqbounds.cli._config_error
seqbounds.experiments.default_ar1
seqbounds.scenario.__getattr__
"""


def test_unreached_functions_are_the_known_ones():
    path = [str(Path(seqbounds.__file__).resolve().parents[1])] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    out = subprocess.run(
        [sys.executable, str(TESTS / "reach_src.py")], check=True,
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path))).stdout
    assert out == UNREACHED

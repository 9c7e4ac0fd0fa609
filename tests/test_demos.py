"""Every script in ``demos/`` runs to completion against the package and
prints the bytes pinned below.

Apart from wall-clock timings, which ``stable_bytes`` blanks out before
hashing, the demos print the same bytes on every run, so a change that
moves any printed value, or the way it is printed, changes a digest here.
A change meant to alter a demo's output updates its digest and says why.
"""

import hashlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: A timing such as ``verified in 1.0s``; its digits depend on the machine.
ELAPSED = re.compile(rb"in \d+(\.\d+)?s\b")


def stable_bytes(stdout):
    """``stdout`` with every timing replaced by ``in ?s``."""
    return ELAPSED.sub(b"in ?s", stdout)


#: sha256 of each demo's stdout, encoded as UTF-8, after ``stable_bytes``.
STDOUT_SHA256 = {
    "01_word_invariants.py": "f1f43d59ca1d1744d705481422aac9d549afb28f0083533ee2841cec01bdbf98",
    "02_alexander_three_ways.py": "82bf8cd12e82aba66c6611f1c4ae4e18beaa31d16df832989ba64160d53001dd",
    "03_next_to_top.py": "e1448629f375757ef7aa5eec684e7726d91f1a904e2d7d76236382b0022e4cba",
    "04_kauffman_states.py": "16c3ac9af77aa75dae4d794a87ca2707d5031816d32a2994f5a1d485ac127f1c",
    "05_rings_of_unknots.py": "27a4c07acd6e458b061ca973a2408c96986b3b02fc758af5ab54a7bca4527ae1",
    "06_corpus_screening.py": "416a3470598849adf8398c49dc518e6e711161ecc2f5d8759e276c4842d1006b",
}


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONIOENCODING"] = "utf-8"
    done = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
    assert hashlib.sha256(stable_bytes(done.stdout)).hexdigest() == STDOUT_SHA256[script.name]


def test_a_timing_does_not_move_a_digest():
    fast, slow = b"verified in 0.9s, 0 failures\n", b"verified in 12.3s, 0 failures\n"
    assert stable_bytes(fast) == stable_bytes(slow) == b"verified in ?s, 0 failures\n"

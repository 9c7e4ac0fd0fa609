"""The suite's pytest settings report a failing property and run on.

``filterwarnings`` turns every warning into an error.  A failing ``@given``
test makes hypothesis write an explicit-example patch through libcst,
which touches the deprecated ``mypy_extensions.TypedDict``; unless that one
warning is ignored, it is raised inside the plugin's report hook, and
pytest stops with an internal error, no falsifying example and no later
test run.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def snapshot(root):
    return {
        path: path.stat().st_mtime_ns
        for path in root.rglob("*")
        if path.is_file() and ".git" not in path.relative_to(root).parts
    }


def test_a_failing_property_is_reported_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    env = dict(os.environ, HYPOTHESIS_STORAGE_DIRECTORY=str(tmp_path / ".hypothesis"))
    before = snapshot(ROOT)
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
            "--rootdir", str(tmp_path), "test_property.py",
        ],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example" in done.stdout
    assert "1 failed, 1 passed" in done.stdout
    assert snapshot(ROOT) == before

"""Every ``examples/*.py`` program runs to completion.

The examples are the only product-side callers of group-to-group
invocation, passive-replication state updates, ``apps/whiteboard`` and
``apps/transactions``; running them here is what earns that code its place
(see ``test_every_option_is_set_by_a_benchmark_scenario_or_example``).
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))


@pytest.mark.parametrize("path", EXAMPLES, ids=[os.path.basename(p) for p in EXAMPLES])
def test_example_runs(path, tmp_path):
    # cwd=tmp_path: traced_invocation.py writes out/ into its working directory
    done = subprocess.run(
        [sys.executable, path],
        cwd=tmp_path,
        env={"PYTHONPATH": os.path.join(ROOT, "src")},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr

"""Every demo runs to completion: exit 0 and nothing on stderr.

The demos pin user-visible behaviour; among them, ui_thread_effects.py
runs the join completion and lazy_refinement.py the witness search.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert [demo.name for demo in DEMOS] == [
        "callgraph_expansion.py",
        "lazy_refinement.py",
        "taint_qualifiers.py",
        "ui_thread_effects.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout

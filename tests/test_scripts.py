"""The command-line scripts under scripts/ run to completion."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, expect", [
    ("margin_survey.py", ["--dmax", "3"], "d=3 rational: n=5"),
    ("run_ladder.py", ["--dim", "5"], "points: 17"),
], ids=["margin_survey", "run_ladder"])
def test_script_exits_0(script, args, expect):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout

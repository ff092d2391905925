"""The command-line scripts under scripts/ run to completion."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run(*argv):
    """Run ``python argv...`` with the package's source on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script, args, expect", [
    ("margin_survey.py", ["--dmax", "5"],
     ["d=5 float64 : FAILED", "\nd=5 s=1/100: ok=True "]),
    ("run_ladder.py", ["--dim", "5"], ["points: 17"]),
], ids=["margin_survey", "run_ladder"])
def test_script_exits_0(script, args, expect):
    proc = run(str(ROOT / "scripts" / script), *args)
    assert proc.returncode == 0, proc.stderr
    for line in expect:
        assert line in proc.stdout


def test_run_ladder_out_file_verifies(tmp_path):
    # From d = 6 on the file holds values no "p/q" can: the binary form.
    for dim in (5, 6):
        out = tmp_path / f"d{dim}.json"
        proc = run(str(ROOT / "scripts" / "run_ladder.py"), "--dim", str(dim),
                   "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        printed = re.search(r"^witness: \((\d+), (\d+), (\d+)\)$",
                            proc.stdout, re.MULTILINE)
        proc = run("-m", "acuta.cli", "verify", str(out))
        assert proc.returncode == 0, proc.stderr
        assert '"verdict":true' in proc.stdout
        witness = json.loads(proc.stdout)["witness"]
        assert [witness["apex"], *witness["legs"]] == [
            int(k) for k in printed.groups()]


def test_benchmark_tracer_installs_and_uninstalls():
    # `bench/run.py --trace 1` wraps package attributes through
    # bench/spans.py; one that moves or is renamed must fail here, not
    # silently read 0 in the traced run.
    import importlib.util

    from acuta import geometry, set_margin
    from tests.conftest import random_rational_set

    spec = importlib.util.spec_from_file_location(
        "bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    init = geometry.ExactGram.__dict__["__init__"]
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        set_margin(random_rational_set(1, 6, 3))
    finally:
        tracer.uninstall()
    assert geometry.ExactGram.__dict__["__init__"] is init
    assert {"geometry.gram", "geometry.scan"} <= {
        s["name"] for s in tracer.spans}

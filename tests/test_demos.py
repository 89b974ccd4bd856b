"""Every demo script runs to completion and honours its command line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_demo(demo, tmp_path, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    return subprocess.run(
        [sys.executable, str(demo), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    out = tmp_path / "out"
    proc = _run_demo(demo, tmp_path, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert any(out.iterdir()), "the demo wrote nothing to --out"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_rejects_unknown_flag(demo, tmp_path):
    proc = _run_demo(demo, tmp_path, "--bogus")
    assert proc.returncode != 0
    assert "--bogus" in proc.stderr

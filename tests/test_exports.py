"""The package exports the names its submodules define, and only those."""

import os
import subprocess
import sys
import types
from pathlib import Path

import atmtomo


def test_export_list_matches_the_public_names():
    starred = {}
    exec("from atmtomo import *", starred)
    public = {
        name
        for name, value in vars(atmtomo).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(starred) - {"__builtins__"} == public == set(atmtomo.__all__)
    assert len(set(atmtomo.__all__)) == len(atmtomo.__all__)
    # a stray import in the package's __init__ would otherwise become an export
    foreign = [
        name
        for name in atmtomo.__all__
        if not getattr(atmtomo, name).__module__.startswith("atmtomo.")
    ]
    assert foreign == []


def test_the_runtime_imports_no_scipy():
    # scipy serves the tests as an oracle; the package needs numpy alone
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, atmtomo.cli; sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

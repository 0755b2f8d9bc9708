"""Dependency guard: importing every ``repro`` module must not pull in
networkx — the graph algorithms live in :mod:`repro.graphalg`."""

import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))

PROBE = """
import importlib, pkgutil, sys
import repro
names = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
assert "networkx" not in sys.modules, "networkx was imported"
print(len(names))
"""


def test_no_repro_module_imports_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run([sys.executable, "-c", PROBE], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    assert int(result.stdout) > 50          # every subpackage was walked

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


#: Imports ``repro`` modules with package ``__init__`` files skipped (every
#: ``repro`` package is a bare namespace), so ``sys.modules`` afterwards
#: holds exactly the modules' own import closure — the package-level
#: re-exports would otherwise load every node kind.
BARE_PACKAGES = """
import importlib.machinery, os, sys
SRC = {src!r}

class BarePackages:
    def find_spec(self, name, path, target=None):
        if name.split(".")[0] != "repro":
            return None
        where = os.path.join(SRC, *name.split("."))
        if not os.path.isdir(where):
            return None
        spec = importlib.machinery.ModuleSpec(name, None, is_package=True)
        spec.submodule_search_locations = [where]
        return spec

sys.meta_path.insert(0, BarePackages())
"""

KIND_MODULES = ("repro.elastic.buffers", "repro.elastic.fork",
                "repro.elastic.functional", "repro.elastic.environment")

KIND_AGNOSTIC = BARE_PACKAGES + """
import repro.backend.pysim, repro.sim.batch
loaded = sorted(name for name in sys.modules
                if name in {kinds!r} or name.split(".")[:2] == ["repro", "chaos"])
assert not loaded, loaded
print("ok")
"""

CHAOS_LEAVES_PYSIM = """
import copy, sys
import repro.backend.pysim as pysim

def state():
    return {{name: copy.copy(value) for name, value in vars(pysim).items()
             if isinstance(value, (dict, list, set, tuple))}}

before = state()
import repro.chaos
assert "repro.chaos" in sys.modules
assert state() == before
print("ok")
"""


def _run(probe):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "ok"


def test_engines_import_no_node_kind():
    """pysim and the batch engine are kind-agnostic: they derive kernels
    and signal tasks from comb specs at run time, so importing them loads
    no node-kind module and no chaos saboteur."""
    _run(KIND_AGNOSTIC.format(src=SRC, kinds=KIND_MODULES))


def test_importing_chaos_leaves_pysim_unchanged():
    _run(CHAOS_LEAVES_PYSIM.format())

"""The package depends on numpy alone: importing every module loads nothing else."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# imports every tetracomm module, then prints the top-level packages that
# came in with them and are neither the standard library, numpy nor tetracomm
PROBE = """
import importlib, pkgutil, sys
before = set(sys.modules)
import tetracomm
for info in pkgutil.walk_packages(tetracomm.__path__, "tetracomm."):
    importlib.import_module(info.name)
allowed = set(sys.stdlib_module_names) | {"numpy", "tetracomm"}
print(sorted({name.split(".")[0] for name in set(sys.modules) - before} - allowed))
"""


def test_every_module_imports_only_the_standard_library_and_numpy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"

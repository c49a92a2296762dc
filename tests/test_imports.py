"""The package imports the stdlib and numpy alone.

scipy is a test-only reference (tests/data/test_synthetic.py): a fresh
interpreter that imports every ``repro`` module must not load it, since
importing ``scipy.ndimage`` costs every process — each CLI call, sweep,
benchmark cell and forked pool worker — about 0.35 s and 18 MiB on a
2-core x86 VM.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

WALK = """
import importlib, pkgutil, sys
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith(".__main__"):
        importlib.import_module(info.name)
print(sum(name.startswith("repro.") for name in sys.modules))
print(" ".join(sorted(name for name in sys.modules
                      if name == "scipy" or name.startswith("scipy."))))
"""


def test_importing_every_module_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", WALK], env=env, check=True,
                          capture_output=True, text=True)
    imported, scipy_modules = done.stdout.splitlines()
    assert int(imported) > 50  # the walk reached the whole package
    assert scipy_modules == ""

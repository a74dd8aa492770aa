"""The library imports nothing outside the standard library.

``requirements-dev.txt`` installs only the test and lint toolchain, so a
third-party import anywhere in ``repro`` would break a fresh checkout.  A
fresh interpreter imports ``repro.cli`` and every module of the package and
reports each newly loaded top-level module that is neither ``repro`` nor a
standard-library module.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
before = set(sys.modules)
import importlib, json, pkgutil
import repro, repro.cli
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
main = sys.modules["__main__"]
print(json.dumps(sorted({
    name.partition(".")[0]
    for name in set(sys.modules) - before
    if sys.modules[name] is not main  # multiprocessing aliases __main__ as __mp_main__
})))
"""


def test_repro_imports_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    loaded = json.loads(completed.stdout.splitlines()[-1])
    assert "repro" in loaded
    outside = [name for name in loaded if name != "repro" and name not in sys.stdlib_module_names]
    assert outside == []

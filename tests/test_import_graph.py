"""Importing the package must not load scipy.integrate, which brings scipy.optimize,
scipy.sparse and scipy.linalg with it: every CLI call and benchmark process pays for
that import in start-up time and resident memory."""

import os
import subprocess
import sys
from pathlib import Path

import lphase


def test_package_import_leaves_out_scipy_integrate():
    src = str(Path(lphase.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    code = ("import lphase, lphase.cli, lphase.verify, sys; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout.strip() == "[]"

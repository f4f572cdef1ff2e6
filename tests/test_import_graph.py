"""lphase runs on numpy alone: importing it loads no scipy module, whose import costs every
CLI call and benchmark process more start-up time and resident memory than lphase's own
modules, and the commands that reach each special-function kernel run with scipy blocked."""

import os
import subprocess
import sys
from pathlib import Path

import lphase


def _run(code: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    src = str(Path(lphase.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True,
                          text=True, check=True, timeout=300)


def test_package_import_leaves_out_scipy():
    code = ("import lphase, lphase.cli, lphase.verify, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _run(code).stdout.strip() == "[]"


# one command per kernel: the Hurwitz zeta and digamma-gap tails far from the head (N = 1e12)
# and at _tail_order's longest count (t = 3000), log Gamma(1+a) in the Gamma head past one
# leaf (t = 4100), the Li masses and xi's zero scan; criterion 6 takes the product-route
# phase, criterion 14 Li(x)
_COMMANDS = [
    "table-odd --gw-terms 1000000000000",
    "figure-mixed --t-min 3000 --t-max 3000.5 --t-step 0.5",
    "figure-q3 --q 3 --t-min 4100 --t-max 4101 --t-step 0.5",
    "ledger --q 7 --chi-index 1 --t 40 --p-max 100000 --p-star 100000",
    "scan-zeros --q 3 --chi-index 1",
]


def test_commands_run_with_scipy_blocked(tmp_path):
    code = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None  # any scipy import now raises ImportError",
        "from lphase import cli, verify",
        f"for i, cmd in enumerate({_COMMANDS!r}):",
        "    print(cli.main(cmd.split() + ['--out', f'{i}.csv']))",
        "for cid in (6, 14):",
        "    print(int(not verify.run_criterion(cid).passed))",
    ])
    assert _run(code, cwd=tmp_path).stdout.split() == ["0"] * (len(_COMMANDS) + 2)

import os
import subprocess
import sys
from pathlib import Path

import mfgtorus


def test_tracer_installs_on_every_name_it_wraps():
    """perfbench/tracer.py rebinds names in the mfgtorus modules (solver.lsqr, linearization.residual,
    the per-r checks, ...); a source edit that drops one makes `install` raise.

    `install` rebinds module globals, so it runs in a child process, which writes no bytecode into perfbench/.
    """
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    pkg_root = Path(mfgtorus.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Tracer())"],
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": os.pathsep.join([str(perfbench), str(pkg_root)]),
             "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr

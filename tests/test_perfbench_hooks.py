import ast
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


def test_no_direct_or_least_squares_solve_in_the_package():
    """`spsolve` and `lsqr` appear in src/ only as names that solver.py imports for the tracer to wrap."""
    pkg = Path(mfgtorus.__file__).resolve().parent
    uses = []
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                uses += [(path.name, "import", node.module) for a in node.names if a.name in ("spsolve", "lsqr")]
            elif isinstance(node, ast.Name) and node.id in ("spsolve", "lsqr"):
                uses.append((path.name, "name", node.id))
            elif isinstance(node, ast.Attribute) and node.attr in ("spsolve", "lsqr"):
                uses.append((path.name, "attribute", node.attr))
    assert uses == [("solver.py", "import", "scipy.sparse.linalg")] * 2

import os
import subprocess
import sys
from pathlib import Path

import bvgym

# scipy loads lazily, inside the solvers that need it, so importing the package stays cheap
IMPORT_LINE = "import bvgym.cli, bvgym.relax, bvgym.meshes, bvgym.boundary, bvgym.gym, bvgym.soucek"
CHECK = IMPORT_LINE + "; import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
# the disk solver factors sparse systems and never calls scipy.optimize
DISK_SOLVE = (
    "import sys, numpy as np; from bvgym.relax import higher_dim_J; "
    "higher_dim_J(0.35, lambda p: np.sin(np.arctan2(p[:, 1], p[:, 0])), level=1, refinements=1); "
    "print('scipy.optimize' in sys.modules)"
)


def _run(code: str) -> str:
    src = str(Path(bvgym.__file__).resolve().parents[1])  # the same bvgym as this test run
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return out.stdout.strip()


def test_no_scipy_at_import():
    assert _run(CHECK) == "[]"


def test_disk_solve_loads_no_scipy_optimize():
    assert _run(DISK_SOLVE) == "False"

import os
import subprocess
import sys
from pathlib import Path

import bvgym

# scipy loads lazily, inside the solvers that need it, so importing the package stays cheap
IMPORT_LINE = "import bvgym.cli, bvgym.relax, bvgym.meshes, bvgym.boundary, bvgym.gym, bvgym.soucek"
CHECK = IMPORT_LINE + "; import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_no_scipy_at_import():
    src = str(Path(bvgym.__file__).resolve().parents[1])  # the same bvgym as this test run
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", CHECK], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"

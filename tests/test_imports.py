import ast
import os
import subprocess
import sys
from pathlib import Path

import bvgym

# scipy is a test-only dependency: importing the package never loads it
IMPORT_LINE = "import bvgym.cli, bvgym.relax, bvgym.meshes, bvgym.boundary, bvgym.gym, bvgym.soucek"
CHECK = IMPORT_LINE + "; import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
# the disk solver runs on numpy alone, without a plain 1-D np.unique, whose first call imports numpy.ma
DISK_SOLVE = (
    "import sys, numpy as np; from bvgym.relax import higher_dim_J; "
    "higher_dim_J(0.35, lambda p: np.sin(np.arctan2(p[:, 1], p[:, 0])), level=1, refinements=1); "
    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']))"
)
# the relaxation checks its hypotheses from the weight alone, without the half-ball verifiers
RELAX_ONLY = (
    "import sys; from bvgym.relax import relax_minimize, toy_spec; "
    "relax_minimize(toy_spec(0.5), levels=(3,)); print('bvgym.boundary' in sys.modules)"
)

# the half-ball verifiers never call a plain 1-D np.unique, whose first call imports numpy.ma
QSLB_CHECK = (
    "import sys; from bvgym.cli import main; "
    "main(['--out', {out!r}, 'qslb-check', '--integrand', 'abs', '--normal', '1,0']); "
    "print('numpy.ma' in sys.modules)"
)

# every draw of the half-ball verdicts comes from `integrands.seeded_uniform`; the 2x2 form
# |A| - 3 |det A| / |A| is undecided by the bracket, so it reaches `_laminate`
NO_NUMPY_RANDOM = (
    "import sys, numpy as np; from bvgym.cli import main; from bvgym.boundary import qslb_infimum; "
    "from bvgym.integrands import HomogeneousIntegrand, mat_norm; "
    "main(['--out', {out!r}, 'jqcb-check', '--integrand', 'neg_abs', '--normal', '0.6,0.8']); "
    "main(['--out', {out!r}, 'qslb-check', '--integrand', 'abs', '--normal', '0.6,0.8']); "
    "det3 = HomogeneousIntegrand((2, 2), lambda S: mat_norm(S) - 3 * np.abs(np.linalg.det(S)) / mat_norm(S)); "
    "print(len(qslb_infimum(det3, (0.6, 0.8))['stages']), 'numpy.random' in sys.modules)"
)


def _run(code: str) -> str:
    src = str(Path(bvgym.__file__).resolve().parents[1])  # the same bvgym as this test run
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return out.stdout.strip()


def test_no_scipy_at_import():
    assert _run(CHECK) == "[]"


def test_disk_solve_loads_no_scipy_and_no_numpy_ma():
    assert _run(DISK_SOLVE) == "[]"


def test_relax_does_not_load_the_boundary_verifiers():
    assert _run(RELAX_ONLY) == "False"


def test_qslb_check_does_not_load_numpy_ma(tmp_path):
    assert _run(QSLB_CHECK.format(out=str(tmp_path / "out"))).splitlines()[-1] == "False"


def test_half_ball_commands_do_not_load_numpy_random(tmp_path):
    assert _run(NO_NUMPY_RANDOM.format(out=str(tmp_path / "out"))).splitlines()[-1] == "1 False"


def test_package_imports_sit_at_module_top():
    """No import of the package's own modules sits inside a function."""
    late = []
    for path in sorted(Path(bvgym.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                late += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                         if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert late == []

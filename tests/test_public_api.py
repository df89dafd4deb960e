import os
import subprocess
import sys
from pathlib import Path

import platformtrial


def test_every_exported_name_resolves():
    assert [name for name in platformtrial.__all__ if not hasattr(platformtrial, name)] == []


def test_star_import():
    namespace = {}
    exec("from platformtrial import *", namespace)
    assert set(platformtrial.__all__) <= set(namespace)


def run_fresh(code):
    """Standard output of ``code`` run in a fresh interpreter with this package."""
    env = dict(os.environ, PYTHONPATH=str(Path(platformtrial.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env, timeout=120)
    return out.stdout.strip()


def test_package_import_leaves_scipy_interpolate_unloaded():
    # the spline basis imports it at first use: at package import it would
    # slow every process that never fits a spline
    assert run_fresh("import sys, platformtrial; print('scipy.interpolate' in sys.modules)") == "False"


def test_reml_fits_leave_scipy_optimize_unloaded():
    # both covariance structures search by the package's own stacked
    # evaluations; importing scipy.optimize would slow every process
    code = """
import sys
import numpy as np
from platformtrial import reml_fit
rng = np.random.default_rng(1)
groups = rng.integers(1, 4, 40)
y = rng.normal(size=40) + groups
for structure in ("independent", "ar1"):
    reml_fit(np.ones((40, 1)), groups, y, cov_structure=structure)
print('scipy.optimize' in sys.modules)
"""
    assert run_fresh(code) == "False"

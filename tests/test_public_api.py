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


def test_package_import_leaves_scipy_interpolate_unloaded():
    # the spline basis imports it at first use: at package import it would
    # slow every process that never fits a spline
    code = "import sys, platformtrial; print('scipy.interpolate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(platformtrial.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env, timeout=120)
    assert out.stdout.strip() == "False"

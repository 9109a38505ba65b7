"""The package namespace re-exports each module's public names."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import iuptools
from iuptools import bench, fringes, optics, qpm, stackio

MODULES = (fringes, optics, qpm, stackio, bench)


def test_all_is_the_union_of_module_exports():
    names = {name for module in MODULES for name in module.__all__}
    names |= {module.__name__.rpartition(".")[2] for module in MODULES}
    assert set(iuptools.__all__) == names


def test_every_exported_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(iuptools, name) is getattr(module, name)


@pytest.mark.parametrize("module", ["iuptools", "iuptools.cli"])
def test_import_does_not_load_scipy_optimize(module):
    # scipy.optimize costs every caller ~0.3 s and ~23 MiB at import
    src = str(Path(iuptools.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = f"import sys, {module}; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"

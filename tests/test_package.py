"""The package namespace re-exports each module's public names."""

from __future__ import annotations

import dataclasses
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


# simulate, write, read, analyse and export one small stack, so that a scipy
# import deferred into any of those calls is caught too
LOOP = """
import pathlib, tempfile
from iuptools import fringes, optics, stackio
scene = optics.make_test_target("smooth-wing", 48)
config = optics.OpticalConfig(sensor_width=40, sensor_height=32)
plan = optics.ScanPlan.equal_steps(4, config.undetected_wavelength_nm)
stack = optics.simulate_stack(scene, config, plan, optics.NoiseModel(shot_noise=True, rng_seed=1))
with tempfile.TemporaryDirectory() as d:
    stackio.write_stack(stack, pathlib.Path(d, "stack"))
    result = fringes.analyze_stack(stackio.read_stack(pathlib.Path(d, "stack")))
    stackio.export_maps(result, pathlib.Path(d, "maps"), preview=True)
"""


@pytest.mark.parametrize(
    "code",
    ["import iuptools", "import iuptools.cli", LOOP],
    ids=["iuptools", "iuptools.cli", "loop"],
)
def test_no_scipy_module_is_loaded(code):
    # scipy.ndimage and scipy.special cost every caller ~0.4 s and ~19 MiB at
    # import; the runtime needs numpy alone
    src = str(Path(iuptools.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys\nprint(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run(
        [sys.executable, "-c", f"{code}\n{probe}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_checked_dataclasses_are_frozen():
    # a class that checks its fields in __post_init__ must be frozen, or an
    # assignment would skip the checks
    checked = {
        name: getattr(module, name)
        for module in MODULES
        for name in module.__all__
        if dataclasses.is_dataclass(getattr(module, name))
        and hasattr(getattr(module, name), "__post_init__")
    }
    assert {
        "FrameStack", "ExtractionOptions", "ObjectScene", "OpticalConfig", "ScanPlan",
        "NoiseModel", "CrystalState", "DispersionSet",
    } <= set(checked)
    assert [name for name, cls in checked.items() if not cls.__dataclass_params__.frozen] == []

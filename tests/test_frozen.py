"""Settings objects and frame stacks are checked once, when they are made.

ExtractionOptions, ObjectScene, OpticalConfig, ScanPlan, NoiseModel,
CrystalState and FrameStack are frozen: assigning or deleting a field raises
FrozenInstanceError and leaves the object as it was, and dataclasses.replace
makes a new object that runs the class's checks again.
"""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from iuptools.fringes import ExtractionOptions, FrameStack, OptionsError
from iuptools.optics import (
    ConfigurationError,
    NoiseModel,
    OpticalConfig,
    ScanPlan,
    make_test_target,
    simulate_stack,
)
from iuptools.qpm import CrystalState

PHASES = 2.0 * np.pi * np.arange(3) / 3
STACK = FrameStack(np.random.default_rng(7).uniform(0.0, 90.0, (3, 4, 5)), PHASES, {"k": 1})
OPTIONS = ExtractionOptions("fixed", 1.25, 0.5)
SCENE = make_test_target("smooth-wing", 48)
CONFIG = OpticalConfig(sensor_width=40, sensor_height=32)
PLAN = ScanPlan.equal_steps(8, CONFIG.undetected_wavelength_nm)
NOISE = NoiseModel(shot_noise=True, read_noise_sigma=2.0, rng_seed=5)
CRYSTAL = CrystalState(7.4, 25.0)

OBJECTS = [STACK, OPTIONS, SCENE, CONFIG, PLAN, NOISE, CRYSTAL]
FIELDS = [
    pytest.param(obj, f.name, id=f"{type(obj).__name__}.{f.name}")
    for obj in OBJECTS
    for f in dataclasses.fields(obj)
]


@pytest.mark.parametrize("obj, name", FIELDS)
def test_fields_cannot_be_assigned_or_deleted(obj, name):
    before = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    shown = repr(obj)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, name, getattr(obj, name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(obj, name)
    assert all(getattr(obj, key) is value for key, value in before.items())
    assert repr(obj) == shown


# (object, changed fields, the class's error, what the error names)
REFUSED = [
    pytest.param(OPTIONS, {"frequency_mode": "bogus"}, OptionsError, "frequency_mode 'bogus'",
                 id="unknown-mode"),
    pytest.param(ExtractionOptions(), {"frequency_mode": "fixed"}, OptionsError, "fixed_frequency",
                 id="fixed-mode-without-frequency"),
    pytest.param(OPTIONS, {"min_dc_threshold": math.nan}, OptionsError, "min_dc_threshold",
                 id="nan-threshold"),
    pytest.param(CONFIG, {"mean_counts": -5}, ConfigurationError, "mean_counts",
                 id="negative-mean-counts"),
    pytest.param(CRYSTAL, {"poling_period_um": -1}, ValueError, "poling_period_um",
                 id="negative-period"),
    pytest.param(PLAN, {"exposure_ms": -3}, ValueError, "exposure_ms", id="negative-exposure"),
    pytest.param(SCENE, {"amplitude_map": np.full((48, 48), 3.0)}, ValueError, "amplitude values",
                 id="amplitude-past-1"),
    pytest.param(STACK, {"frames": np.full((3, 4, 5), -1.0)}, ValueError, "frame counts",
                 id="negative-frames"),
    pytest.param(STACK, {"frames": np.ones((5, 4, 5))}, ValueError,
                 "scan_phases length must equal the frame count", id="frame-count-mismatch"),
]


@pytest.mark.parametrize("obj, changes, error, named", REFUSED)
def test_replace_runs_the_checks_again(obj, changes, error, named):
    with pytest.raises(error, match=named) as caught:
        dataclasses.replace(obj, **changes)
    assert caught.type is error


def test_replace_masks_a_negative_seed_to_64_bits():
    # the seed is taken modulo 2**64 when the model is made, so -1 is a seed like any other
    noise = dataclasses.replace(NOISE, rng_seed=-1)
    assert noise.rng_seed == 2**64 - 1
    stack = simulate_stack(SCENE, CONFIG, ScanPlan.equal_steps(3, 1558.0), noise)
    assert stack.frame_count == 3 and stack._max_count() > 0.0


@pytest.mark.parametrize("stored", ["float", "uint16", "uint16-read"])
@pytest.mark.parametrize(
    "duplicate", [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_keep_the_samples_and_gain(stored, duplicate):
    if stored == "float":
        stack = STACK
    else:
        samples = np.rint(STACK.frames * 700.0).astype(np.uint16)
        stack = FrameStack._from_samples(samples, 700.0, PHASES.copy(), {"gain": 700.0})
        if stored == "uint16-read":
            stack.frames
    got = duplicate(stack)
    # a read of frames stores nothing, so the copies still hold the uint16 samples
    assert got._counts[0].dtype == stack._counts[0].dtype
    assert stack._counts[0].dtype == (np.float64 if stored == "float" else np.uint16)
    assert np.array_equal(got._counts[0], stack._counts[0])
    assert got._counts[1] == stack._counts[1]
    assert np.array_equal(got.scan_phases, stack.scan_phases) and got.meta == stack.meta
    assert np.array_equal(got.frames, stack.frames)

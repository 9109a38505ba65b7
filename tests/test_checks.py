"""One table of every count and quantity argument and the values each refuses.

A count is an int or numpy integer, never a bool, within the site's bounds; a
quantity is a finite real number, never a bool, > 0 or >= 0 where the site
asks. Each refusal raises the site's error class and names the argument, and
numpy scalars give the same result as Python numbers.
"""

import dataclasses
import re

import numpy as np
import pytest

from iuptools.bench import run_bench
from iuptools.fringes import (
    ExtractionOptions,
    FrameStack,
    OptionsError,
    analyze_stack,
    contrast,
    dft_component,
    single_bin_amplitude,
    visibility,
)
from iuptools.optics import (
    ConfigurationError,
    NoiseModel,
    OpticalConfig,
    ScanPlan,
    coherence_envelope,
    fringe_phase_from_mirror,
    magnification,
    make_test_target,
    psf_width,
    render_frame,
)
from iuptools.qpm import (
    CrystalState,
    idler_from_signal,
    qpm_mismatch,
    refractive_index,
    solve_signal_idler,
    tuning_curve,
)

SCENE = make_test_target("smooth-wing", (12, 14), scene_pitch_um=5.2)
CONFIG = OpticalConfig(sensor_width=10, sensor_height=8)
SHOT = NoiseModel(shot_noise=True, read_noise_sigma=2.0, rng_seed=5)
PHASES = 2.0 * np.pi * np.arange(4) / 4
RAMP = np.linspace(0.0, 1.0, 6)[None, :] + np.linspace(0.0, 0.5, 5)[:, None]
SERIES = 100.0 + 40.0 * np.cos(2.0 * np.pi * 1.25 * np.arange(6) / 6 + 0.4)
STACK = FrameStack(100.0 * (1.0 + 0.5 * np.cos(PHASES[:, None, None] + RAMP)), PHASES)
CRYSTAL = CrystalState(7.4, 25.0)

# (site, call with the value, error class, the name the error gives, good value, rule, bound):
# a count's bound is its least value; a quantity's is "> 0", ">= 0" or None
SITES = [
    ("ScanPlan.equal_steps:frame_count", lambda v: ScanPlan.equal_steps(v, 1558.0),
     ValueError, "frame_count", 4, "count", 1),
    ("ScanPlan.equal_steps:idler_wavelength_nm", lambda v: ScanPlan.equal_steps(4, v),
     ValueError, "idler_wavelength_nm", 1558.0, "quantity", "> 0"),
    ("render_frame:scan_phase", lambda v: render_frame(SCENE, CONFIG, v, SHOT, 1),
     ValueError, "scan_phase", 0.3, "quantity", None),
    ("render_frame:frame_index", lambda v: render_frame(SCENE, CONFIG, 0.3, SHOT, frame_index=v),
     ValueError, "frame_index", 2, "count", 0),
    ("make_test_target:size", lambda v: make_test_target("smooth-wing", v),
     ValueError, "size", 6, "count", 1),
    ("make_test_target:size-pair", lambda v: make_test_target("ring-electrode", (7, v)),
     ValueError, "size", 9, "count", 1),
    ("make_test_target:scene_pitch_um", lambda v: make_test_target("uniform", 4, scene_pitch_um=v),
     ValueError, "scene_pitch_um", 5.2, "quantity", "> 0"),
    ("make_test_target:step_rad", lambda v: make_test_target("phase-step", (4, 6), step_rad=v),
     ValueError, "step_rad", 0.3, "quantity", None),
    ("fringe_phase_from_mirror:idler_wavelength_nm", lambda v: fringe_phase_from_mirror(123.0, v),
     ValueError, "idler_wavelength_nm", 1558.0, "quantity", "> 0"),
    ("coherence_envelope:path_mismatch_mm", lambda v: coherence_envelope(v, 0.1),
     ValueError, "path_mismatch_mm", 0.03, "quantity", None),
    ("coherence_envelope:coherence_length_mm", lambda v: coherence_envelope(0.03, v),
     ValueError, "coherence_length_mm", 0.1, "quantity", "> 0"),
    ("psf_width:f_u_mm", lambda v: psf_width(v, 1558.0, 1.0),
     ValueError, "f_u_mm", 50.0, "quantity", "> 0"),
    ("psf_width:lambda_u_nm", lambda v: psf_width(50.0, v, 1.0),
     ValueError, "lambda_u_nm", 1558.0, "quantity", "> 0"),
    ("psf_width:pump_waist_mm", lambda v: psf_width(50.0, 1558.0, v),
     ValueError, "pump_waist_mm", 1.0, "quantity", "> 0"),
    ("magnification:f_c_mm", lambda v: magnification(v, 50.0, 808.0, 1558.0),
     ValueError, "f_c_mm", 75.0, "quantity", "> 0"),
    ("magnification:f_u_mm", lambda v: magnification(75.0, v, 808.0, 1558.0),
     ValueError, "f_u_mm", 50.0, "quantity", "> 0"),
    ("magnification:lambda_d_nm", lambda v: magnification(75.0, 50.0, v, 1558.0),
     ValueError, "lambda_d_nm", 808.0, "quantity", "> 0"),
    ("magnification:lambda_u_nm", lambda v: magnification(75.0, 50.0, 808.0, v),
     ValueError, "lambda_u_nm", 1558.0, "quantity", "> 0"),
    ("OpticalConfig:sensor_width", lambda v: OpticalConfig(sensor_width=v),
     ConfigurationError, "sensor_width", 40, "count", 1),
    ("OpticalConfig:sensor_height", lambda v: OpticalConfig(sensor_height=v),
     ConfigurationError, "sensor_height", 32, "count", 1),
    ("analyze_stack:threads", lambda v: analyze_stack(STACK, threads=v),
     OptionsError, "threads", 2, "count", 1),
    ("FrameStack.truncated:n", lambda v: STACK.truncated(v),
     ValueError, "n=", 3, "count", 1),
    ("ExtractionOptions:fixed_frequency",
     lambda v: ExtractionOptions(frequency_mode="fixed", fixed_frequency=v),
     OptionsError, "fixed_frequency", 1.25, "quantity", "> 0"),
    ("ExtractionOptions:min_dc_threshold", lambda v: ExtractionOptions(min_dc_threshold=v),
     OptionsError, "min_dc_threshold", 1e-9, "quantity", ">= 0"),
    ("run_bench:width", lambda v: run_bench(v, 6, [3], 2),
     ValueError, "width", 8, "count", 1),
    ("run_bench:height", lambda v: run_bench(8, v, [3], 2),
     ValueError, "height", 6, "count", 1),
    ("run_bench:runs", lambda v: run_bench(8, 6, [3], v),
     ValueError, "runs", 2, "count", 2),
    ("run_bench:frame_counts", lambda v: run_bench(8, 6, [4, v], 2),
     ValueError, "frame count", 3, "count", 3),
    ("dft_component:m", lambda v: dft_component([2.0, 1.0, 0.0, 1.0, 3.0], v),
     ValueError, "m", 1, "count", 0),
    ("single_bin_amplitude:f", lambda v: single_bin_amplitude(SERIES, v),
     ValueError, "f must", 1.25, "quantity", None),
    ("contrast:F1", lambda v: contrast(v, 4), ValueError, "F1", 2.0, "quantity", ">= 0"),
    ("contrast:K", lambda v: contrast(2.0, v), ValueError, "K", 4, "count", 3),
    ("visibility:F0", lambda v: visibility(v, 1.5), ValueError, "F0", 4.0, "quantity", "> 0"),
    ("visibility:F1", lambda v: visibility(4.0, v), ValueError, "F1", 1.5, "quantity", ">= 0"),
    ("CrystalState:temperature_c", lambda v: CrystalState(7.4, v),
     ValueError, "temperature_c", 25.0, "quantity", None),
    ("idler_from_signal:pump_nm", lambda v: idler_from_signal(v, 808.0),
     ValueError, "pump_nm", 532.0, "quantity", "> 0"),
    ("idler_from_signal:signal_nm", lambda v: idler_from_signal(532.0, v),
     ValueError, "signal_nm", 808.0, "quantity", "> 0"),
    ("tuning_curve:poling_periods_um", lambda v: tuning_curve(532.0, [v], [25.0]),
     ValueError, "poling_period", 7.4, "quantity", "> 0"),
    ("tuning_curve:temperatures_c", lambda v: tuning_curve(532.0, [7.4], [v]),
     ValueError, "temperature", 25.0, "quantity", None),
    ("refractive_index:wavelength_nm", lambda v: refractive_index(v, 25.0),
     ValueError, "wavelength", 1550.0, "quantity", "> 0"),
    ("refractive_index:temperature_c", lambda v: refractive_index(1550.0, v),
     ValueError, "temperature", 25.0, "quantity", None),
    ("qpm_mismatch:pump_nm", lambda v: qpm_mismatch(v, 800.0, CRYSTAL),
     ValueError, "pump", 532.0, "quantity", "> 0"),
    ("solve_signal_idler:pump_nm", lambda v: solve_signal_idler(v, CRYSTAL),
     ValueError, "pump", 532.0, "quantity", "> 0"),
]

# "25" lies inside every site's window, so a site that converted text would accept it
NOT_NUMBERS = [True, np.True_, "3", "25", np.nan, np.inf, -np.inf]


def _refused(rule, bound) -> list:
    """The values a site refuses: never a bool, a string or a value that is not
    finite; a count never a float; 0 and -1 where below the bound."""
    values = NOT_NUMBERS + ([2.0] if rule == "count" else [])
    if rule == "count":
        return values + [v for v in (0, -1) if v < bound]
    return values + {"> 0": [0, -1], ">= 0": [-1], None: []}[bound]


REFUSALS = [
    pytest.param(call, error, name, value, id=f"{site}-{value!r}")
    for site, call, error, name, _, rule, bound in SITES
    for value in _refused(rule, bound)
]


@pytest.mark.parametrize("call, error, name, value", REFUSALS)
def test_refused_with_the_sites_error_naming_the_argument(call, error, name, value):
    with pytest.raises(error, match=re.escape(name)):
        call(value)


def _fingerprint(result):
    """What a result holds, comparable with ==: arrays by dtype, shape and bytes,
    numbers as complex, dataclasses (a stack too) field by field, bench timings
    and the machine left out."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, (int, float, complex, np.number)):
        return complex(result)
    if isinstance(result, (list, tuple)):
        return tuple(map(_fingerprint, result))
    if dataclasses.is_dataclass(result):
        return tuple(
            (f.name, _fingerprint(getattr(result, f.name)))
            for f in dataclasses.fields(result)
            if f.name not in ("mean_ms", "std_ms", "machine")
        )
    return result


@pytest.mark.parametrize(
    "call, good, rule",
    [pytest.param(call, good, rule, id=site) for site, call, _, _, good, rule, _ in SITES],
)
def test_numpy_scalars_give_the_same_result(call, good, rule):
    scalar = np.int64(good) if rule == "count" else np.float64(good)
    assert _fingerprint(call(scalar)) == _fingerprint(call(good))

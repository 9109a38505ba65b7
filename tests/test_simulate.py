"""Tests for the interferometer frame simulator."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import os
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from iuptools import optics
from iuptools import (
    ConfigurationError,
    ExtractionOptions,
    FrameStack,
    NoiseModel,
    ObjectScene,
    OpticalConfig,
    ScanPlan,
    analyze_stack,
    coherence_envelope,
    effective_complex_map,
    fringe_phase_from_mirror,
    magnification,
    make_test_target,
    psf_width,
    render_frame,
    simulate_stack,
)


def small_config(**kw):
    kw.setdefault("sensor_width", 40)
    kw.setdefault("sensor_height", 32)
    return OpticalConfig(**kw)


MiB = 2**20


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of one call of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def full_array_target(kind, shape, step_rad=math.pi / 4.0):
    """The (amplitude, phase) maps of make_test_target, built from whole-size
    coordinate grids."""
    h, w = shape
    yy = (np.arange(h) - (h - 1) / 2.0) / (min(h, w) / 2.0)
    xx = (np.arange(w) - (w - 1) / 2.0) / (min(h, w) / 2.0)
    yy, xx = np.meshgrid(yy, xx, indexing="ij")
    if kind == "ring-electrode":
        r = np.hypot(yy, xx)
        amplitude = np.ones(shape)
        amplitude[r < 0.08] = 0.0
        for i in range(3):
            lo = 0.18 + 0.20 * i
            amplitude[(r >= lo) & (r < lo + 0.08)] = 0.0
        return amplitude, np.zeros(shape)
    if kind == "smooth-wing":
        body = np.exp(-(xx * xx + 2.0 * yy * yy))
        veins = np.cos(4.0 * np.pi * xx) * np.exp(-yy * yy)
        amplitude = 0.2 + 0.6 * body + 0.15 * veins
        return amplitude, 0.3 * np.sin(2.0 * np.pi * xx) * np.exp(-yy * yy)
    if kind == "phase-step":
        return np.ones(shape), np.where(xx >= 0.0, step_rad, 0.0)
    return np.ones(shape), np.zeros(shape)


def full_array_illumination(config):
    """optics._illumination from whole-size arrays."""
    rows_um = (np.arange(config.sensor_height) - (config.sensor_height - 1) / 2.0) * config.pixel_pitch_um
    cols_um = (np.arange(config.sensor_width) - (config.sensor_width - 1) / 2.0) * config.pixel_pitch_um
    w = 0.4 * min(config.sensor_height, config.sensor_width) * config.pixel_pitch_um
    r2 = rows_um[:, None] ** 2 + cols_um[None, :] ** 2
    return np.exp(-2.0 * r2 / (w * w))


class TestFormulaHelpers:
    def test_fringe_phase(self):
        assert fringe_phase_from_mirror(0.0, 1558.0) == 0.0
        assert fringe_phase_from_mirror(1558.0 / 2, 1558.0) == pytest.approx(2 * np.pi)
        assert fringe_phase_from_mirror(1558.0 / 8, 1558.0) == pytest.approx(np.pi / 2)
        with pytest.raises(ValueError):
            fringe_phase_from_mirror(10.0, 0.0)

    def test_coherence_envelope(self):
        assert coherence_envelope(0.0, 0.1) == 1.0
        assert coherence_envelope(0.05, 0.1) == pytest.approx(0.5, rel=1e-12)
        assert coherence_envelope(1.0, 0.1) < 1e-100
        assert coherence_envelope(-0.05, 0.1) == coherence_envelope(0.05, 0.1)
        with pytest.raises(ValueError):
            coherence_envelope(0.1, 0.0)

    def test_psf_width_value(self):
        # 50 mm focal length, 1559 nm probe, 1 mm waist
        assert psf_width(50.0, 1559.0, 1.0) == pytest.approx(17.54, abs=0.01)

    def test_psf_width_scalings(self):
        base = psf_width(50.0, 1559.0, 1.0)
        assert psf_width(50.0, 2 * 1559.0, 1.0) == pytest.approx(2 * base)
        assert psf_width(50.0, 1559.0, 2.0) == pytest.approx(base / 2)

    def test_magnification_values(self):
        assert magnification(75, 50, 808, 1558) == pytest.approx(0.7779, abs=5e-4)
        assert magnification(75, 50, 752, 1818) == pytest.approx(0.6205, abs=5e-4)
        assert magnification(75, 50, 752, 1818) < magnification(75, 50, 808, 1558)
        assert magnification(60, 60, 900, 900) == 1.0


class TestSceneAndConfig:
    def test_scene_invariants(self):
        with pytest.raises(ValueError):
            ObjectScene(np.full((4, 4), 1.5), np.zeros((4, 4)))
        with pytest.raises(ValueError):
            ObjectScene(np.ones((4, 4)), np.zeros((3, 4)))
        with pytest.raises(ValueError, match="scene maps must be finite"):
            ObjectScene(np.ones((4, 4)), np.full((4, 4), np.nan))

    @pytest.mark.parametrize("shape", [(3,), (0, 3), (2, 2, 2)])
    def test_scene_maps_that_are_not_2d_or_empty_refused(self, shape):
        with pytest.raises(ValueError, match="^amplitude_map must be a non-empty 2-D array$"):
            ObjectScene(np.ones(shape), np.ones(shape))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["amplitude_map", "phase_map"])
    def test_non_finite_scene_maps_refused(self, field, value):
        maps = {"amplitude_map": np.full((3, 5), 0.5), "phase_map": np.zeros((3, 5))}
        maps[field][1, 2] = value
        with pytest.raises(ValueError, match="^scene maps must be finite$"):
            ObjectScene(**maps)
        # before the amplitude range is checked
        maps["amplitude_map"][0, 0] = 1.5
        with pytest.raises(ValueError, match="^scene maps must be finite$"):
            ObjectScene(**maps)

    def test_complex_map(self):
        scene = ObjectScene(np.full((2, 2), 0.5), np.full((2, 2), np.pi / 2))
        t = scene.complex_map()
        assert np.allclose(t, 0.5j)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            OpticalConfig(system_visibility=1.5)
        with pytest.raises(ConfigurationError):
            OpticalConfig(pump_waist_mm=0.0)
        with pytest.raises(ConfigurationError):
            # breaks 1/532 = 1/detected + 1/undetected
            OpticalConfig(detected_wavelength_nm=900.0)
        with pytest.raises(ConfigurationError):
            OpticalConfig(loss_coupling="magic")

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(read_noise_sigma=-1.0)
        with pytest.raises(ValueError):
            NoiseModel(dark_offset=-0.5)

    @pytest.mark.parametrize(
        "cls, field, value",
        [
            (NoiseModel, "read_noise_sigma", np.nan),
            (NoiseModel, "read_noise_sigma", np.inf),
            (NoiseModel, "dark_offset", np.nan),
            (OpticalConfig, "path_mismatch_mm", np.nan),
            (OpticalConfig, "mean_counts", np.inf),
            (OpticalConfig, "system_visibility", np.nan),
            (OpticalConfig, "f_u_mm", -np.inf),
        ],
    )
    def test_non_finite_setting_refused_by_name(self, cls, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            cls(**{field: value})

    @pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda v: ScanPlan([0.0, 1.0, 2.0], exposure_ms=v), "exposure_ms"),
            (lambda v: ObjectScene(np.ones((2, 2)), np.zeros((2, 2)), scene_pitch_um=v),
             "scene_pitch_um"),
        ],
        ids=["ScanPlan", "ObjectScene"],
    )
    def test_non_finite_scan_or_scene_refused_by_name(self, make, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            make(value)

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: OpticalConfig(sensor_width=1.5), "sensor_width"),
            (lambda: OpticalConfig(sensor_height=np.float64(32.0)), "sensor_height"),
            (lambda: NoiseModel(rng_seed=1.5), "rng_seed"),
            (lambda: ScanPlan.equal_steps(2.5, 1558.0), "frame_count"),
            # bool is an int, but no size or seed
            (lambda: OpticalConfig(sensor_width=True), "sensor_width"),
            (lambda: OpticalConfig(sensor_height=True), "sensor_height"),
            (lambda: NoiseModel(rng_seed=False), "rng_seed"),
        ],
        ids=["sensor_width", "sensor_height", "rng_seed", "frame_count",
             "sensor_width-bool", "sensor_height-bool", "rng_seed-bool"],
    )
    def test_non_integer_count_refused_by_name(self, make, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            make()

    def test_numpy_integer_counts_accepted(self):
        cfg = OpticalConfig(sensor_width=np.int64(40), sensor_height=np.int32(32))
        assert (cfg.sensor_width, cfg.sensor_height) == (40, 32)
        assert NoiseModel(rng_seed=np.uint64(7)).rng_seed == 7
        assert ScanPlan.equal_steps(np.int64(3), 1558.0).frame_count == 3

    @pytest.mark.parametrize("value", ["false", "", 0, 1, None, 1.0])
    def test_non_bool_switch_refused_by_name(self, value):
        with pytest.raises(ValueError, match=f"shot_noise must be a bool, got {value!r}"):
            NoiseModel(shot_noise=value)

    def test_numpy_bool_switch_accepted(self):
        cfg = small_config()
        scene = make_test_target("uniform", (8, 8))
        got = render_frame(scene, cfg, 0.3, NoiseModel(shot_noise=np.bool_(True), rng_seed=2))
        want = render_frame(scene, cfg, 0.3, NoiseModel(shot_noise=True, rng_seed=2))
        assert got.tobytes() == want.tobytes()

    def test_scan_plan_equal_steps(self):
        plan = ScanPlan.equal_steps(4, 1558.0)
        phases = [fringe_phase_from_mirror(p, 1558.0) for p in plan.mirror_positions_nm]
        assert phases == pytest.approx([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])

    def test_scan_plan_validation(self):
        with pytest.raises(ValueError):
            ScanPlan([])
        with pytest.raises(ValueError, match="^mirror_positions_nm must be finite, got inf$"):
            ScanPlan([0.0, np.inf])
        with pytest.raises(ValueError):
            ScanPlan.equal_steps(0, 1558.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("at", [0, 1, 2], ids=["first", "middle", "last"])
    def test_a_mirror_position_that_is_not_finite_is_refused_anywhere(self, value, at):
        positions = [0.0, 100.0, 200.0]
        positions[at] = value
        with pytest.raises(ValueError, match=f"^mirror_positions_nm must be finite, got {value}$"):
            ScanPlan(positions)


class TestTargets:
    def test_uniform(self):
        scene = make_test_target("uniform", 16)
        assert (scene.amplitude_map == 1.0).all()
        assert (scene.phase_map == 0.0).all()

    def test_ring_electrode_is_binary(self):
        scene = make_test_target("ring-electrode", 64)
        assert set(np.unique(scene.amplitude_map)) == {0.0, 1.0}
        # some structure in both classes
        assert 0.05 < scene.amplitude_map.mean() < 0.95

    def test_phase_step_histogram(self):
        scene = make_test_target("phase-step", 32, step_rad=np.pi / 4)
        assert set(np.unique(scene.phase_map)) == {0.0, np.pi / 4}
        assert (scene.amplitude_map == 1.0).all()

    def test_smooth_wing_is_continuous(self):
        scene = make_test_target("smooth-wing", 48)
        assert scene.amplitude_map.min() >= 0.0
        assert scene.amplitude_map.max() <= 1.0
        assert len(np.unique(scene.amplitude_map)) > 100

    def test_rectangular_size(self):
        scene = make_test_target("uniform", (24, 30))
        assert scene.amplitude_map.shape == (24, 30)

    @pytest.mark.parametrize(
        "size", [2.5, (2.5, 3.9), (24, 30.0), np.float64(16), (24,), (2, 3, 4), "ab", 0, (0, 3)]
    )
    def test_bad_size_refused_by_name(self, size):
        with pytest.raises(ValueError, match="size must be a positive integer"):
            make_test_target("uniform", size)

    def test_numpy_integer_size_accepted(self):
        assert make_test_target("uniform", np.int64(5)).amplitude_map.shape == (5, 5)
        scene = make_test_target("uniform", (np.int32(6), np.uint8(7)))
        assert scene.amplitude_map.shape == (6, 7)

    @pytest.mark.parametrize(
        "shape", [(1344, 1680), (48, 48), (37, 101), (256, 300), (1, 7), (999, 1001)]
    )
    @pytest.mark.parametrize("kind", optics.TARGET_KINDS)
    def test_maps_equal_full_array_formulas(self, kind, shape):
        scene = make_test_target(kind, shape)
        amplitude, phase = full_array_target(kind, shape)
        assert scene.amplitude_map.tobytes() == amplitude.tobytes()
        assert scene.phase_map.tobytes() == phase.tobytes()

    def test_phase_step_value_equals_full_array_formula(self):
        scene = make_test_target("phase-step", (37, 101), step_rad=-2.5)
        assert scene.phase_map.tobytes() == full_array_target("phase-step", (37, 101), -2.5)[1].tobytes()

    def test_integer_step_and_pitch_accepted_as_floats(self):
        scene = make_test_target("phase-step", (3, 4), step_rad=np.int64(2), scene_pitch_um=3)
        assert scene.phase_map.tobytes() == full_array_target("phase-step", (3, 4), 2.0)[1].tobytes()
        assert type(scene.scene_pitch_um) is float and scene.scene_pitch_um == 3.0

    @pytest.mark.parametrize("kind", optics.TARGET_KINDS)
    def test_full_frame_memory_is_the_maps_and_a_band_budget(self, kind):
        # the two maps, plus 2 MiB for the row bands; whole-size coordinate
        # grids would add 34 MiB
        peak = traced_peak(lambda: make_test_target(kind, (1344, 1680)))
        assert peak <= 2 * 1344 * 1680 * 8 + 2 * MiB

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_test_target("checkerboard", 16)

    def test_unknown_param(self):
        with pytest.raises(ValueError):
            make_test_target("uniform", 16, wiggle=3)


class TestRenderFrame:
    def test_bright_field_minimum_at_pi(self):
        cfg = small_config()
        scene = make_test_target("uniform", (cfg.sensor_height, cfg.sensor_width),
                                 scene_pitch_um=cfg.pixel_pitch_um)
        lo = render_frame(scene, cfg, np.pi)
        hi = render_frame(scene, cfg, 0.0)
        env = coherence_envelope(cfg.path_mismatch_mm, cfg.coherence_length_mm)
        # center pixel: G is approximately 1 there
        h, w = lo.shape
        g = hi[h // 2, w // 2] / (cfg.mean_counts * (1 + env))
        assert lo[h // 2, w // 2] == pytest.approx(cfg.mean_counts * g * (1 - env), rel=1e-9)

    def test_opaque_object_kills_interference(self):
        # unit magnification so the sensor sees the scene 1:1 and no
        # clear-aperture fill enters from beyond the scene border
        cfg = small_config(f_c_mm=50 * 1558 / 808)
        scene = ObjectScene(
            np.zeros((cfg.sensor_height, cfg.sensor_width)),
            np.zeros((cfg.sensor_height, cfg.sensor_width)),
            scene_pitch_um=cfg.pixel_pitch_um,
        )
        a = render_frame(scene, cfg, 0.0)
        b = render_frame(scene, cfg, np.pi)
        assert np.allclose(a, b, rtol=1e-9, atol=1e-9)

    def test_seeded_repeatability(self):
        cfg = small_config()
        scene = make_test_target("uniform", (cfg.sensor_height, cfg.sensor_width),
                                 scene_pitch_um=cfg.pixel_pitch_um)
        noise = NoiseModel(shot_noise=True, read_noise_sigma=3.0, rng_seed=101)
        a = render_frame(scene, cfg, 0.3, noise, frame_index=2)
        b = render_frame(scene, cfg, 0.3, noise, frame_index=2)
        assert np.array_equal(a, b)
        c = render_frame(scene, cfg, 0.3, noise, frame_index=3)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("scan_phase", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "noise", [NoiseModel(), NoiseModel(shot_noise=True)], ids=["noiseless", "shot"]
    )
    def test_non_finite_scan_phase_refused_by_name(self, scan_phase, noise):
        scene = make_test_target("uniform", (32, 40))
        with pytest.raises(ValueError, match="scan_phase"):
            render_frame(scene, small_config(), scan_phase, noise)

    @pytest.mark.parametrize("frame_index", [-1, 1.5, np.float64(1.0), 2**64])
    def test_bad_frame_index_refused_by_name(self, frame_index):
        scene = make_test_target("uniform", (32, 40))
        noise = NoiseModel(shot_noise=True, rng_seed=4)
        with pytest.raises(ValueError, match="frame_index"):
            render_frame(scene, small_config(), 0.0, noise, frame_index=frame_index)

    def test_numpy_integer_frame_index_keys_the_same_stream(self):
        scene = make_test_target("uniform", (32, 40))
        noise = NoiseModel(shot_noise=True, rng_seed=4)
        a = render_frame(scene, small_config(), 0.0, noise, frame_index=3)
        b = render_frame(scene, small_config(), 0.0, noise, frame_index=np.int64(3))
        assert a.tobytes() == b.tobytes()

    def test_counts_never_negative(self):
        cfg = small_config(mean_counts=2.0)
        scene = make_test_target("uniform", (cfg.sensor_height, cfg.sensor_width),
                                 scene_pitch_um=cfg.pixel_pitch_um)
        noise = NoiseModel(shot_noise=True, read_noise_sigma=10.0, rng_seed=8)
        frame = render_frame(scene, cfg, 0.0, noise)
        assert (frame >= 0.0).all()


class TestPhotonBudget:
    @pytest.mark.parametrize(
        "mean_counts, noise",
        [(1e308, NoiseModel()), (1e20, NoiseModel(shot_noise=True))],
        ids=["overflow", "poisson-limit"],
    )
    def test_unrenderable_budget_refused_by_name(self, mean_counts, noise):
        scene = make_test_target("uniform", (32, 40))
        config = small_config(mean_counts=mean_counts)
        with pytest.raises(ConfigurationError, match="mean_counts"):
            simulate_stack(scene, config, ScanPlan.equal_steps(4, 1558.0), noise)
        with pytest.raises(ConfigurationError, match="mean_counts"):
            render_frame(scene, config, 0.0, noise)

    @pytest.mark.parametrize("shot_noise", [False, True], ids=["read", "read+shot"])
    def test_read_noise_that_could_overflow_refused_by_name(self, builds, shot_noise):
        # refused before the basis is built, without an overflow warning
        # (pytest turns RuntimeWarning into an error)
        scene = make_test_target("uniform", (32, 40))
        noise = NoiseModel(shot_noise=shot_noise, read_noise_sigma=1e308)
        with pytest.raises(ConfigurationError, match="^read_noise_sigma 1e\\+308 can take"):
            simulate_stack(scene, small_config(), ScanPlan.equal_steps(4, 1558.0), noise)
        with pytest.raises(ConfigurationError, match="^read_noise_sigma 1e\\+308 can take"):
            render_frame(scene, small_config(), 0.0, noise)
        assert builds == []

    def test_large_read_noise_below_the_bound_renders(self):
        # |z| < 13 keeps 13 sigma + peak <= the float64 maximum from overflowing
        scene = make_test_target("uniform", (32, 40))
        noise = NoiseModel(read_noise_sigma=np.finfo(np.float64).max / 14, rng_seed=5)
        stack = simulate_stack(scene, small_config(), ScanPlan.equal_steps(3, 1558.0), noise)
        assert np.isfinite(stack.frames).all() and stack.frames.max() > 1e307

    def test_budget_past_the_poisson_limit_renders_without_shot_noise(self):
        scene = make_test_target("uniform", (32, 40))
        frame = render_frame(scene, small_config(mean_counts=1e20), 0.0)
        assert np.isfinite(frame).all() and frame.max() > 1e20


class TestSimulateStack:
    def test_scan_phase_metadata(self):
        cfg = small_config()
        scene = make_test_target("uniform", (cfg.sensor_height, cfg.sensor_width),
                                 scene_pitch_um=cfg.pixel_pitch_um)
        plan = ScanPlan.equal_steps(4, cfg.undetected_wavelength_nm, exposure_ms=200.0)
        stack = simulate_stack(scene, cfg, plan, NoiseModel())
        assert stack.scan_phases == pytest.approx([0, np.pi / 2, np.pi, 3 * np.pi / 2])
        assert stack.meta["exposure_ms"] == 200.0
        assert stack.meta["undetected_nm"] == cfg.undetected_wavelength_nm

    def test_scan_phases_equal_the_scalar_formula(self):
        cfg = small_config()
        scene = make_test_target("uniform", (8, 8))
        positions = [0.0, 97.3, 211.0, 388.8, 1013.7, -52.1, 0.1]
        stack = simulate_stack(scene, cfg, ScanPlan(positions), NoiseModel())
        want = [fringe_phase_from_mirror(d, cfg.undetected_wavelength_nm) for d in positions]
        assert np.array_equal(stack.scan_phases, want)

    @pytest.mark.parametrize("position", [1e308, -1e308])
    def test_overflowing_mirror_position_refused_by_name(self, builds, position):
        # refused before the basis is built, without an overflow warning
        # (pytest turns RuntimeWarning into an error)
        plan = ScanPlan([0.0, position])
        with pytest.raises(ValueError, match="mirror_positions_nm"):
            simulate_stack(make_test_target("uniform", (8, 8)), small_config(), plan)
        assert builds == []

    def test_noiseless_round_trip(self):
        """analyze(simulate(scene)) returns V_sys*E*|t| and arg t per pixel."""
        cfg = small_config(system_visibility=0.85, path_mismatch_mm=0.03)
        shape = (cfg.sensor_height, cfg.sensor_width)
        rng = np.random.default_rng(3)
        amp = rng.uniform(0.2, 1.0, shape)
        ph = rng.uniform(-2.0, 2.0, shape)
        scene = ObjectScene(amp, ph, scene_pitch_um=cfg.pixel_pitch_um)
        plan = ScanPlan.equal_steps(8, cfg.undetected_wavelength_nm)
        stack = simulate_stack(scene, cfg, plan, NoiseModel())
        res = analyze_stack(stack)

        t = effective_complex_map(scene, cfg)
        env = coherence_envelope(cfg.path_mismatch_mm, cfg.coherence_length_mm)
        want_vis = cfg.system_visibility * env * np.abs(t)
        assert np.abs(res.visibility_map - want_vis).max() <= 1e-9
        err = np.angle(np.exp(1j * (res.phase_map - np.angle(t))))
        assert np.abs(err).max() <= 1e-9

    def test_phase_step_round_trip(self):
        cfg = small_config(f_c_mm=50 * 1558 / 808)  # unit magnification
        step = np.pi / 4
        scene = make_test_target(
            "phase-step", (cfg.sensor_height, cfg.sensor_width),
            step_rad=step, scene_pitch_um=cfg.pixel_pitch_um,
        )
        plan = ScanPlan.equal_steps(8, cfg.undetected_wavelength_nm)
        res = analyze_stack(simulate_stack(scene, cfg, plan, NoiseModel()))
        h, w = cfg.sensor_height, cfg.sensor_width
        left = res.phase_map[h // 2, w // 8]
        right = res.phase_map[h // 2, w - w // 8]
        assert right - left == pytest.approx(step, abs=1e-6)

    def test_stack_determinism_with_noise(self):
        cfg = small_config()
        scene = make_test_target("ring-electrode", (cfg.sensor_height, cfg.sensor_width),
                                 scene_pitch_um=cfg.pixel_pitch_um)
        plan = ScanPlan.equal_steps(4, cfg.undetected_wavelength_nm)
        noise = NoiseModel(shot_noise=True, read_noise_sigma=2.0, rng_seed=77)
        s1 = simulate_stack(scene, cfg, plan, noise)
        s2 = simulate_stack(scene, cfg, plan, noise)
        assert np.array_equal(s1.frames, s2.frames)
        s3 = simulate_stack(scene, cfg, plan,
                            NoiseModel(shot_noise=True, read_noise_sigma=2.0, rng_seed=78))
        assert not np.array_equal(s1.frames, s3.frames)

    def test_intensity_coupling_squares_amplitude(self):
        amp = np.full((32, 40), 0.6)
        scene = ObjectScene(amp, np.zeros_like(amp), scene_pitch_um=5.2)
        plan = ScanPlan.equal_steps(8, 1558.0)
        vis = {}
        for coupling in ("amplitude", "intensity"):
            cfg = small_config(loss_coupling=coupling)
            res = analyze_stack(simulate_stack(scene, cfg, plan, NoiseModel()))
            vis[coupling] = res.visibility_map[16, 20]
        assert vis["amplitude"] == pytest.approx(0.6, abs=1e-6)
        assert vis["intensity"] == pytest.approx(0.36, abs=1e-6)

    @pytest.mark.parametrize(
        "coupling, noise",
        [
            ("amplitude", NoiseModel(shot_noise=True, rng_seed=12)),
            ("amplitude", NoiseModel(shot_noise=True, read_noise_sigma=3.0, rng_seed=12)),
            ("intensity", NoiseModel(shot_noise=True, rng_seed=13)),
            ("intensity", NoiseModel(shot_noise=True, read_noise_sigma=3.0, rng_seed=13)),
            ("amplitude", NoiseModel(read_noise_sigma=3.0, dark_offset=4.0, rng_seed=14)),
        ],
        ids=["shot", "shot+read", "intensity-shot", "intensity-shot+read", "read+dark"],
    )
    def test_stack_frames_equal_render_frame(self, coupling, noise):
        # 300 pixels per row do not divide the row chunk and 217 rows are not
        # a whole number of chunks, so chunk edges fall inside the frame
        cfg = small_config(sensor_width=300, sensor_height=217, loss_coupling=coupling)
        scene = make_test_target("smooth-wing", (300, 390))
        plan = ScanPlan.equal_steps(3, cfg.undetected_wavelength_nm)
        stack = simulate_stack(scene, cfg, plan, noise)
        for i, scan_phase in enumerate(stack.scan_phases):
            frame = render_frame(scene, cfg, scan_phase, noise, frame_index=i)
            assert np.array_equal(stack.frames[i], frame)


def reference_complex_map(scene, cfg):
    """The resampling written out point by point: meshgrid plus map_coordinates."""
    m = magnification(cfg.f_c_mm, cfg.f_u_mm, cfg.detected_wavelength_nm,
                      cfg.undetected_wavelength_nm)
    h, w = cfg.sensor_height, cfg.sensor_width
    rows_um = (np.arange(h) - (h - 1) / 2.0) * cfg.pixel_pitch_um
    cols_um = (np.arange(w) - (w - 1) / 2.0) * cfg.pixel_pitch_um
    sh, sw = scene.amplitude_map.shape
    row_idx = rows_um / (m * scene.scene_pitch_um) + (sh - 1) / 2.0
    col_idx = cols_um / (m * scene.scene_pitch_um) + (sw - 1) / 2.0
    rr, cc = np.meshgrid(row_idx, col_idx, indexing="ij")
    src = scene.complex_map()
    real = ndimage.map_coordinates(src.real, [rr, cc], order=1, mode="grid-constant", cval=1.0)
    imag = ndimage.map_coordinates(src.imag, [rr, cc], order=1, mode="grid-constant", cval=0.0)
    sigma_px = psf_width(cfg.f_u_mm, cfg.undetected_wavelength_nm, cfg.pump_waist_mm) / 2.0
    sigma_px /= cfg.pixel_pitch_um
    real = ndimage.gaussian_filter(real, sigma_px, mode="nearest")
    imag = ndimage.gaussian_filter(imag, sigma_px, mode="nearest")
    return real + 1j * imag


class TestEffectiveComplexMap:
    @pytest.mark.parametrize(
        "cfg_kw, scene_shape",
        [
            ({}, (140, 170)),  # magnification 0.78, scene covers the sensor
            ({"f_c_mm": 50 * 1558 / 808}, (80, 96)),  # unit magnification
            ({}, (40, 50)),  # scene smaller than the sensor: clear-aperture fill
        ],
        ids=["default-magnification", "unit-magnification", "small-scene"],
    )
    def test_matches_pointwise_resampling(self, cfg_kw, scene_shape):
        cfg = small_config(sensor_width=96, sensor_height=80, **cfg_kw)
        rng = np.random.default_rng(21)
        scene = ObjectScene(
            rng.uniform(0.0, 1.0, scene_shape),
            rng.uniform(-np.pi, np.pi, scene_shape),
            scene_pitch_um=cfg.pixel_pitch_um,
        )
        got = effective_complex_map(scene, cfg)
        want = reference_complex_map(scene, cfg)
        assert got.shape == (cfg.sensor_height, cfg.sensor_width)
        assert np.abs(got - want).max() <= 1e-12
        if scene_shape == (40, 50):
            # the border sees clear aperture, t = 1
            assert got[0, 0] == pytest.approx(1.0, abs=1e-12)


def scipy_complex_map(scene, cfg):
    """effective_complex_map through scipy.ndimage: affine_transform, then
    gaussian_filter, per quadrature."""
    m = magnification(cfg.f_c_mm, cfg.f_u_mm, cfg.detected_wavelength_nm,
                      cfg.undetected_wavelength_nm)
    h, w = cfg.sensor_height, cfg.sensor_width
    sh, sw = scene.amplitude_map.shape
    step = cfg.pixel_pitch_um / (m * scene.scene_pitch_um)
    row0 = -(h - 1) / 2.0 * cfg.pixel_pitch_um / (m * scene.scene_pitch_um) + (sh - 1) / 2.0
    col0 = -(w - 1) / 2.0 * cfg.pixel_pitch_um / (m * scene.scene_pitch_um) + (sw - 1) / 2.0
    sigma_px = psf_width(cfg.f_u_mm, cfg.undetected_wavelength_nm, cfg.pump_waist_mm) / 2.0
    sigma_px /= cfg.pixel_pitch_um
    t = np.empty((h, w), dtype=np.complex128)
    for quadrature, fill, out in ((np.cos, 1.0, t.real), (np.sin, 0.0, t.imag)):
        part = quadrature(scene.phase_map) * scene.amplitude_map
        part = ndimage.affine_transform(
            part, (step, step), offset=(row0, col0), output_shape=(h, w),
            order=1, mode="grid-constant", cval=fill,
        )
        ndimage.gaussian_filter(part, sigma_px, mode="nearest", output=out)
    return t


class TestScipyEquivalence:
    """The resampling and blur reproduce scipy.ndimage's arithmetic bit for bit."""

    def test_resample_and_blur_fuzz(self):
        rng = np.random.default_rng(2024)
        for case in range(400):
            sh, sw = rng.integers(1, 41, size=2)
            shape = tuple(int(n) for n in rng.integers(1, 51, size=2))
            step = float(rng.uniform(0.05, 3.0))
            origin = tuple(float(v) for v in rng.uniform(-30.0, 30.0, size=2))
            fill = float(case % 2)
            part = rng.uniform(-1.0, 1.0, (sh, sw))
            # signed zeros test the order of the sums
            part[rng.uniform(size=part.shape) < 0.2] = -0.0
            want = ndimage.affine_transform(
                part, (step, step), offset=origin, output_shape=shape,
                order=1, mode="grid-constant", cval=fill,
            )
            got = np.empty(shape)
            optics._resample(
                lambda lo, hi, dest: np.copyto(dest, part[lo:hi]), part.shape, step, origin, fill, got
            )
            assert got.tobytes() == want.tobytes(), (case, part.shape, shape, step, origin, fill)
            # every 10th case has radius 0; sigma up to 6 gives radii past the side
            sigma = 0.1 if case % 10 == 0 else float(rng.uniform(0.05, 6.0))
            blurred = np.empty(shape)
            optics._blur(want, sigma, blurred)
            want_blurred = ndimage.gaussian_filter(want, sigma, mode="nearest")
            assert blurred.tobytes() == want_blurred.tobytes(), (case, shape, sigma)

    @pytest.mark.parametrize(
        "pump_waist_mm",
        [1.0, 20.0, 1e20, 0.02],
        ids=["default", "radius-0", "sigma-1e-20", "radius-past-side"],
    )
    def test_effective_complex_map_matches_scipy(self, pump_waist_mm):
        cfg = small_config(pump_waist_mm=pump_waist_mm)
        scene = make_test_target("smooth-wing", (45, 60))
        got = effective_complex_map(scene, cfg)
        assert got.tobytes() == scipy_complex_map(scene, cfg).tobytes()

    def test_full_frame_matches_scipy(self):
        scene = make_test_target("smooth-wing", (1344, 1680))
        cfg = OpticalConfig()
        got = effective_complex_map(scene, cfg)
        assert got.tobytes() == scipy_complex_map(scene, cfg).tobytes()

    @pytest.mark.parametrize(
        "make_scene, cfg_kw",
        [
            # 3x upsampled: each scene row is read by several row chunks
            (lambda: make_test_target("smooth-wing", (300, 420)),
             {"sensor_width": 640, "sensor_height": 512, "f_c_mm": 200.0}),
            # 5x downsampled: row chunks read rows far apart
            (lambda: make_test_target("ring-electrode", (1400, 1800)),
             {"sensor_width": 333, "sensor_height": 257, "f_c_mm": 20.0}),
            # a scene smaller than the field of view
            (lambda: make_test_target("phase-step", (120, 90)),
             {"sensor_width": 320, "sensor_height": 256}),
            # a scene that most row chunks do not see
            (lambda: make_test_target("smooth-wing", (30, 40), scene_pitch_um=1.0), {}),
            # Fortran-ordered and strided maps
            (lambda: ObjectScene(
                np.asfortranarray(np.random.default_rng(3).uniform(0.0, 1.0, (90, 110))),
                np.asfortranarray(np.random.default_rng(4).uniform(-3.0, 3.0, (90, 110))),
            ), {"sensor_width": 64, "sensor_height": 80}),
            (lambda: ObjectScene(
                np.random.default_rng(5).uniform(0.0, 1.0, (180, 220))[::2, ::2],
                np.random.default_rng(6).uniform(-3.0, 3.0, (180, 220))[::2, ::2],
            ), {"sensor_width": 64, "sensor_height": 80}),
        ],
        ids=["upsampled", "downsampled", "small-scene", "tiny-scene", "fortran", "strided"],
    )
    def test_scene_and_sensor_pairs_match_scipy(self, make_scene, cfg_kw):
        scene, cfg = make_scene(), OpticalConfig(**cfg_kw)
        got = effective_complex_map(scene, cfg)
        assert got.tobytes() == scipy_complex_map(scene, cfg).tobytes()

    def test_full_frame_memory_is_the_map_one_part_and_a_band_budget(self):
        # the complex map, one sensor-sized part that is resampled and blurred
        # per quadrature, and 2 MiB for the row bands: neither a scene-sized
        # product nor a second part
        scene = make_test_target("smooth-wing", (1344, 1680))
        peak = traced_peak(lambda: effective_complex_map(scene, OpticalConfig()))
        assert peak <= 1024 * 1280 * (16 + 8) + 2 * MiB


class TestIllumination:
    @pytest.mark.parametrize("shape", [(1024, 1280), (256, 320), (17, 33)])
    def test_equals_full_array_formula(self, shape):
        cfg = OpticalConfig(sensor_height=shape[0], sensor_width=shape[1])
        assert optics._illumination(cfg).tobytes() == full_array_illumination(cfg).tobytes()

    def test_full_sensor_memory_is_the_output_and_under_1_mib(self):
        # written in place in its output: a whole-array exp(-2 r^2 / w^2)
        # would add about 20 MiB of temporaries
        peak = traced_peak(lambda: optics._illumination(OpticalConfig()))
        assert peak < 1024 * 1280 * 8 + MiB


@pytest.fixture
def builds(monkeypatch):
    """Start from an empty basis cache and record each basis built."""
    monkeypatch.setattr(optics, "_basis_entry", None)
    calls = []
    build = optics.effective_complex_map

    def counted(scene, config):
        calls.append(scene)
        return build(scene, config)

    monkeypatch.setattr(optics, "effective_complex_map", counted)
    return calls


# one changed value per OpticalConfig field, each still a valid config
CONFIG_CHANGES = {
    "pump_wavelength_nm": 532.1,
    "detected_wavelength_nm": 808.1,
    "undetected_wavelength_nm": 1558.5,
    "f_u_mm": 50.5,
    "f_c_mm": 75.5,
    "pump_waist_mm": 1.1,
    "system_visibility": 0.9,
    "coherence_length_mm": 0.2,
    "path_mismatch_mm": 0.01,
    "sensor_width": 41,
    "sensor_height": 33,
    "pixel_pitch_um": 5.3,
    "mean_counts": 999.0,
    "loss_coupling": "intensity",
}


class TestBasisCache:
    def scene(self):
        return make_test_target("smooth-wing", (40, 50))

    @pytest.mark.parametrize(
        "noise",
        [
            NoiseModel(),
            NoiseModel(shot_noise=True, read_noise_sigma=2.0, dark_offset=3.0, rng_seed=5),
        ],
        ids=["noiseless", "noisy"],
    )
    def test_warm_stack_equals_cold(self, builds, noise):
        cfg = small_config()
        plan = ScanPlan.equal_steps(4, cfg.undetected_wavelength_nm)
        cold = simulate_stack(self.scene(), cfg, plan, noise)
        warm = simulate_stack(self.scene(), cfg, plan, noise)
        assert len(builds) == 1
        assert warm.frames.tobytes() == cold.frames.tobytes()

    @pytest.mark.parametrize("field", ["amplitude_map", "phase_map"])
    def test_in_place_scene_edit_renders_the_edit(self, builds, monkeypatch, field):
        cfg = small_config()
        scene = self.scene()
        before = render_frame(scene, cfg, 0.3)
        getattr(scene, field)[10:30, 15:35] *= 0.5
        after = render_frame(scene, cfg, 0.3)
        assert len(builds) == 2
        assert not np.array_equal(after, before)
        monkeypatch.setattr(optics, "_basis_entry", None)
        fresh = ObjectScene(scene.amplitude_map.copy(), scene.phase_map.copy())
        assert render_frame(fresh, cfg, 0.3).tobytes() == after.tobytes()

    def test_config_changes_cover_every_field(self):
        assert set(CONFIG_CHANGES) == {f.name for f in dataclasses.fields(OpticalConfig)}

    @pytest.mark.parametrize("field", sorted(CONFIG_CHANGES))
    def test_config_change_misses(self, builds, field):
        cfg = small_config()
        render_frame(self.scene(), cfg, 0.3)
        render_frame(self.scene(), dataclasses.replace(cfg, **{field: CONFIG_CHANGES[field]}), 0.3)
        assert len(builds) == 2

    def test_scene_changes_miss(self, builds):
        cfg = small_config()
        scene = self.scene()
        render_frame(scene, cfg, 0.3)
        render_frame(ObjectScene(scene.amplitude_map, scene.phase_map), cfg, 0.3)
        assert len(builds) == 1
        for other in (
            dataclasses.replace(scene, scene_pitch_um=5.3),
            # the same bytes in another shape
            ObjectScene(scene.amplitude_map.reshape(50, 40), scene.phase_map.reshape(50, 40)),
        ):
            render_frame(other, cfg, 0.3)
        assert len(builds) == 3

    def test_noise_change_reuses_the_basis(self, builds, monkeypatch):
        cfg = small_config()
        plan = ScanPlan.equal_steps(4, cfg.undetected_wavelength_nm)
        simulate_stack(self.scene(), cfg, plan)
        noises = [
            NoiseModel(dark_offset=2.5),
            NoiseModel(shot_noise=True, read_noise_sigma=1.5, dark_offset=7.0, rng_seed=9),
        ]
        warm = [simulate_stack(self.scene(), cfg, plan, noise) for noise in noises]
        assert len(builds) == 1
        for noise, stack in zip(noises, warm):
            monkeypatch.setattr(optics, "_basis_entry", None)
            cold = simulate_stack(self.scene(), cfg, plan, noise)
            assert stack.frames.tobytes() == cold.frames.tobytes()

    def test_poisson_limit_refused_with_basis_cached(self, builds):
        cfg = small_config(mean_counts=1e20)
        render_frame(self.scene(), cfg, 0.0)
        with pytest.raises(ConfigurationError, match="mean_counts"):
            render_frame(self.scene(), cfg, 0.0, NoiseModel(shot_noise=True))
        render_frame(self.scene(), cfg, 0.0)
        assert len(builds) == 1

    def test_cached_maps_are_read_only(self, builds):
        cfg = small_config()
        for _ in range(2):
            dc, p, q = optics._fringe_basis(self.scene(), cfg, NoiseModel())
            for cached in (p, q):
                assert not cached.flags.writeable
                with pytest.raises(ValueError):
                    cached[0, 0] = 0.0
            assert dc.flags.writeable
        assert len(builds) == 1

    def test_threads_with_their_own_scenes_get_their_own_bytes(self, monkeypatch):
        cfg = small_config()
        plan = ScanPlan.equal_steps(3, cfg.undetected_wavelength_nm)
        noise = NoiseModel(shot_noise=True, rng_seed=3)
        rng = np.random.default_rng(8)
        # three threads on two CPUs, two scenes each; each scene is shared by
        # two threads, so one thread can hit the basis another one built
        scenes = [
            ObjectScene(rng.uniform(0.0, 1.0, (40, 50)), rng.uniform(-3.0, 3.0, (40, 50)))
            for _ in range(3)
        ]
        want = []
        for scene in scenes:
            monkeypatch.setattr(optics, "_basis_entry", None)
            want.append(simulate_stack(scene, cfg, plan, noise).frames.tobytes())
        got = {i: [] for i in range(3)}

        def work(i):
            for _ in range(25):
                for j in (i, (i + 1) % 3):
                    got[i].append((j, simulate_stack(scenes[j], cfg, plan, noise).frames.tobytes()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i in range(3):
            assert len(got[i]) == 50
            for j, frames in got[i]:
                assert frames == want[j]


@pytest.fixture
def pools(monkeypatch):
    """Record the worker count of each thread pool started, and the thread
    that renders each frame."""
    started, renders = [], []
    executor = concurrent.futures.ThreadPoolExecutor
    render_into = optics._render_into

    class Recorded(executor):
        def __init__(self, max_workers=None, *args, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    def recorded(out, basis, scan_phase, noise, frame_index):
        renders.append(threading.current_thread())
        render_into(out, basis, scan_phase, noise, frame_index)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorded)
    monkeypatch.setattr(optics, "_render_into", recorded)
    return started, renders


class TestParallelFrames:
    # 300 pixels per row and 217 rows put chunk edges inside each frame
    def config(self):
        return small_config(sensor_width=300, sensor_height=217)

    @pytest.mark.parametrize("k", [3, 8])
    @pytest.mark.parametrize(
        "noise",
        [NoiseModel(), NoiseModel(shot_noise=True, read_noise_sigma=2.0, rng_seed=21)],
        ids=["noiseless", "shot+read"],
    )
    def test_stack_bytes_do_not_depend_on_the_worker_count(self, monkeypatch, pools, k, noise):
        cfg = self.config()
        scene = make_test_target("smooth-wing", (300, 390))
        plan = ScanPlan.equal_steps(k, cfg.undetected_wavelength_nm)
        phases = fringe_phase_from_mirror(plan.mirror_positions_nm, cfg.undetected_wavelength_nm)
        # the serial loop, one frame at a time
        want = np.stack([
            render_frame(scene, cfg, float(s), noise, frame_index=i) for i, s in enumerate(phases)
        ]).tobytes()
        started, renders = pools
        for cpus in (1, 2, 3, 7):
            # the calling thread appears to have `cpus` usable CPUs
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False
            )
            started.clear()
            renders.clear()
            stack = simulate_stack(scene, cfg, plan, noise)
            assert stack.frames.tobytes() == want
            workers = min(cpus, k)
            assert started == ([workers] if workers > 1 else [])
            in_caller = [t is threading.current_thread() for t in renders]
            assert in_caller == [workers == 1] * k

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_a_thread_pinned_to_one_cpu_starts_no_pool(self, pools):
        cfg = self.config()
        scene = make_test_target("smooth-wing", (300, 390))
        plan = ScanPlan.equal_steps(8, cfg.undetected_wavelength_nm)
        noise = NoiseModel(shot_noise=True, rng_seed=4)
        want = simulate_stack(scene, cfg, plan, noise).frames.tobytes()
        started, renders = pools
        started.clear()
        renders.clear()
        got = []

        def pinned():
            # pins this thread alone; the thread ends with the test
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            got.append(simulate_stack(scene, cfg, plan, noise).frames.tobytes())

        thread = threading.Thread(target=pinned)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert got == [want]
        assert started == []
        assert renders == [thread] * 8

    @pytest.mark.parametrize("count, workers", [(3, 3), (None, 1)])
    def test_cpu_count_where_affinity_is_missing(self, monkeypatch, pools, count, workers):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        cfg = small_config()
        plan = ScanPlan.equal_steps(8, cfg.undetected_wavelength_nm)
        simulate_stack(make_test_target("uniform", (8, 8)), cfg, plan)
        assert pools[0] == ([workers] if workers > 1 else [])


class TestResolution:
    def test_two_point_rayleigh_behavior(self):
        """Points 0.5 PSF widths apart blur together; 2 widths apart split."""
        cfg = OpticalConfig(sensor_width=128, sensor_height=64,
                            f_c_mm=50 * 1558 / 808)  # unit magnification
        w_psf = psf_width(cfg.f_u_mm, cfg.undetected_wavelength_nm, cfg.pump_waist_mm)
        maxima = {}
        for sep_factor in (0.5, 2.0):
            off = sep_factor * w_psf / 2 / cfg.pixel_pitch_um
            amp = np.zeros((64, 128))
            amp[32, int(round(64 - off))] = 1.0
            amp[32, int(round(64 + off))] = 1.0
            scene = ObjectScene(amp, np.zeros_like(amp), scene_pitch_um=cfg.pixel_pitch_um)
            prof = np.abs(effective_complex_map(scene, cfg))[32]
            thresh = 0.25 * prof.max()
            peaks = [
                i for i in range(1, len(prof) - 1)
                if prof[i] > prof[i - 1] and prof[i] >= prof[i + 1] and prof[i] > thresh
            ]
            maxima[sep_factor] = len(peaks)
        assert maxima[0.5] == 1
        assert maxima[2.0] == 2

    def test_footprint_shrinks_with_magnification(self):
        # the same opaque disk covers fewer sensor pixels at lower M
        scenes = {}
        for lam_d, lam_u in ((808.0, 1558.0), (752.0, 1818.0)):
            cfg = OpticalConfig(
                sensor_width=160, sensor_height=128,
                detected_wavelength_nm=lam_d, undetected_wavelength_nm=lam_u,
            )
            n = 128
            yy, xx = np.mgrid[0:n, 0:n]
            r = np.hypot(yy - n / 2, xx - n / 2)
            amp = np.where(r < n / 4, 0.0, 1.0).astype(float)
            scene = ObjectScene(amp, np.zeros_like(amp), scene_pitch_um=cfg.pixel_pitch_um)
            t = np.abs(effective_complex_map(scene, cfg))
            scenes[lam_u] = int((t < 0.5).sum())
        assert scenes[1818.0] < scenes[1558.0]

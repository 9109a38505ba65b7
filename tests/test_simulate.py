"""Tests for the interferometer frame simulator."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import ndimage

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
        with pytest.raises(ValueError):
            ObjectScene(np.ones((4, 4)), np.zeros((4, 4)), mode="emission")

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

    def test_scan_plan_equal_steps(self):
        plan = ScanPlan.equal_steps(4, 1558.0)
        phases = [fringe_phase_from_mirror(p, 1558.0) for p in plan.mirror_positions_nm]
        assert phases == pytest.approx([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])

    def test_scan_plan_validation(self):
        with pytest.raises(ValueError):
            ScanPlan([])
        with pytest.raises(ValueError):
            ScanPlan([0.0, np.inf])
        with pytest.raises(ValueError):
            ScanPlan.equal_steps(0, 1558.0)


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

    def test_counts_never_negative(self):
        cfg = small_config(mean_counts=2.0)
        scene = make_test_target("uniform", (cfg.sensor_height, cfg.sensor_width),
                                 scene_pitch_um=cfg.pixel_pitch_um)
        noise = NoiseModel(shot_noise=True, read_noise_sigma=10.0, rng_seed=8)
        frame = render_frame(scene, cfg, 0.0, noise)
        assert (frame >= 0.0).all()


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

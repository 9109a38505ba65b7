"""Unit tests for the fringe extraction engine."""

from __future__ import annotations

import dataclasses
import sys
import time

import numpy as np
import pytest

from iuptools import (
    AnalysisResult,
    ExtractionOptions,
    FrameStack,
    FrequencyEstimationError,
    NyquistError,
    OptionsError,
    analyze_stack,
    contrast,
    dft_component,
    estimate_fringe_frequency,
    phase,
    single_bin_amplitude,
    visibility,
)
from iuptools.fringes import _mean_series, _projectors


def fringe_series(k_frames, amp_dc, amp_mod, phi0, cycles=1.0):
    k = np.arange(k_frames)
    return amp_dc + amp_mod * np.cos(2.0 * np.pi * cycles * k / k_frames + phi0)


def fringe_stack(k_frames, amp_dc, amp_mod, phi0, shape=(4, 5), cycles=1.0):
    series = fringe_series(k_frames, amp_dc, amp_mod, phi0, cycles)
    frames = series[:, None, None] * np.ones((k_frames,) + shape)
    phases = 2.0 * np.pi * np.arange(k_frames) / k_frames
    return FrameStack(frames, phases)


def reference_maps(stack, f, threshold=1e-9):
    """Maps from frame-by-frame sums of the fit, np.hypot and np.arctan2."""
    proj = _projectors(stack.frame_count, f)[1][0]
    sums = np.zeros((3, stack.height, stack.width))
    for i in range(stack.frame_count):
        sums += proj[:, i, None, None] * stack.frames[i]
    a, cr, ci = sums
    amp = np.hypot(cr, ci)
    valid = (a >= threshold) & (a > 0.0)
    angles = np.arctan2(ci, cr)
    angles[angles <= -np.pi] += 2.0 * np.pi
    return {
        "visibility_map": np.where(valid, amp / np.where(valid, a, 1.0), 0.0),
        "contrast_map": np.where(valid, 2.0 * amp, 0.0),
        "phase_map": np.where(valid, angles, 0.0),
        "dc_map": np.maximum(a, 0.0),
        "mask": valid,
    }


class TestDftComponent:
    def test_constant_series_dc(self):
        assert dft_component([1, 1, 1, 1], 0) == pytest.approx(4.0 + 0.0j)

    def test_cosine_fundamental(self):
        # series 1 + cos(2*pi*k/4): samples [2, 1, 0, 1]
        x1 = dft_component([2, 1, 0, 1], 1)
        assert x1 == pytest.approx(2.0 + 0.0j, abs=1e-12)

    def test_quarter_turn_phase(self):
        # same fringe advanced by pi/2: samples [1, 0, 1, 2]
        x1 = dft_component([1, 0, 1, 2], 1)
        assert x1 == pytest.approx(0.0 + 2.0j, abs=1e-12)

    def test_dc_is_real_sum(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = rng.integers(1, 17)
            s = rng.uniform(0.0, 10.0, n)
            x0 = dft_component(s, 0)
            assert x0.imag == 0.0
            assert x0.real == pytest.approx(s.sum(), rel=1e-14)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.integers(1, 17))
            m = int(rng.integers(0, n))
            s = rng.uniform(0.0, 100.0, n)
            want = sum(
                s[k] * np.exp(-2j * np.pi * k * m / n) for k in range(n)
            )
            got = dft_component(s, m)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            dft_component([], 0)

    def test_harmonic_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            dft_component([1.0, 2.0], 2)


class TestSingleBinAmplitude:
    def test_integer_frequency_matches_dft_convention(self):
        series = fringe_series(4, 3.0, 2.0, 0.0)
        c = single_bin_amplitude(series, 1.0)
        assert abs(c) == pytest.approx(2.0, abs=1e-12)
        assert np.angle(c) == pytest.approx(0.0, abs=1e-12)

    def test_constant_series_has_no_oscillation(self):
        c = single_bin_amplitude(np.full(8, 5.0), 1.7)
        assert abs(c) == pytest.approx(0.0, abs=1e-12)

    def test_off_bin_fit_is_exact(self):
        series = fringe_series(8, 1.0, 1.0, 0.3, cycles=1.25)
        c = single_bin_amplitude(series, 1.25)
        assert abs(c) == pytest.approx(1.0, abs=1e-6)
        assert np.angle(c) == pytest.approx(0.3, abs=1e-6)

    def test_agrees_with_lstsq_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(4, 17))
            f = float(rng.uniform(0.3, n / 2 - 0.3))
            y = rng.uniform(0.0, 50.0, n)
            w = 2.0 * np.pi * f / n
            k = np.arange(n)
            design = np.column_stack([np.ones(n), np.cos(w * k), -np.sin(w * k)])
            beta, *_ = np.linalg.lstsq(design, y, rcond=None)
            want = beta[1] + 1j * beta[2]
            got = single_bin_amplitude(y, f)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_frequency_out_of_range_rejected(self):
        with pytest.raises(NyquistError):
            single_bin_amplitude(np.ones(8), 4.0)
        with pytest.raises(NyquistError):
            single_bin_amplitude(np.ones(8), 0.0)

    def test_too_few_samples_rejected(self):
        with pytest.raises(NyquistError):
            single_bin_amplitude([1.0, 2.0], 0.5)


class TestScalarMaps:
    def test_visibility_from_full_modulation(self):
        assert visibility(4.0, 2.0) == pytest.approx(1.0)

    def test_visibility_half_modulation_k8(self):
        series = fringe_series(8, 2.0, 1.0, 0.0)
        f0 = abs(dft_component(series, 0))
        f1 = abs(dft_component(series, 1))
        assert visibility(f0, f1) == pytest.approx(0.5, rel=1e-12)

    def test_visibility_rejects_zero_dc(self):
        with pytest.raises(ValueError):
            visibility(0.0, 1.0)

    def test_contrast_equals_peak_to_trough(self):
        assert contrast(2.0, 4) == pytest.approx(2.0)

    def test_contrast_zero_for_constant(self):
        assert contrast(0.0, 8) == 0.0

    def test_contrast_linearity(self):
        series = fringe_series(6, 5.0, 2.0, 1.1)
        f1 = abs(dft_component(series, 1))
        f1x3 = abs(dft_component(3.0 * series, 1))
        assert contrast(f1x3, 6) == pytest.approx(3.0 * contrast(f1, 6), rel=1e-12)

    def test_phase_zero_and_quarter(self):
        assert phase(dft_component([2, 1, 0, 1], 1)) == pytest.approx(0.0, abs=1e-12)
        assert phase(dft_component([1, 0, 1, 2], 1)) == pytest.approx(
            np.pi / 2, abs=1e-12
        )

    def test_phase_negative_axis_maps_to_pi(self):
        assert phase(-1.0 + 0.0j) == pytest.approx(np.pi)

    def test_phase_zero_amplitude_rejected(self):
        with pytest.raises(ValueError):
            phase(0.0 + 0.0j)


class TestFrameStack:
    def test_shape_and_phase_invariants(self):
        with pytest.raises(ValueError):
            FrameStack(np.ones((3, 4, 5)), [0.0, 1.0])  # phase count mismatch
        with pytest.raises(ValueError):
            FrameStack(np.ones((3, 4)), [0.0, 1.0, 2.0])  # not a stack
        with pytest.raises(ValueError):
            FrameStack(-np.ones((3, 4, 5)), [0.0, 1.0, 2.0])  # negative counts
        bad = np.ones((3, 4, 5))
        bad[1, 2, 2] = np.nan
        with pytest.raises(ValueError):
            FrameStack(bad, [0.0, 1.0, 2.0])

    @pytest.mark.parametrize(
        "value, message",
        [
            (np.nan, "finite"),
            (np.inf, "finite"),
            (-np.inf, "finite"),
            (-1.0, "non-negative"),
        ],
        ids=["nan", "+inf", "-inf", "negative"],
    )
    def test_one_bad_pixel_is_refused(self, value, message):
        frames = np.ones((3, 4, 5))
        frames[2, 3, 1] = value
        with pytest.raises(ValueError, match=message):
            FrameStack(frames, [0.0, 1.0, 2.0])

    def test_finite_check_comes_first(self):
        frames = np.ones((3, 4, 5))
        frames[0, 0, 0] = -1.0
        frames[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            FrameStack(frames, [0.0, 1.0, 2.0])

    def test_truncated_keeps_leading_frames(self):
        stack = fringe_stack(8, 2.0, 1.0, 0.4)
        head = stack.truncated(5)
        assert head.frames.shape[0] == 5
        assert np.array_equal(head.frames, stack.frames[:5])
        assert np.array_equal(head.scan_phases, stack.scan_phases[:5])

    def test_truncated_bounds(self):
        stack = fringe_stack(4, 2.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            stack.truncated(0)
        with pytest.raises(ValueError):
            stack.truncated(5)


class TestAnalyzeStack:
    def test_pure_fringe_recovery(self):
        stack = fringe_stack(8, 2.0, 1.0, 0.7)
        res = analyze_stack(stack)
        assert isinstance(res, AnalysisResult)
        assert res.visibility_map == pytest.approx(0.5, rel=1e-12)
        assert res.contrast_map == pytest.approx(2.0, rel=1e-12)
        assert res.phase_map == pytest.approx(0.7, abs=1e-12)
        assert res.dc_map == pytest.approx(2.0, rel=1e-12)
        assert res.fringe_frequency == 1.0
        assert res.mask.all()

    def test_exact_recovery_property(self):
        """Noiseless A + B*cos fringes invert exactly for every K >= 3."""
        rng = np.random.default_rng(7)
        for _ in range(60):
            k = int(rng.integers(3, 17))
            a = float(rng.uniform(0.5, 100.0))
            b = float(rng.uniform(0.0, 1.0)) * a
            phi0 = float(rng.uniform(-np.pi, np.pi))
            res = analyze_stack(fringe_stack(k, a, b, phi0, shape=(2, 3)))
            assert res.visibility_map == pytest.approx(b / a, rel=1e-9, abs=1e-9)
            assert res.contrast_map == pytest.approx(2.0 * b, rel=1e-9, abs=1e-9)
            if b > 1e-6 * a:
                got = res.phase_map[0, 0]
                err = np.angle(np.exp(1j * (got - phi0)))
                assert abs(err) <= 1e-9

    def test_gain_invariance(self):
        stack = fringe_stack(6, 3.0, 1.5, -1.2)
        scaled = FrameStack(stack.frames * 7.5, stack.scan_phases)
        res = analyze_stack(stack)
        res2 = analyze_stack(scaled)
        assert np.allclose(res2.visibility_map, res.visibility_map, atol=1e-12)
        assert np.allclose(res2.phase_map, res.phase_map, atol=1e-12)
        assert np.allclose(res2.contrast_map, 7.5 * res.contrast_map, rtol=1e-12)
        assert np.allclose(res2.dc_map, 7.5 * res.dc_map, rtol=1e-12)

    def test_phase_equivariance(self):
        rng = np.random.default_rng(12)
        base = float(rng.uniform(-np.pi, np.pi))
        for delta in rng.uniform(-np.pi, np.pi, 10):
            r0 = analyze_stack(fringe_stack(8, 2.0, 1.0, base, shape=(1, 1)))
            r1 = analyze_stack(fringe_stack(8, 2.0, 1.0, base + delta, shape=(1, 1)))
            err = np.angle(np.exp(1j * (r1.phase_map - r0.phase_map - delta)))
            assert np.abs(err).max() <= 1e-9

    def test_phase_range_is_half_open(self):
        # a fringe at phase pi must fold to +pi, never -pi
        res = analyze_stack(fringe_stack(8, 2.0, 1.0, np.pi))
        assert res.phase_map == pytest.approx(np.pi)
        assert (res.phase_map > -np.pi).all()
        assert (res.phase_map <= np.pi).all()

    def test_two_frames_is_loud_failure(self):
        frames = np.ones((2, 3, 3))
        stack = FrameStack(frames, [0.0, np.pi])
        with pytest.raises(NyquistError):
            analyze_stack(stack)

    def test_mask_below_dc_threshold(self):
        stack = fringe_stack(4, 2.0, 1.0, 0.0, shape=(2, 2))
        frames = stack.frames.copy()
        frames[:, 0, 0] = 0.0  # dead pixel
        res = analyze_stack(FrameStack(frames, stack.scan_phases))
        assert not res.mask[0, 0]
        assert res.mask[1, 1]
        assert res.visibility_map[0, 0] == 0.0
        assert res.phase_map[0, 0] == 0.0

    @pytest.mark.parametrize(
        "options, shape",
        [
            pytest.param(opt, shape, id=opt.frequency_mode + suffix)
            # 37x23 fits one 32 Ki-pixel chunk; 250x300 spans three, the last one short
            for shape, suffix in (((37, 23), ""), ((250, 300), "-250x300"))
            for opt in (
                ExtractionOptions(),
                ExtractionOptions(frequency_mode="fixed", fixed_frequency=1.25),
                ExtractionOptions(frequency_mode="estimate"),
            )
        ],
    )
    def test_worker_count_bit_identity(self, options, shape):
        rng = np.random.default_rng(44)
        # a weak 1.25-cycle fringe gives estimate mode a peak inside its search
        # interval; on noise alone its 37x23 estimate is the edge, which is refused
        fringe = 100.0 * (1.0 + np.cos(2.5 * np.pi * np.arange(8) / 8))
        frames = rng.uniform(0.0, 1000.0, (8, *shape)) + fringe[:, None, None]
        stack = FrameStack(frames, 2.0 * np.pi * np.arange(8) / 8)
        base = analyze_stack(stack, options, threads=1)
        for w in (2, 3, 5, 16):
            other = analyze_stack(stack, options, threads=w)
            assert np.array_equal(other.visibility_map, base.visibility_map)
            assert np.array_equal(other.contrast_map, base.contrast_map)
            assert np.array_equal(other.phase_map, base.phase_map)
            assert np.array_equal(other.dc_map, base.dc_map)
            assert np.array_equal(other.mask, base.mask)

    @pytest.mark.parametrize("k", [3, 4, 8, 15])
    @pytest.mark.parametrize("f", [1.0, 1.25], ids=["assume-one-cycle", "fixed"])
    def test_kernel_matches_hypot_oracle(self, k, f):
        rng = np.random.default_rng(46 + k)
        frames = rng.uniform(0.0, 1000.0, (k, 250, 300))
        frames[:, :20] = 0.0  # dark rows, masked
        stack = FrameStack(frames, 2.0 * np.pi * np.arange(k) / k)
        if f == 1.0:
            options = ExtractionOptions()
        else:
            options = ExtractionOptions(frequency_mode="fixed", fixed_frequency=f)
        res = analyze_stack(stack, options)
        want = reference_maps(stack, f)
        assert np.array_equal(res.mask, want.pop("mask"))
        assert not res.mask[:20].any() and res.mask[20:].any()
        for name, expected in want.items():
            np.testing.assert_allclose(getattr(res, name), expected, rtol=1e-13, atol=0.0)

    def test_huge_counts_keep_a_finite_magnitude(self):
        # cr**2 + ci**2 overflows once counts reach about 1e154
        rng = np.random.default_rng(47)
        frames = rng.uniform(0.5e200, 1.5e200, (3, 4, 5))
        stack = FrameStack(frames, 2.0 * np.pi * np.arange(3) / 3)
        res = analyze_stack(stack)
        want = reference_maps(stack, 1.0)
        assert res.mask.all()
        assert np.isfinite(res.visibility_map).all()
        assert np.isfinite(res.contrast_map).all()
        for name in ("visibility_map", "contrast_map"):
            np.testing.assert_allclose(getattr(res, name), want[name], rtol=1e-13, atol=0.0)

    def test_fixed_mode_matches_lstsq_oracle(self):
        rng = np.random.default_rng(45)
        k, f = 7, 1.6
        frames = rng.uniform(10.0, 1000.0, (k, 5, 6))
        res = analyze_stack(
            FrameStack(frames, 2.0 * np.pi * np.arange(k) / k),
            ExtractionOptions(frequency_mode="fixed", fixed_frequency=f),
        )
        w = 2.0 * np.pi * f / k
        idx = np.arange(k)
        design = np.column_stack([np.ones(k), np.cos(w * idx), -np.sin(w * idx)])
        for r in range(5):
            for col in range(6):
                (a, cr, ci), *_ = np.linalg.lstsq(design, frames[:, r, col], rcond=None)
                amp = np.hypot(cr, ci)
                assert res.dc_map[r, col] == pytest.approx(a, rel=1e-12)
                assert res.contrast_map[r, col] == pytest.approx(2.0 * amp, rel=1e-10)
                assert res.visibility_map[r, col] == pytest.approx(amp / a, rel=1e-10)
                assert res.phase_map[r, col] == pytest.approx(np.arctan2(ci, cr), abs=1e-10)

    def test_leakage_direction(self):
        stack = fringe_stack(8, 2.0, 1.0, 0.0, cycles=1.25)
        assumed = analyze_stack(stack)
        fixed = analyze_stack(
            stack, ExtractionOptions(frequency_mode="fixed", fixed_frequency=1.25)
        )
        assert assumed.leakage_flag
        assert float(assumed.visibility_map[0, 0]) < float(fixed.visibility_map[0, 0])
        assert fixed.visibility_map == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("cycles, flagged", [(1.0, False), (1.25, True)])
    def test_leakage_flag_matches_frequency_estimate(self, cycles, flagged):
        # 250 rows of 300 pixels span three row chunks, the last one short
        rng = np.random.default_rng(46)
        stack = fringe_stack(8, 200.0, 80.0, 0.3, shape=(250, 300), cycles=cycles)
        frames = stack.frames + rng.uniform(0.0, 5.0, stack.frames.shape)
        stack = FrameStack(frames, stack.scan_phases)
        observed = estimate_fringe_frequency(stack)
        assert (abs(observed - 1.0) > 0.05) == flagged
        for threads in (1, 2, 3):
            assert analyze_stack(stack, threads=threads).leakage_flag == flagged

    def test_estimate_mode_recovers_off_bin_fringe(self):
        stack = fringe_stack(8, 2.0, 1.0, 0.0, cycles=1.25)
        res = analyze_stack(stack, ExtractionOptions(frequency_mode="estimate"))
        assert res.fringe_frequency == pytest.approx(1.25, abs=1e-6)
        assert res.visibility_map == pytest.approx(0.5, abs=1e-6)

    def test_estimate_mode_needs_four_frames(self):
        stack = fringe_stack(3, 2.0, 1.0, 0.0)
        with pytest.raises(OptionsError):
            analyze_stack(stack, ExtractionOptions(frequency_mode="estimate"))

    @pytest.mark.parametrize("f", [4.0, 4.5])
    def test_fixed_frequency_at_or_past_nyquist_rejected(self, f):
        stack = fringe_stack(8, 2.0, 1.0, 0.0)
        with pytest.raises(NyquistError):
            analyze_stack(stack, ExtractionOptions(frequency_mode="fixed", fixed_frequency=f))

    def test_constant_stack_is_not_flagged(self):
        stack = FrameStack(np.full((8, 3, 3), 4.0), 2.0 * np.pi * np.arange(8) / 8)
        assert analyze_stack(stack).leakage_flag is False


def sample_stacks(k, shape, seed=48, gain=7.3):
    """An integer-backed stack of noisy 1.25-cycle fringe samples, and the
    float stack FrameStack(samples / gain, ...) of the same counts."""
    rng = np.random.default_rng(seed)
    fringe = 20000.0 * (1.0 + 0.5 * np.cos(2.5 * np.pi * np.arange(k) / k))
    counts = rng.poisson(fringe[:, None, None] * rng.uniform(0.2, 1.0, shape))
    samples = np.minimum(counts, 65535).astype(np.uint16)
    samples[:, 0, 0] = 0  # a dark pixel, and one at the top of the range
    samples[:, -1, -1] = 65535
    phases = 2.0 * np.pi * np.arange(k) / k
    stored = FrameStack._from_samples(samples, gain, phases.copy(), {"gain": gain})
    return stored, FrameStack(samples / gain, phases, {"gain": gain})


MAP_FIELDS = ("visibility_map", "contrast_map", "phase_map", "dc_map", "mask")


def assert_same_result(got, want):
    for name in MAP_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.fringe_frequency == want.fringe_frequency
    assert got.leakage_flag == want.leakage_flag


class TestIntegerStorage:
    """Stacks that keep their 16-bit samples give the same bits as float stacks."""

    @pytest.mark.parametrize(
        "k, options",
        [
            pytest.param(k, opt, id=f"{opt.frequency_mode}-{k}")
            for opt in (
                ExtractionOptions(),
                ExtractionOptions(frequency_mode="fixed", fixed_frequency=1.25),
                ExtractionOptions(frequency_mode="estimate"),
            )
            # estimate mode needs at least 4 frames
            for k in (3, 4, 8, 15)[opt.frequency_mode == "estimate" :]
        ],
    )
    def test_maps_are_byte_identical(self, k, options):
        # 70 rows of 1000 pixels span three 32-row chunks, the last one short
        stored, floats = sample_stacks(k, (70, 1000))
        want = analyze_stack(floats, options, threads=1)
        for threads in (1, 2, 3):
            assert_same_result(analyze_stack(stored, options, threads=threads), want)
        assert stored._samples is not None, "analysis must not expand the samples"

    @pytest.mark.parametrize(
        "shape", [(1, 1), (7, 13), (333, 517), (1, 9999), (2049, 3)], ids=str
    )
    def test_mean_series_is_bit_equal(self, shape):
        stored, floats = sample_stacks(5, shape)
        series = _mean_series(stored)
        assert np.array_equal(series, floats.frames.mean(axis=(1, 2)))
        assert np.array_equal(series, _mean_series(floats))
        # a strided float stack reduces each frame in the whole-stack order too
        padded = np.zeros((5, 2 * shape[0], 3 * shape[1]))
        padded[:, ::2, ::3] = floats.frames
        strided = FrameStack(padded[:, ::2, ::3], floats.scan_phases)
        assert np.array_equal(_mean_series(strided), strided.frames.mean(axis=(1, 2)))

    def test_repr_keeps_the_samples(self):
        stored, floats = sample_stacks(4, (6, 7))
        assert "(4, 6, 7)" in repr(stored) and "uint16" in repr(stored)
        assert stored._samples is not None and "frames" not in vars(stored)
        assert "float64" in repr(floats)

    def test_frequency_estimate_is_identical(self):
        stored, floats = sample_stacks(8, (70, 1000))
        assert estimate_fringe_frequency(stored) == estimate_fringe_frequency(floats)
        assert stored._samples is not None

    def test_first_read_of_frames_replaces_the_samples(self):
        stored, floats = sample_stacks(4, (6, 7))
        samples = stored._samples
        assert "frames" not in vars(stored)
        frames = stored.frames
        assert frames.dtype == np.float64
        assert np.array_equal(frames, samples / stored.meta["gain"])
        assert np.array_equal(frames, floats.frames)
        assert stored._samples is None
        assert stored.frames is frames
        assert (stored.frame_count, stored.height, stored.width) == (4, 6, 7)

    @pytest.mark.parametrize("first_read", [False, True], ids=["before", "after"])
    def test_replace_gives_a_float_stack(self, first_read):
        stored, floats = sample_stacks(4, (6, 7))
        if first_read:
            stored.frames
        x = floats.frames + 1.0
        other = dataclasses.replace(stored, frames=x)
        assert other._samples is None
        assert other.frames.dtype == np.float64
        assert np.array_equal(other.frames, x)
        assert np.array_equal(other.scan_phases, stored.scan_phases)
        assert (stored._samples is None) == first_read
        assert np.array_equal(stored.frames, floats.frames)

    def test_assigned_frames_replace_the_samples(self):
        stored, floats = sample_stacks(8, (6, 7))
        stored.frames = floats.frames * 2.0
        assert stored._samples is None
        doubled = analyze_stack(FrameStack(floats.frames * 2.0, floats.scan_phases))
        assert_same_result(analyze_stack(stored), doubled)

    def test_truncated_keeps_the_samples(self):
        stored, floats = sample_stacks(8, (6, 7))
        head = stored.truncated(5)
        assert head._samples is not None and head._samples.dtype == np.uint16
        assert head.meta["gain"] == stored.meta["gain"]
        assert np.array_equal(head.frames, floats.frames[:5])
        assert np.array_equal(head.scan_phases, floats.scan_phases[:5])

    def test_shapes_are_still_checked(self):
        samples = np.zeros((3, 4, 5), dtype=np.uint16)
        with pytest.raises(ValueError, match="scan_phases length"):
            FrameStack._from_samples(samples, 1.0, np.zeros(2), {"gain": 1.0})
        with pytest.raises(ValueError, match="scan phases must be finite"):
            FrameStack._from_samples(samples, 1.0, np.array([0.0, np.nan, 1.0]), {"gain": 1.0})
        with pytest.raises(ValueError, match="at least one pixel"):
            FrameStack._from_samples(samples[:, :0], 1.0, np.zeros(3), {"gain": 1.0})

    def test_scratch_bands_survive_many_switching_workers(self):
        # more workers than cores, switching threads every microsecond: a
        # scratch band shared between two workers would corrupt some chunk
        stored, floats = sample_stacks(8, (300, 700), seed=49)
        options = ExtractionOptions(frequency_mode="fixed", fixed_frequency=1.25)
        want = analyze_stack(floats, options, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 5.0
            runs = 0
            while runs < 3 or (runs < 20 and time.monotonic() < deadline):
                assert_same_result(analyze_stack(stored, options, threads=7), want)
                runs += 1
        finally:
            sys.setswitchinterval(interval)


class TestOptions:
    def test_defaults(self):
        opt = ExtractionOptions()
        assert opt.frequency_mode == "assume-one-cycle"
        assert opt.min_dc_threshold == pytest.approx(1e-9)

    def test_invalid_mode(self):
        with pytest.raises(OptionsError):
            ExtractionOptions(frequency_mode="banana")

    def test_fixed_mode_requires_frequency(self):
        with pytest.raises(OptionsError):
            ExtractionOptions(frequency_mode="fixed")
        with pytest.raises(OptionsError):
            ExtractionOptions(frequency_mode="fixed", fixed_frequency=-1.0)

    @pytest.mark.parametrize("mode", ["assume-one-cycle", "estimate"])
    def test_fixed_frequency_only_in_fixed_mode(self, mode):
        # the maps manifest records fixed_frequency, so it must be the one used
        with pytest.raises(OptionsError, match="fixed_frequency"):
            ExtractionOptions(frequency_mode=mode, fixed_frequency=1.25)

    @pytest.mark.parametrize("threshold", [-1.0, float("nan")])
    def test_dc_threshold_must_be_non_negative(self, threshold):
        with pytest.raises(OptionsError):
            ExtractionOptions(min_dc_threshold=threshold)


class TestFrequencyEstimation:
    def test_on_bin_is_exact(self):
        stack = fringe_stack(8, 2.0, 1.0, 0.9)
        assert estimate_fringe_frequency(stack) == pytest.approx(1.0, abs=1e-9)

    def test_off_bin_quarter_cycle(self):
        stack = fringe_stack(8, 2.0, 1.0, 0.0, cycles=1.25)
        assert estimate_fringe_frequency(stack) == pytest.approx(1.25, abs=0.02)

    def test_constant_stack_fails_loudly(self):
        stack = FrameStack(np.full((8, 3, 3), 4.0), 2.0 * np.pi * np.arange(8) / 8)
        with pytest.raises(FrequencyEstimationError):
            estimate_fringe_frequency(stack)

    def test_random_frequencies_recovered(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            k = int(rng.integers(4, 24))
            f_true = float(rng.uniform(0.3, k / 2 - 0.3))
            stack = fringe_stack(k, 2.0, 1.0, float(rng.uniform(0, 2 * np.pi)),
                                 shape=(2, 2), cycles=f_true)
            assert estimate_fringe_frequency(stack) == pytest.approx(f_true, abs=1e-12)

    @pytest.mark.parametrize("scale", [2.0**600, 2.0**-600], ids=["2**600", "2**-600"])
    def test_estimate_unchanged_by_power_of_two_scale(self, scale):
        stack = fringe_stack(8, 2.0, 1.0, 0.4, cycles=1.25)
        scaled = FrameStack(stack.frames * scale, stack.scan_phases)
        assert estimate_fringe_frequency(scaled) == estimate_fringe_frequency(stack)

    def test_huge_counts_on_bin(self):
        stack = fringe_stack(8, 2e200, 1e200, 0.9)
        assert estimate_fringe_frequency(stack) == pytest.approx(1.0, abs=1e-12)
        assert analyze_stack(stack).leakage_flag is False

    def test_three_frames_rejected(self):
        stack = fringe_stack(3, 2.0, 1.0, 0.0)
        with pytest.raises(OptionsError):
            estimate_fringe_frequency(stack)

    @pytest.mark.parametrize("k, cycles, seed", [(10, 0.51, 0), (8, 3.9, 3)])
    def test_interval_edge_is_refused(self, k, cycles, seed):
        # noise drags the residual minimum onto the edge of [1/8, K/2 - 1/8]
        rng = np.random.default_rng(seed)
        series = fringe_series(k, 100.0, 30.0, 0.7, cycles) + rng.normal(0.0, 10.0, k)
        stack = FrameStack(series[:, None, None], np.zeros(k))
        with pytest.raises(FrequencyEstimationError, match="edge"):
            estimate_fringe_frequency(stack)
        with pytest.raises(FrequencyEstimationError):
            analyze_stack(stack, ExtractionOptions(frequency_mode="estimate"))
        # the leakage check still sees the edge as far from one cycle
        assert analyze_stack(stack).leakage_flag is True

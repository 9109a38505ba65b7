"""Acceptance gate: ten end-to-end criteria, one reported line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines alongside the pytest verdicts. Each criterion carries a
wall-clock budget that is asserted, not just documented.
"""

from __future__ import annotations

import functools
import time

import numpy as np
import pytest

import iuptools as iu
from iuptools.cli import cli_main

PUMP_NM = 532.0


def criterion(number, label, budget_s):
    """Print `[criterion N] PASS/FAIL` and enforce the runtime budget."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                assert elapsed < budget_s, (
                    f"criterion {number} overran its budget: "
                    f"{elapsed:.1f} s >= {budget_s} s"
                )
            except BaseException:
                print(f"[criterion {number:2d}] FAIL  {label}")
                raise
            print(f"[criterion {number:2d}] PASS  {label} ({elapsed:.2f} s)")

        return wrapper

    return deco


def wrapped(delta):
    return np.angle(np.exp(1j * np.asarray(delta)))


def dir_bytes(directory):
    blob = b""
    for p in sorted(directory.iterdir()):
        blob += p.name.encode() + b"\x00" + p.read_bytes() + b"\x00"
    return blob


@criterion(1, "Nyquist-limit recovery at K=3", budget_s=10.0)
def test_criterion_01_nyquist_limit_recovery():
    h, w = 256, 320
    cfg = iu.OpticalConfig(sensor_width=w, sensor_height=h,
                           system_visibility=0.92, path_mismatch_mm=0.02)
    scene = iu.make_test_target("ring-electrode", (h, w),
                                scene_pitch_um=cfg.pixel_pitch_um)
    plan = iu.ScanPlan.equal_steps(3, cfg.undetected_wavelength_nm)
    stack = iu.simulate_stack(scene, cfg, plan, iu.NoiseModel())
    res = iu.analyze_stack(stack)

    t = iu.effective_complex_map(scene, cfg)
    env = iu.coherence_envelope(cfg.path_mismatch_mm, cfg.coherence_length_mm)
    want_vis = cfg.system_visibility * env * np.abs(t)

    assert res.mask.all()
    assert np.abs(res.visibility_map - want_vis).max() <= 1e-6
    # phase is compared where the fringe amplitude is non-degenerate
    ok = np.abs(t) > 1e-9
    phase_err = np.abs(wrapped(res.phase_map - np.angle(t)))[ok].max()
    assert phase_err <= 1e-6

    # two frames are below the Nyquist limit and must fail loudly
    two = iu.simulate_stack(
        scene, cfg, iu.ScanPlan.equal_steps(2, cfg.undetected_wavelength_nm),
        iu.NoiseModel(),
    )
    with pytest.raises(iu.NyquistError):
        iu.analyze_stack(two)


@criterion(2, "phase noise falls as K grows (3,4,8,15)", budget_s=120.0)
def test_criterion_02_frame_count_comparison():
    h, w = 96, 120
    # unit magnification, and a phase ramp spanning the full circle so the
    # per-pixel fringe phase is not aligned with the sampling comb
    cfg = iu.OpticalConfig(sensor_width=w, sensor_height=h,
                           f_c_mm=50 * 1558 / 808, mean_counts=1000.0)
    amp = np.ones((h, w))
    ramp = np.broadcast_to(np.linspace(-0.98 * np.pi, 0.98 * np.pi, w), (h, w))
    scene = iu.ObjectScene(amp, ramp.copy(), scene_pitch_um=cfg.pixel_pitch_um)

    frame_counts = (3, 4, 8, 15)
    reference = {}
    for k in frame_counts:
        plan = iu.ScanPlan.equal_steps(k, cfg.undetected_wavelength_nm)
        reference[k] = iu.analyze_stack(
            iu.simulate_stack(scene, cfg, plan, iu.NoiseModel())
        )

    sums = {k: 0.0 for k in frame_counts}
    counts = {k: 0 for k in frame_counts}
    for trial in range(10):
        for k in frame_counts:
            plan = iu.ScanPlan.equal_steps(k, cfg.undetected_wavelength_nm)
            noise = iu.NoiseModel(shot_noise=True, rng_seed=5000 + trial)
            res = iu.analyze_stack(iu.simulate_stack(scene, cfg, plan, noise))
            err = wrapped(res.phase_map - reference[k].phase_map)
            sums[k] += float((err[res.mask] ** 2).sum())
            counts[k] += int(res.mask.sum())
    rms = {k: np.sqrt(sums[k] / counts[k]) for k in frame_counts}
    for smaller, larger in zip(frame_counts, frame_counts[1:]):
        assert rms[larger] < rms[smaller], (
            f"phase RMS did not fall from K={smaller} ({rms[smaller]:.5f}) "
            f"to K={larger} ({rms[larger]:.5f})"
        )


@criterion(3, "visibility/contrast/phase unit parity on random fringes", budget_s=10.0)
def test_criterion_03_unit_parity():
    rng = np.random.default_rng(20240814)
    for _ in range(1000):
        k = int(rng.integers(3, 17))
        a = float(rng.uniform(0.5, 100.0))
        b = a * float(rng.uniform(0.01, 1.0))
        phi0 = float(rng.uniform(-np.pi, np.pi))
        series = a + b * np.cos(2.0 * np.pi * np.arange(k) / k + phi0)

        x0 = iu.dft_component(series, 0)
        x1 = iu.dft_component(series, 1)
        vis = iu.visibility(abs(x0), abs(x1))
        con = iu.contrast(abs(x1), k)
        phi = iu.phase(x1)
        assert abs(vis - b / a) <= 1e-9 * (b / a)
        assert abs(con - 2.0 * b) <= 1e-9 * (2.0 * b)
        assert abs(wrapped(phi - phi0)) <= 1e-9 * max(1.0, abs(phi0))

        # raw DFT bins against a naive term-by-term sum; the bound scales
        # with the series norm because a cancelling bin of a large series
        # cannot beat summation roundoff
        m = int(rng.integers(0, k))
        naive = sum(
            series[j] * np.exp(-2j * np.pi * j * m / k) for j in range(k)
        )
        tol = 1e-12 * max(1.0, float(np.abs(series).sum()))
        assert abs(iu.dft_component(series, m) - naive) <= tol


@criterion(4, "off-bin leakage loses signal; estimation recovers it", budget_s=10.0)
def test_criterion_04_leakage_behavior():
    k, a, b = 8, 2.0, 1.0
    series = a + b * np.cos(2.0 * np.pi * 1.25 * np.arange(k) / k)
    frames = series[:, None, None] * np.ones((k, 16, 20))
    stack = iu.FrameStack(frames, 2.0 * np.pi * np.arange(k) / k)

    assumed = iu.analyze_stack(stack)
    assert float(assumed.visibility_map.max()) <= 0.95 * (b / a)
    assert assumed.leakage_flag

    est = iu.analyze_stack(stack, iu.ExtractionOptions(frequency_mode="estimate"))
    assert np.abs(est.visibility_map - b / a).max() <= 1e-3


@criterion(5, "energy conservation of the five wavelength pairs", budget_s=1.0)
def test_criterion_05_energy_conservation():
    pairs = {
        808.0: 1558.0,
        752.0: 1818.0,
        840.0: 1450.0,
        792.0: 1620.0,
        758.0: 1783.0,
    }
    for detected, probe in pairs.items():
        computed = iu.idler_from_signal(PUMP_NM, detected)
        assert abs(computed - probe) <= 3.0, (
            f"{detected} nm -> {computed:.1f} nm, expected {probe} nm"
        )


@criterion(6, "QPM solver reproduces the reported tuning points", budget_s=30.0)
def test_criterion_06_qpm_parity():
    pair = iu.solve_signal_idler(PUMP_NM, iu.CrystalState(7.40, 125.0))
    assert abs(pair.signal_nm - 808.0) <= 15.0
    assert abs(pair.idler_nm - 1558.0) <= 15.0

    pair = iu.solve_signal_idler(PUMP_NM, iu.CrystalState(7.71, 200.0))
    assert abs(pair.signal_nm - 752.0) <= 15.0
    assert abs(pair.idler_nm - 1818.0) <= 15.0

    # room-temperature period scan covers the three reported pairs
    periods = np.round(np.arange(7.30, 8.2501, 0.05), 4).tolist()
    scan = [p for p in iu.tuning_curve(PUMP_NM, periods, [24.5]) if p.pair]
    for target_s, target_i in ((840.0, 1450.0), (792.0, 1620.0), (758.0, 1783.0)):
        hits = [
            p for p in scan
            if abs(p.pair.signal_nm - target_s) <= 15.0
            and abs(p.pair.idler_nm - target_i) <= 15.0
        ]
        assert hits, f"no poling period reaches {target_s}/{target_i} nm at 24.5 C"


@criterion(7, "grid sweep spans the reported tuning ranges", budget_s=120.0)
def test_criterion_07_tuning_range_overlap():
    periods = np.round(np.arange(6.9, 8.8001, 0.1), 4).tolist()
    points = iu.tuning_curve(PUMP_NM, periods, [20.0, 110.0, 200.0])
    signals = [p.pair.signal_nm for p in points if p.pair is not None]
    idlers = [p.pair.idler_nm for p in points if p.pair is not None]
    assert signals

    def overlap(values, lo, hi):
        covered = max(0.0, min(max(values), hi) - max(min(values), lo))
        return covered / (hi - lo)

    assert overlap(signals, 706.0, 839.0) >= 0.80
    assert overlap(idlers, 1455.0, 2159.0) >= 0.80


@criterion(8, "longer probe wavelength shrinks the imaged footprint", budget_s=30.0)
def test_criterion_08_magnification_parity():
    m_1558 = iu.magnification(75.0, 50.0, 808.0, 1558.0)
    m_1818 = iu.magnification(75.0, 50.0, 752.0, 1818.0)
    assert m_1818 < m_1558

    n = 192
    yy, xx = np.mgrid[0:n, 0:n]
    disk = np.where(np.hypot(yy - n / 2, xx - n / 2) < n / 3, 0.0, 1.0)
    footprint = {}
    for lam_d, lam_u in ((808.0, 1558.0), (752.0, 1818.0)):
        cfg = iu.OpticalConfig(sensor_width=256, sensor_height=224,
                               detected_wavelength_nm=lam_d,
                               undetected_wavelength_nm=lam_u)
        scene = iu.ObjectScene(disk, np.zeros_like(disk),
                               scene_pitch_um=cfg.pixel_pitch_um)
        plan = iu.ScanPlan.equal_steps(4, lam_u)
        res = iu.analyze_stack(iu.simulate_stack(scene, cfg, plan, iu.NoiseModel()))
        env = iu.coherence_envelope(cfg.path_mismatch_mm, cfg.coherence_length_mm)
        lost = res.visibility_map < 0.5 * cfg.system_visibility * env
        footprint[lam_u] = int(lost.sum())
    assert footprint[1818.0] < 0.9 * footprint[1558.0]


@criterion(9, "full-frame analysis speed and near-linear scaling in K", budget_s=600.0)
def test_criterion_09_benchmark_harness():
    report = iu.run_bench(width=1280, height=1024, frame_counts=(3, 4, 8, 15),
                          runs=100, threads=4)
    print()
    print(report.table())
    means = {row.frame_count: row.mean_ms for row in report.rows}
    stds = {row.frame_count: row.std_ms for row in report.rows}
    assert all(stds[k] >= 0.0 for k in means)
    assert means[15] < 2000.0, f"K=15 took {means[15]:.0f} ms"
    for k in (4, 8, 15):
        limit = 1.1 * (k / 3.0) * means[3]
        assert means[k] <= limit, (
            f"K={k} mean {means[k]:.1f} ms exceeds linear-in-K bound {limit:.1f} ms"
        )


@criterion(10, "seeded CLI runs are byte-identical and thread-invariant", budget_s=60.0)
def test_criterion_10_determinism(tmp_path, monkeypatch):
    scene = tmp_path / "scene"
    # 4 row chunks, so that 4 and 7 CPUs start several workers
    assert len(iu.fringes._row_chunks(300, 400)) >= 4
    assert cli_main(["target", "--kind", "ring-electrode", "--size", "300x400",
                     "--out", str(scene)]) == 0

    def simulate(dest, seed):
        assert cli_main([
            "simulate", "--scene", str(scene), "--frames", "8",
            "--seed", str(seed),
            "--set", "sensor_width=400", "--set", "sensor_height=300",
            "--set", "shot_noise=true", "--set", "read_noise_sigma=2.0",
            "--out", str(dest),
        ]) == 0

    simulate(tmp_path / "s1", 33)
    simulate(tmp_path / "s2", 33)
    assert dir_bytes(tmp_path / "s1") == dir_bytes(tmp_path / "s2")
    simulate(tmp_path / "s3", 34)
    assert dir_bytes(tmp_path / "s1") != dir_bytes(tmp_path / "s3")

    def analyze(src, dest, threads, mode="assume-one-cycle"):
        # `iup analyze` runs one worker per CPU it may use
        monkeypatch.setattr(iu.fringes, "_usable_cpus", lambda: threads)
        assert cli_main(["analyze", "--stack", str(src), "--frequency-mode", mode,
                         "--out", str(dest)]) == 0

    analyze(tmp_path / "s1", tmp_path / "m1", 1)
    analyze(tmp_path / "s2", tmp_path / "m2", 1)
    assert dir_bytes(tmp_path / "m1") == dir_bytes(tmp_path / "m2")
    analyze(tmp_path / "s1", tmp_path / "m4", 4)
    analyze(tmp_path / "s1", tmp_path / "m7", 7)
    assert dir_bytes(tmp_path / "m1") == dir_bytes(tmp_path / "m4")
    assert dir_bytes(tmp_path / "m1") == dir_bytes(tmp_path / "m7")
    # estimate mode fits the frame-mean series that the chunks add up in order
    for threads in (1, 4, 7):
        analyze(tmp_path / "s1", tmp_path / f"e{threads}", threads, "estimate")
    assert dir_bytes(tmp_path / "e1") == dir_bytes(tmp_path / "e4")
    assert dir_bytes(tmp_path / "e1") == dir_bytes(tmp_path / "e7")

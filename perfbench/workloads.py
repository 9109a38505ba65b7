"""The three benchmark workloads: inputs, one operation, and its output gate.

Every workload is built from the run's seed alone and calls only public
functions of iuptools.optics, .stackio, .fringes and .qpm. Each call into a
layer goes through Tracer.call, so the traced run gets one span per call and
the untraced run calls the function directly.

A workload offers:
  setup(tr)            build the inputs (run several times; each run replaces
                       the last)
  cycle(rng)           the operation specs of one cycle; cycles run whole so
                       every run sees the same mix
  kind(spec)           the operation's kind; latency figures weigh kinds equally
  threads_of(spec)     analysis threads the operation uses
  run(tr, spec)        one operation, the timed part
  check(spec, out)     output gate: a list of problems, empty when correct
  corruptions(spec, out)
                       deliberately broken copies of an output, each of which
                       the gate must reject
  probe_stack(tr)      a stack for the fringes probes of the traced run

probe_idle_layers() then calls, in the traced run only, every layer that
the workload's operations do not, so each per-layer metric is measured.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np

from iuptools import fringes, optics, qpm, stackio

PUMP_NM = 532.0

# A scene that fills the full 1280x1024 sensor at magnification ~0.78
# (75 mm * 808 nm / (50 mm * 1558 nm)) needs at least 1317x1646 pixels.
SCENE_SHAPE = (1344, 1680)
SCENE_KIND = "smooth-wing"

# Error metrics cover pixels whose true DC level is at least this share of the
# peak; the rim of the Gaussian illumination carries too few counts to judge.
LIT_FRACTION = 0.2

# Gate tolerances. Shot-noise error falls as 1/sqrt(K); at the seed commit
# the measured RMS errors are about 0.12/sqrt(K) rad and 0.065/sqrt(K), so
# these leave a margin of 1.5x to 1.9x on every stack.
PHASE_RMSE_TOL = 0.20  # rad * sqrt(K)
VIS_RMSE_TOL = 0.12  # * sqrt(K)
FREQ_TOL = 0.01  # cycles per scan, estimate mode
ENERGY_REL_TOL = 1e-12
RESIDUAL_BOUND = 1e-6  # 1/um


def quantised_sums(stack: fringes.FrameStack, gain: float) -> list[int]:
    """Per-frame sums of the 16-bit samples a stack is (or was) stored as."""
    return [int(np.rint(frame * gain).sum()) for frame in stack.frames]


class Truth:
    """Per-pixel ground truth from effective_complex_map, computed in set-up."""

    def __init__(self, tr, scene: optics.ObjectScene, config: optics.OpticalConfig, lit: np.ndarray):
        t = tr.call("optics.effective_complex_map", optics.effective_complex_map, scene, config)
        envelope = optics.coherence_envelope(config.path_mismatch_mm, config.coherence_length_mm)
        self.visibility = (config.system_visibility * envelope * np.abs(t))[lit]
        self.phase = np.angle(t)[lit]
        self.lit = lit


def lit_pixels(tr, scene: optics.ObjectScene, config: optics.OpticalConfig) -> np.ndarray:
    """Pixels whose true DC level is at least LIT_FRACTION of the peak.

    The mean of a noiseless one-cycle K=3 stack is the DC level exactly.
    """
    plan = optics.ScanPlan.equal_steps(3, config.undetected_wavelength_nm)
    stack = tr.call("optics.simulate_stack", optics.simulate_stack, scene, config, plan)
    tr.note(frames=3, noisy=False)
    dc = stack.frames.mean(axis=0)
    return dc >= LIT_FRACTION * float(dc.max())


def map_errors(result: fringes.AnalysisResult, truth: Truth) -> tuple[float, float]:
    """RMS phase error (rad, wrapped) and RMS visibility error over lit pixels."""
    dphi = np.angle(np.exp(1j * (result.phase_map[truth.lit] - truth.phase)))
    dvis = result.visibility_map[truth.lit] - truth.visibility
    return float(np.sqrt(np.mean(dphi * dphi))), float(np.sqrt(np.mean(dvis * dvis)))


def check_maps(out: dict, truth: Truth, k: int) -> list[str]:
    """Gate for one imaging operation: maps, errors and the files written."""
    result = out["result"]
    problems = []
    for name in ("visibility_map", "contrast_map", "phase_map", "dc_map"):
        if not np.isfinite(getattr(result, name)).all():
            problems.append(f"{name} is not finite everywhere")
    if problems:
        return problems
    phase_rmse, vis_rmse = map_errors(result, truth)
    out["phase_rmse"], out["vis_rmse"] = phase_rmse, vis_rmse
    if not phase_rmse <= PHASE_RMSE_TOL / math.sqrt(k):
        problems.append(f"phase RMSE {phase_rmse:.4f} rad > {PHASE_RMSE_TOL / math.sqrt(k):.4f}")
    if not vis_rmse <= VIS_RMSE_TOL / math.sqrt(k):
        problems.append(f"visibility RMSE {vis_rmse:.4f} > {VIS_RMSE_TOL / math.sqrt(k):.4f}")
    h, w = result.phase_map.shape
    written = out["written"]
    for name in ("visibility", "contrast", "phase", "dc", "mask"):
        path = written.get(name)
        if path is None or not path.is_file() or path.stat().st_size != h * w * 4:
            problems.append(f"{name}.f32 missing or of the wrong size")
    if not problems:
        stored = np.fromfile(written["phase"], dtype="<f4").reshape(h, w)
        if not np.array_equal(stored, result.phase_map.astype("<f4")):
            problems.append("phase.f32 does not hold the phase map")
    manifest = written.get("manifest")
    if manifest is None or not manifest.is_file():
        problems.append("maps.manifest missing")
    return problems


def readback_limit(stack: fringes.FrameStack) -> float:
    """Largest allowed |read - written| count: half a quantisation step."""
    return 0.5 / stack.meta["gain"] * (1.0 + 1e-9) + 1e-12


def corrupt_maps(out: dict, **maps) -> dict:
    return dict(out, result=dataclasses.replace(out["result"], **maps))


def imaging_corruptions(out: dict) -> list[tuple[str, dict]]:
    """Broken copies of an imaging output that the gate has to reject."""
    res = out["result"]
    nan_vis = res.visibility_map.copy()
    nan_vis[nan_vis.shape[0] // 2, nan_vis.shape[1] // 2] = np.nan
    bad_read = out["stack"].frames.copy()
    bad_read[0, 0, 0] += 1.0 / out["stack"].meta["gain"]
    return [
        ("phase offset 0.3 rad", corrupt_maps(out, phase_map=res.phase_map + 0.3)),
        ("visibility scaled by 1.25", corrupt_maps(out, visibility_map=res.visibility_map * 1.25)),
        ("one NaN visibility pixel", corrupt_maps(out, visibility_map=nan_vis)),
        ("read-back off by one count", dict(out, stack=dataclasses.replace(out["stack"], frames=bad_read))),
    ]


def export_bytes(written: dict) -> int:
    return sum(p.stat().st_size for p in written.values())


def dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


def analyze_traced(tr, stack, options, threads: int) -> fringes.AnalysisResult:
    result = tr.call(
        "fringes.analyze_stack", fringes.analyze_stack, stack, options, threads, alloc=True
    )
    if tr.enabled:
        k, h, w = stack.frames.shape
        # computed, not measured: float64 frames in, four float64 maps and a
        # boolean mask out
        tr.note(
            threads=threads,
            frames=k,
            bytes_computed=k * h * w * 8 + h * w * (4 * 8 + 1),
            masked_pixels=int((~result.mask).sum()),
            leakage_flag=bool(result.leakage_flag),
        )
    return result


def write_traced(tr, stack, directory: Path) -> None:
    tr.call("stackio.write_stack", stackio.write_stack, stack, directory)
    if tr.enabled:
        tr.note(bytes=dir_bytes(directory))


def read_traced(tr, directory: Path) -> fringes.FrameStack:
    stack = tr.call("stackio.read_stack", stackio.read_stack, directory, alloc=True)
    if tr.enabled:
        tr.note(bytes=dir_bytes(directory))
    return stack


def export_traced(tr, result, directory: Path, preview: bool) -> dict:
    written = tr.call("stackio.export_maps", stackio.export_maps, result, directory, preview)
    if tr.enabled:
        tr.note(bytes=export_bytes(written))
    return written


def simulate_traced(tr, scene, config, plan, noise) -> fringes.FrameStack:
    stack = tr.call(
        "optics.simulate_stack", optics.simulate_stack, scene, config, plan, noise, alloc=True
    )
    tr.note(frames=plan.frame_count, noisy=True)
    return stack


class Acquire:
    """Full CLI-equivalent loop on the full sensor, K=8, shot and read noise."""

    name = "acquire"
    frames = 8
    threads = (1,)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.config = optics.OpticalConfig()
        self.plan = optics.ScanPlan.equal_steps(self.frames, self.config.undetected_wavelength_nm)
        self.next_op = 0
        self.last_stack = None

    def setup(self, tr) -> None:
        scene = optics.make_test_target(SCENE_KIND, SCENE_SHAPE)
        self.scene = scene
        self.truth = Truth(tr, scene, self.config, lit_pixels(tr, scene, self.config))

    def cycle(self, rng: np.random.Generator) -> list:
        self.next_op += 1
        # a fresh noise seed per operation
        return [int(self.seed) * 1_000_003 + self.next_op]

    def kind(self, spec) -> str:
        return self.name

    def threads_of(self, spec) -> int:
        return 1

    def run(self, tr, noise_seed: int) -> dict:
        noise = optics.NoiseModel(shot_noise=True, read_noise_sigma=2.0, rng_seed=noise_seed)
        simulated = simulate_traced(tr, self.scene, self.config, self.plan, noise)
        stack_dir = self.workdir / "stack"
        write_traced(tr, simulated, stack_dir)
        stack = read_traced(tr, stack_dir)
        result = analyze_traced(tr, stack, fringes.ExtractionOptions(), 1)
        written = export_traced(tr, result, self.workdir / "maps", True)
        if tr.enabled:
            self.last_stack = stack
        return {"simulated": simulated, "stack": stack, "result": result, "written": written}

    def check(self, spec, out: dict) -> list[str]:
        stack, simulated = out["stack"], out["simulated"]
        problems = []
        if stack.frames.shape != simulated.frames.shape:
            return [f"read back {stack.frames.shape}, wrote {simulated.frames.shape}"]
        if float(np.abs(stack.frames - simulated.frames).max()) > readback_limit(stack):
            problems.append("stack read back differs from the one written by more than 0.5/gain")
        if out["result"].fringe_frequency != 1.0:
            problems.append(f"assume-one-cycle used f={out['result'].fringe_frequency}")
        return problems + check_maps(out, self.truth, self.frames)

    def corruptions(self, spec, out: dict) -> list[tuple[str, dict]]:
        return imaging_corruptions(out)

    def probe_stack(self, tr) -> fringes.FrameStack:
        return self.last_stack


class Reanalyze:
    """Analysis of full-frame stacks already on disk, in a seeded mix."""

    name = "reanalyze"
    one_cycle_frames = (3, 4, 8, 15)
    off_bin_frames = 8
    off_bin_f = 1.25
    # the pixel phase ramps by pi across the scene, like a slightly tilted
    # mirror; the seed's frequency estimator still locks at this tilt
    tilt_span_rad = math.pi
    threads = (1, 2)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.config = optics.OpticalConfig()

    def _write(self, tr, key: str, stack: fringes.FrameStack, rng: np.random.Generator) -> None:
        """Write a stack and keep what the gate needs to check it when read back:
        the exact sum of each quantised frame and a seeded sample of pixels."""
        directory = self.workdir / key
        write_traced(tr, stack, directory)
        manifest = (directory / stackio.STACK_MANIFEST).read_text(encoding="utf-8")
        gain = float(stackio.parse_key_values(manifest)["gain"])
        sample = rng.integers(0, stack.height * stack.width, size=4096)
        self.expected[key] = {
            "shape": stack.frames.shape,
            "frame_sums": quantised_sums(stack, gain),
            "sample": sample,
            "sample_values": stack.frames.reshape(stack.frame_count, -1)[:, sample],
        }

    def setup(self, tr) -> None:
        cfg = self.config
        lam = cfg.undetected_wavelength_nm
        wing = optics.make_test_target(SCENE_KIND, SCENE_SHAPE)
        ramp = np.linspace(-0.5, 0.5, SCENE_SHAPE[1])[None, :] * self.tilt_span_rad
        tilted = optics.ObjectScene(
            wing.amplitude_map, wing.phase_map + ramp, scene_pitch_um=wing.scene_pitch_um
        )
        lit = lit_pixels(tr, wing, cfg)
        self.truths = {"wing": Truth(tr, wing, cfg, lit), "tilt": Truth(tr, tilted, cfg, lit)}
        self.expected: dict[str, dict] = {}
        rng = np.random.default_rng([self.seed, 7])

        # K=3 and K=4 one-cycle scans sample phases 2 pi j/K that are every
        # 5th frame of the K=15 scan and every 2nd of the K=8 scan, so those
        # stacks are taken from the longer ones instead of rendered again.
        for k, sub in ((15, 3), (8, 4)):
            plan = optics.ScanPlan.equal_steps(k, lam)
            noise = optics.NoiseModel(shot_noise=True, rng_seed=self.seed * 31 + k)
            stack = simulate_traced(tr, wing, cfg, plan, noise)
            self._write(tr, f"k{k}", stack, rng)
            step = k // sub
            subset = fringes.FrameStack(
                stack.frames[::step].copy(), stack.scan_phases[::step].copy(), dict(stack.meta)
            )
            del stack
            self._write(tr, f"k{sub}", subset, rng)
            del subset

        # off-bin scan: 1.25 fringe cycles over 8 frames
        steps = np.arange(self.off_bin_frames) * (lam / 2.0) * (self.off_bin_f / self.off_bin_frames)
        noise = optics.NoiseModel(shot_noise=True, rng_seed=self.seed * 31 + 1)
        stack = simulate_traced(tr, tilted, cfg, optics.ScanPlan(steps), noise)
        self._write(tr, "offbin", stack, rng)
        del stack

        one_cycle = fringes.ExtractionOptions()
        self.kinds = [(f"k{k}", f"k{k}", one_cycle, "wing") for k in self.one_cycle_frames]
        self.kinds += [
            ("offbin-estimate", "offbin", fringes.ExtractionOptions(frequency_mode="estimate"), "tilt"),
            (
                "offbin-fixed",
                "offbin",
                fringes.ExtractionOptions(frequency_mode="fixed", fixed_frequency=self.off_bin_f),
                "tilt",
            ),
        ]

    def cycle(self, rng: np.random.Generator) -> list:
        specs = [(kind, threads) for kind in self.kinds for threads in self.threads]
        return [specs[i] for i in rng.permutation(len(specs))]

    def kind(self, spec) -> str:
        (label, *_), threads = spec
        return f"{label}-t{threads}"

    def threads_of(self, spec) -> int:
        return spec[1]

    def run(self, tr, spec) -> dict:
        (label, key, options, truth), threads = spec
        stack = read_traced(tr, self.workdir / key)
        result = analyze_traced(tr, stack, options, threads)
        written = export_traced(tr, result, self.workdir / f"maps-{label}", False)
        return {"stack": stack, "result": result, "written": written}

    def check(self, spec, out: dict) -> list[str]:
        (label, key, options, truth), threads = spec
        stack, result = out["stack"], out["result"]
        want = self.expected[key]
        if stack.frames.shape != want["shape"]:
            return [f"{label}: read back {stack.frames.shape}, wrote {want['shape']}"]
        problems = []
        sample = stack.frames.reshape(stack.frame_count, -1)[:, want["sample"]]
        if quantised_sums(stack, stack.meta["gain"]) != want["frame_sums"] or (
            np.abs(sample - want["sample_values"]).max() > readback_limit(stack)
        ):
            problems.append(f"{label}: stack read back differs from the one written")
        if options.frequency_mode == "estimate":
            if not abs(result.fringe_frequency - self.off_bin_f) <= FREQ_TOL:
                problems.append(
                    f"{label}: estimated {result.fringe_frequency:.4f} cycles, planned {self.off_bin_f}"
                )
        elif options.frequency_mode == "fixed" and result.fringe_frequency != self.off_bin_f:
            problems.append(f"{label}: fixed mode used f={result.fringe_frequency}")
        return [f"{label}: {p}" for p in check_maps(out, self.truths[truth], stack.frame_count)] + problems

    def corruptions(self, spec, out: dict) -> list[tuple[str, dict]]:
        return imaging_corruptions(out)

    def probe_stack(self, tr) -> fringes.FrameStack:
        return read_traced(tr, self.workdir / "offbin")


class TuneSweep:
    """QPM tuning curves for a 532 nm pump over a 20 x 19 period/temperature grid."""

    name = "tune-sweep"
    periods = 20
    period_range_um = (6.9, 8.8)
    temperatures_c = np.arange(20.0, 200.0 + 1e-9, 10.0)
    threads = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self, tr) -> None:
        self.dispersion = tr.call("qpm.default_dispersion_set", qpm.default_dispersion_set)

    def cycle(self, rng: np.random.Generator) -> list:
        lo, hi = self.period_range_um
        step = (hi - lo) / self.periods
        # a new sub-step shift per operation, so no two operations share a grid
        return [lo + (np.arange(self.periods) + rng.random()) * step]

    def kind(self, spec) -> str:
        return self.name

    def threads_of(self, spec) -> int:
        return 1

    def run(self, tr, periods) -> list:
        points = tr.call(
            "qpm.tuning_curve", qpm.tuning_curve, PUMP_NM, periods, self.temperatures_c, self.dispersion
        )
        tr.note(cells=len(points), unmatched=sum(p.pair is None for p in points))
        return points

    def check(self, periods, points) -> list[str]:
        want = [(float(p), float(t)) for p in sorted(periods) for t in self.temperatures_c]
        got = [(p.poling_period_um, p.temperature_c) for p in points]
        if got != want:
            return [f"grid has {len(got)} cells in another order than the {len(want)} requested"]
        problems = []
        for p in points:
            where = f"cell ({p.poling_period_um:.4f} um, {p.temperature_c:g} C)"
            if p.pair is None:
                if not p.note:
                    problems.append(f"{where}: unmatched without a reason")
                continue
            s, i = p.pair.signal_nm, p.pair.idler_nm
            if not PUMP_NM < s <= i:
                problems.append(f"{where}: signal {s} nm, idler {i} nm out of order")
                continue
            energy = abs(1.0 / PUMP_NM - 1.0 / s - 1.0 / i) * PUMP_NM
            if not energy <= ENERGY_REL_TOL:
                problems.append(f"{where}: energy mismatch {energy:.2e} (relative)")
            crystal = qpm.CrystalState(p.poling_period_um, p.temperature_c, self.dispersion)
            recomputed = abs(qpm.qpm_mismatch(PUMP_NM, s, crystal))
            if not (p.pair.residual_mismatch <= RESIDUAL_BOUND and recomputed <= RESIDUAL_BOUND):
                problems.append(f"{where}: residual mismatch {recomputed:.2e} 1/um")
        return problems

    def corruptions(self, periods, points) -> list[tuple[str, list]]:
        j = next(n for n, p in enumerate(points) if p.pair is not None)
        pair = points[j].pair
        broken = list(points)
        broken[j] = dataclasses.replace(
            points[j], pair=dataclasses.replace(pair, idler_nm=pair.idler_nm + 1.0)
        )
        return [("idler moved by 1 nm", broken)]


WORKLOADS = {cls.name: cls for cls in (Acquire, Reanalyze, TuneSweep)}


def mini_loop(tr, workdir: Path) -> fringes.FrameStack:
    """A small fixed closed loop (320x256, K=8) for layers a workload never calls.

    Used only by the traced run of tune-sweep, so its per-layer table is
    complete; these figures are not comparable with the full-frame ones.
    """
    config = optics.OpticalConfig(sensor_width=320, sensor_height=256)
    scene = optics.make_test_target(SCENE_KIND, (336, 420))
    tr.call("optics.effective_complex_map", optics.effective_complex_map, scene, config)
    plan = optics.ScanPlan.equal_steps(8, config.undetected_wavelength_nm)
    noise = optics.NoiseModel(shot_noise=True, rng_seed=1)
    stack = simulate_traced(tr, scene, config, plan, noise)
    write_traced(tr, stack, workdir / "probe-stack")
    stack = read_traced(tr, workdir / "probe-stack")
    result = analyze_traced(tr, stack, fringes.ExtractionOptions(), 1)
    export_traced(tr, result, workdir / "probe-maps", True)
    return stack


def probe_idle_layers(tr, wl, workdir: Path, seed: int) -> None:
    """Call the layers this workload's operations never call, so every
    per-layer metric of the traced run is measured (see README.md)."""
    tr.op_id = "probe"
    if not tr.named("optics.simulate_stack"):
        stack = mini_loop(tr, workdir)
    else:
        stack = wl.probe_stack(tr)
    for _ in range(3):
        tr.call("fringes.FrameStack", fringes.FrameStack, stack.frames, stack.scan_phases, stack.meta)
    for threads in (1, 2):
        if not [s for s in tr.named("fringes.analyze_stack", True) if s["attrs"]["threads"] == threads]:
            for _ in range(2):
                analyze_traced(tr, stack, fringes.ExtractionOptions(), threads)
    for _ in range(3):
        tr.call("fringes.estimate_fringe_frequency", fringes.estimate_fringe_frequency, stack)
    if not tr.named("qpm.tuning_curve", True):
        sweep = TuneSweep(seed, workdir)
        sweep.setup(tr)
        rng = np.random.default_rng([seed, 3])
        for _ in range(3):
            sweep.run(tr, sweep.cycle(rng)[0])

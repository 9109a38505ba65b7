"""On-disk format tests: PGM stacks, manifests, raw float maps."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import os
import sys
import time
import tracemalloc

import numpy as np
import pytest

from iuptools import (
    AnalysisResult,
    ExtractionOptions,
    FrameStack,
    NoiseModel,
    ObjectScene,
    OpticalConfig,
    ScanPlan,
    StackFormatError,
    StackIntegrityError,
    UnsupportedVersionError,
    analyze_stack,
    export_maps,
    make_test_target,
    parse_key_values,
    read_config_file,
    read_scene,
    read_stack,
    simulate_stack,
    write_scene,
    write_stack,
)
from iuptools import __version__, stackio


def sample_stack(k=4, noise=None, w=20, h=16):
    scene = make_test_target("ring-electrode", (h, w))
    cfg = OpticalConfig(sensor_width=w, sensor_height=h)
    plan = ScanPlan.equal_steps(k, cfg.undetected_wavelength_nm)
    return simulate_stack(scene, cfg, plan, noise or NoiseModel())


def replace_frame(directory, i, payload):
    """Write payload as frame i of a stack and its checksum into the manifest."""
    (directory / f"frame_{i:04d}.pgm").write_bytes(payload)
    mf = directory / "stack.manifest"
    values = parse_key_values(mf.read_text())
    digests = values["frame_sha256"].split(",")
    digests[i] = hashlib.sha256(payload).hexdigest()
    values["frame_sha256"] = ",".join(digests)
    mf.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))


class TestKeyValueFormat:
    def test_parse_basics(self):
        text = "# comment\n\nwidth = 12\nname = ring target\n"
        got = parse_key_values(text)
        assert got == {"width": "12", "name": "ring target"}

    def test_parse_rejects_garbage(self):
        for text in ("this line has no equals sign\n", "= 5\n"):
            with pytest.raises(StackFormatError, match="expected 'key = value'"):
                parse_key_values(text)

    def test_empty_key_in_a_file_names_the_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("mean_counts = 500\n  = 5\n")
        with pytest.raises(StackFormatError, match=r"run\.cfg: line 2: expected .*, got '= 5'"):
            read_config_file(p)

    def test_read_config_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("mean_counts = 500\nshot_noise = true\n")
        assert read_config_file(p) == {"mean_counts": "500", "shot_noise": "true"}

    @pytest.mark.parametrize("reader", ["config", "stack manifest", "scene manifest"])
    def test_a_file_that_is_not_utf8_is_named(self, tmp_path, reader):
        if reader == "config":
            path, read = tmp_path / "run.cfg", read_config_file
            path.write_text("mean_counts = 500\n")
        elif reader == "stack manifest":
            path, read = write_stack(sample_stack(), tmp_path / "s"), read_stack
        else:
            path = write_scene(make_test_target("uniform", (4, 5)), tmp_path / "scene")
            read = read_scene
        data = path.read_bytes()
        path.write_bytes(data + b"note = \xff\n")
        with pytest.raises(StackFormatError) as caught:
            read(path)
        at = len(data) + len(b"note = ")
        assert str(caught.value) == f"{path}: not UTF-8 text (invalid start byte at byte {at})"

    def test_repeated_key_names_line_and_key(self):
        with pytest.raises(StackFormatError, match=r"^line 3: key 'gain' repeats"):
            parse_key_values("gain = 1\n# again\ngain = 2\n")

    def test_repeated_key_in_a_file_names_the_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("mean_counts = 500\nmean_counts = 600\n")
        with pytest.raises(StackFormatError, match=r"run\.cfg: line 2: key 'mean_counts'"):
            read_config_file(p)

    def test_toolkit_files_repeat_no_key(self, tmp_path):
        write_stack(sample_stack(), tmp_path / "s")
        write_scene(make_test_target("uniform", (4, 5)), tmp_path / "scene")
        res = analyze_stack(
            sample_stack(k=8), ExtractionOptions(frequency_mode="fixed", fixed_frequency=1.0)
        )
        export_maps(res, tmp_path / "m", preview=True)
        files = [tmp_path / "s" / "stack.manifest", tmp_path / "scene" / "scene.manifest"]
        files += sorted((tmp_path / "m").glob("*.txt")) + [tmp_path / "m" / "maps.manifest"]
        for path in files:
            lines = [line for line in path.read_text().splitlines() if line]
            assert len(parse_key_values(path.read_text())) == len(lines), path.name

    def test_toolkit_files_keep_their_text(self, tmp_path):
        # integer gain, meta, pitch, threshold and fixed frequency are still written as floats
        meta = {"pump_nm": 532.0, "detected_nm": 810.0, "undetected_nm": 1550.0,
                "exposure_ms": 200.0, "pixel_pitch_um": 5.2}
        frames = np.array([[[0.0, 1.5, 3.0]], [[4.5, 6.0, 7.0]]])
        write_stack(FrameStack(frames, [0.0, np.pi], meta), tmp_path / "meta")
        zeros = FrameStack(np.zeros((2, 1, 2)), [0.0, 1.0], {"exposure_ms": 10**17})
        write_stack(zeros, tmp_path / "zero", gain=10**20)
        scene = ObjectScene(np.full((1, 2), 0.5), np.zeros((1, 2)), scene_pitch_um=10**20)
        write_scene(scene, tmp_path / "scene")
        maps = dict(visibility_map=np.array([[0.5, 0.0]]), contrast_map=np.array([[0.75, 0.0]]),
                    phase_map=np.array([[1.0, 0.0]]), dc_map=np.array([[7.0, 0.0]]),
                    mask=np.array([[True, False]]))
        one = ExtractionOptions(min_dc_threshold=10**20)
        export_maps(AnalysisResult(**maps, fringe_frequency=1.0, leakage_flag=False, options=one),
                    tmp_path / "one")
        fixed = ExtractionOptions(frequency_mode="fixed", fixed_frequency=10**20)
        export_maps(AnalysisResult(**maps, fringe_frequency=1.25, leakage_flag=True, options=fixed),
                    tmp_path / "fixed", preview=True)

        frame_files = ["frame_0000.pgm", "frame_0001.pgm"]
        meta_sha = ["8f530d2b9372dd813c160dec10c3026c9aa1c3d0e3094f11fb0290143b73ed7c",
                    "4de9ce4a507516e5192249e71ae350e6a6ff8c5ba90924c4d96a91661bd3618d"]
        zero_sha = ["52219f655e7ff502409f71e7f1376d828cc31571c4def7f04e0eab2f070ef727"] * 2
        maps_head = f"format_version = 2\ntoolkit_version = {__version__}\nwidth = 2\nheight = 1\n"
        maps_values = {"format_version": 2, "toolkit_version": __version__, "width": 2, "height": 1}
        files = {  # whole text, then each key's value as it must read back
            "meta/stack.manifest": (
                "format_version = 1\nwidth = 3\nheight = 1\nframe_count = 2\n"
                "gain = 9362.1428571428569\nscan_phases = 0,3.1415926535897931\n"
                f"frame_files = {','.join(frame_files)}\nframe_sha256 = {','.join(meta_sha)}\n"
                "pump_nm = 532\ndetected_nm = 810\nundetected_nm = 1550\nexposure_ms = 200\n"
                "pixel_pitch_um = 5.2000000000000002\n",
                {"format_version": 1, "width": 3, "height": 1, "frame_count": 2,
                 "gain": 65535.0 / 7.0, "scan_phases": [0.0, np.pi], "frame_files": frame_files,
                 "frame_sha256": meta_sha, **meta},
            ),
            "zero/stack.manifest": (
                "format_version = 1\nwidth = 2\nheight = 1\nframe_count = 2\ngain = 1e+20\n"
                f"scan_phases = 0,1\nframe_files = {','.join(frame_files)}\n"
                f"frame_sha256 = {','.join(zero_sha)}\nexposure_ms = 1e+17\n",
                {"format_version": 1, "width": 2, "height": 1, "frame_count": 2, "gain": 1e20,
                 "scan_phases": [0.0, 1.0], "frame_files": frame_files, "frame_sha256": zero_sha,
                 "exposure_ms": 1e17},
            ),
            "scene/scene.manifest": (
                "format_version = 2\nwidth = 2\nheight = 1\nscene_pitch_um = 1e+20\n",
                {"format_version": 2, "width": 2, "height": 1, "scene_pitch_um": 1e20},
            ),
            "one/maps.manifest": (
                maps_head + "fringe_frequency = 1\nleakage_flag = false\nmasked_pixels = 1\n"
                "frequency_mode = assume-one-cycle\nmin_dc_threshold = 1e+20\n",
                {**maps_values, "fringe_frequency": 1.0, "leakage_flag": False,
                 "masked_pixels": 1, "frequency_mode": "assume-one-cycle",
                 "min_dc_threshold": 1e20},
            ),
            "fixed/maps.manifest": (
                maps_head + "fringe_frequency = 1.25\nleakage_flag = true\nmasked_pixels = 1\n"
                "frequency_mode = fixed\nmin_dc_threshold = 1.0000000000000001e-09\n"
                "fixed_frequency = 1e+20\ncontrast_preview_scale = 87380\n"
                "dc_preview_scale = 9362.1428571428569\n",
                {**maps_values, "fringe_frequency": 1.25, "leakage_flag": True,
                 "masked_pixels": 1, "frequency_mode": "fixed", "min_dc_threshold": 1e-9,
                 "fixed_frequency": 1e20, "contrast_preview_scale": 65535.0 / 0.75,
                 "dc_preview_scale": 65535.0 / 7.0},
            ),
        }
        for name, (text, typed) in files.items():
            assert (tmp_path / name).read_text(encoding="utf-8") == text, name
            values = parse_key_values(text)
            assert list(values) == list(typed), name
            for key, want in typed.items():
                if isinstance(want, list):
                    convert = stackio._items if isinstance(want[0], str) else stackio._finite_floats
                else:
                    convert = stackio._CONVERTERS[type(want).__name__]
                got = stackio._field(values, key, name, convert)
                assert got == want and type(got) is type(want), (name, key)


def full_frame_pgm_files(stack, gain=None):
    """write_stack's frame files as {name: bytes} and its gain, from whole
    frames: the gain maps the largest count to 65535 unless given, and each
    frame is rint(counts * gain) as big-endian uint16 after a P5 header."""
    frames = stack.frames
    if gain is None:
        peak = float(frames.max())
        gain = 65535.0 / peak if peak > 0 else 1.0
    header = f"P5\n{stack.width} {stack.height}\n65535\n".encode("ascii")
    files = {
        f"frame_{i:04d}.pgm": header + np.rint(frame * gain).astype(">u2").tobytes()
        for i, frame in enumerate(frames)
    }
    return files, gain


class TestStackRoundTrip:
    def test_counts_survive_within_quantization(self, tmp_path):
        stack = sample_stack(noise=NoiseModel(shot_noise=True, rng_seed=3))
        out = tmp_path / "stack"
        write_stack(stack, out)
        back = read_stack(out)
        gain = back.meta["gain"]
        assert np.abs(back.frames - stack.frames).max() <= 0.5 / gain + 1e-12
        assert np.array_equal(back.scan_phases, stack.scan_phases)

    def test_acquisition_metadata_round_trips(self, tmp_path):
        stack = sample_stack()
        write_stack(stack, tmp_path / "s")
        back = read_stack(tmp_path / "s")
        for key in ("pump_nm", "detected_nm", "undetected_nm", "exposure_ms"):
            assert back.meta[key] == pytest.approx(stack.meta[key])

    def test_explicit_gain(self, tmp_path):
        stack = sample_stack(noise=NoiseModel(shot_noise=True, rng_seed=5))
        write_stack(stack, tmp_path / "s", gain=16.0)
        back = read_stack(tmp_path / "s")
        assert back.meta["gain"] == 16.0
        assert np.abs(back.frames - stack.frames).max() <= 0.5 / 16.0 + 1e-12

    @pytest.mark.parametrize("case", ["autoscaled", "gain", "rewritten"])
    def test_files_equal_full_frame_formula(self, tmp_path, case):
        # 3 row chunks per frame, the last one short
        rng = np.random.default_rng(17)
        stack = FrameStack(rng.uniform(0.0, 4000.0, (3, 100, 700)), [0.0, 2.1, 4.2])
        gain = 7.3 if case == "gain" else None
        if case == "rewritten":
            write_stack(stack, tmp_path / "first")
            stack = read_stack(tmp_path / "first")
        manifest = write_stack(stack, tmp_path / "s", gain=gain)
        files, want_gain = full_frame_pgm_files(stack, gain)
        assert parse_key_values(manifest.read_text())["gain"] == format(want_gain, ".17g")
        for name, payload in files.items():
            assert (tmp_path / "s" / name).read_bytes() == payload, name

    @pytest.mark.parametrize("stored", [False, True], ids=["float", "read"])
    def test_full_frame_memory_is_one_file_and_a_band_budget(self, tmp_path, stored):
        # K=8 full frames: one frame's file, plus 1 MiB for a row band of
        # counts; a frame-sized float64 buffer alone would be 10 MiB
        frames = np.random.default_rng(2).uniform(0.0, 2000.0, (8, 1024, 1280))
        stack = FrameStack(frames, np.arange(8.0))
        if stored:
            write_stack(stack, tmp_path / "first")
            del stack, frames
            stack = read_stack(tmp_path / "first")
        tracemalloc.start()
        try:
            write_stack(stack, tmp_path / "s")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 1024 * 1280 + 1 * 2**20

    def test_gain_overflow_is_loud(self, tmp_path):
        stack = sample_stack()
        with pytest.raises(OverflowError):
            write_stack(stack, tmp_path / "s", gain=1e9)
        assert not (tmp_path / "s").exists()

    def test_overflow_bound_is_the_rounded_largest_sample(self, tmp_path):
        frames = np.full((3, 4, 5), 1.0)
        frames[1, 2, 3] = 2.0
        stack = FrameStack(frames, [0.0, 1.0, 2.0])
        # 2 * 32767.7 = 65535.4 rounds to 65535 and fits
        write_stack(stack, tmp_path / "fits", gain=32767.7)
        back = read_stack(tmp_path / "fits")
        assert back.frames.max() * 32767.7 == pytest.approx(65535.0)
        # 2 * 32767.75 = 65535.5 rounds to 65536
        with pytest.raises(OverflowError, match="max scaled sample 65536"):
            write_stack(stack, tmp_path / "over", gain=32767.75)
        assert not (tmp_path / "over").exists()

    def test_count_too_small_to_autoscale_refused_by_count(self, tmp_path):
        # 65535 / 1e-305 overflows to inf: the error names the count, not a gain
        stack = FrameStack(np.full((3, 4, 5), 1e-305), np.arange(3.0))
        with pytest.raises(ValueError, match=r"^largest count 1e-305 is too small to autoscale"):
            write_stack(stack, tmp_path / "s")
        assert not (tmp_path / "s").exists()

    def test_tiny_counts_that_autoscale_round_trip(self, tmp_path):
        frames = np.full((3, 4, 5), 1e-300)
        frames[1, 2, 3] = 0.25e-300
        write_stack(FrameStack(frames, np.arange(3.0)), tmp_path / "s")
        back = read_stack(tmp_path / "s")
        gain = back.meta["gain"]
        assert gain == 65535.0 / 1e-300
        assert np.abs(back.frames - frames).max() <= 0.5 / gain

    def test_samples_are_rounded_scaled_counts(self, tmp_path):
        stack = sample_stack(noise=NoiseModel(shot_noise=True, read_noise_sigma=2.0, rng_seed=9))
        write_stack(stack, tmp_path / "s", gain=7.3)
        header_len = len(b"P5\n20 16\n65535\n")
        for i in range(stack.frame_count):
            payload = (tmp_path / "s" / f"frame_{i:04d}.pgm").read_bytes()
            raw = np.frombuffer(payload[header_len:], dtype=">u2").reshape(16, 20)
            assert np.array_equal(raw, np.rint(stack.frames[i] * 7.3))

    def test_reads_from_manifest_path_or_directory(self, tmp_path):
        stack = sample_stack()
        write_stack(stack, tmp_path / "s")
        a = read_stack(tmp_path / "s")
        b = read_stack(tmp_path / "s" / "stack.manifest")
        assert np.array_equal(a.frames, b.frames)

    def test_no_partial_files_left(self, tmp_path):
        write_stack(sample_stack(), tmp_path / "s")
        leftovers = list((tmp_path / "s").glob("*.partial"))
        assert leftovers == []

    def test_each_write_uses_its_own_temporary_file(self, tmp_path, monkeypatch):
        sources = []
        real_replace = os.replace

        def recording_replace(src, dst):
            sources.append(src)
            real_replace(src, dst)

        monkeypatch.setattr(stackio.os, "replace", recording_replace)
        target = tmp_path / "x.bin"
        stackio._atomic_write_bytes(target, b"one")
        stackio._atomic_write_bytes(target, b"two")
        assert len(sources) == 2 and sources[0] != sources[1]
        assert all(str(src).endswith(".partial") for src in sources)
        assert target.read_bytes() == b"two"

    def test_failed_write_removes_temporary_file(self, tmp_path, monkeypatch):
        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(stackio.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            stackio._atomic_write_bytes(tmp_path / "x.bin", b"payload")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("gain", [None, 7.3])
    def test_either_storage_writes_the_same_bytes(self, tmp_path, gain):
        write_stack(sample_stack(noise=NoiseModel(shot_noise=True, rng_seed=8)), tmp_path / "s")
        stored = read_stack(tmp_path / "s")
        floats = FrameStack(read_stack(tmp_path / "s").frames, stored.scan_phases, stored.meta)
        write_stack(stored, tmp_path / "a", gain=gain)
        assert stored._counts[0].dtype == np.uint16, "writing must not expand the samples"
        write_stack(floats, tmp_path / "b", gain=gain)
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize(
        "gain",
        [np.inf, np.nan, -np.inf, 1e-320, np.float64(1e-320)],
        ids=["inf", "nan", "-inf", "tiny", "tiny-float64"],
    )
    def test_non_finite_gain_refused_by_write(self, tmp_path, gain):
        # 0 * inf would write NaN samples; a tiny numpy gain must be refused,
        # not overflow with a warning in 65535 / gain
        stack = FrameStack(np.zeros((3, 4, 5)), [0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="gain must be finite"):
            write_stack(stack, tmp_path / "s", gain=gain)
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("pump_nm", "green", "^pump_nm must be a real number, got 'green'$"),
            ("exposure_ms", True, "^exposure_ms must be a real number, got True$"),
            ("pump_nm", np.nan, "^pump_nm must be finite, got nan$"),
            ("exposure_ms", np.inf, "^exposure_ms must be finite, got inf$"),
            ("pixel_pitch_um", 0.0, "^pixel_pitch_um must be > 0, got 0.0$"),
        ],
        ids=["str", "bool", "nan", "inf", "zero"],
    )
    def test_bad_meta_value_refused_by_write_before_the_directory(self, tmp_path, key, value,
                                                                   message):
        stack = FrameStack(np.ones((3, 4, 5)), np.arange(3.0), {"undetected_nm": 1558.0, key: value})
        with pytest.raises(ValueError, match=message):
            write_stack(stack, tmp_path / "s")
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("gain", [True, np.True_, "7"], ids=repr)
    def test_gain_that_is_no_number_refused_by_write(self, tmp_path, gain):
        stack = FrameStack(np.ones((3, 4, 5)), [0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="gain must be a real number"):
            write_stack(stack, tmp_path / "s", gain=gain)
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "stored, gain", [(False, None), (True, None), (True, 7.3)],
        ids=["float", "read-autoscaled", "read-7.3"],
    )
    def test_max_count_is_the_largest_scaled_chunk_value(self, tmp_path, stored, gain):
        # 3 row chunks per frame, the last one short
        rng = np.random.default_rng(23)
        stack = FrameStack(rng.uniform(0.0, 8000.0, (4, 100, 700)), np.arange(4.0))
        if stored:
            write_stack(stack, tmp_path / "s", gain=gain)
            stack = read_stack(tmp_path / "s")
        # the reference: every row chunk's counts as _scaled gives them, and their maximum
        band = np.empty((100, 700))
        want = max(
            float(stack._scaled(np.s_[i, r0:r1], band[: r1 - r0]).max())
            for i in range(4) for r0, r1 in stackio._row_chunks(100, 700)
        )
        assert stack._max_count() == want
        assert stored == (stack._counts[0].dtype == np.uint16), "must not expand the samples"


class TestStoredSamples:
    def test_read_stack_keeps_two_bytes_per_sample(self, tmp_path):
        stack = sample_stack(k=5, noise=NoiseModel(shot_noise=True, rng_seed=4))
        write_stack(stack, tmp_path / "s")
        back = read_stack(tmp_path / "s")
        assert "frames" not in vars(back)
        assert back._counts[0].dtype == np.uint16
        assert back._counts[0].nbytes == 2 * 5 * 16 * 20
        assert (back.frame_count, back.height, back.width) == (5, 16, 20)

    def test_frames_are_the_samples_over_the_gain(self, tmp_path):
        stack = sample_stack(noise=NoiseModel(shot_noise=True, rng_seed=6))
        write_stack(stack, tmp_path / "s", gain=9.1)
        header_len = len(b"P5\n20 16\n65535\n")
        raw = np.stack([
            np.frombuffer((tmp_path / "s" / f"frame_{i:04d}.pgm").read_bytes()[header_len:], ">u2")
            for i in range(stack.frame_count)
        ]).reshape(stack.frames.shape)
        back = read_stack(tmp_path / "s")
        samples, gain = back._counts
        frames = back.frames
        assert np.array_equal(frames, raw / 9.1)
        assert back._counts[0] is samples and back._counts[1] == gain == 9.1
        assert samples.dtype == np.uint16
        again = back.frames
        assert again is not frames and np.array_equal(again, frames)

    @pytest.mark.parametrize("change", [
        {"meta": {"note": "edited"}},
        {"scan_phases": np.linspace(0.0, 3.0, 4)},
    ], ids=["meta", "scan_phases"])
    def test_replace_leaves_the_samples_of_the_original(self, tmp_path, change):
        write_stack(sample_stack(), tmp_path / "s", gain=9.1)
        back = read_stack(tmp_path / "s")
        samples, gain = back._counts
        other = dataclasses.replace(back, **change)
        assert back._counts[0] is samples and back._counts[1] == gain
        assert samples.dtype == np.uint16
        assert other._counts[0].dtype == np.float64 and other._counts[1] == 1.0
        assert np.array_equal(other.frames, back.frames)
        for name, value in change.items():
            assert np.array_equal(getattr(other, name), value)

    def test_equality_is_identity_and_keeps_the_samples(self, tmp_path):
        write_stack(sample_stack(), tmp_path / "s")
        a, b = read_stack(tmp_path / "s"), read_stack(tmp_path / "s")
        assert a == a and a != b
        assert a._counts[0].dtype == b._counts[0].dtype == np.uint16
        assert FrameStack(a.frames, a.scan_phases) != FrameStack(b.frames, b.scan_phases)

    def test_frames_used_keeps_the_samples(self, tmp_path):
        write_stack(sample_stack(k=8), tmp_path / "s")
        back = read_stack(tmp_path / "s")
        head = back.truncated(4)
        assert head._counts[0].dtype == np.uint16 and head.frame_count == 4
        assert np.array_equal(head.frames, read_stack(tmp_path / "s").frames[:4])


class TestPgmDetails:
    def test_header_and_endianness(self, tmp_path):
        stack = sample_stack()
        write_stack(stack, tmp_path / "s", gain=1.0)
        payload = (tmp_path / "s" / "frame_0000.pgm").read_bytes()
        assert payload.startswith(b"P5\n20 16\n65535\n")
        header_len = len(b"P5\n20 16\n65535\n")
        raw = np.frombuffer(payload[header_len:], dtype=">u2").reshape(16, 20)
        assert np.array_equal(raw, np.rint(stack.frames[0]).astype(np.uint16))

    def test_checksum_matches_whole_file(self, tmp_path):
        stack = sample_stack()
        write_stack(stack, tmp_path / "s")
        manifest = parse_key_values((tmp_path / "s" / "stack.manifest").read_text())
        digests = manifest["frame_sha256"].split(",")
        for name, want in zip(manifest["frame_files"].split(","), digests):
            got = hashlib.sha256((tmp_path / "s" / name).read_bytes()).hexdigest()
            assert got == want


class TestStackValidation:
    def test_corrupted_frame_detected(self, tmp_path):
        write_stack(sample_stack(), tmp_path / "s")
        victim = tmp_path / "s" / "frame_0001.pgm"
        data = bytearray(victim.read_bytes())
        data[-1] ^= 0x01
        victim.write_bytes(bytes(data))
        with pytest.raises(StackIntegrityError, match="frame_0001"):
            read_stack(tmp_path / "s")

    def test_missing_frame_detected(self, tmp_path):
        write_stack(sample_stack(), tmp_path / "s")
        (tmp_path / "s" / "frame_0002.pgm").unlink()
        with pytest.raises(StackFormatError):
            read_stack(tmp_path / "s")

    def test_newer_version_refused(self, tmp_path):
        write_stack(sample_stack(), tmp_path / "s")
        mf = tmp_path / "s" / "stack.manifest"
        mf.write_text(mf.read_text().replace("format_version = 1", "format_version = 7"))
        with pytest.raises(UnsupportedVersionError):
            read_stack(tmp_path / "s")

    @pytest.mark.parametrize("version", ["0", "-7"])
    @pytest.mark.parametrize("kind", ["stack", "scene"])
    def test_non_positive_version_refused(self, tmp_path, kind, version):
        if kind == "stack":
            manifest, read = write_stack(sample_stack(), tmp_path / "s"), read_stack
        else:
            manifest = write_scene(make_test_target("uniform", (4, 5)), tmp_path / "s")
            read = read_scene
        values = parse_key_values(manifest.read_text())
        values["format_version"] = version
        manifest.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        with pytest.raises(StackFormatError) as caught:
            read(tmp_path / "s")
        assert type(caught.value) is StackFormatError
        assert str(caught.value) == f"{manifest}: key 'format_version' has invalid value '{version}'"

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StackFormatError):
            read_stack(tmp_path / "nothing-here")

    def test_frame_count_mismatch_detected(self, tmp_path):
        write_stack(sample_stack(), tmp_path / "s")
        mf = tmp_path / "s" / "stack.manifest"
        mf.write_text(mf.read_text().replace("frame_count = 4", "frame_count = 3"))
        with pytest.raises(StackFormatError):
            read_stack(tmp_path / "s")

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("width", "five"),
            ("gain", "lots"),
            ("scan_phases", "0,zero,1,2"),
            ("width", "-5"),
            ("height", "0"),
            ("frame_count", "0"),
            ("scan_phases", "nan,1,2,3"),
            ("pump_nm", "nan"),
            ("exposure_ms", "inf"),
        ],
    )
    def test_unparsable_value_names_file_and_key(self, tmp_path, key, bad):
        write_stack(sample_stack(), tmp_path / "s")
        mf = tmp_path / "s" / "stack.manifest"
        values = parse_key_values(mf.read_text())
        values[key] = bad
        mf.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        # refused from the manifest alone, before any frame file is opened
        for frame in (tmp_path / "s").glob("*.pgm"):
            frame.unlink()
        pattern = f"stack.manifest: key '{key}' has invalid value '{bad}'"
        with pytest.raises(StackFormatError, match=pattern):
            read_stack(tmp_path / "s")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("at", [0, 2, 3], ids=["first", "middle", "last"])
    def test_a_scan_phase_that_is_not_finite_is_refused_anywhere(self, tmp_path, value, at):
        write_stack(sample_stack(), tmp_path / "s")
        mf = tmp_path / "s" / "stack.manifest"
        values = parse_key_values(mf.read_text())
        phases = values["scan_phases"].split(",")
        phases[at] = value
        values["scan_phases"] = ",".join(phases)
        mf.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        pattern = f"stack.manifest: key 'scan_phases' has invalid value '{values['scan_phases']}'"
        with pytest.raises(StackFormatError, match=pattern):
            read_stack(tmp_path / "s")

    def test_frame_files_must_be_plain_names(self, tmp_path):
        write_stack(sample_stack(), tmp_path / "elsewhere")
        write_stack(sample_stack(), tmp_path / "s")
        mf = tmp_path / "s" / "stack.manifest"
        text = mf.read_text()
        outside = str(tmp_path / "elsewhere" / "frame_0000.pgm")
        for name in (outside, "../elsewhere/frame_0000.pgm", "sub/frame_0000.pgm", ".."):
            mf.write_text(text.replace("frame_files = frame_0000.pgm", f"frame_files = {name}"))
            with pytest.raises(StackFormatError, match="plain file name"):
                read_stack(tmp_path / "s")

    @pytest.mark.parametrize(
        "edit, pattern",
        [
            (lambda v: v.pop("gain"), r"'gain'"),
            (lambda v: v.update(gain="0"), r"gain"),
            # inf would read as an all-zero stack; 65535 / 1e-320 overflows
            (lambda v: v.update(gain="inf"), r"gain .*got 'inf'"),
            (lambda v: v.update(gain="nan"), r"gain .*got 'nan'"),
            (lambda v: v.update(gain="1e-320"), r"gain .*got '1e-320'"),
            (lambda v: v.update(frame_sha256=v["frame_sha256"].rsplit(",", 1)[0]), r"frame_count"),
            (lambda v: v.update(scan_phases=v["scan_phases"].rsplit(",", 1)[0]), r"frame_count"),
            (lambda v: v.update(width=v["height"], height=v["width"]), r"frame_0000\.pgm"),
            # checked before the (frame_count, height, width) samples are allocated
            (
                lambda v: v.update(width="5000000", height="4000000"),
                r"frame frame_0000\.pgm is 20x16, manifest says 5000000x4000000",
            ),
        ],
        ids=[
            "missing-gain", "zero-gain", "inf-gain", "nan-gain", "tiny-gain",
            "few-checksums", "few-phases", "frame-size", "huge-frame-size",
        ],
    )
    def test_inconsistent_manifest_names_file(self, tmp_path, edit, pattern):
        write_stack(sample_stack(), tmp_path / "s")
        mf = tmp_path / "s" / "stack.manifest"
        values = parse_key_values(mf.read_text())
        edit(values)
        mf.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        with pytest.raises(StackFormatError, match=rf"stack\.manifest: .*{pattern}"):
            read_stack(tmp_path / "s")

    def test_repeated_key_names_file_and_line(self, tmp_path):
        write_stack(sample_stack(), tmp_path / "s")
        mf = tmp_path / "s" / "stack.manifest"
        text = mf.read_text()
        mf.write_text(text + "gain = 2\n")
        line = len(text.splitlines()) + 1
        with pytest.raises(StackFormatError, match=rf"stack\.manifest: line {line}: key 'gain'"):
            read_stack(tmp_path / "s")

    def test_unparsable_line_names_file_and_line(self, tmp_path):
        write_stack(sample_stack(), tmp_path / "s")
        mf = tmp_path / "s" / "stack.manifest"
        lines = mf.read_text().splitlines()
        mf.write_text("\n".join(lines[:2] + ["this is junk"] + lines[2:]) + "\n")
        with pytest.raises(StackFormatError, match=r"stack\.manifest: line 3"):
            read_stack(tmp_path / "s")

    @pytest.mark.parametrize(
        "payload",
        [
            b"P6\n20 16\n65535\n" + bytes(640),
            b"P5\n20 16\n255\n" + bytes(640),
            b"P5\n20 16\n65535\n" + bytes(639),
        ],
        ids=["header", "maxval", "sample-count"],
    )
    def test_bad_pgm_names_frame(self, tmp_path, payload):
        write_stack(sample_stack(), tmp_path / "s")
        replace_frame(tmp_path / "s", 0, payload)
        with pytest.raises(StackFormatError, match=r"frame_0000\.pgm"):
            read_stack(tmp_path / "s")


@pytest.fixture
def usable_cpus(monkeypatch):
    """set(n) makes the calling thread appear to have n usable CPUs and returns
    the list of thread pools (by worker count) started from then on."""
    started = []
    executor = concurrent.futures.ThreadPoolExecutor

    class Recorded(executor):
        def __init__(self, max_workers=None, *args, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorded)

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        started.clear()
        return started

    return set_cpus


class TestParallelRead:
    """read_stack checks frames 1.. on every usable CPU."""

    # 8 frames, so that 7 workers each get one of frames 1..7
    def stack_dir(self, tmp_path):
        noise = NoiseModel(shot_noise=True, read_noise_sigma=2.0, rng_seed=12)
        write_stack(sample_stack(k=8, noise=noise, w=300, h=217), tmp_path / "s")
        return tmp_path / "s"

    def test_stack_does_not_depend_on_the_worker_count(self, tmp_path, usable_cpus):
        directory = self.stack_dir(tmp_path)
        header_len = len(b"P5\n300 217\n65535\n")
        raw = np.stack([
            np.frombuffer((directory / f"frame_{i:04d}.pgm").read_bytes()[header_len:], ">u2")
            for i in range(8)
        ]).reshape(8, 217, 300)
        for cpus in (1, 2, 3, 7):
            started = usable_cpus(cpus)
            back = read_stack(directory)
            assert started == ([cpus] if cpus > 1 else [])
            samples, gain = back._counts
            assert samples.dtype == np.uint16 and np.array_equal(samples, raw)
            if cpus == 1:
                want = back
                continue
            assert gain == want._counts[1]
            assert back.scan_phases.tobytes() == want.scan_phases.tobytes()
            assert back.meta == want.meta

    def test_read_buffers_survive_many_switching_workers(self, tmp_path, usable_cpus):
        # more workers than cores, switching threads every microsecond: a read
        # buffer shared by two workers would fail a checksum or corrupt a frame
        directory = self.stack_dir(tmp_path)
        usable_cpus(1)
        want = read_stack(directory)._counts[0]
        usable_cpus(7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 5.0
            runs = 0
            while runs < 3 or (runs < 20 and time.monotonic() < deadline):
                assert np.array_equal(read_stack(directory)._counts[0], want)
                runs += 1
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("damage", ["checksum", "missing", "geometry", "not-pgm"])
    def test_the_first_bad_frame_is_reported(self, tmp_path, usable_cpus, damage):
        directory = self.stack_dir(tmp_path)
        source = directory / "stack.manifest"
        wanted = {
            "checksum": (StackIntegrityError, f"{source}: checksum mismatch for frame frame_0002.pgm"),
            "missing": (StackFormatError, f"{source}: missing frame file frame_0002.pgm"),
            # frame 2 is longer than frame 0, frame 5 shorter
            "geometry": (
                StackFormatError,
                f"{source}: frame frame_0002.pgm is 301x217, manifest says 300x217",
            ),
            "not-pgm": (
                StackFormatError, f"{source}: frame frame_0002.pgm: not a binary P5 PGM file"
            ),
        }
        for i, width in ((2, 301), (5, 299)):
            path = directory / f"frame_{i:04d}.pgm"
            if damage == "checksum":
                data = bytearray(path.read_bytes())
                data[-1] ^= 0x01
                path.write_bytes(bytes(data))
            elif damage == "missing":
                path.unlink()
            elif damage == "geometry":
                replace_frame(directory, i, bytes(stackio._pgm_file(217, width)[0]))
            else:
                replace_frame(directory, i, b"P6" + path.read_bytes()[2:])
        error, message = wanted[damage]
        for cpus in (1, 2, 3, 7):
            usable_cpus(cpus)
            with pytest.raises(StackFormatError) as caught:
                read_stack(directory)
            assert type(caught.value) is error
            assert str(caught.value) == message


class TestMapExport:
    def test_map_files_round_trip(self, tmp_path):
        res = analyze_stack(sample_stack(k=8))
        out = tmp_path / "maps"
        export_maps(res, out)
        _, values, source = stackio._read_manifest(
            out, stackio.MAPS_MANIFEST, stackio.MAPS_FORMAT_VERSION
        )
        h = stackio._field(values, "height", source, stackio._positive_int)
        w = stackio._field(values, "width", source, stackio._positive_int)
        for name, want in (
            ("visibility", res.visibility_map),
            ("contrast", res.contrast_map),
            ("phase", res.phase_map),
            ("dc", res.dc_map),
        ):
            raw = np.fromfile(out / f"{name}.f32", dtype="<f4").reshape(h, w)
            assert raw.shape == want.shape
            assert raw.tobytes() == want.astype("<f4").tobytes()

    @pytest.mark.parametrize("preview", [False, True])
    def test_bundle_is_maps_previews_and_one_manifest(self, tmp_path, preview):
        res = analyze_stack(sample_stack(k=4))
        written = export_maps(res, tmp_path / "m", preview=preview)
        raw = {f"{name}.f32" for name in ("visibility", "contrast", "phase", "dc", "mask")}
        previews = {f"{name}.pgm" for name in ("visibility", "contrast", "phase", "dc")}
        want = raw | {"maps.manifest"} | (previews if preview else set())
        assert {p.name for p in (tmp_path / "m").iterdir()} == want
        assert {p.name for p in written.values()} == want
        manifest = parse_key_values((tmp_path / "m" / "maps.manifest").read_text())
        assert manifest["format_version"] == "2"
        scales = [key for key in manifest if key.endswith("_preview_scale")]
        assert scales == (["contrast_preview_scale", "dc_preview_scale"] if preview else [])
        for key in scales:
            data = res.contrast_map if key.startswith("contrast") else res.dc_map
            assert manifest[key] == stackio._text_value(65535.0 / float(data.max()))

    def test_mask_channel_exported(self, tmp_path):
        res = analyze_stack(sample_stack(k=4))
        export_maps(res, tmp_path / "m")
        raw = np.fromfile(tmp_path / "m" / "mask.f32", dtype="<f4")
        assert set(np.unique(raw)) <= {0.0, 1.0}

    def test_provenance_manifest(self, tmp_path):
        res = analyze_stack(
            sample_stack(k=8), ExtractionOptions(frequency_mode="estimate")
        )
        export_maps(res, tmp_path / "m")
        manifest = parse_key_values((tmp_path / "m" / "maps.manifest").read_text())
        assert manifest["frequency_mode"] == "estimate"
        assert float(manifest["fringe_frequency"]) == pytest.approx(res.fringe_frequency)
        assert manifest["leakage_flag"] in ("true", "false")

    def test_previews_written_on_request(self, tmp_path):
        res = analyze_stack(sample_stack(k=4))
        export_maps(res, tmp_path / "m", preview=True)
        header = b"P5\n20 16\n65535\n"
        for name, data in (("visibility", res.visibility_map), ("phase", res.phase_map)):
            if name == "visibility":
                scaled = np.clip(data, 0.0, 1.0) * 65535.0
            else:
                scaled = (data + np.pi) / (2.0 * np.pi) * 65535.0
            want = np.clip(np.rint(scaled), 0, 65535).astype(">u2").tobytes()
            assert (tmp_path / "m" / f"{name}.pgm").read_bytes() == header + want
        for name in ("contrast", "dc"):
            assert (tmp_path / "m" / f"{name}.pgm").exists()

    @staticmethod
    def full_frame_result(height=1024, width=1280) -> AnalysisResult:
        """Maps with visibility outside [0, 1], phases on both edges of
        (-pi, pi], and masked pixels."""
        rng = np.random.default_rng(9)
        vis = rng.uniform(-0.2, 1.3, (height, width))
        vis[0, :3] = -0.0, 1.0, 1.0 + 1e-12
        ph = rng.uniform(-np.pi, np.pi, (height, width))
        ph[0, :2] = np.pi, np.nextafter(-np.pi, 0.0)
        mask = rng.uniform(size=(height, width)) > 0.1
        con, dc = rng.uniform(0.0, 900.0, (2, height, width))
        return AnalysisResult(vis, con, ph, dc, mask, 1.0, False, ExtractionOptions())

    def test_previews_equal_whole_map_formulas(self, tmp_path):
        # 3 row chunks per map, the last one short
        res = self.full_frame_result(100, 700)
        export_maps(res, tmp_path / "m", preview=True)
        header = b"P5\n700 100\n65535\n"
        scales = {name: 65535.0 / float(data.max())
                  for name, data in (("contrast", res.contrast_map), ("dc", res.dc_map))}
        for name, scaled in (
            ("visibility", np.clip(res.visibility_map, 0.0, 1.0) * 65535.0),
            ("phase", (res.phase_map + np.pi) / (2.0 * np.pi) * 65535.0),
            ("contrast", res.contrast_map * scales["contrast"]),
            ("dc", res.dc_map * scales["dc"]),
        ):
            want = np.clip(np.rint(scaled), 0, 65535).astype(">u2").tobytes()
            assert (tmp_path / "m" / f"{name}.pgm").read_bytes() == header + want, name

    def test_full_frame_preview_memory_is_one_file_one_map_and_a_band(self, tmp_path):
        # a sensor-sized float64 buffer per preview alone would be 10 MiB
        res = self.full_frame_result()
        tracemalloc.start()
        try:
            export_maps(res, tmp_path / "m", preview=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 1024 * 1280 + 4 * 1024 * 1280 + 1 * 2**20


class TestSceneFiles:
    def test_round_trip(self, tmp_path):
        scene = make_test_target("smooth-wing", (24, 30))
        write_scene(scene, tmp_path / "scene")
        back = read_scene(tmp_path / "scene")
        # float32 storage costs precision; no more than that
        assert np.abs(back.amplitude_map - scene.amplitude_map).max() <= 1e-6
        assert np.abs(back.phase_map - scene.phase_map).max() <= 1e-6
        assert back.scene_pitch_um == pytest.approx(scene.scene_pitch_um)
        manifest = parse_key_values((tmp_path / "scene" / "scene.manifest").read_text())
        assert manifest["format_version"] == "2"
        assert "mode" not in manifest

    @pytest.mark.parametrize("mode", ["transmission", "reflection"])
    def test_version_1_manifest_with_mode_reads(self, tmp_path, mode):
        write_scene(make_test_target("smooth-wing", (6, 7)), tmp_path / "scene")
        want = read_scene(tmp_path / "scene")
        mf = tmp_path / "scene" / "scene.manifest"
        values = parse_key_values(mf.read_text())
        values.update(format_version="1", mode=mode)
        mf.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        back = read_scene(tmp_path / "scene")
        assert back.amplitude_map.tobytes() == want.amplitude_map.tobytes()
        assert back.phase_map.tobytes() == want.phase_map.tobytes()
        assert back.scene_pitch_um == want.scene_pitch_um

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("scene_pitch_um", "wide"),
            ("width", "0"),
            ("height", "-2"),
            ("width", "2.5"),
            ("scene_pitch_um", "-1"),
            ("scene_pitch_um", "inf"),
        ],
    )
    def test_unparsable_pitch_names_file_and_key(self, tmp_path, key, bad):
        write_scene(make_test_target("uniform", (4, 5)), tmp_path / "scene")
        mf = tmp_path / "scene" / "scene.manifest"
        values = parse_key_values(mf.read_text())
        values[key] = bad
        mf.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        # values that parse but that ObjectScene refuses
        message = {
            "-1": "scene_pitch_um must be > 0",
            "inf": "scene_pitch_um must be finite",
        }.get(bad, f"key '{key}'")
        with pytest.raises(StackFormatError, match=f"scene.manifest: {message}"):
            read_scene(tmp_path / "scene")

    @pytest.mark.parametrize("name", ["amplitude.f32", "phase.f32"])
    @pytest.mark.parametrize("damage", ["missing", "short"])
    def test_bad_payload_names_manifest_and_file(self, tmp_path, name, damage):
        write_scene(make_test_target("uniform", (4, 5)), tmp_path / "scene")
        payload = tmp_path / "scene" / name
        if damage == "missing":
            payload.unlink()
        else:
            payload.write_bytes(payload.read_bytes()[:-4])
        with pytest.raises(StackFormatError, match=rf"scene\.manifest: .*{name}"):
            read_scene(tmp_path / "scene")

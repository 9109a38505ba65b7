"""On-disk format tests: PGM stacks, manifests, raw float maps."""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest

from iuptools import (
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
from iuptools import stackio


def sample_stack(k=4, noise=None, w=20, h=16):
    scene = make_test_target("ring-electrode", (h, w))
    cfg = OpticalConfig(sensor_width=w, sensor_height=h)
    plan = ScanPlan.equal_steps(k, cfg.undetected_wavelength_nm)
    return simulate_stack(scene, cfg, plan, noise or NoiseModel())


class TestKeyValueFormat:
    def test_parse_basics(self):
        text = "# comment\n\nwidth = 12\nname = ring target\n"
        got = parse_key_values(text)
        assert got == {"width": "12", "name": "ring target"}

    def test_parse_rejects_garbage(self):
        with pytest.raises(StackFormatError):
            parse_key_values("this line has no equals sign\n")

    def test_read_config_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("mean_counts = 500\nshot_noise = true\n")
        assert read_config_file(p) == {"mean_counts": "500", "shot_noise": "true"}

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

    def test_gain_overflow_is_loud(self, tmp_path):
        stack = sample_stack()
        with pytest.raises(OverflowError):
            write_stack(stack, tmp_path / "s", gain=1e9)

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
        assert not (tmp_path / "over" / "frame_0000.pgm").exists()

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
        assert not (tmp_path / "s" / "stack.manifest").exists()


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
        assert np.array_equal(back.frames, raw / 9.1)
        assert back._counts[0].dtype == np.float64 and back._counts[1] == 1.0

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
        (tmp_path / "s" / "frame_0000.pgm").write_bytes(payload)
        mf = tmp_path / "s" / "stack.manifest"
        values = parse_key_values(mf.read_text())
        digests = values["frame_sha256"].split(",")
        digests[0] = hashlib.sha256(payload).hexdigest()
        values["frame_sha256"] = ",".join(digests)
        mf.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        with pytest.raises(StackFormatError, match=r"frame_0000\.pgm"):
            read_stack(tmp_path / "s")


class TestMapExport:
    def test_map_files_round_trip(self, tmp_path):
        res = analyze_stack(sample_stack(k=8))
        out = tmp_path / "maps"
        export_maps(res, out)
        for name, want in (
            ("visibility", res.visibility_map),
            ("contrast", res.contrast_map),
            ("phase", res.phase_map),
            ("dc", res.dc_map),
        ):
            sidecar = parse_key_values((out / f"{name}.f32.txt").read_text())
            h, w = int(sidecar["height"]), int(sidecar["width"])
            raw = np.fromfile(out / f"{name}.f32", dtype="<f4").reshape(h, w)
            assert np.allclose(raw, want.astype(np.float32))

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
        for name in ("visibility", "contrast", "phase", "dc"):
            assert (tmp_path / "m" / f"{name}.pgm").exists()


class TestSceneFiles:
    def test_round_trip(self, tmp_path):
        scene = make_test_target("smooth-wing", (24, 30))
        write_scene(scene, tmp_path / "scene")
        back = read_scene(tmp_path / "scene")
        # float32 storage costs precision; no more than that
        assert np.abs(back.amplitude_map - scene.amplitude_map).max() <= 1e-6
        assert np.abs(back.phase_map - scene.phase_map).max() <= 1e-6
        assert back.mode == scene.mode
        assert back.scene_pitch_um == pytest.approx(scene.scene_pitch_um)

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("scene_pitch_um", "wide"),
            ("width", "0"),
            ("height", "-2"),
            ("mode", "banana"),
            ("scene_pitch_um", "-1"),
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
            "banana": "mode must be one of",
            "-1": "scene_pitch_um must be > 0",
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

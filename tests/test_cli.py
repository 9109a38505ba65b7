"""Command-line workflow tests, run in-process via cli_main."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from iuptools import parse_key_values, read_stack
from iuptools.cli import cli_main


def run(*argv):
    return cli_main(list(argv))


def dir_bytes(directory):
    """Concatenate every file in a directory, sorted by name."""
    blob = b""
    for p in sorted(directory.iterdir()):
        blob += p.name.encode() + b"\x00" + p.read_bytes() + b"\x00"
    return blob


@pytest.fixture
def scene_dir(tmp_path):
    out = tmp_path / "scene"
    assert run("target", "--kind", "ring-electrode", "--size", "48x60",
               "--out", str(out)) == 0
    return out


@pytest.fixture
def stack_dir(tmp_path, scene_dir):
    out = tmp_path / "stack"
    assert run("simulate", "--scene", str(scene_dir), "--frames", "8",
               "--seed", "21", "--set", "sensor_width=60",
               "--set", "sensor_height=48", "--set", "shot_noise=true",
               "--out", str(out)) == 0
    return out


class TestTarget:
    def test_writes_scene_bundle(self, scene_dir):
        names = {p.name for p in scene_dir.iterdir()}
        assert names == {"scene.manifest", "amplitude.f32", "phase.f32"}

    def test_phase_step_flag(self, tmp_path):
        out = tmp_path / "ps"
        assert run("target", "--kind", "phase-step", "--size", "32",
                   "--step", "0.6", "--out", str(out)) == 0
        raw = np.fromfile(out / "phase.f32", dtype="<f4")
        assert set(np.unique(raw)) == {np.float32(0.0), np.float32(0.6)}

    def test_unknown_kind_fails(self, tmp_path, capsys):
        code = run("target", "--kind", "dragon", "--size", "8",
                   "--out", str(tmp_path / "x"))
        assert code != 0

    def test_bad_size_fails(self, tmp_path):
        assert run("target", "--kind", "uniform", "--size", "12xx9",
                   "--out", str(tmp_path / "x")) == 1


class TestSimulate:
    def test_stack_written_with_metadata(self, stack_dir):
        stack = read_stack(stack_dir)
        assert stack.frame_count == 8
        assert stack.frames.shape == (8, 48, 60)
        assert stack.meta["exposure_ms"] == 200.0

    def test_config_file_and_set_override(self, tmp_path, scene_dir):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "sensor_width = 60\nsensor_height = 48\nmean_counts = 400\n"
        )
        out = tmp_path / "s2"
        assert run("simulate", "--scene", str(scene_dir), "--config", str(cfg),
                   "--frames", "4", "--set", "mean_counts=900",
                   "--out", str(out)) == 0
        stack = read_stack(out)
        # --set wins over the config file; brightest pixels sit near
        # mean_counts * (1 + visibility)
        assert stack.frames.max() > 1000.0

    def test_unknown_setting_fails(self, tmp_path, scene_dir, capsys):
        code = run("simulate", "--scene", str(scene_dir),
                   "--set", "warp_factor=9", "--out", str(tmp_path / "x"))
        assert code == 1
        assert "error" in capsys.readouterr().err.lower()

    def test_set_without_equals_fails(self, tmp_path, scene_dir, capsys):
        code = run("simulate", "--scene", str(scene_dir), "--set", "shot_noise",
                   "--out", str(tmp_path / "x"))
        assert code == 1
        err = capsys.readouterr().err
        assert "--set" in err and "shot_noise" in err

    def test_junk_config_line_names_file_and_line(self, tmp_path, scene_dir, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sensor_width = 60\nthis is junk\n")
        code = run("simulate", "--scene", str(scene_dir), "--config", str(cfg),
                   "--out", str(tmp_path / "x"))
        assert code == 1
        err = capsys.readouterr().err
        assert "bad.cfg" in err and "line 2" in err

    @pytest.mark.parametrize("where", ["config", "set"])
    def test_bad_value_names_source_and_key(self, tmp_path, scene_dir, capsys, where):
        cfg = tmp_path / "bad2.cfg"
        cfg.write_text("sensor_width = 60\nshot_noise = maybe\n")
        source = ["--config", str(cfg)] if where == "config" else ["--set", "shot_noise=maybe"]
        code = run("simulate", "--scene", str(scene_dir), *source,
                   "--out", str(tmp_path / "x"))
        assert code == 1
        err = capsys.readouterr().err
        assert ("bad2.cfg" if where == "config" else "--set") in err
        assert "'shot_noise'" in err and "'maybe'" in err
        assert not (tmp_path / "x").exists()

    def test_non_finite_setting_names_key(self, tmp_path, scene_dir, capsys):
        code = run("simulate", "--scene", str(scene_dir), "--set", "read_noise_sigma=nan",
                   "--seed", "3", "--out", str(tmp_path / "x"))
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:") and "read_noise_sigma" in lines[0]
        assert not (tmp_path / "x").exists()

    def test_every_config_field_settable(self, tmp_path, scene_dir, monkeypatch):
        import iuptools.cli as cli
        from iuptools import NoiseModel, OpticalConfig

        want_config = OpticalConfig(
            pump_wavelength_nm=520.0, detected_wavelength_nm=780.0,
            undetected_wavelength_nm=1560.0, f_u_mm=40.0, f_c_mm=60.0,
            pump_waist_mm=0.8, system_visibility=0.9, coherence_length_mm=0.2,
            path_mismatch_mm=0.01, sensor_width=30, sensor_height=24,
            pixel_pitch_um=4.8, mean_counts=700.0, loss_coupling="intensity",
        )
        want_noise = NoiseModel(shot_noise=True, read_noise_sigma=1.5,
                                dark_offset=3.0, rng_seed=77)
        settings = [f"{key}={value}" for key, value in
                    {**vars(want_config), **vars(want_noise)}.items()]
        assert len(settings) == len(fields(OpticalConfig)) + len(fields(NoiseModel))
        seen = {}
        real_simulate = cli.simulate_stack

        def spy(scene, config, plan, noise):
            seen.update(config=config, noise=noise)
            return real_simulate(scene, config, plan, noise)

        monkeypatch.setattr(cli, "simulate_stack", spy)
        argv = ["simulate", "--scene", str(scene_dir), "--frames", "4"]
        for item in settings:
            argv += ["--set", item]
        assert run(*argv, "--out", str(tmp_path / "s")) == 0
        assert seen == {"config": want_config, "noise": want_noise}

    def test_seeded_runs_are_byte_identical(self, tmp_path, scene_dir):
        args = ("simulate", "--scene", str(scene_dir), "--frames", "4",
                "--seed", "9", "--set", "sensor_width=60",
                "--set", "sensor_height=48", "--set", "shot_noise=true")
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert dir_bytes(a) == dir_bytes(b)
        assert run("simulate", "--scene", str(scene_dir), "--frames", "4",
                   "--seed", "10", "--set", "sensor_width=60",
                   "--set", "sensor_height=48", "--set", "shot_noise=true",
                   "--out", str(c)) == 0
        assert dir_bytes(a) != dir_bytes(c)


class TestAnalyze:
    def test_maps_and_summary(self, tmp_path, stack_dir, capsys):
        out = tmp_path / "maps"
        assert run("analyze", "--stack", str(stack_dir), "--out", str(out)) == 0
        stdout = capsys.readouterr().out
        assert "8 frames" in stdout
        names = {p.name for p in out.iterdir()}
        assert {"visibility.f32", "contrast.f32", "phase.f32", "dc.f32",
                "mask.f32", "maps.manifest"} <= names

    def test_worker_count_does_not_change_output(self, tmp_path, stack_dir):
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"maps{threads}"
            assert run("analyze", "--stack", str(stack_dir),
                       "--threads", threads, "--out", str(out)) == 0
            outs.append(dir_bytes(out))
        assert outs[0] == outs[1]

    def test_frames_used_truncates(self, tmp_path, stack_dir, capsys):
        out = tmp_path / "maps4"
        assert run("analyze", "--stack", str(stack_dir), "--frames-used", "4",
                   "--out", str(out)) == 0
        assert "4 frames" in capsys.readouterr().out

    def test_fixed_frequency_mode(self, tmp_path, stack_dir):
        out = tmp_path / "fixed"
        assert run("analyze", "--stack", str(stack_dir),
                   "--frequency-mode", "fixed", "--frequency", "1.0",
                   "--out", str(out)) == 0
        manifest = parse_key_values((out / "maps.manifest").read_text())
        assert manifest["frequency_mode"] == "fixed"
        assert float(manifest["fixed_frequency"]) == 1.0

    def test_frequency_outside_fixed_mode_fails(self, tmp_path, stack_dir, capsys):
        code = run("analyze", "--stack", str(stack_dir), "--frequency", "1.25",
                   "--out", str(tmp_path / "m"))
        assert code == 1
        assert "fixed_frequency" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_estimate_mode_recorded(self, tmp_path, stack_dir):
        out = tmp_path / "est"
        assert run("analyze", "--stack", str(stack_dir),
                   "--frequency-mode", "estimate",
                   "--out", str(out)) == 0
        manifest = parse_key_values((out / "maps.manifest").read_text())
        assert manifest["frequency_mode"] == "estimate"
        assert float(manifest["fringe_frequency"]) == pytest.approx(1.0, abs=0.05)

    def test_preview_flag(self, tmp_path, stack_dir):
        out = tmp_path / "prev"
        assert run("analyze", "--stack", str(stack_dir), "--preview",
                   "--out", str(out)) == 0
        assert (out / "visibility.pgm").exists()

    def test_missing_stack_fails(self, tmp_path, capsys):
        code = run("analyze", "--stack", str(tmp_path / "ghost"),
                   "--out", str(tmp_path / "m"))
        assert code == 1
        assert "error" in capsys.readouterr().err.lower()

    def test_huge_manifest_geometry_fails_in_one_line(self, tmp_path, stack_dir, capsys):
        mf = stack_dir / "stack.manifest"
        values = parse_key_values(mf.read_text())
        values.update(width="5000000", height="4000000")
        mf.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        code = run("analyze", "--stack", str(stack_dir), "--out", str(tmp_path / "m"))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "manifest says 5000000x4000000" in err[0]

    def test_nan_min_dc_fails(self, tmp_path, stack_dir, capsys):
        code = run("analyze", "--stack", str(stack_dir), "--min-dc", "nan",
                   "--out", str(tmp_path / "m"))
        assert code == 1
        assert "min_dc_threshold" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()


class TestTune:
    def test_single_point_print(self, capsys):
        assert run("tune", "--pump", "532", "--period", "7.40",
                   "--temp", "125") == 0
        out = capsys.readouterr().out
        assert "807.7" in out and "1558.5" in out

    def test_grid_csv(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run("tune", "--periods", "7.4,7.7,8.05", "--temps", "24.5",
                   "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("poling_period_um,")
        assert len(lines) == 4

    def test_range_syntax(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run("tune", "--periods", "7.4:7.6:0.1", "--temps", "25:75:50",
                   "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * 2

    def test_no_match_reported(self, capsys):
        assert run("tune", "--period", "5.0", "--temp", "25") == 0
        assert "no phase matching" in capsys.readouterr().out

    def test_missing_arguments(self, capsys):
        assert run("tune", "--period", "7.4") == 1
        assert run("tune", "--temp", "25") == 1


class TestBench:
    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert run("bench", "--width", "64", "--height", "48",
                   "--frames", "3,4", "--runs", "2", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "K,mean_ms,std_ms,runs,threads,width,height"
        assert len(lines) == 4
        assert lines[-1].startswith("# machine: ")
        k, mean_ms, std_ms, runs, threads, width, height = lines[1].split(",")
        assert (int(k), int(runs), int(threads)) == (3, 2, 1)
        assert (int(width), int(height)) == (64, 48)
        assert float(mean_ms) > 0.0


class TestTopLevel:
    def test_no_command_shows_usage(self, capsys):
        assert run() == 2

    def test_version_flag(self, capsys):
        assert cli_main(["--version"]) == 0
        assert "0.1.0" in capsys.readouterr().out

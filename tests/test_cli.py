"""Command-line workflow tests, run in-process via cli_main."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

import iuptools.cli as cli
from iuptools import fringes, parse_key_values, read_stack, tuning_curve, tuning_table_csv
from iuptools.cli import _parse_value_list, cli_main


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


@pytest.mark.parametrize(
    "argv, option",
    [
        (("target", "--kind", "uniform", "--size", "12x"), "--size"),
        (("target", "--kind", "uniform", "--size", "ax9"), "--size"),
        (("tune", "--periods", "7.4,x", "--temps", "25"), "--periods"),
        (("tune", "--periods", "7.4", "--temps", "20:a:5"), "--temps"),
    ],
    ids=["size-12x", "size-ax9", "periods", "temps"],
)
def test_unparsable_list_or_size_names_option(tmp_path, capsys, argv, option):
    out = ("--out", str(tmp_path / "x")) if argv[0] == "target" else ()
    assert run(*argv, *out) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {option}: ")
    assert not (tmp_path / "x").exists()


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

    @pytest.mark.parametrize("item", ["=5", "#x=1", "", "mean_counts=900\nshot_noise=true"])
    def test_set_item_without_exactly_one_key_fails(self, tmp_path, scene_dir, capsys, item):
        # an empty key, a comment, nothing, or two lines: each --set sets one key
        code = run("simulate", "--scene", str(scene_dir), "--set", item,
                   "--out", str(tmp_path / "x"))
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --set: ")
        assert repr(item) in lines[0]
        assert not (tmp_path / "x").exists()

    def test_last_set_of_a_key_wins(self, tmp_path, scene_dir):
        out = tmp_path / "x"
        assert run("simulate", "--scene", str(scene_dir), "--frames", "4", "--seed", "2",
                   "--set", "mean_counts=5", "--set", " mean_counts = 900 ",
                   "--out", str(out)) == 0
        assert read_stack(out).frames.max() > 1000.0

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

    @pytest.mark.parametrize(
        "settings",
        [["mean_counts=1e308"], ["mean_counts=1e20", "shot_noise=true"]],
        ids=["overflow", "poisson-limit"],
    )
    def test_unrenderable_budget_names_key(self, tmp_path, scene_dir, capsys, settings):
        sets = [arg for item in settings for arg in ("--set", item)]
        code = run("simulate", "--scene", str(scene_dir), *sets, "--out", str(tmp_path / "x"))
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:") and "mean_counts" in lines[0]
        assert not (tmp_path / "x").exists()

    def test_every_config_field_settable(self, tmp_path, scene_dir, monkeypatch):
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
        assert names == {"visibility.f32", "contrast.f32", "phase.f32", "dc.f32",
                         "mask.f32", "maps.manifest"}
        assert parse_key_values((out / "maps.manifest").read_text())["format_version"] == "2"

    def test_cpu_count_does_not_change_output(self, tmp_path, monkeypatch):
        # enough rows for 4 row chunks, so that 4 and 7 CPUs start several workers
        assert len(fringes._row_chunks(300, 400)) >= 4
        scene, stack = tmp_path / "scene", tmp_path / "stack"
        assert run("target", "--kind", "ring-electrode", "--size", "300x400",
                   "--out", str(scene)) == 0
        assert run("simulate", "--scene", str(scene), "--frames", "8", "--seed", "33",
                   "--set", "sensor_width=400", "--set", "sensor_height=300",
                   "--set", "shot_noise=true", "--set", "read_noise_sigma=2.0",
                   "--out", str(stack)) == 0
        # estimate mode fits the frame-mean series that the chunks add up in order
        for mode in ("assume-one-cycle", "estimate"):
            outs = []
            for cpus in (1, 4, 7):
                # the analysis sizes its workers from the CPUs it may run on
                monkeypatch.setattr(fringes, "_usable_cpus", lambda: cpus)
                out = tmp_path / f"{mode}{cpus}"
                assert run("analyze", "--stack", str(stack), "--frequency-mode", mode,
                           "--out", str(out)) == 0
                outs.append(dir_bytes(out))
            assert outs[0] == outs[1] == outs[2]

    def test_threads_is_not_an_option(self, tmp_path, stack_dir, capsys):
        assert run("analyze", "--stack", str(stack_dir), "--threads", "2",
                   "--out", str(tmp_path / "m")) == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_frames_used_is_not_an_option(self, tmp_path, stack_dir, capsys):
        assert run("analyze", "--stack", str(stack_dir), "--frames-used", "4",
                   "--out", str(tmp_path / "m")) == 2
        assert "--frames-used" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

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
        maps = ("visibility", "contrast", "phase", "dc")
        want = {f"{m}.f32" for m in (*maps, "mask")} | {f"{m}.pgm" for m in maps}
        assert {p.name for p in out.iterdir()} == want | {"maps.manifest"}
        manifest = parse_key_values((out / "maps.manifest").read_text())
        scales = [key for key in manifest if key.endswith("_preview_scale")]
        assert scales == ["contrast_preview_scale", "dc_preview_scale"]

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

    def test_a_manifest_that_is_not_utf8_fails_in_one_line(self, tmp_path, stack_dir, capsys):
        mf = stack_dir / "stack.manifest"
        mf.write_bytes(mf.read_bytes() + b"note = \xff\n")
        code = run("analyze", "--stack", str(stack_dir), "--out", str(tmp_path / "m"))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {mf}: not UTF-8 text (")

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

    @pytest.mark.parametrize("temps, count", [("20:200:0.1", 1801), ("20:200:0.3", 601)])
    def test_range_rounding_past_stop_ends_at_stop(self, tmp_path, temps, count):
        # start + n step lands a few ulps above 200 C, outside the dispersion table
        start, stop, step = (float(v) for v in temps.split(":"))
        assert np.arange(start, stop + step / 2.0, step)[-1] > stop
        values = _parse_value_list(temps)
        assert len(values) == count and values[-1] == stop
        assert values[:-1] == np.arange(start, stop + step / 2.0, step)[:-1].tolist()
        out = tmp_path / "grid.csv"
        assert run("tune", "--periods", "7.4", "--temps", temps, "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + count and lines[-1].startswith("7.4000,200.00,")

    def test_range_within_stop_is_unchanged(self, tmp_path):
        # values the old np.arange(start, stop + step / 2, step) kept at or below stop
        old = {}
        for text in ("6.9:8.8:0.1", "20:200:10"):
            start, stop, step = (float(v) for v in text.split(":"))
            old[text] = [float(v) for v in np.arange(start, stop + step / 2.0, step)]
            assert max(old[text]) <= stop
            assert _parse_value_list(text) == old[text]
        out = tmp_path / "grid.csv"
        assert run("tune", "--periods", "6.9:8.8:0.1", "--temps", "20:200:10", "--out", str(out)) == 0
        want = tuning_table_csv(tuning_curve(532.0, old["6.9:8.8:0.1"], old["20:200:10"]))
        assert out.read_text() == want

    def test_no_match_reported(self, capsys):
        assert run("tune", "--period", "5.0", "--temp", "25") == 0
        assert "no phase matching" in capsys.readouterr().out

    @pytest.mark.parametrize("pump", ["nan", "0", "450"])
    def test_pump_outside_the_dispersion_window_fails(self, tmp_path, capsys, pump):
        out = tmp_path / "grid.csv"
        assert run("tune", "--pump", pump, "--periods", "7.4", "--temps", "25",
                   "--out", str(out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "validity window" in err[0]
        assert f"pump {float(pump)} nm" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [("--periods", "inf"), ("--periods", "7.4,inf"),
                                      ("--period", "inf")])
    def test_infinite_period_fails_in_one_line(self, tmp_path, capsys, argv):
        out = tmp_path / "grid.csv"
        assert run("tune", *argv, "--temps", "25", "--out", str(out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: poling_period_um must be finite and > 0"]
        assert not out.exists()

    def test_missing_arguments(self, capsys):
        # a usage error, as for a missing --kind or --stack
        assert run("tune", "--period", "7.4") == 2
        assert "required: --temps/--temp" in capsys.readouterr().err
        assert run("tune", "--temp", "25") == 2
        assert "required: --periods/--period" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, text",
        [("--periods", "7:8:nan"), ("--periods", "7:inf:0.1"), ("--temps", "nan:200:10")],
    )
    def test_non_finite_range_names_option(self, capsys, option, text):
        other = {"--periods": ("--temps", "25"), "--temps": ("--periods", "7.4")}[option]
        assert run("tune", option, text, *other) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert option in err[0] and repr(text) in err[0]

    @pytest.mark.parametrize(
        "argv, shown",
        [
            (("--periods", "7.3:7.8", "--temps", "25"),
             "error: --periods: range must be start:stop:step, got '7.3:7.8'"),
            (("--periods", "7.4", "--temps", "20:200:0"), "error: --temps: range step must be > 0"),
            (("--periods", "7.4", "--temps", "20:200:-10"), "error: --temps: range step must be > 0"),
        ],
    )
    def test_malformed_range_fails_in_one_line(self, tmp_path, capsys, argv, shown):
        out = tmp_path / "grid.csv"
        assert run("tune", *argv, "--out", str(out)) == 1
        assert capsys.readouterr().err.splitlines() == [shown]
        assert not out.exists()

    def test_range_too_large_to_hold_fails_in_one_line(self, tmp_path, capsys):
        # 1.8e15 values, 12.8 PiB: past the address space, so the allocation is
        # refused before any memory is touched
        out = tmp_path / "grid.csv"
        assert run("tune", "--periods", "7.4", "--temps", "20:200:1e-13", "--out", str(out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --temps: Unable to allocate")
        assert not out.exists()


class TestTopLevel:
    def test_no_command_shows_usage(self, capsys):
        assert run() == 2

    def test_version_flag(self, capsys):
        assert cli_main(["--version"]) == 0
        assert "0.1.0" in capsys.readouterr().out

    def test_subcommands_are_the_four_workflow_steps(self, capsys):
        # timing is iuptools.run_bench(...).table(), not a subcommand
        assert run("bench") == 2
        assert run("--help") == 0
        usage = capsys.readouterr().out
        assert "{target,simulate,analyze,tune}" in usage

    @pytest.mark.parametrize("message", [
        "Unable to allocate 1.91 TiB for an array with shape (200000, 1024, 1280) "
        "and data type float64",
        "",
    ])
    @pytest.mark.parametrize("step, argv", [
        ("make_test_target", ["target", "--kind", "uniform", "--size", "100000x100000"]),
        ("simulate_stack", ["simulate", "--frames", "200000"]),
    ])
    def test_memory_error_fails_in_one_line(self, tmp_path, scene_dir, capsys, monkeypatch,
                                            step, argv, message):
        # raised, never allocated: a host that overcommits memory would
        # hand out a real array this size and run out of memory filling it
        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, step, refuse)
        if argv[0] == "simulate":
            argv = [*argv, "--scene", str(scene_dir)]
        assert run(*argv, "--out", str(tmp_path / "x")) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {message or 'MemoryError'}"]
        assert not (tmp_path / "x").exists()

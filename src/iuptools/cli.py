"""Command line front end: target, simulate, analyze, tune and bench."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .bench import run_bench
from .fringes import FREQUENCY_MODES, ExtractionOptions, analyze_stack
from .optics import (
    TARGET_KINDS,
    NoiseModel,
    OpticalConfig,
    ScanPlan,
    make_test_target,
    simulate_stack,
)
from .qpm import tuning_curve, tuning_table_csv
from .stackio import (
    _atomic_write_text,
    export_maps,
    read_config_file,
    read_scene,
    read_stack,
    write_scene,
    write_stack,
)


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


_PARSERS = {float: float, int: int, str: str, bool: _parse_bool}


def _build_optics(settings: dict[str, str], seed: int | None) -> tuple[OpticalConfig, NoiseModel]:
    kwargs: dict[type, dict] = {OpticalConfig: {}, NoiseModel: {}}
    field_types: dict[str, tuple[type, type]] = {}
    for cls in kwargs:
        hints = get_type_hints(cls)
        field_types.update({f.name: (cls, hints[f.name]) for f in fields(cls)})
    for key, value in settings.items():
        if key not in field_types:
            raise ValueError(f"unknown config key {key!r}")
        cls, hint = field_types[key]
        try:
            kwargs[cls][key] = _PARSERS[hint](value)
        except ValueError as err:
            raise ValueError(f"config key {key}: {err}") from None
    if seed is not None:
        kwargs[NoiseModel]["rng_seed"] = seed
    return OpticalConfig(**kwargs[OpticalConfig]), NoiseModel(**kwargs[NoiseModel])


def _load_settings(config_path: str | None, overrides: list[str] | None) -> dict[str, str]:
    settings: dict[str, str] = {}
    if config_path:
        settings.update(read_config_file(config_path))
    for item in overrides or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"--set expects key=value, got {item!r}")
        settings[key.strip()] = value.strip()
    return settings


def _parse_size(text: str) -> tuple[int, int]:
    if "x" in text:
        h, _, w = text.partition("x")
        return int(h), int(w)
    n = int(text)
    return n, n


def _parse_value_list(text: str) -> list[float]:
    """Comma list ("7.4,7.7") or inclusive range ("7.3:7.8:0.1")."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("range step must be > 0")
        return [float(v) for v in np.arange(start, stop + step / 2.0, step)]
    return [float(p) for p in text.split(",") if p != ""]


def _cmd_target(args: argparse.Namespace) -> int:
    params: dict = {"scene_pitch_um": args.pitch}
    if args.step is not None:
        params["step_rad"] = args.step
    scene = make_test_target(args.kind, _parse_size(args.size), **params)
    manifest = write_scene(scene, args.out)
    print(manifest)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    scene = read_scene(args.scene)
    settings = _load_settings(args.config, args.set)
    config, noise = _build_optics(settings, args.seed)
    plan = ScanPlan.equal_steps(args.frames, config.undetected_wavelength_nm, args.exposure)
    stack = simulate_stack(scene, config, plan, noise)
    manifest = write_stack(stack, args.out)
    print(manifest)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    stack = read_stack(args.stack)
    if args.frames_used is not None:
        stack = stack.truncated(args.frames_used)
    options = ExtractionOptions(
        frequency_mode=args.frequency_mode,
        fixed_frequency=args.frequency,
        min_dc_threshold=args.min_dc,
    )
    result = analyze_stack(stack, options, threads=args.threads)
    export_maps(result, args.out, preview=args.preview)
    print(
        f"{args.out}: {stack.frame_count} frames analyzed, fringe frequency "
        f"{result.fringe_frequency:.6g}, leakage "
        f"{'yes' if result.leakage_flag else 'no'}"
    )
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    if args.periods is None and args.period is None:
        raise ValueError("provide --period or --periods")
    if args.temps is None and args.temp is None:
        raise ValueError("provide --temp or --temps")
    periods = _parse_value_list(args.periods) if args.periods else [args.period]
    temps = _parse_value_list(args.temps) if args.temps else [args.temp]
    points = tuning_curve(args.pump, periods, temps)
    if args.out:
        _atomic_write_text(Path(args.out), tuning_table_csv(points))
        print(args.out)
        return 0
    for pt in points:
        if pt.pair is None:
            print(
                f"period {pt.poling_period_um:.4f} um  T {pt.temperature_c:.2f} C  "
                "->  no phase matching"
            )
        else:
            print(
                f"period {pt.poling_period_um:.4f} um  T {pt.temperature_c:.2f} C  "
                f"->  signal {pt.pair.signal_nm:.2f} nm  idler {pt.pair.idler_nm:.2f} nm  "
                f"(residual {pt.pair.residual_mismatch:.2e} /um)"
            )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    frame_counts = [int(v) for v in args.frames.split(",") if v != ""]
    report = run_bench(args.width, args.height, frame_counts, args.runs, threads=args.threads)
    print(report.table())
    if args.out:
        _atomic_write_text(Path(args.out), report.to_csv())
        print(f"csv -> {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iup",
        description="Undetected-photon fringe imaging toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("target", help="generate a parametric test scene")
    p.add_argument("--kind", required=True, choices=TARGET_KINDS)
    p.add_argument("--size", default="256", help="pixels, N or HxW (default 256)")
    p.add_argument("--step", type=float, default=None,
                   help="phase step in radians (phase-step targets)")
    p.add_argument("--pitch", type=float, default=5.2, help="scene pixel pitch in um")
    p.add_argument("--out", required=True, help="output scene directory")
    p.set_defaults(func=_cmd_target)

    p = sub.add_parser("simulate", help="render a fringe-scanned frame stack")
    p.add_argument("--scene", required=True, help="scene directory (from 'target')")
    p.add_argument("--config", default=None, help="key=value optics/noise config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.add_argument("--frames", type=int, default=8, help="frames per scan (default 8)")
    p.add_argument("--exposure", type=float, default=200.0, help="exposure per frame, ms")
    p.add_argument("--seed", type=int, default=None, help="noise seed override")
    p.add_argument("--out", required=True, help="output stack directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="extract visibility/contrast/phase/dc maps")
    p.add_argument("--stack", required=True, help="stack directory or manifest path")
    p.add_argument("--frames-used", type=int, default=None,
                   help="truncate the stack to its first N frames")
    p.add_argument("--frequency-mode", default=ExtractionOptions.frequency_mode,
                   choices=FREQUENCY_MODES)
    p.add_argument("--frequency", type=float, default=None,
                   help="cycles per scan for --frequency-mode fixed")
    p.add_argument("--min-dc", type=float, default=ExtractionOptions.min_dc_threshold,
                   help="mask pixels whose DC falls below this many counts")
    p.add_argument("--threads", type=int, default=1, help="row-parallel workers")
    p.add_argument("--preview", action="store_true", help="also write 16-bit PGM previews")
    p.add_argument("--out", required=True, help="output map directory")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("tune", help="solve phase-matched signal/idler pairs")
    p.add_argument("--pump", type=float, default=532.0, help="pump wavelength, nm")
    p.add_argument("--period", type=float, default=None, help="poling period, um")
    p.add_argument("--periods", default=None,
                   help="poling period grid: comma list or start:stop:step (um)")
    p.add_argument("--temp", type=float, default=None, help="crystal temperature, C")
    p.add_argument("--temps", default=None,
                   help="temperature grid: comma list or start:stop:step (C)")
    p.add_argument("--out", default=None, help="write the grid as CSV here")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("bench", help="time the analysis path against frame count")
    p.add_argument("--width", type=int, default=1280)
    p.add_argument("--height", type=int, default=1024)
    p.add_argument("--frames", default="3,4,8,15", help="comma list of frame counts")
    p.add_argument("--runs", type=int, default=100, help="timed repetitions per K")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", default=None, help="write the report as CSV here")
    p.set_defaults(func=_cmd_bench)
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the process exit code instead of exiting."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (ValueError, RuntimeError, ArithmeticError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()

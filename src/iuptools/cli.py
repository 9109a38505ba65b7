"""Command line front end: target, simulate, analyze and tune."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .fringes import FREQUENCY_MODES, ExtractionOptions, _check_quantities, analyze_stack
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
    _CONVERTERS,
    _atomic_write_text,
    _field,
    _key_values,
    export_maps,
    read_config_file,
    read_scene,
    read_stack,
    write_scene,
    write_stack,
)


def _build_optics(
    settings: dict[str, str], sources: dict[str, str], seed: int | None
) -> tuple[OpticalConfig, NoiseModel]:
    kwargs: dict[type, dict] = {OpticalConfig: {}, NoiseModel: {}}
    field_types = {f.name: (cls, f.type) for cls in kwargs for f in fields(cls)}
    for key in settings:
        if key not in field_types:
            raise ValueError(f"{sources[key]}: unknown config key {key!r}")
        cls, type_name = field_types[key]
        kwargs[cls][key] = _field(settings, key, sources[key], _CONVERTERS[type_name])
    if seed is not None:
        kwargs[NoiseModel]["rng_seed"] = seed
    return OpticalConfig(**kwargs[OpticalConfig]), NoiseModel(**kwargs[NoiseModel])


def _load_settings(
    config_path: str | None, overrides: list[str] | None
) -> tuple[dict[str, str], dict[str, str]]:
    """Config values by key, and the file or --set each one came from; --set wins."""
    settings = read_config_file(config_path) if config_path else {}
    sources = dict.fromkeys(settings, config_path)
    for item in overrides or []:
        # read as config-file text, which must give exactly one key
        parsed = _key_values(item, "--set")
        if len(parsed) != 1:
            raise ValueError(f"--set: expected one 'key = value', got {item!r}")
        ((key, value),) = parsed.items()
        settings[key], sources[key] = value, "--set"
    return settings, sources


def _option_value(option: str, parse, text: str):
    """parse(text) for the value of option; a ValueError, or a MemoryError from a
    range too large to hold, names the option."""
    try:
        return parse(text)
    except (ValueError, MemoryError) as err:
        raise ValueError(f"{option}: {err}") from None


def _parse_size(text: str) -> tuple[int, int]:
    """N or HxW pixels."""
    h, sep, w = text.partition("x")
    return int(h), int(w if sep else h)


def _parse_value_list(text: str) -> list[float]:
    """Comma list ("7.4,7.7") or range ("7.3:7.8:0.1"): start, start + step, ...
    below stop + step / 2, with a value past stop taken as stop, so that a stop
    on the step grid is included."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        message = f"range start, stop and step must be finite, got {text!r}"
        _check_quantities(message=message, start=start, stop=stop, step=step)
        _check_quantities(positive=True, message="range step must be > 0", step=step)
        # start + n step can round past a stop on the grid
        return [float(v) for v in np.minimum(np.arange(start, stop + step / 2.0, step), stop)]
    return [float(p) for p in text.split(",") if p != ""]


def _cmd_target(args: argparse.Namespace) -> int:
    params: dict = {"scene_pitch_um": args.pitch}
    if args.step is not None:
        params["step_rad"] = args.step
    scene = make_test_target(args.kind, _option_value("--size", _parse_size, args.size), **params)
    manifest = write_scene(scene, args.out)
    print(manifest)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    scene = read_scene(args.scene)
    config, noise = _build_optics(*_load_settings(args.config, args.set), args.seed)
    plan = ScanPlan.equal_steps(args.frames, config.undetected_wavelength_nm, args.exposure)
    stack = simulate_stack(scene, config, plan, noise)
    manifest = write_stack(stack, args.out)
    print(manifest)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    stack = read_stack(args.stack)
    options = ExtractionOptions(
        frequency_mode=args.frequency_mode,
        fixed_frequency=args.frequency,
        min_dc_threshold=args.min_dc,
    )
    result = analyze_stack(stack, options)
    export_maps(result, args.out, preview=args.preview)
    print(
        f"{args.out}: {stack.frame_count} frames analyzed, fringe frequency "
        f"{result.fringe_frequency:.6g}, leakage "
        f"{'yes' if result.leakage_flag else 'no'}"
    )
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    periods = _option_value("--periods", _parse_value_list, args.periods)
    temps = _option_value("--temps", _parse_value_list, args.temps)
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
    p.add_argument("--frequency-mode", default=ExtractionOptions.frequency_mode,
                   choices=FREQUENCY_MODES)
    p.add_argument("--frequency", type=float, default=None,
                   help="cycles per scan for --frequency-mode fixed")
    p.add_argument("--min-dc", type=float, default=ExtractionOptions.min_dc_threshold,
                   help="mask pixels whose DC falls below this many counts")
    p.add_argument("--preview", action="store_true", help="also write 16-bit PGM previews")
    p.add_argument("--out", required=True, help="output map directory")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("tune", help="solve phase-matched signal/idler pairs")
    p.add_argument("--pump", type=float, default=532.0, help="pump wavelength, nm")
    p.add_argument("--periods", "--period", dest="periods", required=True,
                   help="poling period(s): value, comma list or start:stop:step (um); "
                   "a range includes stop when stop lies on its step grid")
    p.add_argument("--temps", "--temp", dest="temps", required=True,
                   help="crystal temperature(s): value, comma list or start:stop:step (C); "
                   "a range includes stop when stop lies on its step grid")
    p.add_argument("--out", default=None, help="write the grid as CSV here")
    p.set_defaults(func=_cmd_tune)
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
    except (ValueError, RuntimeError, ArithmeticError, OSError, MemoryError) as err:
        # a bare MemoryError has no message
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()

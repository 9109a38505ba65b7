"""On-disk formats: frame stacks, object scenes and analysis map bundles.

Frames are stored as binary 16-bit PGM (P5, maxval 65535, big-endian samples)
with one linear gain for the whole stack recorded in a line-oriented UTF-8
manifest ("key = value", arrays comma-separated). Maps export as raw
little-endian float32 with a text sidecar per map. Every file is written to a
uniquely named ".partial" path first and moved into place, so interrupted or
concurrent writes never leave a partial final-named file behind.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import uuid
from pathlib import Path

import numpy as np

from . import __version__
from .fringes import AnalysisResult, FrameStack
from .optics import ObjectScene

__all__ = [
    "StackFormatError",
    "StackIntegrityError",
    "UnsupportedVersionError",
    "write_stack",
    "read_stack",
    "export_maps",
    "write_scene",
    "read_scene",
    "parse_key_values",
    "read_config_file",
]

STACK_FORMAT_VERSION = 1
SCENE_FORMAT_VERSION = 1
MAPS_FORMAT_VERSION = 1
STACK_MANIFEST = "stack.manifest"
SCENE_MANIFEST = "scene.manifest"
MAPS_MANIFEST = "maps.manifest"
# optional FrameStack.meta entries carried by the stack manifest
_STACK_META_KEYS = ("pump_nm", "detected_nm", "undetected_nm", "exposure_ms", "pixel_pitch_um")

_PGM_HEADER = re.compile(rb"^P5\s+(\d+)\s+(\d+)\s+(\d+)\s")


class StackFormatError(ValueError):
    """Malformed or inconsistent key/value file or the data it lists.

    Raised for stack and scene manifests, their frame and scene payloads,
    dispersion tables and simulate configs, with the file and key named.
    """


class StackIntegrityError(StackFormatError):
    """Stored checksum does not match the file on disk."""


class UnsupportedVersionError(StackFormatError):
    """File declares a format version newer than this toolkit reads."""


def _atomic_write_bytes(path: Path, payload: bytes | memoryview) -> None:
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.partial")
    handle = open(tmp, "xb")
    try:
        with handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_write_text(path: Path, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))


def parse_key_values(text: str) -> dict[str, str]:
    """Parse "key = value" lines; '#' starts a comment, blank lines ignored.

    A key may appear once; a repeat raises StackFormatError naming its line.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise StackFormatError(
                f"line {lineno}: expected 'key = value', got {line!r}"
            )
        key = key.strip()
        if key in values:
            raise StackFormatError(f"line {lineno}: key {key!r} repeats an earlier line")
        values[key] = value.strip()
    return values


def _key_values(text: str, source: str) -> dict[str, str]:
    """parse_key_values with source at the head of its errors."""
    try:
        return parse_key_values(text)
    except StackFormatError as err:
        raise StackFormatError(f"{source}: {err}") from None


def read_config_file(path: str | Path) -> dict[str, str]:
    return _key_values(Path(path).read_text(encoding="utf-8"), str(path))


def _pgm_bytes(samples: np.ndarray) -> bytes:
    """P5 file of samples, which must hold integers in 0..65535."""
    h, w = samples.shape
    header = f"P5\n{w} {h}\n65535\n".encode("ascii")
    return header + samples.astype(">u2").tobytes()


def _parse_pgm(payload: bytes, source: str) -> np.ndarray:
    match = _PGM_HEADER.match(payload)
    if match is None:
        raise StackFormatError(f"{source}: not a binary P5 PGM file")
    w, h, maxval = (int(match.group(i)) for i in (1, 2, 3))
    if maxval != 65535:
        raise StackFormatError(f"{source}: expected 16-bit maxval 65535, got {maxval}")
    data = payload[match.end() :]
    expected = w * h * 2
    if len(data) != expected:
        raise StackFormatError(f"{source}: expected {expected} sample bytes, got {len(data)}")
    return np.frombuffer(data, dtype=">u2").reshape(h, w)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _usable_gain(gain: float) -> bool:
    """True where every sample 0..65535 scales to a finite count sample / gain."""
    return gain > 0 and math.isfinite(gain) and math.isfinite(65535.0 / float(gain))


def write_stack(stack: FrameStack, directory: str | Path, gain: float | None = None) -> Path:
    """Write K PGM frames plus a manifest; returns the manifest path.

    With gain=None the gain is picked so the largest count maps to 65535.
    An explicit gain that would push any sample past 65535 raises
    OverflowError (counts are stored scaled, never clamped).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    # one frame of counts at a time, so a stack of 16-bit samples is not expanded
    frame = np.empty((stack.height, stack.width))
    max_count = max(float(stack._scaled(i, frame).max()) for i in range(stack.frame_count))
    if gain is None:
        gain = 65535.0 / max_count if max_count > 0 else 1.0
    if not _usable_gain(gain):
        raise ValueError(f"gain must be finite and > 0, with 65535 / gain finite; got {gain!r}")
    # rint(x * gain) is monotone in x, so the largest count gives the largest sample
    max_scaled = float(np.rint(max_count * gain))
    if max_scaled > 65535.0:
        raise OverflowError(
            f"counts scaled by gain {gain:g} exceed the 16-bit range "
            f"(max scaled sample {max_scaled:.0f})"
        )

    names: list[str] = []
    digests: list[str] = []
    scaled = np.empty((stack.height, stack.width))
    for i in range(stack.frame_count):
        name = f"frame_{i:04d}.pgm"
        np.multiply(stack._scaled(i, frame), gain, out=scaled)
        np.rint(scaled, out=scaled)
        payload = _pgm_bytes(scaled)
        _atomic_write_bytes(directory / name, payload)
        names.append(name)
        digests.append(hashlib.sha256(payload).hexdigest())

    lines = [
        f"format_version = {STACK_FORMAT_VERSION}",
        f"width = {stack.width}",
        f"height = {stack.height}",
        f"frame_count = {stack.frame_count}",
        f"gain = {_fmt(gain)}",
        "scan_phases = " + ",".join(_fmt(p) for p in stack.scan_phases),
        "frame_files = " + ",".join(names),
        "frame_sha256 = " + ",".join(digests),
    ]
    for key in _STACK_META_KEYS:
        if key in stack.meta:
            lines.append(f"{key} = {_fmt(stack.meta[key])}")
    manifest = directory / STACK_MANIFEST
    _atomic_write_text(manifest, "\n".join(lines) + "\n")
    return manifest


def _field(values: dict[str, str], key: str, source: str, convert=str):
    """values[key] through convert; StackFormatError naming source and key if absent or bad."""
    if key not in values:
        raise StackFormatError(f"{source}: missing key {key!r}")
    try:
        return convert(values[key])
    except ValueError:
        raise StackFormatError(f"{source}: key {key!r} has invalid value {values[key]!r}") from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise ValueError(f"{value} is not positive")
    return value


def _items(text: str) -> list[str]:
    return [v for v in text.split(",") if v != ""]


def _finite_floats(text: str) -> list[float]:
    values = [float(v) for v in _items(text)]
    if not all(map(math.isfinite, values)):
        raise ValueError("values must be finite")
    return values


def _payload(path: Path, source: str, what: str) -> bytes:
    """Bytes of a file a manifest lists; StackFormatError naming both if absent."""
    if not path.is_file():
        raise StackFormatError(f"{source}: missing {what} file {path.name}")
    return path.read_bytes()


def _read_manifest(
    path: str | Path, filename: str, supported: int
) -> tuple[Path, dict[str, str], str]:
    """Resolve a directory to its manifest, parse it and check format_version.

    Returns the manifest path, its key/value pairs and the path as the source
    name that located errors start with.
    """
    path = Path(path)
    if path.is_dir():
        path = path / filename
    if not path.is_file():
        raise StackFormatError(f"{filename} not found: {path}")
    source = str(path)
    values = _key_values(path.read_text(encoding="utf-8"), source)
    version = _field(values, "format_version", source, int)
    if version > supported:
        raise UnsupportedVersionError(
            f"{source}: format_version {version} is newer than supported ({supported})"
        )
    return path, values, source


def read_stack(manifest_path: str | Path) -> FrameStack:
    """Load a stack written by write_stack, validating geometry and checksums.

    The stack keeps the frames' 16-bit samples and meta["gain"]; its frames
    (samples / gain, float64) are computed on first use (see FrameStack).
    """
    manifest_path, values, source = _read_manifest(
        manifest_path, STACK_MANIFEST, STACK_FORMAT_VERSION
    )
    width = _field(values, "width", source, _positive_int)
    height = _field(values, "height", source, _positive_int)
    frame_count = _field(values, "frame_count", source, _positive_int)
    gain = _field(values, "gain", source, float)
    if not _usable_gain(gain):
        raise StackFormatError(
            f"{source}: gain must be finite and > 0, with 65535 / gain finite; "
            f"got {values['gain']!r}"
        )
    phases = _field(values, "scan_phases", source, _finite_floats)
    names = _field(values, "frame_files", source, _items)
    digests = _field(values, "frame_sha256", source, _items)
    for listed, what in ((names, "frame file(s)"), (digests, "checksum(s)"),
                         (phases, "scan phase(s)")):
        if len(listed) != frame_count:
            raise StackFormatError(
                f"{source}: frame_count is {frame_count} but {len(listed)} {what} listed"
            )
    for name in names:
        if name in (".", "..") or "/" in name or "\\" in name:
            raise StackFormatError(
                f"{source}: frame file {name!r} is not a plain file name in the stack directory"
            )

    for i, (name, digest) in enumerate(zip(names, digests)):
        payload = _payload(manifest_path.parent / name, source, "frame")
        actual = hashlib.sha256(payload).hexdigest()
        if actual != digest:
            raise StackIntegrityError(f"{source}: checksum mismatch for frame {name}")
        frame = _parse_pgm(payload, name)
        if frame.shape != (height, width):
            raise StackFormatError(
                f"{source}: frame {name} is {frame.shape[1]}x{frame.shape[0]}, "
                f"manifest says {width}x{height}"
            )
        if i == 0:  # allocated only once a frame has the manifest's geometry
            samples = np.empty((frame_count, height, width), dtype=np.uint16)
        samples[i] = frame

    meta = {"gain": gain}
    for key in _STACK_META_KEYS:
        if key in values:
            meta[key] = _field(values, key, source, float)
    try:
        return FrameStack._from_samples(samples, gain, np.array(phases), meta)
    except ValueError as err:
        raise StackFormatError(f"{source}: {err}") from None


def _write_f32(path: Path, data: np.ndarray) -> None:
    """Write data as raw little-endian float32, with no copy beyond the cast."""
    _atomic_write_bytes(path, memoryview(np.ascontiguousarray(data, dtype="<f4")))


def _write_raw_map(
    directory: Path, name: str, data: np.ndarray, extra_sidecar: list[str] | None = None
) -> Path:
    raw_path = directory / f"{name}.f32"
    _write_f32(raw_path, data)
    sidecar = [
        f"width = {data.shape[1]}",
        f"height = {data.shape[0]}",
        "dtype = float32-le",
        "scale = 1",
    ]
    if extra_sidecar:
        sidecar.extend(extra_sidecar)
    _atomic_write_text(directory / f"{name}.f32.txt", "\n".join(sidecar) + "\n")
    return raw_path


def export_maps(
    result: AnalysisResult,
    directory: str | Path,
    preview: bool = False,
) -> dict[str, Path]:
    """Write the four analysis maps (plus mask) as raw float32 with sidecars.

    preview=True also writes 16-bit PGM previews: visibility maps 0..1 to
    0..65535 (clipped), phase maps -pi..pi to 0..65535, contrast and dc are
    auto-scaled with the scale recorded in the sidecar.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    maps = {
        "visibility": result.visibility_map,
        "contrast": result.contrast_map,
        "phase": result.phase_map,
        "dc": result.dc_map,
        "mask": result.mask,
    }
    written: dict[str, Path] = {}
    for name, data in maps.items():
        extra: list[str] = []
        if preview and name != "mask":
            # each preview is scaled, rounded and clipped in one float64 buffer
            if name == "visibility":
                scaled = np.clip(data, 0.0, 1.0)
                scaled *= 65535.0
            elif name == "phase":
                scaled = data + np.pi
                scaled /= 2.0 * np.pi
                scaled *= 65535.0
            else:
                peak = float(data.max())
                preview_scale = 65535.0 / peak if peak > 0 else 1.0
                scaled = data * preview_scale
                extra.append(f"preview_scale = {_fmt(preview_scale)}")
            np.rint(scaled, out=scaled)
            preview_u16 = np.clip(scaled, 0, 65535, out=scaled).astype(np.uint16)
            preview_path = directory / f"{name}.pgm"
            _atomic_write_bytes(preview_path, _pgm_bytes(preview_u16))
            written[f"{name}_preview"] = preview_path
        written[name] = _write_raw_map(directory, name, data, extra)

    provenance = [
        f"format_version = {MAPS_FORMAT_VERSION}",
        f"toolkit_version = {__version__}",
        f"width = {result.visibility_map.shape[1]}",
        f"height = {result.visibility_map.shape[0]}",
        f"fringe_frequency = {_fmt(result.fringe_frequency)}",
        f"leakage_flag = {'true' if result.leakage_flag else 'false'}",
        f"masked_pixels = {int((~result.mask).sum())}",
        f"frequency_mode = {result.options.frequency_mode}",
        f"min_dc_threshold = {_fmt(result.options.min_dc_threshold)}",
    ]
    if result.options.fixed_frequency is not None:
        provenance.append(f"fixed_frequency = {_fmt(result.options.fixed_frequency)}")
    manifest = directory / MAPS_MANIFEST
    _atomic_write_text(manifest, "\n".join(provenance) + "\n")
    written["manifest"] = manifest
    return written


def write_scene(scene: ObjectScene, directory: str | Path) -> Path:
    """Persist a scene as raw float32 amplitude/phase plus a manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    h, w = scene.amplitude_map.shape
    _write_f32(directory / "amplitude.f32", scene.amplitude_map)
    _write_f32(directory / "phase.f32", scene.phase_map)
    lines = [
        f"format_version = {SCENE_FORMAT_VERSION}",
        f"width = {w}",
        f"height = {h}",
        f"mode = {scene.mode}",
        f"scene_pitch_um = {_fmt(scene.scene_pitch_um)}",
    ]
    manifest = directory / SCENE_MANIFEST
    _atomic_write_text(manifest, "\n".join(lines) + "\n")
    return manifest


def read_scene(path: str | Path) -> ObjectScene:
    """Load a scene directory (or its manifest path)."""
    path, values, source = _read_manifest(path, SCENE_MANIFEST, SCENE_FORMAT_VERSION)
    width = _field(values, "width", source, _positive_int)
    height = _field(values, "height", source, _positive_int)
    mode = _field(values, "mode", source)
    pitch = _field(values, "scene_pitch_um", source, float)
    shape = (height, width)
    expected = width * height * 4

    def load(name: str) -> np.ndarray:
        payload = _payload(path.parent / name, source, "scene")
        if len(payload) != expected:
            raise StackFormatError(
                f"{source}: {name} holds {len(payload)} bytes, expected {expected}"
            )
        return np.frombuffer(payload, dtype="<f4").reshape(shape).astype(np.float64)

    amplitude, phase = load("amplitude.f32"), load("phase.f32")
    try:
        return ObjectScene(amplitude, phase, mode=mode, scene_pitch_um=pitch)
    except ValueError as err:
        raise StackFormatError(f"{source}: {err}") from None

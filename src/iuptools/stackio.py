"""On-disk formats: frame stacks, object scenes and analysis map bundles.

Frames are stored as binary 16-bit PGM (P5, maxval 65535, big-endian samples)
with one linear gain for the whole stack recorded in a line-oriented UTF-8
manifest ("key = value", arrays comma-separated). Scenes and analysis maps are
raw little-endian float32 images with one manifest each. Every file is written
to a uniquely named ".partial" path first and moved into place, so interrupted
or concurrent writes never leave a partial final-named file behind.

read_stack checks frame 0, then shares the other frames among one worker
thread per CPU the calling thread may run on; each worker reads, hashes and
parses its frames into its own slice of the stack. An error names the first
bad frame in frame order, as a frame-by-frame read would, and the stack is
identical for any worker count.

Key/value text has one reader (parse_key_values, then _field with a converter
from _CONVERTERS) and one writer (_write_key_values, value text by _text_value).
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
from .fringes import AnalysisResult, FrameStack, _check_counts, _check_quantities, _check_reals
from .fringes import _ordered_map, _row_chunks, _usable_cpus
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
SCENE_FORMAT_VERSION = 2
MAPS_FORMAT_VERSION = 2
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


def _text_value(value) -> str:
    """value as key/value text: a bool as true/false, a float to 17 significant
    digits, a list, tuple or array item by item joined by commas, else str()."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (list, tuple, np.ndarray)):
        return ",".join(map(_text_value, value))
    return str(value)


def _write_key_values(path: Path, entries: dict) -> None:
    """Write one "key = value" line per entry, in order, atomically."""
    _atomic_write_text(path, "".join(f"{k} = {_text_value(v)}\n" for k, v in entries.items()))


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
        if not sep or not key:
            raise StackFormatError(
                f"line {lineno}: expected 'key = value', got {line!r}"
            )
        key = key.strip()
        if key in values:
            raise StackFormatError(f"line {lineno}: key {key!r} repeats an earlier line")
        values[key] = value.strip()
    return values


def _key_values(text: str | bytes, source: str) -> dict[str, str]:
    """parse_key_values, of bytes decoded as UTF-8, with source at the head of its errors."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as err:
            raise StackFormatError(
                f"{source}: not UTF-8 text ({err.reason} at byte {err.start})"
            ) from None
    try:
        return parse_key_values(text)
    except StackFormatError as err:
        raise StackFormatError(f"{source}: {err}") from None


def read_config_file(path: str | Path) -> dict[str, str]:
    return _key_values(Path(path).read_bytes(), str(path))


def _pgm_file(height: int, width: int) -> tuple[memoryview, np.ndarray]:
    """A P5 file of the given geometry and a (height, width) view of its
    big-endian samples, which the caller fills with integers in 0..65535.

    The samples start on a 16-byte boundary of the (malloc-aligned) buffer:
    numpy's cast of a full frame's counts to an odd address took about 0.9 ms
    more.
    """
    header = f"P5\n{width} {height}\n65535\n".encode("ascii")
    pad = -len(header) % 16
    buffer = bytearray(pad + len(header) + 2 * height * width)
    buffer[pad : pad + len(header)] = header
    samples = np.frombuffer(buffer, dtype=">u2", offset=pad + len(header))
    return memoryview(buffer)[pad:], samples.reshape(height, width)


def _store_rounded(samples: np.ndarray, band: np.ndarray, rows_of, scale: float) -> None:
    """Fill the (height, width) samples of a _pgm_file one row chunk at a time:
    rows_of(r0, r1, out) returns rows r0..r1-1 of the values, in out (as many
    rows of band) or elsewhere, and each value times scale is rounded to the
    nearest integer, clipped to 0..65535 and stored."""
    for r0, r1 in _row_chunks(*samples.shape):
        out = band[: r1 - r0]
        values = np.multiply(rows_of(r0, r1, out), scale, out=out)
        np.rint(values, out=values)
        samples[r0:r1] = np.clip(values, 0, 65535, out=values)


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


def _usable_gain(gain: float) -> bool:
    """True where every sample 0..65535 scales to a finite count sample / gain.
    65535 / gain must be finite too, which the quantity rule does not ask."""
    return gain > 0 and math.isfinite(gain) and math.isfinite(65535.0 / float(gain))


def write_stack(stack: FrameStack, directory: str | Path, gain: float | None = None) -> Path:
    """Write K PGM frames plus a manifest; returns the manifest path.

    With gain=None the gain is picked so the largest count maps to 65535; a
    largest count below about 3.6e-304, whose 65535 / count overflows, is
    refused. An explicit gain that would push any sample past 65535 raises
    OverflowError (counts are stored scaled, never clamped). The manifest's
    meta values (pump_nm, exposure_ms, ...) must be finite and > 0. A refused
    write makes no directory.
    """
    directory = Path(directory)
    meta = {key: stack.meta[key] for key in _STACK_META_KEYS if key in stack.meta}
    _check_quantities(positive=True, **meta)
    max_count = stack._max_count()
    if gain is None:
        gain = 65535.0 / max_count if max_count > 0 else 1.0
        if not math.isfinite(gain):
            raise ValueError(
                f"largest count {max_count!r} is too small to autoscale: "
                "65535 / count overflows"
            )
    else:
        _check_reals(gain=gain)
    if not _usable_gain(gain):
        raise ValueError(f"gain must be finite and > 0, with 65535 / gain finite; got {gain!r}")
    # rint(x * gain) is monotone in x, so the largest count gives the largest sample
    max_scaled = float(np.rint(max_count * gain))
    if max_scaled > 65535.0:
        raise OverflowError(
            f"counts scaled by gain {gain:g} exceed the 16-bit range "
            f"(max scaled sample {max_scaled:.0f})"
        )
    # made once the gain is accepted, so that a refused write leaves no directory
    directory.mkdir(parents=True, exist_ok=True)

    names: list[str] = []
    digests: list[str] = []
    # one file buffer and one row band of counts, refilled for every frame, so that
    # no frame-sized float64 buffer is made and 16-bit samples are not expanded
    payload, samples = _pgm_file(stack.height, stack.width)
    band = np.empty((_row_chunks(stack.height, stack.width)[0][1], stack.width))
    for i in range(stack.frame_count):
        name = f"frame_{i:04d}.pgm"
        _store_rounded(samples, band, lambda r0, r1, out: stack._scaled(np.s_[i, r0:r1], out), gain)
        _atomic_write_bytes(directory / name, payload)
        names.append(name)
        digests.append(hashlib.sha256(payload).hexdigest())

    entries = {
        "format_version": STACK_FORMAT_VERSION,
        "width": stack.width,
        "height": stack.height,
        "frame_count": stack.frame_count,
        "gain": float(gain),
        "scan_phases": stack.scan_phases,
        "frame_files": names,
        "frame_sha256": digests,
    }
    entries.update((key, float(value)) for key, value in meta.items())
    manifest = directory / STACK_MANIFEST
    _write_key_values(manifest, entries)
    return manifest


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


# _field converters by the type name a dataclass field is annotated with
_CONVERTERS = {"float": float, "int": int, "str": str, "bool": _parse_bool}


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
    _check_counts(low=1, value=value)
    return value


def _quantity(text: str, positive: bool = False) -> float:
    """text as a float that the quantity rule accepts, > 0 where positive."""
    value = float(text)
    _check_quantities(positive=positive, value=value)
    return value


def _items(text: str) -> list[str]:
    return [v for v in text.split(",") if v != ""]


def _finite_floats(text: str) -> list[float]:
    return [_quantity(v) for v in _items(text)]


def _payload(path: Path, source: str, what: str, buffer: memoryview | None = None):
    """Bytes of a file a manifest lists; StackFormatError naming both if absent.

    With a writable buffer, a file shorter than the buffer is read into it and
    returned as a memoryview of its head, valid until the buffer is reused.
    """
    if not path.is_file():
        raise StackFormatError(f"{source}: missing {what} file {path.name}")
    if buffer is None:
        return path.read_bytes()
    with open(path, "rb") as handle:
        size = handle.readinto(buffer)
        if size < len(buffer):
            return buffer[:size]
        return bytes(buffer) + handle.read()


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
    values = _key_values(path.read_bytes(), source)
    version = _field(values, "format_version", source, _positive_int)
    if version > supported:
        raise UnsupportedVersionError(
            f"{source}: format_version {version} is newer than supported ({supported})"
        )
    return path, values, source


def read_stack(manifest_path: str | Path) -> FrameStack:
    """Load a stack written by write_stack, validating geometry and checksums.

    The stack keeps the frames' 16-bit samples and meta["gain"]; its frames,
    float64 samples / gain, are computed on each read and never stored.
    Frame 0 is read and checked first; the other frames are checked on every
    usable CPU (in the calling thread alone where there is one). A frame that
    is missing, fails its checksum or is not a PGM of the manifest's geometry
    raises for the first such frame in frame order, whatever the worker count.
    A meta value (pump_nm, exposure_ms, ...) that is not finite and > 0 is
    refused by key, before any frame is read.
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
    meta = {"gain": gain}
    for key in _STACK_META_KEYS:
        if key in values:
            meta[key] = _field(values, key, source, lambda text: _quantity(text, positive=True))
    for name in names:
        if name in (".", "..") or "/" in name or "\\" in name:
            raise StackFormatError(
                f"{source}: frame file {name!r} is not a plain file name in the stack directory"
            )

    def checked_frame(i: int, payload) -> np.ndarray:
        """Frame i's samples, a view of payload, once its checksum and geometry match."""
        name = names[i]
        if hashlib.sha256(payload).hexdigest() != digests[i]:
            raise StackIntegrityError(f"{source}: checksum mismatch for frame {name}")
        frame = _parse_pgm(payload, f"{source}: frame {name}")
        if frame.shape != (height, width):
            raise StackFormatError(
                f"{source}: frame {name} is {frame.shape[1]}x{frame.shape[0]}, "
                f"manifest says {width}x{height}"
            )
        return frame

    payload = _payload(manifest_path.parent / names[0], source, "frame")
    first = checked_frame(0, payload)
    # allocated only once a frame has the manifest's geometry
    samples = np.empty((frame_count, height, width), dtype=np.uint16)
    samples[0] = first
    # one read buffer per worker, one byte longer than frame 0, made by the
    # calling thread (buffers made by two workers raised the peak RSS of a
    # full-frame K=8 acquisition loop by 4 MiB). A frame is read at an offset
    # that puts samples after frame 0's header on a 16-byte boundary of the
    # (malloc-aligned) buffer: the byte-order copy from an odd address took
    # about 0.5 ms more per full frame
    pad = -(len(payload) - 2 * width * height) % 16
    size = pad + len(payload) + 1
    del payload, first

    def load(i: int, buffer: memoryview) -> None:
        payload = _payload(manifest_path.parent / names[i], source, "frame", buffer)
        samples[i] = checked_frame(i, payload)

    # frames 1.. on every usable CPU; _ordered_map raises the error of the
    # first bad frame in frame order
    frames = range(1, frame_count)
    _ordered_map(load, frames, _usable_cpus(), lambda: memoryview(bytearray(size))[pad:])

    return FrameStack._from_samples(samples, gain, np.array(phases), meta)


def _write_f32(path: Path, data: np.ndarray) -> None:
    """Write data as raw little-endian float32, with no copy beyond the cast."""
    _atomic_write_bytes(path, memoryview(np.ascontiguousarray(data, dtype="<f4")))


def export_maps(
    result: AnalysisResult,
    directory: str | Path,
    preview: bool = False,
) -> dict[str, Path]:
    """Write the four analysis maps (plus mask) as raw float32 and one manifest.

    preview=True also writes 16-bit PGM previews: visibility maps 0..1 to
    0..65535 (clipped), phase maps -pi..pi to 0..65535, contrast and dc are
    auto-scaled, their scales recorded in the manifest as contrast_preview_scale
    and dc_preview_scale. The manifest is written last. Format 1's ".f32.txt"
    sidecars in a reused directory stay: format_version says which files count.
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
    provenance = {
        "format_version": MAPS_FORMAT_VERSION,
        "toolkit_version": __version__,
        "width": result.visibility_map.shape[1],
        "height": result.visibility_map.shape[0],
        "fringe_frequency": float(result.fringe_frequency),
        "leakage_flag": bool(result.leakage_flag),
        "masked_pixels": result.mask.size - np.count_nonzero(result.mask),
        "frequency_mode": result.options.frequency_mode,
        "min_dc_threshold": float(result.options.min_dc_threshold),
    }
    if result.options.fixed_frequency is not None:
        provenance["fixed_frequency"] = float(result.options.fixed_frequency)
    written: dict[str, Path] = {}
    if preview:
        # one file buffer and one row band, refilled for every preview
        height, width = result.mask.shape
        payload, samples = _pgm_file(height, width)
        band = np.empty((_row_chunks(height, width)[0][1], width))
    for name, data in maps.items():
        if preview and name != "mask":
            scale = 65535.0
            if name in ("contrast", "dc"):
                peak = float(data.max())
                scale = 65535.0 / peak if peak > 0 else 1.0
                provenance[f"{name}_preview_scale"] = scale

            # visibility is clipped to 0..1 by the clip to 0..65535 after the scale
            def rows_of(r0: int, r1: int, out: np.ndarray) -> np.ndarray:
                if name != "phase":
                    return data[r0:r1]
                return np.divide(np.add(data[r0:r1], np.pi, out=out), 2.0 * np.pi, out=out)

            _store_rounded(samples, band, rows_of, scale)
            preview_path = directory / f"{name}.pgm"
            _atomic_write_bytes(preview_path, payload)
            written[f"{name}_preview"] = preview_path
        written[name] = directory / f"{name}.f32"
        _write_f32(written[name], data)

    manifest = directory / MAPS_MANIFEST
    _write_key_values(manifest, provenance)
    written["manifest"] = manifest
    return written


def write_scene(scene: ObjectScene, directory: str | Path) -> Path:
    """Persist a scene as raw float32 amplitude/phase plus a manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    h, w = scene.amplitude_map.shape
    _write_f32(directory / "amplitude.f32", scene.amplitude_map)
    _write_f32(directory / "phase.f32", scene.phase_map)
    manifest = directory / SCENE_MANIFEST
    _write_key_values(manifest, {"format_version": SCENE_FORMAT_VERSION, "width": w, "height": h,
                                 "scene_pitch_um": float(scene.scene_pitch_um)})
    return manifest


def read_scene(path: str | Path) -> ObjectScene:
    """Load a scene directory (or its manifest path); a version-1 manifest's mode is ignored."""
    path, values, source = _read_manifest(path, SCENE_MANIFEST, SCENE_FORMAT_VERSION)
    width = _field(values, "width", source, _positive_int)
    height = _field(values, "height", source, _positive_int)
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
        return ObjectScene(amplitude, phase, scene_pitch_um=pitch)
    except ValueError as err:
        raise StackFormatError(f"{source}: {err}") from None

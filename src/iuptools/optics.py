"""Operational model of the undetected-photon imaging interferometer.

Synthetic camera stacks are rendered from a complex object map: the scene is
projected onto the sensor at the wavelength-dependent magnification, blurred
by the Gaussian resolution kernel of the probe arm, and modulated by the
fringe model

    mu = dark + mean_counts * G * (1 + V_sys * E * |t| * cos(scan_phase + arg t))

where G is the illumination envelope and E the coherence envelope for the
configured path mismatch. Object loss couples to the fringe term through the
field amplitude |t| (an "intensity" coupling variant is available behind a
config flag).

The fringe term splits into quadratures, cos(s + arg t) |t| =
cos s Re t - sin s Im t, so three sensor-sized maps are computed once per
call:

    dc = dark + mean_counts * G
    P  = mean_counts * G * V_sys * E * w * Re t
    Q  = mean_counts * G * V_sys * E * w * Im t

with w = 1 for amplitude coupling and w = |t| for intensity coupling. Each
frame is then max(dc + cos s * P - sin s * Q, 0), written straight into the
stack in cache-sized row chunks. Poisson and read noise are optional. They
are still drawn from one counter-based stream keyed by (seed, frame index)
and in row-major order: first every Poisson draw of the frame, then every
read-noise draw, so a frame's noise does not depend on the chunking or on
the other frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy import ndimage

from .fringes import FrameStack, _row_chunks

__all__ = [
    "ObjectScene",
    "OpticalConfig",
    "ScanPlan",
    "NoiseModel",
    "ConfigurationError",
    "fringe_phase_from_mirror",
    "coherence_envelope",
    "psf_width",
    "magnification",
    "effective_complex_map",
    "render_frame",
    "simulate_stack",
    "make_test_target",
]

SCENE_MODES = ("transmission", "reflection")
LOSS_COUPLINGS = ("amplitude", "intensity")
TARGET_KINDS = ("ring-electrode", "smooth-wing", "phase-step", "uniform")


class ConfigurationError(ValueError):
    """Scene and optical geometry cannot be reconciled."""


def _check_finite(settings, error: type[ValueError]) -> None:
    """Raise error naming the first float field of the dataclass settings that is NaN or inf."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        if f.type == "float" and not math.isfinite(value):
            raise error(f"{f.name} must be finite, got {value!r}")


@dataclass
class ObjectScene:
    """Complex object map: field amplitude in [0, 1] plus phase in radians."""

    amplitude_map: np.ndarray
    phase_map: np.ndarray
    mode: str = "transmission"
    scene_pitch_um: float = 5.2

    def __post_init__(self) -> None:
        self.amplitude_map = np.asarray(self.amplitude_map, dtype=np.float64)
        self.phase_map = np.asarray(self.phase_map, dtype=np.float64)
        if self.amplitude_map.ndim != 2 or self.amplitude_map.size == 0:
            raise ValueError("amplitude_map must be a non-empty 2-D array")
        if self.amplitude_map.shape != self.phase_map.shape:
            raise ValueError("amplitude_map and phase_map must have the same shape")
        if not np.isfinite(self.amplitude_map).all() or not np.isfinite(self.phase_map).all():
            raise ValueError("scene maps must be finite")
        amin, amax = float(self.amplitude_map.min()), float(self.amplitude_map.max())
        if amin < 0.0 or amax > 1.0 + 1e-12:
            raise ValueError(f"amplitude values must lie in [0, 1], got [{amin}, {amax}]")
        if self.mode not in SCENE_MODES:
            raise ValueError(f"mode must be one of {SCENE_MODES}")
        if not self.scene_pitch_um > 0:
            raise ValueError("scene_pitch_um must be > 0")

    def complex_map(self) -> np.ndarray:
        return self.amplitude_map * np.exp(1j * self.phase_map)


@dataclass
class OpticalConfig:
    """Interferometer geometry, wavelengths and photon budget.

    Wavelengths must satisfy 1/detected + 1/undetected = 1/pump to 0.1%.
    mean_counts is the expected DC count of a fully lit pixel per frame.
    """

    pump_wavelength_nm: float = 532.0
    detected_wavelength_nm: float = 808.0
    undetected_wavelength_nm: float = 1558.0
    f_u_mm: float = 50.0
    f_c_mm: float = 75.0
    pump_waist_mm: float = 1.0
    system_visibility: float = 1.0
    coherence_length_mm: float = 0.1
    path_mismatch_mm: float = 0.0
    sensor_width: int = 1280
    sensor_height: int = 1024
    pixel_pitch_um: float = 5.2
    mean_counts: float = 1000.0
    loss_coupling: str = "amplitude"

    def __post_init__(self) -> None:
        _check_finite(self, ConfigurationError)
        # every float setting but these two is a wavelength, length or count
        for f in fields(self):
            if f.type == "float" and f.name not in ("system_visibility", "path_mismatch_mm"):
                if not getattr(self, f.name) > 0:
                    raise ConfigurationError(f"{f.name} must be > 0")
        if self.sensor_width < 1 or self.sensor_height < 1:
            raise ConfigurationError("sensor dimensions must be >= 1 pixel")
        if not 0.0 <= self.system_visibility <= 1.0:
            raise ConfigurationError("system_visibility must lie in [0, 1]")
        if self.loss_coupling not in LOSS_COUPLINGS:
            raise ConfigurationError(f"loss_coupling must be one of {LOSS_COUPLINGS}")
        lhs = 1.0 / self.detected_wavelength_nm + 1.0 / self.undetected_wavelength_nm
        rhs = 1.0 / self.pump_wavelength_nm
        if abs(lhs - rhs) > 1e-3 * rhs:
            raise ConfigurationError(
                "wavelengths violate energy conservation: "
                f"1/{self.detected_wavelength_nm} + 1/{self.undetected_wavelength_nm} "
                f"!= 1/{self.pump_wavelength_nm} within 0.1%"
            )


@dataclass
class ScanPlan:
    """Mirror displacements (nm) at which frames are recorded."""

    mirror_positions_nm: np.ndarray
    exposure_ms: float = 200.0

    def __post_init__(self) -> None:
        self.mirror_positions_nm = np.atleast_1d(
            np.asarray(self.mirror_positions_nm, dtype=np.float64)
        )
        if self.mirror_positions_nm.size < 1:
            raise ValueError("a scan needs at least one mirror position")
        if not np.isfinite(self.mirror_positions_nm).all():
            raise ValueError("mirror positions must be finite")
        if not self.exposure_ms > 0:
            raise ValueError("exposure_ms must be > 0")

    @property
    def frame_count(self) -> int:
        return self.mirror_positions_nm.size

    @classmethod
    def equal_steps(
        cls, frame_count: int, idler_wavelength_nm: float, exposure_ms: float = 200.0
    ) -> "ScanPlan":
        """K equal mirror steps spanning one fringe oscillation (endpoint excluded)."""
        if frame_count < 1:
            raise ValueError("frame_count must be >= 1")
        positions = np.arange(frame_count) * (idler_wavelength_nm / (2.0 * frame_count))
        return cls(positions, exposure_ms)


@dataclass
class NoiseModel:
    """Detector noise switches; the default is fully deterministic."""

    shot_noise: bool = False
    read_noise_sigma: float = 0.0
    dark_offset: float = 0.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        _check_finite(self, ValueError)
        # written so that NaN fails too
        if not self.read_noise_sigma >= 0:
            raise ValueError("read_noise_sigma must be >= 0")
        if not self.dark_offset >= 0:
            raise ValueError("dark_offset must be >= 0")
        self.rng_seed = int(self.rng_seed) & (2**64 - 1)


def fringe_phase_from_mirror(
    displacement_nm: float | np.ndarray, idler_wavelength_nm: float
) -> float | np.ndarray:
    """Fringe phase 4 pi d / lambda_u of a displacement d, or of each in an array;
    the mirror path is travelled twice, so the fringe period is half the idler
    wavelength in displacement."""
    if not idler_wavelength_nm > 0:
        raise ValueError("idler_wavelength_nm must be > 0")
    return 4.0 * math.pi * displacement_nm / idler_wavelength_nm


def coherence_envelope(path_mismatch_mm: float, coherence_length_mm: float) -> float:
    """Gaussian interference envelope with FWHM equal to the coherence length."""
    if not coherence_length_mm > 0:
        raise ValueError("coherence_length_mm must be > 0")
    x = path_mismatch_mm / coherence_length_mm
    return math.exp(-4.0 * math.log(2.0) * x * x)


def psf_width(f_u_mm: float, lambda_u_nm: float, pump_waist_mm: float) -> float:
    """Probe-arm resolution f_u * lambda_u / (sqrt(2) pi w_p), in micrometres."""
    if not (f_u_mm > 0 and lambda_u_nm > 0 and pump_waist_mm > 0):
        raise ValueError("psf_width arguments must be > 0")
    return f_u_mm * lambda_u_nm / (math.sqrt(2.0) * math.pi * pump_waist_mm * 1e3)


def magnification(f_c_mm: float, f_u_mm: float, lambda_d_nm: float, lambda_u_nm: float) -> float:
    """Scene-to-sensor magnification (f_c lambda_d) / (f_u lambda_u)."""
    if not (f_c_mm > 0 and f_u_mm > 0 and lambda_d_nm > 0 and lambda_u_nm > 0):
        raise ValueError("magnification arguments must be > 0")
    return (f_c_mm * lambda_d_nm) / (f_u_mm * lambda_u_nm)


def _sensor_coords_um(config: OpticalConfig) -> tuple[np.ndarray, np.ndarray]:
    rows = (np.arange(config.sensor_height) - (config.sensor_height - 1) / 2.0) * config.pixel_pitch_um
    cols = (np.arange(config.sensor_width) - (config.sensor_width - 1) / 2.0) * config.pixel_pitch_um
    return rows, cols


def effective_complex_map(scene: ObjectScene, config: OpticalConfig) -> np.ndarray:
    """Object map as seen by the sensor: magnified, resampled and blurred.

    Sensor pixels that look past the scene edge see clear aperture (t = 1).
    The blur kernel is a Gaussian of 1/e^2 radius psf_width applied on the
    sensor grid to the complex field.
    """
    m = magnification(
        config.f_c_mm,
        config.f_u_mm,
        config.detected_wavelength_nm,
        config.undetected_wavelength_nm,
    )
    rows_um, cols_um = _sensor_coords_um(config)
    sh, sw = scene.amplitude_map.shape
    # sensor pixel (r, c) samples the scene at (row0 + r * step, col0 + c * step)
    step = config.pixel_pitch_um / (m * scene.scene_pitch_um)
    row0 = rows_um[0] / (m * scene.scene_pitch_um) + (sh - 1) / 2.0
    col0 = cols_um[0] / (m * scene.scene_pitch_um) + (sw - 1) / 2.0
    sigma_px = psf_width(
        config.f_u_mm, config.undetected_wavelength_nm, config.pump_waist_mm
    ) / 2.0 / config.pixel_pitch_um
    shape = (config.sensor_height, config.sensor_width)
    # grid-constant blends linearly into the fill value at the boundary;
    # plain constant would snap a coordinate of -1e-15 to the fill value.
    # Each scene-sized product is dropped as soon as it has been resampled.
    parts = []
    for quadrature, fill in ((np.cos, 1.0), (np.sin, 0.0)):
        part = quadrature(scene.phase_map)
        part *= scene.amplitude_map
        part = ndimage.affine_transform(
            part, (step, step), offset=(row0, col0), output_shape=shape,
            order=1, mode="grid-constant", cval=fill,
        )
        parts.append(part)
    t = np.empty(shape, dtype=np.complex128)
    for part, out in zip(parts, (t.real, t.imag)):
        ndimage.gaussian_filter(part, sigma_px, mode="nearest", output=out)
    return t


def _illumination(config: OpticalConfig) -> np.ndarray:
    # Gaussian beam envelope, 1/e^2 radius at 40% of the short sensor axis
    rows_um, cols_um = _sensor_coords_um(config)
    short_um = min(config.sensor_height, config.sensor_width) * config.pixel_pitch_um
    w = 0.4 * short_um
    r2 = rows_um[:, None] ** 2 + cols_um[None, :] ** 2
    return np.exp(-2.0 * r2 / (w * w))


def _fringe_basis(
    scene: ObjectScene, config: OpticalConfig, noise: NoiseModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sensor maps (dc, P, Q) with mu = dc + cos s * P - sin s * Q.

    P and Q are the real and imaginary parts of one complex map.
    """
    pq = effective_complex_map(scene, config)
    if config.loss_coupling == "intensity":
        pq *= np.abs(pq)
    dc = _illumination(config)
    pq *= dc
    envelope = coherence_envelope(config.path_mismatch_mm, config.coherence_length_mm)
    pq *= config.mean_counts * config.system_visibility * envelope
    dc *= config.mean_counts
    dc += noise.dark_offset
    return dc, pq.real, pq.imag


def _render_into(
    out: np.ndarray,
    basis: tuple[np.ndarray, np.ndarray, np.ndarray],
    scan_phase: float,
    noise: NoiseModel,
    frame_index: int,
) -> None:
    """Write the expected (or noise-sampled) counts of one frame into out."""
    dc, p, q = basis
    cos_s, sin_s = math.cos(scan_phase), math.sin(scan_phase)
    chunks = _row_chunks(*out.shape)
    scratch = np.empty((chunks[0][1] - chunks[0][0]) * out.shape[1])
    rng = None
    if noise.shot_noise or noise.read_noise_sigma > 0.0:
        # one counter-based stream per (seed, frame): frames can render in any
        # order, or in parallel, with identical output
        rng = np.random.Generator(
            np.random.Philox(key=np.array([noise.rng_seed, frame_index], dtype=np.uint64))
        )
    for r0, r1 in chunks:
        mu = out[r0:r1]
        tmp = scratch[: mu.size].reshape(mu.shape)
        np.multiply(p[r0:r1], cos_s, out=mu)
        mu += dc[r0:r1]
        np.multiply(q[r0:r1], sin_s, out=tmp)
        mu -= tmp
        np.maximum(mu, 0.0, out=mu)
        if noise.shot_noise:
            mu[...] = rng.poisson(mu)
    if noise.read_noise_sigma > 0.0:
        for r0, r1 in chunks:
            counts = out[r0:r1]
            tmp = scratch[: counts.size].reshape(counts.shape)
            rng.standard_normal(out=tmp)
            tmp *= noise.read_noise_sigma
            counts += tmp
            np.maximum(counts, 0.0, out=counts)


def render_frame(
    scene: ObjectScene,
    config: OpticalConfig,
    scan_phase: float,
    noise: NoiseModel | None = None,
    frame_index: int = 0,
) -> np.ndarray:
    """Expected (or noise-sampled) counts for one frame at one scan phase."""
    noise = noise if noise is not None else NoiseModel()
    frame = np.empty((config.sensor_height, config.sensor_width))
    _render_into(frame, _fringe_basis(scene, config, noise), scan_phase, noise, frame_index)
    return frame


def simulate_stack(
    scene: ObjectScene,
    config: OpticalConfig,
    plan: ScanPlan,
    noise: NoiseModel | None = None,
) -> FrameStack:
    """Render one frame per mirror position and assemble the stack."""
    noise = noise if noise is not None else NoiseModel()
    phases = fringe_phase_from_mirror(plan.mirror_positions_nm, config.undetected_wavelength_nm)
    # the stack is allocated before the basis maps, so that releasing them
    # frees one block instead of leaving holes in the heap under the stack
    # (the reverse order raised the peak RSS of a full-frame acquire, write,
    # read and analyse loop by about 10%)
    frames = np.empty((plan.frame_count, config.sensor_height, config.sensor_width))
    basis = _fringe_basis(scene, config, noise)
    for i, scan_phase in enumerate(phases):
        _render_into(frames[i], basis, float(scan_phase), noise, i)
    del basis
    meta = {
        "pump_nm": config.pump_wavelength_nm,
        "detected_nm": config.detected_wavelength_nm,
        "undetected_nm": config.undetected_wavelength_nm,
        "exposure_ms": plan.exposure_ms,
        "pixel_pitch_um": config.pixel_pitch_um,
    }
    return FrameStack(frames, phases, meta)


def _normalized_grid(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    h, w = shape
    yy = (np.arange(h) - (h - 1) / 2.0) / (min(h, w) / 2.0)
    xx = (np.arange(w) - (w - 1) / 2.0) / (min(h, w) / 2.0)
    return np.meshgrid(yy, xx, indexing="ij")


def make_test_target(kind: str, size, **params) -> ObjectScene:
    """Deterministic parametric scenes for closed-loop testing.

    kind is one of ring-electrode (binary disc and three rings), smooth-wing
    (continuously varying amplitude), phase-step (uniform amplitude, phase
    discontinuity of params['step_rad'], default pi/4) or uniform.
    size is a pixel count (square) or an (height, width) pair.
    """
    if kind not in TARGET_KINDS:
        raise ValueError(f"unknown target kind {kind!r}; expected one of {TARGET_KINDS}")
    if isinstance(size, (int, np.integer)):
        shape = (int(size), int(size))
    else:
        shape = (int(size[0]), int(size[1]))
    if shape[0] < 1 or shape[1] < 1:
        raise ValueError("size must be positive")
    pitch = float(params.pop("scene_pitch_um", 5.2))
    yy, xx = _normalized_grid(shape)

    if kind == "uniform":
        amplitude = np.ones(shape)
        phase = np.zeros(shape)
    elif kind == "ring-electrode":
        r = np.hypot(yy, xx)
        amplitude = np.ones(shape)
        amplitude[r < 0.08] = 0.0
        for i in range(3):
            lo = 0.18 + 0.20 * i
            amplitude[(r >= lo) & (r < lo + 0.08)] = 0.0
        phase = np.zeros(shape)
    elif kind == "smooth-wing":
        # membrane with a soft body and periodic vein shading, amplitudes in (0, 1)
        body = np.exp(-(xx * xx + 2.0 * yy * yy))
        veins = np.cos(4.0 * np.pi * xx) * np.exp(-yy * yy)
        amplitude = 0.2 + 0.6 * body + 0.15 * veins
        phase = 0.3 * np.sin(2.0 * np.pi * xx) * np.exp(-yy * yy)
    else:  # phase-step
        step = float(params.pop("step_rad", math.pi / 4.0))
        amplitude = np.ones(shape)
        phase = np.where(xx >= 0.0, step, 0.0)

    if params:
        raise ValueError(f"unknown target parameter(s): {sorted(params)}")
    return ObjectScene(amplitude, phase, mode="transmission", scene_pitch_um=pitch)

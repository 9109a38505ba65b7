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
cos s Re t - sin s Im t, so every frame is rendered from three sensor-sized
maps:

    dc = dark + mean_counts * G
    P  = mean_counts * G * V_sys * E * w * Re t
    Q  = mean_counts * G * V_sys * E * w * Im t

with w = 1 for amplitude coupling and w = |t| for intensity coupling. P + iQ,
which needs the resampling and blur of effective_complex_map, is kept in a
one-entry cache, read-only: the last one built, under a key of what it is
built from, a sha256 of the scene's two maps, their shape, scene_pitch_um and
every OpticalConfig field. A call with the same key, such as each stack of
an acquisition series of one scene, reuses it, whatever its noise model. An
in-place edit of a scene map, or any other change of key, builds a new map
that replaces it. The entry holds 21 MB at the full 1280x1024 sensor;
hashing a 1344x1680 scene costs about 29 ms on every call. dc is rebuilt
from the illumination, and the peak-count check run, on every call.

Each frame is max(dc + cos s * P - sin s * Q, 0), written straight into the
stack in cache-sized row chunks. Poisson and read noise are optional. They
are still drawn from one counter-based stream keyed by (seed, frame index)
and in row-major order: first every Poisson draw of the frame, then every
read-noise draw, so a frame's noise does not depend on the chunking or on
the other frames.

Every scene-sized or sensor-sized array built here is written straight into
its own map. The smooth-wing target and the illumination are made over the
whole map from 1-D row and column factors; only the smooth-wing body,
exp(-(x^2 + 2 y^2)), is computed per pixel, in the amplitude map. The
ring-electrode target (its radius and masks), the resampling (each chunk
makes the scene rows its taps read) and the blur work in row chunks. A
full-frame smooth-wing target peaks at its two maps and its factors, and
effective_complex_map at its complex map, one sensor-sized part and under
2 MiB of bands. No temporary the size of a map is made and freed, so the
heap does not grow to hold one and keep it resident afterwards.

simulate_stack builds the basis once, then shares the frames among one
worker thread per CPU the calling thread may run on (its affinity set, or
os.cpu_count() where the platform has none), at most one per frame. numpy
releases the GIL in the arithmetic and in the noise draws, so the workers
run at once. A frame is written by one worker, into its own slice of the
stack, from its own noise stream, so the stack's bytes are the same for any
worker count and any order in which the frames finish. With one usable CPU
the frames are rendered in turn and no thread is started.

Settings and arguments are checked by the count and quantity rules in fringes.
"""

from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import dataclass

import numpy as np

from .fringes import FrameStack, _check_counts, _check_fields, _check_quantities, _ordered_map
from .fringes import _row_chunks, _usable_cpus

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

LOSS_COUPLINGS = ("amplitude", "intensity")
TARGET_KINDS = ("ring-electrode", "smooth-wing", "phase-step", "uniform")


class ConfigurationError(ValueError):
    """Scene and optical geometry cannot be reconciled."""


# numpy's Poisson sampler refuses a larger lam
_POISSON_LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10
# a bound on |z| from numpy's normal sampler (see _fringe_basis)
_NORMAL_Z_MAX = 13.0


@dataclass(frozen=True)
class ObjectScene:
    """Complex object map: field amplitude in [0, 1] plus phase in radians."""

    amplitude_map: np.ndarray
    phase_map: np.ndarray
    scene_pitch_um: float = 5.2

    def __post_init__(self) -> None:
        for name in ("amplitude_map", "phase_map"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if self.amplitude_map.ndim != 2 or self.amplitude_map.size == 0:
            raise ValueError("amplitude_map must be a non-empty 2-D array")
        if self.amplitude_map.shape != self.phase_map.shape:
            raise ValueError("amplitude_map and phase_map must have the same shape")
        # one pass of extremes serves the finite check and the [0, 1] range (the rule: two more)
        amin, amax = float(self.amplitude_map.min()), float(self.amplitude_map.max())
        pmin, pmax = float(self.phase_map.min()), float(self.phase_map.max())
        if not all(map(math.isfinite, (amin, amax, pmin, pmax))):
            raise ValueError("scene maps must be finite")
        if amin < 0.0 or amax > 1.0 + 1e-12:
            raise ValueError(f"amplitude values must lie in [0, 1], got [{amin}, {amax}]")
        _check_fields(self, ValueError, positive=("scene_pitch_um",))

    def complex_map(self) -> np.ndarray:
        return self.amplitude_map * np.exp(1j * self.phase_map)


@dataclass(frozen=True)
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
        _check_fields(self, ConfigurationError, positive=(
            "pump_wavelength_nm", "detected_wavelength_nm", "undetected_wavelength_nm", "f_u_mm",
            "f_c_mm", "pump_waist_mm", "coherence_length_mm", "sensor_width", "sensor_height",
            "pixel_pitch_um", "mean_counts",
        ))
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


@dataclass(frozen=True)
class ScanPlan:
    """Mirror displacements (nm) at which frames are recorded."""

    mirror_positions_nm: np.ndarray
    exposure_ms: float = 200.0

    def __post_init__(self) -> None:
        positions = np.atleast_1d(np.asarray(self.mirror_positions_nm, dtype=np.float64))
        object.__setattr__(self, "mirror_positions_nm", positions)
        if self.mirror_positions_nm.size < 1:
            raise ValueError("a scan needs at least one mirror position")
        _check_quantities(mirror_positions_nm=positions)
        _check_fields(self, ValueError, positive=("exposure_ms",))

    @property
    def frame_count(self) -> int:
        return self.mirror_positions_nm.size

    @classmethod
    def equal_steps(
        cls, frame_count: int, idler_wavelength_nm: float, exposure_ms: float = 200.0
    ) -> "ScanPlan":
        """K equal mirror steps spanning one fringe oscillation (endpoint excluded)."""
        _check_counts(low=1, frame_count=frame_count)
        _check_quantities(positive=True, idler_wavelength_nm=idler_wavelength_nm)
        positions = np.arange(frame_count) * (idler_wavelength_nm / (2.0 * frame_count))
        return cls(positions, exposure_ms)


@dataclass(frozen=True)
class NoiseModel:
    """Detector noise switches; the default is fully deterministic."""

    shot_noise: bool = False
    read_noise_sigma: float = 0.0
    dark_offset: float = 0.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        _check_fields(self, ValueError, non_negative=("read_noise_sigma", "dark_offset"))
        object.__setattr__(self, "rng_seed", int(self.rng_seed) & (2**64 - 1))


def fringe_phase_from_mirror(
    displacement_nm: float | np.ndarray, idler_wavelength_nm: float
) -> float | np.ndarray:
    """Fringe phase 4 pi d / lambda_u of a displacement d, or of each in an array;
    the mirror path is travelled twice, so the fringe period is half the idler
    wavelength in displacement."""
    _check_quantities(positive=True, idler_wavelength_nm=idler_wavelength_nm)
    return 4.0 * math.pi * displacement_nm / idler_wavelength_nm


def coherence_envelope(path_mismatch_mm: float, coherence_length_mm: float) -> float:
    """Gaussian interference envelope with FWHM equal to the coherence length."""
    _check_quantities(path_mismatch_mm=path_mismatch_mm)
    _check_quantities(positive=True, coherence_length_mm=coherence_length_mm)
    x = path_mismatch_mm / coherence_length_mm
    return math.exp(-4.0 * math.log(2.0) * x * x)


def psf_width(f_u_mm: float, lambda_u_nm: float, pump_waist_mm: float) -> float:
    """Probe-arm resolution f_u * lambda_u / (sqrt(2) pi w_p), in micrometres."""
    _check_quantities(
        positive=True, f_u_mm=f_u_mm, lambda_u_nm=lambda_u_nm, pump_waist_mm=pump_waist_mm
    )
    return f_u_mm * lambda_u_nm / (math.sqrt(2.0) * math.pi * pump_waist_mm * 1e3)


def magnification(f_c_mm: float, f_u_mm: float, lambda_d_nm: float, lambda_u_nm: float) -> float:
    """Scene-to-sensor magnification (f_c lambda_d) / (f_u lambda_u)."""
    _check_quantities(
        positive=True, f_c_mm=f_c_mm, f_u_mm=f_u_mm, lambda_d_nm=lambda_d_nm, lambda_u_nm=lambda_u_nm
    )
    return (f_c_mm * lambda_d_nm) / (f_u_mm * lambda_u_nm)


def _sensor_coords_um(config: OpticalConfig) -> tuple[np.ndarray, np.ndarray]:
    rows = (np.arange(config.sensor_height) - (config.sensor_height - 1) / 2.0) * config.pixel_pitch_um
    cols = (np.arange(config.sensor_width) - (config.sensor_width - 1) / 2.0) * config.pixel_pitch_um
    return rows, cols


def _linear_taps(count: int, offset: float, step: float, side: int) -> list:
    """The two (taps, weights) pairs of linear resampling along one axis.

    Output index k samples c = (k + offset / step) * step between taps
    floor(c) and floor(c) + 1, weighted w0 = 1 - (c - floor(c)) and
    w1 = 1 - w0. A tap outside [0, side) gets the index side, where the
    caller keeps the fill value.
    """
    c = (np.arange(count) + offset / step) * step
    start = np.floor(c)
    w0 = 1.0 - (c - start)
    # clipped before the cast, so that any coordinate converts
    i0 = np.clip(start, -2, side).astype(np.intp)
    i1 = i0 + 1
    for taps in (i0, i1):
        taps[(taps < 0) | (taps > side)] = side
    return [(i0, w0), (i1, 1.0 - w0)]


def _resample(
    rows_of, shape: tuple[int, int], step: float, origin: tuple[float, float], fill: float,
    out: np.ndarray,
) -> None:
    """Write a part of the given shape, sampled at (origin[0] + r * step,
    origin[1] + c * step), into out. rows_of(lo, hi, dest) writes the part's
    rows lo..hi-1 into dest.

    The arithmetic is scipy.ndimage.affine_transform's with a diagonal matrix,
    order=1 and mode="grid-constant": each value is 0.0 + (v00 wr0) wc0, then
    + (v01 wr0) wc1, + (v10 wr1) wc0 and + (v11 wr1) wc1, in that order, and
    taps outside the part read fill. Row chunks keep every temporary small:
    each chunk makes the part rows its taps read, and no others, into a
    block of its own, so a row that two chunks read is made twice.
    """
    height, width = out.shape
    side = shape[0]
    row_taps = _linear_taps(height, origin[0], step, side)
    col_taps = _linear_taps(width, origin[1], step, shape[1])
    chunks = _row_chunks(height, width)
    n = chunks[0][1] - chunks[0][0]
    # the part row of one row tap times its weight, then a fill column
    line = np.empty((n, shape[1] + 1))
    term = np.empty((n, width))
    for r0, r1 in chunks:
        m = r1 - r0
        # the part rows [lo, hi) that the chunk's taps read; a chunk that
        # reads none makes row 0, which every tap then reads as fill
        taps = np.concatenate([t[r0:r1] for t, _ in row_taps])
        taps = taps[taps < side]
        lo, hi = (int(taps.min()), int(taps.max()) + 1) if taps.size else (0, 1)
        block = np.empty((hi - lo, shape[1]))
        rows_of(lo, hi, block)
        acc = out[r0:r1]
        acc[...] = 0.0
        for taps, weights in row_taps:
            rows = taps[r0:r1]
            np.take(block, rows - lo, axis=0, out=line[:m, :-1], mode="clip")
            line[:m][rows == side] = fill
            line[:m, -1] = fill
            line[:m] *= weights[r0:r1, None]
            for taps, weights in col_taps:
                np.take(line[:m], taps, axis=1, out=term[:m])
                term[:m] *= weights
                acc += term[:m]


def _gaussian_weights(sigma: float) -> np.ndarray:
    """scipy.ndimage's Gaussian weights for truncate=4, centre first: w[j] for |x| = j."""
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    return (phi / phi.sum())[radius:]


def _correlate(
    x: np.ndarray, w: np.ndarray, stride: int, out: np.ndarray, tmp: np.ndarray
) -> None:
    """Symmetric correlation of the flat array x with taps stride apart:
    out[i] = x[i + r s] w[0], then += (x[i + (r - j) s] + x[i + (r + j) s]) w[j]
    for j from r = w.size - 1 down to 1, where s is the stride."""
    r, n = w.size - 1, out.size

    def at(k: int) -> np.ndarray:
        return x[k * stride : k * stride + n]

    np.multiply(at(r), w[0], out=out)
    for j in range(r, 0, -1):
        np.add(at(r - j), at(r + j), out=tmp)
        tmp *= w[j]
        out += tmp


def _blur(image: np.ndarray, sigma: float, out: np.ndarray) -> None:
    """Write image blurred by a Gaussian of standard deviation sigma (pixels) into out.

    The arithmetic is scipy.ndimage.gaussian_filter's with mode="nearest" and
    truncate=4: axis 0, then axis 1, each by _correlate with edge samples
    repeated. A sigma <= 1e-15 leaves the image as it is. Each pass runs on
    one row chunk at a time, as one contiguous 1-D array.
    """
    if not sigma > 1e-15:
        out[...] = image
        return
    w = _gaussian_weights(sigma)
    radius = w.size - 1
    height, width = image.shape
    padded = width + 2 * radius
    chunks = _row_chunks(height, padded)
    n = (chunks[0][1] - chunks[0][0]) * padded
    # a row chunk after the axis-0 pass, its edge columns repeated radius times
    band = np.empty(n)
    acc = np.empty(n)
    tmp = np.empty(n)
    for r0, r1 in chunks:
        m = r1 - r0
        if r0 >= radius and r1 + radius <= height:
            rows = image[r0 - radius : r1 + radius]
        else:
            rows = image[np.clip(np.arange(r0 - radius, r1 + radius), 0, height - 1)]
        # axis 0: in the flattened rows the taps are whole rows apart
        _correlate(rows.reshape(-1), w, width, acc[: m * width], tmp[: m * width])
        b = band[: m * padded].reshape(m, padded)
        b[:, radius : radius + width] = acc[: m * width].reshape(m, width)
        b[:, :radius] = b[:, radius : radius + 1]
        b[:, radius + width :] = b[:, radius + width - 1 : radius + width]
        # axis 1: in the flattened band the taps are neighbours; sums that
        # straddle two rows land in the padding columns and are dropped
        sums = m * padded - 2 * radius
        _correlate(band[: m * padded], w, 1, acc[:sums], tmp[:sums])
        out[r0:r1] = acc[: m * padded].reshape(m, padded)[:, :width]


def effective_complex_map(scene: ObjectScene, config: OpticalConfig) -> np.ndarray:
    """Object map as seen by the sensor: magnified, resampled and blurred.

    Sensor pixels that look past the scene edge see clear aperture (t = 1).
    The blur kernel is a Gaussian of 1/e^2 radius psf_width applied on the
    sensor grid to the complex field.

    The result equals, bit for bit, what scipy.ndimage gives for each
    quadrature: affine_transform with the diagonal matrix (step, step),
    order=1, mode="grid-constant" and cval 1 (real part) or 0 (imaginary
    part), then gaussian_filter with mode="nearest" and truncate=4.
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
    phase_map, amplitude_map = scene.phase_map, scene.amplitude_map
    t = np.empty(shape, dtype=np.complex128)
    # one sensor-sized buffer, resampled and blurred once per quadrature
    resampled = np.empty(shape)
    # Across the scene edge the sensor blends linearly into the fill value.
    for quadrature, fill, out in ((np.cos, 1.0, t.real), (np.sin, 0.0, t.imag)):

        def rows_of(lo: int, hi: int, dest: np.ndarray, quadrature=quadrature) -> None:
            # contiguous, so that the vector loop runs as on the whole map
            quadrature(np.ascontiguousarray(phase_map[lo:hi]), out=dest)
            dest *= amplitude_map[lo:hi]

        _resample(rows_of, (sh, sw), step, (row0, col0), fill, resampled)
        _blur(resampled, sigma_px, out)
    return t


def _illumination(config: OpticalConfig) -> np.ndarray:
    # Gaussian beam envelope, 1/e^2 radius at 40% of the short sensor axis
    rows_um, cols_um = _sensor_coords_um(config)
    short_um = min(config.sensor_height, config.sensor_width) * config.pixel_pitch_um
    w = 0.4 * short_um
    # exp(-2 r^2 / w^2), written in place in the output
    out = np.add.outer(rows_um**2, cols_um**2)
    out *= -2.0
    out /= w * w
    np.exp(out, out=out)
    return out


# The last P + iQ map built and the key of what it was built from: an
# acquisition series renders one scene many times, with a fresh noise seed.
_basis_lock = threading.Lock()
_basis_entry: tuple[tuple, np.ndarray] | None = None


def _basis_key(scene: ObjectScene, config: OpticalConfig) -> tuple:
    """Everything the basis is built from. The scene maps enter by content,
    so an in-place edit changes the key; repr tells -0.0 from 0.0."""
    digest = hashlib.sha256()
    for part in (scene.amplitude_map, scene.phase_map):
        digest.update(np.ascontiguousarray(part))
    return digest.digest(), scene.amplitude_map.shape, repr(scene.scene_pitch_um), repr(config)


def _fringe_basis(
    scene: ObjectScene, config: OpticalConfig, noise: NoiseModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sensor maps (dc, P, Q) with mu = dc + cos s * P - sin s * Q.

    P and Q are the real and imaginary parts of one complex map, which is
    kept, read-only, for the next call with the same key. A peak count
    mean_counts * (1 + V_sys) + dark past the float64 range, or under shot
    noise past numpy's Poisson limit, is refused, and so is a read noise sigma
    with peak + 13 sigma past the float64 range. 13 bounds |z| from numpy's
    ziggurat normal sampler: its tail draw r + x (r = 3.6542) is taken only
    when x^2 < 2 y, where y = -log1p(-u) <= 53 ln 2 for a 53-bit u < 1, so
    |z| < 3.6542 + 8.5717 = 12.226.
    """
    global _basis_entry
    peak = config.mean_counts * (1.0 + config.system_visibility) + noise.dark_offset
    float_max = np.finfo(np.float64).max
    limit = _POISSON_LAM_MAX if noise.shot_noise else float_max
    if not peak <= limit:
        raise ConfigurationError(
            f"mean_counts {config.mean_counts!r} gives a peak count of {peak:g}, past {limit:g}"
        )
    if not peak + _NORMAL_Z_MAX * noise.read_noise_sigma <= float_max:
        raise ConfigurationError(
            f"read_noise_sigma {noise.read_noise_sigma!r} can take a peak count of {peak:g} "
            f"past {float_max:g}"
        )
    key = _basis_key(scene, config)
    with _basis_lock:
        if _basis_entry is not None and _basis_entry[0] != key:
            # released before the new map is built, so two never coexist
            _basis_entry = None
        entry = _basis_entry
    if entry is None:
        pq = effective_complex_map(scene, config)
        if config.loss_coupling == "intensity":
            pq *= np.abs(pq)
        # allocated once the resample and blur have freed their temporaries
        illumination = _illumination(config)
        pq *= illumination
        envelope = coherence_envelope(config.path_mismatch_mm, config.coherence_length_mm)
        pq *= config.mean_counts * config.system_visibility * envelope
        pq.flags.writeable = False
        entry = (key, pq)
        with _basis_lock:
            _basis_entry = entry
    else:
        illumination = _illumination(config)
    pq = entry[1]
    illumination *= config.mean_counts
    illumination += noise.dark_offset
    return illumination, pq.real, pq.imag


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
    """Expected (or noise-sampled) counts for one frame at one scan phase.

    frame_index keys the frame's noise stream, as the frame's position in a
    stack does in simulate_stack.
    """
    _check_quantities(scan_phase=scan_phase)
    _check_counts(low=0, high=2**64 - 1, frame_index=frame_index)
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
    """Render one frame per mirror position and assemble the stack.

    The frames are shared among one worker thread per CPU the calling thread
    may run on, at most one per frame; with one such CPU they are rendered
    in turn, in this thread. Each frame's noise comes from its own stream,
    keyed by (rng_seed, frame index), and each worker writes only the frames
    it renders, so the stack is byte-identical for any worker count.
    """
    noise = noise if noise is not None else NoiseModel()
    with np.errstate(over="ignore"):
        phases = fringe_phase_from_mirror(plan.mirror_positions_nm, config.undetected_wavelength_nm)
    message = "mirror_positions_nm give fringe phases past the float64 range"
    _check_quantities(message=message, phases=phases)
    # the stack is allocated before the basis maps, so that releasing them
    # frees one block instead of leaving holes in the heap under the stack
    # (the reverse order raised the peak RSS of a full-frame acquire, write,
    # read and analyse loop by about 10%)
    frames = np.empty((plan.frame_count, config.sensor_height, config.sensor_width))
    basis = _fringe_basis(scene, config, noise)

    def render(i: int) -> None:
        _render_into(frames[i], basis, float(phases[i]), noise, i)

    _ordered_map(render, range(plan.frame_count), _usable_cpus())
    del basis
    meta = {
        "pump_nm": config.pump_wavelength_nm,
        "detected_nm": config.detected_wavelength_nm,
        "undetected_nm": config.undetected_wavelength_nm,
        "exposure_ms": plan.exposure_ms,
        "pixel_pitch_um": config.pixel_pitch_um,
    }
    return FrameStack(frames, phases, meta)


def make_test_target(kind: str, size, **params) -> ObjectScene:
    """Deterministic parametric scenes for closed-loop testing.

    kind is one of ring-electrode (binary disc and three rings), smooth-wing
    (continuously varying amplitude), phase-step (uniform amplitude, phase
    discontinuity of params['step_rad'], default pi/4) or uniform.
    size is a pixel count (square) or an (height, width) pair.
    """
    if kind not in TARGET_KINDS:
        raise ValueError(f"unknown target kind {kind!r}; expected one of {TARGET_KINDS}")
    message = f"size must be a positive integer or a (height, width) pair of them, got {size!r}"
    try:
        shape = tuple(size)
    except TypeError:
        shape = (size, size)
    if len(shape) != 2:
        raise ValueError(message)
    _check_counts(low=1, message=message, height=shape[0], width=shape[1])
    shape = (int(shape[0]), int(shape[1]))
    pitch = params.pop("scene_pitch_um", 5.2)
    _check_quantities(positive=True, scene_pitch_um=pitch)
    h, w = shape
    # the normalised row and column coordinates
    y = (np.arange(h) - (h - 1) / 2.0) / (min(h, w) / 2.0)
    x = (np.arange(w) - (w - 1) / 2.0) / (min(h, w) / 2.0)
    amplitude = np.ones(shape)
    phase = np.zeros(shape)

    if kind == "ring-electrode":
        # in row bands, so that the radius and its masks stay small
        for r0, r1 in _row_chunks(h, w):
            r = np.hypot(y[r0:r1, None], x)
            band = amplitude[r0:r1]
            band[r < 0.08] = 0.0
            for i in range(3):
                lo = 0.18 + 0.20 * i
                band[(r >= lo) & (r < lo + 0.08)] = 0.0
    elif kind == "smooth-wing":
        # membrane with a soft body and periodic vein shading, amplitudes in (0, 1):
        # body = exp(-(xx*xx + 2*yy*yy)), veins = cos(4 pi xx) exp(-yy*yy),
        # amplitude = 0.2 + 0.6 body + 0.15 veins, phase = 0.3 sin(2 pi xx) exp(-yy*yy);
        # only the body is not a row factor times a column factor
        fade = np.exp(-y * y)
        # 0.15 veins, held in phase until the amplitude has taken it
        np.multiply(np.cos(4.0 * np.pi * x), fade[:, None], out=phase)
        phase *= 0.15
        np.add(x * x, (2.0 * y * y)[:, None], out=amplitude)
        np.negative(amplitude, out=amplitude)
        np.exp(amplitude, out=amplitude)
        amplitude *= 0.6
        amplitude += 0.2
        amplitude += phase
        np.multiply(0.3 * np.sin(2.0 * np.pi * x), fade[:, None], out=phase)
    elif kind == "phase-step":
        step = params.pop("step_rad", math.pi / 4.0)
        _check_quantities(step_rad=step)
        phase[...] = np.where(x >= 0.0, float(step), 0.0)

    if params:
        raise ValueError(f"unknown target parameter(s): {sorted(params)}")
    return ObjectScene(amplitude, phase, scene_pitch_um=float(pitch))

"""Per-pixel fringe extraction for phase-stepped frame stacks.

A stack of K frames recorded across a fringe oscillation is reduced to
visibility, contrast, phase and DC maps by a least-squares fit of every
pixel's intensity series to A + Re[c exp(i 2 pi f k / K)] at one fringe
frequency f (cycles per scan). The fit is a fixed linear map of the series,
the projector built by _projectors, so every frequency mode runs the same
kernel: assume-one-cycle is f = 1, where the fit reproduces the DFT-bin
formulas (A = X0/K, c = 2 X1/K) to rounding error; fixed uses a given f;
estimate takes f from the minimum of the fit residual of the spatial-mean
series, which keeps the fringe energy of off-bin scans out of neighbouring
bins.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FrameStack",
    "ExtractionOptions",
    "AnalysisResult",
    "NyquistError",
    "OptionsError",
    "FrequencyEstimationError",
    "dft_component",
    "single_bin_amplitude",
    "visibility",
    "contrast",
    "phase",
    "estimate_fringe_frequency",
    "analyze_stack",
]

FREQUENCY_MODES = ("assume-one-cycle", "estimate", "fixed")
_EDGE = 0.125  # cycles between the frequency search interval and 0 or K/2


class NyquistError(ValueError):
    """Stack too short (or frequency too high) for unambiguous extraction."""


class OptionsError(ValueError):
    """Invalid or inconsistent extraction options."""


class FrequencyEstimationError(RuntimeError):
    """No fringe peak could be located in the stack."""


@dataclass
class FrameStack:
    """K camera frames plus the fringe drive phase at which each was taken.

    frames is a (K, height, width) float64 array of non-negative counts.
    scan_phases holds the K drive phases in radians; they are acquisition
    metadata and do not change how the stack is analyzed (extraction assumes
    the frame index grid covers the scan uniformly).

    A stack keeps its counts in one of two storages. Built from frames, it
    holds them as given, checked to be finite and non-negative. Read by
    stackio.read_stack, it holds the 16-bit samples of its files and
    meta["gain"], and its counts are samples / gain: analyze_stack and
    estimate_fringe_frequency scale the samples a band at a time, and the
    first read of frames divides them all and drops the samples, so the
    stack never holds both.
    """

    frames: np.ndarray
    scan_phases: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.frames = np.asarray(self.frames, dtype=np.float64)
        self._check_shapes(self.frames.shape)
        # NaN propagates through both reductions and +-inf shows in one of them
        lo, hi = float(self.frames.min()), float(self.frames.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("frame counts must be finite")
        if lo < 0.0:
            raise ValueError("frame counts must be non-negative")

    def _check_shapes(self, shape: tuple[int, ...]) -> None:
        """Check a (K, height, width) stack shape and K finite scan phases."""
        if len(shape) != 3 or shape[0] < 1:
            raise ValueError("frames must be a (K, height, width) array with K >= 1")
        if shape[1] < 1 or shape[2] < 1:
            raise ValueError("frames must have at least one pixel")
        self.scan_phases = np.atleast_1d(np.asarray(self.scan_phases, dtype=np.float64))
        if self.scan_phases.shape != (shape[0],):
            raise ValueError("scan_phases length must equal the frame count")
        if not np.isfinite(self.scan_phases).all():
            raise ValueError("scan phases must be finite")

    @classmethod
    def _from_samples(
        cls, samples: np.ndarray, gain: float, scan_phases, meta: dict
    ) -> "FrameStack":
        """A stack of the counts samples / gain, kept as the uint16 samples.

        Every sample lies in 0..65535, so only shapes are checked; the caller
        ensures that gain > 0 and that 65535 / gain is finite.
        """
        stack = cls.__new__(cls)
        stack._samples, stack._gain = samples, gain
        stack.scan_phases, stack.meta = scan_phases, meta
        stack._check_shapes(samples.shape)
        return stack

    def __getattr__(self, name: str):
        # reached only where normal lookup fails, which for frames means an
        # integer-backed stack before its first read of frames
        samples = self.__dict__.get("_samples") if name == "frames" else None
        if samples is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.frames = np.divide(samples, self._gain, out=np.empty(samples.shape))
        return self.frames

    def __setattr__(self, name: str, value) -> None:
        # frames, given or assigned, replace any samples the stack held
        object.__setattr__(self, name, value)
        if name == "frames":
            object.__setattr__(self, "_samples", None)

    def __repr__(self) -> str:
        # the generated repr would read frames and so expand a uint16 stack
        storage = "float64" if self._samples is None else "uint16"
        return (
            f"FrameStack(shape={self._shape}, storage={storage}, "
            f"scan_phases={self.scan_phases!r}, meta={self.meta!r})"
        )

    def _scaled(self, index, out: np.ndarray) -> np.ndarray:
        """frames[index] as float64; an integer-backed stack divides its
        samples into out, which must have the shape of the selection."""
        samples = self._samples
        if samples is None:
            return self.frames[index]
        return np.divide(samples[index], self._gain, out=out)

    @property
    def _shape(self) -> tuple[int, int, int]:
        samples = self._samples
        return (self.frames if samples is None else samples).shape

    @property
    def frame_count(self) -> int:
        return self._shape[0]

    @property
    def height(self) -> int:
        return self._shape[1]

    @property
    def width(self) -> int:
        return self._shape[2]

    def truncated(self, n: int) -> "FrameStack":
        """Return a stack holding only the first n frames, in the same storage."""
        if not 1 <= n <= self.frame_count:
            raise ValueError(
                f"cannot keep {n} frame(s) of a {self.frame_count}-frame stack"
            )
        phases, meta = self.scan_phases[:n].copy(), dict(self.meta)
        samples = self._samples
        if samples is None:
            return FrameStack(self.frames[:n].copy(), phases, meta)
        return FrameStack._from_samples(samples[:n].copy(), self._gain, phases, meta)


@dataclass
class ExtractionOptions:
    """Controls how the fundamental fringe component is located.

    frequency_mode:
      assume-one-cycle  fit at f = 1 (scan spans one cycle; the DFT bin m=1)
      estimate          locate the fringe frequency from the stack itself
      fixed             extract at fixed_frequency (cycles per scan)
    """

    frequency_mode: str = "assume-one-cycle"
    fixed_frequency: float | None = None
    min_dc_threshold: float = 1e-9

    def __post_init__(self) -> None:
        if self.frequency_mode not in FREQUENCY_MODES:
            raise OptionsError(
                f"unknown frequency_mode {self.frequency_mode!r}; expected one of {FREQUENCY_MODES}"
            )
        if self.frequency_mode == "fixed":
            if self.fixed_frequency is None or not (self.fixed_frequency > 0):
                raise OptionsError("fixed frequency_mode requires fixed_frequency > 0")
        elif self.fixed_frequency is not None:
            raise OptionsError(f"fixed_frequency is for fixed mode, not {self.frequency_mode}")
        # written so that NaN fails too
        if not self.min_dc_threshold >= 0:
            raise OptionsError("min_dc_threshold must be >= 0")


@dataclass
class AnalysisResult:
    """Per-pixel extraction maps plus diagnostics.

    mask is True where the pixel's DC level passed min_dc_threshold; masked
    pixels carry 0.0 in visibility/contrast/phase so downstream arithmetic
    stays finite, and the flag distinguishes them from genuine zeros.
    fringe_frequency is the cycles-per-scan value actually used and
    leakage_flag warns when the frequency estimated from the stack itself
    sits more than 0.05 cycles away from it. options echoes the extraction
    settings for provenance.
    """

    visibility_map: np.ndarray
    contrast_map: np.ndarray
    phase_map: np.ndarray
    dc_map: np.ndarray
    mask: np.ndarray
    fringe_frequency: float
    leakage_flag: bool
    options: "ExtractionOptions"


def dft_component(series, m: int) -> complex:
    """Raw DFT component X_m = sum_k series[k] * exp(-i 2 pi k m / K)."""
    y = np.asarray(series, dtype=np.float64)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("series must be a non-empty 1-D sequence")
    k = y.size
    if not 0 <= m < k:
        raise ValueError(f"harmonic index m={m} outside 0..{k - 1}")
    angles = -2j * np.pi * m * np.arange(k) / k
    return complex(np.sum(y * np.exp(angles)))


def _projectors(k: int, freqs) -> tuple[np.ndarray, np.ndarray]:
    """Fit basis and least-squares projector over k frames at each frequency.

    Returns B, shape (n, 3, k), whose rows sample 1, cos(2 pi f j / k) and
    -sin(2 pi f j / k), and P = (B B^T)^-1 B of the same shape, so that
    P @ y = (A, Re c, Im c) is the fit of y to A + Re[c exp(i 2 pi f j / k)].
    """
    w = (2.0 * np.pi / k) * np.atleast_1d(np.asarray(freqs, dtype=np.float64))
    angles = w[:, None] * np.arange(k)
    basis = np.stack([np.ones_like(angles), np.cos(angles), -np.sin(angles)], axis=1)
    gram = basis @ basis.transpose(0, 2, 1)
    return basis, np.linalg.solve(gram, basis)


def _residuals(y: np.ndarray, freqs) -> np.ndarray:
    """Sum of squared residuals sum (y - B^T P y)^2 of the fit at each frequency."""
    basis, proj = _projectors(y.size, freqs)
    fit = np.einsum("ij,ijk->ik", proj @ y, basis)
    return np.square(y - fit).sum(axis=1)


def single_bin_amplitude(series, f: float) -> complex:
    """Complex fringe amplitude at a (possibly non-integer) frequency.

    Returns c from the least-squares fit of the series to
    A + Re[c exp(i 2 pi f k / K)]. At integer f (with K > 2f) this equals
    (2/K) X_f, so angle(c) is the generating fringe phase.
    """
    y = np.asarray(series, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError("series must be 1-D")
    if y.size < 3:
        raise NyquistError("single-bin fit needs at least 3 samples")
    k = y.size
    if not 0.0 < f < k / 2.0:
        raise NyquistError(f"frequency {f} outside the resolvable interval (0, {k / 2})")
    _, cr, ci = _projectors(k, f)[1][0] @ y
    return complex(cr, ci)


def visibility(F0: float, F1: float) -> float:
    """Fringe visibility 2 F1 / F0 from raw DC and fundamental magnitudes."""
    if not F0 > 0:
        raise ValueError("visibility undefined for F0 <= 0 (pixel should be masked)")
    if F1 < 0:
        raise ValueError("F1 is a magnitude and must be >= 0")
    return 2.0 * F1 / F0


def contrast(F1: float, K: int) -> float:
    """Peak-to-trough fringe swing 4 F1 / K in counts."""
    if K < 3:
        raise ValueError("contrast needs at least 3 frames")
    return 4.0 * F1 / K


def phase(F1: complex) -> float:
    """Fringe phase in (-pi, pi] from the complex fundamental."""
    if F1 == 0:
        raise ValueError("phase undefined for a zero fundamental (pixel should be masked)")
    value = math.atan2(F1.imag, F1.real)
    if value <= -math.pi:
        value += 2.0 * math.pi
    return value


def _estimate_from_series(y: np.ndarray) -> float:
    k = y.size
    # a power-of-two scale is exact, so no square overflows and the estimate
    # does not depend on the count scale; the peak of |y| lands in [1/2, 1).
    # The fit has a constant term, so removing the mean changes no residual.
    y = np.ldexp(y, -math.frexp(float(np.max(np.abs(y))))[1])
    y = y - y.mean()
    if float(np.max(np.abs(y))) <= 1e-12:
        raise FrequencyEstimationError("no fringe peak above the noise floor (constant stack)")
    # global minimum of the single-frequency fit residual on a grid, then
    # parabolic vertex steps at shrinking scales; the residual is locally
    # quadratic, so the last step lands on the minimum to machine precision
    lo, hi = _EDGE, k / 2.0 - _EDGE
    grid = np.linspace(lo, hi, max(256, 64 * k) + 1)
    residuals = _residuals(y, grid)
    i = min(max(int(np.argmin(residuals)), 1), grid.size - 2)
    best, best_res = float(grid[i]), float(residuals[i])
    for h in (float(grid[1] - grid[0]), 1e-3, 1e-5, 1e-8):
        r_lo, r_hi = _residuals(y, [best - h, best + h])
        den = r_lo - 2.0 * best_res + r_hi
        if den > 0.0:
            step = float(np.clip(0.5 * h * (r_lo - r_hi) / den, -h, h))
            cand = min(max(best + step, lo), hi)
            cand_res = float(_residuals(y, cand)[0])
            if cand_res <= best_res:
                best, best_res = cand, cand_res
    return best


def _mean_series(stack: FrameStack) -> np.ndarray:
    """The spatial mean of each frame, frames.mean(axis=(1, 2)).

    An integer-backed stack is scaled one frame at a time into one buffer.
    Each frame's mean reduces the same values in the same order as the
    whole-stack mean, so the series is bit-equal to it, except for a float
    stack whose frame axis has the smallest stride (Fortran order), where
    numpy sums the whole stack in another order.
    """
    frame = np.empty((stack.height, stack.width))
    return np.array([stack._scaled(i, frame).mean() for i in range(stack.frame_count)])


def estimate_fringe_frequency(stack: FrameStack) -> float:
    """Locate the fringe frequency (cycles per scan) of a stack.

    The single-frequency fit residual of the spatial-mean series is scanned
    on an even grid over [1/8, K/2 - 1/8]. From the grid minimum, parabolic
    vertex steps through the residuals at +-h, for h of one grid step, 1e-3,
    1e-5 and 1e-8 cycles, each move the estimate by at most h, stay inside
    that interval and are kept only where the residual does not rise. An
    estimate on an edge of the interval, where the residual still falls, is
    refused with FrequencyEstimationError.
    """
    if stack.frame_count < 4:
        raise OptionsError("frequency estimation needs at least 4 frames")
    estimate = _estimate_from_series(_mean_series(stack))
    if estimate in (_EDGE, stack.frame_count / 2.0 - _EDGE):
        raise FrequencyEstimationError(
            f"the fit residual falls toward the edge of the search interval at {estimate:g} "
            "cycles; no fringe peak inside it"
        )
    return estimate


# pixels per row chunk, so that a chunk's (3, pixels) sums and scratch stay in cache
_CHUNK_PIXELS = 1 << 15


def _row_chunks(height: int, width: int) -> list[tuple[int, int]]:
    rows = max(1, _CHUNK_PIXELS // width)
    return [(r0, min(r0 + rows, height)) for r0 in range(0, height, rows)]


def analyze_stack(
    stack: FrameStack,
    options: ExtractionOptions | None = None,
    threads: int = 1,
) -> AnalysisResult:
    """Extract visibility, contrast, phase and DC maps from a frame stack.

    Every pixel's K-sample series y is reduced to its DC level A and complex
    fringe amplitude c = (P y)[1] + i (P y)[2], with P the least-squares
    projector at the mode's frequency (f = 1 for assume-one-cycle, where this
    equals the DFT-bin formulas A = X0/K and c = 2 X1/K to rounding error).
    Visibility is |c|/A, contrast 2|c| and phase atan2(Im c, Re c). Pixels are
    processed in fixed row chunks, shared among `threads` workers; each
    pixel's sums run over the frames in index order, so results are
    bit-identical for any worker count. An integer-backed stack is divided
    by its gain one chunk at a time, into a chunk-sized buffer per worker.
    """
    opts = options if options is not None else ExtractionOptions()
    k = stack.frame_count
    if k < 3:
        raise NyquistError(
            f"stack has {k} frame(s); extraction needs at least 3 frames per fringe cycle"
        )
    if opts.frequency_mode == "estimate" and k < 4:
        raise OptionsError(
            "frequency_mode=estimate needs at least 4 frames; use assume-one-cycle or fixed"
        )

    if opts.frequency_mode == "fixed":
        f_used = float(opts.fixed_frequency)
        if not 0.0 < f_used < k / 2.0:
            raise NyquistError(
                f"fixed frequency {f_used} outside the resolvable interval (0, {k / 2})"
            )
    elif opts.frequency_mode == "estimate":
        f_used = estimate_fringe_frequency(stack)
    else:
        f_used = 1.0
    # P as (3, K): row j weighs the K frames into sum j
    proj = _projectors(k, f_used)[1][0]

    height, width = stack.height, stack.width
    # masked pixels keep these zeros, since the finish writes only where valid
    vis = np.zeros((height, width))
    con = np.zeros((height, width))
    ph = np.zeros((height, width))
    dc = np.empty((height, width))
    mask = np.empty((height, width), dtype=bool)
    # the threshold is never negative, so a >= floor means a >= threshold and a > 0
    floor = max(float(opts.min_dc_threshold), math.ulp(0.0))
    chunks = _row_chunks(height, width)
    band_rows = chunks[0][1] - chunks[0][0]
    scratch = threading.local()
    # the leakage check fits the spatial-mean series; each chunk's per-frame
    # sums fill one row here while the chunk is in cache
    check_leakage = k >= 4 and opts.frequency_mode != "estimate"
    frame_sums = np.empty((len(chunks), k)) if check_leakage else None

    def extract_rows(index: int) -> None:
        r0, r1 = chunks[index]
        band = getattr(scratch, "band", None)
        if band is None:
            band = scratch.band = np.empty((k, band_rows, width))
        y = stack._scaled(np.s_[:, r0:r1], band[:, : r1 - r0])
        # einsum's loop adds each pixel's K products in frame order, where a
        # BLAS product would neither fix that order nor stay off the workers' CPUs
        a, cr, ci = np.einsum("jk,krw->jrw", proj, y)
        if check_leakage:
            for i in range(k):
                frame_sums[index, i] = y[i].sum()
        valid = np.greater_equal(a, floor, out=mask[r0:r1])
        angles = np.arctan2(ci, cr, out=ph[r0:r1], where=valid)
        # atan2 can round to -pi; phases lie in (-pi, pi]
        np.add(angles, 2.0 * np.pi, out=angles, where=angles <= -np.pi)
        # the complex magnitude rescales where cr**2 + ci**2 would overflow
        c = np.empty(a.shape, dtype=complex)
        c.real, c.imag = cr, ci
        amp = np.abs(c, out=cr)
        np.divide(amp, a, out=vis[r0:r1], where=valid)
        np.multiply(amp, 2.0, out=con[r0:r1], where=valid)
        np.maximum(a, 0.0, out=dc[r0:r1])

    workers = max(1, min(int(threads), len(chunks)))
    if workers == 1:
        for index in range(len(chunks)):
            extract_rows(index)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(extract_rows, range(len(chunks))))

    leakage = False
    if check_leakage:
        try:
            observed = _estimate_from_series(frame_sums.sum(axis=0) / (height * width))
        except FrequencyEstimationError:
            observed = None
        if observed is not None and abs(observed - f_used) > 0.05:
            leakage = True

    return AnalysisResult(
        visibility_map=vis,
        contrast_map=con,
        phase_map=ph,
        dc_map=dc,
        mask=mask,
        fringe_frequency=float(f_used),
        leakage_flag=leakage,
        options=opts,
    )

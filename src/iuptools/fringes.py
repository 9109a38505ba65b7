"""Per-pixel fringe extraction for phase-stepped frame stacks.

A stack of K frames recorded across a fringe oscillation is reduced to
visibility, contrast, phase and DC maps by a least-squares fit of every
pixel's intensity series to A + Re[c exp(i 2 pi f k / K)] at one fringe
frequency f (cycles per scan). The fit is a fixed linear map of the series,
the projector built by _projectors, so every frequency mode runs the same
kernel: assume-one-cycle is f = 1, where the fit reproduces the DFT-bin
formulas (A = X0/K, c = 2 X1/K) to rounding error; fixed uses a given f;
estimate takes f from the minimum of the fit residual of the frame-mean
series, which keeps the fringe energy of off-bin scans out of neighbouring
bins.

Pixels are read in fixed row chunks shared among worker threads, by default
one per CPU the calling thread may run on (_usable_cpus, the rule simulation
and reading use too), at most one per chunk. Samples that need scaling by the
gain are scaled one chunk at a time into a scratch band per worker, and each
chunk's projection sums and complex amplitude go to scratch of the worker's
too; the calling thread makes all of it and hands it out, so none stays
resident in a worker thread's heap arena after the analysis. The frame-mean
series adds each chunk's frame sums in chunk order, so it is the same for any
thread count; estimate mode and the leakage flag both fit it.
The estimator's search grid and its projectors depend on K alone and are kept
for the last few K.

The package's count and quantity arguments are checked by two rules defined
here, each raising the caller's error class and naming the argument: a count
(_check_counts) is an int or numpy integer, never a bool, within given bounds;
a quantity (_check_quantities) is a finite real number, never a bool, > 0 or
>= 0 where asked, and an array of quantities is judged by its least and
greatest value. _check_fields applies them to a settings dataclass by field
type, and _check_reals applies the quantity rule's type half to numbers and
array-likes before they are converted to float. Manifest and table numbers
(stackio's converters) and CLI ranges go through the same two rules.
"""

from __future__ import annotations

import concurrent.futures
import functools
import math
import numbers
import os
from dataclasses import dataclass, field, fields

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


@dataclass(frozen=True, eq=False)
class FrameStack:
    """K camera frames plus the fringe drive phase at which each was taken.

    frames is a (K, height, width) float64 array of non-negative counts.
    scan_phases holds the K drive phases in radians; they are acquisition
    metadata and do not change how the stack is analyzed (extraction assumes
    the frame index grid covers the scan uniformly).

    The counts are held, for the stack's life, as the (samples, gain) pair it
    was made with, counts = samples / gain. Frames, given and checked, become
    C-ordered float64 samples at gain 1, copied once from any other layout or
    dtype, and reading frames returns those samples. stackio.read_stack keeps
    its files' 16-bit samples and the manifest gain; frames of such a stack are
    computed on each read, a new samples / gain array, and never stored. A
    stack is frozen: dataclasses.replace makes a new, checked one, of float64
    samples, and leaves the original untouched. It compares equal only to itself.
    """

    frames: np.ndarray
    scan_phases: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # frames leave the instance dict, so that every read of them goes to __getattr__
        samples = np.ascontiguousarray(self.__dict__.pop("frames"), dtype=np.float64)
        object.__setattr__(self, "_counts", (samples, 1.0))
        if samples.ndim != 3 or len(samples) < 1:
            raise ValueError("frames must be a (K, height, width) array with K >= 1")
        if samples.size == 0:
            raise ValueError("frames must have at least one pixel")
        phases = np.atleast_1d(np.asarray(self.scan_phases, dtype=np.float64))
        object.__setattr__(self, "scan_phases", phases)
        if phases.shape != (len(samples),):
            raise ValueError("scan_phases length must equal the frame count")
        _check_quantities(message="scan phases must be finite", scan_phases=phases)
        message = "frame counts must be finite and non-negative"
        _check_quantities(non_negative=True, message=message, frames=samples)

    @classmethod
    def _from_samples(
        cls, samples: np.ndarray, gain: float, scan_phases: np.ndarray, meta: dict
    ) -> "FrameStack":
        """A stack of the counts samples / gain, unchecked: the caller ensures a
        (K, height, width) shape with K >= 1 and a pixel, K finite float64 scan
        phases, and counts that are finite and non-negative."""
        stack = cls.__new__(cls)
        stack.__dict__.update(_counts=(samples, gain), scan_phases=scan_phases, meta=meta)
        return stack

    def __getattr__(self, name: str):
        # normal lookup never finds frames: the counts live in _counts
        if name != "frames":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return self._scaled()

    def __repr__(self) -> str:
        # the generated repr would read frames, which scales a uint16 stack into a new array
        samples, gain = self._counts
        return (
            f"FrameStack(shape={samples.shape}, samples={samples.dtype}, gain={gain!r}, "
            f"scan_phases={self.scan_phases!r}, meta={self.meta!r})"
        )

    def _scaled(self, index=None, out: np.ndarray | None = None) -> np.ndarray:
        """frames[index] (all frames where index is None) as float64: float64
        samples at gain 1 are the counts, returned as they are or as a view;
        other samples are divided by the gain into out, of the selection's
        shape, or into a new array where out is None."""
        samples, gain = self._counts
        selected = samples if index is None else samples[index]
        if samples.dtype == np.float64 and gain == 1.0:
            return selected
        return np.divide(selected, gain, out=out)

    def _max_count(self) -> float:
        """The largest count: rounded division by a gain > 0 keeps the samples' order."""
        samples, gain = self._counts
        return float(samples.max()) / gain

    @property
    def frame_count(self) -> int:
        return self._counts[0].shape[0]

    @property
    def height(self) -> int:
        return self._counts[0].shape[1]

    @property
    def width(self) -> int:
        return self._counts[0].shape[2]

    def truncated(self, n: int) -> "FrameStack":
        """Return a stack holding only the first n frames, in the same storage."""
        k = self.frame_count
        message = f"cannot keep n={n!r} frame(s) of a {k}-frame stack"
        _check_counts(low=1, high=k, message=message, n=n)
        samples, gain = self._counts
        phases, meta = self.scan_phases[:n].copy(), dict(self.meta)
        return FrameStack._from_samples(samples[:n].copy(), gain, phases, meta)


@dataclass(frozen=True)
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
            _check_quantities(OptionsError, positive=True, fixed_frequency=self.fixed_frequency)
        elif self.fixed_frequency is not None:
            raise OptionsError(f"fixed_frequency is for fixed mode, not {self.frequency_mode}")
        _check_quantities(OptionsError, non_negative=True, min_dc_threshold=self.min_dc_threshold)


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
    _check_counts(low=0, high=k - 1, m=m)
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


def _residuals(y: np.ndarray, basis: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """Sum of squared residuals sum (y - B^T P y)^2 of the fit at each frequency
    of _projectors' basis B and projector P."""
    fit = np.einsum("ij,ijk->ik", proj @ y, basis)
    return np.square(y - fit).sum(axis=1)


@functools.lru_cache(maxsize=8)
def _grid_projectors(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The frequency estimator's search grid over k frames and its _projectors,
    read-only. The grid depends on k alone, so each k's solve is kept (for the
    last 8 k; 0.7 MB at k = 15) instead of being repeated on every estimate."""
    grid = np.linspace(_EDGE, k / 2.0 - _EDGE, max(256, 64 * k) + 1)
    basis, proj = _projectors(k, grid)
    for array in (grid, basis, proj):
        array.flags.writeable = False
    return grid, basis, proj


def single_bin_amplitude(series, f: float) -> complex:
    """Complex fringe amplitude at a (possibly non-integer) frequency.

    Returns c from the least-squares fit of the series to
    A + Re[c exp(i 2 pi f k / K)]. At integer f (with K > 2f) this equals
    (2/K) X_f, so angle(c) is the generating fringe phase.
    """
    _check_quantities(f=f)
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
    _check_quantities(F0=F0)
    if not F0 > 0:
        raise ValueError("visibility undefined for F0 <= 0 (pixel should be masked)")
    _check_quantities(non_negative=True, F1=F1)
    return 2.0 * F1 / F0


def contrast(F1: float, K: int) -> float:
    """Peak-to-trough fringe swing 4 F1 / K in counts."""
    _check_quantities(non_negative=True, F1=F1)
    _check_counts(low=3, K=K)
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
    grid, basis, proj = _grid_projectors(k)
    residuals = _residuals(y, basis, proj)
    i = min(max(int(np.argmin(residuals)), 1), grid.size - 2)
    best, best_res = float(grid[i]), float(residuals[i])
    for h in (float(grid[1] - grid[0]), 1e-3, 1e-5, 1e-8):
        r_lo, r_hi = _residuals(y, *_projectors(k, [best - h, best + h]))
        den = r_lo - 2.0 * best_res + r_hi
        if den > 0.0:
            step = float(np.clip(0.5 * h * (r_lo - r_hi) / den, -h, h))
            cand = min(max(best + step, lo), hi)
            cand_res = float(_residuals(y, *_projectors(k, cand))[0])
            if cand_res <= best_res:
                best, best_res = cand, cand_res
    return best


# pixels per row chunk, so that a chunk's (3, pixels) sums and scratch stay in cache
_CHUNK_PIXELS = 1 << 15


def _row_chunks(height: int, width: int) -> list[tuple[int, int]]:
    rows = max(1, _CHUNK_PIXELS // width)
    return [(r0, min(r0 + rows, height)) for r0 in range(0, height, rows)]


def _check_counts(error=ValueError, /, *, low=None, high=None, message=None, **counts) -> None:
    """The count rule: each of counts is an int or numpy integer, never a bool, in
    low..high where given (high only with low); else error names the first that
    is not, in keyword order, or says message."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not (
            (low is None or low <= value) and (high is None or value <= high)
        ):
            bounds = "" if low is None else f" >= {low}" if high is None else f" in {low}..{high}"
            raise error(message or f"{name} must be an integer{bounds}, got {value!r}")


def _check_quantities(
    error=ValueError, /, *, positive=False, non_negative=False, message=None, **quantities
) -> None:
    """The quantity rule: each of quantities is a finite real number, never a bool,
    > 0 where positive and >= 0 where non_negative; else error names the first
    that is not, in keyword order, or says message. An ndarray (an empty one passes)
    is judged by its least and greatest value: NaN shows in both and +-inf in one."""
    for name, quantity in quantities.items():
        extremes = (quantity,)
        if isinstance(quantity, np.ndarray):
            extremes = (quantity.min().item(), quantity.max().item()) if quantity.size else ()
        for value in extremes:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise error(message or f"{name} must be a real number, got {value!r}")
            # written so that NaN fails too
            if not -math.inf < value < math.inf:
                raise error(message or f"{name} must be finite, got {value!r}")
            if (positive and not value > 0) or (non_negative and not value >= 0):
                raise error(message or f"{name} must be {'>' if positive else '>='} 0, got {value!r}")


def _check_reals(**values) -> None:
    """The quantity rule's type half for numbers and array-likes of them: raise
    ValueError naming the first of values that is, or holds, a bool or no real
    number, by its index in an array. Whether a number is finite and in range is
    left to the caller's checks."""
    for name, value in values.items():
        if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
            continue
        cells = np.asarray(value, dtype=object)
        # one test per type held, then a search for the first value of a refused type
        types = set(map(type, cells.flat))
        refused = {k for k in types if issubclass(k, bool) or not issubclass(k, numbers.Real)}
        if refused:
            at, v = next((at, v) for at, v in np.ndenumerate(cells) if type(v) in refused)
            raise ValueError(f"{name}{list(at) if at else ''} must be a real number, got {v!r}")


def _check_fields(settings, error: type[ValueError], positive=(), non_negative=()) -> None:
    """Raise error naming the first field of the dataclass settings, in field
    order, that breaks the count rule (an int field) or the quantity rule (a
    float field), with > 0 (an int >= 1) where named in positive and >= 0
    where named in non_negative, or is a bool field holding no bool."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        pos, non_neg = f.name in positive, f.name in non_negative
        if f.type == "int":
            _check_counts(error, low=1 if pos else 0 if non_neg else None, **{f.name: value})
        elif f.type == "float":
            _check_quantities(error, positive=pos, non_negative=non_neg, **{f.name: value})
        # a truthy string such as "false" would otherwise switch the field on
        elif f.type == "bool" and not isinstance(value, (bool, np.bool_)):
            raise error(f"{f.name} must be a bool, got {value!r}")


def _usable_cpus() -> int:
    """The number of CPUs the calling thread may run on: its affinity set, or
    os.cpu_count() where the platform has none."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ordered_map(fn, items, workers: int, scratch=None) -> list:
    """fn(item) for each item, in item order, shared among at most `workers`
    threads; with one worker, or one item, it runs here and starts no thread.

    With scratch, each call is fn(item, buffer), with one of the buffers that
    scratch() makes, one per worker, and no two calls running at once share
    one. The buffers are made here, in the calling thread: what a worker
    thread allocates stays resident in its own heap arena after the thread
    ends.
    """
    workers = min(workers, len(items))
    if scratch is None:
        call = fn
    else:
        spare = [scratch() for _ in range(workers)]

        def call(item):
            # at most `workers` calls run at once, so a buffer is always free
            buffer = spare.pop()
            try:
                return fn(item, buffer)
            finally:
                spare.append(buffer)

    if workers <= 1:
        return [call(item) for item in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(call, items))


def _map_chunks(stack: FrameStack, body, threads: int, scratch=lambda pixels: None) -> list:
    """body(rows, y, work) for each fixed row chunk, shared among `threads`
    workers, in chunk order. y is frames[:, rows] as float64: a view of
    samples that are the counts, else the samples over the gain in a scratch
    band of the worker's. work is what scratch(pixels) made for the worker,
    in the calling thread, for chunks of at most `pixels` pixels."""
    k, height, width = stack.frame_count, stack.height, stack.width
    chunks = _row_chunks(height, width)
    band_rows = chunks[0][1] - chunks[0][0]

    def run(chunk: tuple[int, int], buffers) -> list:
        band, work = buffers
        rows = slice(*chunk)
        return body(rows, stack._scaled(np.s_[:, rows], band[:, : rows.stop - rows.start]), work)

    def make():
        return np.empty((k, band_rows, width)), scratch(band_rows * width)

    return _ordered_map(run, chunks, threads, make)


def _sums_by_frame(rows: slice, y: np.ndarray, work=None) -> np.ndarray:
    """Each frame's sum over the pixels of one row chunk, y[i].sum() for every i.

    Each frame's pixels are contiguous, in a scratch band or a FrameStack's
    C-ordered samples, so one reduction over the rows of y.reshape(k, -1) adds
    them in y[i].sum()'s order.
    """
    return y.reshape(y.shape[0], -1).sum(axis=1)


def _frame_means(chunk_sums: list, stack: FrameStack) -> np.ndarray:
    """The frame-mean series: the chunks' frame sums, added in chunk order,
    over height * width; the same for any worker count."""
    return np.array(chunk_sums).sum(axis=0) / (stack.height * stack.width)


def _estimate(stack: FrameStack, threads: int) -> float:
    """estimate_fringe_frequency, with the frame sums shared among `threads` workers."""
    if stack.frame_count < 4:
        raise OptionsError("estimate mode needs at least 4 frames; use assume-one-cycle or fixed")
    chunk_sums = _map_chunks(stack, _sums_by_frame, threads)
    estimate = _estimate_from_series(_frame_means(chunk_sums, stack))
    if estimate in (_EDGE, stack.frame_count / 2.0 - _EDGE):
        raise FrequencyEstimationError(
            f"the fit residual falls toward the edge of the search interval at {estimate:g} "
            "cycles; no fringe peak inside it"
        )
    return estimate


def estimate_fringe_frequency(stack: FrameStack) -> float:
    """Locate the fringe frequency (cycles per scan) of a stack.

    The fit runs on the frame-mean series, each frame's sums per row chunk
    added in chunk order over the pixel count, as analyze_stack builds it at
    any thread count; the frame sums are shared among one worker per CPU the
    calling thread may run on, at most one per chunk, so the series is the
    same for any number of CPUs. Its single-frequency fit residual is scanned
    on an even grid over [1/8, K/2 - 1/8]. From the grid minimum, parabolic
    vertex steps through the residuals at +-h, for h of one grid step, 1e-3,
    1e-5 and 1e-8 cycles, each move the estimate by at most h, stay inside
    that interval and are kept only where the residual does not rise. An
    estimate on an edge of the interval, where the residual still falls, is
    refused with FrequencyEstimationError.
    """
    return _estimate(stack, _usable_cpus())


def analyze_stack(
    stack: FrameStack,
    options: ExtractionOptions | None = None,
    threads: int | None = None,
) -> AnalysisResult:
    """Extract visibility, contrast, phase and DC maps from a frame stack.

    Every pixel's K-sample series y is reduced to its DC level A and complex
    fringe amplitude c = (P y)[1] + i (P y)[2], with P the least-squares
    projector at the mode's frequency (f = 1 for assume-one-cycle, where this
    equals the DFT-bin formulas A = X0/K and c = 2 X1/K to rounding error).
    Visibility is |c|/A, contrast 2|c| and phase atan2(Im c, Re c). Pixels are
    processed in fixed row chunks, shared among `threads` workers (an integer
    >= 1; None, the default, is one per CPU the calling thread may run on), at
    most one per chunk; each pixel's sums run over the frames in index order,
    so results are bit-identical for any worker count and any memory layout of
    the given frames. A stack's samples are scaled by its gain one chunk at a
    time, into a buffer per worker. Estimate mode and the leakage flag fit the
    frame-mean series of estimate_fringe_frequency; the flag's sums come from
    the projection pass.
    """
    threads = _usable_cpus() if threads is None else threads
    _check_counts(OptionsError, low=1, threads=threads)
    opts = options if options is not None else ExtractionOptions()
    k = stack.frame_count
    if k < 3:
        raise NyquistError(
            f"stack has {k} frame(s); extraction needs at least 3 frames per fringe cycle"
        )

    if opts.frequency_mode == "fixed":
        f_used = float(opts.fixed_frequency)
        if not 0.0 < f_used < k / 2.0:
            raise NyquistError(
                f"fixed frequency {f_used} outside the resolvable interval (0, {k / 2})"
            )
    elif opts.frequency_mode == "estimate":
        f_used = _estimate(stack, threads)
    else:
        f_used = 1.0
    # P as (3, K): row j weighs the K frames into sum j
    proj = _projectors(k, f_used)[1][0]

    height, width = stack.height, stack.width
    vis = np.empty((height, width))
    con = np.empty((height, width))
    ph = np.empty((height, width))
    dc = np.empty((height, width))
    mask = np.empty((height, width), dtype=bool)
    # the threshold is never negative, so a >= floor means a >= threshold and a > 0
    floor = max(float(opts.min_dc_threshold), math.ulp(0.0))
    # the leakage check fits the frame-mean series; each chunk returns its
    # frame sums while it is in cache
    check_leakage = k >= 4 and opts.frequency_mode != "estimate"

    def scratch(pixels: int) -> tuple[np.ndarray, np.ndarray]:
        # a chunk's three sums and its complex amplitude; flat, so that each
        # chunk's view of them is contiguous, as a new array would be
        return np.empty(3 * pixels), np.empty(pixels, dtype=complex)

    def extract_rows(rows: slice, y: np.ndarray, work) -> np.ndarray | None:
        shape, pixels = y.shape[1:], y[0].size
        # einsum's loop adds each pixel's K products in frame order, where a
        # BLAS product would neither fix that order nor stay off the workers' CPUs
        a, cr, ci = np.einsum("jk,krw->jrw", proj, y, out=work[0][: 3 * pixels].reshape(3, *shape))
        sums = _sums_by_frame(rows, y) if check_leakage else None
        valid = np.greater_equal(a, floor, out=mask[rows])
        # every pixel is finished, then masked ones are set to 0.0: a mask
        # argument would cost more than the pixels it skips. A masked pixel
        # may divide by a DC level of 0 or less here.
        with np.errstate(divide="ignore", invalid="ignore"):
            angles = np.arctan2(ci, cr, out=ph[rows])
            # atan2 can round to -pi; phases lie in (-pi, pi]
            np.add(angles, 2.0 * np.pi, out=angles, where=angles <= -np.pi)
            # the complex magnitude rescales where cr**2 + ci**2 would overflow
            c = work[1][:pixels].reshape(shape)
            c.real, c.imag = cr, ci
            amp = np.abs(c, out=cr)
            np.divide(amp, a, out=vis[rows])
            np.multiply(amp, 2.0, out=con[rows])
        if not valid.all():
            masked = ~valid
            for out in (vis, con, ph):
                out[rows][masked] = 0.0
        np.maximum(a, 0.0, out=dc[rows])
        return sums

    chunk_sums = _map_chunks(stack, extract_rows, threads, scratch)

    leakage = False
    if check_leakage:
        try:
            observed = _estimate_from_series(_frame_means(chunk_sums, stack))
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

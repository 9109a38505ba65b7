"""Timing harness for the map-extraction path.

Measures analyze_stack wall time against frame count on in-memory
synthetic stacks. Stack synthesis, I/O and report formatting stay outside the
timed region.
"""

from __future__ import annotations

import os
import platform
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .fringes import FrameStack, _check_counts, analyze_stack

__all__ = ["BenchRow", "BenchReport", "run_bench"]

_WARMUP_RUNS = 3


@dataclass(frozen=True)
class BenchRow:
    frame_count: int
    mean_ms: float
    std_ms: float
    runs: int


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]
    width: int
    height: int
    threads: int
    machine: str

    def table(self) -> str:
        lines = [
            f"machine: {self.machine}",
            f"geometry: {self.width}x{self.height}, threads: {self.threads}",
            f"{'K':>4s} {'mean ms':>12s} {'std ms':>10s} {'runs':>6s}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.frame_count:4d} {row.mean_ms:12.3f} {row.std_ms:10.3f} {row.runs:6d}"
            )
        return "\n".join(lines)


def _machine_descriptor() -> str:
    cpu = platform.processor() or platform.machine() or "unknown cpu"
    return f"{platform.platform()}; {cpu}; {os.cpu_count()} logical cpus"


def _synth_stack(frame_count: int, height: int, width: int) -> FrameStack:
    # noiseless fringe with a gentle spatial phase ramp, enough structure to
    # keep the per-pixel math honest
    yy = np.linspace(0.0, np.pi / 2.0, height)[:, None]
    xx = np.linspace(0.0, np.pi, width)[None, :]
    pixel_phase = yy + xx
    k = np.arange(frame_count)
    frames = 1000.0 * (
        1.0 + 0.5 * np.cos(2.0 * np.pi * k[:, None, None] / frame_count + pixel_phase)
    )
    return FrameStack(frames, 2.0 * np.pi * k / frame_count)


def run_bench(
    width: int,
    height: int,
    frame_counts,
    runs: int,
    threads: int = 1,
) -> BenchReport:
    """Time analyze_stack for each frame count; mean and sample std over runs.

    The timed runs go round the frame counts in turn (K = 3, 4, 8, 15, 3, 4,
    ...), so that a slowdown of the host weighs on every K alike rather than
    on one K's block. Every stack is therefore held for the whole run: at
    1280x1024, K = 3, 4, 8 and 15 take 315 MB of float64 counts, against
    157 MB for the largest alone.
    """
    # two runs at least, so that a standard deviation exists
    _check_counts(low=2, runs=runs)
    _check_counts(low=1, width=width, height=height)
    counts = list(frame_counts)
    if not counts:
        raise ValueError("frame_counts must be non-empty")
    for k in counts:
        message = f"frame count {k!r} is not an integer >= 3, the extraction minimum"
        _check_counts(low=3, message=message, frame_count=k)

    stacks = [_synth_stack(k, height, width) for k in counts]
    for stack in stacks:
        for _ in range(_WARMUP_RUNS):
            analyze_stack(stack, threads=threads)
    samples = np.empty((len(stacks), runs))
    for i in range(runs):
        for j, stack in enumerate(stacks):
            start = perf_counter()
            analyze_stack(stack, threads=threads)
            samples[j, i] = (perf_counter() - start) * 1e3
    rows = tuple(
        BenchRow(int(k), float(s.mean()), float(s.std(ddof=1)), runs)
        for k, s in zip(counts, samples)
    )
    return BenchReport(rows, width, height, threads, _machine_descriptor())


"""Timing harness for the map-extraction path.

Measures analyze_stack wall time against frame count on an in-memory
synthetic stack. Stack synthesis, I/O and report formatting stay outside the
timed region.
"""

from __future__ import annotations

import os
import platform
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .fringes import FrameStack, analyze_stack

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
    """Time analyze_stack for each frame count; mean and sample std over runs."""
    if runs < 2:
        raise ValueError("runs must be >= 2 so a standard deviation exists")
    if width < 1 or height < 1:
        raise ValueError("geometry must be positive")
    counts = list(frame_counts)
    if not counts:
        raise ValueError("frame_counts must be non-empty")
    for k in counts:
        if not isinstance(k, (int, np.integer)):
            raise ValueError(f"frame count {k!r} is not an integer")
        if k < 3:
            raise ValueError(f"frame count {k} is below the 3-frame extraction minimum")

    rows = []
    for k in counts:
        stack = _synth_stack(k, height, width)
        for _ in range(_WARMUP_RUNS):
            analyze_stack(stack, threads=threads)
        samples = np.empty(runs)
        for i in range(runs):
            start = perf_counter()
            analyze_stack(stack, threads=threads)
            samples[i] = (perf_counter() - start) * 1e3
        rows.append(
            BenchRow(int(k), float(samples.mean()), float(samples.std(ddof=1)), runs)
        )
    return BenchReport(tuple(rows), width, height, threads, _machine_descriptor())


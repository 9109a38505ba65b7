"""Run descriptor, latency statistics, memory bandwidth and per-layer metrics."""

from __future__ import annotations

import os
import platform
import re
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from spans import Tracer, duration_ms

MiB = 1 << 20


def last_level_cache_bytes() -> int | None:
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        match = re.fullmatch(r"(\d+)([KMG]?)", size)
        if match is None:
            continue
        scale = {"": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[match.group(2)]
        if best is None or level > best[0]:
            best = (level, int(match.group(1)) * scale)
    return None if best is None else best[1]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def descriptor(workload, seed: int, seconds: float, trace: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    max_threads = re.search(r"MAX_THREADS=(\d+)", blas.get("openblas configuration", ""))
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": last_level_cache_bytes(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_max_threads_built": int(max_threads.group(1)) if max_threads else None,
        "blas_threads_runtime": os.environ.get("OPENBLAS_NUM_THREADS"),
        "analysis_threads": list(workload.threads),
    }


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_stats(by_kind: dict[str, list[float]], relative: dict[str, list[float]]) -> dict:
    """Latency figures of a closed loop with one client, from seconds to ms.

    op_p50_rel, the bounded figure, is per operation kind the median of each
    operation's latency divided by the reference loop's time around it,
    averaged over the kinds, so a mixed workload weighs every kind equally.
    The raw latencies give the fastest latency per kind (averaged over the
    kinds), the median, the tail and the throughput. The tail is the highest
    percentile with at least ten samples beyond it, but never below the
    median: with fewer than 20 samples it is the median.
    """
    fastest = [min(v) for v in by_kind.values()]
    ordered = sorted(x for v in by_kind.values() for x in v)
    n = len(ordered)
    if n >= 20:
        tail, tail_pct = ordered[n - 11], 100.0 * (n - 10) / n
    else:
        tail, tail_pct = statistics.median(ordered), 50.0
    return {
        "op_p50_rel": statistics.fmean(statistics.median(v) for v in relative.values()),
        "samples": n,
        "op_best_ms": statistics.fmean(fastest) * 1e3,
        "op_p50_ms": statistics.median(ordered) * 1e3,
        "op_tail_ms": tail * 1e3,
        "tail_percentile": tail_pct,
        "ops_per_s": n / sum(ordered),
    }


def copy_bandwidth() -> dict:
    """numpy copy bandwidth on arrays of at least 4x the last-level cache."""
    llc = last_level_cache_bytes()
    nbytes = 4 * llc if llc else 512 * MiB
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault the pages in before timing
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return {
        "copy_GBps": src.nbytes / statistics.median(times) / 1e9,
        "copy_array_bytes": src.nbytes,
        "llc_bytes": llc,
    }


def _pick(tr: Tracer, name: str, **match) -> list[dict]:
    """Spans of `name` from the operations, or from set-up and probes if none."""

    def matching(spans):
        return [s for s in spans if all(s["attrs"].get(k) == v for k, v in match.items())]

    return matching(tr.named(name, from_ops=True)) or matching(tr.named(name))


def _median_ms(spans: list[dict]) -> float:
    return statistics.median(duration_ms(s) for s in spans)


def _median_attr(spans: list[dict], key: str) -> float:
    return float(statistics.median(s["attrs"][key] for s in spans))


def _mean_attr(spans: list[dict], key: str) -> float:
    return float(statistics.fmean(s["attrs"][key] for s in spans))


def _rate(spans: list[dict], key: str) -> float:
    """Median bytes per second of the spans' `key` byte counts."""
    return statistics.median(s["attrs"][key] / (duration_ms(s) / 1e3) for s in spans)


def layer_metrics(tr: Tracer, copy: dict, overhead_ratio: float) -> dict[str, float]:
    ecm = _pick(tr, "optics.effective_complex_map")
    sim = _pick(tr, "optics.simulate_stack", noisy=True)
    ecm_ms = _median_ms(ecm)
    write = _pick(tr, "stackio.write_stack")
    read = _pick(tr, "stackio.read_stack")
    export = _pick(tr, "stackio.export_maps")
    t1 = _pick(tr, "fringes.analyze_stack", threads=1)
    t2 = _pick(tr, "fringes.analyze_stack", threads=2)
    analyze = t1 + t2
    tune = _pick(tr, "qpm.tuning_curve")
    return {
        "optics.effective_complex_map.ms": ecm_ms,
        "optics.simulate_stack.ms": _median_ms(sim),
        "optics.emit_ms_per_frame": statistics.median(
            (duration_ms(s) - ecm_ms) / s["attrs"]["frames"] for s in sim
        ),
        "optics.frames": _mean_attr(sim, "frames"),
        "optics.peak_alloc_mb": _median_attr(sim, "peak_alloc_bytes") / MiB,
        "stackio.write_stack.ms": _median_ms(write),
        "stackio.write_stack.bytes": _mean_attr(write, "bytes"),
        "stackio.write_stack.MBps": _rate(write, "bytes") / 1e6,
        "stackio.read_stack.ms": _median_ms(read),
        "stackio.read_stack.bytes": _mean_attr(read, "bytes"),
        "stackio.read_stack.MBps": _rate(read, "bytes") / 1e6,
        "stackio.read_stack.peak_alloc_mb": _median_attr(read, "peak_alloc_bytes") / MiB,
        "stackio.export_maps.ms": _median_ms(export),
        "stackio.export_maps.bytes": _mean_attr(export, "bytes"),
        "fringes.framestack_validate.ms": _median_ms(_pick(tr, "fringes.FrameStack")),
        "fringes.analyze_stack.ms.t1": _median_ms(t1),
        "fringes.analyze_stack.ms.t2": _median_ms(t2),
        "fringes.thread_speedup": _median_ms(t1) / _median_ms(t2),
        "fringes.estimate_fringe_frequency.ms": _median_ms(_pick(tr, "fringes.estimate_fringe_frequency")),
        "fringes.bytes_computed": _mean_attr(analyze, "bytes_computed"),
        "fringes.GBps_computed": _rate(analyze, "bytes_computed") / 1e9,
        "fringes.peak_alloc_mb": _median_attr(analyze, "peak_alloc_bytes") / MiB,
        "fringes.masked_pixels": _mean_attr(analyze, "masked_pixels"),
        "fringes.leakage_flags": _mean_attr(analyze, "leakage_flag"),
        "qpm.tuning_curve.ms": _median_ms(tune),
        "qpm.us_per_cell": statistics.median(duration_ms(s) * 1e3 / s["attrs"]["cells"] for s in tune),
        "qpm.cells": _mean_attr(tune, "cells"),
        "qpm.cells_unmatched": _mean_attr(tune, "unmatched"),
        "machine.copy_GBps": copy["copy_GBps"],
        "trace.overhead_ratio": overhead_ratio,
    }

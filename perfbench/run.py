"""Closed-loop benchmark of the iuptools pipeline; see README.md beside this file.

    python3 perfbench/run.py --workload acquire --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: it imports iuptools from ./src and
nowhere else. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPS = 3
# reference-loop samples taken just before and again just after each operation
REFERENCE_SAMPLES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("acquire", "reanalyze", "tune-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import iuptools from ./src of the checkout; returns the import time in s."""
    package = ROOT / "src" / "iuptools"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no iuptools sources under {package.parent}; run from a source checkout")
    # analysis threads are set per call; keep BLAS from adding its own pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import iuptools
    import workloads  # noqa: F401  (imports the four layers)

    elapsed = time.perf_counter() - start
    if Path(iuptools.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported iuptools from {iuptools.__file__}, not {package}")
    return elapsed


class Loop:
    """Counts, latencies and quality figures of one run's operations."""

    def __init__(self, workload, tracer):
        self.wl = workload
        self.tr = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.quality: list[tuple[float, float]] = []

    def one(self, spec, probe=None):
        """Run and check one operation.

        Returns (latency_s, output, passed, probes); latency and output are
        None if the operation raised. An operation that returns but fails its
        check keeps its latency: it is counted as failed, not dropped. probe,
        if given, is called just before and just after the timed call, and
        probes holds what it returned.
        """
        self.attempted += 1
        latency = out = None
        probes = []
        try:
            if probe is not None:
                probes += probe()
            start = time.perf_counter()
            out = self.wl.run(self.tr, spec)
            latency = time.perf_counter() - start
            if probe is not None:
                probes += probe()
            problems = self.wl.check(spec, out)
        except Exception as err:  # a failed operation is counted, not raised
            problems = [f"{type(err).__name__}: {err}"]
        if problems:
            self.failed += 1
            self.errors.extend(problems[:3])
        elif isinstance(out, dict) and "phase_rmse" in out:
            self.quality.append((out["phase_rmse"], out["vis_rmse"]))
        return latency, out, not problems, probes


def reference_loop_s() -> float:
    """Time of one fixed pure-Python loop, independent of iuptools.

    The benchmark runs it around every operation, on the operation's CPUs,
    to measure how fast the shared host lets those CPUs run at that moment.
    """
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - start


def reference_on(cpus: list[int]) -> list[float]:
    """Reference-loop times on the given CPUs, taking turns; the CPU set is
    restored afterwards."""
    times = []
    for i in range(REFERENCE_SAMPLES):
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})
        times.append(reference_loop_s())
    os.sched_setaffinity(0, cpus)
    return times


def self_check(wl, spec, out) -> list[str]:
    """Names of deliberate corruptions the gate failed to reject."""
    missed = []
    for label, broken in wl.corruptions(spec, out):
        try:
            caught = bool(wl.check(spec, broken))
        except Exception:
            caught = True
        if not caught:
            missed.append(label)
    return missed


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()

    import report
    import workloads
    from spans import Tracer

    import numpy as np

    trace = bool(args.trace)
    tr = Tracer(trace)
    workdir = BENCH_DIR / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        loop = Loop(wl, tr)
        rng = np.random.default_rng([args.seed, 1])

        setup_times = []
        for rep in range(SETUP_REPS):
            tr.op_id = f"setup-{rep}"
            start = time.perf_counter()
            wl.setup(tr)
            setup_times.append(time.perf_counter() - start)
        tr.op_id = "warmup"
        start = time.perf_counter()
        first = wl.cycle(rng)[0]
        _, out, passed, _ = loop.one(first)
        warmup_s = time.perf_counter() - start
        setup_s = import_s + statistics.median(setup_times) + warmup_s
        # the gate must reject broken copies of a good output
        missed = self_check(wl, first, out) if passed else []
        del out
        rss_after_setup = report.peak_rss_mib()

        latencies: dict[str, list[float]] = {}
        relative: dict[str, list[float]] = {}
        reference: list[float] = []
        traced, untraced = [], []
        op_id = 0
        cpus = sorted(os.sched_getaffinity(0))
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            for spec in wl.cycle(rng):
                # single-threaded operations take turns on the CPUs, so a
                # host that slows one virtual CPU for minutes cannot slow them all
                one_cpu = wl.threads_of(spec) == 1
                op_cpus = [cpus[op_id % len(cpus)]] if one_cpu else cpus
                os.sched_setaffinity(0, op_cpus)
                op_id += 1
                if not trace:
                    # the host's speed varies for minutes at a time; the
                    # reference loop around an operation measures it on the
                    # same CPUs, and the latency is also kept relative to it
                    latency, _, _, around = loop.one(spec, lambda: reference_on(op_cpus))
                    reference += around
                    if latency is not None:
                        kind = wl.kind(spec)
                        latencies.setdefault(kind, []).append(latency)
                        relative.setdefault(kind, []).append(latency / statistics.median(around))
                    continue
                # pairs of untraced and traced runs of the same operation
                tr.enabled = False
                plain = loop.one(spec)[0]
                tr.enabled, tr.op_id = True, op_id
                done = loop.one(spec)[0]
                if plain is not None and done is not None:
                    untraced.append(plain)
                    traced.append(done)
        loop_s = time.perf_counter() - start
        os.sched_setaffinity(0, cpus)
        if not (latencies or traced):
            for err in loop.errors[:20]:
                print(f"  failed: {err}", file=sys.stderr)
            raise SystemExit("error: no operation completed")

        detail = {
            "import_s": import_s,
            "setup_body_s": setup_times,
            "warmup_s": warmup_s,
            "loop_s": loop_s,
            "latencies_s": latencies or {"traced": traced},
            "peak_rss_after_setup_mb": rss_after_setup,
            "gate_missed_corruptions": missed,
            "errors": loop.errors[:20],
        }
        if loop.quality:
            phase, vis = zip(*loop.quality)
            detail["phase_rmse_mrad"] = statistics.median(phase) * 1e3
            detail["visibility_rmse"] = statistics.median(vis)

        if trace:
            workloads.probe_idle_layers(tr, wl, workdir, args.seed)
            copy = report.copy_bandwidth()
            ratio = sum(traced) / sum(untraced)
            metrics = report.layer_metrics(tr, copy, ratio)
            detail.update(copy, traced_ops=len(traced))
            units = metric_units("per_layer")
        else:
            stats = report.latency_stats(latencies, relative)
            metrics = {
                "setup_s": setup_s,
                "op_p50_rel": stats.pop("op_p50_rel"),
                "peak_rss_mb": report.peak_rss_mib(),
            }
            detail.update(stats, reference_loop_ms=statistics.median(reference) * 1e3)
            units = metric_units("end_to_end")
        detail["failed_ratio"] = loop.failed / loop.attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "descriptor": report.descriptor(wl, args.seed, args.seconds, trace),
        "metrics": metrics,
        "detail": detail,
    }
    out_dir = BENCH_DIR / "out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if trace:
        tr.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json", {"descriptor": record["descriptor"]})

    print_summary(record, loop, units)
    correct = loop.failed == 0 and not missed
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


def print_summary(record, loop, units) -> None:
    d, detail = record["descriptor"], record["detail"]
    print(
        f"# {d['workload']} seed={d['seed']} trace={int(d['trace'])} on {d['cpu_model']}, "
        f"nproc={d['nproc']}, numpy {d['numpy']}, {d['blas_name']} {d['blas_version']}"
    )
    for name, value in record["metrics"].items():
        print(f"{name} = {value:.6g} {units[name]}")
    print("recorded, not bounded (see README.md):")
    if "samples" in detail:
        print(f"  latency samples = {detail['samples']}")
    for name, unit in UNBOUNDED:
        if name in detail:
            print(f"  {name} = {detail[name]:.6g} {unit}".rstrip())
    print(f"  failed_ratio = {detail['failed_ratio']:.6g} ({loop.failed}/{loop.attempted})")
    if "copy_GBps" in detail:
        print(
            f"  (copy of {detail['copy_array_bytes']} B arrays; last-level cache {detail['llc_bytes']} B;"
            " stackio read figures come from the page cache, not the disk)"
        )
    for err in detail["errors"]:
        print(f"  failed: {err}", file=sys.stderr)
    for label in detail["gate_missed_corruptions"]:
        print(f"  gate missed a corruption: {label}", file=sys.stderr)


UNBOUNDED = (
    ("op_best_ms", "ms"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("tail_percentile", "%"),
    ("ops_per_s", "1/s"),
    ("phase_rmse_mrad", "mrad"),
    ("visibility_rmse", ""),
    ("reference_loop_ms", "ms"),
)


def metric_units(kind: str) -> dict[str, str]:
    """Units of the end_to_end or per_layer metrics, as BENCHMARK.json names them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())

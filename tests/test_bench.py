"""Timing-harness tests (fast settings; the real protocol runs 100 reps)."""

from __future__ import annotations

import numpy as np
import pytest

from iuptools import BenchReport, bench, run_bench


def quick_report():
    return run_bench(width=48, height=32, frame_counts=(3, 4), runs=2)


class TestRunBench:
    def test_report_shape(self):
        rep = quick_report()
        assert isinstance(rep, BenchReport)
        assert [r.frame_count for r in rep.rows] == [3, 4]
        assert all(r.mean_ms > 0.0 for r in rep.rows)
        assert all(r.std_ms >= 0.0 for r in rep.rows)
        assert all(r.runs == 2 for r in rep.rows)
        assert rep.machine

    def test_validation(self):
        with pytest.raises(ValueError):
            run_bench(width=48, height=32, frame_counts=(3,), runs=1)
        with pytest.raises(ValueError):
            run_bench(width=0, height=32, frame_counts=(3,), runs=2)
        with pytest.raises(ValueError):
            run_bench(width=48, height=32, frame_counts=(2,), runs=2)

    @pytest.mark.parametrize("frame_counts", [[], ()])
    def test_no_frame_count_is_refused(self, frame_counts):
        with pytest.raises(ValueError, match="^frame_counts must be non-empty$"):
            run_bench(8, 6, frame_counts, 2)

    @pytest.mark.parametrize("k", [3.7, 3.0, "4"])
    def test_non_integer_frame_count_refused_by_value(self, k):
        with pytest.raises(ValueError, match=f"frame count {k!r} is not an integer"):
            run_bench(width=16, height=12, frame_counts=[k], runs=2)

    def test_numpy_integer_frame_count_accepted(self):
        rep = run_bench(width=16, height=12, frame_counts=[np.int64(3)], runs=2)
        assert [r.frame_count for r in rep.rows] == [3]
        assert type(rep.rows[0].frame_count) is int

    def test_timed_runs_alternate_across_frame_counts(self, monkeypatch):
        seen = []
        monkeypatch.setattr(
            bench, "analyze_stack", lambda stack, threads: seen.append(stack.frame_count)
        )
        run_bench(width=16, height=12, frame_counts=(3, 8, 4), runs=4)
        w = bench._WARMUP_RUNS
        assert seen[: 3 * w] == [3] * w + [8] * w + [4] * w
        assert seen[3 * w :] == [3, 8, 4] * 4

    def test_table_mentions_geometry(self):
        rep = quick_report()
        text = rep.table()
        assert "48x32" in text
        assert "machine:" in text


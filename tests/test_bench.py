"""Timing-harness tests (fast settings; the real protocol runs 100 reps)."""

from __future__ import annotations

import pytest

from iuptools import BenchReport, run_bench


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

    def test_table_mentions_geometry(self):
        rep = quick_report()
        text = rep.table()
        assert "48x32" in text
        assert "machine:" in text


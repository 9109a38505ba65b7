"""Timing-harness tests (fast settings; the real protocol runs 100 reps)."""

from __future__ import annotations

import pytest

from iuptools import BenchReport, parse_bench_csv, run_bench


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


class TestCsv:
    def test_header_and_rows(self):
        rep = quick_report()
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "K,mean_ms,std_ms,runs,threads,width,height"
        assert len(lines) == 4
        assert lines[-1] == f"# machine: {rep.machine}"

    def test_round_trip_is_byte_stable(self):
        rep = quick_report()
        text = rep.to_csv()
        again = parse_bench_csv(text)
        assert again.to_csv() == text
        assert again.width == rep.width
        assert again.height == rep.height
        assert again.threads == rep.threads

    def test_machine_read_back_not_current(self):
        rep = quick_report()
        text = rep.to_csv().replace(rep.machine, "lab rig; 64 logical cpus")
        assert parse_bench_csv(text).machine == "lab rig; 64 logical cpus"
        body = "".join(line + "\n" for line in text.splitlines()[:-1])
        assert parse_bench_csv(body).machine == "unknown"

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            parse_bench_csv("K,mean\n3,1.0\n")

"""Tests for the quasi-phase-matching wavelength solver."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import brentq

from iuptools import (
    CrystalState,
    PhaseMatchError,
    StackFormatError,
    WavelengthPair,
    default_dispersion_set,
    idler_from_signal,
    load_dispersion_set,
    qpm_mismatch,
    refractive_index,
    solve_signal_idler,
    tuning_curve,
    tuning_table_csv,
)
from iuptools.qpm import _first_root, _mismatch_unchecked, _signal_scan_bounds

PUMP_NM = 532.0


def reference_solve(pump_nm, crystal):
    """The solver as two explicit scans over grid points, kept as an oracle."""
    lo, hi = _signal_scan_bounds(pump_nm, crystal.dispersion_set)
    grid = np.append(np.arange(lo, hi, 0.5), hi)
    values = _mismatch_unchecked(pump_nm, grid, crystal)
    finite = np.isfinite(values)

    def pair_at(signal_nm):
        residual = abs(float(_mismatch_unchecked(pump_nm, np.float64(signal_nm), crystal)))
        return WavelengthPair(signal_nm, idler_from_signal(pump_nm, signal_nm), residual)

    bracket = None
    for i in range(grid.size - 1):
        if not (finite[i] and finite[i + 1]):
            continue
        if values[i] == 0.0:
            return pair_at(float(grid[i]))
        if values[i] * values[i + 1] < 0.0:
            bracket = (float(grid[i]), float(grid[i + 1]))
            break
    if bracket is None and hi == 2.0 * pump_nm:
        fine = np.linspace(max(lo, hi - 2.0), hi, 401)
        fine_vals = _mismatch_unchecked(pump_nm, fine, crystal)
        ok = np.isfinite(fine_vals)
        for i in range(fine.size - 1):
            if ok[i] and ok[i + 1] and fine_vals[i] * fine_vals[i + 1] < 0.0:
                bracket = (float(fine[i]), float(fine[i + 1]))
                break
        if bracket is None and ok[-1] and abs(float(fine_vals[-1])) <= 1e-6:
            return WavelengthPair(hi, hi, abs(float(fine_vals[-1])))
    if bracket is None:
        return None

    def mismatch(signal_nm):
        return float(_mismatch_unchecked(pump_nm, np.float64(signal_nm), crystal))

    return pair_at(float(brentq(mismatch, *bracket, xtol=1e-7)))


def degenerate_period(temp_c):
    """Poling period that phase-matches signal = idler = 2 * pump."""
    ds = default_dispersion_set()
    n_p = refractive_index(PUMP_NM, temp_c, ds)
    n_h = refractive_index(2 * PUMP_NM, temp_c, ds)
    return (PUMP_NM / 1000.0) / (n_p - n_h)


class TestDispersion:
    def test_bundled_table_loads(self):
        ds = default_dispersion_set()
        assert ds.name == "ppln-mgo5pct-e"
        assert len(ds.a) == 6
        assert len(ds.b) == 4

    def test_bundled_table_is_read_once(self):
        ds = default_dispersion_set()
        assert default_dispersion_set() is ds
        assert CrystalState(7.4, 125.0).dispersion_set is ds

    def test_index_at_1064(self):
        # e-ray of 5% MgO-doped congruent LiNbO3 near room temperature
        n = refractive_index(1064.0, 25.0)
        assert n == pytest.approx(2.1483, abs=2e-4)

    def test_index_rises_with_temperature(self):
        assert refractive_index(1064.0, 150.0) > refractive_index(1064.0, 25.0)

    def test_normal_dispersion_in_visible(self):
        assert refractive_index(650.0, 25.0) > refractive_index(1100.0, 25.0)

    def test_wavelength_window_enforced(self):
        with pytest.raises(ValueError):
            refractive_index(450.0, 25.0)
        with pytest.raises(ValueError):
            refractive_index(4100.0, 25.0)

    def test_temperature_window_enforced(self):
        with pytest.raises(ValueError):
            refractive_index(1064.0, 10.0)
        with pytest.raises(ValueError):
            refractive_index(1064.0, 250.0)

    def test_temperature_fault_reported_before_wavelength_fault(self):
        with pytest.raises(ValueError, match="temperature 10.0 C outside"):
            refractive_index(450.0, 10.0)

    def test_load_from_explicit_path(self, tmp_path):
        import iuptools.data

        from importlib import resources

        src = resources.files("iuptools.data").joinpath("ppln_mgo5pct_e.txt")
        copy = tmp_path / "table.txt"
        copy.write_text(src.read_text(encoding="utf-8"))
        ds = load_dispersion_set(copy)
        assert ds.a == default_dispersion_set().a

    def test_missing_key_is_reported(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("name = x\na1 = 1.0\n")
        with pytest.raises(ValueError, match="missing key"):
            load_dispersion_set(bad)

    def test_missing_key_names_file_and_key(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("name = x\na1 = 1.0\n")
        with pytest.raises(StackFormatError, match=r"bad\.txt.*'a2'"):
            load_dispersion_set(bad)

    def test_non_numeric_coefficient_is_reported(self, tmp_path):
        from importlib import resources

        text = resources.files("iuptools.data").joinpath("ppln_mgo5pct_e.txt").read_text()
        lines = [
            "a1 = abc" if line.split("=")[0].strip() == "a1" else line
            for line in text.splitlines()
        ]
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="bad.txt: key 'a1' has invalid value 'abc'"):
            load_dispersion_set(bad)

    def test_malformed_line_is_reported(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("name x\n")
        with pytest.raises(ValueError, match="key = value"):
            load_dispersion_set(bad)


class TestEnergyConservation:
    def test_idler_from_signal(self):
        assert idler_from_signal(532.0, 808.0) == pytest.approx(1557.449, abs=1e-3)

    def test_five_reported_pairs(self):
        # detected wavelength -> probe wavelength, both nm
        pairs = {
            808.0: 1558.0,
            752.0: 1818.0,
            840.0: 1450.0,
            792.0: 1620.0,
            758.0: 1783.0,
        }
        for detected, probe in pairs.items():
            assert idler_from_signal(PUMP_NM, detected) == pytest.approx(probe, abs=3.0)

    def test_signal_must_be_redder_than_pump(self):
        with pytest.raises(ValueError):
            idler_from_signal(532.0, 500.0)


class TestMismatch:
    def test_sign_change_brackets_solution(self):
        crystal = CrystalState(7.40, 125.0)
        pair = solve_signal_idler(PUMP_NM, crystal)
        below = qpm_mismatch(PUMP_NM, pair.signal_nm - 5.0, crystal)
        above = qpm_mismatch(PUMP_NM, pair.signal_nm + 5.0, crystal)
        assert below * above < 0

    def test_scalar_and_array_agree(self):
        crystal = CrystalState(7.40, 125.0)
        grid = np.array([800.0, 810.0, 820.0])
        vec = qpm_mismatch(PUMP_NM, grid, crystal)
        for lam, want in zip(grid, vec):
            assert qpm_mismatch(PUMP_NM, float(lam), crystal) == pytest.approx(want)


class TestSolver:
    def test_pair_at_125c(self):
        pair = solve_signal_idler(PUMP_NM, CrystalState(7.40, 125.0))
        assert pair.signal_nm == pytest.approx(807.7, abs=0.1)
        assert pair.idler_nm == pytest.approx(1558.5, abs=0.3)

    def test_pair_at_200c(self):
        pair = solve_signal_idler(PUMP_NM, CrystalState(7.71, 200.0))
        assert pair.signal_nm == pytest.approx(751.7, abs=0.1)
        assert pair.idler_nm == pytest.approx(1820.0, abs=0.5)

    def test_room_temperature_scan(self):
        expected = {7.40: (840.4, 1449.8), 7.70: (793.5, 1614.4), 8.05: (756.5, 1792.9)}
        for period, (s, i) in expected.items():
            pair = solve_signal_idler(PUMP_NM, CrystalState(period, 24.5))
            assert pair.signal_nm == pytest.approx(s, abs=0.1)
            assert pair.idler_nm == pytest.approx(i, abs=0.3)

    def test_energy_conservation_of_solutions(self):
        for period, temp in [(7.40, 125.0), (7.71, 200.0), (7.55, 60.0)]:
            pair = solve_signal_idler(PUMP_NM, CrystalState(period, temp))
            recon = 1.0 / (1.0 / pair.signal_nm + 1.0 / pair.idler_nm)
            assert recon == pytest.approx(PUMP_NM, abs=0.01)

    def test_residual_mismatch_bound(self):
        for period, temp in [(7.40, 125.0), (7.71, 200.0), (7.90, 24.5)]:
            pair = solve_signal_idler(PUMP_NM, CrystalState(period, temp))
            assert pair.residual_mismatch <= 1e-6

    def test_matches_brute_force_scan(self):
        """Root position agrees with a 0.001 nm sign-change scan."""
        rng = np.random.default_rng(17)
        crystals = [
            CrystalState(float(rng.uniform(7.3, 8.3)), float(rng.uniform(24.5, 200.0)))
            for _ in range(20)
        ]
        for crystal in crystals:
            try:
                pair = solve_signal_idler(PUMP_NM, crystal)
            except PhaseMatchError:
                continue
            grid = pair.signal_nm + np.arange(-2000, 2001) * 0.001
            vals = _mismatch_unchecked(PUMP_NM, grid, crystal)
            sign = np.sign(vals)
            flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
            assert flips.size >= 1
            nearest = grid[flips[np.abs(grid[flips] - pair.signal_nm).argmin()]]
            assert abs(nearest - pair.signal_nm) <= 0.01

    def test_no_phase_matching_is_loud(self):
        with pytest.raises(PhaseMatchError):
            solve_signal_idler(PUMP_NM, CrystalState(5.0, 25.0))

    def test_crystal_state_validation(self):
        with pytest.raises(ValueError):
            CrystalState(0.0, 25.0)
        with pytest.raises(ValueError):
            CrystalState(7.4, 500.0)

    def test_degenerate_point_resolves(self):
        # pick the poling period that phase-matches signal = idler = 2*pump
        ds = default_dispersion_set()
        temp = 100.0
        n_p = refractive_index(2 * PUMP_NM / 2, temp, ds)  # 532 nm
        n_h = refractive_index(2 * PUMP_NM, temp, ds)  # 1064 nm
        period_um = (PUMP_NM / 1000.0) / (n_p - n_h)
        pair = solve_signal_idler(PUMP_NM, CrystalState(period_um, temp))
        assert pair.signal_nm == pytest.approx(1064.0, abs=0.5)
        assert pair.idler_nm == pytest.approx(1064.0, abs=0.5)
        assert pair.degenerate


class TestFirstRoot:
    @pytest.mark.parametrize(
        "values, want",
        [
            ([1.0, np.nan, -1.0, 1.0], (2.0, 3.0)),  # no bracket across the NaN
            ([1.0, 0.0, -1.0], (1.0, 1.0)),  # exact zero at the left point
            ([2.0, 0.0, np.nan, 1.0], None),  # ... but not beside a NaN
            ([1.0, -1.0, 1.0], (0.0, 1.0)),  # first of two sign changes
            ([1.0, 2.0, 3.0], None),
            ([1.0, 2.0, 0.0], None),  # a zero at the last point is no root
        ],
    )
    def test_synthetic_samples(self, values, want):
        grid = np.arange(len(values), dtype=np.float64)
        assert _first_root(grid, np.array(values)) == want

    def test_solver_matches_reference_scan(self):
        rng = np.random.default_rng(23)
        # 532 nm: matched and unmatched cells and the degenerate period on both
        # sides of the tangency fallback; 775 nm near 20.6 um: two sign changes
        cells = [
            (PUMP_NM, float(rng.uniform(4.5, 9.0)), float(rng.uniform(20.0, 200.0)))
            for _ in range(60)
        ]
        cells += [(PUMP_NM, degenerate_period(t), t) for t in (20.0, 60.0, 100.0, 200.0)]
        cells += [
            (775.0, float(rng.uniform(20.3, 21.0)), float(rng.uniform(170.0, 200.0)))
            for _ in range(20)
        ]
        unmatched = 0
        for pump_nm, period, temp in cells:
            crystal = CrystalState(period, temp)
            want = reference_solve(pump_nm, crystal)
            if want is None:
                unmatched += 1
                with pytest.raises(PhaseMatchError):
                    solve_signal_idler(pump_nm, crystal)
            else:
                assert solve_signal_idler(pump_nm, crystal) == want
        assert unmatched > 0
        assert solve_signal_idler(PUMP_NM, CrystalState(degenerate_period(100.0), 100.0)).degenerate


class TestTuningCurve:
    def test_grid_ordering_and_markers(self):
        points = tuning_curve(PUMP_NM, [7.71, 7.40, 5.0], [200.0, 125.0])
        keys = [(p.poling_period_um, p.temperature_c) for p in points]
        assert keys == sorted(keys)
        assert len(points) == 6
        solved = [p for p in points if p.pair is not None]
        missing = [p for p in points if p.pair is None]
        assert len(missing) == 2  # both temperatures at 5.0 um
        assert all(p.poling_period_um == 5.0 for p in missing)
        assert all(p.note for p in missing)
        assert len(solved) == 4

    def test_csv_shape(self):
        points = tuning_curve(PUMP_NM, [7.40, 5.0], [125.0])
        text = tuning_table_csv(points)
        lines = text.strip().splitlines()
        assert lines[0] == "poling_period_um,temperature_C,signal_nm,idler_nm,residual"
        assert len(lines) == 3
        empty = lines[1].split(",")  # rows sort by period; 5.0 um has no match
        assert float(empty[0]) == 5.0
        assert empty[2] == "" and empty[3] == ""
        good = lines[2].split(",")
        assert float(good[0]) == 7.40
        assert float(good[2]) == pytest.approx(807.7, abs=0.1)

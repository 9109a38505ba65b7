"""Tests for the quasi-phase-matching wavelength solver."""

from __future__ import annotations

import dataclasses
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from iuptools import (
    CrystalState,
    PhaseMatchError,
    StackFormatError,
    TuningPoint,
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
from iuptools import qpm
from iuptools.qpm import (
    _brentq,
    _first_root,
    _first_roots,
    _mismatch_terms,
    _signal_scan_bounds,
    _temperature_terms,
)

PUMP_NM = 532.0
# poling periods (um) with phase-matched cells between 20 and 200 C, per pump (nm)
MATCHING_PERIODS_UM = {
    532.0: (6.6, 11.6), 600.0: (9.5, 14.5), 775.0: (18.7, 21.3), 1000.0: (27.0, 30.3)
}


def reference_solve(pump_nm, crystal):
    """The solver as one explicit scan over grid points, kept as an oracle."""
    lo, hi = _signal_scan_bounds(pump_nm, crystal.dispersion_set)
    grid = np.append(np.arange(lo, hi, 0.5), hi)
    values = qpm_mismatch(pump_nm, grid, crystal)
    finite = np.isfinite(values)

    def pair_at(signal_nm):
        residual = abs(float(qpm_mismatch(pump_nm, np.float64(signal_nm), crystal)))
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
    if bracket is None and hi == 2.0 * pump_nm and abs(float(values[-1])) <= 1e-6:
        return WavelengthPair(hi, hi, abs(float(values[-1])))
    if bracket is None:
        return None

    def mismatch(signal_nm):
        return float(qpm_mismatch(pump_nm, np.float64(signal_nm), crystal))

    return pair_at(float(brentq(mismatch, *bracket, xtol=1e-7)))


def degenerate_period(temp_c, pump_nm=PUMP_NM):
    """Poling period that phase-matches signal = idler = 2 * pump."""
    ds = default_dispersion_set()
    n_p = refractive_index(pump_nm, temp_c, ds)
    n_h = refractive_index(2 * pump_nm, temp_c, ds)
    return (pump_nm / 1000.0) / (n_p - n_h)


def oracle_index_squared(ds, wavelength_um, temperature_c):
    """DispersionSet.index_squared as the one expression it was before its split."""
    a1, a2, a3, a4, a5, a6 = ds.a
    b1, b2, b3, b4 = ds.b
    f = (temperature_c - ds.t_offset_c) * (temperature_c + ds.t_factor)
    lam2 = np.square(wavelength_um)
    return (
        a1
        + b1 * f
        + (a2 + b2 * f) / (lam2 - np.square(a3 + b3 * f))
        + (a4 + b4 * f) / (lam2 - a5 * a5)
        - a6 * lam2
    )


def table_with(tmp_path, **coefficients):
    """The bundled dispersion table with some coefficients replaced, loaded from tmp_path."""
    from importlib import resources

    text = resources.files("iuptools.data").joinpath("ppln_mgo5pct_e.txt").read_text()
    lines = []
    for line in text.splitlines():
        key = line.split("=")[0].strip()
        lines.append(f"{key} = {coefficients[key]}" if key in coefficients else line)
    path = tmp_path / "table.txt"
    path.write_text("\n".join(lines) + "\n")
    return load_dispersion_set(path)


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
        for nan in (np.nan, np.array([1064.0, np.nan])):
            with pytest.raises(ValueError, match="validity window"):
                refractive_index(nan, 25.0)

    @pytest.mark.parametrize(
        "wavelength_nm, shown",
        [
            (450.0, "wavelength 450.0 nm outside"),
            (np.array([1064.0, 4100.0, 450.0]), "wavelength 4100.0 nm (at index 1) outside"),
            (np.array([1064.0, np.nan, 450.0]), "wavelength nan nm (at index 1) outside"),
        ],
        ids=["scalar", "array", "nan-in-array"],
    )
    def test_window_fault_names_the_first_wavelength_outside(self, wavelength_nm, shown):
        with pytest.raises(ValueError, match=f"^{re.escape(shown)} the validity window"):
            refractive_index(wavelength_nm, 25.0)

    def test_sellmeier_split_keeps_its_bits(self):
        rng = np.random.default_rng(31)
        ds = default_dispersion_set()
        for temp in [20.0, 200.0, *rng.uniform(20.0, 200.0, 12)]:
            lam_nm = rng.uniform(500.0, 4000.0, 64)
            want = oracle_index_squared(ds, lam_nm / 1000.0, temp)
            assert np.array_equal(ds.index_squared(lam_nm / 1000.0, temp), want)
            assert np.array_equal(refractive_index(lam_nm, temp, ds), np.sqrt(want))
            for one in lam_nm[:4].tolist():
                want_one = oracle_index_squared(ds, one / 1000.0, temp)
                assert ds.index_squared(one / 1000.0, temp) == want_one
                assert refractive_index(one, temp, ds) == np.sqrt(want_one)
            pump_nm = float(rng.uniform(500.0, 1000.0))
            crystal = CrystalState(float(rng.uniform(4.0, 30.0)), temp, ds)
            signal = rng.uniform(*_signal_scan_bounds(pump_nm, ds), 64)
            idler = 1.0 / (1.0 / pump_nm - 1.0 / signal)
            n_p, n_s, n_i = (
                np.sqrt(oracle_index_squared(ds, lam / 1000.0, temp))
                for lam in (pump_nm, signal, idler)
            )
            terms = n_p * (1000.0 / pump_nm) - n_s * (1000.0 / signal) - n_i * (1000.0 / idler)
            want = 2.0 * np.pi * (terms - 1.0 / crystal.poling_period_um)
            assert np.array_equal(qpm_mismatch(pump_nm, signal, crystal), want)
            for one, value in zip(signal[:4].tolist(), want[:4].tolist()):
                assert qpm_mismatch(pump_nm, one, crystal) == value

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

    @pytest.mark.parametrize(
        "coefficients, shown",
        [
            ({"lambda_max_um": "nan"}, "key 'lambda_max_um' has invalid value 'nan'"),
            ({"a3": "inf"}, "key 'a3' has invalid value 'inf'"),
            ({"b2": "-inf"}, "key 'b2' has invalid value '-inf'"),
            ({"temp_min_c": "nan"}, "key 'temp_min_c' has invalid value 'nan'"),
            ({"lambda_min_um": "4.0"}, "lambda_min_um must be < lambda_max_um, got 4.0 and 4.0"),
            ({"temp_min_c": "250"}, "temp_min_c must be <= temp_max_c, got 250.0 and 200.0"),
        ],
        ids=["nan-window", "inf-a", "-inf-b", "nan-temperature", "empty-window", "reversed-temps"],
    )
    def test_bad_table_value_is_refused_at_load_by_file_and_key(self, tmp_path, coefficients,
                                                                shown):
        with pytest.raises(StackFormatError) as caught:
            table_with(tmp_path, **coefficients)
        assert str(caught.value) == f"dispersion table {tmp_path / 'table.txt'}: {shown}"

    @pytest.mark.parametrize(
        "change, shown",
        [
            ({"a": (1.0, 2.0, 3.0, 4.0, 5.0, np.nan)}, "a6 must be finite, got nan"),
            ({"b": (0.0, True, 0.0, 0.0)}, "b2 must be a real number, got True"),
            ({"t_factor": np.inf}, "t_factor must be finite, got inf"),
            ({"lambda_max_um": 0.5}, "lambda_min_um must be < lambda_max_um, got 0.5 and 0.5"),
        ],
        ids=["nan-a", "bool-b", "inf-field", "empty-window"],
    )
    def test_dispersion_set_is_checked_when_made(self, change, shown):
        with pytest.raises(ValueError, match=f"^{re.escape(shown)}$"):
            dataclasses.replace(default_dispersion_set(), **change)

    def test_malformed_line_is_reported(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("name x\n")
        with pytest.raises(ValueError, match="key = value"):
            load_dispersion_set(bad)

    def test_a_table_that_is_not_utf8_is_named(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"name = x\nreference = Gayer \xe9t al.\n")
        with pytest.raises(StackFormatError) as caught:
            load_dispersion_set(bad)
        want = f"dispersion table {bad}: not UTF-8 text (invalid continuation byte at byte 27)"
        assert str(caught.value) == want


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

    @pytest.mark.parametrize(
        "pump_nm, signal_nm",
        [(np.nan, 800.0), (PUMP_NM, np.nan), (PUMP_NM, [800.0, np.nan]), (0.0, 800.0)],
        ids=["nan-pump", "nan-signal", "nan-in-signals", "zero-pump"],
    )
    def test_wavelength_outside_the_window_is_refused(self, pump_nm, signal_nm):
        with pytest.raises(ValueError, match="validity window"):
            qpm_mismatch(pump_nm, signal_nm, CrystalState(7.40, 125.0))

    @pytest.mark.parametrize(
        "pump_nm, signal_nm, shown",
        [
            (450.0, 800.0, "pump 450.0 nm"),
            (PUMP_NM, 4500.0, "signal 4500.0 nm"),
            (PUMP_NM, [800.0, 4500.0, np.nan], "signal 4500.0 nm (at index 1)"),
            (PUMP_NM, [800.0, np.nan, 4500.0], "signal nan nm (at index 1)"),
            # the idler of a 540 nm signal lies near 35.9 um
            (PUMP_NM, 540.0, f"idler {idler_from_signal(PUMP_NM, 540.0)} nm"),
            (PUMP_NM, [800.0, 540.0], f"idler {idler_from_signal(PUMP_NM, 540.0)} nm (at index 1)"),
            # a signal at the pump has an idler of inf, refused with no divide warning
            (PUMP_NM, PUMP_NM, "idler inf nm"),
            (PUMP_NM, [800.0, PUMP_NM], "idler inf nm (at index 1)"),
            # zeros divide in numpy, with no ZeroDivisionError and no warning
            (0.0, 800.0, "pump 0.0 nm"),
            (PUMP_NM, 0.0, "signal 0.0 nm"),
            (0.0, 0.0, "pump 0.0 nm"),
        ],
        ids=["pump", "signal", "signal-in-array", "nan-in-signals", "idler", "idler-in-array",
             "signal-at-pump", "signal-at-pump-in-array", "zero-pump", "zero-signal",
             "zero-pump-and-signal"],
    )
    def test_window_fault_names_the_wavelength(self, pump_nm, signal_nm, shown):
        with pytest.raises(ValueError, match=f"^{re.escape(shown)} outside the validity window"):
            qpm_mismatch(pump_nm, signal_nm, CrystalState(7.40, 125.0))

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
            vals = qpm_mismatch(PUMP_NM, grid, crystal)
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

    @pytest.mark.parametrize("period", [np.inf, -np.inf, np.nan, 0.0, -7.4])
    def test_poling_period_must_be_finite_and_positive(self, period):
        with pytest.raises(ValueError, match="^poling_period_um must be finite and > 0$"):
            CrystalState(period, 25.0)

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


SYNTHETIC_SAMPLES = [
    ([1.0, np.nan, -1.0, 1.0], (2.0, 3.0)),  # no bracket across the NaN
    ([1.0, 0.0, -1.0], (1.0, 1.0)),  # exact zero at the left point
    ([2.0, 0.0, np.nan, 1.0], None),  # ... but not beside a NaN
    ([1.0, -1.0, 1.0], (0.0, 1.0)),  # first of two sign changes
    ([1.0, 2.0, 3.0], None),
    ([1.0, 2.0, 0.0], None),  # a zero at the last point is no root
]


def search_rows(rng):
    """Named rows of 40 samples and the levels to search them for, as (name, row, levels)."""
    n = 40
    rising = np.sort(rng.uniform(-1.0, 1.0, n))
    plateau = rising.copy()
    plateau[15:22] = plateau[15]
    wave = np.sin(np.linspace(0.0, 3.0 * np.pi, n)) + rng.uniform(-0.2, 0.2)
    walk = np.cumsum(rng.normal(size=n))
    random = rng.uniform(-2.0, 2.0, 12)
    return [
        ("plateau at the level", plateau, [plateau[15], plateau[15] + 1e-3, *random]),
        ("zero at the first point", rising, [rising[0]]),
        ("zero at an interior point", rising, [rising[17], -rising[17]]),
        ("zero at the last point", rising, [rising[-1]]),
        ("zero at the last point of a falling row", rising[::-1], [rising[0]]),
        ("two crossings", wave, [0.0, 0.5, -0.5, wave[0], *random]),
        ("monotone, never crossing", rising, [1.5, -1.5, 7.0]),
        ("level equal to the first point", walk, [walk[0]]),
        ("random walk at its own samples", walk, [*rng.choice(walk, 12), *(3 * random)]),
    ]


def oracle_first_roots(grid, rows, levels):
    """_first_roots as it was with both running extremes of every row, kept as an oracle."""
    last = grid.size - 1
    rise, fall = np.maximum.accumulate(rows, axis=1), -np.minimum.accumulate(rows, axis=1)
    up, down = np.empty((2, rows.shape[0], levels.size), dtype=np.intp)
    for t in range(rows.shape[0]):
        up[t], down[t] = rise[t].searchsorted(levels), fall[t].searchsorted(-levels)
    j = np.where(levels > rows[:, :1], up, down)
    k = np.minimum(j, last)
    zero = np.take_along_axis(rows, k, axis=1) == levels
    found = (j < last) | ((j == last) & ~zero)
    a, b = grid[np.where(zero, k, k - 1)], grid[k]
    for t in np.flatnonzero(~np.isfinite(rows).all(axis=1)):
        found[t], a[t], b[t] = _first_root(grid, 2.0 * np.pi * (rows[t] - levels[:, None]))
    return found.T, a.T, b.T


def shaped_rows(rng):
    """Named rows of 40 samples, each searched for levels below, at and above its first
    point and at every third of its own samples, as (name, row, levels)."""
    n = 40
    rising = np.sort(rng.uniform(-1.0, 1.0, n))
    plateau = rising.copy()
    plateau[:6] = plateau[0]
    plateau[15:22] = plateau[15]
    wave = np.sin(np.linspace(0.0, 3.0 * np.pi, n)) + rng.uniform(-0.2, 0.2)
    dip = np.concatenate([rising[::-1][: n // 2], rising[n // 2 :]])
    rising_nan, wave_nan = rising.copy(), wave.copy()
    rising_nan[20], wave_nan[[7, 30]] = np.nan, np.nan
    rows = [
        ("rising", rising),
        ("falling", rising[::-1]),
        ("constant", np.full(n, 0.25)),
        ("plateaus", plateau),
        ("falling plateaus", plateau[::-1]),
        ("signed zeros", np.array([-0.0, 0.0, -0.0, *np.linspace(0.1, 1.0, n - 3)])),
        ("wave", wave),
        ("dip", dip),
        ("random", rng.uniform(-1.0, 1.0, n)),
        ("rising, NaN", rising_nan),
        ("wave, NaN", wave_nan),
    ]
    table = []
    for name, row in rows:
        levels = [row[0] - 0.3, row[0], row[0] + 0.3, np.nextafter(row[0], 2.0), *row[::3]]
        table.append((name, row, np.array([v for v in levels if np.isfinite(v)])))
    return table


class TestFirstRoot:
    @pytest.mark.parametrize("values, want", SYNTHETIC_SAMPLES)
    def test_synthetic_samples(self, values, want):
        grid = np.arange(len(values), dtype=np.float64)
        found, a, b = _first_root(grid, np.array([values]))
        assert ((float(a[0]), float(b[0])) if found[0] else None) == want

    def test_rows_are_searched_independently(self):
        rows = np.array([[1.0, 0.0, -1.0], [1.0, -1.0, 1.0], [1.0, 2.0, 3.0], [1.0, 2.0, 0.0]])
        found, a, b = _first_root(np.arange(3.0), rows)
        assert found.tolist() == [True, True, False, False]
        assert (a[:2].tolist(), b[:2].tolist()) == ([1.0, 0.0], [1.0, 1.0])

    def test_sorted_search_matches_first_root(self):
        rng = np.random.default_rng(37)
        table = [(str(values), values, [0.0, 0.5, -0.5]) for values, _ in SYNTHETIC_SAMPLES]
        seeded = search_rows(rng)
        table += seeded
        kinds = set()
        for name, row, levels in table:
            row, levels = np.asarray(row, dtype=np.float64), np.asarray(levels, dtype=np.float64)
            grid = 600.0 + 0.5 * np.arange(row.size)
            found, a, b = _first_root(grid, 2.0 * np.pi * (row - levels[:, None]))
            got = _first_roots(grid, row[None], levels)
            assert got[0][:, 0].tolist() == found.tolist(), name
            assert got[1][found, 0].tolist() == a[found].tolist(), name
            assert got[2][found, 0].tolist() == b[found].tolist(), name
            kinds.update("zero" if x == y else "bracket" for x, y in zip(a[found], b[found]))
            if not found.all():
                kinds.add("none")
        assert kinds == {"zero", "bracket", "none"}
        # every row at once: each row is searched on its own
        rows = np.array([row for _, row, _ in seeded])
        levels = np.concatenate([levels for _, _, levels in seeded])
        grid = np.arange(rows.shape[1], dtype=np.float64)
        found, a, b = _first_roots(grid, rows, levels)
        for t, row in enumerate(rows):
            want = _first_root(grid, 2.0 * np.pi * (row - levels[:, None]))
            assert found[:, t].tolist() == want[0].tolist()
            assert a[want[0], t].tolist() == want[1][want[0]].tolist()
            assert b[want[0], t].tolist() == want[2][want[0]].tolist()

    def test_monotone_rows_match_both_running_extremes(self):
        table = shaped_rows(np.random.default_rng(47))
        grid = 600.0 + 0.5 * np.arange(40)
        for name, row, levels in table:
            want = oracle_first_roots(grid, row[None], levels)
            got = _first_roots(grid, row[None], levels)
            assert got[0].tolist() == want[0].tolist(), name
            assert got[1][want[0]].tolist() == want[1][want[0]].tolist(), name
            assert got[2][want[0]].tolist() == want[2][want[0]].tolist(), name
        # every row at once, each searched in the direction each level needs
        rows = np.array([row for _, row, _ in table])
        levels = np.concatenate([levels for _, _, levels in table])
        want = oracle_first_roots(grid, rows, levels)
        got = _first_roots(grid, rows, levels)
        assert got[0].tolist() == want[0].tolist()
        assert got[1][want[0]].tolist() == want[1][want[0]].tolist()
        assert got[2][want[0]].tolist() == want[2][want[0]].tolist()
        assert 0 < want[0].sum() < want[0].size

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


def seeded_brackets(rng, pump_nm, n):
    """Coarse-scan brackets of n random cells and fine-scan (last 2 nm) brackets of n cells
    within a few ppm of the degenerate period, as (period, temperature, a, b) arrays."""
    lo, hi = _signal_scan_bounds(pump_nm, default_dispersion_set())
    temps = rng.uniform(20.0, 200.0, 2 * n)
    near = np.array([degenerate_period(t, pump_nm) for t in temps[n:]])
    near *= 1 + rng.uniform(-3e-6, 3e-6, n)
    periods = np.concatenate([rng.uniform(*MATCHING_PERIODS_UM[pump_nm], n), near])
    coarse = np.append(np.arange(lo, hi, 0.5), hi)
    fine = np.linspace(max(lo, hi - 2.0), hi, 401)
    cells = []
    for grid, part in ((coarse, slice(0, n)), (fine, slice(n, 2 * n))):
        p, t = periods[part], temps[part]
        rows = [qpm_mismatch(pump_nm, grid, CrystalState(*cell)) for cell in zip(p, t)]
        found, a, b = _first_root(grid, np.array(rows))
        keep = found & (a < b)
        cells.append((p[keep], t[keep], a[keep], b[keep]))
    return [np.concatenate(column) for column in zip(*cells)]


class TestArrayBrent:
    def test_matches_scipy_brentq_bit_for_bit(self):
        rng = np.random.default_rng(41)
        ds = default_dispersion_set()
        total = near = 0
        for pump_nm in MATCHING_PERIODS_UM:
            periods, temps, a, b = seeded_brackets(rng, pump_nm, 550)

            def f(x, j):
                terms = _temperature_terms(pump_nm, temps[j], ds)
                return 2.0 * np.pi * (_mismatch_terms(pump_nm, x, terms, ds) - 1.0 / periods[j])

            got = _brentq(f, a, b)
            for i, (period, temp) in enumerate(zip(periods, temps)):
                crystal = CrystalState(period, temp)

                def mismatch(x):
                    return float(qpm_mismatch(pump_nm, np.float64(x), crystal))

                assert got[i] == brentq(mismatch, a[i], b[i], xtol=1e-7)
            total += a.size
            near += int(np.sum(b - a < 0.01))
        assert total >= 2000 and near >= 400

    @pytest.mark.parametrize(
        "g",
        [lambda d, k: k * d * d * d + 1e-3 * d, lambda d, k: d / (1.0 + k * d * d)],
        ids=["cubic", "rational"],
    )
    def test_matches_scipy_brentq_where_interpolation_fails(self, g):
        # flat and steep stretches make brentq reject interpolated steps and
        # bisect, a branch the smooth mismatch seldom reaches
        rng = np.random.default_rng(43)
        r, k = rng.uniform(-1.0, 1.0, 300), rng.uniform(0.5, 20.0, 300)
        a, b = r - rng.uniform(0.01, 3.0, 300), r + rng.uniform(0.01, 3.0, 300)
        got = _brentq(lambda x, j: g(x - r[j], k[j]), a, b)
        for i in range(300):
            want = brentq(lambda x: float(g(np.float64(x) - r[i], k[i])), a[i], b[i], xtol=1e-7)
            assert got[i] == want

    @pytest.mark.parametrize(
        "scalar, a, b",
        [(lambda x: 1.0 if x > 0.5 else -1.0, -1e30, 1e30)],  # no convergence in 100 steps
    )
    def test_errors_match_scipy_brentq(self, scalar, a, b):
        with pytest.raises(RuntimeError) as want:
            brentq(scalar, a, b, xtol=1e-7)
        with pytest.raises(RuntimeError, match=f"^{re.escape(str(want.value))}$"):
            _brentq(lambda x, j: np.array([scalar(v) for v in x]), np.array([a]), np.array([b]))

    def test_a_step_that_meets_nan_ends_its_bracket_alone(self):
        # a NaN stretch 0.05 wide within 0.55 of each root, which some brackets' steps
        # land in (brentq raises there) and others step over or never reach
        rng = np.random.default_rng(67)
        n = 300
        r, k = rng.uniform(-1.0, 1.0, n), rng.uniform(0.5, 20.0, n)
        hole = rng.uniform(-0.55, 0.5, n)
        a, b = r - rng.uniform(0.6, 3.0, n), r + rng.uniform(0.6, 3.0, n)

        def g(x, j):
            d = x - r[j]
            cubic = k[j] * d * d * d + 1e-3 * d
            return np.where((d > hole[j]) & (d < hole[j] + 0.05), np.nan, cubic)

        froot = np.empty(n)
        got = _brentq(g, a, b, froot)
        met_nan = 0
        for i in range(n):
            try:
                want = brentq(lambda x: float(g(np.float64(x), i)), a[i], b[i], xtol=1e-7)
            except ValueError as err:
                assert "is NaN; solver cannot continue" in str(err)
                assert np.isnan(got[i]) and np.isnan(froot[i])
                met_nan += 1
            else:
                assert got[i] == want and froot[i] == g(want, i)
        assert 0 < met_nan < n


class TestPolish:
    def test_no_bracket_returns_at_once(self):
        sizes = []

        def f(x, j):
            sizes.append(x.size)
            return x - 1.0

        froot = np.empty(0)
        assert _brentq(f, np.empty(0), np.empty(0), froot).size == 0
        assert len(sizes) <= 1 and not any(sizes)

    def test_f_at_each_root_is_handed_back(self):
        rng = np.random.default_rng(59)
        r, k = rng.uniform(-1.0, 1.0, 200), rng.uniform(0.5, 20.0, 200)
        a, b = r - rng.uniform(0.01, 3.0, 200), r + rng.uniform(0.01, 3.0, 200)

        def f(x, j):
            return k[j] * (x - r[j]) ** 3 + 1e-3 * (x - r[j])

        froot = np.full(200, np.nan)
        root = _brentq(f, a, b, froot)
        assert froot.tolist() == f(root, np.arange(200)).tolist()
        assert root.tolist() == _brentq(f, a, b).tolist()

    def test_residual_is_the_mismatch_at_the_root(self):
        # periods whose 1/Lambda equals a scan point of one row exactly: that row's
        # first root is the scan point itself, which Brent's method never polishes
        ds = default_dispersion_set()
        lo, hi = _signal_scan_bounds(PUMP_NM, ds)
        grid = np.append(np.arange(lo, hi, 0.5), hi)
        temps = [20.0, 100.0, 200.0]
        on_grid = {}
        for temp in temps:
            row = _mismatch_terms(PUMP_NM, grid, _temperature_terms(PUMP_NM, temp, ds), ds)
            for i in (150, 400, 650):
                if 1.0 / (1.0 / row[i]) == row[i] and row[i] > row[:i].max():
                    on_grid[(1.0 / row[i], temp)] = grid[i]
        assert len(on_grid) >= 3
        periods = [p for p, _ in on_grid] + [5.0, 7.4, 8.05, degenerate_period(100.0)]
        periods += np.linspace(6.9, 8.8, 12).tolist()
        kinds = set()
        for point in tuning_curve(PUMP_NM, periods, temps, ds):
            if point.pair is None:
                continue
            crystal = CrystalState(point.poling_period_um, point.temperature_c, ds)
            dk = qpm_mismatch(PUMP_NM, np.float64(point.pair.signal_nm), crystal)
            assert point.pair.residual_mismatch == abs(float(dk))
            cell = (point.poling_period_um, point.temperature_c)
            if cell in on_grid:
                assert point.pair.signal_nm == on_grid[cell] and dk == 0.0
            kinds.add("on grid" if cell in on_grid else "degenerate" if point.pair.degenerate else "polished")
        assert kinds == {"on grid", "degenerate", "polished"}

    def test_batched_fine_rows_equal_rows_per_temperature(self):
        ds = default_dispersion_set()
        lo, hi = _signal_scan_bounds(PUMP_NM, ds)
        fine = np.linspace(max(lo, hi - 2.0), hi, 401)
        by_temp = _temperature_terms(PUMP_NM, np.linspace(20.0, 200.0, 37), ds)
        rows = _mismatch_terms(PUMP_NM, fine, by_temp[:, :, None], ds)
        for t, row in enumerate(rows):
            assert row.tolist() == _mismatch_terms(PUMP_NM, fine, by_temp[:, t], ds).tolist()


def scan_grid(pump_nm, ds):
    """The pre-scan's 0.5 nm signal grid."""
    lo, hi = _signal_scan_bounds(pump_nm, ds)
    return np.append(np.arange(lo, hi, 0.5), hi)


def expression_rows(pump_nm, temps, ds):
    """Every temperature's scan row from _mismatch_terms, which allocates as it goes."""
    by_temp = _temperature_terms(pump_nm, np.asarray(temps), ds)
    return _mismatch_terms(pump_nm, scan_grid(pump_nm, ds), by_temp[:, :, None], ds)


class TestMismatchTermsIntoBuffers:
    """The pre-scan's rows, written into given buffers, are _mismatch_terms' allocated
    rows bit for bit."""

    @staticmethod
    def in_place(pump_nm, temps, ds):
        grid, by_temp = scan_grid(pump_nm, ds), _temperature_terms(pump_nm, np.asarray(temps), ds)
        # stale values in every buffer: a step that left one unwritten would show
        buffers = np.full((3, len(temps), grid.size), 7.0)
        rows = _mismatch_terms(pump_nm, grid, by_temp[:, :, None], ds, *buffers)
        assert np.shares_memory(rows, buffers[0])
        return buffers[0]

    @pytest.mark.parametrize("pump_nm", sorted(MATCHING_PERIODS_UM))
    def test_rows_equal_the_expressions_on_the_bundled_table(self, pump_nm):
        ds, temps = default_dispersion_set(), np.linspace(20.0, 200.0, 37)
        want = expression_rows(pump_nm, temps, ds)
        assert np.array_equal(self.in_place(pump_nm, temps, ds), want, equal_nan=True)

    def test_rows_that_are_not_finite_equal_the_expressions(self, tmp_path):
        # the pole table of test_rows_that_are_not_finite_match_reference_solve
        ds = table_with(tmp_path, a1=4.55, a4=-5.821011, a5=2.0, b4=1e-4)
        temps = np.arange(20.0, 200.5, 10.0)
        want = expression_rows(PUMP_NM, temps, ds)
        holds_nan = np.isnan(want).any(axis=1)
        assert holds_nan.any() and not holds_nan.all()
        assert np.array_equal(self.in_place(PUMP_NM, temps, ds), want, equal_nan=True)

    @pytest.mark.parametrize("rows_per_pass", [1, 3])
    def test_rows_of_every_pass_equal_the_expressions(self, monkeypatch, tmp_path, rows_per_pass):
        seen, real = [], qpm._first_roots

        def keeping(grid, scan_rows, levels):
            seen.append(scan_rows.copy())
            return real(grid, scan_rows, levels)

        monkeypatch.setattr(qpm, "_first_roots", keeping)
        monkeypatch.setattr(qpm, "_ROWS_PER_PASS", rows_per_pass)
        temps = np.linspace(20.0, 200.0, 10)
        pole = table_with(tmp_path, a1=4.55, a4=-5.821011, a5=2.0, b4=1e-4)
        for ds in (default_dispersion_set(), pole):
            seen.clear()
            tuning_curve(PUMP_NM, [7.4, 8.0], temps, ds)
            want = expression_rows(PUMP_NM, temps, ds)
            # the last pass is the shorter one where rows_per_pass does not divide 10
            assert [len(rows) for rows in seen] == [
                min(rows_per_pass, 10 - i) for i in range(0, 10, rows_per_pass)
            ]
            assert np.array_equal(np.concatenate(seen), want, equal_nan=True)
        assert np.isnan(want).any()  # the pole table's rows

    def test_public_mismatch_equals_the_rows_the_bracket_search_receives(
        self, monkeypatch, tmp_path
    ):
        seen, real = [], qpm._first_roots

        def keeping(grid, scan_rows, levels):
            seen.append(scan_rows.copy())
            return real(grid, scan_rows, levels)

        monkeypatch.setattr(qpm, "_first_roots", keeping)
        temps, periods = [20.0, 95.0, 170.0], [5.0, 7.4, 8.05]
        pole = table_with(tmp_path, a1=4.55, a4=-5.821011, a5=2.0, b4=1e-4)
        for ds in (default_dispersion_set(), pole):
            seen.clear()
            tuning_curve(PUMP_NM, periods, temps, ds)
            (rows,) = seen
            grid = scan_grid(PUMP_NM, ds)
            for temp, row in zip(temps, rows):
                for period in periods:
                    got = qpm_mismatch(PUMP_NM, grid, CrystalState(period, temp, ds))
                    want = 2.0 * np.pi * (row - 1.0 / period)
                    assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(rows).any()  # the pole table's rows


class TestResultObjects:
    def assert_same_object(self, got, want):
        assert type(got) is type(want)
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert list(vars(got).items()) == list(vars(want).items())
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
        assert dataclasses.replace(got) == want
        assert pickle.dumps(got) == pickle.dumps(want)
        assert pickle.loads(pickle.dumps(got)) == want
        for f in dataclasses.fields(got):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(got, f.name, getattr(got, f.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(got, f.name)

    def test_results_equal_ones_built_by_their_constructors(self):
        # matched, unmatched (5.0 um) and tangent (the degenerate period at 100 C) cells
        periods = [5.0, 7.4, degenerate_period(100.0)]
        points = tuning_curve(PUMP_NM, periods, [20.0, 100.0, 200.0])
        kinds = set()
        for point in points:
            pair = point.pair
            built_pair = None
            if pair is not None:
                # from Python floats, so that a numpy scalar in a result shows in its repr
                values = pair.signal_nm, pair.idler_nm, pair.residual_mismatch
                built_pair = WavelengthPair(*map(float, values))
                self.assert_same_object(pair, built_pair)
                assert dataclasses.replace(pair, residual_mismatch=0.0) == dataclasses.replace(
                    built_pair, residual_mismatch=0.0
                )
            # a matched cell's note is the field's default
            args = float(point.poling_period_um), float(point.temperature_c), built_pair
            built = TuningPoint(*args, point.note) if point.note else TuningPoint(*args)
            self.assert_same_object(point, built)
            kinds.add("none" if pair is None else "degenerate" if pair.degenerate else "pair")
        assert kinds == {"none", "degenerate", "pair"}


# pumps outside the bundled table's 0.5-4 um window, or no wavelength at all
BAD_PUMPS_NM = [0.0, np.nan, -532.0, np.inf, 450.0, 4500.0]


class TestTuningCurve:
    @pytest.mark.parametrize("pump_nm", BAD_PUMPS_NM)
    def test_pump_outside_the_window_is_refused(self, pump_nm):
        shown = f"^pump {float(pump_nm)} nm outside the validity window"
        with pytest.raises(ValueError, match=shown):
            tuning_curve(pump_nm, [7.4], [25.0])
        with pytest.raises(ValueError, match=shown):
            solve_signal_idler(pump_nm, CrystalState(7.4, 25.0))

    @pytest.mark.parametrize(
        "periods, temps",
        [
            ([7.4], [10.0]),
            ([0.0, 7.4], [25.0]),
            ([7.4, -1.0], [10.0, 25.0]),
            ([7.4, 8.0], [25.0, 300.0, 10.0]),
            ([7.4, 8.0, -2.0, 0.0], [25.0, 30.0]),
            ([7.4, np.nan], [25.0]),
            ([np.nan, 7.4], [25.0, 300.0]),
            ([7.4], [25.0, np.nan, 300.0]),
            ([8.0, 7.4, -np.inf], [np.inf, 25.0]),
            ([7.4, np.inf], [25.0]),
            ([np.inf, 7.4], [25.0, 300.0]),
        ],
    )
    def test_grid_check_names_the_first_bad_cell(self, periods, temps):
        # the error of the first cell, in (period, T) order, that CrystalState refuses
        ps, ts = sorted(map(float, periods)), sorted(map(float, temps))
        for cell in [(ps[0], t) for t in ts] + [(p, ts[0]) for p in ps[1:]]:
            try:
                CrystalState(*cell)
            except ValueError as err:
                want = str(err)
                break
        with pytest.raises(ValueError) as caught:
            tuning_curve(PUMP_NM, periods, temps)
        assert str(caught.value) == want

    @pytest.mark.parametrize(
        "call, name, value",
        [
            (lambda c: tuning_curve(532, [True], [25.0]), "poling_periods_um[0]", True),
            (lambda c: tuning_curve(532, ["7.4"], [25.0]), "poling_periods_um[0]", "7.4"),
            (lambda c: tuning_curve(532, [7.4], ["25"]), "temperatures_c[0]", "25"),
            (lambda c: refractive_index("1550", 25.0), "wavelength_nm", "1550"),
            (lambda c: qpm_mismatch(532.0, "800", c), "signal_nm", "800"),
            (lambda c: refractive_index(1550.0, "25"), "temperature_c", "25"),
            (lambda c: qpm_mismatch("532", 800.0, c), "pump_nm", "532"),
            (lambda c: solve_signal_idler("532", c), "pump_nm", "532"),
        ],
        ids=[
            "tuning_curve-bool-period", "tuning_curve-str-period", "tuning_curve-str-temperature",
            "refractive_index-str-wavelength", "qpm_mismatch-str-signal",
            "refractive_index-str-temperature", "qpm_mismatch-str-pump",
            "solve_signal_idler-str-pump",
        ],
    )
    def test_a_value_that_is_no_number_is_refused_by_name(self, call, name, value):
        shown = f"{name} must be a real number, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(shown)}$"):
            call(CrystalState(7.4, 25.0))

    def test_a_bool_among_numbers_is_refused_at_its_index(self):
        shown = f"poling_periods_um[1] must be a real number, got {np.True_!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(shown)}$"):
            tuning_curve(PUMP_NM, [7.4, np.True_], [25.0])
        shown = "wavelength_nm[1, 0] must be a real number, got True"
        with pytest.raises(ValueError, match=f"^{re.escape(shown)}$"):
            refractive_index(np.array([[1064.0, 900.0], [True, 1000.0]], dtype=object), 25.0)

    @pytest.mark.parametrize(
        "periods, temps, shown",
        [
            (7.4, [25.0], "poling_periods_um must be a 1-D sequence of numbers, got 7.4"),
            (
                np.full((2, 2), 7.4), [25.0],
                "poling_periods_um must be a 1-D sequence of numbers, got an array of shape (2, 2)",
            ),
            ([7.4], 25.0, "temperatures_c must be a 1-D sequence of numbers, got 25.0"),
            (
                [7.4, [7.5, 7.6]], [25.0],
                "poling_periods_um must be a 1-D sequence of numbers, got [7.4, [7.5, 7.6]]",
            ),
            (
                [7.4], [[25.0], [30.0]],
                "temperatures_c must be a 1-D sequence of numbers, got [[25.0], [30.0]]",
            ),
        ],
        ids=["scalar-periods", "2d-periods", "scalar-temperatures", "nested-periods", "2d-temperatures"],
    )
    def test_a_grid_that_is_not_1d_is_refused_by_name(self, periods, temps, shown):
        with pytest.raises(ValueError, match=f"^{re.escape(shown)}$"):
            tuning_curve(PUMP_NM, periods, temps)

    @pytest.mark.parametrize("periods, temps", [([], [25.0]), ([7.4], []), ((), ())])
    def test_an_empty_grid_is_refused(self, periods, temps):
        shown = "^poling period and temperature grids must be non-empty$"
        with pytest.raises(ValueError, match=shown):
            tuning_curve(PUMP_NM, periods, temps)

    def test_grid_check_constructs_no_crystal_state(self, monkeypatch):
        made, real = [], qpm.CrystalState

        def counting(*args, **kwargs):
            made.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(qpm, "CrystalState", counting)
        points = tuning_curve(PUMP_NM, [7.4], np.linspace(20.0, 200.0, 10_000))
        assert len(points) == 10_000
        assert made == []

    def test_pump_in_the_window_without_a_signal_range_is_noted(self):
        # 2.1 um: every idler of a signal between the pump and 4 um lies past 4 um
        (point,) = tuning_curve(2100.0, [7.4], [25.0])
        assert point.pair is None and "no scannable signal range" in point.note

    def test_grid_matches_reference_solve(self):
        wide = [20.0, 110.0, 200.0]
        grids = [
            # unmatched periods, a degenerate period and both sides of the tangency fallback
            (PUMP_NM, [5.0, 6.5, 6.8, 7.4, 8.05, 9.0, degenerate_period(100.0)], [20.0, 100.0, 200.0]),
            # 775 nm near 20.6 um: two sign changes
            (775.0, [20.3, 20.45, 20.6, 20.75, 21.0], [170.0, 180.0, 190.0, 200.0]),
            # matched, unmatched and degenerate periods at two more pumps
            (600.0, [8.0, 9.5, 11.0, 12.5, 14.5, 16.0, degenerate_period(110.0, 600.0)], wide),
            (1000.0, [25.0, 27.0, 28.5, 30.3, 32.0, degenerate_period(110.0, 1000.0)], wide),
        ]
        kinds = set()
        for pump_nm, periods, temps in grids:
            for point in tuning_curve(pump_nm, periods, temps):
                crystal = CrystalState(point.poling_period_um, point.temperature_c)
                want = reference_solve(pump_nm, crystal)
                assert point.pair == want
                assert bool(point.note) == (want is None)
                kind = "none" if want is None else "degenerate" if want.degenerate else "pair"
                kinds.add((pump_nm, kind))
        assert {kind for _, kind in kinds} == {"none", "degenerate", "pair"}
        assert {pump for pump, kind in kinds if kind == "pair"} == {PUMP_NM, 600.0, 775.0, 1000.0}

    def test_one_period_over_many_temperatures_matches_reference_solve(self):
        # 2000 temperatures: 32 passes of scan rows for a single level each
        temps = np.sort(np.append(np.linspace(20.0, 200.0, 1999), 110.0))
        rng = np.random.default_rng(61)
        sampled = [0, 1999, int(np.flatnonzero(temps == 110.0)[0]), *rng.choice(2000, 20)]
        kinds = set()
        for period in (7.4, 5.5, degenerate_period(110.0)):
            points = tuning_curve(PUMP_NM, [period], temps)
            assert [p.temperature_c for p in points] == temps.tolist()
            for i in sampled:
                point = points[i]
                want = reference_solve(PUMP_NM, CrystalState(period, point.temperature_c))
                assert point.pair == want
                assert bool(point.note) == (want is None)
                kinds.add("none" if want is None else "degenerate" if want.degenerate else "pair")
        assert kinds == {"none", "degenerate", "pair"}

    def test_rows_that_are_not_finite_match_reference_solve(self, tmp_path):
        # the second Sellmeier pole at 2 um, inside the idler's 1.06-4 um scan range, with
        # a strength a4 + b4 f that vanishes near 110 C: rows at the other temperatures
        # hold NaN where n^2 < 0 beside the pole, and go through _first_root
        ds = table_with(tmp_path, a1=4.55, a4=-5.821011, a5=2.0, b4=1e-4)
        temps = np.arange(20.0, 200.5, 10.0)
        lo, hi = _signal_scan_bounds(PUMP_NM, ds)
        grid = np.append(np.arange(lo, hi, 0.5), hi)
        rows = [qpm_mismatch(PUMP_NM, grid, CrystalState(7.0, t, ds)) for t in temps]
        holds_nan = [bool(np.isnan(row).any()) for row in rows]
        assert any(holds_nan) and not all(holds_nan)
        kinds = set()
        for point in tuning_curve(PUMP_NM, np.linspace(4.0, 14.0, 15), temps, ds):
            crystal = CrystalState(point.poling_period_um, point.temperature_c, ds)
            want = reference_solve(PUMP_NM, crystal)
            assert point.pair == want
            assert bool(point.note) == (want is None)
            row_holds_nan = holds_nan[int(np.flatnonzero(temps == point.temperature_c)[0])]
            kinds.add(("none" if want is None else "pair", row_holds_nan))
        assert kinds == {("none", True), ("pair", True), ("none", False), ("pair", False)}

    def test_tangency_rows_that_are_not_finite_match_reference_solve(self, tmp_path):
        # the second Sellmeier pole at the degenerate 1.064 um: every fine row of the
        # tangency scan holds NaN or an infinity beside it and goes through _first_root
        ds = table_with(tmp_path, a4=-1e-5, a5=1.064, b4=0.0)
        temps = np.arange(20.0, 200.5, 10.0)
        lo, hi = _signal_scan_bounds(PUMP_NM, ds)
        fine = np.linspace(max(lo, hi - 2.0), hi, 401)
        for t in temps:
            assert not np.isfinite(qpm_mismatch(PUMP_NM, fine, CrystalState(7.0, t, ds))).all()
        kinds = set()
        for point in tuning_curve(PUMP_NM, np.linspace(4.0, 14.0, 21), temps, ds):
            want = reference_solve(PUMP_NM, CrystalState(point.poling_period_um, point.temperature_c, ds))
            assert point.pair == want
            assert bool(point.note) == (want is None)
            kinds.add("none" if want is None else "pair")
        assert kinds == {"none", "pair"}

    def test_a_pair_beside_a_pole_at_degeneracy_is_unmatched(self, tmp_path):
        # a sign change between points of a finer row next to the pole is no longer
        # searched for: the cell is unmatched, as its 0.5 nm scan row shows
        ds = table_with(tmp_path, a4=-1e-5, a5=1.064, b4=0.0)
        (point,) = tuning_curve(PUMP_NM, [7.0], [140.0], ds)
        assert point.pair is None
        assert "(mismatch spans [" in point.note and "over signal 613.6..1064.0 nm)" in point.note
        assert reference_solve(PUMP_NM, CrystalState(7.0, 140.0, ds)) is None

    @pytest.mark.parametrize("rows", [64, 2])
    def test_one_bracket_search_per_pass_of_temperatures(self, monkeypatch, rows):
        calls, real = [], qpm._first_roots

        def counting(grid, scan_rows, levels):
            calls.append(scan_rows.shape[0])
            return real(grid, scan_rows, levels)

        monkeypatch.setattr(qpm, "_first_roots", counting)
        monkeypatch.setattr(qpm, "_ROWS_PER_PASS", rows)
        temps = [20.0, 60.0, 100.0, 150.0, 200.0]
        points = tuning_curve(PUMP_NM, [5.0, 7.4, degenerate_period(100.0)], temps)
        pairs = [p.pair for p in points]
        kinds = {"none" if p is None else "degenerate" if p.degenerate else "pair" for p in pairs}
        assert kinds == {"none", "degenerate", "pair"}
        assert calls == [min(rows, len(temps) - i) for i in range(0, len(temps), rows)]

    def test_a_nan_stretch_inside_a_bracket_fails_its_cell_alone(self, tmp_path):
        # the second Sellmeier pole at 1.9648 um puts a stretch of n^2 < 0 strictly
        # between two scan points of opposite sign, near a signal of 729.6 nm
        ds = table_with(tmp_path, a1=4.55, a4=0.01, a5=1.9648, b4=1e-7)
        points = tuning_curve(PUMP_NM, np.linspace(4.0, 14.0, 30), np.arange(20.0, 200.5, 5.0), ds)
        gaps = [p for p in points if "(mismatch is not finite between signal" in p.note]
        assert gaps and all(p.pair is None for p in gaps)
        for point in points:
            crystal = CrystalState(point.poling_period_um, point.temperature_c, ds)
            if point in gaps:
                with pytest.raises(ValueError, match="is NaN; solver cannot continue"):
                    reference_solve(PUMP_NM, crystal)
                with pytest.raises(PhaseMatchError, match=f"^{re.escape(point.note)}$"):
                    solve_signal_idler(PUMP_NM, crystal)
            else:
                assert point.pair == reference_solve(PUMP_NM, crystal)
                assert bool(point.note) == (point.pair is None)

    def test_rows_with_no_finite_value_are_noted(self, tmp_path):
        ds = table_with(tmp_path, a1=-100.0)  # n^2 < 0 at every wavelength
        points = tuning_curve(PUMP_NM, [7.4, 8.0], [20.0, 200.0], ds)
        assert [p.pair for p in points] == [None] * 4
        assert all(p.note.endswith("(mismatch is not finite anywhere in the scanned range)") for p in points)

    def test_memory_does_not_grow_with_the_grid(self):
        # one unblocked (cells x scan points) float64 array would be 72 MB
        periods = np.linspace(*MATCHING_PERIODS_UM[PUMP_NM], 2000)
        tracemalloc.start()
        try:
            points = tuning_curve(PUMP_NM, periods, [20.0, 65.0, 110.0, 155.0, 200.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(points) == 10_000
        assert peak < 64 * 2**20

    @pytest.mark.parametrize(
        "case", ["temperatures", "rows that are not finite", "tangency fallback"]
    )
    def test_memory_does_not_grow_along_either_axis(self, case, tmp_path):
        ds, periods, temps = default_dispersion_set(), [7.4], np.linspace(20.0, 200.0, 10_000)
        if case == "rows that are not finite":
            # the table of test_rows_that_are_not_finite_match_reference_solve
            ds = table_with(tmp_path, a1=4.55, a4=-5.821011, a5=2.0, b4=1e-4)
            periods, temps = np.linspace(4.0, 14.0, 2000), [20.0]
            lo, hi = _signal_scan_bounds(PUMP_NM, ds)
            row = qpm_mismatch(PUMP_NM, np.linspace(lo, hi, 902), CrystalState(7.0, 20.0, ds))
            assert np.isnan(row).any()
        elif case == "tangency fallback":
            periods, temps = np.linspace(5.0, 6.0, 3000), [25.0]
        # one (temperatures or periods) x (scan points) float64 array would be 72, 14 or
        # (at 401 fine points) 10 MB
        tracemalloc.start()
        try:
            points = tuning_curve(PUMP_NM, periods, temps, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(points) == len(periods) * len(temps)
        if case == "tangency fallback":
            assert all(p.pair is None for p in points)
        assert peak < 16 * 2**20

    def test_rows_per_pass_do_not_change_the_result(self, monkeypatch, tmp_path):
        # matched, unmatched (tangency fallback) and degenerate cells, and rows with NaN
        periods = [*np.linspace(5.0, 6.0, 7), 7.4, 8.05, degenerate_period(100.0)]
        pole = table_with(tmp_path, a1=4.55, a4=-5.821011, a5=2.0, b4=1e-4)
        grids = [(periods, np.linspace(20.0, 200.0, 10), None), (periods, [20.0, 110.0], pole)]
        want = [tuning_curve(PUMP_NM, *grid) for grid in grids]
        for rows in (1, 3):
            monkeypatch.setattr("iuptools.qpm._ROWS_PER_PASS", rows)
            assert [tuning_curve(PUMP_NM, *grid) for grid in grids] == want

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

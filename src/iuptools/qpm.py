"""Quasi-phase-matched SPDC wavelength planning for periodically poled LiNbO3.

Signal/idler pairs follow from energy conservation (1/lp = 1/ls + 1/li) and
the collinear first-order type-0 QPM condition

    dk = 2 pi (n_p/lp - n_s/ls - n_i/li - 1/Lambda)    [1/um, lengths in um]

with all indices extraordinary. The dispersion data ships as a plain-text
coefficient table (see data/ppln_mgo5pct_e.txt for the provenance citation);
alternative tables in the same format can be substituted per crystal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from .stackio import _field, _key_values

__all__ = [
    "DispersionSet",
    "CrystalState",
    "WavelengthPair",
    "TuningPoint",
    "PhaseMatchError",
    "load_dispersion_set",
    "default_dispersion_set",
    "idler_from_signal",
    "refractive_index",
    "qpm_mismatch",
    "solve_signal_idler",
    "tuning_curve",
    "tuning_table_csv",
]

_DEFAULT_SET_RESOURCE = "ppln_mgo5pct_e.txt"
_SCAN_STEP_NM = 0.5
_ROOT_TOL_NM = 1e-7
_DEGENERATE_TOL = 1e-6  # 1/um


class PhaseMatchError(RuntimeError):
    """No quasi-phase-matched solution in the scanned signal range."""


@dataclass(frozen=True)
class DispersionSet:
    """Named Sellmeier coefficient table with thermal terms and validity window."""

    name: str
    reference: str
    a: tuple[float, float, float, float, float, float]
    b: tuple[float, float, float, float]
    t_offset_c: float
    t_factor: float
    lambda_min_um: float
    lambda_max_um: float
    temp_min_c: float
    temp_max_c: float

    def index_squared(self, wavelength_um, temperature_c: float):
        a1, a2, a3, a4, a5, a6 = self.a
        b1, b2, b3, b4 = self.b
        f = (temperature_c - self.t_offset_c) * (temperature_c + self.t_factor)
        lam2 = np.square(wavelength_um)
        return (
            a1
            + b1 * f
            + (a2 + b2 * f) / (lam2 - np.square(a3 + b3 * f))
            + (a4 + b4 * f) / (lam2 - a5 * a5)
            - a6 * lam2
        )


def load_dispersion_set(path: str | Path) -> DispersionSet:
    """Load a coefficient table from a key/value text file."""
    return _set_from_text(Path(path).read_text(encoding="utf-8"), str(path))


def _set_from_text(text: str, source: str) -> DispersionSet:
    source = f"dispersion table {source}"
    values = _key_values(text, source)
    floats = [f.name for f in fields(DispersionSet) if f.type == "float"]
    return DispersionSet(
        name=_field(values, "name", source),
        reference=values.get("reference", ""),
        a=tuple(_field(values, f"a{i}", source, float) for i in range(1, 7)),
        b=tuple(_field(values, f"b{i}", source, float) for i in range(1, 5)),
        **{key: _field(values, key, source, float) for key in floats},
    )


@functools.cache
def default_dispersion_set() -> DispersionSet:
    """The bundled 5% MgO-doped congruent LiNbO3 extraordinary-index table.

    The table is read once; every call returns the same frozen instance.
    """
    text = (
        resources.files("iuptools.data").joinpath(_DEFAULT_SET_RESOURCE).read_text(encoding="utf-8")
    )
    return _set_from_text(text, _DEFAULT_SET_RESOURCE)


@dataclass
class CrystalState:
    """Poling period, oven temperature and the dispersion data in force."""

    poling_period_um: float
    temperature_c: float
    dispersion_set: DispersionSet = field(default_factory=default_dispersion_set)

    def __post_init__(self) -> None:
        if not self.poling_period_um > 0:
            raise ValueError("poling_period_um must be > 0")
        _check_window(self.dispersion_set, self.temperature_c)


@dataclass(frozen=True)
class WavelengthPair:
    """A phase-matched (signal, idler) solution and its residual mismatch."""

    signal_nm: float
    idler_nm: float
    residual_mismatch: float  # |dk| at the solution, 1/um

    @property
    def degenerate(self) -> bool:
        return self.signal_nm == self.idler_nm


@dataclass(frozen=True)
class TuningPoint:
    """One cell of a tuning grid; pair is None where nothing phase-matches."""

    poling_period_um: float
    temperature_c: float
    pair: WavelengthPair | None
    note: str = ""


def idler_from_signal(pump_nm: float, signal_nm: float) -> float:
    """Energy-conservation partner wavelength 1/(1/pump - 1/signal)."""
    if not 0 < pump_nm < signal_nm:
        raise ValueError(
            f"signal ({signal_nm} nm) must exceed the pump ({pump_nm} nm); "
            "both photons carry less energy than the pump"
        )
    return 1.0 / (1.0 / pump_nm - 1.0 / signal_nm)


def _check_window(ds: DispersionSet, temperature_c: float, *wavelengths_nm) -> None:
    """Raise ValueError for the temperature or a wavelength (nm) outside ds's window."""
    if not ds.temp_min_c <= temperature_c <= ds.temp_max_c:
        raise ValueError(
            f"temperature {temperature_c} C outside the validity range "
            f"[{ds.temp_min_c}, {ds.temp_max_c}] C of dispersion set {ds.name}"
        )
    for lam_nm in wavelengths_nm:
        lam_um = np.asarray(lam_nm, dtype=np.float64) / 1000.0
        if np.any(lam_um < ds.lambda_min_um) or np.any(lam_um > ds.lambda_max_um):
            raise ValueError(
                f"wavelength outside the validity window "
                f"[{ds.lambda_min_um}, {ds.lambda_max_um}] um of dispersion set {ds.name}"
            )


def refractive_index(wavelength_nm, temperature_c: float, dispersion_set: DispersionSet | None = None):
    """Extraordinary index at the given wavelength(s) and temperature.

    Accepts scalar or array wavelengths (nm). Raises for values outside the
    set's declared validity window.
    """
    ds = dispersion_set if dispersion_set is not None else default_dispersion_set()
    _check_window(ds, temperature_c, wavelength_nm)
    lam_um = np.asarray(wavelength_nm, dtype=np.float64) / 1000.0
    n = np.sqrt(ds.index_squared(lam_um, temperature_c))
    return float(n) if np.isscalar(wavelength_nm) else n


def _mismatch_unchecked(pump_nm: float, signal: np.ndarray, crystal: CrystalState) -> np.ndarray:
    # raw mismatch without validity-window errors: out-of-window wavelengths
    # drive the Sellmeier form negative and come out as NaN, which the
    # bracket scan simply skips
    ds = crystal.dispersion_set
    idler = 1.0 / (1.0 / pump_nm - 1.0 / signal)
    with np.errstate(invalid="ignore", divide="ignore"):
        n_p = np.sqrt(ds.index_squared(pump_nm / 1000.0, crystal.temperature_c))
        n_s = np.sqrt(ds.index_squared(signal / 1000.0, crystal.temperature_c))
        n_i = np.sqrt(ds.index_squared(idler / 1000.0, crystal.temperature_c))
        dk = 2.0 * np.pi * (
            n_p * (1000.0 / pump_nm)
            - n_s * (1000.0 / signal)
            - n_i * (1000.0 / idler)
            - 1.0 / crystal.poling_period_um
        )
    return dk


def qpm_mismatch(pump_nm: float, signal_nm, crystal: CrystalState):
    """Signed collinear first-order QPM mismatch in 1/um.

    The idler follows from energy conservation; signal_nm may be an array.
    Raises for wavelengths outside the dispersion set's validity window.
    """
    signal = np.asarray(signal_nm, dtype=np.float64)
    idler = 1.0 / (1.0 / pump_nm - 1.0 / signal)
    _check_window(crystal.dispersion_set, crystal.temperature_c, pump_nm, signal, idler)
    dk = _mismatch_unchecked(pump_nm, signal, crystal)
    return float(dk) if np.isscalar(signal_nm) else dk


def _signal_scan_bounds(pump_nm: float, ds: DispersionSet) -> tuple[float, float]:
    # keep signal and the implied idler inside the dispersion validity window;
    # scanning past it puts the Sellmeier form under its poles and yields NaN
    lam_min_nm = ds.lambda_min_um * 1000.0
    lam_max_nm = ds.lambda_max_um * 1000.0
    degenerate = 2.0 * pump_nm
    lo = max(lam_min_nm, pump_nm * 1.01)
    if 1.0 / pump_nm > 1.0 / lam_max_nm:
        lo = max(lo, 1.0 / (1.0 / pump_nm - 1.0 / lam_max_nm))
    hi = min(degenerate, lam_max_nm)
    if not lo < hi:
        raise PhaseMatchError(
            f"no scannable signal range for pump {pump_nm} nm inside dispersion "
            f"window [{ds.lambda_min_um}, {ds.lambda_max_um}] um"
        )
    return lo, hi


def _first_root(grid: np.ndarray, values: np.ndarray) -> tuple[float, float] | None:
    """First root of sampled values, looking only at neighbour pairs that are both finite.

    Returns (x, x) for an exact zero at the left point x, (a, b) for a sign
    change between neighbours a and b, or None.
    """
    left, right = values[:-1], values[1:]
    hits = np.isfinite(left) & np.isfinite(right) & ((left == 0.0) | (left * right < 0.0))
    if not hits.any():
        return None
    i = int(np.argmax(hits))
    return float(grid[i]), float(grid[i if left[i] == 0.0 else i + 1])


def solve_signal_idler(pump_nm: float, crystal: CrystalState) -> WavelengthPair:
    """Find the non-degenerate phase-matched pair for a pump wavelength.

    A 0.5 nm pre-scan of the mismatch over the valid signal range brackets a
    sign change; the root is then polished by Brent's method to better than
    0.01 nm. The mismatch is tangent to zero at degeneracy (its derivative
    vanishes at signal = 2 pump by signal/idler symmetry), so when no sign
    change exists the degenerate point itself is checked before giving up.
    """
    lo, hi = _signal_scan_bounds(pump_nm, crystal.dispersion_set)
    grid = np.append(np.arange(lo, hi, _SCAN_STEP_NM), hi)
    values = _mismatch_unchecked(pump_nm, grid, crystal)
    bracket = _first_root(grid, values)

    if bracket is None and hi == 2.0 * pump_nm:
        # tangency fallback: refine near the degenerate edge
        fine = np.linspace(max(lo, hi - 2.0), hi, 401)
        fine_vals = _mismatch_unchecked(pump_nm, fine, crystal)
        bracket = _first_root(fine, fine_vals)
        if bracket is None and abs(float(fine_vals[-1])) <= _DEGENERATE_TOL:
            return WavelengthPair(hi, hi, abs(float(fine_vals[-1])))

    if bracket is None:
        shown = values[np.isfinite(values)]
        detail = (
            f"mismatch spans [{shown.min():.6g}, {shown.max():.6g}] 1/um "
            f"over signal {lo:.1f}..{hi:.1f} nm"
            if shown.size
            else "mismatch is not finite anywhere in the scanned range"
        )
        raise PhaseMatchError(
            f"no phase matching for pump {pump_nm} nm at poling period "
            f"{crystal.poling_period_um} um, {crystal.temperature_c} C ({detail})"
        )

    def mismatch(signal_nm: float) -> float:
        return float(_mismatch_unchecked(pump_nm, np.float64(signal_nm), crystal))

    signal_nm, b = bracket
    if signal_nm < b:
        signal_nm = brentq(mismatch, signal_nm, b, xtol=_ROOT_TOL_NM)
    idler_nm = idler_from_signal(pump_nm, signal_nm)
    return WavelengthPair(signal_nm, idler_nm, abs(mismatch(signal_nm)))


def tuning_curve(
    pump_nm: float,
    poling_periods_um,
    temperatures_c,
    dispersion_set: DispersionSet | None = None,
) -> list[TuningPoint]:
    """Solve every (poling period, temperature) grid cell, ordered by (period, T).

    Cells without a solution carry pair=None and a note instead of raising.
    """
    ds = dispersion_set if dispersion_set is not None else default_dispersion_set()
    periods = sorted(float(p) for p in poling_periods_um)
    temps = sorted(float(t) for t in temperatures_c)
    if not periods or not temps:
        raise ValueError("poling period and temperature grids must be non-empty")
    points: list[TuningPoint] = []
    for period in periods:
        for temp in temps:
            crystal = CrystalState(period, temp, ds)
            try:
                pair = solve_signal_idler(pump_nm, crystal)
                points.append(TuningPoint(period, temp, pair))
            except PhaseMatchError as err:
                points.append(TuningPoint(period, temp, None, note=str(err)))
    return points


def tuning_table_csv(points: list[TuningPoint]) -> str:
    """Render a tuning grid as CSV (empty wavelength cells where unmatched)."""
    lines = ["poling_period_um,temperature_C,signal_nm,idler_nm,residual"]
    for pt in points:
        if pt.pair is None:
            lines.append(f"{pt.poling_period_um:.4f},{pt.temperature_c:.2f},,,")
        else:
            lines.append(
                f"{pt.poling_period_um:.4f},{pt.temperature_c:.2f},"
                f"{pt.pair.signal_nm:.4f},{pt.pair.idler_nm:.4f},"
                f"{pt.pair.residual_mismatch:.3e}"
            )
    return "\n".join(lines) + "\n"

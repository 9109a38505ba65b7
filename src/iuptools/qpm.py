"""Quasi-phase-matched SPDC wavelength planning for periodically poled LiNbO3.

Signal/idler pairs follow from energy conservation (1/lp = 1/ls + 1/li) and
the collinear first-order type-0 QPM condition

    dk = 2 pi (n_p/lp - n_s/ls - n_i/li - 1/Lambda)    [1/um, lengths in um]

with all indices extraordinary. The dispersion data ships as a plain-text
coefficient table (see data/ppln_mgo5pct_e.txt for the provenance citation);
alternative tables in the same format can be substituted per crystal.

A tuning grid is solved in array passes. The Sellmeier terms that depend on
temperature alone, and the pump's index, are evaluated once per temperature.
The period-free part of dk is scanned once per temperature over a 0.5 nm
signal grid, and every period's first sign change on that row is found by one
sorted search in the row's running maximum or minimum. A row that is monotone
in the direction a period needs is its own running extreme and is searched as
it is; a row holding a non-finite value is scanned pair by pair instead. A cell
left unmatched where the scan ends at degeneracy, where dk is tangent to zero,
is solved there when |dk| <= 1e-6 1/um at that point. At most _ROWS_PER_PASS
rows (of temperatures, or of periods in the pair-by-pair scan) are held at once,
so memory does not grow with either side of the grid. One evaluator of the
mismatch, _mismatch_terms, serves the pre-scan (writing a pass's rows into arrays
made once per grid), Brent's method and qpm_mismatch. One run of Brent's method
(scipy's brentq, step for step) polishes all bracketed roots together and hands
back dk at each root as its residual; a bracket whose step meets NaN ends there
with no root, and its cell with a note, instead of raising.
The results are built in bulk, with no per-cell call of the frozen
dataclasses' __init__: each WavelengthPair and TuningPoint gets its fields
written into its __dict__, and equals the one its constructor makes.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field, fields
from importlib import resources
from itertools import repeat
from operator import attrgetter, setitem
from pathlib import Path

import numpy as np

from .fringes import _check_fields, _check_quantities, _check_reals
from .stackio import StackFormatError, _field, _key_values, _quantity

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
_ROOT_RTOL = 4.0 * np.finfo(np.float64).eps  # brentq's defaults
_ROOT_MAXITER = 100
_DEGENERATE_TOL = 1e-6  # 1/um
_ROWS_PER_PASS = 64  # scan rows held at once: bounds the grid solve's memory by the grid's shape


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

    def __post_init__(self) -> None:
        _check_fields(self, ValueError)
        _check_quantities(**{f"a{i}": v for i, v in enumerate(self.a, 1)})
        _check_quantities(**{f"b{i}": v for i, v in enumerate(self.b, 1)})
        if not self.lambda_min_um < self.lambda_max_um:
            raise ValueError(
                f"lambda_min_um must be < lambda_max_um, got {self.lambda_min_um!r} "
                f"and {self.lambda_max_um!r}"
            )
        if not self.temp_min_c <= self.temp_max_c:
            raise ValueError(
                f"temp_min_c must be <= temp_max_c, got {self.temp_min_c!r} and {self.temp_max_c!r}"
            )

    def index_squared(self, wavelength_um, temperature_c: float):
        return self._index_squared(wavelength_um, self._thermal(temperature_c))

    def _thermal(self, temperature_c):
        """The temperature-only terms of index_squared, stacked on a leading axis:
        a1 + b1 f, a2 + b2 f, (a3 + b3 f)^2 and a4 + b4 f."""
        a1, a2, a3, a4, _, _ = self.a
        b1, b2, b3, b4 = self.b
        f = (temperature_c - self.t_offset_c) * (temperature_c + self.t_factor)
        return np.array([a1 + b1 * f, a2 + b2 * f, np.square(a3 + b3 * f), a4 + b4 * f])

    def _index_squared(self, wavelength_um, thermal, out=None, pole=None):
        """n^2 at the given wavelength(s) from _thermal's terms, which broadcast against them,
        written into out, with pole for the second pole term (each allocated where None)."""
        c1, c2, c3, c4 = thermal
        a5, a6 = self.a[4:]
        lam2 = np.square(wavelength_um)
        # commuting steps are augmented operators: in place on arrays, quick on numpy scalars
        n2 = np.divide(c2, np.subtract(lam2, c3, out=out), out=out)
        n2 += c1
        n2 += np.divide(c4, lam2 - a5 * a5, out=pole)
        n2 -= a6 * lam2
        return n2


def load_dispersion_set(path: str | Path) -> DispersionSet:
    """Load a coefficient table from a key/value text file."""
    return _set_from_text(Path(path).read_bytes(), str(path))


def _set_from_text(data: bytes, source: str) -> DispersionSet:
    source = f"dispersion table {source}"
    values = _key_values(data, source)
    floats = [f.name for f in fields(DispersionSet) if f.type == "float"]
    settings = dict(
        name=_field(values, "name", source),
        reference=values.get("reference", ""),
        a=tuple(_field(values, f"a{i}", source, _quantity) for i in range(1, 7)),
        b=tuple(_field(values, f"b{i}", source, _quantity) for i in range(1, 5)),
        **{key: _field(values, key, source, _quantity) for key in floats},
    )
    try:
        return DispersionSet(**settings)
    except ValueError as err:  # every value passed _quantity: a window is out of order
        raise StackFormatError(f"{source}: {err}") from None


@functools.cache
def default_dispersion_set() -> DispersionSet:
    """The bundled 5% MgO-doped congruent LiNbO3 extraordinary-index table.

    The table is read once; every call returns the same frozen instance.
    """
    data = resources.files("iuptools.data").joinpath(_DEFAULT_SET_RESOURCE).read_bytes()
    return _set_from_text(data, _DEFAULT_SET_RESOURCE)


@dataclass(frozen=True)
class CrystalState:
    """Poling period, oven temperature and the dispersion data in force."""

    poling_period_um: float
    temperature_c: float
    dispersion_set: DispersionSet = field(default_factory=default_dispersion_set)

    def __post_init__(self) -> None:
        message = "poling_period_um must be finite and > 0"
        _check_quantities(positive=True, message=message, poling_period_um=self.poling_period_um)
        _check_quantities(temperature_c=self.temperature_c)
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
    _check_quantities(positive=True, pump_nm=pump_nm, signal_nm=signal_nm)
    if not pump_nm < signal_nm:
        raise ValueError(
            f"signal ({signal_nm} nm) must exceed the pump ({pump_nm} nm); "
            "both photons carry less energy than the pump"
        )
    return 1.0 / (1.0 / pump_nm - 1.0 / signal_nm)


def _check_window(ds: DispersionSet, temperature_c: float, **wavelengths_nm) -> None:
    """Raise ValueError for the temperature, or for the first wavelength (nm) outside
    ds's window, named by its keyword and, in an array, by its index."""
    if not ds.temp_min_c <= temperature_c <= ds.temp_max_c:
        raise ValueError(
            f"temperature {temperature_c} C outside the validity range "
            f"[{ds.temp_min_c}, {ds.temp_max_c}] C of dispersion set {ds.name}"
        )
    for role, lam_nm in wavelengths_nm.items():
        lam_nm = np.asarray(lam_nm, dtype=np.float64)
        lam_um = lam_nm / 1000.0
        # written so that NaN fails too
        outside = ~((lam_um >= ds.lambda_min_um) & (lam_um <= ds.lambda_max_um))
        if outside.any():
            at = np.unravel_index(np.argmax(outside), outside.shape)
            where = f" (at index {', '.join(map(str, at))})" if at else ""
            raise ValueError(
                f"{role} {lam_nm[at]} nm{where} outside the validity window "
                f"[{ds.lambda_min_um}, {ds.lambda_max_um}] um of dispersion set {ds.name}"
            )


def refractive_index(wavelength_nm, temperature_c: float, dispersion_set: DispersionSet | None = None):
    """Extraordinary index at the given wavelength(s) and temperature.

    Accepts scalar or array wavelengths (nm). Raises for values outside the
    set's declared validity window.
    """
    _check_reals(wavelength_nm=wavelength_nm, temperature_c=temperature_c)
    ds = dispersion_set if dispersion_set is not None else default_dispersion_set()
    _check_window(ds, temperature_c, wavelength=wavelength_nm)
    lam_um = np.asarray(wavelength_nm, dtype=np.float64) / 1000.0
    n = np.sqrt(ds.index_squared(lam_um, temperature_c))
    return float(n) if np.isscalar(wavelength_nm) else n


def _temperature_terms(pump_nm: float, temperature_c, ds: DispersionSet) -> np.ndarray:
    # the pump term n_p/lp of dk/2pi above ds._thermal's four terms, on a leading axis of 5
    thermal = ds._thermal(temperature_c)
    with np.errstate(invalid="ignore", divide="ignore"):
        n_p = np.sqrt(ds._index_squared(pump_nm / 1000.0, thermal))
    return np.concatenate([[n_p * (1000.0 / pump_nm)], thermal])


def _mismatch_terms(pump_nm: float, signal, terms: np.ndarray, ds: DispersionSet, out=None,
                    held=None, pole=None):
    # dk / 2 pi + 1/Lambda over signal broadcast against _temperature_terms, unchecked:
    # out-of-window wavelengths drive the Sellmeier form negative and give NaN, which the
    # scan skips; written into out, held (the idler's term) and pole (_index_squared's),
    # each allocated where None
    idler = 1.0 / (1.0 / pump_nm - 1.0 / signal)
    with np.errstate(invalid="ignore", divide="ignore"):
        n_s = np.sqrt(ds._index_squared(signal / 1000.0, terms[1:], out, pole), out=out)
        n_s *= 1000.0 / signal
        dk = np.subtract(terms[0], n_s, out=out)
        n_i = np.sqrt(ds._index_squared(idler / 1000.0, terms[1:], held, pole), out=held)
        n_i *= 1000.0 / idler
        dk -= n_i
    return dk


def qpm_mismatch(pump_nm: float, signal_nm, crystal: CrystalState):
    """Signed collinear first-order QPM mismatch in 1/um.

    The idler follows from energy conservation; signal_nm may be an array.
    Raises for wavelengths outside the dispersion set's validity window.
    """
    _check_reals(pump_nm=pump_nm, signal_nm=signal_nm)
    ds, signal = crystal.dispersion_set, np.asarray(signal_nm, dtype=np.float64)
    # in numpy, so that a pump or signal of 0, or a signal at the pump, gives an idler
    # that the window check refuses after the pump and the signal, not a ZeroDivisionError
    with np.errstate(divide="ignore", invalid="ignore"):
        idler = 1.0 / (1.0 / np.float64(pump_nm) - 1.0 / signal)
    _check_window(ds, crystal.temperature_c, pump=pump_nm, signal=signal, idler=idler)
    terms = _temperature_terms(pump_nm, crystal.temperature_c, ds)
    dk = 2.0 * np.pi * (_mismatch_terms(pump_nm, signal, terms, ds) - 1.0 / crystal.poling_period_um)
    return float(dk) if np.isscalar(signal_nm) else dk


def _signal_scan_bounds(pump_nm: float, ds: DispersionSet) -> tuple[float, float]:
    # keep signal and the implied idler inside the dispersion validity window;
    # scanning past it puts the Sellmeier form under its poles and yields NaN
    lam_min_nm = ds.lambda_min_um * 1000.0
    lam_max_nm = ds.lambda_max_um * 1000.0
    lo = max(lam_min_nm, pump_nm * 1.01)
    if 1.0 / pump_nm > 1.0 / lam_max_nm:
        lo = max(lo, 1.0 / (1.0 / pump_nm - 1.0 / lam_max_nm))
    hi = min(2.0 * pump_nm, lam_max_nm)
    if not lo < hi:
        raise PhaseMatchError(
            f"no scannable signal range for pump {pump_nm} nm inside dispersion "
            f"window [{ds.lambda_min_um}, {ds.lambda_max_um}] um"
        )
    return lo, hi


def _first_root(grid: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First root of each row of samples, looking only at neighbour pairs that are both finite.

    Returns (found, a, b) per row: a == b for an exact zero at the left point
    a, a < b for a sign change between neighbours a and b.
    """
    left, right = values[..., :-1], values[..., 1:]
    hits = np.isfinite(left) & np.isfinite(right) & ((left == 0.0) | (left * right < 0.0))
    i = np.argmax(hits, axis=-1)
    zero = np.take_along_axis(left, i[..., None], axis=-1)[..., 0] == 0.0
    return hits.any(axis=-1), grid[i], grid[np.where(zero, i, i + 1)]


def _first_roots(
    grid: np.ndarray, rows: np.ndarray, levels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_first_root(grid, 2 pi (row - levels[:, None])) for every row, as (levels x rows)
    arrays, without that (levels x grid) array where the row is finite.

    2 pi fl(t - c) is zero only where t == c and otherwise has the sign of t - c, so a
    finite row that starts below a level c first meets it where its running maximum
    reaches c, and one that starts above where its running minimum does: one sorted
    search per row and level. A row whose steps are all >= 0 is its own running
    maximum, and one whose steps are all <= 0 its own running minimum, so such a row
    is searched as it is; a running extreme is made only for the other rows, and only
    in a direction some level needs. A bracket ends there, or starts there if the row
    equals c at that point, which is no root at the last point. Rows holding a
    non-finite value go to _first_root, _ROWS_PER_PASS levels at a time. As there, a
    and b mean nothing where nothing is found.
    """
    last = grid.size - 1
    finite = np.isfinite(rows).all(axis=1)
    above = levels > rows[:, :1]
    # the running minimum's search is the running maximum's on -row and -levels
    j = np.zeros((2, *above.shape), dtype=np.intp)
    for d, side in enumerate((above, ~above)):
        searched = np.flatnonzero(finite & side.any(axis=1))
        if searched.size:
            signed, keys = (rows, levels) if d == 0 else (-rows, -levels)
            sorted_rows = (signed[:, 1:] >= signed[:, :-1]).all(axis=1).tolist()
            for t in searched.tolist():
                row = signed[t] if sorted_rows[t] else np.maximum.accumulate(signed[t])
                j[d, t] = row.searchsorted(keys)
    j = np.where(above, j[0], j[1])
    k = np.minimum(j, last)
    zero = np.take_along_axis(rows, k, axis=1) == levels
    found = (j < last) | ((j == last) & ~zero)
    a, b = grid[np.where(zero, k, k - 1)], grid[k]
    for t in np.flatnonzero(~finite):
        for at in _passes(levels.size):
            level_rows = 2.0 * np.pi * (rows[t] - levels[at, None])
            found[t, at], a[t, at], b[t, at] = _first_root(grid, level_rows)
    return found.T, a.T, b.T


def _passes(n: int) -> list[slice]:
    """range(n) in slices of _ROWS_PER_PASS."""
    return [slice(i, i + _ROWS_PER_PASS) for i in range(0, n, _ROWS_PER_PASS)]


def _brentq(f, a: np.ndarray, b: np.ndarray, froot: np.ndarray | None = None) -> np.ndarray:
    """scipy.optimize.brentq(f, a[j], b[j], xtol=_ROOT_TOL_NM) for every bracket j at once.

    Bit for bit and with brentq's convergence error, given finite f(a) and f(b) of
    opposite signs, except that a bracket whose step meets NaN ends with a NaN root
    where brentq raises; the other brackets go on as they would without it. f(x, j)
    evaluates brackets j, and only brackets still iterating, with both ends of every
    bracket in its first call. froot, if given, receives f at each root (NaN at a NaN
    root).
    """
    j, root = np.arange(a.size), np.empty(a.size)
    if not a.size:
        return root
    ends = f(np.concatenate([a, b]), np.concatenate([j, j]))
    xpre, xcur, fpre, fcur = a, b, ends[: a.size], ends[a.size :]
    # f(a) and f(b) differ in sign, so brentq's first step makes a the block end
    xblk, fblk = xpre, fpre
    spre = scur = xcur - xpre
    for _ in range(_ROOT_MAXITER):
        # where swap, the current and block ends trade places and pre is the old current
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (
            np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
        )
        fpre, fcur, fblk = (
            np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)
        )
        delta = (_ROOT_TOL_NM + _ROOT_RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        nan = np.isnan(fcur)
        done = (fcur == 0) | (np.abs(sbis) < delta) | nan
        finished = np.count_nonzero(done)
        if finished:
            root[j[done]] = np.where(nan, np.nan, xcur)[done]
            if froot is not None:
                froot[j[done]] = fcur[done]
            if finished == done.size:
                return root
            keep = np.flatnonzero(~done)
            state = (j, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis)
            j, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (v[keep] for v in state)
        dx, df = xpre - xcur, fpre - fcur
        with np.errstate(all="ignore"):  # the rule not taken may divide by zero
            dpre, dblk = df / dx, (fblk - fcur) / (xblk - xcur)
            # brentq's -fcur (xcur - xpre) / (fcur - fpre): negation is exact
            interpolate = -(fcur * dx / df)
            extrapolate = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, interpolate, extrapolate)
        aspre = np.abs(spre)
        bound = np.minimum(aspre, 3 * np.abs(sbis) - delta)
        short = (aspre > delta) & (np.abs(fcur) < np.abs(fpre)) & (2 * np.abs(stry) < bound)
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
        xpre, fpre = xcur, fcur
        # sbis is not 0 here, so its sign picks +-delta as brentq's sbis > 0 does
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.copysign(delta, sbis))
        fcur = f(xcur, j)
        # brentq's flip where fpre and fcur differ in sign: fpre is not 0 (that
        # bracket has finished), and where fcur is 0 or NaN the flip changes nothing used
        flip = np.signbit(fpre) != np.signbit(fcur)
        step = xcur - xpre
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre, scur = np.where(flip, step, spre), np.where(flip, step, scur)
    raise RuntimeError(f"Failed to converge after {_ROOT_MAXITER} iterations.")


def _instances(cls, *columns) -> list:
    """[cls(*row) for row in zip(*columns)], for a dataclass whose __init__ only sets its fields.

    A frozen dataclass's __init__ sets each field through object.__setattr__,
    one call per field and instance; here each column is written into the new
    instances' __dict__s in one pass of map. The instances are the ones
    __init__ makes, field for field and in field order, so they compare, hash,
    print, pickle and replace alike and stay frozen.
    """
    made = list(map(object.__new__, repeat(cls, len(columns[0]))))
    dicts = list(map(attrgetter("__dict__"), made))
    for f, column in zip(fields(cls), columns):
        deque(map(setitem, dicts, repeat(f.name), column), maxlen=0)
    return made


def _solve_grid(pump_nm: float, periods: list, temps: list, ds: DispersionSet) -> list[TuningPoint]:
    """Solve every cell of a checked pump, period and temperature grid, in (period, T) order."""
    try:
        lo, hi = _signal_scan_bounds(pump_nm, ds)
    except PhaseMatchError as err:
        return [TuningPoint(p, t, None, str(err)) for p in periods for t in temps]
    grid = np.append(np.arange(lo, hi, _SCAN_STEP_NM), hi)
    temp, inv_period = np.array(temps, dtype=np.float64), 1.0 / np.array(periods, dtype=np.float64)
    by_temp = _temperature_terms(pump_nm, temp, ds)

    shape = inv_period.size, temp.size
    found, a, b = np.empty(shape, dtype=bool), np.empty(shape), np.empty(shape)
    low, high, last = np.full((3, temp.size), np.inf)  # no note shows an unset extreme
    # one pass's scan rows and the two arrays they are evaluated with, made once
    buffers = np.empty((3, min(temp.size, _ROWS_PER_PASS), grid.size))
    for at in _passes(temp.size):
        scratch = buffers[:, : temp[at].size]
        rows = _mismatch_terms(pump_nm, grid, by_temp[:, at, None], ds, *scratch)
        found[:, at], a[:, at], b[:, at] = _first_roots(grid, rows, inv_period)
        last[at] = rows[:, -1]
        # the notes of unmatched cells need their rows' finite extremes
        noted = np.flatnonzero(~found[:, at].all(axis=0))
        finite = np.isfinite(rows[noted])
        low[at.start + noted] = np.where(finite, rows[noted], np.inf).min(axis=1)
        high[at.start + noted] = np.where(finite, rows[noted], -np.inf).max(axis=1)
    # dk is tangent to zero at degeneracy, so an unmatched cell whose scan ends there
    # is solved there, with signal = idler = hi, when |dk| at hi is within _DEGENERATE_TOL
    edge = np.abs(2.0 * np.pi * (last - inv_period[:, None]))
    tangent = ~found & (hi == 2.0 * pump_nm) & (edge <= _DEGENERATE_TOL)
    found |= tangent
    a[tangent], b[tangent], residual = hi, hi, np.where(tangent, edge, 0.0)
    found, a, b, residual = found.ravel(), a.ravel(), b.ravel(), residual.ravel()
    polish = np.flatnonzero(found & (a < b))
    terms, level = by_temp[:, polish % temp.size], inv_period[polish // temp.size]

    def dk(signal, j):
        return 2.0 * np.pi * (_mismatch_terms(pump_nm, signal, terms[:, j], ds) - level[j])

    dk_root, root = np.empty(polish.size), a.copy()
    root[polish] = _brentq(dk, a[polish], b[polish], dk_root)
    # dk is exactly 0 at a root that a scan point hits
    residual[polish] = np.abs(dk_root)
    # a NaN stretch of the Sellmeier form can lie between two finite scan points
    # of opposite sign; a cell whose step lands in one has no root
    gap = np.isnan(root)
    found &= ~gap
    solved = np.flatnonzero(found)
    signal = root[solved]
    idler = 1.0 / (1.0 / pump_nm - 1.0 / signal)  # idler_from_signal's operations
    idler[tangent.ravel()[solved]] = hi
    pairs = _instances(WavelengthPair, signal.tolist(), idler.tolist(), residual[solved].tolist())
    # each cell's pair, or None and a note saying why there is none; rounding is
    # monotone, so a row's finite extremes give each period's mismatch span
    pair_of, note_of = [None] * found.size, [""] * found.size
    for c, pair in zip(solved.tolist(), pairs):
        pair_of[c] = pair
    unmatched = np.flatnonzero(~found)
    period_at, temp_at = np.divmod(unmatched, temp.size)
    spans = 2.0 * np.pi * (np.array([low[temp_at], high[temp_at]]) - inv_period[period_at])
    columns = unmatched, period_at, temp_at, gap[unmatched], a[unmatched], b[unmatched], *spans
    for c, p, t, gapped, start, end, least, most in zip(*(x.tolist() for x in columns)):
        detail = "mismatch is not finite anywhere in the scanned range"
        if gapped:
            detail = f"mismatch is not finite between signal {start:.6g} and {end:.6g} nm"
        elif least < np.inf:
            detail = f"mismatch spans [{least:.6g}, {most:.6g}] 1/um "
            detail += f"over signal {lo:.1f}..{hi:.1f} nm"
        note = f"no phase matching for pump {pump_nm} nm at poling period {periods[p]} um"
        note_of[c] = f"{note}, {temps[t]} C ({detail})"
    cell_periods, cell_temps = np.repeat(periods, len(temps)), np.tile(temps, len(periods))
    return _instances(TuningPoint, cell_periods.tolist(), cell_temps.tolist(), pair_of, note_of)


def solve_signal_idler(pump_nm: float, crystal: CrystalState) -> WavelengthPair:
    """Find the non-degenerate phase-matched pair for a pump wavelength.

    A 0.5 nm pre-scan of the mismatch over the valid signal range brackets a
    sign change; the root is then polished by Brent's method to within
    1e-7 nm + 4 eps |signal|. The mismatch is tangent to zero at degeneracy
    (its derivative vanishes at signal = 2 pump by signal/idler symmetry), so
    when no sign change exists the degenerate point itself is checked before
    giving up. This is the 1x1 case of tuning_curve's grid solve.
    """
    cell = [crystal.poling_period_um], [crystal.temperature_c]
    (point,) = tuning_curve(pump_nm, *cell, crystal.dispersion_set)
    if point.pair is None:
        raise PhaseMatchError(point.note)
    return point.pair


def tuning_curve(
    pump_nm: float,
    poling_periods_um,
    temperatures_c,
    dispersion_set: DispersionSet | None = None,
) -> list[TuningPoint]:
    """Solve every (poling period, temperature) grid cell, ordered by (period, T).

    Each grid is a 1-D sequence of numbers; a scalar or a nested grid is refused
    by name. Cells without a solution carry pair=None and a note instead of raising.
    """
    ds = dispersion_set if dispersion_set is not None else default_dispersion_set()
    # list() of a scalar, or float() of a row, would raise a bare TypeError below
    for name, grid in (("poling_periods_um", poling_periods_um), ("temperatures_c", temperatures_c)):
        try:
            flat = np.ndim(grid) == 1
        except ValueError:  # sequences nested to uneven depths
            flat = False
        if not flat:
            shown = f"an array of shape {grid.shape}" if isinstance(grid, np.ndarray) else repr(grid)
            raise ValueError(f"{name} must be a 1-D sequence of numbers, got {shown}")
    periods, temps = list(poling_periods_um), list(temperatures_c)
    _check_reals(pump_nm=pump_nm, poling_periods_um=periods, temperatures_c=temps)
    periods, temps = sorted(map(float, periods)), sorted(map(float, temps))
    if not periods or not temps:
        raise ValueError("poling period and temperature grids must be non-empty")
    # CrystalState raises for the first bad value in (period, T) cell order:
    # every value first shows in a cell (periods[0], T) or (period, temps[0]).
    # The quantity rule judges an array by its extremes and cannot find that first value
    bad_periods = ~(np.isfinite(periods) & (np.array(periods) > 0))
    t = np.array(temps)
    bad_temps = ~((t >= ds.temp_min_c) & (t <= ds.temp_max_c))
    if bad_temps.any() and not bad_periods[0]:
        CrystalState(periods[0], temps[int(np.argmax(bad_temps))], ds)
    if bad_periods.any():
        CrystalState(periods[int(np.argmax(bad_periods))], temps[0], ds)
    _check_window(ds, temps[0], pump=pump_nm)
    return _solve_grid(pump_nm, periods, temps, ds)


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

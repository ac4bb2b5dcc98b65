"""Batch front-end: JSON run configuration in, machine-readable tables out.

Subcommands
-----------
bands      band table (or Bloch dispersion curves with --dispersion K)
transmit   transmittance T_N or T_infty on an energy grid
currents   steady currents; --mode finite|crystalline|thouless
thouless   shorthand for currents --mode thouless
converge   ∫T_N f vs ∫T_infty f table over an N list
selfcheck  seeded property battery; exit 1 on any failure

Exit codes: 0 success, 1 check failure, 2 usage/config error or refused
input, 3 numerical failure.  CSV output carries a ``# schema=1`` line and
fields written as "%.17g" % x (17 significant digits, trailing zeros
dropped); JSON output is json.dumps(indent=2, allow_nan=True), each number
float.__repr__ (the shortest digits that read back).  One vectorized kernel
writes the numbers of both; values on a rounding bound or tie, and |x|
outside [1e-280, 1e280], go through Python's own formatting one at a time.
Identical config + seed reproduce identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .currents import (
    CurrentReport,
    QuadratureConfig,
    ThermoState,
    convergence_study,
    crystalline_currents,
    lb_currents,
    thouless_currents,
)
from .errors import ConfigError, DomainError, ThoulessLabError
from .jacobi import SampleSpec, _count, _finite, _integer, _real, _repetition_count
from .jacobi import _repetition_counts, band_spectrum, bloch_eigenvalues
from .leads import CrystallineLead, HalfLineLead, LeadModel, _check_kappa, load_tabulated_csv
from .selfcheck import run_selfcheck
from .transport import _diagnostic_columns, transmittance_inf, transmittance_n
# Not called here; kept importable because bench/tracer.py wraps this name.
from .transport import _r_theta_values  # noqa: F401

SCHEMA_LINE = "# schema=1"

# Energies per _parallel_grid chunk; bounds the temporaries of the grid
# evaluation.  CSV and JSON tables are formatted in blocks of a quarter of it
# (_TABLE_BLOCK rows), so a table peaks at about twice its text.
GRID_CHUNK = 2**14

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


@dataclass(frozen=True)
class RunConfig:
    sample: SampleSpec
    lead_l: LeadModel | None
    lead_r: LeadModel | None
    kappa: float | None
    thermo: ThermoState | None
    quadrature: QuadratureConfig
    grid_count: int
    grid_values: tuple[float, ...] | None
    out_path: str | None
    out_format: str
    seed: int


def _reject_unknown(section: dict, allowed, where: str) -> None:
    unknown = set(section).difference(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")


class _Section:
    """Reads one object of the run configuration, or the parsed flags, inside a ``with`` block.

    Entering checks that `raw` is an object (named `what`, default `where`)
    whose keys lie in `keys`, if given.  A missing key or a _READ_ERRORS error
    inside the block is raised again as one ConfigError prefixed with `where`;
    a ConfigError passes unchanged, so nested sections are named once.
    """

    def __init__(self, where: str, raw, keys=None, what: str | None = None):
        self.where, self.raw, self.keys, self.what = where, raw, keys, what or where

    def __enter__(self) -> dict:
        if not isinstance(self.raw, dict):
            raise ConfigError(f"{self.what}: expected an object")
        if self.keys is not None:
            _reject_unknown(self.raw, self.keys, self.where)
        return self.raw

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, KeyError):
            raise ConfigError(f"{self.where}: missing required key {exc}") from exc
        if isinstance(exc, _READ_ERRORS) and not isinstance(exc, ConfigError):
            raise ConfigError(f"{self.where}: {exc}") from exc


# a library refusal (a number rule, a constructor); a non-list where one belongs; an unreadable file
_READ_ERRORS = (TypeError, ValueError, OverflowError, OSError, ThoulessLabError)

_ROOT_KEYS = {"sample", "leads", "kappa", "thermo", "quadrature", "energy_grid", "output", "seed"}
_LEAD_KEYS = {"half_line": {"type", "t", "v0"}, "crystalline": {"type", "sample", "side"},
              "tabulated": {"type", "path"}}


def _path(value, where: str):
    # open() takes an integer for a file descriptor
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{where}: expected a path string, got {value!r}")
    return value


def _parse_sample(raw, where: str = "sample") -> SampleSpec:
    with _Section(where, raw, {"L", "J", "lambda", "kappa_S"}) as d:
        J, lam, kappa_s = d["J"], d["lambda"], d["kappa_S"]
        if "L" in d and _integer(d["L"]) != len(lam):
            raise ConfigError(f"{where}: L={d['L']} inconsistent with {len(lam)} onsite values")
        return SampleSpec(J, lam, kappa_s)


def _parse_lead(raw, sample: SampleSpec, where: str) -> LeadModel:
    with _Section(where, raw) as d:
        kind = d["type"]
        keys = _LEAD_KEYS.get(kind) if isinstance(kind, str) else None
        if keys is None:
            raise ConfigError(f"{where}: unknown lead type {kind!r}")
        _reject_unknown(d, keys, where)
        if kind == "half_line":
            return HalfLineLead(t=d["t"], v0=d.get("v0", 0.0))
        if kind == "tabulated":
            return load_tabulated_csv(_path(d["path"], f"{where}.path"))
        ref = d.get("sample", "self")
        lead_sample = sample if ref == "self" else _parse_sample(ref, f"{where}.sample")
        return CrystallineLead(lead_sample, d["side"])


def _parse_beta(value) -> float:
    if value == "inf":
        return math.inf
    try:
        return _real(value)
    except DomainError as exc:
        raise ConfigError("thermo: expected a number or 'inf'") from exc


def parse_config(data) -> RunConfig:
    """Validate a parsed JSON run configuration (fail-closed on unknown keys)."""
    with _Section("config", data, _ROOT_KEYS, what="config root") as root:
        sample = _parse_sample(root["sample"])

        lead_l = lead_r = None
        if "leads" in root:
            with _Section("leads", root["leads"], {"left", "right"}) as leads:
                lead_l = _parse_lead(leads["left"], sample, "leads.left")
                lead_r = _parse_lead(leads["right"], sample, "leads.right")

        kappa = None
        if "kappa" in root:
            with _Section("kappa", root):
                kappa = _check_kappa(root["kappa"])

        thermo = None
        if "thermo" in root:
            with _Section("thermo", root["thermo"], {"beta_l", "mu_l", "beta_r", "mu_r"}) as d:
                thermo = ThermoState(_parse_beta(d["beta_l"]), d["mu_l"],
                                     _parse_beta(d["beta_r"]), d["mu_r"])

        with _Section("quadrature", root.get("quadrature", {}), {"abs_tol"}) as d:
            quad = QuadratureConfig(**d)  # the library's number rule reads abs_tol

        grid_count, grid_values = 400, None
        if "energy_grid" in root:
            with _Section("energy_grid", root["energy_grid"], {"count", "values"}) as d:
                if "values" in d:
                    grid_values = tuple(map(_finite, d["values"]))  # each: numpy reads true as 1.0
                    if not grid_values:
                        raise ConfigError("energy_grid.values: must be nonempty")
                elif "count" in d:
                    grid_count = _integer(d["count"])
                    if grid_count < 2:
                        raise ConfigError("energy_grid.count: must be >= 2")
                else:
                    raise ConfigError("energy_grid: needs 'count' or 'values'")

        out_path, out_format = None, "csv"
        if "output" in root:
            with _Section("output", root["output"], {"path", "format"}) as d:
                out_path = _path(d.get("path"), "output.path")
                out_format = d.get("format", "csv")
            if out_format not in ("csv", "json"):
                raise ConfigError(f"output.format: expected csv|json, got {out_format!r}")

        with _Section("seed", root):
            seed = _count("seed", root.get("seed", 0), 0)

    return RunConfig(
        sample=sample, lead_l=lead_l, lead_r=lead_r, kappa=kappa, thermo=thermo,
        quadrature=quad, grid_count=grid_count, grid_values=grid_values,
        out_path=out_path, out_format=out_format, seed=seed,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    return parse_config(data)


def _num(x: float) -> str:
    return f"{x:.17g}"


def _parallel_grid(fn, grid: np.ndarray) -> np.ndarray:
    """Evaluate fn over the grid in ordered GRID_CHUNK-sized pieces, serially.

    fn returns one value or one row per energy; the pieces are joined along
    the energy axis.  The name predates the serial loop; it is kept because
    bench/tracer.py times this call as the span of the grid computation.
    """
    parts = [fn(grid[i : i + GRID_CHUNK]) for i in range(0, grid.size, GRID_CHUNK)]
    return np.concatenate([np.atleast_1d(p) for p in parts])


def _energy_grid(config: RunConfig) -> np.ndarray:
    if config.grid_values is not None:
        return np.asarray(config.grid_values, dtype=float)
    lo, hi = band_spectrum(config.sample).hull
    return np.linspace(lo, hi, config.grid_count)


def _check_out_dir(out_path: str | None) -> None:
    """Refuse an output path in a missing or unwritable directory, before any work."""
    folder = out_path and os.path.dirname(os.path.abspath(out_path))
    if folder and not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise ConfigError(f"output path {out_path}: no writable directory {folder}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {out_path}: {exc}") from exc


def _as_table(rows, width: int) -> np.ndarray:
    return np.asarray(rows, dtype=float).reshape(-1, width)


# The table numbers, for whole arrays: a CSV field is exactly "%.17g" % x and
# a JSON value exactly float.__repr__(x), the json encoder's float form.  A
# finite x with |x| in [_G17_MIN, _G17_MAX] is scaled to y = |x|·10^(16−X) in
# [1e16, 1e17) as a double-double product, good to ~1e-15 absolute, and its
# digits are read off y (_g17_digits, _shortest_digits).  Where y lies within
# _G17_TIE of a rounding boundary, and for |x| outside the range, the value
# goes to Python's own formatting; 0, nan and inf are constant fields.
_G17_MIN, _G17_MAX = 1e-280, 1e280  # keeps every 10^k half and product normal
_G17_TIE = 1e-9
_POW10_MIN, _POW10_MAX = -265, 298  # 16 − X over the range, X off by one either way
_X_MIN, _X_MAX = 16 - _POW10_MAX, 16 - _POW10_MIN
_E16, _E17 = 10**16, 10**17
_DEKKER = 134217729.0  # 2**27 + 1
# Each number is laid out in _SLOTS bytes, the unused ones 0 and dropped:
# [0:8] a right-aligned prefix (sign or "0.000"), [8:26] the digits with their
# point, [26:31] the exponent "e±hTU", [31] free for a separator.  A constant
# field is right-aligned in [0:16] instead.
_SLOTS = 32
_PREFIXES = ("", "-", "0.", "-0.", "0.0", "-0.0", "0.00", "-0.00", "0.000", "-0.000")  # 2k + sign for X = −k
# nan, inf, −inf, 0 and −0 of the CSV (False) and JSON (True) tables
_CONSTANTS = {False: ("nan", "inf", "-inf", "0", "-0"),
              True: ("NaN", "Infinity", "-Infinity", "0.0", "-0.0")}
# A JSON row as 8-byte words: the opener, then per value the line break and
# indent before it and its _SLOTS bytes, each but the last with "," in its
# separator byte, then the closer; the table's last row closes without ",".
_JSON_FRAME = ("\n      ", "\n    [", "\n    ],", "\n    ]")
# Rows per formatted block, CSV and JSON.  A block's byte matrices take about
# 300 bytes a value, 10 (JSON) to 15 (CSV) times its text; at 2^12 rows they
# stay below the text of a 4-column GRID_CHUNK-row table, so the final join
# (twice the text) sets the peak.
_TABLE_BLOCK = GRID_CHUNK // 4


def _dekker_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _DEKKER * a
    hi = c - (c - a)
    return hi, a - hi


def _ascii_rows(texts, width: int, right: bool = False) -> np.ndarray:
    """Each text as a uint8 row of `width` bytes, 0-padded on the right (or on the left)."""
    pad = str.rjust if right else str.ljust
    return np.frombuffer("".join(pad(t, width, "\0") for t in texts).encode(), np.uint8).reshape(-1, width)


@functools.cache
def _g17_tables() -> dict:
    """Lookup tables of the vectorized number formats, built on first use (about 1 ms).

    pow10: 10^k as hi + lo doubles from exact Python integers (hi correctly
    rounded, lo = 10^k − hi to a few ulps), and hi's Dekker halves.
    digit_words: the ASCII of each 4-digit group, kept as uint8 rows and only
    moved as 4-byte words, so the text does not depend on byte order.
    trailing_zeros: of each 4-digit group.  prefixes: _PREFIXES right-aligned
    in 8 bytes; constants: _CONSTANTS right-aligned in 16.  exponents: "e±hTU"
    of X in row X − _X_MIN + 1, and an empty row 0 for fixed notation.  left,
    keep, dot: byte masks over a digit row that put the point after digit p
    (p = 17: no point) and keep its first n characters (row 19p + n).
    json_frame: _JSON_FRAME as 8-byte words.
    """
    hi, lo = [], []
    power = 10**-_POW10_MIN
    for k in range(_POW10_MIN, _POW10_MAX + 1):
        if k < 0:  # 10^k = 1 / power
            h = 1 / power
            h_num, h_den = h.as_integer_ratio()
            lo.append(float(h_den - h_num * power) / float(power) / h_den)
            power //= 10
        else:  # 10^k = power
            h = float(power)
            lo.append(float(power - int(h)))
            power *= 10
        hi.append(h)
    hi = np.array(hi)
    n = np.arange(10**4)
    digits4 = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
    trailing_zeros = sum((n % 10**i == 0).astype(np.uint8) for i in (1, 2, 3, 4))
    exponents = ("", *(f"e{X:+03d}" for X in range(_X_MIN, _X_MAX + 1)))
    cols, p = np.arange(-3, 21), np.arange(18)[:, None]  # a digit row's 24 bytes
    keep = (cols >= 0) & (cols < np.arange(19)[:, None]) & (cols != p[:, :, None] + 1)
    return dict(
        pow10=(hi, np.array(lo), *_dekker_split(hi)),
        digit_words=(48 + digits4).astype(np.uint8).view(np.uint32).ravel(),
        trailing_zeros=trailing_zeros,
        prefixes=_ascii_rows(_PREFIXES, 8, right=True).view(np.uint64).ravel(),
        constants={k: _ascii_rows(v, 16, right=True).view(np.uint64) for k, v in _CONSTANTS.items()},
        exponents=_ascii_rows(exponents, 5),
        left=(cols <= p).astype(np.uint8),
        keep=keep.reshape(18 * 19, 24).astype(np.uint8),
        dot=46 * (cols == p + 1).astype(np.uint8),
        json_frame=_ascii_rows(_JSON_FRAME, 8).view(np.uint64).ravel(),
    )


def _scaled(a: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(a·10^(16−X)) as int64 and its fraction, from Dekker's TwoProduct with 10^k's hi + lo."""
    k = 16 - X - _POW10_MIN
    hi, lo, hi1, hi2 = (t.take(k) for t in _g17_tables()["pow10"])
    p = a * hi
    a1, a2 = _dekker_split(a)
    rest = (((a1 * hi1 - p) + a1 * hi2 + a2 * hi1) + a2 * hi2) + a * lo
    whole = np.floor(rest)
    # p is an integer wherever it can lie in [1e16, 1e17]; below 2^53 the floor
    # is wrong, but still below 1e16, which is all the caller reads there
    return p.astype(np.int64) + whole.astype(np.int64), rest - whole


def _scaled17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """floor(y) in [1e16, 1e17), its fraction and the exponent X, for y = a·10^(16−X) and positive a."""
    X = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _scaled(a, X)
    off = (whole >= _E17).astype(np.int64) - (whole < _E16)  # log10 near a power of ten
    if off.any():
        j = np.flatnonzero(off)
        X[j] += off[j]
        whole[j], frac[j] = _scaled(a[j], X[j])
    return whole, frac, X


def _g17_digits(a: np.ndarray):
    """17 correctly rounded digits D in [1e16, 1e17) and exponent X of positive a, and the undecided mask."""
    D, frac, X = _scaled17(a)
    D += frac > 0.5  # a carry to 1e17 is left to Python
    return D, X, (np.abs(frac - 0.5) < _G17_TIE) | (D < _E16) | (D >= _E17)


def _shortest_digits(a: np.ndarray):
    """float.__repr__'s digits of positive a as D in [1e16, 1e17) (trailing zeros padded), X and the undecided mask.

    repr prints the shortest digits that read back to a, the nearest to a
    among those.  a reads back from (y − w_lo, y + w): w is half the gap to
    the next double above, w_lo the one below, in units of y's last digit, and
    0.55 < w < 11.1.  So the interval holds at most one multiple of 100 (every
    output of 15 digits or fewer, and the carry to 1e17); else the nearer
    multiple of 10 that it holds; else the correctly rounded y, within ½ < w.
    A distance within _G17_TIE of a bound, of 5 between two multiples of 10
    or of ½ (an 18th-digit tie) is undecided.
    """
    y, frac, X = _scaled17(a)
    m, e = np.frexp(a)
    w = np.ldexp(_g17_tables()["pow10"][0].take(16 - X - _POW10_MIN), e - 54)
    w_lo = np.where(m == 0.5, 0.5 * w, w)  # below a power of two the gap halves
    below100, below10 = y % 100, y % 10
    r100, r10 = below100 + frac, below10 + frac  # y above the multiple below it
    lo100, hi100, lo10, hi10 = r100 < w_lo, 100 - r100 < w, r10 < w_lo, 10 - r10 < w
    by100, by10 = lo100 | hi100, lo10 | hi10
    up10 = np.where(lo10 & hi10, r10 > 5, hi10)  # the nearer one where both read back
    D = np.where(by100, y - below100 + 100 * hi100,
                 np.where(by10, y - below10 + 10 * up10, y + (frac > 0.5)))

    def near(d, bound):
        return np.abs(d - bound) < _G17_TIE

    undecided = near(r100, w_lo) | near(100 - r100, w) | ~by100 & (
        near(r10, w_lo) | near(10 - r10, w) | lo10 & hi10 & near(r10, 5) | ~by10 & near(frac, 0.5))
    carry = D == _E17  # 1 at the next exponent
    return np.where(carry, _E16, D), X + carry, undecided


def _g17_fields(x: np.ndarray, shortest: bool) -> tuple[np.ndarray, np.ndarray]:
    """The _SLOTS-byte layout of each x in range (no separator), and the undecided mask.

    "%.17g", or with `shortest` float.__repr__: its digits, fixed
    notation for −4 ≤ X < 16 instead of 17, and ".0" after an integral value.
    """
    tables = _g17_tables()
    D, X, undecided = (_shortest_digits if shortest else _g17_digits)(np.abs(x))
    upper = D // 10**8
    lower = D - upper * 10**8
    lead = upper // 10**8
    halves = np.stack([upper - lead * 10**8, lower], axis=1)
    groups = np.empty((x.size, 4), np.int64)  # the 16 digits after the leading one
    groups[:, 0::2] = halves // 10**4
    groups[:, 1::2] = halves - groups[:, 0::2] * 10**4
    words = np.zeros((x.size, 6), np.uint32)  # bytes: 3 zeros, the 17 digits, 4 zeros
    words[:, 1:5] = tables["digit_words"].take(groups)
    digits = words.view(np.uint8)
    digits[:, 3] = 48 + lead
    trailing = tables["trailing_zeros"].take(groups[:, 3]).astype(np.int64)
    for j in (2, 1, 0):  # only where every later group is 0000
        z = np.flatnonzero(trailing == 4 * (3 - j))
        trailing[z] += tables["trailing_zeros"].take(groups[z, j])
    n_digits = 17 - trailing

    # trailing zeros and a bare point dropped; repr keeps one zero after the point
    fixed = (X >= -4) & (X < (16 if shortest else 17))
    below_one = fixed & (X < 0)
    shown = np.where(fixed, np.maximum(n_digits, X + 1 + shortest), n_digits)
    point = np.where(fixed, X, 0)  # the point follows digit `point`
    has_point = ~below_one & (shown > point + 1)
    point[~has_point] = 17
    right = np.empty_like(digits)  # digit c − 1 in column 3 + c
    right.ravel()[1:] = digits.ravel()[:-1]
    right[0, 0] = 0
    body = right + (digits - right) * tables["left"].take(point, axis=0)
    body *= tables["keep"].take(19 * point + shown + has_point, axis=0)
    body += tables["dot"].take(point, axis=0)

    out = np.zeros((x.size, _SLOTS), np.uint8)
    out.view(np.uint64)[:, 0] = tables["prefixes"].take(np.signbit(x) + 2 * np.where(below_one, -X, 0))
    out[:, 8:26] = body[:, 3:21]
    out[:, 26:31] = tables["exponents"].take(np.where(fixed, 0, X - _X_MIN + 1), axis=0)
    return out, undecided


def _number_fields(x: np.ndarray, shortest: bool) -> np.ndarray:
    """The _SLOTS-byte layout of every value of flat x, "%.17g" or (`shortest`) float.__repr__.

    Undecided values and finite ones outside [_G17_MIN, _G17_MAX] are written
    by Python, one at a time.
    """
    a = np.abs(x)
    in_range = (a >= _G17_MIN) & (a <= _G17_MAX)
    if in_range.all():  # no index arrays and no row copies
        slots, undecided = _g17_fields(x, shortest)
        by_python = np.flatnonzero(undecided)
    else:
        slots = np.zeros((x.size, _SLOTS), np.uint8)
        inside, outside = np.flatnonzero(in_range), np.flatnonzero(~in_range)
        undecided = np.zeros(0, bool)
        if inside.size:  # a block of 0, nan, inf or extreme values only has none
            slots[inside], undecided = _g17_fields(x[inside], shortest)
        rest = x[outside]
        neg = np.signbit(rest)
        code = np.where(np.isnan(rest), 0, np.where(np.isinf(rest), 1 + neg, 3 + neg))
        slots.view(np.uint64)[outside, :2] = _g17_tables()["constants"][shortest].take(code, axis=0)
        by_python = np.concatenate([inside[undecided], outside[np.isfinite(rest) & (rest != 0)]])
    python = float.__repr__ if shortest else "%.17g".__mod__
    for i, value in zip(by_python.tolist(), x[by_python].tolist()):
        text = python(value)
        slots[i] = 0
        slots[i, : len(text)] = np.frombuffer(text.encode(), np.uint8)
    return slots


def _text(layout: np.ndarray) -> str:
    """The nonzero bytes of a layout, in order, as text."""
    layout = layout.view(np.uint8)
    return str(memoryview(layout[layout != 0]), "ascii")


def _csv_rows(block: np.ndarray) -> str:
    """CSV lines of a 2-D float block, each field exactly "%.17g" % x."""
    n_rows, n_cols = block.shape
    slots = _number_fields(block.ravel(), shortest=False)
    slots.reshape(n_rows, n_cols, _SLOTS)[:, :, -1] = [44] * (n_cols - 1) + [10]  # "," and "\n"
    return _text(slots)


def _csv_table(header: list[str], rows) -> str:
    """CSV text of a 2-D float array-like; each field is exactly "%.17g" % x.

    %.17g keeps 17 significant digits and drops trailing zeros.  _csv_rows
    computes the digits and their layout with numpy; exact ties at the 18th
    digit and |x| outside [1e-280, 1e280] go through Python's "%.17g" one at
    a time.  (JSON tables share the kernel with float.__repr__'s digits, see
    _json_table.)  Rows are formatted _TABLE_BLOCK at a time and the parts are
    joined once, so the peak memory stays about twice the text.
    """
    arr = _as_table(rows, len(header))
    parts = [f"{SCHEMA_LINE}\n{','.join(header)}\n"]
    parts += [_csv_rows(arr[i : i + _TABLE_BLOCK]) for i in range(0, arr.shape[0], _TABLE_BLOCK)]
    return "".join(parts)


def _json_rows(block: np.ndarray, last: bool) -> str:
    """The json.dumps(indent=2) lines of a 2-D float block's rows; `last` closes the table's last row."""
    n_rows, n_cols = block.shape
    indent, opener, closer, end = _g17_tables()["json_frame"]
    fields = _number_fields(block.ravel(), shortest=True)
    fields.reshape(n_rows, n_cols, _SLOTS)[:, :-1, -1] = 44  # ","
    words = np.empty((n_rows, 2 + n_cols * (1 + _SLOTS // 8)), np.uint64)
    words[:, 0] = opener
    lines = words[:, 1:-1].reshape(n_rows, n_cols, -1)
    lines[:, :, 0] = indent
    lines[:, :, 1:] = fields.view(np.uint64).reshape(n_rows, n_cols, -1)
    words[:, -1] = closer
    if last:
        words[-1, -1] = end
    return _text(words)


def _json_table(header: list[str], rows) -> str:
    """json.dumps({"schema", "columns", "rows"}, indent=2, allow_nan=True) text.

    Each row value is exactly float.__repr__, the json encoder's own float
    form, or its NaN/Infinity tokens.  The digits come from the CSV kernel's
    scaled y, as the shortest that read back (_shortest_digits); values within
    1e-9 of a rounding bound or of a tie, and |x| outside [1e-280, 1e280], go
    through float.__repr__ one at a time.  Rows are formatted _TABLE_BLOCK at
    a time, as in _csv_table.
    """
    arr = _as_table(rows, len(header))
    n = arr.shape[0]
    head = json.dumps({"schema": 1, "columns": header, "rows": []}, indent=2)
    if n == 0:
        return head + "\n"
    parts = [head[: -len("[]\n}")] + "["]
    parts += [_json_rows(arr[i : i + _TABLE_BLOCK], i + _TABLE_BLOCK >= n) for i in range(0, n, _TABLE_BLOCK)]
    parts.append("\n  ]\n}\n")
    return "".join(parts)


def _table(config: RunConfig, header: list[str], rows) -> str:
    if config.out_format == "json":
        return _json_table(header, rows)
    return _csv_table(header, rows)


def _require(config: RunConfig, *fields: str) -> None:
    missing = [f for f in fields if getattr(config, f) is None]
    if missing:
        raise ConfigError(f"config: command requires {', '.join(missing)}")


def cmd_bands(config: RunConfig, dispersion: int | None) -> str:
    sample = config.sample
    if dispersion:
        ks = np.linspace(-np.pi / sample.length, np.pi / sample.length, dispersion)
        rows = [[k, *bloch_eigenvalues(sample, k)] for k in ks]
        header = ["k"] + [f"eps_{j + 1}" for j in range(sample.length)]
        return _table(config, header, rows)
    spectrum = band_spectrum(sample)
    rows = [[float(j + 1), lo, hi, hi - lo] for j, (lo, hi) in enumerate(spectrum.bands)]
    return _table(config, ["band", "lo", "hi", "width"], rows)


def cmd_transmit(config: RunConfig, n_cells: int | None, use_inf: bool, diagnostics: bool) -> str:
    _require(config, "lead_l", "lead_r", "kappa")
    if use_inf == (n_cells is not None):
        raise ConfigError("transmit: pass exactly one of --N or --inf")
    grid = _energy_grid(config)
    sample, lead_l, lead_r, kappa = config.sample, config.lead_l, config.lead_r, config.kappa

    def columns(E):
        if diagnostics:
            return _diagnostic_columns(sample, lead_l, lead_r, kappa, n_cells, E)
        if use_inf:
            return transmittance_inf(sample, lead_l, lead_r, kappa, E)
        return transmittance_n(sample, lead_l, lead_r, kappa, n_cells, E)

    header = ["E", "T"] + (["r", "theta"] if diagnostics else [])
    return _table(config, header, np.column_stack([grid, _parallel_grid(columns, grid)]))


def _report_dict(report: CurrentReport, mode: str) -> dict:
    return {
        "mode": mode,
        "phi_l": report.phi_l,
        "phi_r": report.phi_r,
        "i_l": report.i_l,
        "i_r": report.i_r,
        "entropy_j": report.entropy_j,
        "conservation_residual_phi": report.conservation_residuals[0],
        "conservation_residual_i": report.conservation_residuals[1],
        "entropy_balance_residual": report.entropy_balance_residual,
    }


def cmd_currents(config: RunConfig, mode: str, n_cells: int | None) -> str:
    _require(config, "thermo")
    if mode == "thouless":
        report = thouless_currents(config.sample, config.thermo, config.quadrature)
    elif mode == "crystalline":
        _require(config, "lead_l", "lead_r", "kappa")
        report = crystalline_currents(
            config.sample, config.lead_l, config.lead_r, config.kappa,
            config.thermo, config.quadrature,
        )
    elif mode == "finite":
        _require(config, "lead_l", "lead_r", "kappa")
        if n_cells is None:
            raise ConfigError("currents --mode finite requires --N")
        report = lb_currents(
            config.sample, config.lead_l, config.lead_r, config.kappa,
            n_cells, config.thermo, config.quadrature,
        )
    else:
        raise ConfigError(f"currents: unknown mode {mode!r}")
    payload = _report_dict(report, mode)
    if config.out_format == "csv":
        lines = [SCHEMA_LINE, "field,value", f"mode,{mode}"]
        lines += [f"{k},{_num(v)}" for k, v in payload.items() if k != "mode"]
        return "\n".join(lines) + "\n"
    return json.dumps(payload, indent=2, allow_nan=True) + "\n"


def _parse_n_list(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"--N-list: expected comma-separated integers, got {raw!r}") from exc


def _check_flags(args: argparse.Namespace) -> None:
    """Raise a ConfigError naming the first bad flag; parses --N-list in place."""
    if getattr(args, "N", None) is not None:
        with _Section("--N", vars(args)):  # the library's rule, named by the flag
            _repetition_count(args.N)
    if getattr(args, "dispersion", None) is not None and args.dispersion < 1:
        raise ConfigError(f"--dispersion: must be >= 1, got {args.dispersion}")
    if args.command == "converge":
        with _Section("--N-list", vars(args)):
            args.N_list = _repetition_counts(_parse_n_list(args.N_list))
        if args.weight == "indicator" and not args.window[1] > args.window[0]:
            raise ConfigError("--window: needs lo < hi")
        if args.weight == "gaussian" and not args.width > 0:
            raise ConfigError("--width: must be positive")
        if args.weight == "gaussian" and not math.isfinite(args.center):
            raise ConfigError(f"--center: must be finite, got {args.center}")


def cmd_converge(config: RunConfig, n_list: list[int], weight_kind: str,
                 window: tuple[float, float], center: float, width: float) -> str:
    _require(config, "lead_l", "lead_r", "kappa")
    if weight_kind == "indicator":
        lo, hi = window
        breakpoints = (lo, hi)

        def weight(E):
            return ((E >= lo) & (E <= hi)).astype(float)
    else:
        breakpoints = ()

        def weight(E):
            return np.exp(-((E - center) ** 2) / (2.0 * width**2))
    rows = convergence_study(
        config.sample, config.lead_l, config.lead_r, config.kappa,
        weight, n_list, config.quadrature, breakpoints,
    )
    header = ["N", "int_TN", "int_Tinf", "abs_diff"]
    table = [[float(r.n_cells), r.integral_n, r.integral_inf, r.abs_diff] for r in rows]
    if config.out_format == "json":  # the CSV layout stays as it was
        header.append("converged")
        for line, r in zip(table, rows):
            line.append(float(r.converged))
    return _table(config, header, table)


def cmd_selfcheck(config: RunConfig, seed: int | None, ensemble: int) -> tuple[str, bool]:
    passed, results = run_selfcheck(
        seed=config.seed if seed is None else seed, ensemble=ensemble
    )
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
    ]
    lines.append(f"selfcheck: {'all checks passed' if passed else 'FAILURES detected'}")
    return "\n".join(lines) + "\n", passed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thouless-lab",
        description="Transport properties of 1D tight-binding samples coupled to reservoirs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="override output format")

    p = sub.add_parser("bands", help="band spectrum table")
    add_common(p)
    p.add_argument("--dispersion", type=int, default=None, metavar="K",
                   help="emit Bloch eigenvalue curves on a K-point k-grid instead")

    p = sub.add_parser("transmit", help="transmittance on an energy grid")
    add_common(p)
    p.add_argument("--N", type=int, default=None, help="number of sample repetitions")
    p.add_argument("--inf", action="store_true", help="crystalline-limit transmittance")
    p.add_argument("--diagnostics", action="store_true", help="add r, theta columns")

    p = sub.add_parser("currents", help="steady currents")
    add_common(p)
    p.add_argument("--mode", choices=("finite", "crystalline", "thouless"),
                   default="crystalline")
    p.add_argument("--N", type=int, default=None, help="repetitions for --mode finite")

    p = sub.add_parser("thouless", help="Thouless currents (currents --mode thouless)")
    add_common(p)

    p = sub.add_parser("converge", help="∫T_N f vs ∫T_inf f table")
    add_common(p)
    p.add_argument("--N-list", default="1,2,4,8,16,32,64,128,256",
                   help="comma-separated repetition counts")
    p.add_argument("--weight", choices=("indicator", "gaussian"), default="indicator")
    p.add_argument("--window", nargs=2, type=float, default=(-1.5, 1.5),
                   metavar=("LO", "HI"), help="indicator window")
    p.add_argument("--center", type=float, default=0.0, help="gaussian center")
    p.add_argument("--width", type=float, default=0.5, help="gaussian width")

    p = sub.add_parser("selfcheck", help="run the seeded property battery")
    add_common(p)
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--ensemble", type=int, default=50, help="ensemble size")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; parse_args keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand on `argv` (default sys.argv[1:]) and return its exit code.

    May be called repeatedly in one process: the argument parser is built on
    the first call and reused, so a later call pays only for its own work.
    """
    args = _parser().parse_args(argv)
    try:
        _check_flags(args)
        config = load_config(args.config)
        if args.format is not None:
            config = dataclasses.replace(config, out_format=args.format)
        out_path = args.out if args.out is not None else config.out_path
        _check_out_dir(out_path)

        passed = True
        if args.command == "bands":
            text = cmd_bands(config, args.dispersion)
        elif args.command == "transmit":
            text = cmd_transmit(config, args.N, args.inf, args.diagnostics)
        elif args.command == "currents":
            text = cmd_currents(config, args.mode, args.N)
        elif args.command == "thouless":
            text = cmd_currents(config, "thouless", None)
        elif args.command == "converge":
            text = cmd_converge(
                config, args.N_list, args.weight, tuple(args.window), args.center, args.width
            )
        elif args.command == "selfcheck":
            text, passed = cmd_selfcheck(config, args.seed, args.ensemble)
        else:  # pragma: no cover
            raise ConfigError(f"unknown command {args.command}")
        _emit(text, out_path)
    except (ConfigError, DomainError) as exc:  # a library DomainError is a refused input too
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ThoulessLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK if passed else EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())

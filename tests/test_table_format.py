"""Golden tests: the CLI table formatters against a per-value reference.

The reference is the plain formatter the CLI output is defined by: one
f"{x:.17g}" per CSV field, and json.dumps(indent=2, allow_nan=True) for JSON.
"""

import json
import tracemalloc

import numpy as np
import pytest

from thouless_lab import (
    CrystallineLead,
    HalfLineLead,
    SampleSpec,
    band_spectrum,
    transmittance_inf,
    transmittance_n,
)
from thouless_lab.cli import _TABLE_BLOCK, _POW10_MAX, _POW10_MIN, GRID_CHUNK, SCHEMA_LINE
from thouless_lab.cli import _csv_table, _g17_tables, _json_table, main
from thouless_lab.transport import _r_theta_values

POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-323, 309)])
POWERS_OF_TWO = np.array([2.0**k for k in range(-1074, 1024)])
# Values that take neither the vectorized digits nor the vectorized layout:
# zeros, nan, infinities, exact 18th-digit ties and |x| outside [1e-280, 1e280];
# then values whose repr digits fall back: a candidate exactly on a rounding
# bound, among them powers of two and their neighbours.
UNDECIDED = [
    0.0, -0.0, np.nan, np.inf, -np.inf, 1049 / 2**20, -1974014629615873.75,
    41899719538717.4375, 5e-324, -1e-300, 1e300,
    9999999999999998.0, 1e23, 2.0**-25, -(2.0**53), 2251799813685247.8,
]
SPECIAL = [
    np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e16, 1e-5, 1e-300, 1.7976931308254e308, -1.7976931308254e308, 1e22, 1e23,
    0.1, 1 / 3, -2.5, 123456789012345678.0, 9.999999999999999e-5,
    # every power of ten with both neighbours: log10 puts the decimal exponent
    # off by one there (9.9999999999999997e-278 is not 1e-277)
    *POWERS_OF_TEN, *np.nextafter(POWERS_OF_TEN, 0.0), *-np.nextafter(POWERS_OF_TEN, np.inf),
    # exact ties at the 18th digit round half to even: 0.0010004043579101562
    *UNDECIDED[5:8], 123456789012345.625, -1059 / 2**20, 9999 / 2**20,
    # where %g switches between fixed and exponent notation
    9.9999999999999991e-05, 1.0000000000000001e-05, 1e-4, -1e-4, 9999999999999998.0,
    10000000000000000.0, 99999999999999984.0, 1e17,
    # float.__repr__: short digits whose %.17g is not; where it switches to
    # exponent form (1e15 stays fixed, with ".0"); integral values
    0.2, 0.3, 1e15, -1e15, 100.0, 123.0, 1.7976931348623157e308,
    # the shortest that reads back: two 16-digit candidates read back and the
    # nearer is above (8.095858330855638) or below; a 15-digit one is inside
    # though a multiple of 10 is nearer (9.66578120598905)
    8.095858330855638, 9.826634798211147, 9.66578120598905, -9.66578120598905,
    # every power of two with both neighbours: the gap below one is half the gap above
    *POWERS_OF_TWO, *np.nextafter(POWERS_OF_TWO, 0.0), *-np.nextafter(POWERS_OF_TWO, np.inf),
    *UNDECIDED[11:],
]


def ref_csv(header, rows):
    lines = [SCHEMA_LINE, ",".join(header)]
    lines.extend(",".join(f"{x:.17g}" for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def ref_json(header, rows):
    return json.dumps({"schema": 1, "columns": header, "rows": rows}, indent=2, allow_nan=True) + "\n"


def table_values(n_rows, n_cols, seed):
    """Special values first, then doubles from random bit patterns (any exponent).

    A table longer than GRID_CHUNK rows repeats the special values across the
    first chunk boundary of the formatters, and its second CSV block holds
    only UNDECIDED values.
    """
    rng = np.random.default_rng(seed)
    flat = rng.integers(0, 2**64, size=n_rows * n_cols, dtype=np.uint64).view(np.float64)
    flat[: min(len(SPECIAL), flat.size)] = SPECIAL[: flat.size]
    if n_rows > GRID_CHUNK:
        start = min(GRID_CHUNK * n_cols - len(SPECIAL) // 2, flat.size - len(SPECIAL))
        flat[start : start + len(SPECIAL)] = SPECIAL
        block = slice(_TABLE_BLOCK * n_cols, 2 * _TABLE_BLOCK * n_cols)
        flat[block] = np.resize(UNDECIDED, _TABLE_BLOCK * n_cols)
    return flat.reshape(n_rows, n_cols)


@pytest.mark.parametrize("n_rows", [0, 1, 3000, GRID_CHUNK + 1])
@pytest.mark.parametrize("n_cols", [1, 2, 3, 4])
def test_formatters_match_reference(n_rows, n_cols):
    arr = table_values(n_rows, n_cols, seed=100 * n_rows + n_cols)
    header = [f"c{j}" for j in range(n_cols)]
    scalar_rows = [list(row) for row in arr]  # numpy scalars, as zip over columns gives
    assert_same_text(_csv_table(header, arr), ref_csv(header, scalar_rows))
    assert_same_text(_json_table(header, arr), ref_json(header, scalar_rows))
    # list input, as `bands` and `converge` pass it
    assert_same_text(_csv_table(header, arr.tolist()), ref_csv(header, arr.tolist()))
    assert_same_text(_json_table(header, arr.tolist()), ref_json(header, arr.tolist()))


def test_powers_of_ten_are_double_doubles():
    # the CSV kernel scales by 10^k as hi + lo: hi correctly rounded, and
    # hi + lo within 2^-104 of 10^k, relative; checked in exact integers
    hi, lo = (t.tolist() for t in _g17_tables()["pow10"][:2])
    for k, h, l in zip(range(_POW10_MIN, _POW10_MAX + 1), hi, lo, strict=True):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        assert h == num / den, k
        (h_num, h_den), (l_num, l_den) = h.as_integer_ratio(), l.as_integer_ratio()
        err = num * h_den * l_den - den * (h_num * l_den + l_num * h_den)
        assert abs(err) * 2**104 <= num * h_den * l_den, k


@pytest.mark.parametrize("formatter", [_csv_table, _json_table])
def test_formatter_memory_is_about_twice_the_text(formatter):
    # rows are formatted a chunk at a time: the chunk texts and their one join
    rng = np.random.default_rng(5)
    arr = rng.standard_normal((4 * GRID_CHUNK, 4))
    arr[::7, 2] = np.nan
    arr[::11, 3] = np.inf
    tracemalloc.start()
    try:
        text = formatter(["E", "T", "r", "theta"], arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text), f"peak {peak} bytes for {len(text)} characters"


DIMER = SampleSpec((1.0,), (0.0, 0.0), 0.5)
# half-line leads cover the dimer's gap, where r and theta are nan
LEAD_CASES = {
    "half_line": (
        [{"type": "half_line", "t": 1.2, "v0": 0.0}, {"type": "half_line", "t": 1.1, "v0": 0.1}],
        (HalfLineLead(1.2, 0.0), HalfLineLead(1.1, 0.1)),
    ),
    "crystalline_self": (
        [{"type": "crystalline", "sample": "self", "side": side} for side in "lr"],
        (CrystallineLead(DIMER, "l"), CrystallineLead(DIMER, "r")),
    ),
}


MODES = {"N3": ["--N", "3"], "N1000000": ["--N", "1000000"], "inf": ["--inf"]}
# the half-line --N 3 cases keep their original ids, "csv" and "json"
DIAGNOSTIC_CASES = [
    pytest.param(fmt, leads, mode, id=fmt if (leads, mode) == ("half_line", "N3")
                 else f"{leads}-{mode}-{fmt}")
    for leads in LEAD_CASES for mode in MODES for fmt in ("csv", "json")
]


@pytest.mark.parametrize("fmt, leads, mode", DIAGNOSTIC_CASES)
def test_transmit_diagnostics_bytes_across_chunks(tmp_path, fmt, leads, mode):
    (left, right), (lead_l, lead_r) = LEAD_CASES[leads]
    payload = {
        "sample": {"J": [1.0], "lambda": [0.0, 0.0], "kappa_S": 0.5},
        "leads": {"left": left, "right": right},
        "kappa": 0.7,
        "energy_grid": {"count": 2 * GRID_CHUNK + 5},
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / f"t.{fmt}"
    argv = ["transmit", "--config", str(cfg), "--out", str(out), "--format", fmt,
            *MODES[mode], "--diagnostics"]
    assert main(argv) == 0

    # the chunked CLI output equals one whole-grid evaluation of each column
    grid = np.linspace(*band_spectrum(DIMER).hull, 2 * GRID_CHUNK + 5)
    if mode == "inf":
        T = transmittance_inf(DIMER, lead_l, lead_r, 0.7, grid)
    else:
        T = transmittance_n(DIMER, lead_l, lead_r, 0.7, int(MODES[mode][1]), grid)
    r, _, theta, _ = _r_theta_values(DIMER, lead_l, lead_r, 0.7, grid)
    assert np.isnan(r).any() and np.isfinite(r).any()
    rows = [list(vals) for vals in zip(grid, T, r, theta)]
    ref = ref_json if fmt == "json" else ref_csv
    assert_same_text(out.read_text(), ref(["E", "T", "r", "theta"], rows))


def assert_same_text(got, expected):
    """Exact equality, reported by the first differing line.

    pytest's own diff of two multi-megabyte strings takes minutes.
    """
    if got == expected:
        return
    got_lines, expected_lines = got.splitlines(), expected.splitlines()
    for lineno, (g, e) in enumerate(zip(got_lines, expected_lines), start=1):
        if g != e:
            pytest.fail(f"line {lineno} differs: got {g!r}, expected {e!r}")
    common = min(len(got_lines), len(expected_lines))
    pytest.fail(f"the first {common} lines agree; got {len(got_lines)} lines and "
                f"{len(got)} characters, expected {len(expected_lines)} and {len(expected)}")

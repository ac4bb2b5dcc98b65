"""Golden tests: the CLI table formatters against a per-value reference.

The reference is the plain formatter the CLI output is defined by: one
f"{x:.17g}" per CSV field, and json.dumps(indent=2, allow_nan=True) for JSON.
"""

import json

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
from thouless_lab.cli import GRID_CHUNK, SCHEMA_LINE, _csv_table, _json_table, main
from thouless_lab.transport import _r_theta_values

SPECIAL = [
    np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e16, 1e-5, 1e-300, 1.7976931308254e308, -1.7976931308254e308, 1e22, 1e23,
    0.1, 1 / 3, -2.5, 123456789012345678.0, 9.999999999999999e-5,
]


def ref_csv(header, rows):
    lines = [SCHEMA_LINE, ",".join(header)]
    lines.extend(",".join(f"{x:.17g}" for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def ref_json(header, rows):
    return json.dumps({"schema": 1, "columns": header, "rows": rows}, indent=2, allow_nan=True) + "\n"


def table_values(n_rows, n_cols, seed):
    """Special values first, then doubles from random bit patterns (any exponent)."""
    rng = np.random.default_rng(seed)
    flat = rng.integers(0, 2**64, size=n_rows * n_cols, dtype=np.uint64).view(np.float64)
    flat[: min(len(SPECIAL), flat.size)] = SPECIAL[: flat.size]
    return flat.reshape(n_rows, n_cols)


@pytest.mark.parametrize("n_rows", [0, 1, 3000])
@pytest.mark.parametrize("n_cols", [1, 2, 3, 4])
def test_formatters_match_reference(n_rows, n_cols):
    arr = table_values(n_rows, n_cols, seed=100 * n_rows + n_cols)
    header = [f"c{j}" for j in range(n_cols)]
    scalar_rows = [list(row) for row in arr]  # numpy scalars, as zip over columns gives
    assert _csv_table(header, arr) == ref_csv(header, scalar_rows)
    assert _json_table(header, arr) == ref_json(header, scalar_rows)
    # list input, as `bands` and `converge` pass it
    assert _csv_table(header, arr.tolist()) == ref_csv(header, arr.tolist())
    assert _json_table(header, arr.tolist()) == ref_json(header, arr.tolist())


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


MODES = {"N3": ["--N", "3"], "inf": ["--inf"]}
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
        T = transmittance_n(DIMER, lead_l, lead_r, 0.7, 3, grid)
    r, _, theta, _ = _r_theta_values(DIMER, lead_l, lead_r, 0.7, grid)
    assert np.isnan(r).any() and np.isfinite(r).any()
    rows = [list(vals) for vals in zip(grid, T, r, theta)]
    ref = ref_json if fmt == "json" else ref_csv
    assert out.read_text() == ref(["E", "T", "r", "theta"], rows)

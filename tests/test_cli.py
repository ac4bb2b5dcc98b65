import json
import os
import subprocess
import sys

import numpy as np
import pytest

from test_jacobi import probe_l32_sample
from thouless_lab import cli
from thouless_lab.cli import main
from thouless_lab.jacobi import SampleSpec, bloch_hamiltonian

MATCHED = {
    "sample": {"L": 1, "J": [], "lambda": [0.0], "kappa_S": 1.0},
    "leads": {
        "left": {"type": "half_line", "t": 1.0, "v0": 0.0},
        "right": {"type": "half_line", "t": 1.0, "v0": 0.0},
    },
    "kappa": 1.0,
    "thermo": {"beta_l": 2.0, "mu_l": -0.5, "beta_r": 2.0, "mu_r": 0.5},
    "energy_grid": {"count": 41},
    "seed": 7,
}

DIMER = {
    "sample": {"J": [1.0], "lambda": [0.0, 0.0], "kappa_S": 0.5},
    "leads": {
        "left": {"type": "crystalline", "sample": "self", "side": "l"},
        "right": {"type": "crystalline", "sample": "self", "side": "r"},
    },
    "kappa": 0.5,
    "thermo": {"beta_l": "inf", "mu_l": -2.0, "beta_r": "inf", "mu_r": 2.0},
    "energy_grid": {"count": 31},
}


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "# schema=1"
    header = lines[1].split(",")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[2:]]
    return header, np.asarray(rows)


def test_bands_free_chain(tmp_path, capsys):
    cfg = write_config(tmp_path, MATCHED)
    out = tmp_path / "bands.csv"
    assert main(["bands", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["band", "lo", "hi", "width"]
    assert rows.shape == (1, 4)
    np.testing.assert_allclose(rows[0], [1.0, -2.0, 2.0, 4.0], atol=1e-12)


def test_bands_row_count_bounded_by_sites(tmp_path):
    cfg = write_config(tmp_path, DIMER)
    out = tmp_path / "bands.csv"
    assert main(["bands", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert rows.shape[0] <= 2


def test_bands_dispersion_curves(tmp_path):
    cfg = write_config(tmp_path, DIMER)
    out = tmp_path / "disp.csv"
    assert main(["bands", "--config", cfg, "--out", str(out), "--dispersion", "21"]) == 0
    header, rows = read_csv(out)
    assert header == ["k", "eps_1", "eps_2"]
    assert rows.shape == (21, 3)
    # eigenvalue curves are even in k
    np.testing.assert_allclose(rows[0, 1:], rows[-1, 1:], atol=1e-10)


def test_transmit_matched_ones(tmp_path):
    cfg = write_config(tmp_path, MATCHED)
    out = tmp_path / "t.csv"
    assert main(["transmit", "--config", cfg, "--out", str(out), "--N", "10"]) == 0
    header, rows = read_csv(out)
    assert header == ["E", "T"]
    interior = rows[np.abs(rows[:, 0]) < 1.99]
    np.testing.assert_allclose(interior[:, 1], 1.0, atol=1e-9)


def test_transmit_inf_equals_large_n_matched(tmp_path):
    cfg = write_config(tmp_path, MATCHED)
    out_inf = tmp_path / "ti.csv"
    out_n = tmp_path / "tn.csv"
    assert main(["transmit", "--config", cfg, "--out", str(out_inf), "--inf"]) == 0
    assert main(["transmit", "--config", cfg, "--out", str(out_n), "--N", "1000000"]) == 0
    _, rows_inf = read_csv(out_inf)
    _, rows_n = read_csv(out_n)
    np.testing.assert_allclose(rows_inf, rows_n, atol=1e-9)


def test_transmit_gap_rows_are_explicit_zeros(tmp_path):
    payload = dict(DIMER)
    payload["leads"] = {
        "left": {"type": "half_line", "t": 1.2, "v0": 0.0},
        "right": {"type": "half_line", "t": 1.2, "v0": 0.0},
    }
    payload["kappa"] = 1.0
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "t.csv"
    assert main(["transmit", "--config", cfg, "--out", str(out), "--inf"]) == 0
    _, rows = read_csv(out)
    gap = rows[np.abs(rows[:, 0]) < 0.45]
    assert gap.size > 0
    np.testing.assert_array_equal(gap[:, 1], 0.0)


def test_transmit_diagnostics_columns(tmp_path):
    payload = dict(MATCHED)
    payload["kappa"] = float(np.sqrt(2.0))
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "t.csv"
    assert main(
        ["transmit", "--config", cfg, "--out", str(out), "--N", "3", "--diagnostics"]
    ) == 0
    header, rows = read_csv(out)
    assert header == ["E", "T", "r", "theta"]
    mid = rows[np.argmin(np.abs(rows[:, 0]))]
    assert mid[2] == pytest.approx(1.0 / 9.0, abs=1e-6)


def l32_probe_payload(sample: SampleSpec, **sections) -> dict:
    """A config on `sample` with two half-line leads, plus `sections`."""
    return {
        "sample": {"J": list(sample.hop), "lambda": list(sample.onsite), "kappa_S": sample.kappa_s},
        "leads": {
            "left": {"type": "half_line", "t": 2.0, "v0": 0.0},
            "right": {"type": "half_line", "t": 2.1, "v0": 0.1},
        },
        "kappa": 0.8,
        **sections,
    }


def test_transmit_default_grid_spans_the_eigvalsh_hull_at_l32(tmp_path):
    # the trace of this sample is ill-conditioned; band_spectrum's cross-check accepts it
    sample = probe_l32_sample(1)
    cfg = write_config(tmp_path, l32_probe_payload(sample, energy_grid={"count": 64}))
    out = tmp_path / "t.csv"
    assert main(["transmit", "--config", cfg, "--out", str(out), "--N", "4"]) == 0
    _, rows = read_csv(out)
    eps = np.concatenate(
        [np.linalg.eigvalsh(bloch_hamiltonian(sample, k)) for k in (0.0, np.pi / sample.length)]
    )
    assert rows.shape == (64, 2)
    assert rows[0, 0] == eps.min() and rows[-1, 0] == eps.max()
    assert np.all((rows[:, 1] >= 0.0) & (rows[:, 1] <= 1.0))


@pytest.mark.parametrize(
    "command", [["bands"], ["currents", "--mode", "crystalline"], ["thouless"]],
    ids=["bands", "crystalline", "thouless"],
)
def test_band_spectrum_commands_run_on_the_l32_probe_sample(tmp_path, command):
    # a fixed 1e-9 trace tolerance refused this sample's bands: these commands exited 3
    thermo = {"beta_l": 2.0, "mu_l": 0.3, "beta_r": 3.0, "mu_r": -0.3}
    cfg = write_config(tmp_path, l32_probe_payload(probe_l32_sample(1), thermo=thermo))
    out = tmp_path / "out.csv"
    assert main([*command, "--config", cfg, "--out", str(out)]) == 0
    assert out.stat().st_size > 0


def test_transmit_requires_exactly_one_mode(tmp_path):
    cfg = write_config(tmp_path, MATCHED)
    assert main(["transmit", "--config", cfg]) == 2
    assert main(["transmit", "--config", cfg, "--N", "3", "--inf"]) == 2


def test_currents_json_schema(tmp_path):
    cfg = write_config(tmp_path, MATCHED)
    out = tmp_path / "cur.json"
    assert main(
        ["currents", "--config", cfg, "--out", str(out), "--mode", "crystalline",
         "--format", "json"]
    ) == 0
    payload = json.loads(out.read_text())
    for key in (
        "phi_l", "phi_r", "i_l", "i_r", "entropy_j",
        "conservation_residual_phi", "conservation_residual_i",
        "entropy_balance_residual",
    ):
        assert key in payload
    # equilibrium-free matched run is tiny but residual fields are present regardless
    assert payload["conservation_residual_phi"] >= 0.0


def test_currents_equilibrium_zero_report(tmp_path):
    payload = dict(MATCHED)
    payload["thermo"] = {"beta_l": 2.0, "mu_l": 0.1, "beta_r": 2.0, "mu_r": 0.1}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "cur.json"
    assert main(["currents", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    for key in ("phi_l", "phi_r", "i_l", "i_r", "entropy_j"):
        assert abs(payload[key]) <= 1e-8


def test_thouless_mode_free_chain_value(tmp_path):
    payload = dict(MATCHED)
    payload["thermo"] = {"beta_l": "inf", "mu_l": -2.0, "beta_r": "inf", "mu_r": 2.0}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "th.json"
    assert main(["thouless", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    report = json.loads(out.read_text())
    assert report["i_r"] == pytest.approx(4.0 / (2.0 * np.pi), abs=1e-12)


def test_finite_mode_requires_n(tmp_path):
    cfg = write_config(tmp_path, MATCHED)
    assert main(["currents", "--config", cfg, "--mode", "finite"]) == 2


def test_currents_csv_field_value_rows(tmp_path):
    cfg = write_config(tmp_path, MATCHED)
    out = tmp_path / "cur.csv"
    assert main(
        ["currents", "--config", cfg, "--out", str(out), "--mode", "finite", "--N", "2"]
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1] == "field,value"
    fields = {line.split(",")[0] for line in lines[2:]}
    assert {"phi_l", "i_r", "entropy_balance_residual"} <= fields


def test_converge_matched_diffs_vanish(tmp_path):
    cfg = write_config(tmp_path, MATCHED)
    out = tmp_path / "conv.csv"
    assert main(
        ["converge", "--config", cfg, "--out", str(out), "--N-list", "1,2,4",
         "--window", "-1.5", "1.5"]
    ) == 0
    header, rows = read_csv(out)
    assert header == ["N", "int_TN", "int_Tinf", "abs_diff"]
    np.testing.assert_allclose(rows[:, 3], 0.0, atol=1e-5)


def test_converge_json_flags_a_failed_row(tmp_path, monkeypatch):
    # the N = 2 row's quadrature raises; its JSON row says converged = 0.0
    from thouless_lab import currents
    from thouless_lab.errors import QuadratureError

    panels = currents._adaptive_panels

    def failing_for_n2(spectrum, integrand, quad, breakpoints=(), first_level=None):
        if first_level == currents._FIRST_PANELS + 2 * 2:
            raise QuadratureError("forced", value=np.array([0.25]), error_estimate=np.array([1.0]))
        return panels(spectrum, integrand, quad, breakpoints, first_level)

    monkeypatch.setattr(currents, "_adaptive_panels", failing_for_n2)
    cfg = write_config(tmp_path, MATCHED)
    out = tmp_path / "conv.json"
    assert main(
        ["converge", "--config", cfg, "--out", str(out), "--format", "json",
         "--N-list", "1,2,4", "--window", "-1.5", "1.5"]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["columns"] == ["N", "int_TN", "int_Tinf", "abs_diff", "converged"]
    rows = np.asarray(payload["rows"])
    np.testing.assert_array_equal(rows[:, 0], [1.0, 2.0, 4.0])
    np.testing.assert_array_equal(rows[:, 4], [1.0, 0.0, 1.0])
    assert rows[1, 1] == 0.25


def test_selfcheck_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, MATCHED)
    assert main(["selfcheck", "--config", cfg, "--seed", "3", "--ensemble", "6"]) == 0
    captured = capsys.readouterr()
    assert "PASS oracle_equivalence" in captured.out
    assert "all checks passed" in captured.out


def test_selfcheck_library_error_is_a_failed_check_not_a_numerical_exit(tmp_path, capsys):
    # seed 256 puts a matched-lead T_N beyond CLAMP_TOL: exit 1 with a FAIL line, not 3
    cfg = write_config(tmp_path, MATCHED)
    assert main(["selfcheck", "--config", cfg, "--seed", "256", "--ensemble", "4"]) == 1
    out = capsys.readouterr().out
    assert "FAIL matched_reflectionless: NumericalError: T_N outside [0,1]" in out
    assert out.endswith("selfcheck: FAILURES detected\n")


@pytest.mark.parametrize("half_line", [True, False], ids=["half_line", "crystalline"])
def test_transmit_inf_t_column_is_the_same_with_diagnostics(tmp_path, half_line):
    # the diagnostics T column reads the full eigendata, plain --inf the T_infty plan
    payload = dict(DIMER, kappa=0.7, energy_grid={"count": 401})
    if half_line:
        payload["leads"] = {"left": {"type": "half_line", "t": 1.2, "v0": 0.1},
                            "right": {"type": "half_line", "t": 1.1, "v0": -0.1}}
    cfg = write_config(tmp_path, payload)
    plain, diag = tmp_path / "t.csv", tmp_path / "d.csv"
    assert main(["transmit", "--config", cfg, "--out", str(plain), "--inf"]) == 0
    assert main(["transmit", "--config", cfg, "--out", str(diag), "--inf", "--diagnostics"]) == 0
    plain_rows = plain.read_text().splitlines()[2:]
    diag_rows = diag.read_text().splitlines()[2:]
    assert len(plain_rows) == len(diag_rows) > 100
    assert [row.rsplit(",", 2)[0] for row in diag_rows] == plain_rows


def test_config_rejects_unknown_keys(tmp_path):
    payload = dict(MATCHED)
    payload["extra"] = 1
    cfg = write_config(tmp_path, payload)
    assert main(["bands", "--config", cfg]) == 2


def test_config_rejects_zero_hopping(tmp_path, capsys):
    payload = json.loads(json.dumps(DIMER))
    payload["sample"]["J"] = [0.0]
    cfg = write_config(tmp_path, payload)
    assert main(["bands", "--config", cfg]) == 2
    assert "nonzero" in capsys.readouterr().err


def test_config_malformed_json_no_partial_output(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "never.csv"
    assert main(["bands", "--config", str(bad), "--out", str(out)]) == 2
    assert not out.exists()


def test_config_inconsistent_length(tmp_path):
    payload = json.loads(json.dumps(MATCHED))
    payload["sample"]["L"] = 5
    cfg = write_config(tmp_path, payload)
    assert main(["bands", "--config", cfg]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["transmit", "--N", "0"],
        ["transmit", "--N", "-2"],
        ["currents", "--mode", "finite", "--N", "0"],
        ["currents", "--mode", "finite", "--N", "-2"],
        ["converge", "--N-list", "0,1"],
        ["converge", "--N-list", "1,-4"],
    ],
)
def test_repetition_count_below_one_is_config_error(tmp_path, capsys, args):
    # the library's message, behind the flag that carried the value
    cfg = write_config(tmp_path, MATCHED)
    out = tmp_path / "never.csv"
    assert main([*args, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    bad = next(tok for tok in args[-1].split(",") if int(tok) < 1)
    expected = f"config error: {args[-2]}: n_cells must be a positive integer, got {bad}\n"
    assert capsys.readouterr().err == expected


def test_deterministic_reruns_byte_identical(tmp_path):
    cfg = write_config(tmp_path, DIMER)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["transmit", "--config", cfg, "--out", str(out), "--N", "17"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_full_roundtrip_precision(tmp_path):
    cfg = write_config(tmp_path, MATCHED)
    out = tmp_path / "t.csv"
    assert main(["transmit", "--config", cfg, "--out", str(out), "--inf"]) == 0
    lines = out.read_text().strip().splitlines()
    # values parse back to the exact same doubles they were printed from
    from thouless_lab import HalfLineLead, SampleSpec, transmittance_inf

    sample = SampleSpec((), (0.0,), 1.0)
    lead = HalfLineLead(1.0, 0.0)
    for line in lines[2:]:
        e_str, t_str = line.split(",")
        E = float(e_str)
        assert float(t_str) == transmittance_inf(sample, lead, lead, 1.0, E)


def test_tabulated_lead_config(tmp_path):
    grid = np.linspace(-2.5, 2.5, 101)
    im = np.sqrt(np.maximum(4.0 - grid**2, 0.0)) / 2.0
    csv = tmp_path / "lead.csv"
    csv.write_text(
        "E,ReF,ImF\n" + "\n".join(f"{e},0.0,{v}" for e, v in zip(grid, im)) + "\n"
    )
    payload = json.loads(json.dumps(MATCHED))
    payload["leads"]["left"] = {"type": "tabulated", "path": str(csv)}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "t.csv"
    assert main(["transmit", "--config", cfg, "--out", str(out), "--N", "2"]) == 0
    _, rows = read_csv(out)
    assert np.all(rows[:, 1] >= 0.0) and np.all(rows[:, 1] <= 1.0)


def test_tabulated_lead_short_of_the_grid_is_config_error(tmp_path, capsys):
    # a library DomainError raised mid-run is a refused input: exit 2, not 3
    csv = tmp_path / "lead.csv"
    csv.write_text("E,ReF,ImF\n-0.5,0.0,3.141592653589793\n0.5,0.0,3.141592653589793\n")
    payload = json.loads(json.dumps(DIMER))
    payload["leads"]["left"] = {"type": "tabulated", "path": str(csv)}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "never.csv"
    assert main(["transmit", "--config", cfg, "--out", str(out), "--N", "2"]) == 2
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: tabulated lead"), lines


def _edited(base, path, value):
    """A deep copy of base with the key at the dotted path set, or deleted if value is DELETE."""
    payload = json.loads(json.dumps(base))
    *parents, key = path.split(".")
    section = payload
    for part in parents:
        section = section[part]
    if value is DELETE:
        del section[key]
    else:
        section[key] = value
    return payload


DELETE = object()
HALF_LINE = "leads.left"

# (a config edit, the raw config file or None; extra CLI args; how the one stderr
# line starts after "config error: ")
MALFORMED = {
    "file_not_utf8": (b'{"sample": "\xff"}', [], "cannot read config "),
    "kappa_string": (("kappa", "abc"), [], "kappa: "),
    "kappa_null": (("kappa", None), [], "kappa: "),
    "abs_tol_string": (("quadrature", {"abs_tol": "x"}), [], "quadrature: "),
    "onsite_string": (
        ("sample", {"J": [1.0], "lambda": [0.0, "a"], "kappa_S": 1.0}), [], "sample: "
    ),
    "hoppings_scalar": (("sample.J", 1.0), [], "sample: "),
    "length_string": (("sample.L", "two"), [], "sample: "),
    "count_string": (("energy_grid", {"count": "ten"}), [], "energy_grid: "),
    "values_string": (("energy_grid", {"values": ["a"]}), [], "energy_grid: "),
    "count_infinite": (("energy_grid", {"count": float("inf")}), [], "energy_grid: "),
    "mu_string": (("thermo.mu_l", "zero"), [], "thermo: "),
    "thermo_number": (("thermo", 5), [], "thermo: expected an object"),
    "hopping_string": ((f"{HALF_LINE}.t", "big"), [], f"{HALF_LINE}: "),
    "tabulated_missing": (
        (HALF_LINE, {"type": "tabulated", "path": "absent.csv"}), [], f"{HALF_LINE}: "
    ),
    "tabulated_path_number": (
        (HALF_LINE, {"type": "tabulated", "path": 0}), [], f"{HALF_LINE}.path: "
    ),
    "output_path_number": (("output", {"path": 7}), [], "output.path: "),
    "seed_string": (("seed", "s"), [], "seed: seed must be a non-negative integer, got 's'"),
    "seed_negative": (("seed", -1), [], "seed: seed must be a non-negative integer, got -1"),
    "thermo_missing_key": (("thermo.mu_l", DELETE), [], "thermo: missing required key 'mu_l'"),
    "thermo_bad_beta": (("thermo.beta_l", "hot"), [], "thermo: expected a number or 'inf'"),
    "half_line_missing_t": (
        (f"{HALF_LINE}.t", DELETE), [], f"{HALF_LINE}: missing required key 't'"
    ),
    "leads_string": (("leads", "x"), [], "leads: expected an object"),
    "quadrature_list": (("quadrature", [1]), [], "quadrature: expected an object"),
    "dispersion_negative": (None, ["--dispersion", "-3"], "--dispersion: "),
    "dispersion_zero": (None, ["--dispersion", "0"], "--dispersion: "),
    # run_selfcheck owns the seed and ensemble rule: its DomainError is the one line
    "ensemble_zero": (
        None, ["selfcheck", "--ensemble", "0"], "ensemble must be a positive integer, got 0"
    ),
    "ensemble_negative": (
        None, ["selfcheck", "--ensemble", "-5"], "ensemble must be a positive integer, got -5"
    ),
    "seed_flag_negative": (
        None, ["selfcheck", "--ensemble", "1", "--seed", "-2"],
        "seed must be a non-negative integer, got -2",
    ),
    "n_list_repeated": (
        None, ["converge", "--N-list", "1,1"], "--N-list: n_list must be nonempty and strictly"
    ),
    "n_list_decreasing": (None, ["converge", "--N-list", "4,2"], "--N-list: n_list must be "),
    "n_list_empty": (None, ["converge", "--N-list", ","], "--N-list: n_list must be nonempty"),
    "n_list_word": (None, ["converge", "--N-list", "1,two"], "--N-list: expected comma-sep"),
    "center_nan": (None, ["converge", "--weight", "gaussian", "--center", "nan"], "--center: "),
    # integer keys take JSON integers only: int() would truncate 1.5 to the sample's L = 1
    "length_fraction": (("sample.L", 1.5), [], "sample: expected an integer, got 1.5"),
    "length_bool": (("sample.L", True), [], "sample: expected an integer, got True"),
    "seed_fraction": (("seed", 2.7), [], "seed: seed must be a non-negative integer, got 2.7"),
    "seed_bool": (("seed", True), [], "seed: seed must be a non-negative integer, got True"),
    "count_fraction": (("energy_grid.count", 400.9), [], "energy_grid: expected an integer"),
    # the panel count and Gauss order are constants of the library: their former keys are refused
    "panels_fraction": (
        ("quadrature", {"panels_per_band": 2.5}), [],
        "quadrature: unknown key(s) ['panels_per_band']",
    ),
    "points_bool": (
        ("quadrature", {"points_per_panel": True}), [],
        "quadrature: unknown key(s) ['points_per_panel']",
    ),
    "panels_default": (
        ("quadrature", {"panels_per_band": 8}), [], "quadrature: unknown key(s) ['panels_per_band']"
    ),
    "points_default": (
        ("quadrature", {"points_per_panel": 12}), [],
        "quadrature: unknown key(s) ['points_per_panel']",
    ),
    # float keys take JSON numbers only: float() would read true as 1.0 and "1.2" as 1.2
    "kappa_bool": (("kappa", True), [], "kappa: expected a number, got True"),
    "abs_tol_bool": (
        ("quadrature", {"abs_tol": True}), [], "quadrature: expected a number, got True"
    ),
    "abs_tol_numeric_string": (
        ("quadrature", {"abs_tol": "1e-8"}), [], "quadrature: expected a number, got '1e-8'"
    ),
    "onsite_numeric_string": (
        ("sample.lambda", ["0.5"]), [], "sample: expected a number, got '0.5'"
    ),
    "onsite_bool": (("sample.lambda", [False]), [], "sample: expected a number, got False"),
    "hopping_numeric_string": (
        ("sample", {"J": ["1.0"], "lambda": [0.0, 0.0], "kappa_S": 1.0}), [],
        "sample: expected a number, got '1.0'",
    ),
    "kappa_s_bool": (("sample.kappa_S", True), [], "sample: expected a number, got True"),
    "lead_t_numeric_string": (
        (f"{HALF_LINE}.t", "1.2"), [], f"{HALF_LINE}: expected a number, got '1.2'"
    ),
    "lead_v0_bool": ((f"{HALF_LINE}.v0", False), [], f"{HALF_LINE}: expected a number, got False"),
    "mu_numeric_string": (("thermo.mu_r", "0.5"), [], "thermo: expected a number, got '0.5'"),
    "beta_bool": (("thermo.beta_r", True), [], "thermo: expected a number or 'inf'"),
    "values_bool": (
        ("energy_grid", {"values": [0.1, True]}), [], "energy_grid: expected a number, got True"
    ),
}


@pytest.mark.parametrize("case", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_config_or_flag_is_one_config_error(tmp_path, monkeypatch, capsys, case):
    edit, args, start = case
    monkeypatch.chdir(tmp_path)  # a relative tabulated path resolves here
    if isinstance(edit, bytes):
        (tmp_path / "run.json").write_bytes(edit)
        cfg = str(tmp_path / "run.json")
    else:
        cfg = write_config(tmp_path, MATCHED if edit is None else _edited(MATCHED, *edit))
    if not args or args[0].startswith("--"):
        args = ["bands", *args]
    out = tmp_path / "never.csv"
    assert main([*args, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error: {start}"), lines
    # the section or flag, if the line names one, is named once
    where, _, rest = lines[0].removeprefix("config error: ").partition(": ")
    assert not rest.startswith(f"{where}:"), lines


@pytest.mark.parametrize(
    "path, value",
    [
        (("kappa",), float("nan")),
        (("energy_grid", "values"), [0.0, float("inf")]),
        (("thermo", "mu_l"), float("nan")),
        (("leads", "left", "t"), float("inf")),
    ],
    ids=["kappa", "energy_grid_values", "mu_l", "half_line_t"],
)
def test_non_finite_config_value_is_config_error(tmp_path, capsys, path, value):
    payload = json.loads(json.dumps(MATCHED))
    section = payload
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    cfg = write_config(tmp_path, payload)
    assert main(["transmit", "--config", cfg, "--N", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "finite" in err and err.count("\n") == 1


def test_edge_margin_key_is_config_error(tmp_path, capsys):
    payload = json.loads(json.dumps(MATCHED))
    payload["quadrature"] = {"edge_margin": 1e-4}
    cfg = write_config(tmp_path, payload)
    assert main(["bands", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "edge_margin" in err


def test_out_in_missing_directory_exits_before_computing(tmp_path, capsys, monkeypatch):
    from thouless_lab import cli

    called = []
    monkeypatch.setattr(cli, "cmd_bands", lambda *args: called.append(args) or "")
    cfg = write_config(tmp_path, MATCHED)
    out = tmp_path / "missing" / "x.csv"
    assert main(["bands", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not out.parent.exists() and called == []


def test_unwritable_out_path_is_one_config_error_line(tmp_path, capsys):
    cfg = write_config(tmp_path, MATCHED)
    assert main(["bands", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output") and err.count("\n") == 1


def _fresh_process_output(args, out):
    """The --out bytes of `thouless-lab args` run in a new interpreter."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    subprocess.run(
        [sys.executable, "-m", "thouless_lab.cli", *args, "--out", str(out)],
        env=env, check=True, timeout=120,
    )
    return out.read_bytes()


def test_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys):
    cli._parser.cache_clear()
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
    cfg = write_config(tmp_path, DIMER)
    out = str(tmp_path / "out.csv")
    commands = (["bands"], ["transmit", "--N", "2"], ["currents"], ["converge", "--N-list", "1,2"])
    for args in commands:
        assert main([*args, "--config", cfg, "--out", out]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["transmit"])
    assert exc.value.code == 2
    assert len(calls) == 1


def test_reused_parser_reads_the_default_n_list_again(tmp_path):
    # _check_flags rewrites args.N_list into a list; the next parse must not see it
    cli._parser.cache_clear()
    cfg = write_config(tmp_path, MATCHED)
    short, default = tmp_path / "short.csv", tmp_path / "default.csv"
    assert main(["converge", "--config", cfg, "--out", str(short), "--N-list", "1,2"]) == 0
    assert main(["converge", "--config", cfg, "--out", str(default)]) == 0
    fresh = _fresh_process_output(["converge", "--config", cfg], tmp_path / "fresh.csv")
    assert default.read_bytes() == fresh


def test_usage_error_leaves_the_parser_reusable(tmp_path, capsys):
    cli._parser.cache_clear()
    cfg = write_config(tmp_path, DIMER)
    with pytest.raises(SystemExit) as exc:
        main(["transmit"])
    assert exc.value.code == 2
    assert "the following arguments are required: --config" in capsys.readouterr().err
    args = ["transmit", "--config", cfg, "--N", "4"]
    out = tmp_path / "t.csv"
    assert main([*args, "--out", str(out)]) == 0
    assert out.read_bytes() == _fresh_process_output(args, tmp_path / "fresh.csv")


def test_format_flag_does_not_carry_over_to_the_next_call(tmp_path):
    cli._parser.cache_clear()
    cfg = write_config(tmp_path, DIMER)
    as_json, as_default = tmp_path / "t.json", tmp_path / "t.csv"
    args = ["transmit", "--config", cfg, "--N", "4"]
    assert main([*args, "--out", str(as_json), "--format", "json"]) == 0
    assert main([*args, "--out", str(as_default)]) == 0
    assert json.loads(as_json.read_text())["schema"] == 1
    assert as_default.read_text().startswith("# schema=1\nE,T\n")

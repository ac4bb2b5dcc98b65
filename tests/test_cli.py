import json

import numpy as np
import pytest

from thouless_lab.cli import main

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
    "quadrature": {"edge_margin": 1e-5},
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
    payload["quadrature"] = {"edge_margin": 1e-5}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "th.json"
    assert main(["thouless", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    report = json.loads(out.read_text())
    assert report["i_r"] == pytest.approx(4.0 / (2.0 * np.pi), abs=1e-4)


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


def test_selfcheck_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, MATCHED)
    assert main(["selfcheck", "--config", cfg, "--seed", "3", "--ensemble", "6"]) == 0
    captured = capsys.readouterr()
    assert "PASS oracle_equivalence" in captured.out
    assert "all checks passed" in captured.out


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
    ],
)
def test_repetition_count_below_one_is_config_error(tmp_path, capsys, args):
    cfg = write_config(tmp_path, MATCHED)
    out = tmp_path / "never.csv"
    assert main([*args, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert "must be >= 1" in capsys.readouterr().err


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

"""Batch front-end: JSON run configuration in, machine-readable tables out.

Subcommands
-----------
bands      band table (or Bloch dispersion curves with --dispersion K)
transmit   transmittance T_N or T_infty on an energy grid
currents   steady currents; --mode finite|crystalline|thouless
thouless   shorthand for currents --mode thouless
converge   ∫T_N f vs ∫T_infty f table over an N list
selfcheck  seeded property battery; exit 1 on any failure

Exit codes: 0 success, 1 check failure, 2 usage/config error, 3 numerical
failure.  CSV output carries a ``# schema=1`` line and 17-significant-digit
fields; identical config + seed reproduce byte-identical output.
``transmit`` evaluates its grid serially in GRID_CHUNK-energy chunks through
``_parallel_grid``, a name kept because bench/tracer.py times that call.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
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
from .errors import ConfigError, ThoulessLabError
from .jacobi import SampleSpec, band_spectrum, bloch_eigenvalues
from .leads import CrystallineLead, HalfLineLead, LeadModel, load_tabulated_csv
from .selfcheck import run_selfcheck
from .transport import _diagnostic_columns, transmittance_inf, transmittance_n
# Not called here; kept importable because bench/tracer.py wraps this name.
from .transport import _r_theta_values  # noqa: F401

SCHEMA_LINE = "# schema=1"

# Energies per _parallel_grid chunk; bounds the per-call temporaries.
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


def _reject_unknown(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")


def _need(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"{where}: missing required key '{key}'")
    return section[key]


def _parse_sample(d, where: str = "sample") -> SampleSpec:
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object")
    _reject_unknown(d, {"L", "J", "lambda", "kappa_S"}, where)
    J = _need(d, "J", where)
    lam = _need(d, "lambda", where)
    kappa_s = _need(d, "kappa_S", where)
    if "L" in d and int(d["L"]) != len(lam):
        raise ConfigError(f"{where}: L={d['L']} inconsistent with {len(lam)} onsite values")
    try:
        return SampleSpec(hop=tuple(J), onsite=tuple(lam), kappa_s=kappa_s)
    except ThoulessLabError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_lead(d, sample: SampleSpec, where: str) -> LeadModel:
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object")
    kind = _need(d, "type", where)
    if kind == "half_line":
        _reject_unknown(d, {"type", "t", "v0"}, where)
        try:
            return HalfLineLead(t=_need(d, "t", where), v0=d.get("v0", 0.0))
        except ThoulessLabError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    if kind == "crystalline":
        _reject_unknown(d, {"type", "sample", "side"}, where)
        ref = d.get("sample", "self")
        lead_sample = sample if ref == "self" else _parse_sample(ref, f"{where}.sample")
        side = _need(d, "side", where)
        try:
            return CrystallineLead(lead_sample, side)
        except ThoulessLabError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    if kind == "tabulated":
        _reject_unknown(d, {"type", "path"}, where)
        return load_tabulated_csv(_need(d, "path", where))
    raise ConfigError(f"{where}: unknown lead type {kind!r}")


def _parse_beta(value, where: str) -> float:
    if value == "inf":
        return math.inf
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: expected a number or 'inf'") from exc


def _parse_thermo(d, where: str = "thermo") -> ThermoState:
    _reject_unknown(d, {"beta_l", "mu_l", "beta_r", "mu_r"}, where)
    try:
        return ThermoState(
            beta_l=_parse_beta(_need(d, "beta_l", where), where),
            mu_l=float(_need(d, "mu_l", where)),
            beta_r=_parse_beta(_need(d, "beta_r", where), where),
            mu_r=float(_need(d, "mu_r", where)),
        )
    except ThoulessLabError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_quadrature(d, where: str = "quadrature") -> QuadratureConfig:
    _reject_unknown(
        d, {"panels_per_band", "points_per_panel", "edge_margin", "abs_tol"}, where
    )
    defaults = QuadratureConfig()
    try:
        return QuadratureConfig(
            panels_per_band=int(d.get("panels_per_band", defaults.panels_per_band)),
            points_per_panel=int(d.get("points_per_panel", defaults.points_per_panel)),
            edge_margin=float(d.get("edge_margin", defaults.edge_margin)),
            abs_tol=float(d.get("abs_tol", defaults.abs_tol)),
        )
    except ThoulessLabError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config(data: dict) -> RunConfig:
    """Validate a parsed JSON run configuration (fail-closed on unknown keys)."""
    if not isinstance(data, dict):
        raise ConfigError("config root: expected an object")
    _reject_unknown(
        data,
        {"sample", "leads", "kappa", "thermo", "quadrature", "energy_grid", "output", "seed"},
        "config",
    )
    sample = _parse_sample(_need(data, "sample", "config"))

    lead_l = lead_r = None
    if "leads" in data:
        leads = data["leads"]
        _reject_unknown(leads, {"left", "right"}, "leads")
        lead_l = _parse_lead(_need(leads, "left", "leads"), sample, "leads.left")
        lead_r = _parse_lead(_need(leads, "right", "leads"), sample, "leads.right")

    kappa = None
    if "kappa" in data:
        kappa = float(data["kappa"])
        if kappa == 0.0:
            raise ConfigError("kappa: must be nonzero")

    thermo = _parse_thermo(data["thermo"]) if "thermo" in data else None
    quad = _parse_quadrature(data.get("quadrature", {}))

    grid_count, grid_values = 400, None
    if "energy_grid" in data:
        eg = data["energy_grid"]
        _reject_unknown(eg, {"count", "values"}, "energy_grid")
        if "values" in eg:
            grid_values = tuple(float(v) for v in eg["values"])
            if not grid_values:
                raise ConfigError("energy_grid.values: must be nonempty")
        elif "count" in eg:
            grid_count = int(eg["count"])
            if grid_count < 2:
                raise ConfigError("energy_grid.count: must be >= 2")
        else:
            raise ConfigError("energy_grid: needs 'count' or 'values'")

    out_path, out_format = None, "csv"
    if "output" in data:
        out = data["output"]
        _reject_unknown(out, {"path", "format"}, "output")
        out_path = out.get("path")
        out_format = out.get("format", "csv")
        if out_format not in ("csv", "json"):
            raise ConfigError(f"output.format: expected csv|json, got {out_format!r}")

    return RunConfig(
        sample=sample,
        lead_l=lead_l,
        lead_r=lead_r,
        kappa=kappa,
        thermo=thermo,
        quadrature=quad,
        grid_count=grid_count,
        grid_values=grid_values,
        out_path=out_path,
        out_format=out_format,
        seed=int(data.get("seed", 0)),
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
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


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _as_table(rows, width: int) -> np.ndarray:
    return np.asarray(rows, dtype=float).reshape(-1, width)


def _csv_table(header: list[str], rows) -> str:
    """CSV text of a 2-D float array-like; each field is f"{x:.17g}"."""
    arr = _as_table(rows, len(header))
    head = f"{SCHEMA_LINE}\n{','.join(header)}\n"
    row = ",".join(["%.17g"] * arr.shape[1]) + "\n"
    return head + (row * arr.shape[0]) % tuple(arr.ravel().tolist())


def _json_table(header: list[str], rows) -> str:
    """json.dumps({"schema", "columns", "rows"}, indent=2, allow_nan=True) text.

    Row values go through %s, which for a float is float.__repr__, the json
    encoder's own float form; non-finite values become its NaN/Infinity tokens.
    """
    arr = _as_table(rows, len(header))
    head = json.dumps({"schema": 1, "columns": header, "rows": []}, indent=2)
    if arr.shape[0] == 0:
        return head + "\n"
    flat = arr.ravel()
    values = flat.astype(object)
    values[np.isnan(flat)] = "NaN"
    values[flat == np.inf] = "Infinity"
    values[flat == -np.inf] = "-Infinity"
    row = "    [\n      " + ",\n      ".join(["%s"] * arr.shape[1]) + "\n    ]"
    body = ",\n".join([row] * arr.shape[0]) % tuple(values)
    return head[: -len("[]\n}")] + "[\n" + body + "\n  ]\n}\n"


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
        values = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"--N-list: expected comma-separated integers, got {raw!r}") from exc
    if not values or min(values) < 1:
        raise ConfigError(f"--N-list: needs one or more entries, each must be >= 1, got {raw!r}")
    return values


def cmd_converge(config: RunConfig, n_list: list[int], weight_kind: str,
                 window: tuple[float, float], center: float, width: float) -> str:
    _require(config, "lead_l", "lead_r", "kappa")
    if weight_kind == "indicator":
        lo, hi = window
        if not hi > lo:
            raise ConfigError("--window: needs lo < hi")

        def weight(E):
            return ((E >= lo) & (E <= hi)).astype(float)

        breakpoints = (lo, hi)
    else:
        if not width > 0:
            raise ConfigError("--width: must be positive")

        def weight(E):
            return np.exp(-((E - center) ** 2) / (2.0 * width**2))

        breakpoints = ()
    rows = convergence_study(
        config.sample, config.lead_l, config.lead_r, config.kappa,
        weight, n_list, config.quadrature, breakpoints,
    )
    table = [[float(r.n_cells), r.integral_n, r.integral_inf, r.abs_diff] for r in rows]
    return _table(config, ["N", "int_TN", "int_Tinf", "abs_diff"], table)


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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "N", None) is not None and args.N < 1:
            raise ConfigError(f"--N: must be >= 1, got {args.N}")
        config = load_config(args.config)
        if args.format is not None:
            config = dataclasses.replace(config, out_format=args.format)
        out_path = args.out if args.out is not None else config.out_path

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
                config, _parse_n_list(args.N_list), args.weight,
                tuple(args.window), args.center, args.width,
            )
        elif args.command == "selfcheck":
            text, passed = cmd_selfcheck(config, args.seed, args.ensemble)
            _emit(text, out_path)
            return EXIT_OK if passed else EXIT_CHECK_FAILURE
        else:  # pragma: no cover
            raise ConfigError(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ThoulessLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _emit(text, out_path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

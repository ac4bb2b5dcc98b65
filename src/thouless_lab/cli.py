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
17-significant-digit fields; identical config + seed reproduce identical bytes.
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

# Energies per _parallel_grid chunk and rows per formatted table chunk; bounds
# the temporaries of the grid evaluation and of the table text.
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


def _chunks(arr: np.ndarray):
    """The table's rows in GRID_CHUNK-row slices."""
    return (arr[i : i + GRID_CHUNK] for i in range(0, arr.shape[0], GRID_CHUNK))


def _csv_table(header: list[str], rows) -> str:
    """CSV text of a 2-D float array-like; each field is f"{x:.17g}".

    Rows are formatted GRID_CHUNK at a time, so only one chunk's float objects
    are alive at once, and the parts are joined once.
    """
    arr = _as_table(rows, len(header))
    row = ",".join(["%.17g"] * arr.shape[1]) + "\n"
    parts = [f"{SCHEMA_LINE}\n{','.join(header)}\n"]
    parts += [(row * len(chunk)) % tuple(chunk.ravel().tolist()) for chunk in _chunks(arr)]
    return "".join(parts)


def _json_values(flat: np.ndarray) -> tuple:
    """Python floats of `flat`, with the json encoder's NaN/Infinity tokens for non-finite values."""
    values = flat.astype(object)
    if not np.isfinite(flat).all():
        values[np.isnan(flat)] = "NaN"
        values[flat == np.inf] = "Infinity"
        values[flat == -np.inf] = "-Infinity"
    return tuple(values.tolist())


def _json_table(header: list[str], rows) -> str:
    """json.dumps({"schema", "columns", "rows"}, indent=2, allow_nan=True) text.

    Row values go through %s, which for a float is float.__repr__, the json
    encoder's own float form; non-finite values become its NaN/Infinity tokens.
    Rows are formatted GRID_CHUNK at a time, as in _csv_table.
    """
    arr = _as_table(rows, len(header))
    head = json.dumps({"schema": 1, "columns": header, "rows": []}, indent=2)
    if arr.shape[0] == 0:
        return head + "\n"
    row = "    [\n      " + ",\n      ".join(["%s"] * arr.shape[1]) + "\n    ]"
    parts = [head[: -len("[]\n}")] + "[\n"]
    for chunk in _chunks(arr):
        parts += [",\n".join([row] * len(chunk)) % _json_values(chunk.ravel()), ",\n"]
    parts[-1] = "\n  ]\n}\n"  # the last chunk's separator closes the rows
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

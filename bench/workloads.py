"""Seeded request streams for the three benchmark workloads, with output checks.

Every input is generated here from the workload seed, with the benchmark's
own numpy code: sample parameters, lead parameters, Bloch bands (for lead
placement, band-interior energies and closed-form references) and
tabulated lead files.  The library only ever receives the generated inputs.

A workload is a stream of blocks; a block is a list of `Request`s that is
stratified (every block holds the same mix of request kinds and spreads the
cost-driving parameters evenly), so that runs of any length, and runs with
different seeds, measure the same mix.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import thouless_lab.cli as cli
from thouless_lab import (
    CrystallineLead,
    HalfLineLead,
    SampleSpec,
    ThermoState,
    band_spectrum,
    crystalline_currents,
    lb_currents,
    load_tabulated_csv,
    run_selfcheck,
    thouless_currents,
    transmittance_n,
    transmittance_oracle,
    zero_temperature_conductance,
)
from thouless_lab.errors import NumericalError, QuadratureError

ORACLE_TOL = 1e-8
ABS_TOL = 1e-8  # QuadratureConfig().abs_tol; the residual thresholds below are selfcheck's
# The Thouless and matched-lead currents carry the library's 2e-4 edge-margin
# bias; this bound only catches gross errors, ref_err reports the actual size.
CURRENT_REL_TOL = 1e-3
FINITE_STATES = (
    ThermoState(2.0, 0.3, 2.0, -0.3),
    ThermoState(5.0, 0.1, 1.0, 0.1),
    ThermoState(1.5, 0.4, 4.0, -0.2),
)
# Fixed inputs (independent of --seed) for the lb_currents N=16 reference
# ensemble and the defect probes.
REFERENCE_SEED = 20141408


class CheckFailed(Exception):
    """An output check failed; counts as one failed request."""


@dataclass
class Request:
    """One closed-loop request.

    run(call) performs the library calls through `call(name, fn, *args)`,
    which the runner turns into a span when tracing; check(output) raises
    CheckFailed or returns the request's reference error (or None).
    """

    kind: str
    run: Callable[[Callable], Any]
    check: Callable[[Any], float | None]


# ---------------------------------------------------------------- inputs


@dataclass(frozen=True)
class Sample:
    hop: tuple[float, ...]
    onsite: tuple[float, ...]
    kappa_s: float
    bands: tuple[tuple[float, float], ...]

    @property
    def length(self) -> int:
        return len(self.onsite)

    @property
    def hull(self) -> tuple[float, float]:
        return self.bands[0][0], self.bands[-1][1]

    def spec(self) -> SampleSpec:
        return SampleSpec(self.hop, self.onsite, self.kappa_s)

    def config(self) -> dict:
        return {"L": self.length, "J": list(self.hop), "lambda": list(self.onsite),
                "kappa_S": self.kappa_s}

    def measure_in(self, lo: float, hi: float) -> float:
        return sum(max(0.0, min(hi, b) - max(lo, a)) for a, b in self.bands)


def bloch_bands(hop, onsite, kappa_s) -> tuple[tuple[float, float], ...]:
    """Bands of the periodization: band j joins eps_j(k=0) and eps_j(k=pi/L)."""
    L = len(onsite)
    eps = []
    for phase in (1.0, -1.0):  # e^{-ikL} at k = 0 and k = pi/L
        h = np.diag(np.asarray(onsite, dtype=float))
        for i, j in enumerate(hop):
            h[i, i + 1] = h[i + 1, i] = j
        if L == 1:
            h[0, 0] += 2.0 * phase * kappa_s
        else:
            h[0, L - 1] += phase * kappa_s
            h[L - 1, 0] += phase * kappa_s
        eps.append(np.linalg.eigvalsh(h))
    return tuple(sorted((float(min(a, b)), float(max(a, b))) for a, b in zip(*eps)))


def draw_sample(rng: np.random.Generator, L: int) -> Sample:
    """selfcheck's distribution for L <= 8; hopping contrast within 1.5 beyond it."""
    lo, hi = (0.2, 2.0) if L <= 8 else (0.8, 1.2)
    hop = tuple(float(x) for x in rng.uniform(lo, hi, L - 1))
    onsite = tuple(float(x) for x in rng.uniform(-1.0, 1.0, L))
    kappa_s = float(rng.uniform(lo, hi))
    return Sample(hop, onsite, kappa_s, bloch_bands(hop, onsite, kappa_s))


def covering_lead(sample: Sample, rng: np.random.Generator) -> tuple[float, float]:
    """(t, v0) of a half-line whose band [v0 - 2t, v0 + 2t] covers the sample bands."""
    lo, hi = sample.hull
    v0 = 0.5 * (lo + hi) + float(rng.uniform(-0.1, 0.1))
    t = 0.25 * (hi - lo) + 0.75 + float(rng.uniform(0.0, 0.5))
    return t, v0


def halfline_F(t: float, v0: float, E: np.ndarray) -> np.ndarray:
    """Dirichlet half-line boundary value: the root of t^2 F^2 + (E - v0) F + 1 = 0 with Im F >= 0."""
    x = E - v0
    disc = x * x - 4.0 * t * t
    inside = disc < 0.0
    sq = np.sqrt(np.abs(disc))
    r1, r2 = (-x + sq) / (2 * t * t), (-x - sq) / (2 * t * t)
    outside = np.where(np.abs(r1) <= np.abs(r2), r1, r2)  # the decaying root
    return np.where(inside, (-x + 1j * sq) / (2 * t * t), outside)


def band_interior(sample: Sample, E: np.ndarray, margin: float = 0.01) -> np.ndarray:
    """Mask of energies at least `margin` of a band's width inside that band."""
    mask = np.zeros(E.shape, dtype=bool)
    for lo, hi in sample.bands:
        w = hi - lo
        mask |= (E > lo + margin * w) & (E < hi - margin * w)
    return mask


def interior_grid(sample: Sample, points: int, margin: float = 0.01) -> np.ndarray:
    """About `points` energies spread over all band interiors in proportion to width."""
    total = sum(hi - lo for lo, hi in sample.bands)
    parts = []
    for lo, hi in sample.bands:
        w = hi - lo
        n = max(2, int(round(points * w / total)))
        parts.append(np.linspace(lo + margin * w, hi - margin * w, n))
    return np.concatenate(parts)


def stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """One uniform draw from each of n equal strata of [lo, hi], in random order."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.uniform(0.0, 1.0, n)) / n


# ---------------------------------------------------------------- checks


def check_report(rep, thouless_j: float | None = None) -> None:
    """Conservation and entropy-balance residuals within selfcheck's thresholds,
    entropy >= -abs_tol and, for crystalline currents, entropy <= Thouless."""
    if max(rep.conservation_residuals) > 2.0 * ABS_TOL:
        raise CheckFailed(f"conservation residual {max(rep.conservation_residuals):.3e}")
    if not math.isnan(rep.entropy_balance_residual) and rep.entropy_balance_residual > 3.0 * ABS_TOL:
        raise CheckFailed(f"entropy balance residual {rep.entropy_balance_residual:.3e}")
    if not rep.entropy_j >= -ABS_TOL:
        raise CheckFailed(f"entropy production {rep.entropy_j!r} below -abs_tol")
    if thouless_j is not None and not rep.entropy_j <= thouless_j + ABS_TOL:
        raise CheckFailed(f"<J>_inf = {rep.entropy_j!r} exceeds <J>_Th = {thouless_j!r}")


def window_current_error(rep, sample: Sample, mu_lo: float, mu_hi: float) -> float:
    """Relative error of a reflectionless zero-temperature charge current
    against its closed form |sp ∩ [mu_lo, mu_hi]| / 2 pi."""
    exact = sample.measure_in(mu_lo, mu_hi) / (2.0 * math.pi)
    err = abs(rep.i_l - exact) / exact
    if not err <= CURRENT_REL_TOL:
        raise CheckFailed(f"window current off by {err:.3e} relative")
    return err


# ---------------------------------------------------------------- grid


GRID_SMALL = 400
GRID_LARGE = 200_000
GRID_MODES = (("--N", "1"), ("--N", "16"), ("--N", "1000000"), ("--inf",))
GRID_LEADS = ("half_line", "crystalline", "tabulated")
# (mode, output format, lead kind, diagnostics, L) of the large-grid requests
GRID_LARGE_VARIANTS = (
    (("--N", "16"), "csv", "half_line", False, 8),
    (("--inf",), "json", "crystalline", True, 8),
    (("--N", "1000000"), "csv", "tabulated", True, 8),
)


def _write_tabulated(path: str, t: float, v0: float) -> None:
    """Boundary data of a half-line lead over its whole band plus a margin."""
    E = np.linspace(v0 - 2.0 * t - 0.5, v0 + 2.0 * t + 0.5, 2001)
    F = halfline_F(t, v0, E)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("E,ReF,ImF\n")
        fh.writelines(f"{e!r},{f.real!r},{max(f.imag, 0.0)!r}\n" for e, f in zip(E.tolist(), F.tolist()))


def _parse_table(data: bytes, fmt: str) -> tuple[list[str], np.ndarray]:
    text = data.decode("ascii")
    if fmt == "json":
        obj = json.loads(text)
        if obj.get("schema") != 1:
            raise CheckFailed("JSON output lacks schema 1")
        return obj["columns"], np.asarray(obj["rows"], dtype=float)
    head, _, body = text.partition("\n")
    if head != cli.SCHEMA_LINE:
        raise CheckFailed(f"CSV output starts with {head!r}")
    columns, _, body = body.partition("\n")
    rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    return columns.split(","), rows


class GridWorkload:
    """In-process `thouless-lab transmit` requests over seeded configs."""

    name = "grid"
    block_seconds = 5.0  # nominal, on a 2-core Xeon
    traced_blocks = 2

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.digests: dict[int, str] = {}
        self.block = self._make_block()

    def blocks(self):
        while True:  # the same block again: repeats must reproduce their bytes
            yield self.block

    def _make_block(self) -> list[Request]:
        rng = self.rng
        combos = [
            (mode, fmt, lead, diag)
            for mode in GRID_MODES
            for lead in GRID_LEADS
            for fmt in ("csv", "json")
            for diag in (False, True)
        ]
        lengths = rng.permutation(np.arange(len(combos)) % 32 + 1)
        specs = [(m, f, ld, dg, int(L), GRID_SMALL) for (m, f, ld, dg), L in zip(combos, lengths)]
        specs = [specs[i] for i in rng.permutation(len(specs))]
        step = len(specs) // len(GRID_LARGE_VARIANTS)
        large = [k * (step + 1) + step // 2 for k in range(len(GRID_LARGE_VARIANTS))]
        for pos, variant in zip(large, GRID_LARGE_VARIANTS):
            specs.insert(pos, variant + (GRID_LARGE,))
        block = [self._request(i, *spec) for i, spec in enumerate(specs)]
        self.warm = block[:4] + [block[large[0]]]
        return block

    def _request(self, idx, mode, fmt, lead_kind, diag, L, count) -> Request:
        rng = self.rng
        sample = draw_sample(rng, L)
        kappa = float(rng.uniform(0.4, 1.6))
        t_l, v_l = covering_lead(sample, rng)
        t_r, v_r = covering_lead(sample, rng)
        right = {"type": "half_line", "t": t_r, "v0": v_r}
        if lead_kind == "crystalline":
            left = {"type": "crystalline", "sample": "self", "side": "l"}
            right = {"type": "crystalline", "sample": "self", "side": "r"}
        elif lead_kind == "tabulated":
            tab = os.path.join(self.workdir, f"lead{idx}.csv")
            _write_tabulated(tab, t_l, v_l)
            left = {"type": "tabulated", "path": tab}
        else:
            left = {"type": "half_line", "t": t_l, "v0": v_l}
        config = {
            "sample": sample.config(),
            "leads": {"left": left, "right": right},
            "kappa": kappa,
            "energy_grid": {"count": count},
        }
        cfg_path = os.path.join(self.workdir, f"config{idx}.json")
        out_path = os.path.join(self.workdir, f"out{idx}.{fmt}")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        argv = ["transmit", "--config", cfg_path, "--out", out_path, "--format", fmt, *mode]
        if diag:
            argv.append("--diagnostics")

        oracle = None
        n_cells = int(mode[1]) if mode[0] == "--N" else None
        if lead_kind != "crystalline" and n_cells is not None and n_cells <= 16 and L <= 8:
            lead_l = load_tabulated_csv(left["path"]) if lead_kind == "tabulated" else HalfLineLead(t_l, v_l)
            oracle = (sample, lead_l, HalfLineLead(t_r, v_r), kappa, n_cells, int(rng.integers(2**32)))

        def run(call):
            rc = call("main", cli.main, argv)
            with open(out_path, "rb") as fh:
                return rc, fh.read()

        def check(output):
            rc, data = output
            if rc != 0:
                raise CheckFailed(f"transmit exited with {rc}")
            digest = hashlib.sha256(data).hexdigest()
            if idx in self.digests:
                if digest != self.digests[idx]:
                    raise CheckFailed("repeated request wrote different bytes")
                return None
            columns, rows = _parse_table(data, fmt)
            if rows.shape[0] != count or columns[:2] != ["E", "T"]:
                raise CheckFailed(f"unexpected table shape {rows.shape} / {columns}")
            E, T = rows[:, 0], rows[:, 1]
            if not (np.all(np.isfinite(T)) and np.all(T >= 0.0) and np.all(T <= 1.0)):
                raise CheckFailed("transmittance outside [0, 1]")
            err = None
            if oracle is not None:
                smp, lead_l, lead_r, kap, n, sub_seed = oracle
                idxs = np.flatnonzero(band_interior(smp, E))
                pick = np.random.default_rng(sub_seed).choice(idxs, size=min(6, idxs.size), replace=False)
                spec = smp.spec()
                ref = [transmittance_oracle(spec, lead_l, lead_r, kap, n, float(E[i])) for i in pick]
                err = float(np.max(np.abs(T[pick] - np.asarray(ref)))) if pick.size else 0.0
                if not err <= ORACLE_TOL:
                    raise CheckFailed(f"|T_cli - T_oracle| = {err:.3e}")
            self.digests[idx] = digest
            return err

        return Request("transmit", run, check)

    def warmup(self) -> list[Request]:
        return self.warm

    def setup_snippet(self) -> str:
        """Cold start: import the CLI and serve one small transmit request."""
        cfg = os.path.join(self.workdir, "setup.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump({"sample": {"J": [1.0], "lambda": [0.0, 0.0], "kappa_S": 0.5},
                       "leads": {"left": {"type": "half_line", "t": 1.2},
                                 "right": {"type": "half_line", "t": 1.2}},
                       "kappa": 1.0}, fh)
        out = os.path.join(self.workdir, "setup.csv")
        return (f"import thouless_lab.cli as c; "
                f"assert c.main(['transmit','--config',{cfg!r},'--out',{out!r},'--N','4']) == 0")


# ---------------------------------------------------------------- currents


CONFIGS_PER_BLOCK = 8
# lb_currents costs vary by three orders of magnitude across random configs
# (its panel count follows the sharpest transmission resonance), more than a
# run can average out; it therefore runs on a fixed reference ensemble.
LB_REFERENCE_SIZE = 8
LB_N = (1, 4, 16)


def reference_configs(n: int):
    """(sample, lead_l, lead_r, kappa) drawn from selfcheck's distribution with a fixed seed."""
    rng = np.random.default_rng(REFERENCE_SEED)
    out = []
    for _ in range(n):
        sample = draw_sample(rng, int(rng.integers(1, 9)))
        lead_l = HalfLineLead(*covering_lead(sample, rng))
        lead_r = HalfLineLead(*covering_lead(sample, rng))
        out.append((sample, lead_l, lead_r, float(rng.uniform(0.4, 1.6))))
    return out


class CurrentsWorkload:
    """Library current reports: Thouless, crystalline, zero-temperature conductance, LB."""

    name = "currents"
    block_seconds = 2.5  # nominal, on a 2-core Xeon
    traced_blocks = 2

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.references = reference_configs(LB_REFERENCE_SIZE)

    def blocks(self):
        while True:
            yield self._make_block()

    def _make_block(self) -> list[Request]:
        rng = self.rng
        lengths = rng.permutation(CONFIGS_PER_BLOCK) % 8 + 1
        kappas = stratified(rng, CONFIGS_PER_BLOCK, 0.4, 1.6)
        requests: list[Request] = []
        for L, kappa in zip(lengths, kappas):
            sample = draw_sample(rng, int(L))
            lead_l = HalfLineLead(*covering_lead(sample, rng))
            lead_r = HalfLineLead(*covering_lead(sample, rng))
            requests += self._config_requests(rng, sample, lead_l, lead_r, float(kappa))
        for sample, lead_l, lead_r, kappa in self.references:
            for n_cells in LB_N:
                requests.append(self._lb(sample, lead_l, lead_r, kappa, n_cells))
        return [requests[i] for i in rng.permutation(len(requests))]

    def _config_requests(self, rng, sample, lead_l, lead_r, kappa) -> list[Request]:
        spec = sample.spec()
        thermo = FINITE_STATES[int(rng.integers(len(FINITE_STATES)))]
        lo, hi = sample.hull
        window = (lo - 0.5, hi + 0.5)  # covers the spectrum
        full = ThermoState(math.inf, window[1], math.inf, window[0])
        w = hi - lo
        win_lo = lo + w * float(rng.uniform(0.0, 0.5))
        win_hi = win_lo + w * float(rng.uniform(0.2, 0.5))
        matched = (CrystallineLead(spec, "l"), CrystallineLead(spec, "r"))

        def thouless_check(rep):
            check_report(rep)
            return window_current_error(rep, sample, *window)

        def crystalline(ll, lr, kap, state, ref_window=None):
            def check(rep):
                check_report(rep, thouless_currents(spec, state).entropy_j)
                return window_current_error(rep, sample, *ref_window) if ref_window else None
            return Request("crystalline_currents",
                           lambda call: call("crystalline_currents", crystalline_currents,
                                             spec, ll, lr, kap, state),
                           check)

        def conductance_check(out):
            g, g_th = out
            exact = sample.measure_in(win_lo, win_hi) / (2.0 * math.pi * (win_hi - win_lo))
            if abs(g_th - exact) > 1e-9:
                raise CheckFailed(f"g_Th = {g_th!r}, bands give {exact!r}")
            if not -ABS_TOL <= g <= g_th + ABS_TOL:
                raise CheckFailed(f"g = {g!r} outside [0, g_Th = {g_th!r}]")
            return None

        return [
            Request("thouless_currents",
                    lambda call: call("thouless_currents", thouless_currents, spec, full),
                    thouless_check),
            crystalline(lead_l, lead_r, kappa, thermo),
            crystalline(*matched, sample.kappa_s, full, window),
            Request("zero_temperature_conductance",
                    lambda call: call("zero_temperature_conductance", zero_temperature_conductance,
                                      spec, lead_l, lead_r, kappa, win_lo, win_hi),
                    conductance_check),
        ]

    @staticmethod
    def _lb(sample, lead_l, lead_r, kappa, n_cells) -> Request:
        spec = sample.spec()
        return Request(
            "lb_currents",
            lambda call: call("lb_currents", lb_currents, spec, lead_l, lead_r, kappa, n_cells,
                              FINITE_STATES[0]),
            check_report,
        )

    def warmup(self) -> list[Request]:
        rng = np.random.default_rng(REFERENCE_SEED)
        return self._config_requests(rng, *self.references[0])

    def setup_snippet(self) -> str:
        """Cold start: import the CLI and compute one crystalline current report."""
        return ("import thouless_lab.cli; from thouless_lab import *; "
                "s = SampleSpec((1.0,), (0.0, 0.0), 0.5); lead = HalfLineLead(1.2); "
                "crystalline_currents(s, lead, lead, 1.0, ThermoState(4.0, -0.5, 1.5, 0.5))")


# ---------------------------------------------------------------- verify


ORACLE_POINTS = 200
ORACLE_N = (1, 4, 16, 64)
SELFCHECKS_PER_BLOCK = 2
SELFCHECK_ENSEMBLE = 4


class VerifyWorkload:
    """Seeded selfcheck batteries plus closed-form vs oracle comparisons."""

    name = "verify"
    block_seconds = 1.25  # nominal, on a 2-core Xeon
    traced_blocks = 4

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)

    def blocks(self):
        while True:
            yield self._make_block()

    def _make_block(self) -> list[Request]:
        rng = self.rng
        requests = [self._selfcheck(int(rng.integers(2**31))) for _ in range(SELFCHECKS_PER_BLOCK)]
        n_list = rng.permutation(np.repeat(ORACLE_N, 2))
        lengths = rng.permutation(len(n_list)) % 8 + 1
        for n_cells, L in zip(n_list, lengths):
            requests.append(self._oracle(rng, draw_sample(rng, int(L)), int(n_cells)))
        return [requests[i] for i in rng.permutation(len(requests))]

    @staticmethod
    def _selfcheck(seed: int) -> Request:
        def check(out):
            passed, results = out
            failed = [r.name for r in results if not r.passed]
            if failed or not passed:
                raise CheckFailed(f"selfcheck(seed={seed}) failed {failed}")
            return None

        return Request("run_selfcheck",
                       lambda call: call("run_selfcheck", run_selfcheck, seed, SELFCHECK_ENSEMBLE),
                       check)

    @staticmethod
    def _oracle(rng, sample: Sample, n_cells: int) -> Request:
        spec = sample.spec()
        lead_l = HalfLineLead(*covering_lead(sample, rng))
        lead_r = HalfLineLead(*covering_lead(sample, rng))
        kappa = float(rng.uniform(0.4, 1.6))
        grid = interior_grid(sample, ORACLE_POINTS)

        def run(call):
            closed = call("transmittance_n", transmittance_n, spec, lead_l, lead_r, kappa, n_cells, grid)
            ref = [call("transmittance_oracle", transmittance_oracle,
                        spec, lead_l, lead_r, kappa, n_cells, float(E)) for E in grid]
            return closed, np.asarray(ref)

        def check(out):
            closed, ref = out
            err = float(np.max(np.abs(closed - ref)))
            if not err <= ORACLE_TOL:
                raise CheckFailed(f"|T_closed - T_oracle| = {err:.3e} at N={n_cells}")
            return err

        return Request("oracle_equivalence", run, check)

    def warmup(self) -> list[Request]:
        rng = np.random.default_rng(REFERENCE_SEED)
        return [self._selfcheck(0), self._oracle(rng, draw_sample(rng, 4), 16)]

    def setup_snippet(self) -> str:
        """Cold start: import the CLI and make one oracle comparison."""
        return ("import thouless_lab.cli; from thouless_lab import *; "
                "s = SampleSpec((1.0,), (0.0, 0.0), 0.5); lead = HalfLineLead(1.2); "
                "transmittance_n(s, lead, lead, 1.0, 4, 1.0); "
                "transmittance_oracle(s, lead, lead, 1.0, 4, 1.0)")


WORKLOADS = {w.name: w for w in (GridWorkload, CurrentsWorkload, VerifyWorkload)}


# ---------------------------------------------------------------- defect probes


PROBE_L32_SAMPLES = 20
PROBE_LB64_CONFIGS = 4


def defect_probe() -> dict[str, float]:
    """Known defects on fixed inputs, kept out of the timed workloads.

    band_spectrum rejects many L=32 samples of selfcheck's distribution with
    a NumericalError, and lb_currents at N=64 often ends in a
    QuadratureError.  Both are reported as the share of probe inputs that
    raise, so a fix shows as a drop.
    """
    rng = np.random.default_rng(REFERENCE_SEED)
    l32_errors = 0
    for _ in range(PROBE_L32_SAMPLES):
        spec = SampleSpec(tuple(rng.uniform(0.2, 2.0, 31)), tuple(rng.uniform(-1.0, 1.0, 32)),
                          float(rng.uniform(0.2, 2.0)))
        try:
            band_spectrum(spec)
        except NumericalError:
            l32_errors += 1
    lb_errors = 0
    for sample, lead_l, lead_r, kappa in reference_configs(PROBE_LB64_CONFIGS):
        try:
            lb_currents(sample.spec(), lead_l, lead_r, kappa, 64, FINITE_STATES[0])
        except QuadratureError:
            lb_errors += 1
    return {
        "defects.band_spectrum_l32_fail_frac": l32_errors / PROBE_L32_SAMPLES,
        "defects.lb_n64_fail_frac": lb_errors / PROBE_LB64_CONFIGS,
    }

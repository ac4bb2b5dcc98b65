"""Seeded property battery: oracle equivalence and structural identities.

Each check draws random configurations (samples with L <= 8, half-line
leads whose essential support covers the sample bands, mismatched
couplings) and verifies a theorem-level identity at stated tolerances.
The battery backs the CLI ``selfcheck`` command and the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .currents import QuadratureConfig, ThermoState, crystalline_currents, thouless_currents
from .errors import SingularEnergyError
from .jacobi import SampleSpec, band_spectrum, periodized_parameters, transfer_step
from .leads import CrystallineLead, HalfLineLead, _crystal_m_values
from .oracle import _corner_green, transmittance_oracle
from .transport import sample_green, transmittance_n


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_sample(rng: np.random.Generator, max_sites: int = 8) -> SampleSpec:
    """Random sample: J uniform in [0.2, 2], lambda uniform in [-1, 1], kappa_s in [0.2, 2]."""
    L = int(rng.integers(1, max_sites + 1))
    return SampleSpec(
        hop=tuple(rng.uniform(0.2, 2.0, L - 1)),
        onsite=tuple(rng.uniform(-1.0, 1.0, L)),
        kappa_s=float(rng.uniform(0.2, 2.0)),
    )


def covering_halfline(spectrum, rng: np.random.Generator, pad: float = 0.75) -> HalfLineLead:
    """Half-line lead whose band [v0 - 2t, v0 + 2t] covers the whole spectrum."""
    lo, hi = spectrum.hull
    v0 = 0.5 * (lo + hi) + float(rng.uniform(-0.1, 0.1))
    t = 0.5 * (hi - lo) / 2.0 + pad + float(rng.uniform(0.0, 0.5))
    return HalfLineLead(t=t, v0=v0)


def random_configuration(rng: np.random.Generator, max_sites: int = 8):
    """(sample, lead_l, lead_r, kappa) with generically mismatched coupling."""
    sample = random_sample(rng, max_sites)
    spectrum = band_spectrum(sample)
    lead_l = covering_halfline(spectrum, rng)
    lead_r = covering_halfline(spectrum, rng)
    kappa = float(rng.uniform(0.4, 1.6))
    return sample, lead_l, lead_r, kappa


def band_interior_grid(spectrum, points: int, margin: float = 0.01) -> np.ndarray:
    """Energies spread over all band interiors, each band shrunk by `margin` of its width."""
    widths = [hi - lo for lo, hi in spectrum.bands]
    total = sum(widths)
    grids = []
    for (lo, hi), w in zip(spectrum.bands, widths):
        n = max(2, int(round(points * w / total)))
        grids.append(np.linspace(lo + margin * w, hi - margin * w, n))
    return np.concatenate(grids)


def check_oracle_equivalence(
    rng: np.random.Generator,
    n_configs: int = 50,
    grid_points: int = 200,
    tol: float = 1e-8,
) -> CheckResult:
    """Closed-form T_N against the dense-resolvent oracle on band-interior grids."""
    worst = 0.0
    for _ in range(n_configs):
        sample, lead_l, lead_r, kappa = random_configuration(rng)
        n_cells = int(rng.integers(1, 21))
        grid = band_interior_grid(band_spectrum(sample), grid_points)
        t_closed = transmittance_n(sample, lead_l, lead_r, kappa, n_cells, grid)
        t_oracle = np.array(
            [transmittance_oracle(sample, lead_l, lead_r, kappa, n_cells, E) for E in grid]
        )
        worst = max(worst, float(np.max(np.abs(t_closed - t_oracle))))
    return CheckResult(
        "oracle_equivalence", worst <= tol, f"max |T_closed - T_oracle| = {worst:.3e}"
    )


def _transfer_product(sample: SampleSpec, n_sites: int, E: float) -> np.ndarray:
    T = np.eye(2)
    for x in range(1, n_sites + 1):
        T = transfer_step(sample, x, E).as_array() @ T
    return T


def check_graph_map(
    rng: np.random.Generator, n_triples: int = 50, tol: float = 1e-9
) -> CheckResult:
    """T_{NL}(E) maps the graph of G_S^(N)(E) as (x,y,u,v) -> (u,-x,-y/kappa_s,kappa_s v)."""
    worst = 0.0
    done = 0
    while done < n_triples:
        sample = random_sample(rng)
        spectrum = band_spectrum(sample)
        grid = band_interior_grid(spectrum, 40)
        E = float(rng.choice(grid))
        n_cells = int(rng.integers(1, 11))
        try:
            g = sample_green(sample, n_cells, E)
        except Exception:
            continue
        kS = sample.kappa_s
        T = _transfer_product(sample, n_cells * sample.length, E)
        pairs = [
            (np.array([g.g_ll, -1.0]), np.array([0.0, kS * g.g_rl])),
            (np.array([g.g_lr, 0.0]), np.array([-1.0 / kS, kS * g.g_rr])),
        ]
        for v, target in pairs:
            resid = np.linalg.norm(T @ v - target)
            scale = np.linalg.norm(T) * np.linalg.norm(v) + np.linalg.norm(target) + 1.0
            worst = max(worst, float(resid / scale))
        done += 1
    return CheckResult("graph_map", worst <= tol, f"max graph-map residual = {worst:.3e}")


def check_m_identities(
    rng: np.random.Generator, n_samples: int = 25, tol: float = 1e-10
) -> CheckResult:
    """Weyl m-functions are Herglotz and fixed points of one period's Schur complement.

    On band-interior grids Im m_l > 0, Im m_r > 0, and

        m_r = [(h_L - E - kappa_s^2 m_r e_L e_L^T)^{-1}]_11,
        m_l = [(h_L - E - kappa_s^2 m_l e_1 e_1^T)^{-1}]_LL,

    each solved by the oracle's banded LU, so no transfer matrix is involved.
    The residual is |m - m_fixed| / (|m| + 1); energies where the one-period
    system is singular are skipped.
    """
    worst = 0.0
    min_im = math.inf
    for _ in range(n_samples):
        sample = random_sample(rng)
        grid = band_interior_grid(band_spectrum(sample), 30)
        m_l, m_r, _ = _crystal_m_values(sample, grid)
        min_im = min(min_im, float(np.min(m_l.imag)), float(np.min(m_r.imag)))
        diag, off = periodized_parameters(sample, 1)
        kS2 = sample.kappa_s**2
        e_1, e_L = np.eye(sample.length)[[0, -1]]
        for E, ml, mr in zip(grid, m_l, m_r):
            try:
                fixed_r = _corner_green(diag - E - kS2 * mr * e_L, off)[0]
                fixed_l = _corner_green(diag - E - kS2 * ml * e_1, off)[3]
            except SingularEnergyError:
                continue
            worst = max(
                worst,
                abs(mr - fixed_r) / (abs(mr) + 1.0),
                abs(ml - fixed_l) / (abs(ml) + 1.0),
            )
    return CheckResult(
        "m_identities",
        bool(worst <= tol and min_im > 0.0),
        f"max one-period fixed-point residual = {worst:.3e}, min Im m = {min_im:.3e}",
    )


_CHECK_STATES = (
    ThermoState(2.0, 0.3, 2.0, -0.3),
    ThermoState(5.0, 0.1, 1.0, 0.1),
    ThermoState(1.5, 0.4, 4.0, -0.2),
)


def check_conservation_entropy(
    rng: np.random.Generator,
    n_configs: int = 10,
    quad: QuadratureConfig = QuadratureConfig(),
) -> CheckResult:
    """Conservation, entropy positivity and balance for crystalline currents."""
    worst_cons = 0.0
    worst_bal = 0.0
    worst_j = 0.0
    for _ in range(n_configs):
        sample, lead_l, lead_r, kappa = random_configuration(rng, max_sites=5)
        for thermo in _CHECK_STATES:
            rep = crystalline_currents(sample, lead_l, lead_r, kappa, thermo, quad)
            worst_cons = max(worst_cons, *rep.conservation_residuals)
            worst_bal = max(worst_bal, rep.entropy_balance_residual)
            worst_j = min(worst_j, rep.entropy_j)
    ok = (
        worst_cons <= 2.0 * quad.abs_tol
        and worst_bal <= 3.0 * quad.abs_tol
        and worst_j >= -quad.abs_tol
    )
    return CheckResult(
        "conservation_entropy",
        ok,
        f"conservation {worst_cons:.3e}, balance {worst_bal:.3e}, min J {worst_j:.3e}",
    )


def check_thouless_dominance(
    rng: np.random.Generator,
    n_configs: int = 10,
    quad: QuadratureConfig = QuadratureConfig(),
) -> CheckResult:
    """Entropy dominance <J>_infty <= <J>_Th for random reservoir realizations."""
    worst = -math.inf
    for _ in range(n_configs):
        sample, lead_l, lead_r, kappa = random_configuration(rng, max_sites=5)
        thermo = _CHECK_STATES[int(rng.integers(len(_CHECK_STATES)))]
        rep_inf = crystalline_currents(sample, lead_l, lead_r, kappa, thermo, quad)
        rep_th = thouless_currents(sample, thermo, quad)
        worst = max(worst, rep_inf.entropy_j - rep_th.entropy_j)
    return CheckResult(
        "thouless_dominance", worst <= quad.abs_tol, f"max <J>_inf - <J>_Th = {worst:.3e}"
    )


def check_matched_reflectionless(
    rng: np.random.Generator, n_configs: int = 5, tol: float = 1e-9
) -> CheckResult:
    """Matched crystalline leads (kappa = kappa_s) transmit perfectly: T_N = 1 in band."""
    worst = 0.0
    for _ in range(n_configs):
        sample = random_sample(rng, max_sites=4)
        lead_l = CrystallineLead(sample, "l")
        lead_r = CrystallineLead(sample, "r")
        grid = band_interior_grid(band_spectrum(sample), 60)
        n_cells = int(rng.integers(1, 30))
        T = transmittance_n(sample, lead_l, lead_r, sample.kappa_s, n_cells, grid)
        worst = max(worst, float(np.max(np.abs(T - 1.0))))
    return CheckResult(
        "matched_reflectionless", worst <= tol, f"max |T_N - 1| = {worst:.3e}"
    )


def run_selfcheck(seed: int = 0, ensemble: int = 50) -> tuple[bool, list[CheckResult]]:
    """Run the full battery on a seeded ensemble; returns (all_passed, results)."""
    rng = np.random.default_rng(seed)
    n_small = max(5, ensemble // 5)
    results = [
        check_oracle_equivalence(rng, n_configs=ensemble, grid_points=60),
        check_graph_map(rng, n_triples=ensemble),
        check_m_identities(rng, n_samples=max(10, ensemble // 2)),
        check_conservation_entropy(rng, n_configs=n_small),
        check_thouless_dominance(rng, n_configs=n_small),
        check_matched_reflectionless(rng, n_configs=max(3, ensemble // 10)),
    ]
    return all(r.passed for r in results), results

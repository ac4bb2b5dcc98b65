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

from .currents import QuadratureConfig, ThermoState, crystalline_currents, sign_change_energy
from .currents import thouless_currents, weights
from .errors import SampleEigenvalueError
from .jacobi import SampleSpec, _count, band_spectrum, transfer_step
from .leads import CrystallineLead, HalfLineLead, _crystal_m_values
from .oracle import _coupled_corners, _n_cell_system, transmittance_oracle
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


def covering_halfline(spectrum, rng: np.random.Generator) -> HalfLineLead:
    """Half-line lead whose band [v0 - 2t, v0 + 2t] covers the whole spectrum."""
    lo, hi = spectrum.hull
    v0 = 0.5 * (lo + hi) + float(rng.uniform(-0.1, 0.1))
    t = 0.5 * (hi - lo) / 2.0 + 0.75 + float(rng.uniform(0.0, 0.5))
    return HalfLineLead(t=t, v0=v0)


def random_configuration(rng: np.random.Generator, max_sites: int = 8):
    """(sample, lead_l, lead_r, kappa) with generically mismatched coupling."""
    sample = random_sample(rng, max_sites)
    spectrum = band_spectrum(sample)
    lead_l = covering_halfline(spectrum, rng)
    lead_r = covering_halfline(spectrum, rng)
    kappa = float(rng.uniform(0.4, 1.6))
    return sample, lead_l, lead_r, kappa


def band_interior_grid(spectrum, points: int) -> np.ndarray:
    """Energies spread over all band interiors, each band shrunk by 1% of its width."""
    widths = [hi - lo for lo, hi in spectrum.bands]
    total = sum(widths)
    grids = []
    for (lo, hi), w in zip(spectrum.bands, widths):
        n = max(2, int(round(points * w / total)))
        grids.append(np.linspace(lo + 0.01 * w, hi - 0.01 * w, n))
    return np.concatenate(grids)


def check_oracle_equivalence(
    rng: np.random.Generator, n_configs: int = 50, grid_points: int = 200
) -> CheckResult:
    """Closed-form T_N against the dense-resolvent oracle on band-interior grids."""
    worst = 0.0
    for _ in range(n_configs):
        sample, lead_l, lead_r, kappa = random_configuration(rng)
        n_cells = int(rng.integers(1, 21))
        grid = band_interior_grid(band_spectrum(sample), grid_points)
        t_closed = transmittance_n(sample, lead_l, lead_r, kappa, n_cells, grid)
        t_oracle = transmittance_oracle(sample, lead_l, lead_r, kappa, n_cells, grid)
        worst = max(worst, float(np.max(np.abs(t_closed - t_oracle))))
    return CheckResult(
        "oracle_equivalence", worst <= 1e-8, f"max |T_closed - T_oracle| = {worst:.3e}"
    )


def _transfer_product(sample: SampleSpec, n_sites: int, E: float) -> np.ndarray:
    T = np.eye(2)
    for x in range(1, n_sites + 1):
        T = transfer_step(sample, x, E).as_array() @ T
    return T


def check_graph_map(rng: np.random.Generator, n_triples: int = 50) -> CheckResult:
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
        except SampleEigenvalueError:
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
    return CheckResult("graph_map", worst <= 1e-9, f"max graph-map residual = {worst:.3e}")


def check_m_identities(rng: np.random.Generator, n_samples: int = 25) -> CheckResult:
    """Weyl m-functions are Herglotz and fixed points of one period's Schur complement.

    On band-interior grids Im m_l > 0, Im m_r > 0, and

        m_r = [(h_L - E - kappa_s^2 m_r e_L e_L^T)^{-1}]_11,
        m_l = [(h_L - E - kappa_s^2 m_l e_1 e_1^T)^{-1}]_LL,

    each solved by the oracle's stacked LU: one solve per sample and side
    over the whole grid, so no transfer matrix is involved.  The residual
    is |m - m_fixed| / (|m| + 1); energies where either one-period system
    fails the oracle's residual gate are skipped.
    """
    worst = 0.0
    min_im = math.inf
    for _ in range(n_samples):
        sample = random_sample(rng)
        grid = band_interior_grid(band_spectrum(sample), 30)
        m_l, m_r, _ = _crystal_m_values(sample, grid)
        min_im = min(min_im, float(np.min(m_l.imag)), float(np.min(m_r.imag)))
        # kappa_s^2 m on an end site is that half-line's boundary self-energy
        period = _n_cell_system(sample, 1)
        fixed_r, _, _, _, ok_r = _coupled_corners(period, sample.kappa_s, grid, 0.0, m_r)
        _, _, _, fixed_l, ok_l = _coupled_corners(period, sample.kappa_s, grid, m_l, 0.0)
        keep = ok_r & ok_l
        if np.any(keep):
            m_r, m_l, fixed_r, fixed_l = m_r[keep], m_l[keep], fixed_r[keep], fixed_l[keep]
            worst = max(
                worst,
                float(np.max(np.abs(m_r - fixed_r) / (np.abs(m_r) + 1.0))),
                float(np.max(np.abs(m_l - fixed_l) / (np.abs(m_l) + 1.0))),
            )
    return CheckResult(
        "m_identities",
        bool(worst <= 1e-10 and min_im > 0.0),
        f"max one-period fixed-point residual = {worst:.3e}, min Im m = {min_im:.3e}",
    )


_CHECK_STATES = (
    ThermoState(2.0, 0.3, 2.0, -0.3),
    ThermoState(5.0, 0.1, 1.0, 0.1),
    ThermoState(1.5, 0.4, 4.0, -0.2),
)
_ABS_TOL = QuadratureConfig().abs_tol  # the current checks use the default quadrature
_DELTA_ROUNDING = 8.0 * float(np.finfo(float).eps)  # see check_conservation_entropy


def check_conservation_entropy(rng: np.random.Generator, n_configs: int = 10) -> CheckResult:
    """Pointwise `weights`: Delta_r = -Delta_l exactly, varsigma >= 0 up to rounding; no report.

    Each _CHECK_STATES state runs on each configuration's band-interior grid,
    plus E_c = `sign_change_energy` where beta_l != beta_r.  The rounding rule:
    rho is computed from the same float as zeta, and the computed zeta_r - zeta_l
    has the exact sign of the computed zetas' difference, so varsigma < 0 means a
    wrong sign of rho_l - rho_r.  Each rho is an exp (within 3 ulps), an addition
    and a division from exact, off by <= 4 eps rho <= 4 eps, so a wrong sign needs
    |Delta_l| <= 8 eps.  At some E_c correct code gives varsigma = -6.2e-33.
    """
    worst = 0.0
    wrong = energies = 0
    for _ in range(n_configs):
        sample = random_configuration(rng, max_sites=5)[0]
        grid = band_interior_grid(band_spectrum(sample), 200)
        for thermo in _CHECK_STATES:
            E = grid
            if thermo.beta_l != thermo.beta_r:
                E = np.append(grid, sign_change_energy(thermo))
            _, _, delta_l, delta_r, varsigma = weights(thermo, E)
            worst = max(worst, float(np.max(np.abs(delta_l + delta_r))))
            wrong += int(np.count_nonzero(~(varsigma >= 0.0) & (np.abs(delta_l) > _DELTA_ROUNDING)))
            energies += E.size
    return CheckResult("conservation_entropy", worst == 0.0 and wrong == 0,
                       f"max |Delta_l + Delta_r| = {worst:.3e}, varsigma < 0 beyond rounding "
                       f"at {wrong} of {energies} energies")


def check_thouless_dominance(rng: np.random.Generator, n_configs: int = 10) -> CheckResult:
    """Entropy dominance <J>_infty <= <J>_Th for random reservoir realizations.

    Both reports also meet the report bounds: conservation residuals <= 2 abs_tol,
    entropy balance residual <= 3 abs_tol and <J> >= -abs_tol.
    """
    worst = -math.inf
    cons = bal = min_j = 0.0
    for _ in range(n_configs):
        sample, lead_l, lead_r, kappa = random_configuration(rng, max_sites=5)
        thermo = _CHECK_STATES[int(rng.integers(len(_CHECK_STATES)))]
        rep_inf = crystalline_currents(sample, lead_l, lead_r, kappa, thermo)
        rep_th = thouless_currents(sample, thermo)
        worst = max(worst, rep_inf.entropy_j - rep_th.entropy_j)
        for rep in (rep_inf, rep_th):
            cons = max(cons, *rep.conservation_residuals)
            bal = max(bal, rep.entropy_balance_residual)
            min_j = min(min_j, rep.entropy_j)
    bounds = (worst <= _ABS_TOL, cons <= 2.0 * _ABS_TOL, bal <= 3.0 * _ABS_TOL, min_j >= -_ABS_TOL)
    return CheckResult("thouless_dominance", all(bounds),
                       f"max <J>_inf - <J>_Th = {worst:.3e}; "
                       f"conservation {cons:.3e}, balance {bal:.3e}, min J {min_j:.3e}")


def check_matched_reflectionless(rng: np.random.Generator, n_configs: int = 5) -> CheckResult:
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
        "matched_reflectionless", worst <= 1e-9, f"max |T_N - 1| = {worst:.3e}"
    )


def run_selfcheck(seed: int = 0, ensemble: int = 50) -> tuple[bool, list[CheckResult]]:
    """Run the full battery on a seeded ensemble; returns (all_passed, results)."""
    # integers, seed >= 0 and ensemble >= 1: a battery over no configuration passes unchecked
    seed, ensemble = _count("seed", seed, 0), _count("ensemble", ensemble, 1)
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

"""Brute-force resolvent oracle, independent of all transfer-matrix code.

The coupled system is reduced by a Schur complement onto the N-cell sample:
eliminating the reservoir blocks of (h - z) replaces them by boundary
self-energies, so the sample block of the full resolvent is

    G(E) = (h_S^(N) - E - kappa^2 F_l(E) P_1 - kappa^2 F_r(E) P_NL)^{-1},

an NL x NL complex tridiagonal system solved directly (LAPACK banded LU
with partial pivoting).  This path depends only on the periodized Jacobi
parameters and the lead boundary values; it shares nothing with the
closed-form evaluation it validates.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, SampleEigenvalueError, SingularEnergyError
from .jacobi import GreenMatrix2, SampleSpec, periodized_parameters
from .leads import LeadModel, lead_F_values

_RESIDUAL_TOL = 1e-11


def _corner_green(diag: np.ndarray, off: np.ndarray) -> tuple[complex, complex, complex, complex]:
    """Corner entries of the inverse of the tridiagonal matrix with the given
    (complex) diagonal and (real) off-diagonal, via two banded solves."""
    from scipy.linalg import solve_banded  # imported here: scipy costs ~0.3 s of every cold start

    n = diag.size
    ab = np.zeros((3, n), dtype=complex)
    ab[1, :] = diag
    if n > 1:
        ab[0, 1:] = off
        ab[2, :-1] = off
    rhs = np.zeros((n, 2), dtype=complex)
    rhs[0, 0] = 1.0
    rhs[-1, 1] = 1.0
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            x = solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularEnergyError(f"tridiagonal solve failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularEnergyError("tridiagonal system is singular at this energy")
    # residual check on both solves
    for j in range(2):
        v = x[:, j]
        r = diag * v
        if n > 1:
            r[:-1] += off * v[1:]
            r[1:] += off * v[:-1]
        r -= rhs[:, j]
        resid = np.linalg.norm(r)
        if not resid <= _RESIDUAL_TOL * max(np.linalg.norm(rhs[:, j]), 1e-300):
            raise SingularEnergyError(f"solver residual {resid:.3e} above {_RESIDUAL_TOL}")
    return complex(x[0, 0]), complex(x[0, 1]), complex(x[-1, 0]), complex(x[-1, 1])


def resolvent_green(
    sample: SampleSpec,
    n_cells: int,
    lead_l: LeadModel,
    lead_r: LeadModel,
    kappa: float,
    E: float,
) -> GreenMatrix2:
    """Full 2x2 Green matrix between the end sites of the coupled N-cell system."""
    if n_cells < 1:
        raise DomainError("n_cells must be a positive integer")
    if kappa == 0.0:
        raise DomainError("coupling kappa must be nonzero")
    diag, off = periodized_parameters(sample, n_cells)
    F_l = lead_F_values(lead_l, float(E))[0]
    F_r = lead_F_values(lead_r, float(E))[0]
    d = diag.astype(complex) - float(E)
    d[0] -= kappa**2 * F_l
    d[-1] -= kappa**2 * F_r
    g_ll, g_lr, g_rl, g_rr = _corner_green(d, off)
    return GreenMatrix2(g_ll, g_lr, g_rl, g_rr, float(E), n_cells)


def dirichlet_sample_green(sample: SampleSpec, n_cells: int, E: float) -> GreenMatrix2:
    """2x2 Green matrix of the decoupled Dirichlet N-cell sample by direct solve."""
    if n_cells < 1:
        raise DomainError("n_cells must be a positive integer")
    diag, off = periodized_parameters(sample, n_cells)
    d = diag.astype(complex) - float(E)
    try:
        g_ll, g_lr, g_rl, g_rr = _corner_green(d, off)
    except SingularEnergyError as exc:
        raise SampleEigenvalueError(
            f"E={E} is (numerically) an eigenvalue of the {n_cells}-cell sample"
        ) from exc
    return GreenMatrix2(g_ll, g_lr, g_rl, g_rr, float(E), n_cells)


def transmittance_oracle(
    sample: SampleSpec,
    lead_l: LeadModel,
    lead_r: LeadModel,
    kappa: float,
    n_cells: int,
    E: float,
) -> float:
    """T_N(E) assembled purely from the dense resolvent path."""
    F_l = lead_F_values(lead_l, float(E))[0]
    F_r = lead_F_values(lead_r, float(E))[0]
    if F_l.imag <= 0.0 or F_r.imag <= 0.0:
        return 0.0
    g = resolvent_green(sample, n_cells, lead_l, lead_r, kappa, E)
    return 4.0 * kappa**4 * abs(g.g_lr) ** 2 * F_l.imag * F_r.imag

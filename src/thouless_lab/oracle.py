"""Brute-force resolvent oracle, independent of all transfer-matrix code.

The coupled system is reduced by a Schur complement onto the N-cell sample:
eliminating the reservoir blocks of (h - z) replaces them by boundary
self-energies, so the sample block of the full resolvent is

    G(E) = (h_S^(N) - E - kappa^2 F_l(E) P_1 - kappa^2 F_r(E) P_NL)^{-1},

an NL x NL complex tridiagonal system per energy.  For every number K of
energies there is one stacked solve: the K systems are laid out as the
blocks of one block-diagonal tridiagonal matrix, on the flat (K NL)-row
arrays, with zero coupling between blocks, and solved by one
partial-pivoted LAPACK LU (gtsv, the routine scipy's ``solve_banded`` uses
for one sub- and one super-diagonal).  Each energy's solution passes a
1e-11 residual gate on its own; a system that fails it is solved again
alone, so a singular energy neither stops nor pollutes the others.  A
single energy is assembled in Python floats and complex numbers around a
K = 1 solve, in the array path's order of operations, so it returns the
same bits as the matching entry of an array call.  This path depends only
on the periodized Jacobi parameters and the lead boundary values; it
shares nothing with the closed-form evaluation it validates.

The N-cell system is built once per (sample, N): a bounded cache keyed on
``jacobi._sample_key`` (the frozen ``SampleSpec`` and the signs of its zero
onsite values) and N holds its complex diagonal and real off-diagonal as
read-only arrays.  Only these immutable inputs are cached,
never a solve or a lead value, so a cached call returns the same bits as a
fresh one.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import SingularEnergyError
from .jacobi import GreenMatrix2, SampleSpec, _energies, _repetition_count, _sample_key
from .jacobi import periodized_parameters
from .leads import LeadModel, _check_kappa, _lead_F_values, _one_energy

_RESIDUAL_TOL = 1e-11
# N-cell systems kept by _n_cell_system; each holds N*L complex and N*L - 1 real entries
_SYSTEM_CACHE_SIZE = 16


def _n_cell_system(sample: SampleSpec, n_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only complex diagonal and real off-diagonal of the N-cell sample, built once."""
    n_cells = _repetition_count(n_cells)  # before the lookup: a key 2.0 would find 2
    return _n_cell_system_cached(_sample_key(sample), n_cells)


@functools.lru_cache(maxsize=_SYSTEM_CACHE_SIZE)
def _n_cell_system_cached(key, n_cells):
    diag, off = periodized_parameters(key[0], n_cells)
    diag = diag.astype(complex)
    diag.flags.writeable = False
    off.flags.writeable = False
    return diag, off


@functools.cache
def _zgtsv():
    """LAPACK's complex gtsv, imported on first use: scipy costs ~0.3 s of every cold start."""
    from scipy.linalg.lapack import zgtsv

    return zgtsv


def _corner_green(diag: np.ndarray, off: np.ndarray):
    """Corner entries of the inverses of K tridiagonal matrices.

    `diag` is the (K, n) complex diagonal of each matrix and `off` their
    shared real off-diagonal of length n - 1.  Returns (g_11, g_1n, g_n1,
    g_nn, ok), each of length K; ok[k] is False where system k failed the
    residual gate, and its corners are then meaningless.

    The K systems are solved and checked as one flat (K n)-row stack: the
    coupling between consecutive systems is zero, so each row's residual
    is that of its own system, and the squares are summed per system.  A
    non-finite solution makes the zero coupling add a NaN to its
    neighbours' residuals, which only sends them to their lone re-solve.
    """
    K, n = diag.shape
    d = diag.ravel()
    rhs = np.zeros((K * n, 2), dtype=complex)
    rhs[::n, 0] = 1.0
    rhs[n - 1 :: n, 1] = 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if n == 1:  # 1 x 1 systems: divide, as solve_banded does
            x = rhs / d[:, None]
            info = 0
        else:
            coupling = np.zeros((K, n))
            coupling[:, :-1] = off
            coupling = coupling.ravel()[:-1]
            _, _, _, x, info = _zgtsv()(coupling, d, coupling, rhs)
        r = d[:, None] * x - rhs
        if n > 1:
            r[:-1] += coupling[:, None] * x[1:]
            r[1:] += coupling[:, None] * x[:-1]
        # the 2-norm over each system's column, as np.linalg.norm(r, axis=1) computes it
        resid = np.sqrt(np.add.reduce((r.conj() * r).real.reshape(K, n, 2), axis=1))
    # a zero pivot stops gtsv for the whole stack: no system is solved then
    ok = (resid <= _RESIDUAL_TOL).all(axis=1) & (info == 0)
    x = x.reshape(K, n, 2)
    corners = [x[:, 0, 0], x[:, 0, 1], x[:, -1, 0], x[:, -1, 1]]
    if K > 1 and not ok.all():
        for k in np.flatnonzero(~ok):
            *lone, lone_ok = _corner_green(diag[k : k + 1], off)
            for c, v in zip(corners, lone):
                c[k] = v[0]
            ok[k] = lone_ok[0]
    return (*corners, ok)


def _lead_values(lead_l, lead_r, kappa, E):
    """(kappa by `_check_kappa`, F_l, F_r) at the checked energies E; kappa is read first."""
    kappa = _check_kappa(kappa)
    return kappa, _lead_F_values(lead_l, E), _lead_F_values(lead_r, E)


def _coupled_corners(system, kappa, E, F_l, F_r):
    """`_corner_green` of the boundary-self-energy systems of the N-cell `system` at E.

    E, F_l and F_r are arrays of K values, or one float and two complex
    numbers, whose K = 1 system is assembled in the array path's order.
    """
    diag, off = system
    if isinstance(E, float):
        d = diag - E
        d[0] -= kappa**2 * F_l
        d[-1] -= kappa**2 * F_r
        return _corner_green(d[None, :], off)
    d = diag - E[:, None]
    d[:, 0] -= kappa**2 * F_l
    d[:, -1] -= kappa**2 * F_r
    return _corner_green(d, off)


def resolvent_green(
    sample: SampleSpec,
    n_cells: int,
    lead_l: LeadModel,
    lead_r: LeadModel,
    kappa: float,
    E: float,
) -> GreenMatrix2:
    """Full 2x2 Green matrix between the end sites of the coupled N-cell system."""
    n_cells = _repetition_count(n_cells)
    E_arr = _one_energy(E)
    kappa, F_l, F_r = _lead_values(lead_l, lead_r, kappa, E_arr)
    E_one, f_l, f_r = float(E_arr[0]), complex(F_l[0]), complex(F_r[0])
    *corners, ok = _coupled_corners(_n_cell_system(sample, n_cells), kappa, E_one, f_l, f_r)
    if not ok[0]:
        raise SingularEnergyError(f"the solve at E={E} fails the residual gate {_RESIDUAL_TOL:g}")
    return GreenMatrix2(*(complex(g[0]) for g in corners), float(E), n_cells)


def transmittance_oracle(
    sample: SampleSpec,
    lead_l: LeadModel,
    lead_r: LeadModel,
    kappa: float,
    n_cells: int,
    E,
):
    """T_N(E) assembled purely from the dense resolvent path.

    Accepts a scalar or an array of energies.  T_N is 0 where either lead
    has Im F = 0; the other energies are solved together, and any one that
    fails the residual gate raises SingularEnergyError.  A single energy is
    assembled in Python floats around its K = 1 solve, in the array path's
    order, so it returns the same bits.
    """
    E_arr, scalar = _energies(E)
    system = _n_cell_system(sample, n_cells)
    kappa, F_l, F_r = _lead_values(lead_l, lead_r, kappa, E_arr)
    if scalar:
        E_one, f_l, f_r = float(E_arr[0]), complex(F_l[0]), complex(F_r[0])
        if not (f_l.imag > 0.0 and f_r.imag > 0.0):
            return 0.0
        _, g_lr, _, _, ok = _coupled_corners(system, kappa, E_one, f_l, f_r)
        if not ok[0]:
            raise SingularEnergyError(
                f"the solve at E={E_one} fails the residual gate {_RESIDUAL_TOL:g}"
            )
        g_abs = abs(complex(g_lr[0]))  # libm hypot, as in the array path
        return 4.0 * kappa**4 * (g_abs * g_abs) * f_l.imag * f_r.imag
    live = (F_l.imag > 0.0) & (F_r.imag > 0.0)
    T = np.zeros(E_arr.shape)
    if live.any():
        E_live, F_l, F_r = E_arr[live], F_l[live], F_r[live]
        _, g_lr, _, _, ok = _coupled_corners(system, kappa, E_live, F_l, F_r)
        if not ok.all():
            raise SingularEnergyError(
                f"the solve at E={E_live[~ok][0]} fails the residual gate {_RESIDUAL_TOL:g}"
            )
        # hypot is what abs(complex) computes; np.abs rounds differently
        g_abs = np.hypot(g_lr.real, g_lr.imag)
        T[live] = 4.0 * kappa**4 * g_abs**2 * F_l.imag * F_r.imag
    return T

"""Closed-form transmittances of N-fold repeated samples and their crystalline limit.

Everything is driven by the eigendata of the one-period transfer matrix
T_L(E), computed once per energy array by ``leads._eigendata_values``
together with the Weyl m-functions of the periodized half-lines.  Inside a
band T_L has unimodular eigenvalues e^{±i theta} with cos theta = tr T_L / 2
and sign(theta) = sign(b); the normalized eigenvectors (1, kappa_s psi_±)
are taken from the m-functions,

    psi_+ = -1 / (kappa_s m_r),      psi_- = -kappa_s m_l = conj(psi_+),

so T_N and T_infty share one in-band root selection.  Outside the bands the
eigenvalues are real with |alpha| > 1 and the eigenvectors real.  The 2x2
Green matrices of the N-cell sample, the coupled system's off-diagonal Green
value, the transmittances T_N and T_infty, and the (r, vartheta) oscillation
diagnostics are all evaluated from this data, taken once per energy array; a
crystalline lead on the sample itself reads its F from the sample's m_l or
m_r.  Large-N powers use e^{±iN theta} in band and log-domain magnitudes off
band, never raw matrix powers.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    BandEdgeError,
    DegeneratePivotError,
    DomainError,
    NumericalError,
    SampleEigenvalueError,
)
from .jacobi import GreenMatrix2, SampleSpec
# Not called here; kept importable because bench/tracer.py wraps this name.
from .jacobi import _one_period_abcd  # noqa: F401
from .leads import EDGE_TOL, SUPPORT_TOL, CrystallineLead, LeadModel, lead_F_values
from .leads import _clamp_im, _eigendata_values
# Not called here; kept importable because bench/tracer.py wraps this name.
from .leads import _crystal_m_values  # noqa: F401

log = logging.getLogger(__name__)

# transmittance values in [-CLAMP_TOL, 1 + CLAMP_TOL] are clamped; worse is an error
CLAMP_TOL = 1e-9


@dataclass(frozen=True)
class TransferEigenData:
    """Eigenvalue and eigenvector data of T_L(E) under the in/out-of-band conventions.

    The stored psi values have the kappa_s factor stripped: the eigenvector
    for alpha^{±1} is (phi_±, kappa_s psi_±).  In band, alpha = e^{i theta}
    and psi_- = conj(psi_+); off band alpha is real with |alpha| > 1 and
    all components are real (theta is None there).
    """

    energy: float
    alpha: complex
    phi_plus: complex
    phi_minus: complex
    psi_plus: complex
    psi_minus: complex
    theta: float | None
    in_band: bool


def transfer_eigendata(sample: SampleSpec, E: float) -> TransferEigenData:
    """Eigendata of T_L(E) at a single energy.

    Raises BandEdgeError within the |tr T_L| ~ 2 exclusion zone and
    DegeneratePivotError if b(E) degenerates inside a band (the latter
    cannot occur strictly inside a band, where b*c < 0; the guard protects
    against rounding at the zone boundary).
    """
    E_arr = np.asarray([float(E)])
    ed = _eigendata_values(sample, E_arr)
    if ed["edge"][0]:
        raise BandEdgeError(
            f"transfer eigendata at E={E}: |tr T_L| within {EDGE_TOL} of 2"
        )
    if ed["in_band"][0] and abs(ed["b"][0]) < 1e-12:
        raise DegeneratePivotError(f"b(E) degenerate inside a band at E={E}")
    kS = sample.kappa_s
    in_band = bool(ed["in_band"][0])
    return TransferEigenData(
        energy=float(E),
        alpha=complex(ed["alpha"][0]),
        phi_plus=complex(ed["phi_p"][0]),
        phi_minus=complex(ed["phi_m"][0]),
        psi_plus=complex(ed["kpsi_p"][0]) / kS,
        psi_minus=complex(ed["kpsi_m"][0]) / kS,
        theta=float(ed["theta"][0]) if in_band else None,
        in_band=in_band,
    )


def _alpha_neg_pow(ed, n_cells: int) -> np.ndarray:
    """alpha^{-N} elementwise: e^{-iN theta} in band, log-domain off band (may underflow to 0)."""
    in_band = ed["in_band"]
    a_neg = np.empty(in_band.shape, dtype=complex)
    a_neg[in_band] = np.exp(-1j * np.mod(n_cells * ed["theta"][in_band], 2.0 * np.pi))
    off = ~in_band
    if np.any(off):
        al = ed["alpha"][off].real
        sign = np.where(al >= 0.0, 1.0, -1.0) ** (n_cells % 2)
        log_mag = n_cells * np.log(np.abs(al))
        a_neg[off] = sign * np.exp(-log_mag)
    return a_neg


def _sample_green_values(sample: SampleSpec, n_cells: int, E: np.ndarray):
    """Closed-form entries of G_S^(N) plus the scaled denominator, vectorized.

    Uses the alpha^{-N}-normalized form so nothing overflows: with
    z = alpha^{-2N}, A = phi_+ psi_-, B = phi_- psi_+,

        G_ll = -(1/kappa_s) phi_+ phi_- (1 - z) / (A - z B)
        G_lr = -(1/kappa_s) (A - B) alpha^{-N} / (A - z B)
        G_rr = -(1/kappa_s) psi_+ psi_- (1 - z) / (A - z B).
    """
    ed = _eigendata_values(sample, E)
    kS = sample.kappa_s
    kpsi_p, kpsi_m = ed["kpsi_p"], ed["kpsi_m"]
    phi_p, phi_m = ed["phi_p"], ed["phi_m"]
    psi_p, psi_m = kpsi_p / kS, kpsi_m / kS
    a_neg = _alpha_neg_pow(ed, n_cells)
    z = a_neg * a_neg
    A = phi_p * psi_m
    B = phi_m * psi_p
    denom = A - z * B
    W = A - B
    with np.errstate(divide="ignore", invalid="ignore"):
        g_ll = -(1.0 / kS) * phi_p * phi_m * (1.0 - z) / denom
        g_lr = -(1.0 / kS) * W * a_neg / denom
        g_rr = -(1.0 / kS) * psi_p * psi_m * (1.0 - z) / denom
    scale = np.abs(A) + np.abs(B)
    return g_ll, g_lr, g_rr, denom, scale


def sample_green(sample: SampleSpec, n_cells: int, E: float) -> GreenMatrix2:
    """2x2 Green matrix of the decoupled (Dirichlet) N-cell sample at energy E.

    Raises SampleEigenvalueError when E sits at an eigenvalue of the N-cell
    sample, where the resolvent has a pole.
    """
    if n_cells < 1:
        raise DomainError("n_cells must be a positive integer")
    E_arr = np.asarray([float(E)])
    g_ll, g_lr, g_rr, denom, scale = _sample_green_values(sample, n_cells, E_arr)
    if abs(denom[0]) <= 1e-12 * max(scale[0], 1e-300):
        raise SampleEigenvalueError(
            f"E={E} is an eigenvalue of the {n_cells}-cell sample (D_N ~ 0)"
        )
    return GreenMatrix2(
        g_ll=complex(g_ll[0]),
        g_lr=complex(g_lr[0]),
        g_rl=complex(g_lr[0]),
        g_rr=complex(g_rr[0]),
        energy=float(E),
        n_cells=n_cells,
    )


def _transport_inputs(sample, lead_l, lead_r, E: np.ndarray):
    """(eigendata, F_l, F_r) from one eigendata evaluation of the energy array.

    A CrystallineLead on a sample equal to this one takes F from its m_l or m_r.
    """
    ed = _eigendata_values(sample, E)

    def boundary_values(lead):
        if isinstance(lead, CrystallineLead) and lead.sample == sample:
            return _clamp_im(ed["m_l"] if lead.side == "l" else ed["m_r"])
        return lead_F_values(lead, E)

    return ed, boundary_values(lead_l), boundary_values(lead_r)


def _full_green_lr_values(sample, kappa, n_cells, ed, F_l, F_r):
    """Off-diagonal element G_lr^(N) of the coupled-system Green matrix, vectorized.

    Dressed eigenvector components per the coupling to the reservoirs:

        psi~_± = psi_± + eta^2 kappa_s phi_± F_l
        phi~_± = phi_± + eta^2 kappa_s psi_± F_r,   eta = kappa / kappa_s,

    and, normalized by alpha^{-N} against overflow,

        G_lr = -(1/kappa_s) (phi_+ psi_- - phi_- psi_+) alpha^{-N}
               / (phi~_+ psi~_- - alpha^{-2N} phi~_- psi~_+).

    Non-finite F (off the leads' support) gives non-finite entries, silently.
    """
    kS = sample.kappa_s
    eta2 = (kappa / kS) ** 2
    psi_p, psi_m = ed["kpsi_p"] / kS, ed["kpsi_m"] / kS
    phi_p, phi_m = ed["phi_p"], ed["phi_m"]
    a_neg = _alpha_neg_pow(ed, n_cells)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pst_p = psi_p + eta2 * kS * phi_p * F_l
        pst_m = psi_m + eta2 * kS * phi_m * F_l
        pht_p = phi_p + eta2 * kS * psi_p * F_r
        pht_m = phi_m + eta2 * kS * psi_m * F_r
        z = a_neg * a_neg
        # B is named on purpose: in z * (pht_m * pst_p) numpy reuses a large
        # temporary in place as (pht_m * pst_p) * z, and complex products are
        # not bitwise commutative, so T would move in the last bit
        A = pht_p * pst_m
        B = pht_m * pst_p
        W = phi_p * psi_m - phi_m * psi_p
        return -(1.0 / kS) * W * a_neg / (A - z * B)


def _clamp_unit(T: np.ndarray, what: str) -> np.ndarray:
    """Clamp to [0, 1]; violations beyond CLAMP_TOL are implementation bugs."""
    worst = 0.0
    if T.size:
        worst = max(float(np.max(T) - 1.0), float(-np.min(T)), 0.0)
    if worst > CLAMP_TOL:
        raise NumericalError(f"{what} outside [0,1] by {worst:.3e} (beyond {CLAMP_TOL})")
    if worst > 1e-12:
        log.debug("%s clamped by %.3e", what, worst)
    return np.clip(T, 0.0, 1.0)


def _tn_values(sample, kappa, n_cells, ed, F_l, F_r) -> np.ndarray:
    """T_N on the whole array; 0 off the leads' common support and where singular."""
    g_lr = _full_green_lr_values(sample, kappa, n_cells, ed, F_l, F_r)
    with np.errstate(invalid="ignore", over="ignore"):
        vals = 4.0 * kappa**4 * np.abs(g_lr) ** 2 * F_l.imag * F_r.imag
    live = (F_l.imag > SUPPORT_TOL) & (F_r.imag > SUPPORT_TOL)
    ok = live & np.isfinite(vals)
    if np.any(live & ~ok):
        log.debug("transmittance_n: %d singular energies set to 0", int(np.sum(live & ~ok)))
    return _clamp_unit(np.where(ok, vals, 0.0), "T_N")


def transmittance_n(
    sample: SampleSpec,
    lead_l: LeadModel,
    lead_r: LeadModel,
    kappa: float,
    n_cells: int,
    E,
):
    """Transmittance T_N(E) = 4 kappa^4 |G_lr^(N)(E)|^2 Im F_l Im F_r in [0, 1].

    Accepts a scalar or an array of energies.  T_N is 0 outside the common
    essential support of the leads; energies where the Green denominator
    degenerates (a measure-zero set) are returned as 0 and logged.  Raises
    DomainError for n_cells < 1.
    """
    if n_cells < 1:
        raise DomainError(f"n_cells must be a positive integer, got {n_cells}")
    scalar = np.ndim(E) == 0
    E_arr = np.atleast_1d(np.asarray(E, dtype=float))
    T = _tn_values(sample, kappa, n_cells, *_transport_inputs(sample, lead_l, lead_r, E_arr))
    return float(T[0]) if scalar else T


def _crystal_live(ed, F_l, F_r) -> np.ndarray:
    """Band interior (outside the edge exclusion zone) within the leads' common support."""
    return ed["in_band"] & ~ed["edge"] & (F_l.imag > SUPPORT_TOL) & (F_r.imag > SUPPORT_TOL)


def _tinf_values(sample, kappa, ed, F_l, F_r) -> np.ndarray:
    """T_infty from the transport inputs; 0 off `_crystal_live`."""
    live = _crystal_live(ed, F_l, F_r)
    T = np.zeros(live.shape)
    if np.any(live):
        kS2, k2 = sample.kappa_s**2, kappa**2
        sm_r, sm_l = kS2 * ed["m_r"][live], kS2 * ed["m_l"][live]
        sF_r, sF_l = k2 * F_r[live], k2 * F_l[live]
        term_r = np.abs(sm_r - sF_r) ** 2 / (sm_r.imag * sF_r.imag)
        term_l = np.abs(sm_l - sF_l) ** 2 / (sm_l.imag * sF_l.imag)
        T[live] = 1.0 / (1.0 + 0.25 * (term_r + term_l))
    return _clamp_unit(T, "T_inf")


def transmittance_inf(
    sample: SampleSpec,
    lead_l: LeadModel,
    lead_r: LeadModel,
    kappa: float,
    E,
):
    """Crystalline-limit transmittance T_infty(E) in [0, 1].

    Zero outside sp(h_crystal) ∩ Sigma_l ∩ Sigma_r and within the band-edge
    exclusion zone (a measure-zero set).  Accepts scalars or arrays.
    """
    scalar = np.ndim(E) == 0
    E_arr = np.atleast_1d(np.asarray(E, dtype=float))
    T = _tinf_values(sample, kappa, *_transport_inputs(sample, lead_l, lead_r, E_arr))
    return float(T[0]) if scalar else T


def _r_theta_from(sample, kappa, ed, F_l, F_r):
    """(r, vartheta, theta, live) from the transport inputs; nan off `_crystal_live`."""
    live = _crystal_live(ed, F_l, F_r)
    eta2 = (kappa / sample.kappa_s) ** 2
    r, vth, theta = (np.full(live.shape, np.nan) for _ in range(3))
    if np.any(live):
        ml, mr = ed["m_l"][live], ed["m_r"][live]
        fl, fr = F_l[live], F_r[live]
        prod = (
            (ml - eta2 * fl)
            / (np.conj(ml) - eta2 * fl)
            * (mr - eta2 * fr)
            / (np.conj(mr) - eta2 * fr)
            * (np.conj(mr) / mr)
        )
        r[live] = np.abs(prod)
        vth[live] = np.angle(prod)
        theta[live] = ed["theta"][live]
    return r, vth, theta, live


def _r_theta_values(sample, lead_l, lead_r, kappa, E: np.ndarray):
    """Vectorized (r, vartheta, theta, live) of the oscillation polar decomposition."""
    return _r_theta_from(sample, kappa, *_transport_inputs(sample, lead_l, lead_r, E))


def _diagnostic_columns(sample, lead_l, lead_r, kappa, n_cells, E: np.ndarray):
    """Columns (T, r, theta) of `transmit --diagnostics`; T is T_infty if n_cells is None."""
    inputs = _transport_inputs(sample, lead_l, lead_r, E)
    T = (_tinf_values(sample, kappa, *inputs) if n_cells is None
         else _tn_values(sample, kappa, n_cells, *inputs))
    r, _, theta, _ = _r_theta_from(sample, kappa, *inputs)
    return np.column_stack([T, r, theta])


def r_theta_diagnostic(
    sample: SampleSpec,
    lead_l: LeadModel,
    lead_r: LeadModel,
    kappa: float,
    E: float,
) -> tuple[float, float, float]:
    """(r, vartheta, theta) controlling the finite-N oscillation

        T_N(E) = T_infty(E) * sum_k r^{|k|} e^{i k (2 N theta + vartheta)}.

    r < 1 wherever Im m and Im F are positive.  Raises DomainError off the
    band interior or outside the common essential support (where the
    decomposition is undefined).
    """
    E_arr = np.asarray([float(E)])
    r, vth, theta, live = _r_theta_values(sample, lead_l, lead_r, kappa, E_arr)
    if not live[0]:
        raise DomainError(
            f"r/theta diagnostic requested at E={E} outside band interior ∩ support"
        )
    return float(r[0]), float(vth[0]), float(theta[0])

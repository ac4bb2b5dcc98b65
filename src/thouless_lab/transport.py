"""Closed-form transmittances of N-fold repeated samples and their crystalline limit.

Everything is driven by one-period transfer data T_L(E) = [[a, b], [c, d]],
computed once per energy array by ``leads._transfer_band``.  The N-cell
sample enters through the Cayley-Hamilton power

    T_L^N = U_{N-1}(x) T_L - U_{N-2}(x) I,      x = tr T_L / 2,

with the Chebyshev polynomials of the second kind U_k supplied by
``_chebyshev_factors``: inside a band from the folded angle
theta_f = arccos|x| in [0, pi/2], outside from the growing eigenvalue alpha,
scaled by alpha^{-(N-1)} so nothing overflows.  The formula has no 0/0 at
tr T_L = ±2, where T_L is a Jordan block, and raw matrix powers are never
formed.  The Dirichlet sample's 2x2 Green matrix and the coupled system's
end-to-end Green value, hence T_N, are read from the entries of T_L^N.

T_infty and the (r, vartheta, theta) diagnostics read one band-interior
record per energy array, ``_BandRecord``: the live mask (band interior
within both leads' support) and, on the live entries, the m-functions of one
``leads._band_m_values`` call, both leads' F and the sine of theta.
``_tinf_live`` is the one T_infty formula.  A crystalline lead on the sample
itself reads its F from the same in-band m_l or m_r, for T_N too.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BandEdgeError,
    DegeneratePivotError,
    DomainError,
    NumericalError,
    SampleEigenvalueError,
)
from .jacobi import GreenMatrix2, SampleSpec, _energies, _repetition_count
# Not called here; kept importable because bench/tracer.py wraps this name.
from .jacobi import _one_period_abcd  # noqa: F401
from .jacobi import _refusing_overflow
from .leads import EDGE_TOL, SUPPORT_TOL, CrystallineLead, LeadModel, lead_F_values
from .leads import _alpha_off, _band_m_values, _check_kappa, _clamp_im, _eigendata_values
from .leads import _one_energy, _transfer_band
# Not called here; kept importable because bench/tracer.py wraps this name.
from .leads import _crystal_m_values  # noqa: F401

log = logging.getLogger(__name__)

# transmittance values in [-CLAMP_TOL, 1 + CLAMP_TOL] are clamped; worse is an error
CLAMP_TOL = 1e-9


@dataclass(frozen=True)
class TransferEigenData:
    """Eigenvalue and eigenvector data of T_L(E) under the in/out-of-band conventions.

    The stored psi values have the kappa_s factor stripped: the eigenvector
    for alpha^{±1} is (phi_±, kappa_s psi_±).  In band, alpha = e^{i theta},
    phi_± = 1, kappa_s psi_+ = -1/m_r and psi_- = conj(psi_+); off band alpha
    is real with |alpha| > 1 and all components are real (theta is None there).
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
    against rounding at the zone boundary).  A non-finite E raises
    DomainError, and so does an E where T_L or tr^2 overflows float64.
    """
    with _refusing_overflow(E):
        ed = _eigendata_values(sample, _one_energy(E))
    if ed["edge"][0]:
        raise BandEdgeError(
            f"transfer eigendata at E={E}: |tr T_L| within {EDGE_TOL} of 2"
        )
    in_band = bool(ed["in_band"][0])
    if in_band and abs(ed["b"][0]) < 1e-12:
        raise DegeneratePivotError(f"b(E) degenerate inside a band at E={E}")
    kS = sample.kappa_s
    if in_band:
        alpha = np.exp(1j * ed["theta"])[0]
        phi_p = phi_m = 1.0
        kpsi_p = complex(-1.0 / ed["m_r"][0])
        kpsi_m = kpsi_p.conjugate()
    else:
        alpha = ed["alpha_off"][0]
        phi_p, kpsi_p, phi_m, kpsi_m = (v[0] for v in ed["vec_off"])
    return TransferEigenData(
        energy=float(E),
        alpha=complex(alpha),
        phi_plus=complex(phi_p),
        phi_minus=complex(phi_m),
        psi_plus=complex(kpsi_p) / kS,
        psi_minus=complex(kpsi_m) / kS,
        theta=float(ed["theta"][0]) if in_band else None,
        in_band=in_band,
    )


def _chebyshev_factors(band, n_cells: int):
    """(p, q, w) with w T_L^N = p T_L - q I, elementwise over `_transfer_band` data.

    In band w = 1, p = U_{N-1}(x) and q = U_{N-2}(x), x = tr/2.  They are
    taken at the folded angle theta_f = atan2(sqrt(1 - x^2), |x|) in
    [0, pi/2], with U_k(-x) = (-1)^k U_k(x): p = sin(N theta_f) / sin(theta_f)
    and q = p cos(theta_f) - cos(N theta_f), from the one phase N theta_f mod 2 pi.
    The fold keeps theta_f's relative precision where theta is near ±pi, and
    N = 1 gives p = 1 and q = 0 exactly.  Off band, and at tr = ±2 exactly,
    w = alpha^{-(N-1)} may underflow to 0; with gamma = log|alpha|,
    p = expm1(-2N gamma) / expm1(-2 gamma) and
    q = expm1(-2(N-1) gamma) / (alpha expm1(-2 gamma)), which are N and
    (N-1)/alpha at gamma = 0.
    """
    in_band = band["in_band"]
    p = np.empty(in_band.shape)
    q = np.empty(in_band.shape)
    w = np.ones(in_band.shape)

    half_tr = (band["a"][in_band] + band["d"][in_band]) / 2.0
    th = np.arctan2(np.sqrt(1.0 - half_tr * half_tr), np.abs(half_tr))
    ph = np.mod(n_cells * th, 2.0 * np.pi)
    u1 = np.sin(ph) / np.sin(th)
    u2 = u1 * np.cos(th) - np.cos(ph)
    sign = np.where(half_tr < 0.0, -1.0, 1.0)
    p[in_band] = sign ** ((n_cells - 1) % 2) * u1
    q[in_band] = sign ** (n_cells % 2) * u2

    off = ~in_band
    if np.any(off):
        al = _alpha_off(band, off)
        gamma = np.log(np.abs(al))
        with np.errstate(divide="ignore", invalid="ignore"):
            den = np.expm1(-2.0 * gamma)
            at_edge = gamma == 0.0
            p[off] = np.where(at_edge, n_cells, np.expm1(-2.0 * n_cells * gamma) / den)
            q[off] = np.where(
                at_edge, n_cells - 1, np.expm1(-2.0 * (n_cells - 1) * gamma) / den
            ) / al
        sign = np.where(al < 0.0, -1.0, 1.0)
        w[off] = sign ** ((n_cells - 1) % 2) * np.exp(-(n_cells - 1) * gamma)
    return p, q, w


def _power_entries(band, n_cells: int):
    """(A, B, C, D, w) with w T_L^N = [[A, B], [C, D]], elementwise from `_chebyshev_factors`."""
    p, q, w = _chebyshev_factors(band, n_cells)
    return p * band["a"] - q, p * band["b"], p * band["c"], p * band["d"] - q, w


def sample_green(sample: SampleSpec, n_cells: int, E: float) -> GreenMatrix2:
    """2x2 Green matrix of the decoupled (Dirichlet) N-cell sample at energy E.

    With w T_L^N = [[A, B], [C, D]] from `_power_entries`,

        G_ll = B/A,   G_lr = G_rl = -w/(kappa_s A),   G_rr = -C/(kappa_s^2 A).

    Raises SampleEigenvalueError when E sits at an eigenvalue of the N-cell
    sample, where A vanishes and the resolvent has a pole, and DomainError at
    a non-finite E, where T_L or tr^2 overflows float64, or at an n_cells that
    is not an integer >= 1.
    """
    n_cells = _repetition_count(n_cells)
    with _refusing_overflow(E):
        band = _transfer_band(sample, _one_energy(E))
    A, B, C, D, w = (float(v[0]) for v in _power_entries(band, n_cells))
    if abs(A) <= 1e-12 * (abs(B) + abs(D)):
        raise SampleEigenvalueError(
            f"E={E} is an eigenvalue of the {n_cells}-cell sample (A ~ 0)"
        )
    kS = sample.kappa_s
    g_lr = complex(-w / (kS * A))
    return GreenMatrix2(
        g_ll=complex(B / A),
        g_lr=g_lr,
        g_rl=g_lr,
        g_rr=complex(-C / (kS * kS * A)),
        energy=float(E),
        n_cells=n_cells,
    )


def _spread(mask, values: np.ndarray, fill: float) -> np.ndarray:
    """values at the entries of `mask` in a whole array, `fill` elsewhere; mask None: values."""
    if mask is None:
        return values
    out = np.full(mask.shape, fill, dtype=values.dtype)
    out[mask] = values
    return out


def _transport_inputs(sample, lead_l, lead_r, kappa, E: np.ndarray, band_m: bool = False):
    """(kappa, band, F_l, F_r, m) from one `_transfer_band` evaluation of the energy array.

    m is the `_band_m_values` result, taken if band_m is set or a lead is a
    CrystallineLead on this sample, which reads F from it: m_l or m_r in band,
    nan off band, where that F is real and so never read.  Any other lead
    evaluates F on the whole array.  kappa is read by `_check_kappa`.
    """
    kappa = _check_kappa(kappa)
    band = _transfer_band(sample, E)
    own = [isinstance(lead, CrystallineLead) and lead.sample == sample for lead in (lead_l, lead_r)]
    m = _band_m_values(sample, band) if band_m or any(own) else None

    def boundary_values(lead, reads_m):
        if not reads_m:
            return lead_F_values(lead, E)
        mask, m_l, m_r, _ = m
        return _spread(mask, _clamp_im(m_l if lead.side == "l" else m_r), np.nan)

    return kappa, band, boundary_values(lead_l, own[0]), boundary_values(lead_r, own[1]), m


def _full_green_lr_values(sample, n_cells, kappa, band, F_l, F_r):
    """Off-diagonal element G_lr^(N) of the coupled-system Green matrix, vectorized.

    With f = kappa^2 F and w T_L^N = [[A, B], [C, D]] from `_power_entries`,

        G_lr = -kappa_s w / (kappa_s^2 (A - f_l B) + f_r (C - f_l D)).

    Non-finite F (off the leads' support) gives non-finite entries, silently.
    """
    kS = sample.kappa_s
    A, B, C, D, w = _power_entries(band, n_cells)
    f_l, f_r = kappa**2 * F_l, kappa**2 * F_r
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the temporary comes first in each complex product: numpy may reuse a
        # large temporary in place, and complex products are not bitwise
        # commutative, so T would move in the last bit with the array size
        den = kS**2 * (A - f_l * B) + (C - f_l * D) * f_r
        return -kS * w / den


def _clamp_unit(T: np.ndarray, what: str) -> np.ndarray:
    """Clamp to [0, 1]; violations beyond CLAMP_TOL are implementation bugs."""
    worst = 0.0
    if T.size:
        worst = max(float(T.max() - 1.0), float(-T.min()), 0.0)
    if worst > CLAMP_TOL:
        raise NumericalError(f"{what} outside [0,1] by {worst:.3e} (beyond {CLAMP_TOL})")
    if worst > 1e-12:
        log.debug("%s clamped by %.3e", what, worst)
    # nothing outside [0, 1] (or a nan, which the clip keeps): T is returned as it is
    return np.clip(T, 0.0, 1.0) if worst > 0.0 else T


def _tn_values(sample, n_cells, kappa, band, F_l, F_r) -> np.ndarray:
    """T_N on the whole array; 0 off the leads' common support and where singular."""
    g_lr = _full_green_lr_values(sample, n_cells, kappa, band, F_l, F_r)
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
    DomainError unless n_cells is an integer >= 1.
    """
    n_cells = _repetition_count(n_cells)
    E_arr, scalar = _energies(E)
    inputs = _transport_inputs(sample, lead_l, lead_r, kappa, E_arr)
    T = _tn_values(sample, n_cells, *inputs[:4])
    return float(T[0]) if scalar else T


class _BandRecord(NamedTuple):
    """Band-interior transport data of one energy array (`_band_record`).

    live marks the entries in band, outside the edge zone and in both leads'
    support, or is None for every entry; the arrays hold the live entries.
    """

    kappa: float
    band: dict  # `_transfer_band` data of the whole array
    live: np.ndarray | None
    m_l: np.ndarray
    m_r: np.ndarray
    F_l: np.ndarray
    F_r: np.ndarray
    sin_th: np.ndarray  # read only by theta


def _band_record(kappa, band, F_l, F_r, m) -> _BandRecord:
    """The `_BandRecord` of a `_transport_inputs` result taken with band_m set."""
    mask, m_l, m_r, sin_th = m
    live = ~band["edge"] & (F_l.imag > SUPPORT_TOL) & (F_r.imag > SUPPORT_TOL)
    fields = (m_l, m_r, F_l, F_r, sin_th)
    if mask is not None:
        live &= mask
        in_band_live = live[mask]
        fields = (m_l[in_band_live], m_r[in_band_live], F_l[live], F_r[live], sin_th[in_band_live])
    elif live.all():
        live = None
    else:
        fields = tuple(x[live] for x in fields)
    return _BandRecord(kappa, band, live, *fields)


def _tinf_live(sample, kappa, m_l, m_r, F_l, F_r) -> np.ndarray:
    """T_infty = 1/(1 + (term_l + term_r)/4) from m-functions and F at live entries."""
    kS2, k2 = sample.kappa_s**2, kappa**2
    sm_r, sm_l = kS2 * m_r, kS2 * m_l
    sF_r, sF_l = k2 * F_r, k2 * F_l
    term_r = np.abs(sm_r - sF_r) ** 2 / (sm_r.imag * sF_r.imag)
    term_l = np.abs(sm_l - sF_l) ** 2 / (sm_l.imag * sF_l.imag)
    return 1.0 / (1.0 + 0.25 * (term_r + term_l))


def _tinf_of(sample, rec: _BandRecord) -> np.ndarray:
    """T_infty on the whole array from its `_BandRecord`; 0 off the live entries."""
    T = _tinf_live(sample, rec.kappa, rec.m_l, rec.m_r, rec.F_l, rec.F_r)
    return _clamp_unit(_spread(rec.live, T, 0.0), "T_inf")


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
    E_arr, scalar = _energies(E)
    inputs = _transport_inputs(sample, lead_l, lead_r, kappa, E_arr, band_m=True)
    T = _tinf_of(sample, _band_record(*inputs))
    return float(T[0]) if scalar else T


def _r_theta_of(sample, rec: _BandRecord):
    """(r, vartheta, theta, live) on the whole array from its `_BandRecord`; nan off live."""
    eta2 = (rec.kappa / sample.kappa_s) ** 2
    ml, mr, fl, fr = rec.m_l, rec.m_r, rec.F_l, rec.F_r
    prod = (
        (ml - eta2 * fl)
        / (np.conj(ml) - eta2 * fl)
        * (mr - eta2 * fr)
        / (np.conj(mr) - eta2 * fr)
        * (np.conj(mr) / mr)
    )
    tr, live = rec.band["tr"], rec.live
    theta = np.arctan2(rec.sin_th, (tr if live is None else tr[live]) / 2.0)
    r, vth, theta = (_spread(live, x, np.nan) for x in (np.abs(prod), np.angle(prod), theta))
    return r, vth, theta, np.ones(tr.shape, dtype=bool) if live is None else live


def _r_theta_values(sample, lead_l, lead_r, kappa, E: np.ndarray):
    """Vectorized (r, vartheta, theta, live) of the oscillation polar decomposition."""
    inputs = _transport_inputs(sample, lead_l, lead_r, kappa, E, band_m=True)
    return _r_theta_of(sample, _band_record(*inputs))


def _diagnostic_columns(sample, lead_l, lead_r, kappa, n_cells, E: np.ndarray):
    """Columns (T, r, theta) of `transmit --diagnostics` from one `_transport_inputs` call.

    T is T_N, or T_infty if n_cells is None, which reads the `_BandRecord` of r and theta.
    """
    inputs = _transport_inputs(sample, lead_l, lead_r, kappa, E, band_m=True)
    record = _band_record(*inputs)
    T = _tinf_of(sample, record) if n_cells is None else _tn_values(sample, n_cells, *inputs[:4])
    r, _, theta, _ = _r_theta_of(sample, record)
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
    r, vth, theta, live = _r_theta_values(sample, lead_l, lead_r, kappa, _one_energy(E))
    if not live[0]:
        raise DomainError(
            f"r/theta diagnostic requested at E={E} outside band interior ∩ support"
        )
    return float(r[0]), float(vth[0]), float(theta[0])

"""Steady currents: Landauer-Buttiker, crystalline limit, and Thouless.

All three current families are integrals over the band spectrum of the
periodized sample,

    <Phi>  = (1/2pi) ∫ T(E) E Delta(E) dE        (energy, units 1/hbar)
    <I>    = (1/2pi) ∫ T(E) Delta(E) dE          (charge, units e/hbar)
    <J>    = (1/2pi) ∫ T(E) varsigma(E) dE       (entropy, units k_B/hbar)

with T = T_N, T_infty, or identically 1 (Thouless).  Delta and varsigma
are built from Fermi-Dirac occupations of the two reservoirs; the spin
degeneracy factor 2 is deliberately not included.  The quadrature,
``_adaptive_panels``, refines Gauss-Legendre panels locally over each band
to its edges; bands are split where a lead's support edge puts a
square-root kink in T.

At beta = inf the occupations are exact indicators: panels are split at the
chemical potentials, and an off-equilibrium entropy current is genuinely
+inf (zeta diverges on the bias window), reported as such with a nan
balance residual.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, QuadratureError
from .jacobi import BandSpectrum, SampleSpec, _energies, _finite, _real, _repetition_count
from .jacobi import _repetition_counts, band_spectrum, thouless_conductance
from .leads import LeadModel, _support_edges
from .transport import transmittance_inf, transmittance_n

log = logging.getLogger(__name__)

# First-level panels per band piece (see `_transmittance_profile`): _FIRST_PANELS + 2N
# for T_N, _SMOOTH_PANELS for T_infty and T = 1; Gauss nodes per panel.
_FIRST_PANELS = 8
_SMOOTH_PANELS = 1
_GAUSS_POINTS = 12
# Finest panel: pi / (_FIRST_PANELS * 2^13) in phi, whatever the start.  Refinement
# is local, so the deepest levels cost only the few panels that reach them
# (N = 64 band-edge resonances).
_MAX_HALVINGS = 13


@dataclass(frozen=True)
class ThermoState:
    """Reservoir inverse temperatures (positive, may be math.inf) and chemical potentials."""

    beta_l: float
    mu_l: float
    beta_r: float
    mu_r: float

    def __post_init__(self):
        for name in ("beta_l", "mu_l", "beta_r", "mu_r"):
            v = (_real if name.startswith("beta") else _finite)(getattr(self, name))
            object.__setattr__(self, name, v)
            if name.startswith("beta") and not v > 0.0:
                raise DomainError(f"{name} must be positive (math.inf allowed)")

    @property
    def is_equilibrium(self) -> bool:
        return self.beta_l == self.beta_r and self.mu_l == self.mu_r


@dataclass(frozen=True, kw_only=True)
class QuadratureConfig:
    """The error budget abs_tol of every band integral: a positive finite real, stored as a float.

    `_adaptive_panels` halves the first-level panels of `_transmittance_profile`
    locally until abs_tol is met: _FIRST_PANELS + 2N panels per band piece for
    T_N, and one (_SMOOTH_PANELS) for T_infty and the Thouless T = 1, each
    down to the same finest panel, pi / (_FIRST_PANELS 2^_MAX_HALVINGS) in
    phi.  abs_tol follows the `_finite` number rule.
    """

    abs_tol: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "abs_tol", _finite(self.abs_tol))
        if not self.abs_tol > 0.0:
            raise DomainError("abs_tol must be positive and finite")


@dataclass(frozen=True)
class CurrentReport:
    """Steady currents with conservation and entropy-balance residuals.

    conservation_residuals = (|phi_l + phi_r|, |i_l + i_r|), zero by
    construction: Delta_r = -Delta_l, so the right currents are the exact
    negations of the left ones.  entropy_balance_residual = |J + sum_s beta_s
    (phi_s - mu_s i_s)| measures rounding only (zeta is linear in E, so on the
    same nodes the J row is that sum of the other rows); nan if a beta is inf.
    error_estimate is the largest quadrature error estimate among the finite
    currents (in the currents' units: the summed panel differences; inf if
    none is finite), and evaluations the number of integrand energies used.
    """

    phi_l: float
    phi_r: float
    i_l: float
    i_r: float
    entropy_j: float
    conservation_residuals: tuple[float, float]
    entropy_balance_residual: float
    error_estimate: float = math.nan
    evaluations: int = 0


def fermi_dirac(beta: float, mu: float, E):
    """Fermi-Dirac occupation 1 / (1 + e^{beta (E - mu)}), overflow-safe.

    beta = math.inf yields the indicator of E < mu with value 1/2 at E = mu.
    beta and mu pass `ThermoState`'s rule, whose errors name them beta_l and mu_l.
    Accepts finite scalars or arrays.
    """
    state = ThermoState(beta, mu, beta, mu)
    E_arr, scalar = _energies(E)
    out = _occupation_zeta(state.beta_l, state.mu_l, E_arr)[0]
    return float(out[0]) if scalar else out


def _occupation_zeta(beta: float, mu: float, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rho, zeta) of one reservoir: rho = 1/(1 + e^zeta) from the same zeta = beta (E - mu)."""
    if math.isinf(beta):
        above, below = E > mu, E < mu
        return (np.where(below, 1.0, np.where(above, 0.0, 0.5)),
                np.where(above, np.inf, np.where(below, -np.inf, 0.0)))
    zeta = beta * (E - mu)
    ex = np.exp(-np.abs(zeta))
    one_ex = 1.0 + ex
    return np.where(zeta >= 0.0, ex / one_ex, 1.0 / one_ex), zeta


def weights(thermo: ThermoState, E):
    """Thermodynamic weights (zeta_l, zeta_r, delta_l, delta_r, varsigma) at E.

    zeta = beta (E - mu), Delta_{l/r} = rho_{l/r} - rho_{r/l}, and
    varsigma = (zeta_r - zeta_l) Delta_l >= 0, vanishing identically at
    equilibrium.  With an infinite beta off equilibrium varsigma is +inf on
    the bias window.  Accepts finite scalars or arrays.
    """
    E_arr, scalar = _energies(E)
    rho_l, zeta_l = _occupation_zeta(thermo.beta_l, thermo.mu_l, E_arr)
    rho_r, zeta_r = _occupation_zeta(thermo.beta_r, thermo.mu_r, E_arr)
    delta_l = rho_l - rho_r
    delta_r = -delta_l
    with np.errstate(invalid="ignore"):
        diff = zeta_r - zeta_l
        varsigma = np.where(delta_l == 0.0, 0.0, diff * delta_l)
    if scalar:
        return tuple(float(v[0]) for v in (zeta_l, zeta_r, delta_l, delta_r, varsigma))
    return zeta_l, zeta_r, delta_l, delta_r, varsigma


def sign_change_energy(thermo: ThermoState) -> float:
    """The unique energy E_c where Delta changes sign (requires beta_l != beta_r).

    Derived as the root of zeta_r(E) - zeta_l(E) = 0, i.e.
    E_c = (beta_r mu_r - beta_l mu_l) / (beta_r - beta_l); for a single
    infinite beta the limit is that reservoir's chemical potential.
    """
    bl, br = thermo.beta_l, thermo.beta_r
    if bl == br:
        raise DomainError("Delta has no sign change when beta_l = beta_r")
    if math.isinf(bl):
        return thermo.mu_l
    if math.isinf(br):
        return thermo.mu_r
    return (br * thermo.mu_r - bl * thermo.mu_l) / (br - bl)


def _pieces(spectrum: BandSpectrum, breakpoints) -> np.ndarray:
    """(k, 2) array of the nonempty bands split at their distinct interior breakpoints."""
    cuts = [[lo, *sorted({b for b in breakpoints if lo < b < hi}), hi]
            for lo, hi in spectrum.bands if hi > lo]
    return np.array([p for band in cuts for p in zip(band[:-1], band[1:])]).reshape(-1, 2)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per order."""
    xg, wg = np.polynomial.legendre.leggauss(points)
    xg.flags.writeable = wg.flags.writeable = False
    return xg, wg


@functools.lru_cache(maxsize=None)
def _first_edges(panels: int) -> np.ndarray:
    """Read-only edges of `panels` equal panels of [0, pi], built once per count."""
    edges = np.linspace(0.0, np.pi, panels + 1)
    edges.flags.writeable = False
    return edges


def _adaptive_panels(spectrum, integrand_vec, quad: QuadratureConfig, breakpoints, panels: int):
    """Panel-local adaptive composite Gauss-Legendre, _GAUSS_POINTS nodes per panel.

    integrand_vec maps an energy array of length n to an (m, n) array.  Each
    piece [s0, s1] of a band split at the breakpoints is integrated over phi
    in [0, pi] with E = c - h cos(phi), c = (s0 + s1)/2, h = (s1 - s0)/2 and
    Jacobian h sin(phi), so a square-root end sqrt(E - s0) = sqrt(2h) sin(phi/2)
    is analytic and no node touches an edge.  A piece starts with `panels`
    panels in phi, the first level of `_transmittance_profile`.  The first
    integrand_vec call carries the nodes of these coarse panels and of their
    halves, since the first halving is never skipped; every later level halves
    the active panels (each carrying its piece's c and h) in one call, and
    their half-sums become the next level's coarse sums.  A panel is locked
    once every finite component has |fine - coarse| < abs_tol * (its energy
    width) / (total width).  The integral stops when every finite component's
    sum |fine - coarse| over all panels, its error estimate, is below abs_tol.
    Non-finite components (infinite entropy weights) are skipped while coarse
    and fine agree on which are finite, and get an inf error estimate.

    The finest panel is pi / (_FIRST_PANELS 2^_MAX_HALVINGS) whatever the
    start: a start of `panels` < _FIRST_PANELS panels may halve
    ceil(log2(_FIRST_PANELS / panels)) more times, so a one-panel start
    halves up to 16 times.  Returns (values (m,), error_estimates (m,));
    raises QuadratureError with the partial result if panels are still
    active after the last halving, or if a level would outgrow the finest
    grid of a _FIRST_PANELS start, _FIRST_PANELS << _MAX_HALVINGS per piece;
    `panels` is capped at a quarter of it, so no call holds more.
    """
    pieces = _pieces(spectrum, breakpoints)
    if not pieces.size:
        m = np.atleast_2d(integrand_vec(np.empty(0))).shape[0]
        return np.zeros(m), np.zeros(m)
    xg, wg = _gauss_legendre(_GAUSS_POINTS)
    centre, half_width = (pieces[:, 0] + pieces[:, 1]) / 2.0, (pieces[:, 1] - pieces[:, 0]) / 2.0
    budget = quad.abs_tol / (2.0 * half_width.sum())
    finest = len(pieces) * (_FIRST_PANELS << _MAX_HALVINGS)
    n = min(panels, _FIRST_PANELS << (_MAX_HALVINGS - 2))
    halvings = _MAX_HALVINGS + ((_FIRST_PANELS - 1) // n).bit_length()
    # the first call always has panels, so reshape can infer m there (-1);
    # later levels reshape with m, which still works when no panel is active
    m = -1

    # a level's panels are the columns of one (4, k) array with rows lo, hi, c, h
    def panel_sums(level):
        lo, hi, c, h = level[0], level[1], level[2], level[3]
        half = (hi - lo) / 2.0
        phi = (lo + half)[:, None] + half[:, None] * xg
        vals = integrand_vec((c[:, None] - h[:, None] * np.cos(phi)).ravel())
        with np.errstate(invalid="ignore"):
            return (vals.reshape(m, lo.size, xg.size) * ((h * half)[:, None] * np.sin(phi))) @ wg

    def halve(level):
        children = np.repeat(level, 2, axis=1)
        mid = (level[0] + level[1]) / 2.0
        children[1, ::2] = mid
        children[0, 1::2] = mid
        return children

    edges = _first_edges(n)
    level = np.empty((4, len(pieces), n))
    level[0], level[1], level[2], level[3] = edges[:-1], edges[1:], centre[:, None], half_width[:, None]
    level = level.reshape(4, -1)
    children = halve(level)
    # the first halving is never skipped: one call sums the coarse panels and their halves
    sums = panel_sums(np.concatenate([level, children], axis=1))
    k = level.shape[1]
    coarse, halves = sums[:, :k], sums[:, k:]
    m = coarse.shape[0]
    locked = np.zeros((3, m))  # fine and coarse sums, and |fine - coarse|, of the locked panels
    for depth in range(halvings):
        if depth:
            children = halve(level)
            halves = panel_sums(children)
        fine = halves.reshape(m, -1, 2).sum(axis=2)
        with np.errstate(invalid="ignore"):
            diff = np.abs(fine - coarse)
            # each (m, k) part is reduced by itself: numpy's sum order depends on the shape
            parts = (fine, coarse, diff)
            totals = locked + [x.sum(axis=1) for x in parts]
            total, coarse_total, err = totals
            # finite sums have finite terms: then no component or panel is skipped
            all_finite = np.isfinite(totals[:2]).all()
            if all_finite:
                if (err < quad.abs_tol).all():
                    return total, err
            else:
                finite = np.isfinite(total)
                if np.array_equal(finite, np.isfinite(coarse_total)) and np.all(err[finite] < quad.abs_tol):
                    return total, np.where(finite, err, np.inf)
            ok = diff < budget * (level[3] * (np.cos(level[0]) - np.cos(level[1])))
            if not all_finite:
                ok |= ~(np.isfinite(fine) | np.isfinite(coarse))
            lock = ok.all(axis=0)
        if lock.any():
            locked += [x[:, lock].sum(axis=1) for x in parts]
            split = np.repeat(~lock, 2)
            children, halves = children[:, split], halves[:, split]
        level, coarse = children, halves
        if 2 * level.shape[1] > finest:  # the next level would outgrow the finest grid
            break
    raise QuadratureError(
        f"quadrature did not converge to {quad.abs_tol} after {depth + 1} panel halvings",
        value=total,
        error_estimate=np.where(np.isfinite(total), err, np.inf),
    )


def _mu_breakpoints(thermo: ThermoState) -> list[float]:
    pairs = ((thermo.beta_l, thermo.mu_l), (thermo.beta_r, thermo.mu_r))
    return [mu for beta, mu in pairs if math.isinf(beta)]


def _current_report(
    thermo: ThermoState, quad: QuadratureConfig, T_of_E, spectrum, breakpoints, panels
) -> CurrentReport:
    """Assemble all five current integrals for a `_transmittance_profile` (T_of_E None: T = 1).

    Panels split at `breakpoints` and at zero-temperature chemical potentials.
    """
    evaluations = 0

    def integrand(E: np.ndarray) -> np.ndarray:
        nonlocal evaluations
        evaluations += E.size
        T = None if T_of_E is None else T_of_E(E)
        _, _, delta_l, _, varsigma = weights(thermo, E)
        if T is None:
            return np.array([E * delta_l, delta_l, varsigma])
        with np.errstate(invalid="ignore"):
            ent = np.where(T == 0.0, 0.0, T * varsigma)
        return np.array([T * E * delta_l, T * delta_l, ent])

    cuts = [*breakpoints, *_mu_breakpoints(thermo)]
    vals, errs = _adaptive_panels(spectrum, integrand, quad, cuts, panels)
    phi_l, i_l, ent = (v / (2.0 * np.pi) for v in vals.tolist())
    # Delta_r = -Delta_l exactly, so the right currents are exact negations;
    # 0.0 - x keeps +0.0 at equilibrium where -x would give -0.0
    phi_r, i_r = 0.0 - phi_l, 0.0 - i_l
    finite_errs = errs[np.isfinite(errs)]
    error_estimate = finite_errs.max() / (2.0 * np.pi) if finite_errs.size else math.inf

    if ent < -quad.abs_tol:
        raise NumericalError(f"entropy production {ent} below -abs_tol")
    balance = math.nan
    if math.isfinite(thermo.beta_l) and math.isfinite(thermo.beta_r):
        balance = abs(ent + thermo.beta_l * (phi_l - thermo.mu_l * i_l)
                      + thermo.beta_r * (phi_r - thermo.mu_r * i_r))
    return CurrentReport(
        phi_l=phi_l, phi_r=phi_r, i_l=i_l, i_r=i_r, entropy_j=ent,
        conservation_residuals=(abs(phi_l + phi_r), abs(i_l + i_r)),
        entropy_balance_residual=balance,
        error_estimate=float(error_estimate),
        evaluations=evaluations,
    )


def _transmittance_profile(sample, couplings=None, n=None, breakpoints=()):
    """(T, spectrum, breakpoints, first level) of a band integral of T over `sample`'s bands.

    couplings = (lead_l, lead_r, kappa) gives T = T_N (n = N >= 1) or T_infty
    (n None), and couplings None the Thouless T = 1, returned as T None.  The
    leads' support edges join `breakpoints`.  This is the first-level panel
    rule of every band integral: a T_N piece, with about N resonances, starts
    with _FIRST_PANELS + 2N panels; a T_infty or T = 1 piece, analytic in phi
    on every piece, with _SMOOTH_PANELS (one).  `_adaptive_panels` refines
    each down to the same finest panel, pi / (_FIRST_PANELS 2^_MAX_HALVINGS).
    """
    spectrum = band_spectrum(sample)
    if couplings is None:
        return None, spectrum, [*breakpoints], _SMOOTH_PANELS
    lead_l, lead_r, kappa = couplings
    cuts = [*breakpoints, *_support_edges(sample, lead_l), *_support_edges(sample, lead_r)]
    if n is None:
        return lambda E: transmittance_inf(sample, *couplings, E), spectrum, cuts, _SMOOTH_PANELS
    panels = _FIRST_PANELS + 2 * n
    return lambda E: transmittance_n(sample, *couplings, n, E), spectrum, cuts, panels


def lb_currents(
    sample: SampleSpec,
    lead_l: LeadModel,
    lead_r: LeadModel,
    kappa: float,
    n_cells: int,
    thermo: ThermoState,
    quad: QuadratureConfig = QuadratureConfig(),
) -> CurrentReport:
    """Landauer-Buttiker steady currents of the N-fold repeated sample.

    The first level follows `_transmittance_profile`.
    """
    n = _repetition_count(n_cells)
    profile = _transmittance_profile(sample, (lead_l, lead_r, kappa), n)
    return _current_report(thermo, quad, *profile)


def crystalline_currents(
    sample: SampleSpec,
    lead_l: LeadModel,
    lead_r: LeadModel,
    kappa: float,
    thermo: ThermoState,
    quad: QuadratureConfig = QuadratureConfig(),
) -> CurrentReport:
    """Crystalline-limit steady currents (T = T_infty over the band spectrum)."""
    profile = _transmittance_profile(sample, (lead_l, lead_r, kappa))
    return _current_report(thermo, quad, *profile)


def thouless_currents(
    sample: SampleSpec,
    thermo: ThermoState,
    quad: QuadratureConfig = QuadratureConfig(),
) -> CurrentReport:
    """Thouless currents: reflectionless transport, T = 1 on the band spectrum."""
    return _current_report(thermo, quad, *_transmittance_profile(sample))


def zero_temperature_conductance(
    sample: SampleSpec,
    lead_l: LeadModel,
    lead_r: LeadModel,
    kappa: float,
    mu_l: float,
    mu_r: float,
    quad: QuadratureConfig = QuadratureConfig(),
) -> tuple[float, float]:
    """Mean zero-temperature conductance over the window [mu_l, mu_r] and its Thouless bound.

    g is the crystalline charge current at beta = inf divided by the window
    width; g_th = `thouless_conductance` of the window, read from the cached
    band spectrum the report used, dominates it, with equality for matched
    (reflectionless) leads.
    """
    thermo = ThermoState(math.inf, mu_l, math.inf, mu_r)
    if not thermo.mu_r > thermo.mu_l:
        raise DomainError("window must satisfy mu_l < mu_r")
    report = crystalline_currents(sample, lead_l, lead_r, kappa, thermo, quad)
    g = report.i_r / (thermo.mu_r - thermo.mu_l)
    g_th = thouless_conductance(sample, (thermo.mu_l, thermo.mu_r))
    if g > g_th + quad.abs_tol:
        raise NumericalError(f"g = {g} exceeds its Thouless bound {g_th}")
    return g, g_th


@dataclass(frozen=True)
class ConvergenceRow:
    """One row of a crystalline-limit convergence study."""

    n_cells: int
    integral_n: float
    integral_inf: float
    abs_diff: float
    converged: bool


def convergence_study(
    sample: SampleSpec,
    lead_l: LeadModel,
    lead_r: LeadModel,
    kappa: float,
    weight,
    n_list,
    quad: QuadratureConfig = QuadratureConfig(),
    breakpoints=(),
) -> list[ConvergenceRow]:
    """Tabulate ∫ T_N f against ∫ T_infty f for increasing N.

    For a weight smooth on each band the rows fall as N^-4, about 16x per
    doubling; a jump inside a band (an indicator window, zero temperature)
    makes them fall slowly and not monotonically.  Every row runs at
    quad.abs_tol from the first level of `_transmittance_profile`; a row
    whose quadrature fails is flagged with
    converged=False and the study continues.  `weight` maps an energy array
    to weight values; pass its discontinuities in `breakpoints`, to which
    the leads' support edges are added.
    """
    n_list = _repetition_counts(n_list)

    def integral(n_cells) -> float:
        T, spectrum, cuts, panels = _transmittance_profile(
            sample, (lead_l, lead_r, kappa), n_cells, breakpoints
        )
        vals, _ = _adaptive_panels(
            spectrum, lambda E: (T(E) * weight(E))[None, :], quad, cuts, panels
        )
        return float(vals[0])

    integral_inf = integral(None)
    rows: list[ConvergenceRow] = []
    for n in n_list:
        try:
            value, ok = integral(n), True
        except QuadratureError as exc:
            value, ok = float(exc.value[0]), False
            log.warning("convergence row N=%d did not converge", n)
        rows.append(ConvergenceRow(n, value, integral_inf, abs(value - integral_inf), ok))
    return rows

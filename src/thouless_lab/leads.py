"""Reservoir boundary functions F(E) and Weyl m-functions of periodized half-lines.

Every lead is summarized by the boundary value of its resolvent at the
contact site, F(E) = <chi, (h_lead - E - i0)^{-1} chi>, a Herglotz function
with Im F >= 0.  The set {Im F > 0} is the essential support of the lead's
absolutely continuous spectrum.  Three lead families are supported:

* ``CrystallineLead`` -- a half-line restriction of the periodization of a
  sample; F equals the Weyl m-function m_l or m_r of that half-line.
* ``HalfLineLead`` -- a homogeneous Jacobi half-line with hopping t and
  onsite v0, Dirichlet boundary; F solves t^2 F^2 + (E - v0) F + 1 = 0.
* ``TabulatedLead`` -- linear interpolation of user-supplied boundary data.

``_eigendata_values`` is the one source of one-period transfer eigendata:
from a single evaluation of T_L(E) it returns the m-functions together with
the eigenvalues and eigenvectors that ``transport`` builds on.  Inside the
bands the Herglotz root m_r is computed first and the eigenvectors follow
from it, kappa_s psi_+ = -1/m_r and psi_- = conj(psi_+) = -kappa_s m_l.
``transport`` reads the F of a ``CrystallineLead`` on its own sample from that
data, through ``_clamp_im``, the Im-floor clamp of ``lead_F_values``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, OffSpectrumError
from .jacobi import SampleSpec, _one_period_abcd, _real_eigvec2

# Im F above this threshold counts as essential support.
SUPPORT_TOL = 1e-12
# Numerical floor: Im F in [-floor, 0) is clamped to 0.
_IM_FLOOR = 1e-12
# crystal_m_functions refuses evaluation when |tr T_L| is within this of 2.
EDGE_TOL = 1e-9


@dataclass(frozen=True)
class HalfLineLead:
    """Homogeneous Jacobi half-line with hopping t != 0 and onsite v0, Dirichlet boundary."""

    t: float
    v0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "v0", float(self.v0))
        if self.t == 0.0:
            raise DomainError("half-line hopping t must be nonzero")


@dataclass(frozen=True)
class CrystallineLead:
    """Half-line restriction of the periodization of `sample`; side is 'l' or 'r'."""

    sample: SampleSpec
    side: str = "r"

    def __post_init__(self):
        if self.side not in ("l", "r"):
            raise DomainError("crystalline lead side must be 'l' or 'r'")


@dataclass(frozen=True)
class TabulatedLead:
    """Boundary values on a strictly increasing energy grid, linearly interpolated.

    The spectral normalization nu(R) = 1 implies integral of Im F / pi equal
    to 1; a trapezoid estimate deviating by more than 5% triggers a warning
    (truncated data is allowed), never an error.
    """

    energies: np.ndarray
    values: np.ndarray
    note: str = ""

    def __post_init__(self):
        E = np.asarray(self.energies, dtype=float)
        F = np.asarray(self.values, dtype=complex)
        if E.ndim != 1 or F.shape != E.shape or E.size < 2:
            raise DomainError("tabulated lead needs matching 1-d grids with >= 2 points")
        if not np.all(np.diff(E) > 0):
            raise DomainError("tabulated energies must be strictly increasing")
        if np.min(F.imag) < -_IM_FLOOR:
            raise DomainError("tabulated Im F must be >= 0")
        F = F.real + 1j * np.maximum(F.imag, 0.0)
        object.__setattr__(self, "energies", E)
        object.__setattr__(self, "values", F)
        norm = np.trapezoid(F.imag, E) / np.pi
        if abs(norm - 1.0) > 0.05:
            warnings.warn(
                f"tabulated lead: trapezoid estimate of Im F mass is {norm:.4f}, "
                "expected 1 for a normalized spectral measure",
                stacklevel=2,
            )


LeadModel = HalfLineLead | CrystallineLead | TabulatedLead


@dataclass(frozen=True)
class BoundaryValue:
    """Boundary value F(E) of a lead resolvent; Im F >= 0."""

    energy: float
    value: complex


def _halfline_F(lead: HalfLineLead, E: np.ndarray) -> np.ndarray:
    """Roots of t^2 F^2 + (E - v0) F + 1 = 0: Im > 0 inside the band, decaying outside."""
    t2 = lead.t * lead.t
    x = E - lead.v0
    disc = x * x - 4.0 * t2
    out = np.empty(E.shape, dtype=complex)
    inside = disc < 0.0
    out[inside] = (-x[inside] + 1j * np.sqrt(-disc[inside])) / (2.0 * t2)
    xo = x[~inside]
    sq = np.sqrt(disc[~inside])
    r1 = (-xo + sq) / (2.0 * t2)
    r2 = (-xo - sq) / (2.0 * t2)
    # product of roots is 1/t^2: the decaying solution is the root of smaller modulus
    out[~inside] = np.where(np.abs(r1) <= np.abs(r2), r1, r2)
    return out


def _eigendata_values(sample: SampleSpec, E: np.ndarray):
    """Vectorized transfer eigendata and Weyl m-functions, one T_L(E) evaluation.

    Returns a dict of arrays: a, b, c, d (entries of T_L), alpha, phi_p,
    phi_m, kpsi_p, kpsi_m (the second eigenvector components kappa_s psi_±),
    m_l, m_r, theta (nan off band), in_band, edge (within the band-edge
    exclusion zone).  No errors are raised; callers decide how to treat
    flagged entries.

    Inside the bands m_r is the root with Im > 0 of c z^2 + (a - d) z - b,
    m_l = 1/(kappa_s^2 conj(m_r)), and the eigenvectors follow from it:
    kappa_s psi_+ = -1/m_r, kappa_s psi_- = conj(kappa_s psi_+), phi_± = 1.
    Outside the bands (or exactly at an edge) the eigenvectors are real, and
    m_r is read from the decaying one, m_l from the growing one.
    """
    a, b, c, d = _one_period_abcd(sample, E)
    tr = a + d
    disc = tr * tr - 4.0
    in_band = disc < 0.0
    edge = np.abs(np.abs(tr) - 2.0) < EDGE_TOL
    kS2 = sample.kappa_s**2

    alpha = np.empty(E.shape, dtype=complex)
    phi_p = np.ones(E.shape, dtype=complex)
    phi_m = np.ones(E.shape, dtype=complex)
    kpsi_p = np.empty(E.shape, dtype=complex)
    kpsi_m = np.empty(E.shape, dtype=complex)
    m_l = np.empty(E.shape, dtype=complex)
    m_r = np.empty(E.shape, dtype=complex)
    theta = np.full(E.shape, np.nan)

    # in band: cos theta = tr/2, sign(theta) = sign(b); b*c < 0 there, so b, c != 0.
    # theta takes the same sine as m_r, so phase and eigenvectors agree at the edges.
    sign_b = np.where(b[in_band] >= 0.0, 1.0, -1.0)
    sin_th = sign_b * np.sqrt(-disc[in_band]) / 2.0
    th = np.arctan2(sin_th, tr[in_band] / 2.0)
    theta[in_band] = th
    alpha[in_band] = np.exp(1j * th)
    mr_in = ((d[in_band] - a[in_band]) / 2.0 - 1j * sin_th) / c[in_band]
    m_r[in_band] = mr_in
    m_l[in_band] = mr_in / (kS2 * np.abs(mr_in) ** 2)
    kpsi_p[in_band] = -1.0 / mr_in
    kpsi_m[in_band] = np.conj(kpsi_p[in_band])

    off = ~in_band
    if np.any(off):
        ao, bo, co, do, tro = a[off], b[off], c[off], d[off], tr[off]
        sq = np.sqrt(np.maximum(disc[off], 0.0))
        al = (tro + np.sign(tro) * sq) / 2.0  # growing eigenvalue, |alpha| >= 1
        # real eigenvectors (phi, kappa_s psi), any normalization
        ph_p, w_p = _real_eigvec2(ao, bo, co, do, al)
        ph_m, w_m = _real_eigvec2(ao, bo, co, do, 1.0 / al)
        alpha[off] = al
        phi_p[off] = ph_p
        phi_m[off] = ph_m
        kpsi_p[off] = w_p
        kpsi_m[off] = w_m
        # the quadratic root of eigenvector (phi, w) is -phi/w: the decaying
        # one gives m_r, the growing one 1/(kappa_s^2 m_l)
        with np.errstate(divide="ignore", invalid="ignore"):
            m_r[off] = -ph_m / w_m
            m_l[off] = -w_p / (kS2 * ph_p)
    return {
        "a": a,
        "b": b,
        "c": c,
        "d": d,
        "alpha": alpha,
        "phi_p": phi_p,
        "phi_m": phi_m,
        "kpsi_p": kpsi_p,
        "kpsi_m": kpsi_m,
        "m_l": m_l,
        "m_r": m_r,
        "theta": theta,
        "in_band": in_band,
        "edge": edge,
    }


def _crystal_m_values(sample: SampleSpec, E: np.ndarray):
    """Weyl m-functions of the periodized half-lines: (m_l, m_r, eigendata)."""
    ed = _eigendata_values(sample, E)
    return ed["m_l"], ed["m_r"], ed


def crystal_m_functions(sample: SampleSpec, E: float) -> tuple[complex, complex]:
    """Weyl m-functions (m_l, m_r) at a band-interior energy.

    Raises OffSpectrumError off the spectrum or when |tr T_L(E)| is within
    1e-9 of 2 (band-edge exclusion zone, where the values are near-singular
    in derivative and all downstream quantities are only a.e.-defined).
    """
    m_l, m_r, ed = _crystal_m_values(sample, np.asarray([float(E)]))
    tr = float(ed["a"][0] + ed["d"][0])
    if abs(tr) >= 2.0 - EDGE_TOL:
        raise OffSpectrumError(
            f"m-functions requested off spectrum or at a band edge (|tr T_L({E})| = {abs(tr)})"
        )
    return complex(m_l[0]), complex(m_r[0])


def lead_F_values(lead: LeadModel, E) -> np.ndarray:
    """Vectorized boundary values F(E); Im clamped to [0, inf) within the 1e-12 floor."""
    E = np.atleast_1d(np.asarray(E, dtype=float))
    if isinstance(lead, HalfLineLead):
        F = _halfline_F(lead, E)
    elif isinstance(lead, CrystallineLead):
        m_l, m_r, _ = _crystal_m_values(lead.sample, E)
        F = m_l if lead.side == "l" else m_r
    elif isinstance(lead, TabulatedLead):
        lo, hi = lead.energies[0], lead.energies[-1]
        if np.any(E < lo) or np.any(E > hi):
            raise DomainError(
                f"tabulated lead evaluated outside its grid hull [{lo}, {hi}]"
            )
        F = np.interp(E, lead.energies, lead.values.real) + 1j * np.interp(
            E, lead.energies, lead.values.imag
        )
    else:
        raise TypeError(f"unknown lead model {type(lead).__name__}")
    return _clamp_im(F)


def _clamp_im(F: np.ndarray) -> np.ndarray:
    """Boundary values with Im F in [-1e-12, 0) (rounding below the axis) set to Im 0."""
    im = np.where((F.imag < 0.0) & (F.imag >= -_IM_FLOOR), 0.0, F.imag)
    return F.real + 1j * im


def lead_F(lead: LeadModel, E: float) -> BoundaryValue:
    """Boundary value F(E) of a lead at a single energy."""
    F = lead_F_values(lead, float(E))[0]
    return BoundaryValue(float(E), complex(F))


def essential_support(lead: LeadModel, E: float) -> bool:
    """True iff Im F(E) exceeds the 1e-12 support threshold.

    Never raises: a tabulated lead evaluated outside its grid reports False.
    """
    try:
        F = lead_F_values(lead, float(E))[0]
    except DomainError:
        return False
    return bool(F.imag > SUPPORT_TOL)


def load_tabulated_csv(path) -> TabulatedLead:
    """Parse a tabulated lead from a CSV file with header ``E,ReF,ImF``.

    Malformed rows are reported with their line number.
    """
    energies: list[float] = []
    re_f: list[float] = []
    im_f: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != "E,ReF,ImF":
            raise ConfigError(f"{path}:1: expected header 'E,ReF,ImF', got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ConfigError(f"{path}:{lineno}: expected 3 comma-separated fields")
            try:
                e, re_v, im_v = (float(p) for p in parts)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
            energies.append(e)
            re_f.append(re_v)
            im_f.append(im_v)
    if len(energies) < 2:
        raise ConfigError(f"{path}: need at least 2 data rows")
    E = np.asarray(energies)
    if not np.all(np.diff(E) > 0):
        bad = int(np.argmin(np.diff(E))) + 3  # +2 header/1-base, +1 second row of the pair
        raise ConfigError(f"{path}:{bad}: energies must be strictly increasing")
    try:
        return TabulatedLead(E, np.asarray(re_f) + 1j * np.asarray(im_f))
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

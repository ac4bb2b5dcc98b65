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

``_support_edges`` gives the edges of each lead's support {Im F > 0}.

``_transfer_band`` is the one source of one-period transfer data: one
evaluation of T_L(E) gives its entries and the one band-edge exclusion rule
(``in_band`` and ``edge``).  ``_band_m_values`` is the one source of
in-band m-functions: the Herglotz root m_r first, then
m_l = 1/(kappa_s^2 conj(m_r)), and the sine of the phase, over the in-band
entries.  ``transport`` builds T_N, T_infty and the diagnostics on these
two; a ``CrystallineLead`` on the sample itself reads its F from the same
in-band m_l or m_r, through ``_clamp_im``, the Im-floor clamp of
``lead_F_values``.  A crystalline lead on another sample reads
``_crystal_m_values``: the same in-band value, and off band the real root
from the one eigenvector its side needs, at the growing eigenvalue
``_alpha_off`` or its inverse.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, OffSpectrumError
from .jacobi import SampleSpec, _energies, _finite, _numbers, _one_period_abcd, _real_eigvec2
from .jacobi import _refusing_overflow, band_spectrum

# Im F above this threshold counts as essential support.
SUPPORT_TOL = 1e-12
# Numerical floor: Im F in [-floor, 0) is clamped to 0.
_IM_FLOOR = 1e-12
# Band-edge exclusion zone (`_transfer_band`'s `edge` flag): |tr T_L| within this of 2.
EDGE_TOL = 1e-9


@dataclass(frozen=True)
class HalfLineLead:
    """Homogeneous Jacobi half-line with hopping t and onsite v0, Dirichlet boundary.

    t must keep t^2 a normal float and 4 t^2 finite: 1.5e-154 <= |t| < 6.7e153.
    """

    t: float
    v0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "t", _finite(self.t))
        object.__setattr__(self, "v0", _finite(self.v0))
        t2 = self.t * self.t  # so that the in-band scale 1/(2 t^2) and F are finite
        if not (sys.float_info.min <= t2 and 4.0 * t2 < math.inf):
            raise DomainError(
                f"half-line t must be nonzero with t^2 and 4 t^2 in float range, t and v0 finite: "
                f"({self.t}, {self.v0})"
            )


@dataclass(frozen=True)
class CrystallineLead:
    """Half-line restriction of the periodization of `sample`; side is 'l' or 'r'."""

    sample: SampleSpec
    side: str = "r"

    def __post_init__(self):
        if not isinstance(self.sample, SampleSpec):
            raise DomainError(f"crystalline lead needs a SampleSpec, got {self.sample!r}")
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

    def __post_init__(self):
        E = _energies(self.energies)[0]
        F = _numbers(self.values, "tabulated values must be numbers")
        if F.dtype.kind not in "fiuc":
            raise DomainError(f"tabulated values must be numbers, got dtype {F.dtype}")
        F = F.astype(complex, copy=False)
        if E.ndim != 1 or F.shape != E.shape or E.size < 2:
            raise DomainError("tabulated lead needs matching 1-d grids with >= 2 points")
        if not np.isfinite(F).all():
            raise DomainError("tabulated energies and values must be finite")
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
                stacklevel=3,  # past the generated __init__ to its caller
            )


LeadModel = HalfLineLead | CrystallineLead | TabulatedLead


def _one_energy(E) -> np.ndarray:
    """The single energy E as a 1-element float array, by the `_energies` rule."""
    E, scalar = _energies(E)
    if not scalar:
        raise DomainError(f"expected one energy, got an array of shape {E.shape}")
    return E


def _check_kappa(kappa) -> float:
    """The coupling kappa as a float by the `_finite` rule; a zero (decoupling) kappa is refused."""
    kappa = _finite(kappa)
    if kappa == 0.0:
        raise DomainError(f"coupling kappa must be nonzero and finite, got {kappa}")
    return kappa


@np.errstate(over="ignore", invalid="ignore")  # x^2 overflows past |x| = 1.3e154
def _halfline_F(lead: HalfLineLead, E: np.ndarray) -> np.ndarray:
    """Roots of t^2 F^2 + x F + 1 = 0, x = E - v0: Im > 0 inside the band, decaying outside.

    Inside the band (disc = x^2 - 4 t^2 < 0) F = ((0 - x) + i sqrt(|disc|)) scl,
    with the one reciprocal scl = 1/(2 t^2) applied to both parts.  The
    decaying root is -sign(x) / (h + sqrt(h - |t|) sqrt(h + |t|)), h = |x|/2:
    its terms have one sign, so nothing cancels, and nothing overflows.
    `_halfline_F_one` is the same operations on one Python float.
    """
    t2 = lead.t * lead.t
    x = E - lead.v0
    disc = x * x - 4.0 * t2
    scl = 1.0 / (2.0 * t2)
    F = np.empty(x.shape, dtype=complex)
    F.real = (0.0 - x) * scl
    F.imag = np.sqrt(np.abs(disc)) * scl
    inside = disc < 0.0
    if not inside.all():
        outside = ~inside
        xo = x[outside]
        h, t = np.abs(xo) / 2.0, abs(lead.t)
        F[outside] = -np.sign(xo) / (h + np.sqrt(np.maximum(h - t, 0.0)) * np.sqrt(h + t))
    return F


def _halfline_F_one(lead: HalfLineLead, E: float) -> complex:
    """`_halfline_F` at one checked energy, in Python floats: the same operations and bits."""
    t2 = lead.t * lead.t
    x = E - lead.v0
    disc = x * x - 4.0 * t2
    if disc < 0.0:
        scl = 1.0 / (2.0 * t2)
        return complex((0.0 - x) * scl, math.sqrt(abs(disc)) * scl)
    h, t = abs(x) / 2.0, abs(lead.t)
    return complex(-math.copysign(1.0, x) / (h + math.sqrt(max(h - t, 0.0)) * math.sqrt(h + t)))


def _transfer_band(sample: SampleSpec, E: np.ndarray) -> dict:
    """One T_L(E) evaluation and the one band-edge rule, as a dict of arrays.

    a, b, c, d are the entries of T_L, tr its trace and disc = tr^2 - 4;
    in_band (disc < 0) marks the bands, and edge the exclusion zone where
    |tr T_L| is within EDGE_TOL of 2.
    """
    a, b, c, d = _one_period_abcd(sample, E)
    tr = a + d
    disc = tr * tr - 4.0
    return dict(a=a, b=b, c=c, d=d, tr=tr, disc=disc, in_band=disc < 0.0,
                edge=np.abs(np.abs(tr) - 2.0) < EDGE_TOL)


def _band_m_values(sample: SampleSpec, band: dict):
    """(mask, m_l, m_r, sin theta) at the in-band entries of `_transfer_band` data, in order.

    mask is in_band, or None when every entry is in band: the values then
    cover the whole array without a masked copy.  cos theta = tr/2 and
    sign(theta) = sign(b); b*c < 0 in band, so b, c != 0.  m_r is the root
    with Im > 0 of c z^2 + (a - d) z - b, and m_l = 1/(kappa_s^2 conj(m_r)).
    """
    mask = None if band["in_band"].all() else band["in_band"]
    keys = ("a", "b", "c", "d", "disc")
    a, b, c, d, disc = (band[k] if mask is None else band[k][mask] for k in keys)
    sin_th = np.where(b >= 0.0, 1.0, -1.0) * np.sqrt(-disc) / 2.0
    m_r = ((d - a) / 2.0 - 1j * sin_th) / c
    return mask, m_r / (sample.kappa_s**2 * np.abs(m_r) ** 2), m_r, sin_th


def _alpha_off(band: dict, off: np.ndarray) -> np.ndarray:
    """The growing eigenvalue of T_L, |alpha| >= 1, at the `_transfer_band` entries `off`."""
    tr = band["tr"][off]
    return (tr + np.sign(tr) * np.sqrt(np.maximum(band["disc"][off], 0.0))) / 2.0


def _crystal_m_values(sample: SampleSpec, side: str, E: np.ndarray) -> np.ndarray:
    """The Weyl m-function m_l (side 'l') or m_r (side 'r') of the periodized half-lines.

    Inside the bands the value is that of `_band_m_values`.  Outside them
    (or exactly at an edge) the eigenvectors (phi, kappa_s psi) of T_L are
    real, and the root is read from the one eigenvector the side needs:
    m_r = -phi/(kappa_s psi) from the decaying one, 1/(kappa_s^2 m_l) from
    the growing one.
    """
    band = _transfer_band(sample, E)
    mask, m_l, m_r, _ = _band_m_values(sample, band)
    m_in = m_l if side == "l" else m_r
    if mask is None:
        return m_in
    m = np.empty(E.shape, dtype=complex)
    m[mask] = m_in
    off = ~mask
    al = _alpha_off(band, off)
    ao, bo, co, do = (band[k][off] for k in ("a", "b", "c", "d"))
    phi, w = _real_eigvec2(ao, bo, co, do, al if side == "l" else 1.0 / al)
    with np.errstate(divide="ignore", invalid="ignore"):
        m[off] = -w / (sample.kappa_s**2 * phi) if side == "l" else -phi / w
    return m


def crystal_m_functions(sample: SampleSpec, E: float) -> tuple[complex, complex]:
    """Weyl m-functions (m_l, m_r) at a band-interior energy.

    Raises OffSpectrumError where `_transfer_band` flags E as off band or in
    the band-edge exclusion zone, |tr T_L(E)| within EDGE_TOL of 2 (where the
    values are near-singular in derivative and all downstream quantities are
    only a.e.-defined), and DomainError at a non-finite E or where the
    transfer data overflow float64.
    """
    with _refusing_overflow(E):
        band = _transfer_band(sample, _one_energy(E))
        if not band["in_band"][0] or band["edge"][0]:
            raise OffSpectrumError(
                f"m-functions requested off spectrum or at a band edge "
                f"(|tr T_L({E})| = {abs(float(band['tr'][0]))})"
            )
        _, m_l, m_r, _ = _band_m_values(sample, band)
    return complex(m_l[0]), complex(m_r[0])


def lead_F_values(lead: LeadModel, E) -> np.ndarray:
    """Vectorized boundary values F(E) at finite energies; Im clamped to [0, inf) within 1e-12."""
    return _lead_F_values(lead, _energies(E)[0])


def _lead_F_values(lead: LeadModel, E: np.ndarray) -> np.ndarray:
    """`lead_F_values` on an energy array its caller has already checked."""
    if isinstance(lead, HalfLineLead):
        return _halfline_F(lead, E)  # Im F >= +0 and Re F != -0: the clamp would keep every bit
    if isinstance(lead, CrystallineLead):
        F = _crystal_m_values(lead.sample, lead.side, E)
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


def _support_edges(sample: SampleSpec, lead: LeadModel) -> list[float]:
    """Edges of {Im F > 0}, where T has a square-root kink inside `sample`'s bands.

    A half-line gives v0 ± 2|t|, a crystalline lead its own sample's band edges
    unless that is `sample`, whose bands end there anyway; a tabulated lead none.
    """
    if isinstance(lead, HalfLineLead):
        return [lead.v0 - 2.0 * abs(lead.t), lead.v0 + 2.0 * abs(lead.t)]
    if isinstance(lead, CrystallineLead) and lead.sample != sample:
        return [E for band in band_spectrum(lead.sample).bands for E in band]
    return []


def _clamp_im(F: np.ndarray) -> np.ndarray:
    """Boundary values with Im F in [-1e-12, 0) (rounding below the axis) set to Im 0.

    Serves the crystalline and tabulated F; a half-line's F needs no clamp.
    """
    im = F.imag
    # one NaN-skipping minimum (inf when empty) decides whether any entry needs the mask
    if np.fmin.reduce(im, axis=None, initial=np.inf) < 0.0:
        im = np.where((im < 0.0) & (im >= -_IM_FLOOR), 0.0, im)
    # rebuilt even when nothing is clamped: the sum fixes the signs of zeros
    return F.real + 1j * im


def _lead_F_one(lead: LeadModel, E: float) -> complex:
    """`_lead_F_values` at one checked energy: a half-line reads the Python-float root.

    Crystalline and tabulated leads evaluate their array path on a 1-element array.
    """
    if isinstance(lead, HalfLineLead):
        return _halfline_F_one(lead, E)
    return complex(_lead_F_values(lead, np.array([E]))[0])


def lead_F(lead: LeadModel, E: float) -> complex:
    """Boundary value F(E) of a lead at a single finite energy; Im F >= 0.

    A crystalline lead raises DomainError where its transfer data overflow.
    """
    E = float(_one_energy(E)[0])
    with _refusing_overflow(E):
        return _lead_F_one(lead, E)


def _parse_rows(path, lines) -> np.ndarray:
    """(rows, 3) table of the data lines, numbered from 2, one float() per field.

    Blank lines are skipped; a malformed row raises a ConfigError naming its line.
    """
    rows: list[tuple[float, float, float]] = []
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ConfigError(f"{path}:{lineno}: expected 3 comma-separated fields")
        try:
            rows.append(tuple(float(p) for p in parts))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return np.array(rows, dtype=float).reshape(-1, 3)


def load_tabulated_csv(path) -> TabulatedLead:
    """Parse a tabulated lead from a CSV file with header ``E,ReF,ImF``.

    Malformed rows are reported with their line number.  The rows are parsed
    in one np.loadtxt call; a file it refuses, or warns about, goes through
    the per-line float() parse, which accepts what float() accepts (such as
    ``1_0``) and names the first malformed line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != "E,ReF,ImF":
            raise ConfigError(f"{path}:1: expected header 'E,ReF,ImF', got {header!r}")
        lines = fh.readlines()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines, dtype=float, delimiter=",", comments=None, ndmin=2)
    except (ValueError, Warning):
        table = None
    if table is None or table.shape[1] != 3:
        table = _parse_rows(path, lines)
    if len(table) < 2:
        raise ConfigError(f"{path}: need at least 2 data rows")
    E, re_f, im_f = np.ascontiguousarray(table.T)
    if not np.all(np.diff(E) > 0):
        rows = [n for n, line in enumerate(lines, start=2) if line.strip()]  # file lines
        bad = rows[int(np.argmin(np.diff(E))) + 1]  # the second row of the pair
        raise ConfigError(f"{path}:{bad}: energies must be strictly increasing")
    try:
        return TabulatedLead(E, re_f + 1j * im_f)
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

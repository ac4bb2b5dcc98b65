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

``_eigendata_values`` is the one source of one-period transfer data: from a
single evaluation of T_L(E) it returns the entries of T_L, the growing
off-band eigenvalue and the one band-edge exclusion rule of
``_transfer_band`` (``in_band`` and ``edge``), and, on their first read,
the in-band phase, m-functions and off-band eigenvectors that ``transport``
builds on.  Inside the bands the Herglotz root m_r is computed first and
m_l follows from it, m_l = 1/(kappa_s^2 conj(m_r)) (``_band_m_values``);
outside them both are read from the real eigenvectors.  T_infty, which
needs only the band interior, reads the same in-band values from
``_interior_m_values`` without the rest.  ``transport`` reads the F of a
``CrystallineLead`` on its own sample from that data, through
``_clamp_im``, the Im-floor clamp of ``lead_F_values``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, OffSpectrumError
from .jacobi import SampleSpec, _energies, _finite, _numbers, _one_period_abcd, _real_eigvec2
from .jacobi import band_spectrum

# Im F above this threshold counts as essential support.
SUPPORT_TOL = 1e-12
# Numerical floor: Im F in [-floor, 0) is clamped to 0.
_IM_FLOOR = 1e-12
# Band-edge exclusion zone (the eigendata's `edge` flag): |tr T_L| within this of 2.
EDGE_TOL = 1e-9


@dataclass(frozen=True)
class HalfLineLead:
    """Homogeneous Jacobi half-line with hopping t != 0 and onsite v0, Dirichlet boundary."""

    t: float
    v0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "t", _finite(self.t))
        object.__setattr__(self, "v0", _finite(self.v0))
        if self.t == 0.0:
            raise DomainError(f"half-line t must be nonzero, t and v0 finite: ({self.t}, {self.v0})")


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

    The decaying root is -sign(x) / (h + sqrt(h - |t|) sqrt(h + |t|)), h = |x|/2:
    its terms have one sign, so nothing cancels, and nothing overflows.
    """
    t2 = lead.t * lead.t
    x = E - lead.v0
    disc = x * x - 4.0 * t2
    F = (-x + 1j * np.sqrt(np.abs(disc))) / (2.0 * t2)
    inside = disc < 0.0
    if not inside.all():
        outside = ~inside
        xo = x[outside]
        h, t = np.abs(xo) / 2.0, abs(lead.t)
        F[outside] = -np.sign(xo) / (h + np.sqrt(np.maximum(h - t, 0.0)) * np.sqrt(h + t))
    return F


class _StagedData(dict):
    """A dict whose deferred keys are filled by one call of `stage` on the first read of any.

    Item access (``d[key]``) runs the stage; ``in``, ``get`` and iteration see
    only the keys filled so far.
    """

    def __init__(self, eager: dict, stage):
        super().__init__(eager)
        self._stage = stage

    def __missing__(self, key):
        stage, self._stage = self._stage, None
        if stage is None:
            raise KeyError(key)
        self.update(stage())
        return self[key]


def _transfer_band(sample: SampleSpec, E: np.ndarray):
    """(a, b, c, d, tr, disc, in_band, edge) from one T_L(E) evaluation: the one band-edge rule.

    disc = tr^2 - 4 < 0 marks the bands, and `edge` the exclusion zone where
    |tr T_L| is within EDGE_TOL of 2.
    """
    a, b, c, d = _one_period_abcd(sample, E)
    tr = a + d
    disc = tr * tr - 4.0
    return a, b, c, d, tr, disc, disc < 0.0, np.abs(np.abs(tr) - 2.0) < EDGE_TOL


def _band_m_values(a, b, c, d, disc, kS2: float):
    """(m_l, m_r, sin theta) from in-band entries of T_L and their disc = tr^2 - 4 < 0.

    cos theta = tr/2 and sign(theta) = sign(b); b*c < 0 in band, so b, c != 0.
    m_r is the root with Im > 0 of c z^2 + (a - d) z - b, and m_l = 1/(kappa_s^2 conj(m_r)).
    """
    sin_th = np.where(b >= 0.0, 1.0, -1.0) * np.sqrt(-disc) / 2.0
    m_r = ((d - a) / 2.0 - 1j * sin_th) / c
    return m_r / (kS2 * np.abs(m_r) ** 2), m_r, sin_th


def _interior_m_values(sample: SampleSpec, E: np.ndarray):
    """(interior, m_l, m_r): the band-interior m-functions of one T_L(E) evaluation.

    They are bit for bit those of `_eigendata_values`.  interior marks the
    entries in band and outside the edge zone.  It is None when that is
    every entry, and m_l, m_r then cover the whole array without a masked
    copy; otherwise they cover the interior entries in order.  No in-band
    phase and no off-band eigenvector is computed.
    """
    a, b, c, d, _, disc, in_band, edge = _transfer_band(sample, E)
    interior = in_band & ~edge
    if interior.all():
        interior = None
    else:
        a, b, c, d, disc = (x[interior] for x in (a, b, c, d, disc))
    m_l, m_r, _ = _band_m_values(a, b, c, d, disc, sample.kappa_s**2)
    return interior, m_l, m_r


def _eigendata_values(sample: SampleSpec, E: np.ndarray):
    """Vectorized transfer eigendata and Weyl m-functions, one T_L(E) evaluation.

    Returns a dict of arrays: a, b, c, d (entries of T_L), in_band, edge
    (within the band-edge exclusion zone of `_transfer_band`), alpha_off (the
    growing real eigenvalue at the off-band entries, in order), and the
    deferred m_l, m_r, theta (nan off band) and vec_off, the off-band
    eigenvectors (phi_+, kappa_s psi_+, phi_-, kappa_s psi_-).  The deferred
    four are computed together on the first read of any, so T_N, which reads
    only the eager keys, never pays for them.
    No errors are raised; callers decide how to treat flagged entries.

    Inside the bands m_l and m_r follow `_band_m_values`.  Outside the bands
    (or exactly at an edge) the eigenvectors (phi, kappa_s psi) are real, and
    m_r = -phi/(kappa_s psi) is read from the decaying one, m_l from the
    growing one.
    """
    a, b, c, d, tr, disc, in_band, edge = _transfer_band(sample, E)
    off = ~in_band
    tro = tr[off]
    # the growing eigenvalue, |alpha| >= 1
    al = (tro + np.sign(tro) * np.sqrt(np.maximum(disc[off], 0.0))) / 2.0

    def m_stage():
        kS2 = sample.kappa_s**2
        m_l = np.empty(E.shape, dtype=complex)
        m_r = np.empty(E.shape, dtype=complex)
        theta = np.full(E.shape, np.nan)

        # theta takes the same sine as m_r, so phase and m-functions agree at the edges
        ml_in, mr_in, sin_th = _band_m_values(
            a[in_band], b[in_band], c[in_band], d[in_band], disc[in_band], kS2
        )
        theta[in_band] = np.arctan2(sin_th, tr[in_band] / 2.0)
        m_r[in_band] = mr_in
        m_l[in_band] = ml_in

        vec = (np.empty(0),) * 4
        if al.size:
            ao, bo, co, do = a[off], b[off], c[off], d[off]
            vec = (*_real_eigvec2(ao, bo, co, do, al), *_real_eigvec2(ao, bo, co, do, 1.0 / al))
            ph_p, w_p, ph_m, w_m = vec
            # the quadratic root of eigenvector (phi, w) is -phi/w: the decaying
            # one gives m_r, the growing one 1/(kappa_s^2 m_l)
            with np.errstate(divide="ignore", invalid="ignore"):
                m_r[off] = -ph_m / w_m
                m_l[off] = -w_p / (kS2 * ph_p)
        return {"m_l": m_l, "m_r": m_r, "theta": theta, "vec_off": vec}

    eager = {"a": a, "b": b, "c": c, "d": d, "in_band": in_band, "edge": edge, "alpha_off": al}
    return _StagedData(eager, m_stage)


def _crystal_m_values(sample: SampleSpec, E: np.ndarray):
    """Weyl m-functions of the periodized half-lines: (m_l, m_r, eigendata)."""
    ed = _eigendata_values(sample, E)
    return ed["m_l"], ed["m_r"], ed


def crystal_m_functions(sample: SampleSpec, E: float) -> tuple[complex, complex]:
    """Weyl m-functions (m_l, m_r) at a band-interior energy.

    Raises OffSpectrumError where the eigendata flags E as off band or in
    the band-edge exclusion zone, |tr T_L(E)| within EDGE_TOL of 2 (where the
    values are near-singular in derivative and all downstream quantities are
    only a.e.-defined), and DomainError at a non-finite E.
    """
    m_l, m_r, ed = _crystal_m_values(sample, _one_energy(E))
    if not ed["in_band"][0] or ed["edge"][0]:
        tr = float(ed["a"][0] + ed["d"][0])
        raise OffSpectrumError(
            f"m-functions requested off spectrum or at a band edge (|tr T_L({E})| = {abs(tr)})"
        )
    return complex(m_l[0]), complex(m_r[0])


def lead_F_values(lead: LeadModel, E) -> np.ndarray:
    """Vectorized boundary values F(E) at finite energies; Im clamped to [0, inf) within 1e-12."""
    return _lead_F_values(lead, _energies(E)[0])


def _lead_F_values(lead: LeadModel, E: np.ndarray) -> np.ndarray:
    """`lead_F_values` on an energy array its caller has already checked."""
    if isinstance(lead, HalfLineLead):
        return _halfline_F(lead, E)  # Im F >= +0 and Re F != -0: the clamp would keep every bit
    if isinstance(lead, CrystallineLead):
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


def lead_F(lead: LeadModel, E: float) -> complex:
    """Boundary value F(E) of a lead at a single finite energy; Im F >= 0."""
    return complex(_lead_F_values(lead, _one_energy(E))[0])


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

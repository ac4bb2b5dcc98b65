"""Finite and periodized Jacobi matrices.

A sample is an L-site Jacobi matrix

    (h u)(x) = J_x u(x+1) + J_{x-1} u(x-1) + lambda_x u(x)

with Dirichlet boundary conditions.  Its periodization closes each period
with the internal coupling kappa_S (playing the role of J_L) and repeats
(J, lambda) over the whole lattice.  This module provides the one-period
transfer matrix, the discriminant, Bloch band structure of the
periodization, and the Thouless conductance of an energy window.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError

# Touching band endpoints closer than this are merged into one interval.
_BAND_MERGE_TOL = 1e-12
# band_spectrum's fast cross-check: |tr T_L| <= 2 + this on each band's interior grid.
_TRACE_TOL = 1e-9
# An energy past the fast check still passes while |tr T_L| - 2 <= this many dE |tr'|,
# dE = eps L ||h|| being the eigensolver's backward error (see band_spectrum).
_SLOPE_MULTIPLE = 4.0
# Band spectra kept by band_spectrum; each holds L band edge pairs and its key
_SPECTRUM_CACHE_SIZE = 64
# The error of a non-finite energy, one or in an array.
_NOT_FINITE = "energies must be finite"


@dataclass(frozen=True)
class SampleSpec:
    """An L-site sample plus the internal coupling of its periodization.

    Parameters
    ----------
    hop : sequence of L-1 nonzero floats
        Hoppings J_1..J_{L-1} (energy units).
    onsite : sequence of L floats
        Onsite energies lambda_1..lambda_L.
    kappa_s : nonzero float
        Internal coupling closing each period (J_L of the periodization).

    The periodized parameters J_{x+nL} = J_x, lambda_{x+nL} = lambda_x are
    always derived on demand, never stored.
    """

    hop: tuple[float, ...]
    onsite: tuple[float, ...]
    kappa_s: float

    def __post_init__(self):
        hop = tuple(map(_finite, self.hop))
        onsite = tuple(map(_finite, self.onsite))
        object.__setattr__(self, "hop", hop)
        object.__setattr__(self, "onsite", onsite)
        object.__setattr__(self, "kappa_s", _finite(self.kappa_s))
        if len(onsite) < 1:
            raise DomainError("sample needs at least one site")
        if len(hop) != len(onsite) - 1:
            raise DomainError(
                f"expected {len(onsite) - 1} hoppings for {len(onsite)} sites, got {len(hop)}"
            )
        if any(j == 0.0 for j in hop):
            raise DomainError("all hoppings J_x must be nonzero")
        if self.kappa_s == 0.0:
            raise DomainError("kappa_s must be nonzero")

    @property
    def length(self) -> int:
        return len(self.onsite)

    def hopping(self, x: int) -> float:
        """Periodized hopping J_x for any site index x >= 1 (J_L = kappa_s)."""
        i = (x - 1) % self.length
        return self.kappa_s if i == self.length - 1 else self.hop[i]

    def onsite_at(self, x: int) -> float:
        """Periodized onsite lambda_x for any site index x >= 1."""
        return self.onsite[(x - 1) % self.length]


def _sample_key(sample: SampleSpec) -> tuple:
    """Cache key of a per-sample result: `sample` plus the signs of its zero onsite values.

    SampleSpec equality takes -0.0 for 0.0, which arrays built from it keep apart.
    """
    return sample, tuple(math.copysign(1.0, v) for v in sample.onsite if v == 0.0)


def _integer(value) -> int:
    """operator.index(value): numpy integers pass; 2.0, "3" and a bool raise DomainError."""
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise DomainError(f"expected an integer, got {value!r}")


def _real(value) -> float:
    """float(value) of a real number, floats first; "1.2", None and a bool raise DomainError."""
    if isinstance(value, float) or isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise DomainError(f"expected a number, got {value!r}")


def _finite(value, error: str = "expected a finite number, got {!r}") -> float:
    """`_real(value)`, refusing nan and ±inf with DomainError(error): the library's number rule."""
    x = _real(value)
    if not math.isfinite(x):
        raise DomainError(error.format(x))
    return x


def _count(name: str, value, least: int) -> int:
    """`value` as an int >= least (0 or 1) by the `_integer` rule; DomainError naming it."""
    try:
        n = _integer(value)
    except DomainError:
        n = least - 1
    if n < least:
        kind = "positive" if least else "non-negative"
        raise DomainError(f"{name} must be a {kind} integer, got {value!r}")
    return n


def _repetition_count(n_cells) -> int:
    """N as an int >= 1 by the `_count` rule."""
    return _count("n_cells", n_cells, 1)


def _repetition_counts(n_list) -> list[int]:
    """A nonempty, strictly increasing list of repetition counts by the `_repetition_count` rule."""
    counts = [_repetition_count(n) for n in n_list]
    if not counts or any(b <= a for a, b in zip(counts, counts[1:])):
        raise DomainError(f"n_list must be nonempty and strictly increasing, got {counts}")
    return counts


def periodized_parameters(sample: SampleSpec, n_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal (length N*L) and off-diagonal (length N*L-1) of the N-cell sample h_S^(N)."""
    n_cells = _repetition_count(n_cells)
    L = sample.length
    diag = np.tile(np.asarray(sample.onsite, dtype=float), n_cells)
    period = np.asarray(sample.hop + (sample.kappa_s,), dtype=float)
    off = np.tile(period, n_cells)[: n_cells * L - 1]
    return diag, off


@dataclass(frozen=True)
class TransferMatrix2:
    """Unimodular 2x2 transfer matrix [[a, b], [c, d]] at a fixed energy."""

    a: float
    b: float
    c: float
    d: float
    energy: float

    @property
    def trace(self) -> float:
        return self.a + self.d

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def as_array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=float)


@dataclass(frozen=True)
class GreenMatrix2:
    """2x2 Green matrix between the first and last sites of an N-cell sample."""

    g_ll: complex
    g_lr: complex
    g_rl: complex
    g_rr: complex
    energy: float
    n_cells: int

    def as_array(self) -> np.ndarray:
        return np.array([[self.g_ll, self.g_lr], [self.g_rl, self.g_rr]])


def transfer_step(sample: SampleSpec, x: int, E: float) -> TransferMatrix2:
    """One-site transfer matrix A_x(E) = (1/J_x) [[E - lambda_x, -1], [J_x^2, 0]].

    The site index is periodized, so x = L uses J_L = kappa_s.  x is read by
    the `_integer` rule and E by the `_real` rule.
    """
    x = _integer(x)
    if x < 1:
        raise DomainError("site index must be >= 1")
    E = _finite(E, _NOT_FINITE)
    J = sample.hopping(x)
    lam = sample.onsite_at(x)
    return TransferMatrix2((E - lam) / J, -1.0 / J, J, 0.0, E)


def _numbers(values, rule: str) -> np.ndarray:
    """np.asarray(values); a bool in a list or tuple (read as 0 or 1) raises DomainError(rule)."""
    arr = np.asarray(values)
    if isinstance(values, (list, tuple)) and arr.dtype.kind in "fiuc":
        for v in np.array(values, dtype=object).flat:
            if isinstance(v, (bool, np.bool_)):
                raise DomainError(f"{rule}, got {v!r} in a {type(values).__name__}")
    return arr


def _energies(E) -> tuple[np.ndarray, bool]:
    """(E as a float array, whether E was a scalar; a scalar becomes shape (1,)).

    Refuses non-real dtypes (bool, string, object, complex), a bool inside a
    list or tuple, and non-finite energies: the energy rule of every entry
    point.  A Python or numpy float skips the asarray and dtype round trip.
    """
    if isinstance(E, float):
        return np.array([_finite(E, _NOT_FINITE)]), True
    E = _numbers(E, "energies must be real numbers")
    if E.dtype.kind not in "fiu":
        raise DomainError(f"energies must be real numbers, got dtype {E.dtype}")
    E = E.astype(float, copy=False)
    scalar = E.ndim == 0
    if scalar:
        E = E.reshape(1)
    if not np.isfinite(E).all():
        raise DomainError(_NOT_FINITE)
    return E, scalar


def _one_period_abcd(sample: SampleSpec, E):
    """Entries (a, b, c, d) of T_L(E) = A_L ... A_1, vectorized over E.

    A_1 is applied to the identity in closed form, with the bits of the
    general step: (x * 1 - 0)/J = x/J and J * 1 = J exactly.
    """
    E = np.asarray(E, dtype=float)
    hops = (*sample.hop, sample.kappa_s)  # J_1 ... J_L, with J_L = kappa_s
    x, J = E - sample.onsite[0], hops[0]
    a, b = x / J, (x * 0.0 - 1.0) / J
    c, d = np.full_like(E, J), np.full_like(E, J * 0.0)
    for J, lam in zip(hops[1:], sample.onsite[1:]):
        # left-multiply by A_x
        x = E - lam
        a, b, c, d = (x * a - c) / J, (x * b - d) / J, J * a, J * b
    return a, b, c, d


def _trace_slope(sample: SampleSpec, E):
    """(tr T_L(E), d tr T_L/dE), vectorized over E, by forward-mode recursion.

    The values follow `_one_period_abcd` step by step.  Each step A_x has
    dA_x/dE = [[1/J_x, 0], [0, 0]], so the first row of the new derivative
    also picks up the old first row (a, b) divided by J_x.
    """
    E = np.asarray(E, dtype=float)
    a, d = np.ones_like(E), np.ones_like(E)
    b, c, da, db, dc, dd = (np.zeros_like(E) for _ in range(6))
    for x in range(1, sample.length + 1):
        J = sample.hopping(x)
        lam = sample.onsite_at(x)
        na = ((E - lam) * a - c) / J
        nb = ((E - lam) * b - d) / J
        nda = ((E - lam) * da + a - dc) / J
        ndb = ((E - lam) * db + b - dd) / J
        c, d, dc, dd = J * a, J * b, J * da, J * db
        a, b, da, db = na, nb, nda, ndb
    return a + d, da + dd


def one_period_transfer(sample: SampleSpec, E: float) -> TransferMatrix2:
    """One-period transfer matrix T_L(E) = A_L(E) ... A_1(E), always unimodular."""
    E = _finite(E, _NOT_FINITE)
    a, b, c, d = _one_period_abcd(sample, E)
    return TransferMatrix2(float(a), float(b), float(c), float(d), E)


def _real_eigvec2(a, b, c, d, lam):
    """Eigenvector (x, y) of [[a,b],[c,d]] for real eigenvalue lam, elementwise.

    The two row candidates (b, lam-a) and (lam-d, c) are both exact; the one
    with the larger norm is kept (the other degenerates when the matrix is
    triangular or diagonal) and scaled to unit max-component.
    """
    x1, y1 = b, lam - a
    x2, y2 = lam - d, c
    n1 = np.hypot(x1, y1)
    n2 = np.hypot(x2, y2)
    use1 = n1 >= n2
    x = np.where(use1, x1, x2)
    y = np.where(use1, y1, y2)
    scale = np.maximum(np.abs(x), np.abs(y))
    scale = np.where(scale > 0.0, scale, 1.0)
    return x / scale, y / scale


def discriminant(sample: SampleSpec, E):
    """tr T_L(E); |discriminant| <= 2 exactly on the spectrum of the periodization.

    Accepts a scalar or an array of finite energies.
    """
    E, scalar = _energies(E)
    a, _, _, d = _one_period_abcd(sample, E)
    tr = a + d
    return float(tr[0]) if scalar else tr


def bloch_hamiltonian(sample: SampleSpec, k: float) -> np.ndarray:
    """L x L Bloch Hamiltonian h(k): tridiagonal (J, lambda) plus corner couplings kappa_s e^{∓ikL}."""
    L = sample.length
    h = np.zeros((L, L), dtype=complex)
    h[np.arange(L), np.arange(L)] = sample.onsite
    for i, J in enumerate(sample.hop):
        h[i, i + 1] += J
        h[i + 1, i] += J
    phase = np.exp(-1j * k * L) * sample.kappa_s
    h[0, L - 1] += phase
    h[L - 1, 0] += np.conj(phase)
    return h


def bloch_eigenvalues(sample: SampleSpec, k: float) -> np.ndarray:
    """Sorted eigenvalues eps_1(k) <= ... <= eps_L(k) of the Bloch Hamiltonian.

    k must lie in the first Brillouin zone [-pi/L, pi/L].
    """
    L = sample.length
    k = _finite(k)
    if abs(k) > np.pi / L + 1e-12:
        raise DomainError(f"k={k} outside the Brillouin zone [-pi/{L}, pi/{L}]")
    return np.linalg.eigvalsh(bloch_hamiltonian(sample, k))


@dataclass(frozen=True)
class BandSpectrum:
    """Ordered disjoint closed intervals forming the spectrum of the periodization."""

    bands: tuple[tuple[float, float], ...]

    def measure(self) -> float:
        """Total Lebesgue measure of the spectrum."""
        return sum(hi - lo for lo, hi in self.bands)

    def intersection_measure(self, lo: float, hi: float) -> float:
        """Lebesgue measure of spectrum ∩ [lo, hi]."""
        if hi < lo:
            raise DomainError("interval must satisfy lo <= hi")
        return sum(max(0.0, min(hi, b_hi) - max(lo, b_lo)) for b_lo, b_hi in self.bands)

    @property
    def hull(self) -> tuple[float, float]:
        return self.bands[0][0], self.bands[-1][1]

    def gaps(self) -> tuple[tuple[float, float], ...]:
        """Open gaps strictly between consecutive bands."""
        return tuple(
            (self.bands[i][1], self.bands[i + 1][0])
            for i in range(len(self.bands) - 1)
            if self.bands[i + 1][0] > self.bands[i][1]
        )


def band_spectrum(sample: SampleSpec) -> BandSpectrum:
    """Band spectrum of the periodization from Bloch eigenvalues at k = 0 and k = pi/L.

    eps_j(k) is monotone on [0, pi/L], so the j-th band is the closed
    interval between eps_j(0) and eps_j(pi/L) and no further k-points are
    needed; bands touching within 1e-12 are merged.

    The eigensolve is cross-checked against the transfer matrix on a
    17-point interior grid of every band of positive width, evaluated for
    all bands in one discriminant call.  Where |tr T_L| <= 2 + 1e-9 an
    energy passes at once.  The trace is ill-conditioned for long samples,
    so an energy past that still passes while |tr T_L| - 2 <= 4 dE |tr'|,
    with tr' = d tr T_L/dE from `_trace_slope` and dE = eps L ||h||,
    ||h|| = max|lambda_x| + 2 max(|J_x|, |kappa_s|): each eigenvalue edge is
    exact for a Hamiltonian within that backward error, which moves the
    trace by about dE |tr'|.  Bands no wider than dE are below that error
    and, like bands of zero width, are not checked.  A violation raises
    NumericalError reporting the worst |tr T_L| over every band's grid.

    Results are cached per sample (the key tells -0.0 from 0.0 onsite
    values), for the 64 samples used last; a NumericalError is not cached.
    """
    return _band_spectrum_cached(_sample_key(sample))


@functools.lru_cache(maxsize=_SPECTRUM_CACHE_SIZE)
def _band_spectrum_cached(key) -> BandSpectrum:
    sample, _ = key
    L = sample.length
    eps0 = bloch_eigenvalues(sample, 0.0)
    eps_pi = bloch_eigenvalues(sample, np.pi / L)
    raw = sorted((min(a, b), max(a, b)) for a, b in zip(eps0, eps_pi))
    merged: list[list[float]] = []
    for lo, hi in raw:
        if merged and lo <= merged[-1][1] + _BAND_MERGE_TOL:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    spectrum = BandSpectrum(tuple((lo, hi) for lo, hi in merged))
    wide = [band for band in spectrum.bands if band[1] > band[0]]
    if wide:
        lo, hi = np.array(wide).T
        w = hi - lo
        # column j is the grid of band j, equal bitwise to its own linspace
        grid = np.linspace(lo + 0.01 * w, hi - 0.01 * w, 17)
        abs_tr = np.abs(discriminant(sample, grid))
        past = abs_tr > 2.0 + _TRACE_TOL
        if past.any():
            couplings = (*sample.hop, sample.kappa_s)
            norm_h = max(map(abs, sample.onsite)) + 2.0 * max(map(abs, couplings))
            dE = np.finfo(float).eps * L * norm_h
            _, slope = _trace_slope(sample, grid[past])
            resolved = np.broadcast_to(w > dE, grid.shape)[past]
            if np.any(resolved & (abs_tr[past] - 2.0 > _SLOPE_MULTIPLE * dE * np.abs(slope))):
                raise NumericalError(
                    f"band interior violates |tr T_L| <= 2 (worst {float(abs_tr.max())!r}); "
                    "Bloch eigensolver and transfer matrix disagree"
                )
    return spectrum


def thouless_conductance(sample: SampleSpec, window: tuple[float, float]) -> float:
    """Thouless conductance g_Th(I) = |sp(h_crystal) ∩ I| / (2 pi |I|), a Python float.

    The band measure is computed exactly by interval arithmetic on the band
    edges of `band_spectrum`; `window` is a finite closed interval of
    positive length.
    """
    lo, hi = _finite(window[0]), _finite(window[1])
    if not (hi > lo and math.isfinite(hi - lo)):
        raise DomainError("window must be finite with positive length")
    return float(band_spectrum(sample).intersection_measure(lo, hi) / (2.0 * np.pi * (hi - lo)))

"""Sign-convention and large-N stress cases outside the default ensembles."""

import numpy as np
import pytest

from thouless_lab import (
    BandEdgeError,
    HalfLineLead,
    OffSpectrumError,
    SampleSpec,
    band_spectrum,
    crystal_m_functions,
    r_theta_diagnostic,
    transfer_eigendata,
    transmittance_inf,
    transmittance_n,
    transmittance_oracle,
)
from thouless_lab.selfcheck import band_interior_grid


def _signed_configuration(rng):
    """Sample with random signs on every hopping and on kappa_s."""
    L = int(rng.integers(1, 6))
    hop = rng.uniform(0.2, 2.0, L - 1) * rng.choice([-1.0, 1.0], L - 1)
    kappa_s = float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0]))
    sample = SampleSpec(tuple(hop), tuple(rng.uniform(-1.0, 1.0, L)), kappa_s)
    spectrum = band_spectrum(sample)
    lo, hi = spectrum.hull
    lead = HalfLineLead(
        t=float(rng.uniform(0.5, 1.0) + (hi - lo) / 4.0), v0=float((lo + hi) / 2.0)
    )
    kappa = float(rng.uniform(0.4, 1.6) * rng.choice([-1.0, 1.0]))
    return sample, lead, kappa


def test_negative_couplings_match_oracle(rng):
    worst = 0.0
    for _ in range(25):
        sample, lead, kappa = _signed_configuration(rng)
        n = int(rng.integers(1, 15))
        grid = band_interior_grid(band_spectrum(sample), 20)
        closed = transmittance_n(sample, lead, lead, kappa, n, grid)
        dense = transmittance_oracle(sample, lead, lead, kappa, n, grid)
        worst = max(worst, float(np.max(np.abs(closed - dense))))
    assert worst <= 1e-8


def test_negative_kappa_s_keeps_eigendata_identities(rng):
    # sign(Im psi_+) follows sign(kappa_s); the eigenvector component
    # kappa_s psi_+ keeps Im > 0, and the m-function identities still hold
    for _ in range(15):
        sample, _, _ = _signed_configuration(rng)
        for E in band_interior_grid(band_spectrum(sample), 9):
            try:
                ed = transfer_eigendata(sample, float(E))
                m_l, m_r = crystal_m_functions(sample, float(E))
            except (BandEdgeError, OffSpectrumError):
                continue
            kS = sample.kappa_s
            assert (kS * ed.psi_plus).imag > 0.0
            assert ed.psi_plus == pytest.approx(-1.0 / (kS * m_r), rel=1e-9)
            assert ed.psi_minus == pytest.approx(-kS * m_l, rel=1e-9)


def test_coupling_sign_is_irrelevant():
    sample = SampleSpec((1.0,), (0.1, -0.2), 0.7)
    lead = HalfLineLead(1.3, 0.0)
    plus = transmittance_n(sample, lead, lead, 1.1, 5, 0.4)
    minus = transmittance_n(sample, lead, lead, -1.1, 5, 0.4)
    assert plus == minus


def test_huge_n_in_band_matches_series(free_chain, free_lead):
    kappa = np.sqrt(2.0)
    E = 0.83
    r, vth, theta = r_theta_diagnostic(free_chain, free_lead, free_lead, kappa, E)
    t_inf = transmittance_inf(free_chain, free_lead, free_lead, kappa, E)
    for n in (10**6, 10**6 + 1, 10**8):
        phase = np.mod(2.0 * n * theta, 2.0 * np.pi) + vth
        expected = t_inf * (1.0 - r * r) / abs(1.0 - r * np.exp(1j * phase)) ** 2
        got = transmittance_n(free_chain, free_lead, free_lead, kappa, n, E)
        assert got == pytest.approx(expected, abs=1e-12)


def test_huge_n_off_band_underflows_to_zero(dimer, wide_lead):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert transmittance_n(dimer, wide_lead, wide_lead, 0.9, 5000, 0.0) == 0.0
        assert transmittance_n(dimer, wide_lead, wide_lead, 0.9, 10**7, 0.0) == 0.0


def test_tabulated_lead_reproduces_analytic_halfline(free_chain, free_lead):
    # a dense tabulation of the half-line boundary values drives the full
    # transmittance pipeline to the same answers as the analytic lead
    from thouless_lab import TabulatedLead, lead_F_values

    grid = np.linspace(-2.2, 2.2, 4001)
    table = TabulatedLead(grid, lead_F_values(free_lead, grid))
    probe = np.linspace(-1.8, 1.8, 37)
    kappa = np.sqrt(2.0)
    exact = transmittance_n(free_chain, free_lead, free_lead, kappa, 6, probe)
    interp = transmittance_n(free_chain, table, table, kappa, 6, probe)
    np.testing.assert_allclose(interp, exact, atol=5e-6)

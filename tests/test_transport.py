import numpy as np
import pytest

from thouless_lab import (
    BandEdgeError,
    CrystallineLead,
    DomainError,
    HalfLineLead,
    SampleEigenvalueError,
    band_spectrum,
    crystal_m_functions,
    full_green_lr,
    lead_F,
    one_period_transfer,
    r_theta_diagnostic,
    reflection,
    sample_green,
    transfer_eigendata,
    transmittance_inf,
    transmittance_n,
)
from thouless_lab.selfcheck import band_interior_grid, random_configuration, random_sample

SQRT2 = np.sqrt(2.0)


def test_eigendata_free_chain_center(free_chain):
    ed = transfer_eigendata(free_chain, 0.0)
    assert ed.in_band
    assert ed.theta == pytest.approx(-np.pi / 2.0)
    assert ed.alpha == pytest.approx(-1j, abs=1e-15)
    assert ed.phi_plus == 1.0 and ed.phi_minus == 1.0
    assert ed.psi_plus == pytest.approx(1j, abs=1e-15)
    assert ed.psi_minus == pytest.approx(-1j, abs=1e-15)


def test_eigendata_off_band(free_chain):
    ed = transfer_eigendata(free_chain, 3.0)
    assert not ed.in_band
    assert ed.theta is None
    assert ed.alpha.imag == 0.0
    assert ed.alpha.real == pytest.approx((3.0 + np.sqrt(5.0)) / 2.0, abs=1e-14)
    for comp in (ed.phi_plus, ed.phi_minus, ed.psi_plus, ed.psi_minus):
        assert comp.imag == 0.0


def test_eigendata_band_edge_refusal(free_chain):
    with pytest.raises(BandEdgeError):
        transfer_eigendata(free_chain, 2.0)
    with pytest.raises(BandEdgeError):
        transfer_eigendata(free_chain, 2.0 - 1e-12)


def test_eigendata_conventions_and_residual(rng):
    for _ in range(30):
        s = random_sample(rng)
        spectrum = band_spectrum(s)
        lo, hi = spectrum.hull
        for E in list(band_interior_grid(spectrum, 8)) + [lo - 0.7, hi + 0.7]:
            try:
                ed = transfer_eigendata(s, float(E))
            except BandEdgeError:
                continue
            T = one_period_transfer(s, float(E)).as_array()
            for vec, lam in (
                (np.array([ed.phi_plus, s.kappa_s * ed.psi_plus]), ed.alpha),
                (np.array([ed.phi_minus, s.kappa_s * ed.psi_minus]), 1.0 / ed.alpha),
            ):
                resid = np.linalg.norm(T @ vec - lam * vec)
                assert resid <= 1e-10 * max(np.linalg.norm(T), 1.0) * np.linalg.norm(vec)
            if ed.in_band:
                assert abs(abs(ed.alpha) - 1.0) <= 1e-10
                assert ed.phi_plus == 1.0 and ed.phi_minus == 1.0
                assert ed.psi_minus == pytest.approx(np.conj(ed.psi_plus), abs=1e-12)
                # N2 orientation: the eigenvector component kappa_s psi_+ has Im > 0
                assert (s.kappa_s * ed.psi_plus).imag > 0.0
            else:
                assert abs(ed.alpha) > 1.0 and ed.alpha.imag == 0.0


def test_m_function_identities(rng):
    # psi_+ = -1/(kappa_s m_r), psi_- = -kappa_s m_l on band-interior grids
    for _ in range(20):
        s = random_sample(rng)
        for E in band_interior_grid(band_spectrum(s), 10):
            try:
                ed = transfer_eigendata(s, float(E))
                m_l, m_r = crystal_m_functions(s, float(E))
            except BandEdgeError:
                continue
            assert ed.psi_plus == pytest.approx(-1.0 / (s.kappa_s * m_r), rel=1e-10)
            assert ed.psi_minus == pytest.approx(-s.kappa_s * m_l, rel=1e-10)


@pytest.mark.xfail(
    strict=True,
    reason="psi_+ = (alpha - a)/b and -1/(kappa_s m_r) = -c/(kappa_s((d - a)/2 - i s)) agree "
    "only when det T_L = ad - bc = 1; the L=8 transfer product at E = 2.947 has "
    "det - 1 = 5.5e-12, which 1/|bc| = 24 amplifies to 1.3e-10, above the 1e-10 tolerance",
)
def test_selfcheck_m_identities_seed_1322342770():
    from thouless_lab.selfcheck import run_selfcheck

    _, results = run_selfcheck(1322342770, 4)
    assert {r.name: r.passed for r in results}["m_identities"]


def test_sample_green_scalar_value(free_chain):
    g = sample_green(free_chain, 1, 0.5)
    assert g.g_ll == pytest.approx(-2.0, abs=1e-12)
    assert g.g_lr == g.g_rl


def test_sample_green_pole_at_sample_eigenvalue(free_chain):
    # h_S^(1) for the single free site has eigenvalue 0
    with pytest.raises(SampleEigenvalueError):
        sample_green(free_chain, 1, 0.0)


def test_sample_green_offdiagonal_symmetry(rng):
    for _ in range(20):
        s = random_sample(rng, max_sites=5)
        grid = band_interior_grid(band_spectrum(s), 6)
        E = float(grid[len(grid) // 2])
        n = int(rng.integers(1, 12))
        try:
            g = sample_green(s, n, E)
        except SampleEigenvalueError:
            continue
        assert g.g_lr == g.g_rl


def test_full_green_reduces_to_greenfull_small_at_n1(rng):
    # G_lr = G_{S,lr} / det(I - kappa^2 G_S F) for N = 1
    for _ in range(25):
        s, lead_l, lead_r, kappa = random_configuration(rng, max_sites=4)
        grid = band_interior_grid(band_spectrum(s), 8)
        E = float(grid[int(rng.integers(len(grid)))])
        try:
            gs = sample_green(s, 1, E)
        except SampleEigenvalueError:
            continue
        F = np.diag([lead_F(lead_l, E).value, lead_F(lead_r, E).value])
        det = np.linalg.det(np.eye(2) - kappa**2 * gs.as_array() @ F)
        expected = gs.g_lr / det
        got = full_green_lr(s, lead_l, lead_r, kappa, 1, E)
        assert got == pytest.approx(expected, rel=1e-9)


def test_full_green_decoupling_limit(rng):
    # eta -> 0: the F-dressing vanishes and G_lr -> G_{S,lr}
    s, lead_l, lead_r, _ = random_configuration(rng, max_sites=3)
    grid = band_interior_grid(band_spectrum(s), 8)
    E = float(grid[2])
    gs = sample_green(s, 3, E)
    got = full_green_lr(s, lead_l, lead_r, 1e-9, 3, E)
    assert got == pytest.approx(gs.g_lr, rel=1e-6)


def test_transmittance_matched_is_one(free_chain, free_lead):
    grid = np.linspace(-1.99, 1.99, 101)
    for n in (1, 5, 20, 200):
        T = transmittance_n(free_chain, free_lead, free_lead, 1.0, n, grid)
        assert np.max(np.abs(T - 1.0)) <= 1e-9
    lead_c = CrystallineLead(free_chain, "r"), CrystallineLead(free_chain, "l")
    T = transmittance_n(free_chain, lead_c[1], lead_c[0], 1.0, 7, grid)
    assert np.max(np.abs(T - 1.0)) <= 1e-9


def test_transmittance_zero_outside_common_support(free_chain):
    # sample band reaches past the narrow lead's support
    narrow = HalfLineLead(t=0.5, v0=0.0)  # support [-1, 1]
    wide = HalfLineLead(t=1.5, v0=0.0)
    assert transmittance_n(free_chain, narrow, wide, 1.0, 3, 1.5) == 0.0
    assert transmittance_inf(free_chain, narrow, wide, 1.0, 1.5) == 0.0
    assert transmittance_n(free_chain, wide, wide, 1.0, 3, 5.0) == 0.0


def test_transmittance_inf_spot_value(free_chain, free_lead):
    # kappa^2 = 2 mismatch at the band center
    T = transmittance_inf(free_chain, free_lead, free_lead, SQRT2, 0.0)
    assert T == pytest.approx(0.8, abs=1e-10)


def test_transmittance_n1_spot_value(free_chain, free_lead):
    # on-resonance single site transmits perfectly for any symmetric coupling;
    # equals T_inf * (1+r)/(1-r) = 0.8 * (10/9)/(8/9) = 1, confirmed by the oracle
    from thouless_lab import transmittance_oracle

    T = transmittance_n(free_chain, free_lead, free_lead, SQRT2, 1, 0.0)
    assert T == pytest.approx(1.0, abs=1e-12)
    assert transmittance_oracle(free_chain, free_lead, free_lead, SQRT2, 1, 0.0) == (
        pytest.approx(1.0, abs=1e-12)
    )


def test_transmittance_inf_matched_and_gap(dimer, free_chain, free_lead):
    lead_l, lead_r = CrystallineLead(dimer, "l"), CrystallineLead(dimer, "r")
    grid = band_interior_grid(band_spectrum(dimer), 50)
    T = transmittance_inf(dimer, lead_l, lead_r, dimer.kappa_s, grid)
    assert np.max(np.abs(T - 1.0)) <= 1e-12
    assert transmittance_inf(free_chain, free_lead, free_lead, 1.0, 3.0) == 0.0
    wide = HalfLineLead(1.2, 0.0)
    assert transmittance_inf(dimer, wide, wide, 1.0, 0.0) == 0.0  # gap energy


def test_transmittance_scalar_array_parity(free_chain, free_lead):
    grid = np.linspace(-1.5, 1.5, 7)
    T_arr = transmittance_n(free_chain, free_lead, free_lead, SQRT2, 4, grid)
    for E, t in zip(grid, T_arr):
        assert transmittance_n(free_chain, free_lead, free_lead, SQRT2, 4, float(E)) == (
            pytest.approx(t, abs=1e-15)
        )


def test_r_theta_matched_vanishes(free_chain, free_lead):
    r, vth, theta = r_theta_diagnostic(free_chain, free_lead, free_lead, 1.0, 0.7)
    assert r == 0.0


def test_r_theta_mismatch_spot_value(free_chain, free_lead):
    r, vth, theta = r_theta_diagnostic(free_chain, free_lead, free_lead, SQRT2, 0.0)
    assert r == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert abs(vth) == pytest.approx(np.pi, abs=1e-12)
    assert theta == pytest.approx(-np.pi / 2.0, abs=1e-12)


def test_r_theta_off_support_raises(free_chain, free_lead, dimer, wide_lead):
    with pytest.raises(DomainError):
        r_theta_diagnostic(free_chain, free_lead, free_lead, 1.0, 3.0)
    with pytest.raises(DomainError):
        r_theta_diagnostic(dimer, wide_lead, wide_lead, 1.0, 0.0)  # gap


def test_r_below_one_on_band_interiors(rng):
    for _ in range(25):
        s, lead_l, lead_r, kappa = random_configuration(rng, max_sites=5)
        for E in band_interior_grid(band_spectrum(s), 15):
            try:
                r, _, _ = r_theta_diagnostic(s, lead_l, lead_r, kappa, float(E))
            except DomainError:
                continue
            assert r < 1.0


def test_series_identity(free_chain, free_lead):
    # T_N = T_inf * sum_k r^{|k|} e^{i k (2 N theta + vartheta)}, truncated at |k| <= 200
    for E in (-1.2, 0.3, 0.83):
        r, vth, theta = r_theta_diagnostic(free_chain, free_lead, free_lead, SQRT2, E)
        assert r <= 0.9
        T_inf = transmittance_inf(free_chain, free_lead, free_lead, SQRT2, E)
        ks = np.arange(-200, 201)
        for n in (1, 2, 7, 31):
            phases = ks * (2.0 * n * theta + vth)
            total = float(np.sum(r ** np.abs(ks) * np.exp(1j * phases)).real)
            T_n = transmittance_n(free_chain, free_lead, free_lead, SQRT2, n, E)
            assert T_n == pytest.approx(T_inf * total, abs=1e-8)


def test_off_spectrum_exponential_decay(dimer, wide_lead):
    # mid-gap: |alpha| = 2 exactly; log T_N vs N has slope -2 log|alpha| within 5%
    ed = transfer_eigendata(dimer, 0.0)
    rate = -2.0 * np.log(abs(ed.alpha))
    ns = np.arange(2, 13)
    logs = [
        np.log(transmittance_n(dimer, wide_lead, wide_lead, 0.9, int(n), 0.0)) for n in ns
    ]
    slope = np.polyfit(ns, logs, 1)[0]
    assert slope == pytest.approx(rate, rel=0.05)


def test_transmittance_oracle_agreement_small(rng):
    from thouless_lab import transmittance_oracle

    for _ in range(8):
        s, lead_l, lead_r, kappa = random_configuration(rng, max_sites=5)
        n = int(rng.integers(1, 15))
        grid = band_interior_grid(band_spectrum(s), 30)
        closed = transmittance_n(s, lead_l, lead_r, kappa, n, grid)
        dense = np.array(
            [transmittance_oracle(s, lead_l, lead_r, kappa, n, float(E)) for E in grid]
        )
        assert np.max(np.abs(closed - dense)) <= 1e-8


def test_reflection_complement():
    assert reflection(1.0) == 0.0
    assert reflection(0.0) == 1.0
    assert reflection(0.8) == pytest.approx(0.2)
    with pytest.raises(DomainError):
        reflection(1.5)

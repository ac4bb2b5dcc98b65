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
    lead_F_values,
    one_period_transfer,
    r_theta_diagnostic,
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


def test_selfcheck_m_identities_seed_1322342770():
    # Regression: this seed draws an L=8 sample whose transfer product at
    # E = 2.947 has det T_L - 1 = 5.5e-12.  A check comparing two transfer-
    # matrix root formulas saw that drift amplified to 1.3e-10; the one-period
    # fixed-point check is independent of det T_L and passes at 1e-10.
    from thouless_lab.selfcheck import run_selfcheck

    _, results = run_selfcheck(1322342770, 4)
    assert {r.name: r.passed for r in results}["m_identities"]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda m_l, m_r: (np.conj(m_l), np.conj(m_r)),
        lambda m_l, m_r: (m_l * (1.0 + 1e-8), m_r * (1.0 + 1e-8)),
        lambda m_l, m_r: (m_r, m_l),
    ],
    ids=["conjugated", "perturbed_1e-8", "swapped"],
)
def test_check_m_identities_rejects_wrong_m_functions(monkeypatch, mutate):
    from thouless_lab import selfcheck

    assert selfcheck.check_m_identities(np.random.default_rng(3), n_samples=10).passed
    true_values = selfcheck._crystal_m_values

    def wrong_values(sample, E):
        m_l, m_r, ed = true_values(sample, E)
        return (*mutate(m_l, m_r), ed)

    monkeypatch.setattr(selfcheck, "_crystal_m_values", wrong_values)
    result = selfcheck.check_m_identities(np.random.default_rng(3), n_samples=10)
    assert result.passed is False


def test_one_kernel_call_per_evaluator_call(monkeypatch, dimer, wide_lead):
    from thouless_lab import leads
    from thouless_lab.transport import _diagnostic_columns, _r_theta_values

    calls = []
    kernel = leads._one_period_abcd

    def counting_kernel(sample, E):
        calls.append(sample)
        return kernel(sample, E)

    monkeypatch.setattr(leads, "_one_period_abcd", counting_kernel)
    grid = np.linspace(-1.4, 1.4, 50)
    cases = [
        (crystal_m_functions, (dimer, 1.0)),
        (lead_F_values, (CrystallineLead(dimer, "r"), grid)),
    ]
    # leads on the sample itself read its eigendata instead of evaluating their own
    own_leads = (CrystallineLead(dimer, "l"), CrystallineLead(dimer, "r"))
    for lead_pair in [(wide_lead, wide_lead), own_leads]:
        cases += [
            (transmittance_inf, (dimer, *lead_pair, 0.7, grid)),
            (transmittance_n, (dimer, *lead_pair, 0.7, 3, grid)),
            (_r_theta_values, (dimer, *lead_pair, 0.7, grid)),
            (_diagnostic_columns, (dimer, *lead_pair, 0.7, 3, grid)),
            (_diagnostic_columns, (dimer, *lead_pair, 0.7, None, grid)),
        ]
    for evaluate, args in cases:
        calls.clear()
        evaluate(*args)
        assert len(calls) == 1, (evaluate.__name__, args[1])


@pytest.mark.parametrize("n_cells", [0, -1, -3])
def test_repetition_count_below_one_raises(dimer, wide_lead, n_cells):
    from thouless_lab import ThermoState, convergence_study, lb_currents

    with pytest.raises(DomainError):
        transmittance_n(dimer, wide_lead, wide_lead, 0.7, n_cells, 1.0)
    with pytest.raises(DomainError):
        lb_currents(dimer, wide_lead, wide_lead, 0.7, n_cells, ThermoState(1.0, -1.0, 1.0, 1.0))
    with pytest.raises(DomainError):
        convergence_study(dimer, wide_lead, wide_lead, 0.7, np.ones_like, [n_cells, 1])


@pytest.mark.parametrize("seed", range(4))
def test_tn_matches_oracle_next_to_band_edges(seed):
    # near an edge the phase theta and the eigenvectors (from the same sine) must agree
    from thouless_lab import transmittance_oracle

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        sample, lead_l, lead_r, kappa = random_configuration(rng)
        bands = np.asarray(band_spectrum(sample).bands)
        inset = 1e-7 * (bands[:, 1] - bands[:, 0])
        grid = np.concatenate([bands[:, 0] + inset, bands[:, 1] - inset])
        for n_cells in (1, 16):
            t_closed = transmittance_n(sample, lead_l, lead_r, kappa, n_cells, grid)
            t_oracle = [transmittance_oracle(sample, lead_l, lead_r, kappa, n_cells, E)
                        for E in grid]
            worst = max(worst, float(np.max(np.abs(t_closed - t_oracle))))
    assert worst <= 2e-11


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

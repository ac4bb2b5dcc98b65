import re

import numpy as np
import pytest

from thouless_lab import (
    BandEdgeError,
    CrystallineLead,
    DomainError,
    HalfLineLead,
    QuadratureConfig,
    SampleEigenvalueError,
    TabulatedLead,
    ThermoState,
    band_spectrum,
    crystal_m_functions,
    crystalline_currents,
    discriminant,
    fermi_dirac,
    lead_F,
    lead_F_values,
    one_period_transfer,
    r_theta_diagnostic,
    thouless_conductance,
    transfer_eigendata,
    transmittance_inf,
    transmittance_n,
    transmittance_oracle,
    weights,
)
from thouless_lab import transport
from thouless_lab.selfcheck import (
    band_interior_grid,
    covering_halfline,
    random_configuration,
    random_sample,
)
from thouless_lab.jacobi import transfer_step
from thouless_lab.leads import _eigendata_values
from thouless_lab.oracle import resolvent_green
from thouless_lab.transport import (
    _chebyshev_factors,
    _full_green_lr_values,
    _transport_inputs,
    sample_green,
)

from dense_green import dirichlet_sample_green

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


@pytest.mark.parametrize("error", [ValueError, SampleEigenvalueError])
def test_check_graph_map_skips_only_sample_eigenvalues(monkeypatch, error):
    # a pole of the N-cell resolvent skips the triple; any other error propagates
    from thouless_lab import selfcheck

    true_green = selfcheck.sample_green
    raised = []

    def fails_once(sample, n_cells, E):
        if not raised:
            raised.append(E)
            raise error("injected")
        return true_green(sample, n_cells, E)

    monkeypatch.setattr(selfcheck, "sample_green", fails_once)
    if error is SampleEigenvalueError:
        assert selfcheck.check_graph_map(np.random.default_rng(0), n_triples=5).passed
    else:
        with pytest.raises(error, match="injected"):
            selfcheck.check_graph_map(np.random.default_rng(0), n_triples=5)
    assert raised


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


def test_m_functions_are_computed_only_when_read(monkeypatch, dimer, wide_lead):
    # T_N on half-line leads reads only T_L's entries and the growing off-band
    # eigenvalue; the m-functions and in-band phase are computed on first read
    from thouless_lab import leads

    calls = []
    eigvec = leads._real_eigvec2

    def counting_eigvec(*args):
        calls.append(1)
        return eigvec(*args)

    monkeypatch.setattr(leads, "_real_eigvec2", counting_eigvec)
    grid = np.linspace(-2.0, 2.0, 41)  # in both bands, the gap and outside
    transmittance_n(dimer, wide_lead, wide_lead, 0.7, 5, grid)
    sample_green(dimer, 3, 0.0)
    assert calls == []
    ed = _eigendata_values(dimer, grid)
    assert {"m_l", "m_r", "theta"}.isdisjoint(ed)
    m_r = ed["m_r"]
    assert len(calls) == 2 and ed["m_r"] is m_r and {"m_l", "theta"} <= set(ed)
    with pytest.raises(KeyError):
        ed["no_such_key"]
    # T_infty reads only the band-interior m-functions: no off-band eigenvector
    transmittance_inf(dimer, wide_lead, wide_lead, 0.7, grid)
    assert len(calls) == 2


def _repetition_count_calls(dimer, lead):
    """Every entry point taking a repetition count N, as functions of N."""
    from thouless_lab import convergence_study, lb_currents, periodized_parameters
    from thouless_lab.oracle import resolvent_green

    thermo = ThermoState(1.0, -1.0, 1.0, 1.0)
    return {
        "transmittance_n": lambda n: transmittance_n(dimer, lead, lead, 0.7, n, 1.0),
        "sample_green": lambda n: sample_green(dimer, n, 1.0),
        "lb_currents": lambda n: lb_currents(dimer, lead, lead, 0.7, n, thermo),
        "convergence_study": lambda n: convergence_study(
            dimer, lead, lead, 0.7, np.ones_like, [n]
        ),
        "periodized_parameters": lambda n: periodized_parameters(dimer, n),
        "resolvent_green": lambda n: resolvent_green(dimer, n, lead, lead, 0.7, 1.0),
        "dirichlet_sample_green": lambda n: dirichlet_sample_green(dimer, n, 1.0),
        "transmittance_oracle": lambda n: transmittance_oracle(dimer, lead, lead, 0.7, n, 1.0),
    }


# N below one, or not an integer at all: a float equal to an integer and a
# numeric string are refused too, never truncated or silently zero
@pytest.mark.parametrize("n_cells", [0, -1, -3, 2.5, 2.0, "3", None])
def test_repetition_count_below_one_raises(dimer, wide_lead, n_cells):
    from thouless_lab import oracle

    message = f"n_cells must be a positive integer, got {re.escape(repr(n_cells))}$"
    for call in _repetition_count_calls(dimer, wide_lead).values():
        oracle._n_cell_system_cached.cache_clear()
        with pytest.raises(DomainError, match=message):
            call(n_cells)
    # a cache filled at N = 2 answers no other key: 2.0 hashes equal to 2
    transmittance_oracle(dimer, wide_lead, wide_lead, 0.7, 2, 1.0)
    with pytest.raises(DomainError, match=message):
        transmittance_oracle(dimer, wide_lead, wide_lead, 0.7, n_cells, 1.0)
    # no energy on the leads' support: the oracle solves nothing, and still refuses
    with pytest.raises(DomainError, match=message):
        transmittance_oracle(dimer, wide_lead, wide_lead, 0.7, n_cells, 9.0)


def test_numpy_integer_repetition_count_is_accepted(dimer, wide_lead):
    for name, call in _repetition_count_calls(dimer, wide_lead).items():
        np.testing.assert_equal(call(np.int64(3)), call(3), err_msg=name)


@pytest.mark.parametrize("name", ["sample_green", "resolvent_green", "dirichlet_sample_green"])
def test_green_matrix_stores_repetition_count_as_int(dimer, wide_lead, name):
    g = _repetition_count_calls(dimer, wide_lead)[name](np.int64(3))
    assert type(g.n_cells) is int and g.n_cells == 3


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda s, lead, E: transmittance_n(s, lead, lead, 0.7, 4, E),
        lambda s, lead, E: transmittance_n(s, CrystallineLead(s, "l"), lead, 0.7, 4, E),
        lambda s, lead, E: transmittance_inf(s, lead, lead, 0.7, E),
        lambda s, lead, E: transmittance_oracle(s, lead, lead, 0.7, 4, E),
        lambda s, lead, E: lead_F_values(lead, E),
    ],
    ids=["T_N", "T_N_crystalline", "T_inf", "oracle", "lead_F_values"],
)
def test_energy_array_of_any_shape(dimer, wide_lead, evaluate):
    # gap, band and off-support energies in a (2, 3) grid
    E = np.array([[-3.0, -1.2, -0.2], [0.0, 0.9, 1.4]])
    flat = evaluate(dimer, wide_lead, E.ravel())
    grid = evaluate(dimer, wide_lead, E)
    assert grid.shape == E.shape
    assert grid.tobytes() == flat.reshape(E.shape).tobytes()


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda s, lead: transmittance_n(s, lead, lead, 0.0, 3, np.linspace(-1.5, 1.5, 9)),
        lambda s, lead: transmittance_inf(s, lead, lead, 0.0, np.linspace(-1.5, 1.5, 9)),
        lambda s, lead: r_theta_diagnostic(s, lead, lead, 0.0, 1.0),
        lambda s, lead: crystalline_currents(s, lead, lead, 0.0, ThermoState(1.0, -1.0, 1.0, 1.0)),
        lambda s, lead: transmittance_oracle(s, lead, lead, 0.0, 3, np.array([-1.0, 1.0])),
        # no energy on the leads' support: the oracle solves nothing, and still refuses
        lambda s, lead: transmittance_oracle(s, lead, lead, 0.0, 3, np.array([-9.0, 9.0])),
    ],
    ids=["T_N", "T_inf", "r_theta", "crystalline_currents", "oracle", "oracle_off_support"],
)
def test_zero_coupling_is_refused(dimer, wide_lead, evaluate):
    with pytest.raises(DomainError, match="coupling kappa must be nonzero"):
        evaluate(dimer, wide_lead)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda s, lead: transmittance_n(s, lead, lead, NAN, 2, 1.0),
        lambda s, lead: transmittance_inf(s, lead, lead, INF, 1.0),
        lambda s, lead: transmittance_n(s, lead, lead, 0.7, 2, np.array([1.0, NAN])),
        lambda s, lead: transmittance_inf(s, lead, lead, 0.7, np.array([-INF, 1.0])),
        lambda s, lead: transmittance_oracle(s, lead, lead, NAN, 3, 1.0),
        lambda s, lead: transmittance_oracle(s, lead, lead, 0.7, 3, np.array([1.0, NAN])),
        lambda s, lead: HalfLineLead(t=INF),
        lambda s, lead: HalfLineLead(t=1.0, v0=NAN),
        lambda s, lead: ThermoState(1.0, NAN, 1.0, 0.0),
        lambda s, lead: ThermoState(1.0, 0.0, INF, -INF),
        lambda s, lead: TabulatedLead(np.array([-1.0, 0.0, 1.0]), np.array([1j, NAN, 1j])),
        lambda s, lead: thouless_conductance(s, (-INF, 1.0)),
        lambda s, lead: QuadratureConfig(abs_tol=INF),
    ],
    ids=["T_N_kappa_nan", "T_inf_kappa_inf", "T_N_energy_nan", "T_inf_energy_inf",
         "oracle_kappa_nan", "oracle_energy_nan", "half_line_t_inf", "half_line_v0_nan",
         "thermo_mu_nan", "thermo_mu_inf", "tabulated_value_nan", "thouless_window_inf",
         "abs_tol_inf"],
)
def test_non_finite_input_is_refused(dimer, wide_lead, evaluate):
    with pytest.raises(DomainError, match="finite"):
        evaluate(dimer, wide_lead)


@pytest.mark.parametrize("energy", [NAN, INF, -INF], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize(
    "evaluate",
    [
        lambda s, lead, E: transfer_eigendata(s, E),
        lambda s, lead, E: crystal_m_functions(s, E),
        lambda s, lead, E: lead_F(lead, E),
        lambda s, lead, E: lead_F(CrystallineLead(s, "r"), E),
        lambda s, lead, E: sample_green(s, 2, E),
        lambda s, lead, E: dirichlet_sample_green(s, 2, E),
        lambda s, lead, E: r_theta_diagnostic(s, lead, lead, 1.0, E),
        lambda s, lead, E: resolvent_green(s, 2, lead, lead, 1.0, E),
        lambda s, lead, E: discriminant(s, E),
        lambda s, lead, E: discriminant(s, np.array([0.5, E])),
        lambda s, lead, E: fermi_dirac(1.0, 0.0, E),
        lambda s, lead, E: fermi_dirac(INF, 0.0, np.array([0.5, E])),
        lambda s, lead, E: weights(ThermoState(1.0, 0.0, 2.0, 0.1), E),
        lambda s, lead, E: weights(ThermoState(INF, 0.0, 2.0, 0.1), np.array([0.5, E])),
        lambda s, lead, E: one_period_transfer(s, E),
        lambda s, lead, E: transfer_step(s, 2, E),
        lambda s, lead, E: lead_F_values(lead, np.array([0.5, E])),
        lambda s, lead, E: lead_F_values(CrystallineLead(s, "l"), np.array([0.5, E])),
        lambda s, lead, E: lead_F_values(TabulatedLead([-0.5, 0.5], [np.pi * 1j] * 2), E),
    ],
    ids=["transfer_eigendata", "crystal_m_functions", "lead_F_half_line", "lead_F_crystalline",
         "sample_green", "dirichlet_sample_green", "r_theta_diagnostic", "resolvent_green",
         "discriminant", "discriminant_array", "fermi_dirac", "fermi_dirac_array", "weights",
         "weights_array", "one_period_transfer", "transfer_step", "lead_F_values_half_line",
         "lead_F_values_crystalline", "lead_F_values_tabulated"],
)
def test_scalar_helper_refuses_non_finite_energy(dimer, wide_lead, evaluate, energy):
    with pytest.raises(DomainError, match="energies must be finite"):
        evaluate(dimer, wide_lead, energy)


def test_infinite_beta_stays_valid(dimer):
    th = ThermoState(INF, -1.0, INF, 1.0)
    assert th.beta_l == th.beta_r == INF


@pytest.mark.parametrize("seed", range(4))
def test_tn_matches_oracle_next_to_band_edges(seed):
    # at the band edges and 1e-7 band widths inside and outside each edge
    from thouless_lab import transmittance_oracle

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        sample, lead_l, lead_r, kappa = random_configuration(rng)
        bands = np.asarray(band_spectrum(sample).bands)
        inset = 1e-7 * (bands[:, 1] - bands[:, 0])
        lo, hi = bands[:, 0], bands[:, 1]
        grid = np.concatenate([lo - inset, lo, lo + inset, hi - inset, hi, hi + inset])
        for n_cells in (1, 16):
            t_closed = transmittance_n(sample, lead_l, lead_r, kappa, n_cells, grid)
            t_oracle = transmittance_oracle(sample, lead_l, lead_r, kappa, n_cells, grid)
            worst = max(worst, float(np.max(np.abs(t_closed - t_oracle))))
    assert worst <= 2e-11


def test_tn_at_exact_band_edges_matches_oracle(dimer):
    # the dimer's four band edges, where tr T_L(E) = ±2 holds in floating point
    # and T_L is a Jordan block
    from thouless_lab import transmittance_oracle

    lead_l, lead_r = HalfLineLead(1.6, 0.1), HalfLineLead(1.8, -0.2)
    grid = np.array([-1.5, -0.5, 0.5, 1.5])
    oracle = [transmittance_oracle(dimer, lead_l, lead_r, 0.7, 1, E) for E in grid]
    np.testing.assert_allclose(oracle, [0.2277, 0.3947, 0.3899, 0.2300], atol=1e-4)
    T = transmittance_n(dimer, lead_l, lead_r, 0.7, 1, grid)
    np.testing.assert_allclose(T, oracle, rtol=0.0, atol=1e-9)


def test_chebyshev_factors_match_matrix_power(rng):
    # w T_L^N = p T_L - q I in the bands, in the gaps, outside the hull and at the edges
    for _ in range(10):
        s = random_sample(rng, max_sites=4)
        spectrum = band_spectrum(s)
        lo, hi = spectrum.hull
        E = np.concatenate([np.linspace(lo - 0.5, hi + 0.5, 41), np.ravel(spectrum.bands)])
        ed = _eigendata_values(s, E)
        for n in (1, 2, 7, 12):
            p, q, w = _chebyshev_factors(ed, n)
            for i, energy in enumerate(E):
                T = one_period_transfer(s, float(energy)).as_array()
                power = w[i] * np.linalg.matrix_power(T, n)
                got = p[i] * T - q[i] * np.eye(2)
                assert np.max(np.abs(got - power)) <= 1e-10 * max(np.max(np.abs(power)), 1.0)
        p, q, w = _chebyshev_factors(ed, 1)
        assert np.all(p == 1.0) and np.all(q == 0.0) and np.all(w == 1.0)


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
        F = np.diag([lead_F(lead_l, E), lead_F(lead_r, E)])
        det = np.linalg.det(np.eye(2) - kappa**2 * gs.as_array() @ F)
        expected = gs.g_lr / det
        inputs = _transport_inputs(s, lead_l, lead_r, kappa, np.array([E]))
        (got,) = _full_green_lr_values(s, 1, *inputs)
        assert got == pytest.approx(expected, rel=1e-9)


def test_full_green_decoupling_limit(rng):
    # eta -> 0: the F-dressing vanishes and G_lr -> G_{S,lr}
    s, lead_l, lead_r, _ = random_configuration(rng, max_sites=3)
    grid = band_interior_grid(band_spectrum(s), 8)
    E = float(grid[2])
    gs = sample_green(s, 3, E)
    inputs = _transport_inputs(s, lead_l, lead_r, 1e-9, np.array([E]))
    (got,) = _full_green_lr_values(s, 3, *inputs)
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
    # a scalar energy runs the array kernel on one element: the same bits as a grid entry
    rng = np.random.default_rng(5)
    configs = [(free_chain, free_lead, free_lead, SQRT2)]
    configs += [random_configuration(rng) for _ in range(4)]
    thermo = ThermoState(2.0, 0.3, 5.0, -0.2)
    for s, lead_l, lead_r, kappa in configs:
        lo, hi = band_spectrum(s).hull
        grid = np.linspace(lo - 0.5, hi + 0.5, 61)
        crystal = CrystallineLead(s, "r")
        evaluators = {
            "T_N": lambda E: transmittance_n(s, lead_l, lead_r, kappa, 4, E),
            "T_inf": lambda E: transmittance_inf(s, lead_l, lead_r, kappa, E),
            "oracle": lambda E: transmittance_oracle(s, lead_l, lead_r, kappa, 4, E),
            "fermi_dirac": lambda E: fermi_dirac(thermo.beta_l, thermo.mu_l, E),
        }
        for name, evaluate in evaluators.items():
            scalar = np.array([evaluate(float(E)) for E in grid])
            assert scalar.tobytes() == evaluate(grid).tobytes(), name
        for lead in (lead_l, crystal):
            scalar = np.array([lead_F(lead, float(E)) for E in grid])
            assert scalar.tobytes() == lead_F_values(lead, grid).tobytes(), lead
        scalar = np.array([weights(thermo, float(E)) for E in grid])
        assert scalar.tobytes() == np.column_stack(weights(thermo, grid)).tobytes()


@pytest.mark.parametrize("side", ["l", "r"])
def test_tinf_equals_oracle_with_one_matched_contact(side):
    # At kappa = kappa_s a crystalline lead on the sample continues the crystal, so the
    # N-cell sample plus that lead is the half-crystal and T_N = T_infty for every N.
    # Only the other contact's term of T_infty is nonzero, and both sides are tested.
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(4):
        s = random_sample(rng)
        other = covering_halfline(band_spectrum(s), rng)
        crystal = CrystallineLead(s, side)
        lead_l, lead_r = (crystal, other) if side == "l" else (other, crystal)
        grid = band_interior_grid(band_spectrum(s), 40)
        t_inf = transmittance_inf(s, lead_l, lead_r, s.kappa_s, grid)
        assert np.min(t_inf) < 0.99  # the other contact is mismatched
        for n_cells in (1, 3, 7):
            t_oracle = transmittance_oracle(s, lead_l, lead_r, s.kappa_s, n_cells, grid)
            worst = max(worst, float(np.max(np.abs(t_inf - t_oracle))))
    assert worst <= 1e-10


def oracle_tinf(s, lead_l, lead_r, kappa, E):
    """T_infty from oracle T_N alone, with the energies where the fit is conditioned.

    1/T_N = A + R cos(2N theta + phi0) with A^2 - R^2 = 1/T_infty^2, so y_N = 1/T_N
    obeys y_{N+1} + y_{N-1} = 2c y_N + 2A(1 - c), c = cos 2 theta.  c and A are
    fitted on N = 1..8, then R at the frequency arccos c; |c| < 0.95 is kept.
    """
    y = np.array([1.0 / transmittance_oracle(s, lead_l, lead_r, kappa, n, E) for n in range(1, 9)])
    X = np.stack([2.0 * y[1:-1], np.ones_like(y[1:-1])], axis=-1).swapaxes(0, 1)
    Xt = X.swapaxes(1, 2)
    c, q = np.linalg.solve(Xt @ X, Xt @ (y[2:] + y[:-2]).T[..., None])[..., 0].T
    A = q / (2.0 * (1.0 - c))
    n_theta = np.arange(1, 9)[:, None] * np.arccos(np.clip(c, -1.0, 1.0))
    Y = np.stack([np.cos(n_theta), np.sin(n_theta)], axis=-1).swapaxes(0, 1)
    Yt = Y.swapaxes(1, 2)
    R2 = np.sum(np.linalg.solve(Yt @ Y, Yt @ (y - A).T[..., None]) ** 2, axis=(1, 2))
    return 1.0 / np.sqrt(A**2 - R2), np.abs(c) < 0.95


def tinf_errors_against_the_oracle() -> np.ndarray:
    rng = np.random.default_rng(7)
    errors = []
    for _ in range(8):
        s, lead_l, lead_r, kappa = random_configuration(rng)  # both contacts mismatched
        grid = band_interior_grid(band_spectrum(s), 40)
        reference, kept = oracle_tinf(s, lead_l, lead_r, kappa, grid)
        errors.append(np.abs(transmittance_inf(s, lead_l, lead_r, kappa, grid) - reference)[kept])
    return np.concatenate(errors)


def test_tinf_matches_an_oracle_fit_with_both_contacts_mismatched():
    errors = tinf_errors_against_the_oracle()
    assert errors.size > 250 and np.max(errors) <= 1e-6


def test_tinf_plan_keeps_the_bits_of_the_full_eigendata_path():
    # the plan reads only band-interior m-functions; the full eigendata path
    # (`_transport_inputs`, as under transmit --diagnostics) gives the same bits
    # on grids across gaps and edges, and on all-interior grids that take no masked copy
    rng = np.random.default_rng(7)
    for _ in range(30):
        s, lead_l, lead_r, kappa = random_configuration(rng)
        spectrum = band_spectrum(s)
        lo, hi = spectrum.hull
        edges = np.array([E for band in spectrum.bands for E in band])
        grids = [np.concatenate([np.linspace(lo - 1.0, hi + 1.0, 301), edges]),
                 band_interior_grid(spectrum, 200)]
        other = random_sample(rng, 4)
        pairs = [(lead_l, lead_r), (CrystallineLead(s, "l"), CrystallineLead(s, "r")),
                 (lead_l, CrystallineLead(s, "r")), (CrystallineLead(other, "l"), lead_r)]
        for pair in pairs:
            plan = transport._tinf_plan(s, *pair, kappa)
            for E in grids:
                full = transport._tinf_values(s, *_transport_inputs(s, *pair, kappa, E))
                assert plan(E).tobytes() == full.tobytes()
                assert transmittance_inf(s, *pair, kappa, E).tobytes() == full.tobytes()
            assert transmittance_inf(s, *pair, kappa, float(grids[1][7])) == full[7]


def weighted_tinf(weight_r, weight_l):
    """transport._tinf_live, the one T_infty formula, with the contact terms weighted."""
    def tinf(sample, kappa, m_l, m_r, F_l, F_r):
        kS2, k2 = sample.kappa_s**2, kappa**2
        sm_r, sm_l = kS2 * m_r, kS2 * m_l
        sF_r, sF_l = k2 * F_r, k2 * F_l
        term_r = np.abs(sm_r - sF_r) ** 2 / (sm_r.imag * sF_r.imag)
        term_l = np.abs(sm_l - sF_l) ** 2 / (sm_l.imag * sF_l.imag)
        return 1.0 / (1.0 + weight_r * term_r + weight_l * term_l)

    return tinf


@pytest.mark.parametrize(
    "weights_rl", [(0.2497, 0.2497), (0.5, 0.0), (0.0, 0.5)],
    ids=["0.2497_for_0.25", "left_contact_dropped", "right_contact_dropped"],
)
def test_oracle_fit_catches_a_wrong_tinf(monkeypatch, weights_rl):
    monkeypatch.setattr(transport, "_tinf_live", weighted_tinf(*weights_rl))
    assert np.median(tinf_errors_against_the_oracle()) > 1e-4


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
        dense = transmittance_oracle(s, lead_l, lead_r, kappa, n, grid)
        assert np.max(np.abs(closed - dense)) <= 1e-8

import contextlib
import dataclasses
import math

import numpy as np
import pytest

from thouless_lab import (
    BandSpectrum,
    CrystallineLead,
    DomainError,
    HalfLineLead,
    QuadratureConfig,
    QuadratureError,
    SampleSpec,
    ThermoState,
    band_spectrum,
    convergence_study,
    crystalline_currents,
    fermi_dirac,
    lb_currents,
    sign_change_energy,
    thouless_conductance,
    thouless_currents,
    weights,
    zero_temperature_conductance,
)
from thouless_lab import currents, selfcheck
from thouless_lab.currents import _adaptive_panels
from thouless_lab.selfcheck import _CHECK_STATES, random_configuration

SQRT2 = np.sqrt(2.0)
# the error estimate holds no rounding term, so a bound check allows a few ulps
ROUNDING = 8 * np.finfo(float).eps


@contextlib.contextmanager
def _gauss_rule(monkeypatch, panels, points):
    """Band integrals start from `panels` first-level panels of `points` nodes inside the block."""
    with monkeypatch.context() as m:
        m.setattr(currents, "_FIRST_PANELS", panels)
        m.setattr(currents, "_GAUSS_POINTS", points)
        yield


def test_fermi_midpoint_and_limits():
    assert fermi_dirac(1.0, 0.0, 0.0) == pytest.approx(0.5)
    assert fermi_dirac(math.inf, 0.5, 0.0) == 1.0
    assert fermi_dirac(math.inf, 0.5, 1.0) == 0.0
    assert fermi_dirac(math.inf, 0.5, 0.5) == 0.5


def test_fermi_overflow_safety():
    v = fermi_dirac(1.0, 0.0, 40.0)
    assert 0.0 < v < 1e-17
    assert fermi_dirac(1.0, 0.0, -40.0) == pytest.approx(1.0)
    big = fermi_dirac(1e6, 0.0, np.array([-1.0, 1.0]))
    assert big[0] == 1.0 and big[1] == 0.0


def test_fermi_beta_inf_window_indicator():
    th = ThermoState(math.inf, -1.0, math.inf, 1.0)
    E = np.array([-2.0, 0.0, 2.0])
    _, _, _, delta_r, _ = weights(th, E)
    np.testing.assert_array_equal(delta_r, [0.0, 1.0, 0.0])


def test_thermo_validation():
    with pytest.raises(DomainError):
        ThermoState(0.0, 0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        ThermoState(-1.0, 0.0, 1.0, 0.0)
    assert ThermoState(2.0, 0.1, 2.0, 0.1).is_equilibrium


def test_weights_equilibrium_vanish():
    th = ThermoState(2.0, 0.3, 2.0, 0.3)
    E = np.linspace(-3.0, 3.0, 11)
    _, _, delta_l, delta_r, varsigma = weights(th, E)
    np.testing.assert_array_equal(delta_l, np.zeros(11))
    np.testing.assert_array_equal(varsigma, np.zeros(11))


def test_weights_strictly_positive_off_equilibrium():
    th = ThermoState(2.0, -0.2, 3.0, 0.4)
    E = np.linspace(-5.0, 5.0, 41)
    *_, varsigma = weights(th, E)
    assert np.all(varsigma > 0.0)


def test_weights_sign_change_at_e_c():
    th = ThermoState(2.0, -0.3, 5.0, 0.4)
    e_c = sign_change_energy(th)
    assert e_c == pytest.approx((5.0 * 0.4 - 2.0 * (-0.3)) / (5.0 - 2.0))
    _, _, _, d_minus, _ = weights(th, e_c - 1e-3)
    _, _, _, d_plus, _ = weights(th, e_c + 1e-3)
    assert d_minus * d_plus < 0.0
    _, _, _, d_at, _ = weights(th, e_c)
    assert d_at == pytest.approx(0.0, abs=1e-12)


def test_sign_change_requires_distinct_betas():
    with pytest.raises(DomainError):
        sign_change_energy(ThermoState(2.0, -1.0, 2.0, 1.0))


def test_weights_infinite_beta_entropy():
    th = ThermoState(math.inf, -1.0, math.inf, 1.0)
    *_, varsigma = weights(th, np.array([-2.0, 0.0, 2.0]))
    assert varsigma[0] == 0.0 and varsigma[2] == 0.0
    assert math.isinf(varsigma[1]) and varsigma[1] > 0


def test_integrate_bands_constant(free_chain):
    spectrum = band_spectrum(free_chain)
    (value,), (err,) = _adaptive_panels(spectrum, lambda E: np.ones_like(E), QuadratureConfig())
    assert value == pytest.approx(4.0, abs=1e-12)
    assert err >= abs(value - 4.0) - ROUNDING * 4.0


def test_integrate_bands_odd_function(free_chain):
    spectrum = band_spectrum(free_chain)
    (value,), _ = _adaptive_panels(spectrum, lambda E: E, QuadratureConfig())
    assert value == pytest.approx(0.0, abs=1e-8)


def test_integrate_bands_indicator_measures_thouless(dimer):
    spectrum = band_spectrum(dimer)
    lo, hi = -1.0, 1.2
    (value,), _ = _adaptive_panels(
        spectrum,
        lambda E: ((E >= lo) & (E <= hi)).astype(float),
        QuadratureConfig(),
        breakpoints=(lo, hi),
    )
    expected = thouless_conductance(dimer, (lo, hi)) * 2.0 * np.pi * (hi - lo)
    assert value == pytest.approx(expected, abs=1e-12)


def test_repeated_breakpoint_splits_once(free_chain):
    # the same lead on both sides repeats its support edges as breakpoints
    spectrum = band_spectrum(free_chain)
    results = []
    for cuts in [(0.3,), (0.3, 0.3)]:
        sizes = []

        def integrand(E):
            sizes.append(E.size)
            return np.sqrt(np.abs(E - 0.3))

        (value,), _ = _adaptive_panels(spectrum, integrand, QuadratureConfig(), cuts)
        results.append((value, sum(sizes)))
    assert results[0] == results[1]


def test_integrate_bands_failure_carries_partial(free_chain, monkeypatch):
    spectrum = band_spectrum(free_chain)
    quad = QuadratureConfig(abs_tol=1e-12)
    with _gauss_rule(monkeypatch, panels=1, points=2), pytest.raises(QuadratureError) as exc_info:
        _adaptive_panels(spectrum, lambda E: np.sin(3.0e5 * E + 0.7), quad)
    assert exc_info.value.value is not None


def test_integrate_bands_narrow_lorentzian_refines_locally(free_chain):
    # a peak of half-width 1e-4 needs ~12 halvings around it and none elsewhere
    quad = QuadratureConfig()
    gamma, e0 = 1e-4, 0.3137
    sizes = []

    def lorentzian(E):
        sizes.append(E.size)
        return gamma / ((E - e0) ** 2 + gamma**2)

    (value,), (err,) = _adaptive_panels(band_spectrum(free_chain), lorentzian, quad)
    exact = math.atan((2.0 - e0) / gamma) - math.atan((-2.0 - e0) / gamma)
    assert value == pytest.approx(exact, abs=quad.abs_tol)
    assert err >= abs(value - exact) - ROUNDING * exact
    # the first call holds the coarse level and the first halving
    levels = sum(1 for n in sizes if n)
    uniform_last_level = currents._GAUSS_POINTS * currents._FIRST_PANELS * 2**levels
    assert levels >= 10
    assert sum(sizes) < uniform_last_level / 4


def test_report_error_estimate_and_evaluations(free_chain, monkeypatch):
    seen = []
    weights_orig = currents.weights

    def counting_weights(thermo, E):
        seen.append(int(np.size(E)))
        return weights_orig(thermo, E)

    monkeypatch.setattr(currents, "weights", counting_weights)
    th = ThermoState(math.inf, 2.5, math.inf, -2.5)  # bias window covers the band
    rep = thouless_currents(free_chain, th)
    exact = 4.0 / (2.0 * np.pi)
    assert rep.i_l == pytest.approx(exact, abs=1e-12)
    assert rep.error_estimate >= abs(rep.i_l - exact) - ROUNDING * exact
    assert math.isinf(rep.entropy_j) and math.isfinite(rep.error_estimate)
    assert rep.evaluations == sum(seen) > 0


def test_quadrature_never_evaluates_an_empty_array(dimer, wide_lead, monkeypatch):
    # m comes from the coarse level, so no call is spent learning it
    sizes = []
    weights_orig = currents.weights

    def recording_weights(thermo, E):
        sizes.append(int(np.size(E)))
        return weights_orig(thermo, E)

    def first_call(n_cells):
        # two bands, 8 + 2N coarse panels and their halves of 12 nodes each
        return 2 * 3 * (8 + 2 * n_cells) * 12

    monkeypatch.setattr(currents, "weights", recording_weights)
    th = ThermoState(2.0, 0.3, 3.0, -0.3)
    rep = lb_currents(dimer, wide_lead, wide_lead, 0.7, 4, th)
    assert sizes == [first_call(4)] and rep.evaluations == first_call(4)
    sizes.clear()
    rep = lb_currents(dimer, wide_lead, wide_lead, 0.7, 64, th)  # refines past the first call
    assert len(sizes) >= 2 and min(sizes) > 0
    assert sizes[0] == first_call(64)
    assert rep.evaluations == sum(sizes)


def test_quadrature_without_segments_returns_zeros_of_the_integrand_shape():
    spectrum = BandSpectrum(((0.3, 0.3),))
    vals, errs = _adaptive_panels(spectrum, lambda E: np.vstack([E, E, E]), QuadratureConfig())
    np.testing.assert_array_equal(vals, np.zeros(3))
    np.testing.assert_array_equal(errs, np.zeros(3))


def test_gauss_rule_is_built_once_per_order(free_chain, monkeypatch):
    built = []
    leggauss = np.polynomial.legendre.leggauss

    def counting_leggauss(n):
        built.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting_leggauss)
    currents._gauss_legendre.cache_clear()
    th = ThermoState(2.0, 0.3, 2.0, -0.3)
    thouless_currents(free_chain, th)
    thouless_currents(free_chain, th)
    assert built == [currents._GAUSS_POINTS]


def test_report_evaluations_are_pinned(free_chain, dimer, wide_lead):
    # integrand energies per report; a change here is a change in the work done
    th = ThermoState(2.0, 0.3, 3.0, -0.3)
    window = ThermoState(math.inf, -0.8, math.inf, 1.1)
    own_r = CrystallineLead(dimer, "r")
    reports = [
        thouless_currents(free_chain, th),
        thouless_currents(dimer, window),
        crystalline_currents(dimer, wide_lead, wide_lead, 0.7, th),
        crystalline_currents(dimer, wide_lead, own_r, 0.7, window),
        lb_currents(dimer, wide_lead, wide_lead, 0.7, 4, th),
    ]
    assert [r.evaluations for r in reports] == [288, 1152, 576, 1152, 1152]


def test_report_integrand_calls_are_pinned(free_chain, dimer, wide_lead, monkeypatch):
    # the coarse level and the first halving share one call, and a T_N piece
    # starts with 8 + 2N panels, so every report here converges in that call
    calls = []
    weights_orig = currents.weights

    def counting_weights(thermo, E):
        calls[-1] += 1
        return weights_orig(thermo, E)

    monkeypatch.setattr(currents, "weights", counting_weights)
    th = ThermoState(2.0, 0.3, 3.0, -0.3)
    window = ThermoState(math.inf, -0.8, math.inf, 1.1)
    own_r = CrystallineLead(dimer, "r")
    reports = [
        lambda: thouless_currents(free_chain, th),
        lambda: thouless_currents(dimer, window),
        lambda: crystalline_currents(dimer, wide_lead, wide_lead, 0.7, th),
        lambda: crystalline_currents(dimer, wide_lead, own_r, 0.7, window),
        lambda: lb_currents(dimer, wide_lead, wide_lead, 0.7, 4, th),
        lambda: lb_currents(dimer, wide_lead, wide_lead, 0.7, 16, th),
    ]
    for report in reports:
        calls.append(0)
        report()
    assert calls == [1, 1, 1, 1, 1, 1]


def test_lb_currents_on_a_resonant_narrow_band_case_meet_abs_tol():
    # the 6th selfcheck configuration of seed 11: L = 7, bands as narrow as 3e-3;
    # reference from QuadratureConfig(abs_tol=1e-12) on 64 first-level panels
    # of 24 points
    rng = np.random.default_rng(11)
    for _ in range(6):
        sample, lead_l, lead_r, kappa = random_configuration(rng)
    assert sample.length == 7
    quad = QuadratureConfig()
    rep = lb_currents(sample, lead_l, lead_r, kappa, 16, _CHECK_STATES[2], quad)
    assert rep.phi_l == pytest.approx(-5.3494399394251775e-05, abs=quad.abs_tol)
    assert rep.i_l == pytest.approx(0.000546130161146834, abs=quad.abs_tol)
    assert rep.entropy_j == pytest.approx(0.0006308462271199382, abs=quad.abs_tol)


def test_lb_estimate_bounds_the_error_on_a_narrow_band(monkeypatch):
    # the band [2.5669, 2.5700] of the resonant case above, integrated alone:
    # with 8 first-level panels its entropy current was 6.4e-9 off against an
    # estimate of 7.9e-10; 8 + 2N panels put the error under the estimate
    rng = np.random.default_rng(11)
    for _ in range(6):
        sample, lead_l, lead_r, kappa = random_configuration(rng)
    narrow = BandSpectrum((band_spectrum(sample).bands[-1],))
    assert narrow.measure() < 4e-3
    spectrum_of = currents.band_spectrum
    monkeypatch.setattr(
        currents, "band_spectrum", lambda s: narrow if s == sample else spectrum_of(s)
    )

    def report(quad):
        return lb_currents(sample, lead_l, lead_r, kappa, 16, _CHECK_STATES[2], quad)

    quad = QuadratureConfig()
    rep = report(quad)
    with _gauss_rule(monkeypatch, panels=64, points=24):
        ref = report(QuadratureConfig(abs_tol=1e-12))
    error = max(abs(getattr(rep, f) - getattr(ref, f)) for f in ("phi_l", "i_l", "entropy_j"))
    assert error <= rep.error_estimate <= quad.abs_tol


def test_lb_n64_converges_with_local_refinement():
    # uniform panel doubling gives up on this config; local halving resolves
    # the band-edge resonances of T_64
    sample = SampleSpec((), (-0.92,), 0.67)
    lead_l, lead_r = HalfLineLead(1.79, -0.95), HalfLineLead(1.49, -0.93)
    quad = QuadratureConfig()
    rep = lb_currents(sample, lead_l, lead_r, 0.42, 64, ThermoState(2.0, 0.3, 2.0, -0.3), quad)
    assert max(rep.conservation_residuals) <= 2 * quad.abs_tol
    assert rep.entropy_balance_residual <= 3 * quad.abs_tol
    assert rep.entropy_j >= -quad.abs_tol
    assert math.isfinite(rep.error_estimate)


def test_lb_n256_converges_with_a_first_level_growing_with_n(monkeypatch):
    # the 2nd random_configuration draw of rng seed 2 (L = 3): with 8 panels
    # per piece for every N, lb_currents raised QuadratureError at N = 256
    rng = np.random.default_rng(2)
    for _ in range(2):
        sample, lead_l, lead_r, kappa = random_configuration(rng)
    thermo, quad = _CHECK_STATES[1], QuadratureConfig()
    rep = lb_currents(sample, lead_l, lead_r, kappa, 256, thermo, quad)
    with _gauss_rule(monkeypatch, panels=64, points=24):
        ref = lb_currents(sample, lead_l, lead_r, kappa, 256, thermo,
                          QuadratureConfig(abs_tol=1e-11))
    error = max(abs(getattr(rep, f) - getattr(ref, f)) for f in ("phi_l", "i_l", "entropy_j"))
    assert error <= rep.error_estimate <= quad.abs_tol


def test_t_n_calls_stay_within_the_finest_grid_at_large_n(dimer, wide_lead, monkeypatch):
    # the first level _FIRST_PANELS + 2N is capped at _FIRST_PANELS << 11
    # per piece, and refinement stops before a call would exceed the finest
    # grid of a _FIRST_PANELS start, _FIRST_PANELS << 13 per piece: at
    # N = 10^6 no call is larger than with a flat _FIRST_PANELS start
    sizes = []
    weights_orig = currents.weights

    def recording_weights(thermo, E):
        sizes.append(int(np.size(E)))
        return weights_orig(thermo, E)

    monkeypatch.setattr(currents, "weights", recording_weights)
    monkeypatch.setattr(currents, "_FIRST_PANELS", 1)
    monkeypatch.setattr(currents, "_GAUSS_POINTS", 4)
    quad = QuadratureConfig()
    finest = 2 * (1 << 13) * 4  # two bands
    th = ThermoState(2.0, 0.3, 3.0, -0.3)
    with pytest.raises(QuadratureError, match="after 2 panel halvings"):
        lb_currents(dimer, wide_lead, wide_lead, 0.7, 10**6, th, quad)
    assert sizes[0] == 2 * 3 * (1 << 11) * 4 and max(sizes) <= finest

    def recording_weight(E):
        sizes.append(int(np.size(E)))
        return np.ones_like(E)

    sizes.clear()
    (row,) = convergence_study(dimer, wide_lead, wide_lead, 0.7, recording_weight, [10**6], quad)
    assert not row.converged and math.isfinite(row.integral_n)
    assert max(sizes) <= finest


@pytest.mark.parametrize("n_cells", [None, 4], ids=["crystalline", "finite_N4"])
def test_lead_support_edges_inside_a_band_are_breakpoints(n_cells, monkeypatch):
    # the L=1 sample's band [-2.118, 2.142] holds all three bands of the left
    # lead's sample, so T has square-root kinks at their edges inside it
    sample = SampleSpec((), (0.01206,), 1.0651)
    lead_sample = SampleSpec((0.7520, 0.5952), (-0.7737, -0.4388, 0.1850), 0.8432)
    lead_l, lead_r = CrystallineLead(lead_sample, "l"), HalfLineLead(1.5, -0.2)
    thermo = ThermoState(2.0, -0.5, 3.0, 0.5)

    def report(quad):
        if n_cells is None:
            return crystalline_currents(sample, lead_l, lead_r, 0.8, thermo, quad)
        return lb_currents(sample, lead_l, lead_r, 0.8, n_cells, thermo, quad)

    quad = QuadratureConfig()
    rep = report(quad)
    with _gauss_rule(monkeypatch, panels=64, points=24):
        ref = report(QuadratureConfig(abs_tol=1e-11))
    assert rep.i_l == pytest.approx(ref.i_l, abs=quad.abs_tol)
    assert max(rep.conservation_residuals) <= 2.0 * quad.abs_tol


def test_lb_equilibrium_all_zero(free_chain, free_lead):
    th = ThermoState(2.0, 0.1, 2.0, 0.1)
    rep = lb_currents(free_chain, free_lead, free_lead, 1.3, 4, th)
    for v in (rep.phi_l, rep.phi_r, rep.i_l, rep.i_r, rep.entropy_j):
        assert v == pytest.approx(0.0, abs=1e-8)


def test_lb_matched_zero_temperature_charge(free_chain, free_lead):
    # T == 1 on [-2, 2]: I_r = (mu_r - mu_l)/(2 pi) = 4/(2 pi)
    th = ThermoState(math.inf, -2.0, math.inf, 2.0)
    rep = lb_currents(free_chain, free_lead, free_lead, 1.0, 3, th)
    assert rep.i_r == pytest.approx(4.0 / (2.0 * np.pi), abs=1e-12)
    assert rep.i_l == pytest.approx(-rep.i_r, abs=1e-12)


def test_lb_conservation_and_balance(rng):
    th = ThermoState(2.0, -0.3, 3.5, 0.2)
    for _ in range(5):
        s, lead_l, lead_r, kappa = random_configuration(rng, max_sites=4)
        rep = lb_currents(s, lead_l, lead_r, kappa, 3, th)
        assert rep.conservation_residuals[0] <= 2e-8
        assert rep.conservation_residuals[1] <= 2e-8
        assert rep.entropy_balance_residual <= 3e-8
        assert rep.entropy_j >= -1e-8


def test_crystalline_matched_equals_thouless(dimer):
    th = ThermoState(3.0, -0.8, 1.5, 0.9)
    lead_l, lead_r = CrystallineLead(dimer, "l"), CrystallineLead(dimer, "r")
    rep_c = crystalline_currents(dimer, lead_l, lead_r, dimer.kappa_s, th)
    rep_t = thouless_currents(dimer, th)
    assert rep_c.phi_r == pytest.approx(rep_t.phi_r, abs=1e-12)
    assert rep_c.i_r == pytest.approx(rep_t.i_r, abs=1e-12)
    assert rep_c.entropy_j == pytest.approx(rep_t.entropy_j, abs=1e-12)


def test_crystalline_mismatch_below_thouless(free_chain, free_lead):
    th = ThermoState(math.inf, -2.0, math.inf, 2.0)
    rep_c = crystalline_currents(free_chain, free_lead, free_lead, SQRT2, th)
    rep_t = thouless_currents(free_chain, th)
    assert rep_c.i_r < rep_t.i_r
    assert rep_t.i_r == pytest.approx(4.0 / (2.0 * np.pi), abs=1e-12)


def test_entropy_infinite_at_zero_temperature_bias(free_chain, free_lead):
    th = ThermoState(math.inf, -1.0, math.inf, 1.0)
    rep = thouless_currents(free_chain, th)
    assert math.isinf(rep.entropy_j) and rep.entropy_j > 0
    assert math.isnan(rep.entropy_balance_residual)


def test_thouless_dominance_entropy(rng):
    th = ThermoState(2.0, -0.4, 4.0, 0.3)
    for _ in range(5):
        s, lead_l, lead_r, kappa = random_configuration(rng, max_sites=4)
        rep_inf = crystalline_currents(s, lead_l, lead_r, kappa, th)
        rep_th = thouless_currents(s, th)
        assert rep_inf.entropy_j <= rep_th.entropy_j + 1e-8
        assert max(rep_th.conservation_residuals) <= 2e-8
        assert rep_th.entropy_balance_residual <= 3e-8


def _inject(monkeypatch, defect):
    """A defect in `weights`, seen wherever the library binds the function."""
    true_weights = currents.weights

    def defective(thermo, E):
        return defect(*true_weights(thermo, E))

    monkeypatch.setattr(currents, "weights", defective)
    monkeypatch.setattr(selfcheck, "weights", defective)


@pytest.mark.parametrize(
    "defect, caught_by",
    [
        (lambda zl, zr, dl, dr, vs: (zl, zr, dl, dr, vs * 1.001), "thouless_dominance"),
        (lambda zl, zr, dl, dr, vs: (zl, zr, dl, -dl * (1.0 + 1e-12), vs), "conservation_entropy"),
        (lambda zl, zr, dl, dr, vs: (zl, zr, dl, dr, -vs), "conservation_entropy"),
    ],
    ids=["varsigma_scaled", "delta_r_perturbed", "varsigma_flipped"],
)
def test_selfcheck_catches_a_defect_in_weights(monkeypatch, defect, caught_by):
    check = getattr(selfcheck, f"check_{caught_by}")
    assert check(np.random.default_rng(0), 5).passed
    _inject(monkeypatch, defect)
    result = check(np.random.default_rng(0), 5)
    assert not result.passed, result
    if caught_by == "thouless_dominance":
        # both reports scale alike, so only the entropy balance residual sees it
        balance = float(result.detail.split("balance ")[1].split(",")[0])
        assert balance > 3.0 * QuadratureConfig().abs_tol, result


def test_conservation_entropy_builds_no_report(monkeypatch):
    calls = []

    def counted(module, name):
        true = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(name) or true(*a, **k))

    counted(selfcheck, "crystalline_currents")
    counted(selfcheck, "thouless_currents")
    counted(currents, "_adaptive_panels")
    assert selfcheck.check_conservation_entropy(np.random.default_rng(0), 5).passed
    assert calls == []
    assert selfcheck.check_thouless_dominance(np.random.default_rng(0), 1).passed
    assert sorted(set(calls)) == ["_adaptive_panels", "crystalline_currents", "thouless_currents"]


# at E_c the computed zetas are 1 ulp apart and the computed occupations 1 ulp
# apart the wrong way round: correct weights give varsigma = -6.2e-33 and -1.2e-32
SIGN_CHANGE_STATES = (ThermoState(2.5, 0.96, 1.0, 0.51), ThermoState(0.9, -0.08, 3.3, 0.64))


def test_conservation_entropy_allows_rounding_at_the_sign_change(monkeypatch):
    for state in SIGN_CHANGE_STATES:
        assert weights(state, sign_change_energy(state))[4] < 0.0
    monkeypatch.setattr(selfcheck, "_CHECK_STATES", SIGN_CHANGE_STATES)
    assert selfcheck.check_conservation_entropy(np.random.default_rng(0), 2).passed
    monkeypatch.setattr(selfcheck, "_DELTA_ROUNDING", 0.0)
    assert not selfcheck.check_conservation_entropy(np.random.default_rng(0), 2).passed


def test_thouless_conductance_gap_only_enlargement(dimer):
    # adding gap-only measure to the window dilutes g_Th
    g_band = thouless_conductance(dimer, (0.5, 1.5))
    g_diluted = thouless_conductance(dimer, (0.0, 1.5))
    assert g_diluted < g_band
    assert g_diluted == pytest.approx(g_band * (1.0 / 1.5), abs=1e-14)


def test_zero_temperature_conductance_matched(dimer):
    lead_l, lead_r = CrystallineLead(dimer, "l"), CrystallineLead(dimer, "r")
    g, g_th = zero_temperature_conductance(dimer, lead_l, lead_r, dimer.kappa_s, -1.6, 1.6)
    assert g_th == pytest.approx(thouless_conductance(dimer, (-1.6, 1.6)), abs=1e-15)
    assert g == pytest.approx(g_th, abs=1e-12)


def test_zero_temperature_conductance_mismatch_strict(free_chain, free_lead):
    g, g_th = zero_temperature_conductance(free_chain, free_lead, free_lead, SQRT2, -2.0, 2.0)
    assert g < g_th - 1e-3


def test_zero_temperature_conductance_gap_window(dimer, wide_lead):
    g, g_th = zero_temperature_conductance(dimer, wide_lead, wide_lead, 1.0, -0.4, 0.4)
    assert g == pytest.approx(0.0, abs=1e-10)
    assert g_th == 0.0


@pytest.mark.parametrize(
    "window",
    [(-1.0, 1.2), (-0.4, 0.4), (np.float64(-1.0), np.float64(1.2)),
     (np.float64(-0.4), np.float64(0.4))],
    ids=["band", "gap", "band_numpy", "gap_numpy"],
)
def test_conductances_are_python_floats(dimer, wide_lead, window):
    assert type(thouless_conductance(dimer, window)) is float
    g, g_th = zero_temperature_conductance(dimer, wide_lead, wide_lead, 1.0, *window)
    assert type(g) is float and type(g_th) is float


def test_zero_temperature_conductance_reads_the_cached_spectrum(dimer, wide_lead, monkeypatch):
    from thouless_lab import jacobi

    band_spectrum(dimer)  # warm the cache
    expected = thouless_conductance(dimer, (-1.0, 1.2))
    solves = []
    eigenvalues = jacobi.bloch_eigenvalues
    monkeypatch.setattr(jacobi, "bloch_eigenvalues", lambda *a: solves.append(a) or eigenvalues(*a))
    g, g_th = zero_temperature_conductance(
        dimer, wide_lead, wide_lead, 1.0, np.float64(-1.0), np.float64(1.2)
    )
    assert g_th == expected
    # a window in the gap: g_th is the Python float 0.0 for numpy chemical potentials too
    _, g_gap = zero_temperature_conductance(
        dimer, wide_lead, wide_lead, 1.0, np.float64(-0.4), np.float64(0.4)
    )
    assert type(g_gap) is float and g_gap == 0.0
    assert solves == []


@pytest.mark.parametrize(
    "kwargs",
    [{"panels_per_band": 2.5}, {"panels_per_band": 8.0}, {"points_per_panel": True},
     {"points_per_panel": "12"}],
    ids=["panels_float", "panels_integral_float", "points_bool", "points_string"],
)
def test_removed_quadrature_counts_are_refused(kwargs):
    # the panel count and Gauss order are constants of _adaptive_panels
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        QuadratureConfig(**kwargs)
    assert [f.name for f in dataclasses.fields(QuadratureConfig)] == ["abs_tol"]


@pytest.mark.parametrize("abs_tol", [True, "1e-8", None, [1e-8]])
def test_abs_tol_must_be_a_real_number(abs_tol):
    with pytest.raises(DomainError, match="expected a number"):
        QuadratureConfig(abs_tol=abs_tol)
    tol = QuadratureConfig(abs_tol=np.float32(0.5)).abs_tol
    assert type(tol) is float and tol == 0.5


def test_zero_temperature_conductance_window_validation(dimer, wide_lead):
    with pytest.raises(DomainError):
        zero_temperature_conductance(dimer, wide_lead, wide_lead, 1.0, 1.0, 1.0)


def test_convergence_matched_zero_difference(free_chain, free_lead):
    rows = convergence_study(
        free_chain,
        free_lead,
        free_lead,
        1.0,
        lambda E: ((E >= -1.5) & (E <= 1.5)).astype(float),
        [1, 4, 16],
        QuadratureConfig(abs_tol=1e-6),
        breakpoints=(-1.5, 1.5),
    )
    for row in rows:
        assert row.converged
        assert row.abs_diff <= 1e-5


def test_convergence_mismatch_improves(free_chain, free_lead):
    rows = convergence_study(
        free_chain,
        free_lead,
        free_lead,
        SQRT2,
        lambda E: ((E >= -1.5) & (E <= 1.5)).astype(float),
        [1, 2, 4, 8, 16, 32, 64],
        QuadratureConfig(abs_tol=1e-6),
        breakpoints=(-1.5, 1.5),
    )
    first = rows[0].abs_diff
    trailing = min(r.abs_diff for r in rows[-3:])
    assert trailing < 0.5 * first
    assert all(r.converged for r in rows)


def test_convergence_on_a_smooth_weight_falls_as_n_to_the_minus_4():
    # e^{-E^2} is smooth on every band: the rows fell 14.5-20.6x per doubling
    # on these draws, and 16.0-16.4x at the last one
    rng = np.random.default_rng(5)
    for _ in range(4):
        sample, lead_l, lead_r, kappa = random_configuration(rng)
        rows = convergence_study(sample, lead_l, lead_r, kappa, lambda E: np.exp(-E**2),
                                 [8, 16, 32, 64, 128], QuadratureConfig(abs_tol=1e-12))
        assert all(row.converged for row in rows)
        diffs = [row.abs_diff for row in rows]
        assert all(a >= 10.0 * b for a, b in zip(diffs, diffs[1:])), diffs


def test_convergence_with_a_jump_inside_a_band_has_no_n_to_the_minus_4_rate():
    # an indicator jumping at 37 % of the widest band (a zero-temperature
    # occupation): max(row 32, row 64) / row 8 measured 0.20-0.45 on these
    # draws, where an N^-4 rate would give 1/4096
    rng = np.random.default_rng(5)
    for _ in range(4):
        sample, lead_l, lead_r, kappa = random_configuration(rng)
        lo, hi = max(band_spectrum(sample).bands, key=lambda band: band[1] - band[0])
        jump = lo + 0.37 * (hi - lo)
        rows = convergence_study(sample, lead_l, lead_r, kappa,
                                 lambda E: (E <= jump).astype(float), [8, 16, 32, 64],
                                 breakpoints=(jump,))
        assert all(row.converged for row in rows)
        diffs = [row.abs_diff for row in rows]
        assert max(diffs[2], diffs[3]) > diffs[0] / 100.0, diffs


def test_convergence_n_list_validation(free_chain, free_lead):
    for n_list in ([4, 2], [1, 1], []):
        with pytest.raises(DomainError, match="n_list must be nonempty and strictly increasing"):
            convergence_study(free_chain, free_lead, free_lead, 1.0, np.ones_like, n_list)


def test_convergence_rows_match_series_oracle(free_chain, free_lead):
    # independent oracle: integrate the truncated oscillation series
    # T_inf sum_k r^{|k|} e^{ik(2N theta + vartheta)} term-by-term
    from thouless_lab.transport import _r_theta_values

    kappa = SQRT2
    spectrum = band_spectrum(free_chain)
    window = (-1.5, 1.5)
    weight = lambda E: ((E >= window[0]) & (E <= window[1])).astype(float)
    n_list = [1, 3, 9]
    rows = convergence_study(
        free_chain, free_lead, free_lead, kappa, weight, n_list,
        QuadratureConfig(abs_tol=1e-8), breakpoints=window,
    )
    ks = np.arange(-200, 201)

    def series_integrand(E, n):
        from thouless_lab import transmittance_inf

        r, vth, theta, live = _r_theta_values(free_chain, free_lead, free_lead, kappa, E)
        t_inf = transmittance_inf(free_chain, free_lead, free_lead, kappa, E)
        phases = np.outer(ks, 2.0 * n * theta + vth)
        series = np.sum(r ** np.abs(ks)[:, None] * np.exp(1j * phases), axis=0).real
        return np.where(live, t_inf * series * weight(E), 0.0)

    for row in rows:
        (oracle,), _ = _adaptive_panels(
            spectrum,
            lambda E: series_integrand(E, row.n_cells),
            QuadratureConfig(abs_tol=1e-8),
            breakpoints=window,
            panels=currents._FIRST_PANELS + 2 * row.n_cells,
        )
        assert row.integral_n == pytest.approx(oracle, abs=1e-6)


def test_thouless_finite_temperature_matches_scipy_quad(dimer):
    from scipy.integrate import quad

    th = ThermoState(2.0, 0.3, 3.0, -0.3)
    rep = thouless_currents(dimer, th)
    rows = [lambda E: E * weights(th, E)[2], lambda E: weights(th, E)[2],
            lambda E: weights(th, E)[4]]
    ref = [
        sum(quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            for lo, hi in band_spectrum(dimer).bands) / (2.0 * np.pi)
        for f in rows
    ]
    assert rep.phi_l == pytest.approx(ref[0], rel=1e-12)
    assert rep.i_l == pytest.approx(ref[1], rel=1e-12)
    assert rep.entropy_j == pytest.approx(ref[2], rel=1e-12)


def test_lb_n64_band_edge_probe_converges():
    # the L = 8 probe on which the edge-margin driver ran out of halvings at N = 64
    sample = SampleSpec(
        (1.1320224729156383, 1.4123263478025152, 1.0032652071732209, 1.673556947311417,
         1.0162391549186656, 1.2761439946502247, 0.6968736013020769),
        (-0.19609675242641722, 0.9166603521258949, 0.2898221804398242, 0.9901787539306031,
         -0.4896841337851334, -0.22050933527879368, 0.18475348854240203, 0.3646900515396776),
        1.2398023375682425,
    )
    lead_l = HalfLineLead(2.3532867372326614, 0.19273018229650382)
    lead_r = HalfLineLead(2.2471114810132335, 0.2390490204143807)
    quad = QuadratureConfig()
    rep = lb_currents(sample, lead_l, lead_r, 0.4984770366341971, 64,
                      ThermoState(2.0, 0.3, 2.0, -0.3), quad)
    assert rep.error_estimate < quad.abs_tol / (2.0 * np.pi)
    assert rep.entropy_balance_residual <= 3 * quad.abs_tol


def test_quadrature_config_is_keyword_only():
    # an old positional edge_margin must not silently become abs_tol
    with pytest.raises(TypeError):
        QuadratureConfig(8, 12, 1e-4)

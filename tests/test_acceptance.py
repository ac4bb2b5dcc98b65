"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines and timings.
"""

import math
import time

import numpy as np

from thouless_lab import (
    CrystallineLead,
    HalfLineLead,
    QuadratureConfig,
    SampleSpec,
    ThermoState,
    band_spectrum,
    convergence_study,
    crystalline_currents,
    one_period_transfer,
    thouless_conductance,
    thouless_currents,
    transmittance_inf,
    transmittance_n,
)
from thouless_lab.selfcheck import (
    check_graph_map,
    check_m_identities,
    check_oracle_equivalence,
    covering_halfline,
    random_sample,
)

from test_jacobi import assert_interlacing

FREE_CHAIN = SampleSpec(hop=(), onsite=(0.0,), kappa_s=1.0)
FREE_LEAD = HalfLineLead(t=1.0, v0=0.0)
SQRT2 = math.sqrt(2.0)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_reflectionless_saturation():
    start = time.perf_counter()
    grid = np.linspace(-1.99, 1.99, 500)
    worst = 0.0
    lead_pairs = [
        (FREE_LEAD, FREE_LEAD),
        (CrystallineLead(FREE_CHAIN, "l"), CrystallineLead(FREE_CHAIN, "r")),
    ]
    for lead_l, lead_r in lead_pairs:
        for n in (1, 5, 20, 200):
            T = transmittance_n(FREE_CHAIN, lead_l, lead_r, 1.0, n, grid)
            worst = max(worst, float(np.max(np.abs(T - 1.0))))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1 (reflectionless saturation)",
        worst <= 1e-9 and elapsed < 1.0,
        f"max |T_N - 1| = {worst:.3e} (<= 1e-9), runtime {elapsed:.2f} s (< 1 s)",
    )


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1905)
    result = check_oracle_equivalence(rng, n_configs=50, grid_points=200)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 2 (oracle equivalence)",
        result.passed and elapsed < 30.0,
        f"{result.detail} (<= 1e-8), runtime {elapsed:.1f} s (< 30 s)",
    )


def test_criterion_3_analytic_spot_values():
    t_inf = transmittance_inf(FREE_CHAIN, FREE_LEAD, FREE_LEAD, SQRT2, 0.0)
    ok_t = abs(t_inf - 0.8) <= 1e-10

    g_th = thouless_conductance(FREE_CHAIN, (-2.0, 2.0))
    ok_g = abs(g_th - 1.0 / (2.0 * math.pi)) <= 1e-12

    thermo = ThermoState(math.inf, -2.0, math.inf, 2.0)
    report = thouless_currents(FREE_CHAIN, thermo)
    target = 4.0 / (2.0 * math.pi)
    ok_i = abs(report.i_r - target) <= 1e-12

    _report(
        "criterion 3 (analytic spot values)",
        ok_t and ok_g and ok_i,
        f"T_inf(0) = {t_inf:.12f} (0.8 ± 1e-10); "
        f"g_Th = {g_th:.15f} (1/2pi ± 1e-12); "
        f"<I_r>_Th = {report.i_r:.15f} ({target:.15f} ± 1e-12)",
    )


def test_criterion_4_weak_convergence():
    start = time.perf_counter()
    window = (-1.5, 1.5)

    def weight(E):
        return ((E >= window[0]) & (E <= window[1])).astype(float)

    n_list = [1, 2, 4, 8, 16, 32, 64, 128, 256]
    rows = convergence_study(
        FREE_CHAIN,
        FREE_LEAD,
        FREE_LEAD,
        SQRT2,
        weight,
        n_list,
        QuadratureConfig(abs_tol=1e-6),
        breakpoints=window,
    )
    int_f = window[1] - window[0]  # integral of the indicator weight
    first_diff = rows[0].abs_diff
    trailing_min = min(r.abs_diff for r in rows[-5:])
    elapsed = time.perf_counter() - start
    ok = (
        all(r.converged for r in rows)
        and trailing_min <= 0.02 * int_f
        and trailing_min <= 0.2 * first_diff
        and elapsed < 60.0
    )
    table = ", ".join(f"N={r.n_cells}:{r.abs_diff:.4f}" for r in rows)
    _report(
        "criterion 4 (weak convergence, Theorem-2 property)",
        ok,
        f"trailing-5 min {trailing_min:.4f} <= 0.02*∫f = {0.02 * int_f:.4f} and "
        f"<= 0.2*N1 = {0.2 * first_diff:.4f}; rows [{table}]; "
        f"runtime {elapsed:.1f} s (< 60 s)",
    )


_THERMO_STATES = (
    ThermoState(2.0, -0.3, 2.0, 0.4),     # equal beta, biased mu (part 3 precondition)
    ThermoState(5.0, 0.2, 1.0, 0.2),      # equal mu, different beta
    ThermoState(3.0, -0.5, 1.5, 0.5),     # generic
    ThermoState(2.5, 0.1, 2.5, 0.1),      # equilibrium
    ThermoState(1.0, -0.2, 4.0, 0.3),     # generic reversed gradient
)


def test_criterion_5_conservation_entropy_dominance():
    rng = np.random.default_rng(42)
    quad = QuadratureConfig()
    tol = quad.abs_tol
    worst_cons = 0.0
    worst_bal = 0.0
    worst_j = 0.0
    worst_dom_j = -math.inf
    worst_dom_i = -math.inf
    for _ in range(50):
        sample = random_sample(rng, max_sites=5)
        spectrum = band_spectrum(sample)
        lead_l = covering_halfline(spectrum, rng)
        lead_r = covering_halfline(spectrum, rng)
        kappa = float(rng.uniform(0.4, 1.6))
        for thermo in _THERMO_STATES:
            rep = crystalline_currents(sample, lead_l, lead_r, kappa, thermo, quad)
            rep_th = thouless_currents(sample, thermo, quad)
            worst_cons = max(worst_cons, *rep.conservation_residuals)
            worst_bal = max(worst_bal, rep.entropy_balance_residual)
            worst_j = min(worst_j, rep.entropy_j)
            worst_dom_j = max(worst_dom_j, rep.entropy_j - rep_th.entropy_j)
            if thermo.beta_l == thermo.beta_r and thermo.mu_l < thermo.mu_r:
                worst_dom_i = max(worst_dom_i, rep.i_r - rep_th.i_r)
    ok = (
        worst_cons <= 2.0 * tol
        and worst_bal <= 3.0 * tol
        and worst_j >= -tol
        and worst_dom_j <= tol
        and worst_dom_i <= tol
    )
    _report(
        "criterion 5 (conservation/entropy/dominance)",
        ok,
        f"conservation {worst_cons:.2e} (<= {2 * tol:.0e}); "
        f"balance {worst_bal:.2e} (<= {3 * tol:.0e}); min <J> {worst_j:.2e}; "
        f"max <J>_inf - <J>_Th = {worst_dom_j:.2e}; "
        f"max <I_r>_inf - <I_r>_Th = {worst_dom_i:.2e}",
    )


def test_criterion_5_part2_energy_dominance_sign_definite():
    # mu <= inf sp(h_crystal) with the spectrum shifted positive, beta_l > beta_r:
    # E Delta_r >= 0 on the spectrum, so <Phi_r>_Th dominates
    rng = np.random.default_rng(43)
    quad = QuadratureConfig()
    worst = -math.inf
    for _ in range(10):
        base = random_sample(rng, max_sites=4)
        sample = SampleSpec(
            hop=base.hop,
            onsite=tuple(v + 6.0 for v in base.onsite),
            kappa_s=base.kappa_s,
        )
        spectrum = band_spectrum(sample)
        mu = spectrum.hull[0] - float(rng.uniform(0.0, 1.0))
        thermo = ThermoState(4.0, mu, 1.5, mu)
        lead_l = covering_halfline(spectrum, rng)
        lead_r = covering_halfline(spectrum, rng)
        kappa = float(rng.uniform(0.4, 1.6))
        rep = crystalline_currents(sample, lead_l, lead_r, kappa, thermo, quad)
        rep_th = thouless_currents(sample, thermo, quad)
        worst = max(worst, rep.phi_r - rep_th.phi_r)
    _report(
        "criterion 5 part 2 (energy-current dominance)",
        worst <= quad.abs_tol,
        f"max <Phi_r>_inf - <Phi_r>_Th = {worst:.2e} (<= {quad.abs_tol:.0e})",
    )


def test_criterion_6_structural_identities():
    rng = np.random.default_rng(6)

    worst_det = 0.0
    for _ in range(100):
        s = random_sample(rng)
        for E in rng.uniform(-3.0, 3.0, 3):
            T = one_period_transfer(s, float(E))
            scale = max(1.0, abs(T.a * T.d) + abs(T.b * T.c))
            worst_det = max(worst_det, abs(T.det - 1.0) / scale)
    ok_det = worst_det <= 1e-12

    graph = check_graph_map(rng, n_triples=50)
    identities = check_m_identities(rng, n_samples=25)

    interlace_ok = True
    for _ in range(100):
        try:
            assert_interlacing(random_sample(rng))
        except AssertionError:
            interlace_ok = False
            break

    ok = ok_det and graph.passed and identities.passed and interlace_ok
    _report(
        "criterion 6 (structural identities)",
        ok,
        f"det residual {worst_det:.2e} (<= 1e-12); {graph.detail} (<= 1e-9); "
        f"{identities.detail} (<= 1e-10); interlacing on 100 samples: "
        f"{'ok' if interlace_ok else 'violated'}",
    )


def test_criterion_7_off_spectrum_decay_rate():
    # dimer mid-gap: T_2(0) is diagonal with alpha = -2, so the decay rate is
    # exactly -2 log 2 per repetition; the lead keeps Im F > 0 across the gap
    dimer = SampleSpec(hop=(1.0,), onsite=(0.0, 0.0), kappa_s=0.5)
    lead = HalfLineLead(t=1.2, v0=0.0)
    from thouless_lab import transfer_eigendata

    alpha = transfer_eigendata(dimer, 0.0).alpha
    expected = -2.0 * math.log(abs(alpha))
    ns = np.arange(2, 13)
    logs = [
        math.log(transmittance_n(dimer, lead, lead, 0.9, int(n), 0.0)) for n in ns
    ]
    slope = float(np.polyfit(ns, logs, 1)[0])
    rel = abs(slope - expected) / abs(expected)
    _report(
        "criterion 7 (off-spectrum decay)",
        rel <= 0.05,
        f"fitted slope {slope:.6f} vs -2 log|alpha| = {expected:.6f}, "
        f"relative deviation {rel:.3%} (<= 5%)",
    )

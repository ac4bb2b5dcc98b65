"""The library's one number rule: every real parameter is read by `jacobi._real`/`_finite`.

A bool, a numeric string or None is refused with DomainError wherever the
library takes a real number; numpy reals are accepted and stored as Python floats.
"""

import math
import re

import numpy as np
import pytest

from thouless_lab import (
    CrystallineLead,
    DomainError,
    HalfLineLead,
    QuadratureConfig,
    SampleSpec,
    TabulatedLead,
    ThermoState,
    bloch_eigenvalues,
    fermi_dirac,
    lead_F,
    one_period_transfer,
    thouless_conductance,
    transmittance_inf,
    transmittance_n,
    transmittance_oracle,
    weights,
    zero_temperature_conductance,
)
from thouless_lab.jacobi import transfer_step
from thouless_lab.leads import _check_kappa
from thouless_lab.selfcheck import run_selfcheck

DIMER = SampleSpec((1.0,), (0.0, 0.0), 0.5)
SITE = SampleSpec((), (0.0,), 1.0)  # Brillouin zone [-pi, pi], so k = 2 lies inside
LEAD = HalfLineLead(1.2)

# each slot passes one real number to a constructor and returns the stored value
STORED = {
    "sample_hop": lambda v: SampleSpec((v,), (0.0, 0.0), 0.5).hop[0],
    "sample_onsite": lambda v: SampleSpec((1.0,), (0.0, v), 0.5).onsite[1],
    "sample_kappa_s": lambda v: SampleSpec((1.0,), (0.0, 0.0), v).kappa_s,
    "half_line_t": lambda v: HalfLineLead(v).t,
    "half_line_v0": lambda v: HalfLineLead(1.2, v).v0,
    "beta_l": lambda v: ThermoState(v, 0.0, 1.0, 0.0).beta_l,
    "mu_l": lambda v: ThermoState(1.0, v, 1.0, 0.0).mu_l,
    "beta_r": lambda v: ThermoState(1.0, 0.0, v, 0.0).beta_r,
    "mu_r": lambda v: ThermoState(1.0, 0.0, 1.0, v).mu_r,
    "abs_tol": lambda v: QuadratureConfig(abs_tol=v).abs_tol,
    "kappa": _check_kappa,
}
# each slot passes one real number to an entry point
CALLED = {
    "transmittance_kappa": lambda v: transmittance_n(DIMER, LEAD, LEAD, v, 4, 0.3),
    "transmittance_energy": lambda v: transmittance_n(DIMER, LEAD, LEAD, 1.0, 4, v),
    "lead_F_energy": lambda v: lead_F(LEAD, v),
    "window_lo": lambda v: thouless_conductance(DIMER, (v, 3.0)),
    "window_hi": lambda v: thouless_conductance(DIMER, (-3.0, v)),
    "bloch_k": lambda v: bloch_eigenvalues(SITE, v),
    "zero_temperature_mu_l": lambda v: zero_temperature_conductance(
        DIMER, LEAD, LEAD, 1.0, v, 3.0
    ),
    "zero_temperature_mu_r": lambda v: zero_temperature_conductance(
        DIMER, LEAD, LEAD, 1.0, -3.0, v
    ),
    "fermi_dirac_beta": lambda v: fermi_dirac(v, 0.0, 0.3),
    "fermi_dirac_mu": lambda v: fermi_dirac(1.0, v, 0.3),
    "fermi_dirac_energy": lambda v: fermi_dirac(1.0, 0.0, v),
    "weights_energy": lambda v: weights(ThermoState(1.0, 0.0, 2.0, 0.0), v),
    "one_period_transfer_energy": lambda v: one_period_transfer(DIMER, v),
    "transfer_step_energy": lambda v: transfer_step(DIMER, 1, v),
}


@pytest.mark.parametrize("slot", [*STORED, *CALLED])
def test_every_real_parameter_follows_the_number_rule(slot):
    read = STORED.get(slot) or CALLED[slot]
    for bad in (True, "1.0", None):
        with pytest.raises(DomainError):
            read(bad)
    for good in (np.float32(0.5), np.int64(2)):
        value = read(good)
        if slot in STORED:
            assert type(value) is float and value == float(good)


@pytest.mark.parametrize(
    "energies", [[False, True], ["0", "1"], [0.0, None], [0.0, 1.0 + 0.0j]],
    ids=["bool", "str", "object", "complex"],
)
def test_tabulated_lead_reads_its_energies_by_the_energy_rule(energies):
    # np.asarray(..., dtype=float) would read each of these as [0.0, 1.0]
    with pytest.raises(DomainError, match="energies must be real numbers"):
        TabulatedLead(energies, [0.5j, 0.5j])


def test_tabulated_lead_stores_real_energy_arrays_as_float64():
    for energies in (np.array([0.0, 1.0], dtype=np.float32), np.array([0, 1])):
        lead = TabulatedLead(energies, [np.pi * 1j, np.pi * 1j])
        assert lead.energies.dtype == np.float64
    with pytest.raises(DomainError, match="energies must be finite"):
        TabulatedLead([0.0, math.inf], [0.5j, 0.5j])


def test_transfer_step_reads_its_site_index_by_the_integer_rule():
    for bad in (True, 2.0, "2", None):
        with pytest.raises(DomainError, match="expected an integer"):
            transfer_step(DIMER, bad, 0.3)
    assert transfer_step(DIMER, np.int64(2), 0.3) == transfer_step(DIMER, 2, 0.3)
    with pytest.raises(DomainError, match="site index must be >= 1"):
        transfer_step(DIMER, 0, 0.3)


@pytest.mark.parametrize(
    "values", [["0.5j", "0.5j"], [True, False], [0.5j, None]], ids=["str", "bool", "object"]
)
def test_tabulated_lead_refuses_non_numeric_values(values):
    # np.asarray(..., dtype=complex) would parse the strings and read True as 1+0j
    with pytest.raises(DomainError, match="tabulated values must be numbers"):
        TabulatedLead([0.0, 1.0], values)


def test_scalar_helpers_take_one_energy():
    with pytest.raises(DomainError, match="expected one energy"):
        lead_F(LEAD, [0.1, 0.2])


def test_crystalline_lead_needs_a_sample():
    with pytest.raises(DomainError, match="needs a SampleSpec"):
        CrystallineLead("x", "l")


@pytest.mark.parametrize(
    "beta, mu", [(-1.0, 0.0), (0.0, 0.0), (math.nan, 0.0), (1.0, math.nan), (1.0, math.inf)]
)
def test_fermi_dirac_applies_the_reservoir_rule(beta, mu):
    with pytest.raises(DomainError):
        ThermoState(beta, mu, 1.0, 0.0)
    with pytest.raises(DomainError):
        fermi_dirac(beta, mu, 0.3)


def test_transport_computes_with_the_float_the_rule_reads():
    # kappa**4 of an np.float32 kappa would round in single precision (1e-7 off in T_N)
    kappa = np.float32(0.8)
    E = np.linspace(-1.4, 1.4, 9)
    for T in (transmittance_n, transmittance_oracle):
        assert np.array_equal(T(DIMER, LEAD, LEAD, kappa, 4, E),
                              T(DIMER, LEAD, LEAD, float(kappa), 4, E))
    assert np.array_equal(transmittance_inf(DIMER, LEAD, LEAD, kappa, E),
                          transmittance_inf(DIMER, LEAD, LEAD, float(kappa), E))


@pytest.mark.parametrize(
    "energies", [[0.0, True], (0.3, np.True_), [[0.1], [False]], [1, True]],
    ids=["list", "tuple_numpy_bool", "nested", "int_list"],
)
def test_a_bool_in_a_list_of_energies_is_not_a_number(energies):
    # np.asarray reads [0.0, True] as [0.0, 1.0]: T_N would be evaluated at E = 1.0
    match = r"energies must be real numbers, got (np\.)?(True|False)_? in a (list|tuple)"
    for call in (
        lambda: transmittance_n(DIMER, LEAD, LEAD, 1.0, 2, energies),
        lambda: transmittance_oracle(DIMER, LEAD, LEAD, 1.0, 2, energies),
        lambda: weights(ThermoState(1.0, 0.0, 2.0, 0.0), energies),
        lambda: TabulatedLead(energies, [0.5j] * len(energies)),
    ):
        with pytest.raises(DomainError, match=match):
            call()


def test_a_bool_in_a_list_of_tabulated_values_is_not_a_number():
    with pytest.raises(DomainError, match="tabulated values must be numbers, got True in a list"):
        TabulatedLead([0.0, 1.0], [0.5j, True])
    with pytest.raises(DomainError, match="tabulated values must be numbers, got np.False_ in a"):
        TabulatedLead([0.0, 1.0], (np.False_, 0.5j))


def test_real_lists_and_arrays_keep_their_reading():
    # numbers in a list pass as before; an ndarray is judged by its dtype alone
    E = [0.1, 1, np.float32(0.25)]
    expected = transmittance_n(DIMER, LEAD, LEAD, 1.0, 2, np.array(E, dtype=float))
    assert np.array_equal(transmittance_n(DIMER, LEAD, LEAD, 1.0, 2, E), expected)
    assert np.array_equal(transmittance_n(DIMER, LEAD, LEAD, 1.0, 2, tuple(E)), expected)
    with pytest.raises(DomainError, match="got dtype bool"):
        transmittance_n(DIMER, LEAD, LEAD, 1.0, 2, np.array([False, True]))
    lead = TabulatedLead((0.0, 1.0), [np.pi * 1j, np.pi * 1j])
    assert lead.values.dtype == complex and lead.energies.tolist() == [0.0, 1.0]


@pytest.mark.parametrize(
    "seed, ensemble, message",
    [(0, 0, "ensemble must be a positive integer, got 0"),
     (0, -3, "ensemble must be a positive integer, got -3"),
     (0, 2.0, "ensemble must be a positive integer, got 2.0"),
     (0, True, "ensemble must be a positive integer, got True"),
     (-1, 1, "seed must be a non-negative integer, got -1"),
     (0.5, 1, "seed must be a non-negative integer, got 0.5"),
     ("1", 1, "seed must be a non-negative integer, got '1'")],
)
def test_selfcheck_refuses_an_empty_battery_and_a_bad_seed(seed, ensemble, message):
    # zero configurations would pass every check with a worst error of 0.000e+00
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        run_selfcheck(seed, ensemble)

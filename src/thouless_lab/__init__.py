"""Transport properties of one-dimensional tight-binding samples.

Band spectra of periodized samples, finite-N and crystalline-limit
transmittances, Landauer-Buttiker steady currents, Thouless currents and
the Thouless conductance, with every closed form cross-validated by a
brute-force resolvent oracle.  Units: hbar = e = k_B = 1; currents carry
no spin degeneracy factor.
"""

from .currents import (
    ConvergenceRow,
    CurrentReport,
    QuadratureConfig,
    ThermoState,
    convergence_study,
    crystalline_currents,
    fermi_dirac,
    lb_currents,
    sign_change_energy,
    thouless_currents,
    weights,
    zero_temperature_conductance,
)
from .errors import (
    BandEdgeError,
    ConfigError,
    DegeneratePivotError,
    DomainError,
    NumericalError,
    OffSpectrumError,
    QuadratureError,
    SampleEigenvalueError,
    SingularEnergyError,
    ThoulessLabError,
)
from .jacobi import (
    BandSpectrum,
    GreenMatrix2,
    SampleSpec,
    TransferMatrix2,
    band_spectrum,
    bloch_eigenvalues,
    bloch_hamiltonian,
    discriminant,
    one_period_transfer,
    periodized_parameters,
    thouless_conductance,
)
from .leads import (
    CrystallineLead,
    HalfLineLead,
    LeadModel,
    TabulatedLead,
    crystal_m_functions,
    lead_F,
    lead_F_values,
    load_tabulated_csv,
)
from .oracle import resolvent_green, transmittance_oracle
from .selfcheck import CheckResult, run_selfcheck
from .transport import (
    TransferEigenData,
    r_theta_diagnostic,
    transfer_eigendata,
    transmittance_inf,
    transmittance_n,
)

__version__ = "0.1.0"

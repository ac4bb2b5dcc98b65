"""Steady currents out of biased reservoirs and the Thouless bound.

For a fixed sample and thermodynamic drive we compare the crystalline
Landauer-Buttiker currents (computed with T_infty) against the Thouless
currents (reflectionless transport, T = 1).  The Thouless values dominate,
with equality exactly for matched crystalline reservoirs; at zero
temperature the ratio of charge current to bias reproduces the Thouless
conductance of the bias window.
"""

import math

from thouless_lab import (
    CrystallineLead,
    HalfLineLead,
    QuadratureConfig,
    SampleSpec,
    ThermoState,
    crystalline_currents,
    thouless_conductance,
    thouless_currents,
    zero_temperature_conductance,
)

sample = SampleSpec(hop=(1.0,), onsite=(0.3, -0.3), kappa_s=0.8)
thermo = ThermoState(beta_l=4.0, mu_l=-0.6, beta_r=1.5, mu_r=0.7)
quad = QuadratureConfig()


def show(tag, rep):
    print(f"{tag:>12}: Phi_r = {rep.phi_r:+.6f}  I_r = {rep.i_r:+.6f}  "
          f"J = {rep.entropy_j:+.6f}  "
          f"(conservation {max(rep.conservation_residuals):.1e}, "
          f"balance {rep.entropy_balance_residual:.1e})")


print(f"sample: J={sample.hop}, lambda={sample.onsite}, kappa_S={sample.kappa_s}")
print(f"drive: beta=({thermo.beta_l}, {thermo.beta_r}), mu=({thermo.mu_l}, {thermo.mu_r})\n")

matched = crystalline_currents(
    sample, CrystallineLead(sample, "l"), CrystallineLead(sample, "r"),
    sample.kappa_s, thermo, quad,
)
show("matched", matched)

wide = HalfLineLead(t=1.6, v0=0.0)
mismatched = crystalline_currents(sample, wide, wide, 1.0, thermo, quad)
show("mismatched", mismatched)

bound = thouless_currents(sample, thermo, quad)
show("thouless", bound)

print("\ndominance: J_matched == J_Th, J_mismatched < J_Th:")
print(f"  J_Th - J_matched    = {bound.entropy_j - matched.entropy_j:+.2e}")
print(f"  J_Th - J_mismatched = {bound.entropy_j - mismatched.entropy_j:+.2e}")

window = (-1.2, 1.4)
g, g_th = zero_temperature_conductance(
    sample, wide, wide, 1.0, *window
)
g_matched, _ = zero_temperature_conductance(
    sample, CrystallineLead(sample, "l"), CrystallineLead(sample, "r"),
    sample.kappa_s, *window,
)
print(f"\nzero-temperature conductance over [{window[0]}, {window[1]}]:")
print(f"  g (mismatched leads) = {g:.6f}")
print(f"  g (matched leads)    = {g_matched:.6f}")
print(f"  g_Th                 = {g_th:.6f} "
      f"(= {thouless_conductance(sample, window):.6f} from band measure)")

print("\nzero-temperature entropy note: at beta = inf with a bias the")
print("entropy current is genuinely infinite; finite-beta drives keep the")
print("balance identity J = -sum beta (Phi - mu I) to quadrature accuracy.")
inf_drive = ThermoState(math.inf, -1.0, math.inf, 1.0)
rep = thouless_currents(sample, inf_drive)
print(f"  beta = inf, mu = (-1, 1):  I_r = {rep.i_r:.6f},  J = {rep.entropy_j}")

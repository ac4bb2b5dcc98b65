import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

from thouless_lab import (
    HalfLineLead,
    SampleEigenvalueError,
    band_spectrum,
    lead_F,
    resolvent_green,
    transmittance_oracle,
)
from thouless_lab.oracle import dirichlet_sample_green
from thouless_lab.selfcheck import band_interior_grid, random_configuration, random_sample
from thouless_lab.transport import _full_green_lr_values, _transport_inputs, sample_green


def test_single_site_scalar_resolvent(free_chain, free_lead):
    # one site carries both self-energies: G = 1/(lambda - E - 2 kappa^2 F) = 1/(-2i)
    g = resolvent_green(free_chain, 1, free_lead, free_lead, 1.0, 0.0)
    assert g.g_lr == pytest.approx(0.5j, abs=1e-14)
    T = transmittance_oracle(free_chain, free_lead, free_lead, 1.0, 1, 0.0)
    assert T == pytest.approx(1.0, abs=1e-12)  # matched, reflectionless


def test_dirichlet_scalar_value(free_chain):
    g = dirichlet_sample_green(free_chain, 1, 0.5)
    assert g.g_ll == pytest.approx(-2.0, abs=1e-13)


def test_dirichlet_pole_at_eigenvalue(free_chain):
    with pytest.raises(SampleEigenvalueError):
        dirichlet_sample_green(free_chain, 1, 0.0)


def test_dirichlet_matches_closed_form(rng):
    checked = 0
    while checked < 50:
        s = random_sample(rng)
        n = int(rng.integers(1, 11))
        grid = band_interior_grid(band_spectrum(s), 10)
        E = float(rng.choice(grid))
        try:
            closed = sample_green(s, n, E)
        except SampleEigenvalueError:
            continue
        dense = dirichlet_sample_green(s, n, E)
        np.testing.assert_allclose(
            closed.as_array(), dense.as_array(), rtol=1e-9, atol=1e-9
        )
        checked += 1


def test_full_green_matches_closed_form(rng):
    for _ in range(25):
        s, lead_l, lead_r, kappa = random_configuration(rng, max_sites=6)
        n = int(rng.integers(1, 16))
        grid = band_interior_grid(band_spectrum(s), 6)
        g_lr = _full_green_lr_values(s, kappa, n, *_transport_inputs(s, lead_l, lead_r, grid))
        for E, closed in zip(grid, g_lr):
            dense = resolvent_green(s, n, lead_l, lead_r, kappa, float(E))
            assert closed == pytest.approx(dense.g_lr, rel=1e-8, abs=1e-10)
            assert dense.g_lr == pytest.approx(dense.g_rl, rel=1e-10, abs=1e-12)


def test_greenfull_small_relation_dense_only(rng):
    # G_S = (I - kappa^2 G_S F) G at N=1, assembled purely from dense solves
    for _ in range(15):
        s, lead_l, lead_r, kappa = random_configuration(rng, max_sites=5)
        if s.length < 2:
            continue
        grid = band_interior_grid(band_spectrum(s), 8)
        E = float(grid[int(rng.integers(len(grid)))])
        try:
            gs = dirichlet_sample_green(s, 1, E).as_array()
        except SampleEigenvalueError:
            continue
        g_full = resolvent_green(s, 1, lead_l, lead_r, kappa, E).as_array()
        F = np.diag([lead_F(lead_l, E), lead_F(lead_r, E)])
        lhs = gs
        rhs = (np.eye(2) - kappa**2 * gs @ F) @ g_full
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-11)


def test_gap_energies_with_open_leads(dimer, wide_lead):
    # finite transmission through the gap decays but stays positive
    T = [
        transmittance_oracle(dimer, wide_lead, wide_lead, 1.0, n, 0.0) for n in (1, 3, 6)
    ]
    assert all(t > 0.0 for t in T)
    assert T[0] > T[1] > T[2]


def test_oracle_has_no_transfer_matrix_dependency():
    # enforced dependency direction: only jacobi parameter expansion and leads
    import thouless_lab.oracle as oracle_module

    src = inspect.getsource(oracle_module)
    assert "from .transport" not in src and "import transport" not in src
    assert "one_period" not in src and "eigendata" not in src


def test_self_energy_sign_makes_matched_chain_reflectionless(free_chain):
    # discriminates the Schur-complement sign: the wrong sign gives T(1) = 3/7
    lead = HalfLineLead(1.0, 0.0)
    T = transmittance_oracle(free_chain, lead, lead, 1.0, 1, 1.0)
    assert T == pytest.approx(1.0, abs=1e-12)


def test_cli_import_leaves_scipy_unloaded():
    # the oracle imports scipy when it first solves; CLI start-up must not pay for it
    import thouless_lab

    src = os.path.dirname(os.path.dirname(thouless_lab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, thouless_lab.cli; assert 'scipy' not in sys.modules, sorted(sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)

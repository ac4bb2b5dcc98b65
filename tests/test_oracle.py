import inspect
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from thouless_lab import (
    CrystallineLead,
    HalfLineLead,
    SampleEigenvalueError,
    SampleSpec,
    SingularEnergyError,
    TabulatedLead,
    band_spectrum,
    lead_F,
    resolvent_green,
    transmittance_oracle,
)
from thouless_lab import oracle
from thouless_lab.jacobi import periodized_parameters
from thouless_lab.leads import lead_F_values
from thouless_lab.oracle import _corner_green
from thouless_lab.selfcheck import (
    band_interior_grid,
    covering_halfline,
    random_configuration,
    random_sample,
)
from thouless_lab.transport import _full_green_lr_values, _transport_inputs, sample_green

from dense_green import dirichlet_sample_green


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
        inputs = _transport_inputs(s, lead_l, lead_r, kappa, grid)
        g_lr = _full_green_lr_values(s, n, *inputs[:4])
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


def _bits(z):
    return np.ascontiguousarray(z).view(np.uint64)


def _assert_stack_equals_lone_solves(diag, off):
    """Each system of the stack equals its K = 1 solve and scipy's solve_banded, bit for bit."""
    from scipy.linalg import solve_banded

    *stacked, ok = _corner_green(diag, off)
    stacked = np.array(stacked)
    for k, d in enumerate(diag):
        *lone, lone_ok = _corner_green(d[None, :], off)
        assert ok[k] == lone_ok[0]
        if not ok[k]:
            continue
        np.testing.assert_array_equal(_bits(stacked[:, k]), _bits(np.ravel(lone)))
        ab = np.zeros((3, d.size), dtype=complex)
        ab[0, 1:], ab[1], ab[2, :-1] = off, d, off
        rhs = np.zeros((d.size, 2), dtype=complex)
        rhs[0, 0] = rhs[-1, 1] = 1.0
        x = solve_banded((1, 1), ab, rhs)
        np.testing.assert_array_equal(
            _bits(stacked[:, k]), _bits(np.array([x[0, 0], x[0, 1], x[-1, 0], x[-1, 1]]))
        )
    return ok


def test_stacked_corners_equal_lone_solves(rng):
    for _ in range(12):
        s, lead_l, lead_r, kappa = random_configuration(rng)
        n = int(rng.integers(1, 9))
        grid = band_interior_grid(band_spectrum(s), 15)
        diag, off = periodized_parameters(s, n)
        d = diag.astype(complex) - grid[:, None]
        d[:, 0] -= kappa**2 * lead_F_values(lead_l, grid)
        d[:, -1] -= kappa**2 * lead_F_values(lead_r, grid)
        assert np.all(_assert_stack_equals_lone_solves(d, off))


def test_stacked_corners_of_one_site_systems(rng):
    # L = 1, N = 1: a stack of 1 x 1 systems, and the single system K n = 1
    sample = SampleSpec(hop=(), onsite=(0.3,), kappa_s=0.8)
    lead_l, lead_r = HalfLineLead(1.1, 0.2), HalfLineLead(0.9, -0.1)
    diag, off = periodized_parameters(sample, 1)
    grid = rng.uniform(-1.5, 1.5, 40)
    d = diag.astype(complex) - grid[:, None]
    d[:, 0] -= 0.7 * lead_F_values(lead_l, grid) + 0.7 * lead_F_values(lead_r, grid)
    assert off.size == 0 and d.shape == (40, 1)
    assert np.all(_assert_stack_equals_lone_solves(d, off))
    assert np.all(_assert_stack_equals_lone_solves(d[4:5], off))


@pytest.mark.parametrize("n_cells", [1, 3, 5])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_singular_block_flags_only_itself(free_chain, n_cells, where):
    # the free chain's Dirichlet diagonal is 0, so E = 0 is an eigenvalue at odd N
    grid = np.array([0.5, -0.7, 1.3, -1.1, 0.9])
    grid[where] = 0.0
    diag, off = periodized_parameters(free_chain, n_cells)
    d = diag.astype(complex) - grid[:, None]
    ok = _assert_stack_equals_lone_solves(d, off)
    np.testing.assert_array_equal(ok, grid != 0.0)


def _gated(E):
    """The pattern of the SingularEnergyError text of a solve at E that fails the gate."""
    return re.escape(f"the solve at E={E} fails the residual gate 1e-11")


def test_gate_flags_energies_next_to_an_eigenvalue():
    # finite but inaccurate solves 1e-9 from a Dirichlet eigenvalue fail the residual gate
    sample = SampleSpec(hop=(0.7, 1.3), onsite=(0.2, -0.4, 0.5), kappa_s=0.9)
    diag, off = periodized_parameters(sample, 2)
    eigs = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    grid = np.concatenate([eigs + 1e-9, 0.5 * (eigs[1:] + eigs[:-1])])
    d = diag.astype(complex) - grid[:, None]
    *corners, ok = _corner_green(d, off)
    assert np.all(np.isfinite(corners))
    np.testing.assert_array_equal(ok, np.arange(grid.size) >= eigs.size)
    # one energy at a time, as the single-energy entry points solve: the same
    # gate decisions and corners.  kappa^2 = 1e-400 underflows to 0, so the
    # coupled system is the Dirichlet one, and the refusals read the same text.
    lead = HalfLineLead(3.0)
    for k, E in enumerate(grid.tolist()):
        *lone, lone_ok = _corner_green(d[k : k + 1], off)
        assert lone_ok[0] == ok[k]
        if ok[k]:
            np.testing.assert_array_equal(
                _bits(np.ravel(lone)), _bits(np.array(corners)[:, k])
            )
            g = resolvent_green(sample, 2, lead, lead, 1e-200, E)
            np.testing.assert_array_equal(
                _bits(np.array([g.g_ll, g.g_lr, g.g_rl, g.g_rr])), _bits(np.ravel(lone))
            )
            continue
        with pytest.raises(SampleEigenvalueError, match=re.escape(
            f"E={E} is (numerically) an eigenvalue of the 2-cell sample"
        )):
            dirichlet_sample_green(sample, 2, E)
        with pytest.raises(SingularEnergyError, match=f"^{_gated(E)}$"):
            resolvent_green(sample, 2, lead, lead, 1e-200, E)
        with pytest.raises(SingularEnergyError, match=f"^{_gated(E)}$"):
            transmittance_oracle(sample, lead, lead, 1e-200, 2, E)
    with pytest.raises(SingularEnergyError, match=f"^{_gated(grid[0])}$"):
        transmittance_oracle(sample, lead, lead, 1e-200, 2, grid)


def _assert_array_oracle_equals_scalar_calls(s, lead_l, lead_r, kappa, n, grid=None):
    if grid is None:
        lo, hi = band_spectrum(s).hull
        grid = np.linspace(lo - 1.0, hi + 1.0, 23)
    T = transmittance_oracle(s, lead_l, lead_r, kappa, n, grid)
    assert type(T) is np.ndarray and T.shape == grid.shape
    scalar = [transmittance_oracle(s, lead_l, lead_r, kappa, n, float(E)) for E in grid]
    assert all(type(t) is float for t in scalar)
    np.testing.assert_array_equal(_bits(T), _bits(np.array(scalar)))
    return T


def test_array_oracle_equals_scalar_calls(rng, dimer, wide_lead):
    for _ in range(6):
        s, lead_l, lead_r, kappa = random_configuration(rng)
        n = int(rng.integers(1, 17))
        _assert_array_oracle_equals_scalar_calls(s, lead_l, lead_r, kappa, n)
    # the benchmark's oracle comparison: half-line leads covering the spectrum,
    # N in {1, 4, 16, 64} and L from 1 to 8, on band-interior and hull grids
    for L in range(1, 9):
        for n in (1, 4, 16, 64):
            s = SampleSpec(
                tuple(rng.uniform(0.2, 2.0, L - 1)), tuple(rng.uniform(-1.0, 1.0, L)),
                float(rng.uniform(0.2, 2.0)),
            )
            spectrum = band_spectrum(s)
            lead_l, lead_r = covering_halfline(spectrum, rng), covering_halfline(spectrum, rng)
            lo, hi = spectrum.hull
            grid = np.concatenate([
                band_interior_grid(spectrum, 16), np.linspace(lo - 1.0, hi + 1.0, 9)
            ])
            T = _assert_array_oracle_equals_scalar_calls(
                s, lead_l, lead_r, float(rng.uniform(0.4, 1.6)), n, grid
            )
            assert np.all(T[:-9] > 0.0)
    T = transmittance_oracle(dimer, wide_lead, wide_lead, 1.0, 3, np.array(0.0))
    assert type(T) is float
    # a crystalline lead on another sample, a tabulated lead, and an n = 1 system
    s, lead_l, lead_r, kappa = random_configuration(rng)
    crystal = CrystallineLead(random_sample(rng), "l")
    assert np.any(_assert_array_oracle_equals_scalar_calls(s, crystal, lead_r, kappa, 5) > 0.0)
    w = 2.0 * abs(lead_l.t)
    table_grid = np.linspace(lead_l.v0 - w - 1.0, lead_l.v0 + w + 1.0, 401)
    table = TabulatedLead(table_grid, lead_F_values(lead_l, table_grid))
    assert np.any(_assert_array_oracle_equals_scalar_calls(s, table, lead_r, kappa, 3) > 0.0)
    site = SampleSpec(hop=(), onsite=(0.3,), kappa_s=0.8)
    lead_l, lead_r = HalfLineLead(1.1, 0.2), HalfLineLead(0.9, -0.1)
    assert np.any(_assert_array_oracle_equals_scalar_calls(site, lead_l, lead_r, 0.7, 1) > 0.0)


def test_single_energy_corners_equal_a_k1_solve(rng):
    # the corners of the single-energy entry points are those of _corner_green
    # on the K = 1 system that the array path assembles
    for _ in range(8):
        s, lead_l, lead_r, kappa = random_configuration(rng)
        n = int(rng.integers(1, 9))
        grid = np.linspace(*band_spectrum(s).hull, 7)
        diag, off = periodized_parameters(s, n)
        d = diag.astype(complex) - grid[:, None]
        d[:, 0] -= kappa**2 * lead_F_values(lead_l, grid)
        d[:, -1] -= kappa**2 * lead_F_values(lead_r, grid)
        for k, E in enumerate(grid):
            *coupled, ok = _corner_green(d[k : k + 1], off)
            *dirichlet, dirichlet_ok = _corner_green((diag.astype(complex) - E)[None, :], off)
            assert ok[0] and dirichlet_ok[0]
            g = resolvent_green(s, n, lead_l, lead_r, kappa, float(E))
            np.testing.assert_array_equal(
                _bits(np.array([g.g_ll, g.g_lr, g.g_rl, g.g_rr])), _bits(np.ravel(coupled))
            )
            g = dirichlet_sample_green(s, n, float(E))
            np.testing.assert_array_equal(
                _bits(np.array([g.g_ll, g.g_lr, g.g_rl, g.g_rr])), _bits(np.ravel(dirichlet))
            )


def test_off_support_energies_skip_the_solver(monkeypatch, dimer, wide_lead):
    # wide_lead's support is [-2.4, 2.4]; energies outside it never reach the solve
    stacks = []

    def recording(diag, off):
        stacks.append(diag.shape[0])
        return _corner_green(diag, off)

    monkeypatch.setattr(oracle, "_corner_green", recording)
    grid = np.array([-3.0, -1.0, 2.5, 0.0, 1.0, 4.0])
    T = transmittance_oracle(dimer, wide_lead, wide_lead, 1.0, 2, grid)
    assert stacks == [3]
    assert np.all(T[[0, 2, 5]] == 0.0) and np.all(T[[1, 3, 4]] > 0.0)
    stacks.clear()
    T = transmittance_oracle(dimer, wide_lead, wide_lead, 1.0, 2, np.array([-3.0, 2.5, 4.0]))
    assert stacks == [] and np.all(T == 0.0)


def test_scalar_resolvent_raises_at_a_singular_energy(free_chain, free_lead):
    # at the band edge E = 2, F = -1 is real and 0 - E - 2 kappa^2 F = 0 exactly
    with pytest.raises(SingularEnergyError, match=f"^{_gated(2.0)}$"):
        resolvent_green(free_chain, 1, free_lead, free_lead, 1.0, 2.0)
    assert transmittance_oracle(free_chain, free_lead, free_lead, 1.0, 1, 2.0) == 0.0


def test_array_oracle_raises_on_a_gated_energy(monkeypatch, dimer, wide_lead):
    def one_fails(diag, off):
        *corners, ok = _corner_green(diag, off)
        ok[1] = False
        return (*corners, ok)

    monkeypatch.setattr(oracle, "_corner_green", one_fails)
    with pytest.raises(SingularEnergyError, match=f"^{_gated(-0.5)}$"):
        transmittance_oracle(dimer, wide_lead, wide_lead, 1.0, 2, np.array([-1.0, -0.5, 1.0]))


def test_scalar_oracle_raises_on_a_gated_energy(monkeypatch, dimer, wide_lead):
    solves = []

    def fails(diag, off):
        *corners, ok = _corner_green(diag, off)
        solves.append(diag.shape[0])
        ok[0] = False
        return (*corners, ok)

    monkeypatch.setattr(oracle, "_corner_green", fails)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularEnergyError, match=f"^{_gated(-0.5)}$"):
            transmittance_oracle(dimer, wide_lead, wide_lead, 1.0, 2, -0.5)
    assert solves == [1]


def test_cached_system_is_read_only_and_periodized_parameters_stay_fresh(dimer):
    oracle._n_cell_system_cached.cache_clear()
    diag, off = oracle._n_cell_system(dimer, 3)
    assert oracle._n_cell_system(dimer, 3)[0] is diag
    fresh_diag, fresh_off = periodized_parameters(dimer, 3)
    np.testing.assert_array_equal(diag, fresh_diag.astype(complex))
    np.testing.assert_array_equal(off, fresh_off)
    for cached in (diag, off):
        with pytest.raises(ValueError):
            cached[0] = 1.0
    fresh_diag[0] = fresh_off[0] = 7.0
    again_diag, again_off = periodized_parameters(dimer, 3)
    assert again_diag[0] == 0.0 and again_off[0] == 1.0
    maxsize = oracle._n_cell_system_cached.cache_info().maxsize
    assert maxsize == oracle._SYSTEM_CACHE_SIZE and type(maxsize) is int


def _oracle_bits(sample, n_cells, lead_l, lead_r, kappa, grid):
    """Every oracle entry point at (sample, N), as one bit pattern."""
    g = resolvent_green(sample, n_cells, lead_l, lead_r, kappa, float(grid[0]))
    d = dirichlet_sample_green(sample, n_cells, float(grid[1]))
    values = np.concatenate([
        transmittance_oracle(sample, lead_l, lead_r, kappa, n_cells, grid),
        [transmittance_oracle(sample, lead_l, lead_r, kappa, n_cells, float(grid[-1]))],
        [g.g_ll, g.g_lr, g.g_rl, g.g_rr, d.g_ll, d.g_lr, d.g_rl, d.g_rr],
    ])
    return _bits(values.astype(complex))


def test_cached_calls_equal_fresh_ones_when_interleaved(rng, free_lead):
    a, lead_l, lead_r, kappa = random_configuration(rng)
    b = random_sample(rng)
    grid = np.linspace(*band_spectrum(a).hull, 9)
    # SampleSpec equality takes -0.0 for 0.0; at E = 0 the sign of a zero onsite
    # energy reaches the signs of zero parts of the resolvent
    plus, minus = SampleSpec((), (0.0,), 0.5), SampleSpec((), (-0.0,), 0.5)
    matched = (free_lead, free_lead, 1.0, np.array([0.0, 0.3, -0.2]))
    calls = [
        (a, 4, lead_l, lead_r, kappa, grid),
        (b, 4, lead_l, lead_r, kappa, grid),
        (a, 16, lead_l, lead_r, kappa, grid),
        (a, 4, lead_l, lead_r, kappa, grid),
        (plus, 2, *matched),
        (minus, 2, *matched),
        (plus, 2, *matched),
    ]
    oracle._n_cell_system_cached.cache_clear()
    cached = [_oracle_bits(*call) for call in calls]
    assert oracle._n_cell_system_cached.cache_info().hits > 0
    for call, bits in zip(calls, cached):
        oracle._n_cell_system_cached.cache_clear()
        np.testing.assert_array_equal(bits, _oracle_bits(*call))

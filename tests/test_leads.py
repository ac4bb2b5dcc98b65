import mpmath
import numpy as np
import pytest

from thouless_lab import (
    ConfigError,
    CrystallineLead,
    DomainError,
    HalfLineLead,
    OffSpectrumError,
    SampleSpec,
    TabulatedLead,
    band_spectrum,
    crystal_m_functions,
    lead_F,
    lead_F_values,
    load_tabulated_csv,
)
from thouless_lab.leads import SUPPORT_TOL, _clamp_im, _halfline_F, _support_edges
from thouless_lab.selfcheck import band_interior_grid, random_sample


def test_halfline_validation():
    with pytest.raises(DomainError):
        HalfLineLead(t=0.0)


def test_halfline_in_band_value(free_lead):
    assert lead_F(free_lead, 0.0) == pytest.approx(1j, abs=1e-15)


def test_halfline_outside_band_real_decaying(free_lead):
    F = lead_F(free_lead, 3.0)
    assert F.imag == 0.0
    assert F.real == pytest.approx((-3.0 + np.sqrt(5.0)) / 2.0, abs=1e-14)
    # decaying: |t m| < 1
    assert abs(F) < 1.0
    below = lead_F(free_lead, -3.0)
    assert below.imag == 0.0 and abs(below) < 1.0


def test_halfline_quadratic_residual():
    lead = HalfLineLead(t=1.4, v0=-0.3)
    grid = np.linspace(-4.0, 4.0, 401)
    F = lead_F_values(lead, grid)
    resid = lead.t**2 * F * F + (grid - lead.v0) * F + 1.0
    assert np.max(np.abs(resid)) <= 1e-12


def test_halfline_resolvent_asymptotics():
    # F(E) ~ -1/E far outside the band
    lead = HalfLineLead(t=0.8, v0=0.2)
    for E in (50.0, -50.0):
        assert lead_F(lead, E).real == pytest.approx(-1.0 / (E - lead.v0), rel=1e-2)


def _bits(z):
    return np.ascontiguousarray(z).view(np.uint64)


@pytest.mark.parametrize("t, v0", [(1.3, 0.2), (-0.7, -0.4)])
def test_halfline_array_equals_scalar_calls_across_both_edges(t, v0):
    lead = HalfLineLead(t, v0)
    w = 2.0 * abs(t)
    edges = np.array([v0 - w, v0 + w])
    E = np.concatenate([
        np.linspace(v0 - 2.0 * w, v0 + 2.0 * w, 81),
        edges,
        np.nextafter(edges, [-np.inf, np.inf]),
        np.nextafter(edges, [np.inf, -np.inf]),
    ])
    F = lead_F_values(lead, E)
    np.testing.assert_array_equal(_bits(F), _bits(np.array([lead_F(lead, e) for e in E])))
    # the band interior alone takes the path without an off-band root
    core = np.linspace(v0 - 0.9 * w, v0 + 0.9 * w, 17)
    np.testing.assert_array_equal(
        _bits(lead_F_values(lead, core)), _bits(np.array([lead_F(lead, e) for e in core]))
    )

    x = np.abs(E - v0)
    assert np.all(F[x < w - 1e-9].imag > 0.0)
    assert np.all(F[x > w + 1e-9].imag == 0.0)
    assert np.all(F.imag >= 0.0)
    # |F|^2 = 1/t^2 in band; off band the decaying root is the smaller one
    assert np.all(np.abs(F) <= (1.0 + 1e-12) / abs(t))


@pytest.mark.parametrize("t, v0", [(1.3, 0.2), (-0.7, -0.4)])
def test_halfline_F_is_unchanged_by_the_clamp(t, v0):
    # Im F >= +0 and Re F != -0 by construction, so lead_F_values skips _clamp_im
    lead = HalfLineLead(t, v0)
    w = 2.0 * abs(t)
    edges = np.array([v0 - w, v0 + w])
    far = np.logspace(-300, 300, 121)
    E = np.concatenate([
        np.linspace(v0 - 2.0 * w, v0 + 2.0 * w, 81),
        [0.0, -0.0, v0],
        edges,
        np.nextafter(edges, [-np.inf, np.inf]),
        np.nextafter(edges, [np.inf, -np.inf]),
        far,
        -far,
        v0 + far,
        v0 - far,
    ])
    F = _halfline_F(lead, E)
    np.testing.assert_array_equal(_bits(_clamp_im(F)), _bits(F))
    np.testing.assert_array_equal(_bits(lead_F_values(lead, E[:81])), _bits(F[:81]))


@pytest.mark.parametrize("t, v0", [(1.0, 0.0), (1.3, 0.2), (-0.7, -0.4), (4.5, 17.0)])
def test_halfline_off_band_root_matches_mpmath(t, v0):
    # far off band the decaying root is about -1/x, which a difference of the
    # two roots would cancel.  The 50-digit reference is 1/(t^2 r_big), r_big
    # the large root, since (-x + sqrt(x^2 - 4 t^2)) / (2 t^2) cancels at 50
    # digits too: every digit is gone by |x| = 1e25.
    lead = HalfLineLead(t, v0)
    x = np.logspace(3.0, 300.0, 199)
    worst = 0.0
    with mpmath.workdps(50):
        for E in np.concatenate([v0 + x, v0 - x]):
            F = lead_F(lead, float(E))  # a RuntimeWarning fails this suite
            xm = mpmath.mpf(float(E)) - mpmath.mpf(v0)
            r_big = (-xm - mpmath.sign(xm) * mpmath.sqrt(xm * xm - 4 * mpmath.mpf(t) ** 2)) / (
                2 * mpmath.mpf(t) ** 2
            )
            ref = 1 / (mpmath.mpf(t) ** 2 * r_big)
            assert F.imag == 0.0
            worst = max(worst, float(abs((mpmath.mpf(F.real) - ref) / ref)))
    assert worst <= 1e-15


_OTHER = SampleSpec((0.7520, 0.5952), (-0.7737, -0.4388, 0.1850), 0.8432)


@pytest.mark.parametrize(
    "make_lead",
    [lambda s: HalfLineLead(0.4, 0.3), lambda s: HalfLineLead(-2.5, -1.0),
     lambda s: CrystallineLead(_OTHER, "l"), lambda s: CrystallineLead(_OTHER, "r"),
     lambda s: CrystallineLead(s, "r")],
    ids=["half_line_inside", "half_line_covering", "crystalline_l", "crystalline_r",
         "crystalline_self"],
)
def test_support_edges_bound_the_support_of_F(dimer, make_lead):
    # Im F > 0 a relative 1e-8 inside each edge and Im F = 0 as far outside;
    # a lead on the sample itself gives no edges, since its support ends at the
    # sample's own band edges, where every band integral already ends
    lead = make_lead(dimer)
    edges = _support_edges(dimer, lead)
    if lead == CrystallineLead(dimer, "r"):
        assert edges == []
        edges = [E for band in band_spectrum(dimer).bands for E in band]
    assert edges and len(edges) % 2 == 0 and edges == sorted(edges)
    # each (lo, hi) pair bounds one interval of the support: inside is above lo, below hi
    step = 1e-8 * max(1.0, *map(abs, edges)) * np.tile([1.0, -1.0], len(edges) // 2)
    assert np.all(lead_F_values(lead, np.add(edges, step)).imag > SUPPORT_TOL)
    assert np.all(lead_F_values(lead, np.subtract(edges, step)).imag == 0.0)


def test_tabulated_lead_has_no_support_edges(dimer):
    assert _support_edges(dimer, TabulatedLead([-2.0, 2.0], [0.25j * np.pi] * 2)) == []


def test_clamp_im_zeroes_only_rounding_below_the_axis():
    im = np.array([-1e-12, -5e-13, -5e-324, np.nextafter(-1e-12, -1.0), -1e-3, 0.0, 5e-324, 0.3])
    F = np.linspace(-1.7, 2.3, im.size) + 1j * im
    clamp = (im < 0.0) & (im >= -1e-12)
    assert clamp.tolist() == [True, True, True, False, False, False, False, False]
    out = _clamp_im(F)
    assert np.all(out.imag[clamp] == 0.0) and not np.any(np.signbit(out.imag[clamp]))
    np.testing.assert_array_equal(_bits(out.real), _bits(F.real))
    np.testing.assert_array_equal(_bits(out[~clamp]), _bits(F[~clamp]))
    # with nothing to clamp every value keeps its bits
    np.testing.assert_array_equal(_bits(_clamp_im(F[~clamp])), _bits(F[~clamp]))


def test_essential_support_halfline(free_lead):
    support = lead_F_values(free_lead, [0.0, 3.0, 1.999]).imag > SUPPORT_TOL
    assert support.tolist() == [True, False, True]


def test_essential_support_crystalline_gap(dimer):
    lead = CrystallineLead(dimer, "r")
    support = lead_F_values(lead, [0.0, 1.0]).imag > SUPPORT_TOL
    assert support.tolist() == [False, True]  # mid-gap, mid-band


def test_crystal_m_functions_free_chain(free_chain):
    m_l, m_r = crystal_m_functions(free_chain, 0.0)
    assert m_r == pytest.approx(1j, abs=1e-15)
    assert m_l == pytest.approx(1j, abs=1e-15)


def test_crystal_m_product_identity(rng):
    # m_r / (kappa_s^2 m_l) = |m_r|^2 > 0, i.e. the two quadratic roots multiply to -b/c
    for _ in range(20):
        s = random_sample(rng, max_sites=5)
        for E in band_interior_grid(band_spectrum(s), 12):
            try:
                m_l, m_r = crystal_m_functions(s, float(E))
            except OffSpectrumError:
                continue
            lhs = m_r / (s.kappa_s**2 * m_l)
            assert lhs.imag == pytest.approx(0.0, abs=1e-10)
            assert lhs.real == pytest.approx(abs(m_r) ** 2, rel=1e-10)
            assert m_l.imag > 0.0 and m_r.imag > 0.0


def test_crystal_m_off_spectrum_refusal(free_chain, dimer):
    with pytest.raises(OffSpectrumError):
        crystal_m_functions(free_chain, 3.0)
    with pytest.raises(OffSpectrumError):
        crystal_m_functions(dimer, 0.0)  # in the gap
    with pytest.raises(OffSpectrumError):
        crystal_m_functions(free_chain, 2.0 - 1e-12)  # inside the edge zone


def test_matched_crystalline_lead_identity(rng):
    # with kappa = kappa_s and the lead periodizing the same sample,
    # kappa_s^2 m_{l/r}(E) = kappa^2 F_{l/r}(E) on band-interior grids
    for _ in range(5):
        s = random_sample(rng, max_sites=4)
        grid = band_interior_grid(band_spectrum(s), 25)
        F_l = lead_F_values(CrystallineLead(s, "l"), grid)
        F_r = lead_F_values(CrystallineLead(s, "r"), grid)
        for E, fl, fr in zip(grid, F_l, F_r):
            try:
                m_l, m_r = crystal_m_functions(s, float(E))
            except OffSpectrumError:
                continue
            assert s.kappa_s**2 * m_l == pytest.approx(s.kappa_s**2 * fl, rel=1e-12)
            assert s.kappa_s**2 * m_r == pytest.approx(s.kappa_s**2 * fr, rel=1e-12)


def test_lead_F_continuity(dimer):
    # local Lipschitz behavior away from edges: refining the step shrinks increments
    lead = CrystallineLead(dimer, "r")
    E0, E1 = 0.7, 1.3  # interior of the upper band
    coarse = np.linspace(E0, E1, 11)
    fine = np.linspace(E0, E1, 101)
    slope = lambda grid: np.max(np.abs(np.diff(lead_F_values(lead, grid)))) / (
        grid[1] - grid[0]
    )
    assert slope(fine) <= 4.0 * slope(coarse) + 1e-12


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_tabulated_node_exactness_and_interp():
    grid = np.array([-1.0, 0.0, 1.0, 2.0])
    vals = np.array([0.1 + 0.5j, -0.2 + 1.0j, 0.0 + 0.8j, 0.3 + 0.1j])
    lead = TabulatedLead(grid, vals)
    for E, v in zip(grid, vals):
        assert lead_F(lead, float(E)) == pytest.approx(v, abs=1e-15)
    mid = lead_F(lead, 0.5)
    assert mid == pytest.approx(0.5 * (vals[1] + vals[2]), abs=1e-15)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_tabulated_extrapolation_rejected():
    lead = TabulatedLead(np.array([0.0, 1.0]), np.array([1j, 1j]))
    with pytest.raises(DomainError):
        lead_F(lead, 2.0)


def test_tabulated_validation():
    with pytest.raises(DomainError):
        TabulatedLead(np.array([0.0, 0.0]), np.array([1j, 1j]))
    with pytest.raises(DomainError):
        TabulatedLead(np.array([0.0, 1.0]), np.array([1j, -0.5j]))


def test_tabulated_normalization_warning():
    import warnings

    grid = np.linspace(-2.0, 2.0, 200)
    with pytest.warns(UserWarning, match="normalized spectral measure") as caught:
        TabulatedLead(grid, np.full(grid.size, 5.0j))
    # the warning names the line that built the lead, not the generated __init__
    assert caught[0].filename == __file__
    # a properly normalized semicircle stays silent
    im = np.sqrt(np.maximum(4.0 - grid**2, 0.0)) / 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        TabulatedLead(grid, 1j * im)


def test_load_tabulated_csv(tmp_path):
    path = tmp_path / "lead.csv"
    grid = np.linspace(-2.0, 2.0, 201)  # odd count puts a node at E = 0
    im = np.sqrt(np.maximum(4.0 - grid**2, 0.0)) / 2.0
    lines = ["E,ReF,ImF"] + [f"{e},{-e / 2.0},{v}" for e, v in zip(grid, im)]
    path.write_text("\n".join(lines) + "\n")
    lead = load_tabulated_csv(path)
    assert lead.energies.size == 201
    assert lead_F(lead, 0.0) == pytest.approx(1j, abs=1e-12)


def test_load_tabulated_csv_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("energy,re,im\n0,0,1\n1,0,1\n")
    with pytest.raises(ConfigError, match=":1:"):
        load_tabulated_csv(bad_header)

    bad_row = tmp_path / "r.csv"
    bad_row.write_text("E,ReF,ImF\n0,0,1\n1,zero,1\n")
    with pytest.raises(ConfigError, match=":3:"):
        load_tabulated_csv(bad_row)

    bad_cols = tmp_path / "c.csv"
    bad_cols.write_text("E,ReF,ImF\n0,0\n")
    with pytest.raises(ConfigError, match=":2:"):
        load_tabulated_csv(bad_cols)

    not_increasing = tmp_path / "i.csv"
    not_increasing.write_text("E,ReF,ImF\n0,0,1\n0,0,1\n")
    with pytest.raises(ConfigError, match="strictly increasing"):
        load_tabulated_csv(not_increasing)

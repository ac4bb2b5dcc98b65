import mpmath
import numpy as np
import pytest

from thouless_lab import (
    DomainError,
    NumericalError,
    SampleSpec,
    band_spectrum,
    bloch_eigenvalues,
    discriminant,
    one_period_transfer,
    periodized_parameters,
    thouless_conductance,
)
from thouless_lab import jacobi
from thouless_lab.jacobi import _trace_slope, transfer_step
from thouless_lab.selfcheck import random_sample


def test_sample_validation():
    with pytest.raises(DomainError):
        SampleSpec(hop=(), onsite=(), kappa_s=1.0)
    with pytest.raises(DomainError):
        SampleSpec(hop=(0.0,), onsite=(0.0, 0.0), kappa_s=1.0)
    with pytest.raises(DomainError):
        SampleSpec(hop=(1.0,), onsite=(0.0, 0.0), kappa_s=0.0)
    with pytest.raises(DomainError):
        SampleSpec(hop=(1.0, 1.0), onsite=(0.0, 0.0), kappa_s=1.0)


def test_periodization_is_derived():
    s = SampleSpec(hop=(2.0,), onsite=(0.5, -0.5), kappa_s=3.0)
    assert s.hopping(1) == 2.0
    assert s.hopping(2) == 3.0  # J_L = kappa_s
    assert s.hopping(3) == 2.0 and s.hopping(4) == 3.0
    assert s.onsite_at(3) == 0.5 and s.onsite_at(4) == -0.5
    diag, off = periodized_parameters(s, 3)
    np.testing.assert_array_equal(diag, [0.5, -0.5] * 3)
    np.testing.assert_array_equal(off, [2.0, 3.0, 2.0, 3.0, 2.0])


def test_transfer_step_examples(free_chain):
    np.testing.assert_allclose(
        transfer_step(free_chain, 1, 0.0).as_array(), [[0.0, -1.0], [1.0, 0.0]]
    )
    np.testing.assert_allclose(
        transfer_step(free_chain, 1, 2.0).as_array(), [[2.0, -1.0], [1.0, 0.0]]
    )
    s = SampleSpec(hop=(2.0,), onsite=(0.0, 0.0), kappa_s=1.0)
    np.testing.assert_allclose(
        transfer_step(s, 1, 1.0).as_array(), [[0.5, -0.5], [2.0, 0.0]]
    )


def test_one_period_transfer_free_chain(free_chain):
    for E in (-1.3, 0.0, 2.7):
        T = one_period_transfer(free_chain, E)
        np.testing.assert_allclose(T.as_array(), [[E, -1.0], [1.0, 0.0]])


def test_one_period_transfer_two_site_hand_product():
    s = SampleSpec(hop=(1.0,), onsite=(0.0, 0.0), kappa_s=1.0)
    T = one_period_transfer(s, 0.0)
    np.testing.assert_allclose(T.as_array(), [[-1.0, 0.0], [0.0, -1.0]], atol=1e-15)


def test_determinants_unimodular(rng):
    for _ in range(100):
        s = random_sample(rng)
        for E in rng.uniform(-3.0, 3.0, 5):
            T = one_period_transfer(s, E)
            scale = max(1.0, abs(T.a * T.d) + abs(T.b * T.c))
            assert abs(T.det - 1.0) <= 1e-12 * scale
            x = int(rng.integers(1, 2 * s.length + 1))
            A = transfer_step(s, x, E)
            assert abs(A.det - 1.0) <= 1e-12


def test_discriminant_free_chain(free_chain):
    assert discriminant(free_chain, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert discriminant(free_chain, 2.0) == pytest.approx(2.0)
    assert discriminant(free_chain, -2.0) == pytest.approx(-2.0)
    assert discriminant(free_chain, 3.0) == pytest.approx(3.0)
    grid = np.linspace(-1.9, 1.9, 7)
    np.testing.assert_allclose(discriminant(free_chain, grid), grid)


def test_discriminant_band_gap_dichotomy(rng):
    # interior grid points of every band obey |tr| <= 2; gap midpoints exceed it
    for _ in range(100):
        s = random_sample(rng)
        spectrum = band_spectrum(s)
        for lo, hi in spectrum.bands:
            w = hi - lo
            grid = np.linspace(lo + 0.005 * w, hi - 0.005 * w, 99)
            assert np.max(np.abs(discriminant(s, grid))) <= 2.0 + 1e-9
        for g_lo, g_hi in spectrum.gaps():
            assert abs(discriminant(s, 0.5 * (g_lo + g_hi))) > 2.0


def test_bloch_free_chain_dispersion(free_chain):
    for k in np.linspace(-np.pi, np.pi, 11):
        eps = bloch_eigenvalues(free_chain, k)
        assert eps.shape == (1,)
        assert eps[0] == pytest.approx(2.0 * np.cos(k), abs=1e-12)
    assert bloch_eigenvalues(free_chain, 0.0)[0] == pytest.approx(2.0)
    assert bloch_eigenvalues(free_chain, np.pi)[0] == pytest.approx(-2.0)


def test_bloch_even_in_k(rng):
    for _ in range(20):
        s = random_sample(rng)
        k = float(rng.uniform(0.0, np.pi / s.length))
        np.testing.assert_allclose(
            bloch_eigenvalues(s, k), bloch_eigenvalues(s, -k), atol=1e-10
        )


def test_bloch_zone_validation(free_chain):
    with pytest.raises(DomainError):
        bloch_eigenvalues(free_chain, 4.0)


def assert_interlacing(sample: SampleSpec) -> None:
    """eps_L(0) > eps_L(pi/L) >= eps_{L-1}(pi/L) > eps_{L-1}(0) >= eps_{L-2}(0) > ..."""
    L = sample.length
    e0 = bloch_eigenvalues(sample, 0.0)
    epi = bloch_eigenvalues(sample, np.pi / L)
    chain = []
    for step, j in enumerate(range(L - 1, -1, -1)):
        pair = (e0[j], epi[j]) if step % 2 == 0 else (epi[j], e0[j])
        chain.extend(pair)
    for i, (hi, lo) in enumerate(zip(chain[:-1], chain[1:])):
        strict = i % 2 == 0  # within-band comparisons strict, between-band may touch
        if strict:
            assert hi - lo > 1e-12, f"expected strict drop at position {i}"
        else:
            assert hi - lo >= -1e-10, f"expected non-strict drop at position {i}"


def test_bloch_interlacing(rng):
    for _ in range(100):
        assert_interlacing(random_sample(rng))


def test_band_spectrum_free_chain(free_chain):
    spectrum = band_spectrum(free_chain)
    assert len(spectrum.bands) == 1
    lo, hi = spectrum.bands[0]
    assert lo == pytest.approx(-2.0, abs=1e-14)
    assert hi == pytest.approx(2.0, abs=1e-14)


def test_band_spectrum_dimer_matches_discriminant_roots(dimer):
    # independent oracle: tr T_2(E) = 2E^2 - 2.5 by hand, |tr| = 2 at +-0.5, +-1.5
    spectrum = band_spectrum(dimer)
    expect = [(-1.5, -0.5), (0.5, 1.5)]
    assert len(spectrum.bands) == 2
    for (lo, hi), (elo, ehi) in zip(spectrum.bands, expect):
        assert lo == pytest.approx(elo, abs=1e-12)
        assert hi == pytest.approx(ehi, abs=1e-12)
    mid_gap = 0.0
    assert abs(discriminant(dimer, mid_gap)) > 2.0


def test_band_measure_vanishes_with_kappa_s():
    base = dict(hop=(1.3, 0.7), onsite=(0.2, -0.4, 0.1))
    m_small = band_spectrum(SampleSpec(kappa_s=1e-6, **base)).measure()
    m_tiny = band_spectrum(SampleSpec(kappa_s=1e-7, **base)).measure()
    assert m_small < 1e-4
    assert m_small / m_tiny == pytest.approx(10.0, rel=0.05)


def test_thouless_conductance_free_chain(free_chain):
    g = thouless_conductance(free_chain, (-2.0, 2.0))
    assert g == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-15)


def test_thouless_conductance_disjoint_window(free_chain):
    assert thouless_conductance(free_chain, (5.0, 6.0)) == 0.0


def test_thouless_conductance_zero_length_window(free_chain):
    with pytest.raises(DomainError):
        thouless_conductance(free_chain, (1.0, 1.0))


def test_thouless_conductance_partition_average(dimer, rng):
    lo, hi = -1.8, 1.7
    cuts = np.sort(rng.uniform(lo, hi, 5))
    edges = [lo, *cuts, hi]
    total = thouless_conductance(dimer, (lo, hi)) * (hi - lo)
    parts = sum(
        thouless_conductance(dimer, (a, b)) * (b - a)
        for a, b in zip(edges[:-1], edges[1:])
        if b > a
    )
    assert parts == pytest.approx(total, abs=1e-12)


def probe_l32_sample(index: int) -> SampleSpec:
    """The index-th L=32 sample of the benchmark's band_spectrum defect probe."""
    rng = np.random.default_rng(20141408)
    for _ in range(index + 1):
        hop, onsite = rng.uniform(0.2, 2.0, 31), rng.uniform(-1.0, 1.0, 32)
        sample = SampleSpec(tuple(hop), tuple(onsite), float(rng.uniform(0.2, 2.0)))
    return sample


GAPPED_L4 = SampleSpec(hop=(1.0, 0.6, 1.3), onsite=(0.3, -0.5, 0.1, 0.8), kappa_s=0.7)


@pytest.mark.parametrize(
    "band, side", [(0, "hi"), (1, "lo"), (3, "lo")], ids=["first", "middle", "last"]
)
def test_band_edge_pushed_into_a_gap_is_caught(monkeypatch, band, side):
    # one edge moved 5 % of its band's width into the neighbouring open gap
    sample = GAPPED_L4
    eigenvalues = jacobi.bloch_eigenvalues
    L = sample.length
    e0, epi = eigenvalues(sample, 0.0), eigenvalues(sample, np.pi / L)
    lo, hi = sorted((e0[band], epi[band]))
    edge, shift = (hi, 0.05 * (hi - lo)) if side == "hi" else (lo, -0.05 * (hi - lo))
    spectrum = band_spectrum(sample)
    assert len(spectrum.gaps()) == L - 1 and spectrum.bands[band] == (lo, hi)

    def pushed(s, k):
        eps = eigenvalues(s, k).copy()
        eps[eps == edge] += shift
        return eps

    monkeypatch.setattr(jacobi, "bloch_eigenvalues", pushed)
    jacobi._band_spectrum_cached.cache_clear()  # the spectrum above is cached
    with pytest.raises(NumericalError, match="band interior violates"):
        band_spectrum(sample)


def bloch_bands(sample: SampleSpec) -> list[tuple[float, float]]:
    """Bands between eps_j(0) and eps_j(pi/L), merged where they touch within 1e-12.

    Reads jacobi.bloch_eigenvalues, so an edge pushed by `push_edge` moves here too.
    """
    L = sample.length
    e0, epi = jacobi.bloch_eigenvalues(sample, 0.0), jacobi.bloch_eigenvalues(sample, np.pi / L)
    merged = []
    for lo, hi in sorted((min(a, b), max(a, b)) for a, b in zip(e0, epi)):
        if merged and lo <= merged[-1][1] + 1e-12:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def backward_error(sample: SampleSpec) -> float:
    """dE = eps L ||h||, ||h|| = max|lambda_x| + 2 max(|J_x|, |kappa_s|)."""
    couplings = sample.hop + (sample.kappa_s,)
    norm_h = max(abs(v) for v in sample.onsite) + 2.0 * max(abs(j) for j in couplings)
    return np.finfo(float).eps * sample.length * norm_h


def test_one_call_cross_check_equals_the_per_band_loop(rng):
    # reference: one linspace, one discriminant and one slope call per band of positive width
    for L in [1, 2, 3, 5, 8, 13, 21, 24, 28, 32] * 4:
        s = SampleSpec(tuple(rng.uniform(0.2, 2.0, L - 1)), tuple(rng.uniform(-1.0, 1.0, L)),
                       float(rng.uniform(0.2, 2.0)))
        bands, dE = bloch_bands(s), backward_error(s)
        worst, failed = 0.0, False
        for lo, hi in bands:
            if hi - lo > 0.0:
                grid = np.linspace(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo), 17)
                excess = np.abs(discriminant(s, grid)) - 2.0
                worst = max(worst, 2.0 + float(np.max(excess)))
                past = excess > 1e-9
                slope = np.abs(_trace_slope(s, grid)[1])
                failed |= hi - lo > dE and bool(np.any(excess[past] > 4.0 * dE * slope[past]))
        if failed:
            with pytest.raises(NumericalError) as exc_info:
                band_spectrum(s)
            assert f"(worst {worst!r})" in str(exc_info.value)
        else:
            assert band_spectrum(s).bands == tuple(bands)


def push_edge(monkeypatch, sample: SampleSpec, band: int, side: str) -> None:
    """Move one edge of `band` 5 % of its width outward through bloch_eigenvalues."""
    eigenvalues = jacobi.bloch_eigenvalues
    L = sample.length
    e0, epi = eigenvalues(sample, 0.0), eigenvalues(sample, np.pi / L)
    lo, hi = sorted((e0[band], epi[band]))
    edge, shift = (hi, 0.05 * (hi - lo)) if side == "hi" else (lo, -0.05 * (hi - lo))

    def pushed(s, k):
        eps = eigenvalues(s, k).copy()
        eps[eps == edge] += shift
        return eps

    monkeypatch.setattr(jacobi, "bloch_eigenvalues", pushed)
    jacobi._band_spectrum_cached.cache_clear()  # a spectrum may be cached


def test_every_l32_probe_sample_is_accepted():
    # the benchmark's band_spectrum defect probe: 20 samples, half of which
    # failed a fixed 1e-9 trace tolerance although their edges are accurate
    for index in range(20):
        sample = probe_l32_sample(index)
        assert len(band_spectrum(sample).bands) == sample.length


@pytest.mark.parametrize("index, band, side", [(1, 4, "lo"), (1, 17, "hi"), (3, 30, "lo")])
def test_band_edge_pushed_into_a_gap_is_caught_at_l32(monkeypatch, index, band, side):
    sample = probe_l32_sample(index)
    bands = band_spectrum(sample).bands
    lo, hi = bands[band]
    gap = bands[band + 1][0] - hi if side == "hi" else lo - bands[band - 1][1]
    assert gap > 0.1 * (hi - lo)  # the pushed edge stays in the gap
    push_edge(monkeypatch, sample, band, side)
    with pytest.raises(NumericalError, match="band interior violates") as exc_info:
        band_spectrum(sample)
    # the message reports the worst |tr T_L| over every band's grid
    grids = [np.linspace(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo), 17)
             for lo, hi in bloch_bands(sample)]
    worst = max(float(np.max(np.abs(discriminant(sample, grid)))) for grid in grids)
    assert f"(worst {worst!r})" in str(exc_info.value)


@pytest.mark.parametrize("index", [0, 1, 4])
def test_trace_slope_matches_mpmath_at_l32(index):
    sample = probe_l32_sample(index)
    L = sample.length
    bands = band_spectrum(sample).bands
    E = np.array([
        bands[0][0] - 0.1,
        0.5 * (bands[3][0] + bands[3][1]),
        0.5 * (bands[10][1] + bands[11][0]),
        bands[20][0] + 0.02 * (bands[20][1] - bands[20][0]),
        bands[-1][1] - 1e-3 * (bands[-1][1] - bands[-1][0]),
    ])
    tr, slope = _trace_slope(sample, E)
    np.testing.assert_array_equal(tr, discriminant(sample, E))  # the kernel's values, bitwise
    with mpmath.workdps(40):
        for e, value in zip(E, slope):
            e = mpmath.mpf(e)
            a, b, c, d = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1)
            da = db = dc = dd = mpmath.mpf(0)
            for x in range(1, L + 1):
                J, lam = mpmath.mpf(sample.hopping(x)), mpmath.mpf(sample.onsite_at(x))
                a, b, c, d, da, db, dc, dd = (
                    ((e - lam) * a - c) / J, ((e - lam) * b - d) / J, J * a, J * b,
                    ((e - lam) * da + a - dc) / J, ((e - lam) * db + b - dd) / J, J * da, J * db,
                )
            ref = da + dd
            assert abs(value - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize(
    "sample, slope_calls",
    [(SampleSpec((), (0.2,), 0.9), 0), (GAPPED_L4, 0), (probe_l32_sample(0), 0),
     (probe_l32_sample(1), 1)],
    ids=["L1", "L4", "L32", "L32-past-fixed-tolerance"],
)
def test_one_kernel_call_per_band_spectrum(monkeypatch, sample, slope_calls):
    # only energies past |tr T_L| <= 2 + 1e-9 pay for a slope, in one more call
    L = sample.length
    calls, slope_sizes = [], []
    kernel, trace_slope = jacobi._one_period_abcd, jacobi._trace_slope

    def counting_kernel(s, E):
        calls.append(np.shape(E))
        return kernel(s, E)

    def counting_slope(s, E):
        slope_sizes.append(np.size(E))
        return trace_slope(s, E)

    monkeypatch.setattr(jacobi, "_one_period_abcd", counting_kernel)
    monkeypatch.setattr(jacobi, "_trace_slope", counting_slope)
    jacobi._band_spectrum_cached.cache_clear()  # another test may have cached this sample
    spectrum = band_spectrum(sample)
    assert len(spectrum.bands) == L
    assert calls == [(17, L)]
    assert len(slope_sizes) == slope_calls and all(0 < n < 17 * L for n in slope_sizes)


def test_band_spectrum_is_cached_per_sample(monkeypatch):
    calls = []
    kernel = jacobi._one_period_abcd

    def counting_kernel(s, E):
        calls.append(np.shape(E))
        return kernel(s, E)

    monkeypatch.setattr(jacobi, "_one_period_abcd", counting_kernel)
    jacobi._band_spectrum_cached.cache_clear()
    first = band_spectrum(GAPPED_L4)
    assert len(calls) == 1
    # an equal but distinct SampleSpec finds the same entry
    equal = SampleSpec(GAPPED_L4.hop, GAPPED_L4.onsite, GAPPED_L4.kappa_s)
    assert band_spectrum(equal) is first and len(calls) == 1


def test_band_spectrum_cache_keeps_signed_zero_onsite_values_apart():
    # SampleSpec equality takes -0.0 for 0.0; the cache key does not
    plus, minus = SampleSpec((1.0,), (0.0, 0.3), 0.5), SampleSpec((1.0,), (-0.0, 0.3), 0.5)
    assert plus == minus and jacobi._sample_key(plus) != jacobi._sample_key(minus)
    jacobi._band_spectrum_cached.cache_clear()
    for sample in (plus, minus, plus, minus):
        band_spectrum(sample)
    info = jacobi._band_spectrum_cached.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 2, 2)


def test_failing_cross_check_is_not_cached(monkeypatch):
    push_edge(monkeypatch, GAPPED_L4, 1, "lo")
    for _ in range(3):
        with pytest.raises(NumericalError, match="band interior violates"):
            band_spectrum(GAPPED_L4)
    info = jacobi._band_spectrum_cached.cache_info()
    assert (info.misses, info.currsize) == (3, 0)


def test_band_spectrum_cache_is_bounded(rng):
    maxsize = jacobi._band_spectrum_cached.cache_info().maxsize
    assert maxsize == jacobi._SPECTRUM_CACHE_SIZE >= 64
    jacobi._band_spectrum_cached.cache_clear()
    for _ in range(maxsize + 10):
        band_spectrum(random_sample(rng, max_sites=3))
    info = jacobi._band_spectrum_cached.cache_info()
    assert (info.misses, info.currsize) == (maxsize + 10, maxsize)


def test_l32_band_edges_and_thouless_conductance_match_mpmath():
    # the benchmark's second L = 32 probe sample, whose trace is ill-conditioned:
    # band_spectrum accepts it, and its edges and g_Th match 40-digit references
    sample = probe_l32_sample(1)
    L = sample.length
    ref = []
    with mpmath.workdps(40):
        for sign in (1.0, -1.0):  # k = 0 and k = pi/L: the corner phase is +-1
            h = mpmath.zeros(L, L)
            for i, v in enumerate(sample.onsite):
                h[i, i] = v
            for i, J in enumerate(sample.hop):
                h[i, i + 1] = h[i + 1, i] = J
            h[0, L - 1] = h[L - 1, 0] = sign * sample.kappa_s
            ref.append(sorted(mpmath.eigsy(h, eigvals_only=True)))
        ref_bands = sorted((min(a, b), max(a, b)) for a, b in zip(*ref))
        ref_measure = sum(b - a for a, b in ref_bands)
    bands = band_spectrum(sample).bands
    assert len(bands) == L
    edge_err = max(abs(float(r) - e) for rb, b in zip(ref_bands, bands) for r, e in zip(rb, b))
    assert edge_err <= 1e-14

    lo, hi = bands[0][0], bands[-1][1]
    with mpmath.workdps(40):
        g_ref = ref_measure / (2 * mpmath.pi * (mpmath.mpf(hi) - mpmath.mpf(lo)))
    assert thouless_conductance(sample, (lo, hi)) == pytest.approx(float(g_ref), rel=1e-13)

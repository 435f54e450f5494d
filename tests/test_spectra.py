import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hormspace import class_m as cm
from hormspace import embedding as em
from hormspace import spectra as sp


def test_r_gamma_examples():
    # with L = 2 pi the lattice frequencies are the integer mode numbers
    lat = sp.Lattice(k=2, n_x=8, n_t=16, L_x=2 * math.pi, L_t=2 * math.pi)
    r = sp.r_gamma_array(lat, 0.5)
    assert r[0, 0, 0] == 1.0  # xi = (0, 0), eta = 0
    assert r[1, 0, 0] == pytest.approx(math.sqrt(2))  # xi = (1, 0), eta = 0
    assert r[0, 0, 4] == pytest.approx(math.sqrt(5))  # xi = (0, 0), eta = 4
    with pytest.raises(ValueError):
        sp.r_gamma_array(sp.Lattice(k=1, n_x=8, n_t=8, L_x=1.0, L_t=1.0), 0.0)


def test_hormander_weight_examples():
    lat = sp.Lattice(k=2, n_x=8, n_t=8, L_x=2 * math.pi, L_t=2 * math.pi)
    # xi = (3, 1), eta = 2
    assert sp.weight_array(lat, sp.AnisotropicIndex(0.0, 0.7))[3, 1, 2] == 1.0
    # xi = (1, 0), eta = 0
    w = sp.weight_array(lat, sp.AnisotropicIndex(2.0, 0.5))
    assert w[1, 0, 0] == pytest.approx(2.0)
    # a time period that puts eta = e**2 - 1 on the lattice, so r_gamma = e
    lat_e = sp.Lattice(k=2, n_x=8, n_t=8, L_x=2 * math.pi, L_t=2 * math.pi / (math.e**2 - 1.0))
    idx = sp.AnisotropicIndex(1.0, 0.5, cm.log_power([1], cutoff=math.e))
    assert sp.weight_array(lat_e, idx)[0, 0, 1] == pytest.approx(math.e, rel=1e-14)


def test_lattice_validation():
    with pytest.raises(ValueError):
        sp.Lattice(k=0, n_x=8, n_t=8, L_x=1.0, L_t=1.0)
    with pytest.raises(ValueError):
        sp.Lattice(k=1, n_x=12, n_t=8, L_x=1.0, L_t=1.0)
    with pytest.raises(ValueError):
        sp.Lattice(k=1, n_x=8, n_t=8, L_x=0.0, L_t=1.0)


def test_lattice_refuses_more_axes_than_numpy_holds():
    # a 32-byte grid header could once ask for a shape tuple of 2**32 - 1
    # entries; the refusal comes before any shape or size is built
    with pytest.raises(ValueError, match="k = 4294967295"):
        sp.Lattice(k=2**32 - 1, n_x=1, n_t=1, L_x=1.0, L_t=1.0)
    lat = sp.Lattice(k=63, n_x=1, n_t=1, L_x=1.0, L_t=1.0)
    assert len(lat.shape) == 64 and lat.size == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_lattice_refuses_non_finite_periods(bad):
    with pytest.raises(ValueError, match="finite"):
        sp.Lattice(k=1, n_x=8, n_t=8, L_x=bad, L_t=1.0)
    with pytest.raises(ValueError, match="finite"):
        sp.Lattice(k=1, n_x=8, n_t=8, L_x=1.0, L_t=bad)


@pytest.mark.parametrize(
    "k, n_x, n_t, L_x, L_t, factor",
    [(63, 1, 1, 1e-5, 1.0, 10.0), (1, 2**20, 1, 1e-148, 1.0, 1e8), (1, 1, 4, 1.0, 1e-300, 1e150)],
    ids=["cell-volume", "xi-squared", "eta-squared"],
)
def test_lattice_refuses_periods_whose_frequencies_overflow(k, n_x, n_t, L_x, L_t, factor):
    # each case overflows in one of the three alone, and not at periods
    # factor times longer
    with pytest.raises(ValueError, match="overflows double precision"):
        sp.Lattice(k=k, n_x=n_x, n_t=n_t, L_x=L_x, L_t=L_t)
    sp.Lattice(k=k, n_x=n_x, n_t=n_t, L_x=factor * L_x, L_t=factor * L_t)


@pytest.mark.parametrize(
    "k, n_x, n_t, L_x, L_t, factor",
    [(63, 1, 2, 1e10, 1.0, 1e9), (1, 4, 4, 1e300, 1e300, 1e150), (1, 1, 1, 1e155, 1e155, 1e5)],
    ids=["k63", "k1", "subnormal"],
)
def test_lattice_refuses_periods_whose_cell_volume_underflows(k, n_x, n_t, L_x, L_t, factor):
    # a cell volume of 0, or below the smallest normal float, would make
    # every norm on the lattice 0 or lose its digits; periods factor times
    # shorter are accepted
    with pytest.raises(ValueError, match="the frequency cell underflows"):
        sp.Lattice(k=k, n_x=n_x, n_t=n_t, L_x=L_x, L_t=L_t)
    sp.Lattice(k=k, n_x=n_x, n_t=n_t, L_x=L_x / factor, L_t=L_t / factor)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_index_refuses_non_finite_s_and_gamma(bad):
    # gamma <= 0 is False for nan, so a nan index once gave a nan norm
    with pytest.raises(ValueError, match="finite"):
        sp.AnisotropicIndex(bad, 0.5)
    with pytest.raises(ValueError, match="finite"):
        sp.AnisotropicIndex(1.0, bad)


def test_lattice_frequencies_and_time_axis(small_lattice):
    xi = small_lattice.xi_axis()
    m = np.rint(xi * small_lattice.L_x / (2 * math.pi)).astype(int)
    assert set(m) == set(range(-4, 4))
    t = small_lattice.t_axis()
    assert t[small_lattice.n_t // 2] == 0.0
    assert t[0] == -small_lattice.L_t / 2


def test_dft_delta_and_constant(small_lattice):
    n = small_lattice.size
    delta = np.zeros(small_lattice.shape, dtype=complex)
    delta[0, 0] = 1.0
    field = sp.dft(sp.GridFunction(small_lattice, delta))
    assert np.allclose(np.abs(field.coeffs), n**-0.5)
    const = sp.dft(sp.GridFunction(small_lattice, np.ones(small_lattice.shape)))
    nonzero = np.abs(const.coeffs) > 1e-12
    assert nonzero.sum() == 1 and nonzero[0, 0]


def test_dft_round_trip(medium_lattice):
    g = sp.random_grid(medium_lattice, 11)
    back = sp.idft(sp.dft(g))
    scale = np.max(np.abs(g.samples))
    assert np.max(np.abs(back.samples - g.samples)) <= 1e-12 * scale


def test_parseval_many_inputs(medium_lattice):
    idx = sp.AnisotropicIndex(0.0, 0.5)
    root_cell = math.sqrt(medium_lattice.cell_volume)
    for seed in range(100):
        g = sp.random_grid(medium_lattice, seed)
        l2 = float(np.linalg.norm(g.samples.ravel())) * root_cell
        assert sp.hnorm(g, idx) == pytest.approx(l2, rel=1e-12)


@pytest.mark.parametrize("scale, s", [(1e200, 1.0), (1.0, 400.0)], ids=["power", "weight"])
def test_hnorm_past_the_largest_float_is_refused(small_lattice, scale, s):
    # the power spectrum or the weight overflows; the sum is refused and
    # numpy warns nowhere (a warning is an error under pytest)
    g = sp.GridFunction(small_lattice, scale * sp.random_grid(small_lattice, 3).samples)
    with pytest.raises(ValueError, match="the weighted sum overflows double precision"):
        sp.hnorm(g, sp.AnisotropicIndex(s, 0.5))


def test_hnorm_zero_and_single_mode(small_lattice):
    idx = sp.AnisotropicIndex(1.3, 0.5, cm.log_power([1]))
    zero = sp.GridFunction(small_lattice, np.zeros(small_lattice.shape))
    assert sp.hnorm(zero, idx) == 0.0
    coeffs = np.zeros(small_lattice.shape, dtype=complex)
    coeffs[3, 5] = 1.0
    g = sp.idft(sp.SpectralField(small_lattice, coeffs))
    xi = small_lattice.xi_axis()[3]
    eta = small_lattice.eta_axis()[5]
    # closed form: r_gamma = (1 + xi**2 + |eta|)**(1/2) at gamma = 1/2, and
    # log_power([1]) is log r above its cutoff e and 1 below it
    r = math.sqrt(1.0 + xi**2 + abs(eta))
    weight = r**1.3 * (math.log(r) if r >= math.e else 1.0)
    expected = weight * math.sqrt(small_lattice.cell_volume)
    assert sp.hnorm(g, idx) == pytest.approx(expected, rel=1e-13)


def test_weight_monotone_in_s(medium_lattice):
    idx1 = sp.AnisotropicIndex(1.0, 0.5)
    idx2 = sp.AnisotropicIndex(2.0, 0.5)
    w1 = sp.weight_array(medium_lattice, idx1)
    w2 = sp.weight_array(medium_lattice, idx2)
    assert np.all(w2 >= w1)


def test_embedding_constants_sobolev(medium_lattice):
    mk = lambda s: sp.AnisotropicIndex(s, 0.5)
    c_low, c_high = sp.embedding_constants(mk(1), mk(2), mk(3), medium_lattice)
    assert c_low <= 1.0 and c_high <= 1.0
    assert c_low == pytest.approx(1.0)  # attained at the origin
    assert sp.embedding_constants(mk(2), mk(2), mk(2), medium_lattice) == (1.0, 1.0)
    with pytest.raises(ValueError):
        sp.embedding_constants(mk(3), mk(2), mk(1), medium_lattice)


def test_embedding_constants_log_weight(medium_lattice):
    phi = cm.log_power([-1])
    mk = lambda s: sp.AnisotropicIndex(s, 0.5, phi)
    c_low, c_high = sp.embedding_constants(mk(1), mk(2), mk(3), medium_lattice)
    # brute-force scan oracle
    w = lambda idx: sp.weight_array(medium_lattice, idx)
    assert c_low == pytest.approx(float(np.max(w(mk(1)) / w(mk(2)))))
    assert c_high == pytest.approx(float(np.max(w(mk(2)) / w(mk(3)))))
    assert math.isfinite(c_low) and math.isfinite(c_high)


@pytest.mark.parametrize(
    "outer_phi", [cm.log_power([3]), cm.constant_one()], ids=["other", "shared"]
)
def test_embedding_constants_equal_weight_array_ratios(medium_lattice, outer_phi):
    # the weights share one r_gamma array, and phi(r) where the phis agree;
    # log**3 puts both maxima away from the origin, where every ratio is 1
    idx0 = sp.AnisotropicIndex(0.5, 0.5, outer_phi)
    idx = sp.AnisotropicIndex(1.5, 0.5)
    idx1 = sp.AnisotropicIndex(2.5, 0.5, outer_phi)
    w0, w, w1 = (sp.weight_array(medium_lattice, i) for i in (idx0, idx, idx1))
    want = (float(np.max(w0 / w)), float(np.max(w / w1)))
    assert sp.embedding_constants(idx0, idx, idx1, medium_lattice) == want


def test_norm_chain_certified(medium_lattice):
    phi = cm.log_power([1])
    idx0 = sp.AnisotropicIndex(0.5, 0.5, phi)
    idx = sp.AnisotropicIndex(1.5, 0.5)
    idx1 = sp.AnisotropicIndex(2.5, 0.5, phi)
    c_low, c_high = sp.embedding_constants(idx0, idx, idx1, medium_lattice)
    for seed in (0, 1, 2):
        g = sp.random_grid(medium_lattice, seed)
        assert sp.hnorm(g, idx0) <= c_low * sp.hnorm(g, idx) * (1 + 1e-12)
        assert sp.hnorm(g, idx) <= c_high * sp.hnorm(g, idx1) * (1 + 1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_grid_function_refuses_non_finite_samples(small_lattice, bad):
    samples = np.ones(small_lattice.shape, dtype=complex)
    samples[2, 3] = complex(0.0, bad)
    with pytest.raises(ValueError, match="finite"):
        sp.GridFunction(small_lattice, samples)


def test_grid_shape_validation(small_lattice):
    with pytest.raises(ValueError):
        sp.GridFunction(small_lattice, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        sp.SpectralField(small_lattice, np.zeros((8, 9)))


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(1, 3),
    n_x=st.sampled_from([2, 4, 8]),
    n_t=st.sampled_from([2, 4, 8, 16]),
    L_t=st.floats(0.5, 20.0),
    seed=st.integers(0, 2**16),
)
def test_dft_keeps_the_l2_norm_and_idft_inverts_it(k, n_x, n_t, L_t, seed):
    lat = sp.Lattice(k=k, n_x=n_x, n_t=n_t, L_x=2 * math.pi, L_t=L_t)
    rng = np.random.default_rng(seed)
    g = sp.GridFunction(lat, rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape))
    field = sp.dft(g)
    energy = float(np.sum(np.abs(g.samples) ** 2))
    assert float(np.sum(np.abs(field.coeffs) ** 2)) == pytest.approx(energy, rel=1e-12)
    back = sp.idft(field).samples
    assert np.max(np.abs(back - g.samples)) <= 1e-13 * np.max(np.abs(g.samples))


def _full_lattice_r(lat, gamma):
    """r_gamma computed at every point of the lattice, as before the folded
    quadrant; kept as the reference for the fast path."""
    xi = lat.xi_axis()
    eta = lat.eta_axis()
    sq = np.zeros(lat.shape)
    for axis in range(lat.k):
        shape = [1] * (lat.k + 1)
        shape[axis] = lat.n_x
        sq = sq + (xi**2).reshape(shape)
    sq = sq + (np.abs(eta) ** (2.0 * gamma)).reshape((1,) * lat.k + (lat.n_t,))
    return np.sqrt(1.0 + sq)


def _same_bits(a, b):
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


_phis = st.one_of(
    st.just(cm.constant_one()),
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=2).map(cm.log_power),
)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 3),
    n_x=st.sampled_from([1, 2, 4, 8, 16]),
    n_t=st.sampled_from([1, 2, 4, 8, 16]),
    L_x=st.floats(0.3, 30.0).filter(lambda L: L != 2 * math.pi),
    L_t=st.floats(0.3, 30.0).filter(lambda L: L != 2 * math.pi),
    gamma=st.floats(0.1, 2.0),
    s=st.floats(-3.0, 3.0),
    ds=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
    phi=_phis,
    alpha_beta=st.tuples(st.lists(st.integers(0, 2), min_size=3, max_size=3), st.integers(0, 2)),
)
# xi ** 4 and (-xi) ** 4 differ in the last bit at m = 7 and -7 on this
# lattice, so the folded weight sum agrees with the full one only up to rounding
@example(k=3, n_x=16, n_t=1, L_x=13.564051025935854, L_t=1.0, gamma=1.0, s=0.0,
         ds=(0.0, 0.0), phi=cm.constant_one(), alpha_beta=([1, 2, 1], 0))
# axes of one and two points: every folded entry stands for one lattice point
@example(k=2, n_x=1, n_t=2, L_x=1.0, L_t=3.0, gamma=0.5, s=1.5,
         ds=(0.5, 0.5), phi=cm.log_power([1.0]), alpha_beta=([0, 0, 0], 2))
@example(k=2, n_x=2, n_t=1, L_x=3.0, L_t=1.0, gamma=0.5, s=1.5,
         ds=(0.5, 0.5), phi=cm.log_power([1.0]), alpha_beta=([2, 1, 0], 0))
def test_folded_weights_have_the_full_lattice_bits(
    k, n_x, n_t, L_x, L_t, gamma, s, ds, phi, alpha_beta
):
    lat = sp.Lattice(k=k, n_x=n_x, n_t=n_t, L_x=L_x, L_t=L_t)
    r = _full_lattice_r(lat, gamma)
    assert _same_bits(sp.r_gamma_array(lat, gamma), r)
    idx = sp.AnisotropicIndex(s, gamma, phi)
    w = r**s * cm.eval_phi(phi, r)
    assert _same_bits(sp.weight_array(lat, idx), w)
    # the norm on the folded quadrant against the folded power spectrum
    g = sp.random_grid(lat, 3)
    power = np.abs(np.fft.fftn(g.samples, norm="ortho")) ** 2
    want = math.sqrt(float(np.sum(w**2 * power)) * lat.cell_volume)
    assert sp.hnorm(g, idx) == pytest.approx(want, rel=1e-14, abs=0.0)

    idx0 = sp.AnisotropicIndex(s - ds[0], gamma, phi)
    idx1 = sp.AnisotropicIndex(s + ds[1], gamma, cm.constant_one())
    w0 = r**idx0.s * cm.eval_phi(phi, r)
    w1 = r**idx1.s * cm.eval_phi(idx1.phi, r)
    want = (float(np.max(w0 / w)), float(np.max(w / w1)))
    assert _same_bits(sp.embedding_constants(idx0, idx, idx1, lat), want)

    alpha, beta = tuple(alpha_beta[0][:k]), alpha_beta[1]
    num = np.ones(lat.shape)
    for axis, a in enumerate(alpha):
        shape = [1] * (k + 1)
        shape[axis] = n_x
        num = num * (lat.xi_axis() ** (2 * a)).reshape(shape)
    num = num * (np.abs(lat.eta_axis()) ** (2 * beta)).reshape((1,) * k + (n_t,))
    weight = r ** (2.0 * s) * cm.eval_phi(phi, r) ** 2
    want = float(np.sum(num / weight) * lat.cell_volume)
    got = em.derivative_weight_sum(lat, s, gamma, phi, alpha, beta)
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n, counts", [(1, [1]), (2, [1, 1]), (4, [1, 2, 1]), (8, [1, 2, 2, 2, 1])])
@pytest.mark.parametrize("time_axis", [False, True])
def test_folded_sum_counts_the_mirrors_of_each_entry(n, counts, time_axis):
    # on one axis of n points, folded entry i stands for counts[i] lattice
    # points: m and -m, or one point at m = 0 and m = -n/2
    lat = sp.Lattice(k=1, n_x=1 if time_axis else n, n_t=n if time_axis else 1, L_x=1.0, L_t=1.0)
    shape = (1, -1) if time_axis else (-1, 1)
    got = [sp._folded_sum(lat, e.reshape(shape)) for e in np.eye(n // 2 + 1)]
    assert got == counts


@pytest.mark.parametrize(
    "k, n_x, n_t", [(1, 1, 1), (2, 1, 2), (1, 2, 1), (3, 2, 2), (2, 4, 8), (1, 16, 2)]
)
def test_folded_sum_is_the_sum_over_the_unfolded_lattice(k, n_x, n_t):
    # integers sum exactly in any order, so the two sums are equal
    lat = sp.Lattice(k=k, n_x=n_x, n_t=n_t, L_x=1.0, L_t=1.0)
    shape = sp._folded_r(lat, 1.0).shape
    rng = np.random.default_rng(k * n_x * n_t)
    a = rng.integers(1, 1000, size=shape).astype(float)
    assert sp._folded_sum(lat, a) == float(np.sum(sp._unfold(lat, a)))
    assert sp._folded_sum(lat, np.ones(shape)) == lat.size
    # against a whole-lattice b, which is folded: b[m] + b[-m], once at m = -m
    b = rng.integers(-1000, 1000, size=lat.shape).astype(float)
    assert np.sum(a * sp._fold(lat, b)) == float(np.sum(sp._unfold(lat, a) * b))
    assert np.sum(np.ones(shape) * sp._fold(lat, b)) == float(np.sum(b))


@pytest.mark.parametrize(
    "k, n_x, n_t", [(1, 1, 1), (1, 1, 4), (2, 2, 1), (1, 4, 2), (2, 4, 8), (3, 8, 4), (1, 16, 1)]
)
def test_fold_is_the_adjoint_of_unfold(k, n_x, n_t):
    # sum unfold(a) * b == sum a * fold(b), exactly on integers, on axes of
    # 1, 2 and at least 4 points
    lat = sp.Lattice(k=k, n_x=n_x, n_t=n_t, L_x=1.0, L_t=1.0)
    shape = sp._folded_r(lat, 1.0).shape
    rng = np.random.default_rng(k + 10 * n_x + 100 * n_t)
    for _ in range(5):
        a = rng.integers(-1000, 1000, size=shape).astype(float)
        b = rng.integers(-1000, 1000, size=lat.shape).astype(float)
        folded = sp._fold(lat, b)
        assert folded.shape == shape
        assert np.sum(sp._unfold(lat, a) * b) == np.sum(a * folded)


def test_the_folded_layout_is_named_only_in_spectra():
    # the folded quadrant is spectra's layout: no other module unfolds
    src = pathlib.Path(sp.__file__).parent
    users = {
        path.name
        for path in src.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if "_unfold" in {getattr(node, "id", None), getattr(node, "attr", None),
                         getattr(node, "name", None)}
    }
    assert users == {"spectra.py"}


@pytest.mark.parametrize("shape", [(1, 1), (8, 16), (4, 4, 8), (16, 16, 16, 32)])
@pytest.mark.parametrize("seed", [0, 1, 7, 1401])
def test_random_grid_keeps_the_bits_of_a_plus_i_b(shape, seed):
    # the samples are filled in place, with the draws of a + 1j * b in the
    # same order
    lat = sp.Lattice(k=len(shape) - 1, n_x=shape[0], n_t=shape[-1], L_x=1.0, L_t=2.0)
    rng = np.random.default_rng(seed)
    want = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = sp.random_grid(lat, seed).samples
    assert got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

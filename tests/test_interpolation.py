import math

import numpy as np
import pytest

from conftest import oracle_plus_norm
from hormspace import class_m as cm
from hormspace import interpolation as ip
from hormspace import plus_spaces as ps
from hormspace import spectra as sp


def test_build_psi_power_case():
    p = ip.build_psi(0, 1, 2, cm.constant_one())
    assert p.theta == 0.5
    r = np.geomspace(1, 1e8, 30)
    assert np.allclose(ip.eval_psi(p, r), np.sqrt(r), rtol=1e-14)
    assert ip.eval_psi(p, 0.5) == 1.0  # phi(1) below r = 1


def test_build_psi_log_case():
    p = ip.build_psi(0, 1, 2, cm.log_power([1], cutoff=1.5))
    assert ip.eval_psi(p, 4.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-14)


def test_psi_below_one_is_phi_of_one():
    phi = cm.log_power([2, -1])
    p = ip.build_psi(1, 2.5, 4, phi)
    assert ip.eval_psi(p, 0.25) == cm.eval_phi(phi, 1.0)


def test_build_psi_ordering():
    with pytest.raises(ValueError):
        ip.build_psi(2, 1, 0, cm.constant_one())
    with pytest.raises(ValueError):
        ip.build_psi(0, 0, 1, cm.constant_one())


def test_regular_variation_power_exact():
    ladder = np.geomspace(1e3, 1e12, 10)
    p = ip.build_psi(0, 0.5, 2, cm.constant_one())
    assert ip.regular_variation_index(p, ladder) == pytest.approx(0.25, abs=1e-13)


def test_regular_variation_log_bias_decays():
    # the doubling estimator carries a 1/log(r) bias: about 0.036 at r=1e12
    p = ip.build_psi(0, 1, 2, cm.log_power([1]))
    est12 = ip.regular_variation_index(p, np.geomspace(1e9, 1e12, 6))
    assert est12 == pytest.approx(0.5, abs=0.04)
    est24 = ip.regular_variation_index(p, np.geomspace(1e21, 1e24, 6))
    assert abs(est24 - 0.5) < abs(est12 - 0.5)  # bias shrinks with r


def test_regular_variation_ladder_validation():
    p = ip.build_psi(0, 1, 2, cm.constant_one())
    with pytest.raises(ValueError):
        ip.regular_variation_index(p, [10.0, 5.0, 20.0])
    with pytest.raises(ValueError):
        ip.regular_variation_index(p, [10.0, 20.0])


def test_generating_operator(medium_lattice):
    pair = ip.sobolev_pair(medium_lattice, 1.0, 3.0, 0.5)
    mult = ip.generating_operator(pair)
    r = sp.r_gamma_array(medium_lattice, 0.5)
    assert np.allclose(mult, r**2, rtol=1e-13)
    assert np.all(mult >= 1.0)
    same = ip.DiagonalPair(medium_lattice, r, r)
    assert np.all(ip.generating_operator(same) == 1.0)


def test_pair_admissibility(medium_lattice):
    r = sp.r_gamma_array(medium_lattice, 0.5)
    with pytest.raises(ValueError):
        ip.DiagonalPair(medium_lattice, r, r * 0.5)
    with pytest.raises(ValueError):
        ip.DiagonalPair(medium_lattice, 0.0 * r, r)


def test_interp_norm_single_mode(small_lattice):
    pair = ip.sobolev_pair(small_lattice, 0.0, 2.0, 0.5)
    p = ip.build_psi(0, 1, 2, cm.log_power([1]))
    coeffs = np.zeros(small_lattice.shape, dtype=complex)
    coeffs[2, 6] = 3.0 - 1.0j
    g = sp.idft(sp.SpectralField(small_lattice, coeffs))
    mult = ip.generating_operator(pair)[2, 6]
    expected = (
        pair.mu0[2, 6]
        * ip.eval_psi(p, mult)
        * abs(coeffs[2, 6])
        * math.sqrt(small_lattice.cell_volume)
    )
    assert ip.interp_norm(g, pair, p) == pytest.approx(expected, rel=1e-13)


def test_interp_norm_equals_x0_for_equal_pair(small_lattice):
    r = sp.r_gamma_array(small_lattice, 0.5)
    pair = ip.DiagonalPair(small_lattice, r**1.5, r**1.5)
    p = ip.build_psi(0, 1, 2, cm.constant_one())  # psi(1) = 1
    g = sp.random_grid(small_lattice, 4)
    x0 = sp.hnorm(g, sp.AnisotropicIndex(1.5, 0.5))
    assert ip.interp_norm(g, pair, p) == pytest.approx(x0, rel=1e-13)


def test_pointwise_multiplier_identity(medium_lattice):
    # psi(r**(s1-s0)) == r**(s-s0) * phi(r) at every lattice point
    for phi in (cm.constant_one(), cm.log_power([1]), cm.log_power([2, -1])):
        for s0, s, s1 in [(0, 1, 2), (1, 2.5, 4), (0, 0.5, 3)]:
            p = ip.build_psi(s0, s, s1, phi)
            r = sp.r_gamma_array(medium_lattice, 0.5)
            lhs = ip.eval_psi(p, r ** (s1 - s0))
            rhs = r ** (s - s0) * cm.eval_phi(phi, r)
            assert np.max(np.abs(lhs / rhs - 1.0)) < 1e-13


def test_verify_lemma71_zero_input(small_lattice):
    g = sp.GridFunction(small_lattice, np.zeros(small_lattice.shape))
    assert ip.verify_lemma71(g, 0, 1, 2, 0.5, cm.constant_one()) == 1.0


def test_verify_lemma71_single_mode(small_lattice):
    coeffs = np.zeros(small_lattice.shape, dtype=complex)
    coeffs[5, 2] = 1.0
    g = sp.idft(sp.SpectralField(small_lattice, coeffs))
    r = ip.verify_lemma71(g, 1, 2.5, 4, 0.5, cm.log_power([1]))
    assert r == pytest.approx(1.0, abs=1e-13)


def test_verify_lemma71_random(medium_lattice):
    for seed in range(10):
        g = sp.random_grid(medium_lattice, seed)
        r = ip.verify_lemma71(g, 0, 1, 2, 0.5, cm.log_power([2, -1]))
        assert abs(r - 1.0) <= 1e-12


@pytest.mark.parametrize("k,n_x,n_t", [(1, 16, 32), (2, 8, 16), (3, 4, 8)])
@pytest.mark.parametrize("phi", [cm.constant_one(), cm.log_power([0.7])], ids=["one", "log"])
@pytest.mark.parametrize("s0,s,s1", [(0.0, 1.3, 2.0), (0.3, 1.1, 2.7), (-0.5, 0.77, 3.1)])
def test_verify_lemma71_is_the_quotient_of_the_public_norms(k, n_x, n_t, phi, s0, s, s1):
    # one transform and one r_gamma array serve both norms; the ratio is the
    # quotient of the two public norms up to rounding, since interp_norm sums
    # over the whole lattice and verify_lemma71 on the folded quadrant
    lat = sp.Lattice(k=k, n_x=n_x, n_t=n_t, L_x=2 * math.pi, L_t=2 * math.pi)
    g = sp.random_grid(lat, 7)
    want = ip.interp_norm(g, ip.sobolev_pair(lat, s0, s1, 0.5), ip.build_psi(s0, s, s1, phi)) / (
        sp.hnorm(g, sp.AnisotropicIndex(s, 0.5, phi))
    )
    assert ip.verify_lemma71(g, s0, s, s1, 0.5, phi) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_verify_lemma71_transforms_and_folds_once(monkeypatch, medium_lattice):
    calls = {"fftn": 0, "fold": 0}
    fftn, fold = np.fft.fftn, ip._fold

    def fftn_spy(*args, **kwargs):
        calls["fftn"] += 1
        return fftn(*args, **kwargs)

    def fold_spy(*args):
        calls["fold"] += 1
        return fold(*args)

    monkeypatch.setattr(np.fft, "fftn", fftn_spy)
    monkeypatch.setattr(ip, "_fold", fold_spy)
    g = sp.random_grid(medium_lattice, 3)
    for n in (1, 2):
        ip.verify_lemma71(g, 0.0, 1.3, 2.0, 0.5, cm.log_power([0.7]))
        assert calls == {"fftn": n, "fold": n}


@pytest.mark.parametrize("k,n_x,n_t", [(1, 16, 32), (2, 8, 16), (3, 4, 8)])
@pytest.mark.parametrize("phi", [cm.constant_one(), cm.log_power([0.7])], ids=["one", "log"])
def test_verify_lemma71_denominator_is_hnorm_to_the_last_bit(monkeypatch, k, n_x, n_t, phi):
    # the first Parseval sum verify_lemma71 takes is its denominator
    sums = []
    parseval = ip._parseval_norm

    def spy(*args):
        sums.append(parseval(*args))
        return sums[-1]

    monkeypatch.setattr(ip, "_parseval_norm", spy)
    lat = sp.Lattice(k=k, n_x=n_x, n_t=n_t, L_x=2 * math.pi, L_t=2 * math.pi)
    g = sp.random_grid(lat, 7)
    ratio = ip.verify_lemma71(g, 0.3, 1.1, 2.7, 0.5, phi)
    assert len(sums) == 2
    assert sums[0] == sp.hnorm(g, sp.AnisotropicIndex(1.1, 0.5, phi))
    assert ratio == sums[1] / sums[0]


def test_direct_sum_equality(medium_lattice):
    p = ip.build_psi(0, 1, 2, cm.log_power([1]))
    rng = np.random.default_rng(7)
    pairs, gs = [], []
    for i in range(3):
        s0, s1 = sorted(rng.uniform(0, 3, size=2) + [0, 1e-3])
        pairs.append(ip.sobolev_pair(medium_lattice, s0, s1 + 0.5, 0.5))
        gs.append(sp.random_grid(medium_lattice, 20 + i))
    lhs, rhs = ip.direct_sum_interp_check(pairs, gs, p)
    assert abs(lhs - rhs) <= 1e-12 * rhs


def test_direct_sum_degenerate_cases(medium_lattice):
    p = ip.build_psi(0, 1, 2, cm.constant_one())
    pair = ip.sobolev_pair(medium_lattice, 0, 2, 0.5)
    g = sp.random_grid(medium_lattice, 1)
    zero = sp.GridFunction(medium_lattice, np.zeros(medium_lattice.shape))
    lhs, rhs = ip.direct_sum_interp_check([pair], [g], p)
    assert lhs == pytest.approx(rhs, rel=1e-14)
    lhs2, _ = ip.direct_sum_interp_check([pair, pair], [g, zero], p)
    assert lhs2 == pytest.approx(ip.interp_norm(g, pair, p), rel=1e-13)
    with pytest.raises(ValueError):
        ip.direct_sum_interp_check([pair], [g, g], p)


@pytest.mark.parametrize("distinct", [1, 3])
def test_direct_sum_takes_one_weight_per_distinct_pair(medium_lattice, monkeypatch, distinct):
    p = ip.build_psi(0, 1, 2, cm.log_power([1]))
    pairs = [ip.sobolev_pair(medium_lattice, 0.1 * i, 2 + 0.1 * i, 0.5) for i in range(distinct)]
    pairs = (pairs * 3)[:3]
    gs = [sp.random_grid(medium_lattice, 30 + i) for i in range(3)]
    calls = []
    interp_weight = ip._interp_weight

    def spy(mu0, mu1, p):
        calls.append(mu0)
        return interp_weight(mu0, mu1, p)

    monkeypatch.setattr(ip, "_interp_weight", spy)
    lhs, rhs = ip.direct_sum_interp_check(pairs, gs, p)
    assert len(calls) == distinct
    # each summand keeps the arithmetic of a weight taken for it alone
    summands = []
    for pair, g in zip(pairs, gs):
        w = interp_weight(pair.mu0, pair.mu1, p) * np.abs(np.fft.fftn(g.samples, norm="ortho"))
        summands.append(w * math.sqrt(medium_lattice.cell_volume))
    assert lhs == float(np.linalg.norm(np.concatenate([w.ravel() for w in summands])))
    assert rhs == float(np.sqrt(np.sum(np.asarray([np.sqrt(np.sum(w**2)) for w in summands]) ** 2)))


def test_overflowing_interpolated_weight_is_refused():
    # r**400 overflows where r > 5.9, so psi(mu1 / mu0) = r would read inf
    lat = sp.Lattice(k=2, n_x=16, n_t=16, L_x=2 * math.pi, L_t=2 * math.pi)
    g = sp.random_grid(lat, 5)
    with pytest.raises(ValueError, match="the interpolated weight overflows double precision"):
        ip.verify_lemma71(g, 0.0, 1.0, 400.0, 0.5, cm.constant_one())
    pair = ip.sobolev_pair(lat, 0.0, 400.0, 0.5)
    with pytest.raises(ValueError, match="the interpolated weight overflows double precision"):
        ip.interp_norm(g, pair, ip.build_psi(0, 1, 400, cm.constant_one()))


def test_interp_subspace_norm_zero(small_lattice):
    region = ps.time_window_region(small_lattice, 0.0, small_lattice.L_t / 4)
    zero = sp.GridFunction(small_lattice, np.zeros(small_lattice.shape))
    lhs, rhs = ip.interp_subspace_norm(zero, region, 0, 1, 2, 0.5, cm.constant_one())
    assert lhs == 0.0 and rhs == 0.0


def test_interp_subspace_norm_vs_dense_oracle(small_lattice):
    region = ps.time_window_region(small_lattice, 0.0, small_lattice.L_t / 4)
    t = small_lattice.t_axis()
    rng = np.random.default_rng(11)
    supported = np.where(region.v_mask, rng.standard_normal(small_lattice.shape), 0.0)
    g = sp.GridFunction(small_lattice, supported)
    phi = cm.log_power([1])
    lhs, rhs = ip.interp_subspace_norm(g, region, 0, 1.3, 3, 0.5, phi)
    idx = sp.AnisotropicIndex(1.3, 0.5, phi)
    assert rhs == pytest.approx(oracle_plus_norm(supported, idx, region), rel=1e-10)
    assert lhs == pytest.approx(sp.hnorm(g, idx), rel=1e-12)  # Sobolev-pair equality
    assert lhs >= rhs * (1 - 1e-12)


def test_interp_subspace_ratio_resolution_stable():
    phi = cm.constant_one()
    ratios = []
    for n_t in (8, 16, 32):
        lat = sp.Lattice(k=1, n_x=8, n_t=n_t, L_x=2 * math.pi, L_t=2 * math.pi)
        tau = lat.L_t / 4
        x, t = lat.x_axis(), lat.t_axis()
        X, T = np.meshgrid(x, t, indexing="ij")
        chi = np.where((T > 0) & (T < tau), np.sin(np.pi * np.clip(T, 0, tau) / tau) ** 2, 0.0)
        g = sp.GridFunction(lat, np.exp(np.sin(X)) * chi)
        region = ps.RegionMask(lat, (T > 0) & (T < tau), T >= 0)
        lhs, rhs = ip.interp_subspace_norm(g, region, 0, 1.3, 3, 0.5, phi)
        ratios.append(lhs / rhs)
    assert max(ratios) / min(ratios) < 2.0


def test_interp_subspace_support_validation(small_lattice):
    region = ps.time_window_region(small_lattice, 0.0, small_lattice.L_t / 4)
    bad = sp.GridFunction(small_lattice, np.ones(small_lattice.shape))
    with pytest.raises(ValueError):
        ip.interp_subspace_norm(bad, region, 0, 1, 2, 0.5, cm.constant_one())
    with pytest.raises(ValueError):
        zero = sp.GridFunction(small_lattice, np.zeros(small_lattice.shape))
        ip.interp_subspace_norm(zero, region, -1, 1, 2, 0.5, cm.constant_one())

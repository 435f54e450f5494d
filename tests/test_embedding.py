import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from hormspace import class_m as cm
from hormspace import embedding as em
from hormspace import spectra as sp


def oracle_classify(phi):
    """Quadrature-only convergence classifier.

    Integrates d r / (r phi**2) over panels geometric in the deepest
    iterated-log variable; the fitted slope of log(panel integral) against
    panel index separates convergent tails (negative slope) from divergent
    ones (zero or positive slope).  Only phi evaluations are used, never
    the exponent rule.
    """
    k = 0 if phi.kind == "constant_one" else len(phi.exponents)
    if k <= 1:
        # panels geometric in u = log r; u stays a plain float
        edges = [2.0**j for j in range(6, 40)]

        def panel(a, b):
            val, _ = quad(lambda u: 1.0 / cm.eval_phi_of_exp(phi, u) ** 2, a, b, limit=200)
            return val

    elif k == 2:
        # panels geometric in w = loglog r; u = e**w up to ~1e222
        edges = [2.0**j for j in range(3, 10)]

        def panel(a, b):
            def integrand(w):
                u = math.exp(w)
                return u / cm.eval_phi_of_exp(phi, u) ** 2

            val, _ = quad(integrand, a, b, limit=200)
            return val

    else:
        raise NotImplementedError("oracle supports at most two iterated logs")
    increments = np.array([panel(a, b) for a, b in zip(edges, edges[1:])])
    j = np.arange(len(increments))
    slope = np.polyfit(j, np.log(increments), 1)[0]
    return "converges" if slope < -0.05 else "diverges"


@pytest.mark.parametrize(
    "phi,expected",
    [
        (cm.constant_one(), "diverges"),
        (cm.log_power([0.4]), "diverges"),
        (cm.log_power([0.5]), "diverges"),
        (cm.log_power([0.6]), "converges"),
        (cm.log_power([0.5, 0.4]), "diverges"),
        (cm.log_power([0.5, 0.6]), "converges"),
        (cm.log_power([0.5, 0.5]), "diverges"),
        (cm.log_power([1]), "converges"),
        (cm.log_power([-1]), "diverges"),
    ],
    ids=str,
)
def test_verdict_matches_quadrature_oracle(phi, expected):
    assert em.criterion_verdict(phi) == expected
    assert oracle_classify(phi) == expected


def test_partial_constant_one_exact():
    assert em.criterion_partial(cm.constant_one(), math.e) == pytest.approx(1.0, rel=1e-10)
    assert em.criterion_partial(cm.constant_one(), math.exp(10.0)) == pytest.approx(10.0, rel=1e-10)
    assert em.criterion_partial(cm.constant_one(), 1.0) == 0.0


@pytest.mark.parametrize("R", [math.nan, math.inf, 0.5])
def test_partial_refuses_radius_outside_one_to_inf(R):
    # R = nan once gave a partial integral of 0, R = inf one of -1
    with pytest.raises(ValueError, match="R must be"):
        em.criterion_partial(cm.constant_one(), R)


def test_partial_log_analytic():
    # with the default cutoff e: 1 below the cutoff plus 1 - 1/log R beyond it
    phi = cm.log_power([1])
    for R in (1e2, 1e6, 1e12):
        expected = 1.0 + (1.0 - 1.0 / math.log(R))
        assert em.criterion_partial(phi, R) == pytest.approx(expected, rel=1e-8)


def test_partial_growth_trend_matches_verdict():
    ladder = [1e3, 1e6, 1e9, 1e12]
    div = [em.criterion_partial(cm.log_power([0.4]), R) for R in ladder]
    conv = [em.criterion_partial(cm.log_power([1]), R) for R in ladder]
    assert all(b > a for a, b in zip(div, div[1:]))
    # convergent tail: remaining increments shrink fast
    assert (conv[3] - conv[2]) < 0.25 * (conv[1] - conv[0])


def test_weight_sum_matches_direct_loop():
    lat = sp.Lattice(k=2, n_x=8, n_t=8, L_x=2 * math.pi, L_t=2 * math.pi)
    phi = cm.log_power([1])
    s, gamma = 2.0, 0.5
    for alpha, beta in [((0, 0), 0), ((1, 0), 0), ((0, 0), 1)]:
        got = em.derivative_weight_sum(lat, s + 2 * (beta + sum(alpha)), gamma, phi, alpha, beta)
        xi = lat.xi_axis()
        eta = lat.eta_axis()
        total = 0.0
        for i in range(8):
            for j in range(8):
                for q in range(8):
                    r = math.sqrt(1 + xi[i] ** 2 + xi[j] ** 2 + abs(eta[q]))
                    num = xi[i] ** (2 * alpha[0]) * xi[j] ** (2 * alpha[1]) * abs(eta[q]) ** (2 * beta)
                    total += num / (r ** (2 * (s + 2 * (beta + sum(alpha)))) * cm.eval_phi(phi, r) ** 2)
        total *= lat.cell_volume
        assert got == pytest.approx(total, rel=1e-12)


@pytest.mark.parametrize("alpha, beta", [((2, 0, 0), 0), ((1, 1, 0), 0), ((0, 0, 0), 2)])
def test_weight_sum_stays_on_the_folded_quadrant(monkeypatch, alpha, beta):
    # one folded r_gamma array, summed against the mirror counts: nothing is
    # unfolded, and no array as large as the lattice is built (the lattice
    # has 12.6 times the points of its folded quadrant)
    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name, fn in (("_folded_r", sp._folded_r), ("_unfold", sp._unfold)):
        for mod in (sp, em):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, spy(name, fn))
    lat = sp.Lattice(k=3, n_x=32, n_t=32, L_x=2 * math.pi, L_t=2 * math.pi)
    tracemalloc.start()
    try:
        em.derivative_weight_sum(lat, 3.0, 0.5, cm.log_power([1.0]), alpha, beta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == ["_folded_r"]
    assert peak < 8 * lat.size


def test_weight_sum_monotone_in_s():
    lat = sp.Lattice(k=2, n_x=8, n_t=8, L_x=2 * math.pi, L_t=2 * math.pi)
    phi = cm.constant_one()
    vals = [em.derivative_weight_sum(lat, s, 0.5, phi, (1, 0), 0) for s in (2.0, 2.5, 3.0)]
    assert vals[0] > vals[1] > vals[2]


def test_weight_sum_margin_converges_borderline_grows():
    # p=0, b=1, n=2: borderline s = 2 grows like log(lattice); s = 7 settles
    phi = cm.constant_one()
    gamma = 0.5
    sums_border, sums_margin = [], []
    lat = sp.Lattice(k=2, n_x=8, n_t=8, L_x=2 * math.pi, L_t=2 * math.pi)
    for _ in range(3):
        sums_border.append(em.derivative_weight_sum(lat, 2.0, gamma, phi, (0, 0), 0))
        sums_margin.append(em.derivative_weight_sum(lat, 7.0, gamma, phi, (0, 0), 0))
        lat = lat.refine(2, 2)
    inc_border = np.diff(sums_border)
    assert inc_border[1] == pytest.approx(inc_border[0], rel=0.35)  # ~log growth
    assert inc_border[1] > 0.5 * inc_border[0]
    inc_margin = np.diff(sums_margin)
    assert inc_margin[1] < 0.05 * sums_margin[-1]  # settled


@pytest.mark.parametrize("p,alpha", [(0, (0, 0)), (1, (0, 0)), (1, (1, 0))])
@pytest.mark.parametrize("phi", [cm.constant_one(), cm.log_power([1])], ids=["one", "log"])
def test_radial_reduction_stable_across_R(p, alpha, phi):
    s = p + 1 + 1.0  # b = 1, n = 2
    for R in (10.0, 30.0, 100.0):
        res = em.radial_reduction_check(s, 0.5, phi, alpha, 0, R)
        assert res.relerr <= 1e-3


def test_radial_reduction_calibration_constant():
    # alpha = beta = 0: the angular factor is the full sphere area times the
    # eta substitution, which comes to exactly 4 pi in two space dimensions
    res = em.radial_reduction_check(2.0, 0.5, cm.constant_one(), (0, 0), 0, 10.0)
    assert res.c_alpha_beta == pytest.approx(4 * math.pi, rel=1e-10)


def test_radial_reduction_beta_case():
    res = em.radial_reduction_check(4.0, 0.5, cm.constant_one(), (0, 0), 1, 10.0)
    assert res.relerr <= 1e-3


def _lhs_truncated_per_row(s, gamma, phi, alpha, beta, R, n_nodes=96):
    """Oracle for _lhs_truncated: one inner Gauss rule per outer node, row by row.

    The rule on [-1, 1] is built once here too; leggauss is deterministic,
    so these are the arrays a per-row call would return.
    """
    x, w = np.polynomial.legendre.leggauss(n_nodes)

    def gauss(a, b):
        return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w

    n = len(alpha)
    b = float(round(1.0 / (2.0 * gamma)))
    if R <= 1.0:
        return 0.0
    ang = em._angular_moment(alpha)
    v_top = (R**2 - 1.0) ** 0.5
    v_nodes, v_w = gauss(0.0, v_top)
    total = 0.0
    for v, wv in zip(v_nodes, v_w):
        rho_top = math.sqrt(max(R**2 - 1.0 - v**2, 0.0))
        if rho_top <= 0.0:
            continue
        rho, wr = gauss(0.0, rho_top)
        rr = np.sqrt(1.0 + rho**2 + v**2)
        dens = rho ** (2 * sum(alpha) + n - 1) / (rr ** (2.0 * s) * cm.eval_phi(phi, rr) ** 2)
        inner = float(np.sum(dens * wr))
        total += wv * inner * 2.0 * b * v ** (4.0 * b * beta + 2.0 * b - 1.0)
    return 2.0 * ang * total


@pytest.mark.parametrize("delta", [0.0, 0.5])
@pytest.mark.parametrize("R", [1.5, 10.0, 30.0, 100.0])
@pytest.mark.parametrize("beta", [0, 1])
@pytest.mark.parametrize("n,alpha", [(2, (0, 0)), (2, (1, 0)), (3, (0, 0, 0)), (3, (0, 1, 0))])
@pytest.mark.parametrize(
    "phi",
    [cm.constant_one(), cm.log_power([0.8]), cm.log_power([0.5, 0.3])],
    ids=["one", "log0.8", "log0.5_0.3"],
)
def test_lhs_truncated_array_pass_matches_per_row_loop(phi, n, alpha, beta, R, delta):
    # b = 1; delta = 0.5 reaches rows where an array square of v would differ
    # in the last bit from the scalar v**2 (libm pow) of the per-row loop
    s = sum(alpha) + 2 * beta + 1 + n / 2.0 + delta
    got = em._lhs_truncated(s, 0.5, phi, alpha, beta, R)
    assert got == _lhs_truncated_per_row(s, 0.5, phi, alpha, beta, R)


def test_one_legendre_rule_per_node_count(monkeypatch):
    built = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(n):
        built.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    em._legendre_rule.cache_clear()
    em._CALIBRATION_CACHE.clear()
    phi = cm.log_power([0.8])
    for R in (10.0, 30.0, 100.0):  # the radii of embed-check --radial
        em.radial_reduction_check(2.0, 0.5, phi, (0, 0), 0, R)
    assert sorted(built) == [96]


def test_radial_integrand_exponents_fit():
    # near r = 1 the integrand behaves like (r**2-1)**(s-1-delta): the fitted
    # slope separates delta = p from delta = 0
    s = 3.0  # p = 1, b = 1, n = 2
    phi = cm.constant_one()
    eps1, eps2 = 1e-4, 2e-4
    for delta, expected in [(1.0, s - 2.0), (0.0, s - 1.0)]:
        v1 = em.radial_integrand(s, delta, phi, 1.0 + eps1)
        v2 = em.radial_integrand(s, delta, phi, 1.0 + eps2)
        slope = math.log(v2 / v1) / math.log((2 * eps2 + eps2**2) / (2 * eps1 + eps1**2))
        assert slope == pytest.approx(expected, abs=1e-3)


def test_radial_tail_finiteness_matches_verdict():
    # delta = 0: the radial integrand decays like 1/(r phi**2), so its tail
    # converges exactly when the criterion integral does
    s = 2.0
    for phi in (cm.log_power([1]), cm.log_power([0.4])):
        tail_small, _ = quad(lambda r: em.radial_integrand(s, 0.0, phi, r), 100.0, 1e4)
        tail_large, _ = quad(lambda r: em.radial_integrand(s, 0.0, phi, r), 1e4, 1e8)
        shrinking = tail_large < 0.6 * tail_small
        assert shrinking == (em.criterion_verdict(phi) == "converges")


def _ladder(base_n, steps, k=2):
    lats = [sp.Lattice(k=k, n_x=base_n, n_t=base_n, L_x=2 * math.pi, L_t=2 * math.pi)]
    for _ in range(steps - 1):
        lats.append(lats[-1].refine(2, 2))
    return lats


def test_sharpness_demo_constant_one():
    rep = em.sharpness_demo(cm.constant_one(), 0, _ladder(8, 5))
    norms = [e["norm"] for e in rep.entries]
    sups = [e["sup_derivative"] for e in rep.entries]
    assert rep.norm_spread <= 0.05
    assert all(n == pytest.approx(1.0, rel=1e-12) for n in norms)
    assert rep.sup_monotone
    # square-root-of-log growth: increments of sup**2 stay level
    inc = np.diff(np.asarray(sups) ** 2)
    assert np.all(inc > 0)
    assert np.max(inc) < 2.0 * np.min(inc)


def test_sharpness_demo_slow_divergence_p1():
    rep = em.sharpness_demo(cm.log_power([0.4]), 1, _ladder(8, 4))
    assert rep.sup_monotone
    assert rep.norm_spread <= 0.05


def test_sharpness_demo_refuses_convergent():
    with pytest.raises(ValueError):
        em.sharpness_demo(cm.log_power([0.6]), 0, _ladder(8, 2))


def _sharpness_round_trip(phi, p, lattices, b):
    """The transform round trip sharpness_demo replaced, kept as its reference.

    Sign-aligned coefficients go through a full-lattice inverse DFT; the
    norm is hnorm of that grid function and the sup is the largest modulus
    of the derivative's inverse DFT over the whole lattice.
    """
    gamma = 1.0 / (2.0 * b)
    rows = []
    for lat in lattices:
        n = lat.k
        s = p + b + n / 2.0
        r = sp.r_gamma_array(lat, gamma)
        shape = [1] * (n + 1)
        shape[0] = lat.n_x
        xi1 = np.broadcast_to(lat.xi_axis().reshape(shape), lat.shape)
        mag = np.abs(xi1) ** p / (r ** (2.0 * s) * cm.eval_phi(phi, r) ** 2)
        weight_sum = float(np.sum(np.abs(xi1) ** p * mag) * lat.cell_volume)
        signs = np.where((-xi1) ** p >= 0, 1.0, -1.0) if p % 2 else np.ones(lat.shape)
        coeffs = signs * mag / math.sqrt(weight_sum)
        g = sp.GridFunction(lat, np.fft.ifftn(coeffs, norm="ortho"))
        norm = sp.hnorm(g, sp.AnisotropicIndex(s, gamma, phi))
        scale = lat.cell_volume * math.sqrt(lat.size) / (2.0 * math.pi) ** (n + 1)
        deriv = scale * np.fft.ifftn(coeffs * (-xi1) ** p, norm="ortho")
        rows.append((norm, float(np.max(np.abs(deriv))), weight_sum))
    return rows


@pytest.mark.parametrize("b", [1, 2])
@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize(
    "phi",
    [cm.constant_one(), cm.log_power([0.4]), cm.log_power([0.5, 0.3])],
    ids=["one", "log0.4", "log0.5_0.3"],
)
def test_sharpness_demo_matches_transform_round_trip(phi, k, p, b):
    lattices = _ladder(4, 3, k)
    rep = em.sharpness_demo(phi, p, lattices, b=b)
    want = _sharpness_round_trip(phi, p, lattices, b)
    for entry, (norm, sup, weight_sum) in zip(rep.entries, want):
        assert entry["norm"] == pytest.approx(norm, rel=1e-12, abs=0)
        assert entry["sup_derivative"] == pytest.approx(sup, rel=1e-12, abs=0)
        assert entry["weight_sum"] == pytest.approx(weight_sum, rel=1e-12, abs=0)
        # the peak at the origin is the square root of the weight sum
        assert sup == pytest.approx(math.sqrt(weight_sum) / (2 * math.pi) ** (k + 1), rel=1e-12, abs=0)
    norms = [norm for norm, _, _ in want]
    assert rep.norm_spread == pytest.approx(0.0, abs=1e-13)
    assert (max(norms) - min(norms)) / max(norms) <= 1e-13
    sups = [sup for _, sup, _ in want]
    assert rep.sup_monotone is all(hi > lo for lo, hi in zip(sups, sups[1:]))


def test_sharpness_demo_runs_no_transform_and_no_hnorm(monkeypatch):
    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, spy(name, getattr(np.fft, name)))
    hnorm = sp.hnorm
    for mod in [m for name, m in sys.modules.items() if name.startswith("hormspace")]:
        for attr, val in list(vars(mod).items()):
            if val is hnorm:
                monkeypatch.setattr(mod, attr, spy("hnorm", hnorm))
    lattices = _ladder(8, 3)
    em.sharpness_demo(cm.constant_one(), 1, lattices)
    assert calls == []
    # the spies see the calls of the round trip the demo replaced
    _sharpness_round_trip(cm.constant_one(), 1, lattices[:1], 1)
    assert "ifftn" in calls and "hnorm" in calls and "fftn" in calls


def test_sharpness_demo_builds_only_the_weight_sum(monkeypatch):
    # the peak and the norm are closed forms of the weight sum: each rung
    # takes one folded r_gamma array and one phi evaluation, and no
    # full-lattice weight or r_gamma array
    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    targets = {"weight_array": sp.weight_array, "r_gamma_array": sp.r_gamma_array,
               "_folded_r": sp._folded_r, "eval_phi": cm.eval_phi}
    for mod in [m for name, m in sys.modules.items() if name.startswith("hormspace")]:
        for attr, val in list(vars(mod).items()):
            for name, fn in targets.items():
                if val is fn:
                    monkeypatch.setattr(mod, attr, spy(name, fn))
    for phi, p, k in ((cm.constant_one(), 0, 2), (cm.log_power([0.4]), 1, 1)):
        lattices = _ladder(4, 3, k)
        calls.clear()
        rep = em.sharpness_demo(phi, p, lattices)
        assert sorted(calls) == ["_folded_r"] * 3 + ["eval_phi"] * 3
        assert [e["norm"] for e in rep.entries] == [1.0, 1.0, 1.0]
        assert rep.norm_spread == 0.0


def _gauss_angular_moment(alpha):
    """The 64-node Gauss quadratures _angular_moment replaced, kept as its reference."""
    x, w = np.polynomial.legendre.leggauss(64)

    def gauss(a, b):
        return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w

    if len(alpha) == 2:
        th, wt = gauss(0.0, 2.0 * math.pi)
        vals = (np.cos(th) ** 2) ** alpha[0] * (np.sin(th) ** 2) ** alpha[1]
        return float(np.sum(vals * wt))
    th, wt = gauss(0.0, math.pi)
    ph, wp = gauss(0.0, 2.0 * math.pi)
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    ox = np.sin(TH) * np.cos(PH)
    oy = np.sin(TH) * np.sin(PH)
    oz = np.cos(TH)
    vals = (ox**2) ** alpha[0] * (oy**2) ** alpha[1] * (oz**2) ** alpha[2]
    return float(np.sum(vals * np.sin(TH) * np.outer(wt, wp)))


@pytest.mark.parametrize(
    "alpha",
    [(0, 0), (1, 0), (0, 1), (2, 1), (3, 3), (5, 2),
     (0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 2, 0), (2, 2, 2), (3, 1, 4)],
    ids=str,
)
def test_angular_moment_matches_gauss_quadrature(alpha):
    assert em._angular_moment(alpha) == pytest.approx(_gauss_angular_moment(alpha), rel=1e-14, abs=0)


def test_angular_moment_runs_no_quadrature(monkeypatch):
    def refuse(*args):
        raise AssertionError("quadrature rule built")

    monkeypatch.setattr(em, "_gauss", refuse)
    monkeypatch.setattr(em, "_legendre_rule", refuse)
    # the measures of S^0, S^1, S^2 and S^3
    for n, measure in enumerate((2.0, 2 * math.pi, 4 * math.pi, 2 * math.pi**2), start=1):
        assert em._angular_moment((0,) * n) == pytest.approx(measure, rel=1e-14, abs=0)


@pytest.mark.parametrize("n", [1, 4])
def test_radial_reduction_beyond_two_and_three_dimensions(n):
    # the closed-form angular moment holds for every n; at phi == 1 the
    # truncated multiple integral tracks the calibrated radial integral
    em._CALIBRATION_CACHE.clear()
    s = 1 + n / 2.0  # p = 0, b = 1
    for R in (10.0, 30.0, 100.0):
        res = em.radial_reduction_check(s, 0.5, cm.constant_one(), (0,) * n, 0, R)
        assert res.relerr <= 1e-3

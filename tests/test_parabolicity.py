import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from conftest import (
    backward_heat_symbol,
    dirichlet_symbol,
    heat_symbol,
    neumann_symbol,
    squared_heat_symbol,
    tangential_symbol,
)
from hormspace import parabolicity as pb
from hormspace.errors import (
    CoveringPreconditionError,
    DegenerateFrameError,
    StructuralSymbolError,
)


def test_symbol_eval_heat():
    A = heat_symbol()
    assert pb.symbol_eval(A, [0, 0], 1.0) == 1.0
    assert pb.symbol_eval(A, [1, 0], 0.0) == 1.0
    assert pb.symbol_eval(A, [1, 1], 1j) == 2.0 + 1.0j


def test_evaluator_matches_loop_reference_and_finite_differences():
    rng = np.random.default_rng(7)
    coeffs = {
        (alpha, 2 - sum(alpha) // 2): complex(*rng.standard_normal(2))
        for alpha in itertools.product(range(5), repeat=3)
        if sum(alpha) % 2 == 0 and sum(alpha) <= 4
    }
    A = pb.PrincipalSymbol(n=3, b=1, m=2, coeffs=coeffs)
    table = pb._coeff_table(A)
    pts = rng.standard_normal((20, 5))
    xi, p = pts[:, :3], pts[:, 3] + 1j * pts[:, 4]
    value, grad = pb._evaluate(table, xi, p, grad=True)
    h = 1e-6
    for k in range(len(pts)):
        # plain-loop reference
        ref = sum(c * np.prod(xi[k] ** np.array(a)) * p[k] ** b for (a, b), c in coeffs.items())
        assert value[k] == pytest.approx(ref, rel=1e-13)
        assert pb.symbol_eval(A, xi[k], p[k]) == pytest.approx(value[k], rel=1e-13)
        for j in range(5):
            step = np.zeros(5)
            step[j] = h
            hi, lo = pts[k] + step, pts[k] - step
            fd = (
                pb.symbol_eval(A, hi[:3], complex(hi[3], hi[4]))
                - pb.symbol_eval(A, lo[:3], complex(lo[3], lo[4]))
            ) / (2 * h)
            assert grad[k, j] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_symbol_key_validation():
    with pytest.raises(StructuralSymbolError):
        pb.PrincipalSymbol(n=2, b=1, m=1, coeffs={((1, 0), 1): 1.0})  # degree 3 != 2
    with pytest.raises(ValueError):
        pb.PrincipalSymbol(n=2, b=2, m=3, coeffs={})  # m/b not integer


def test_petrovskii_heat_passes():
    v = pb.petrovskii_check(heat_symbol(), 10000)
    assert v.passed
    # the root of p + |omega|**2 is -1 everywhere on the unit sphere
    assert v.root_margin == pytest.approx(1.0, rel=1e-15)
    assert v.witness_root == pytest.approx(-1.0, rel=1e-15)


def test_petrovskii_backward_heat_fails_with_sharp_witness():
    v = pb.petrovskii_check(backward_heat_symbol(), 10000)
    assert not v.passed
    assert v.root_margin == pytest.approx(-1.0, rel=1e-15)
    # the root is real, p = |omega|**2 = 1
    assert v.witness_root.real == pytest.approx(float(np.sum(v.witness_omega**2)), rel=1e-15)
    assert v.witness_root.real == pytest.approx(1.0, rel=1e-15)
    assert v.witness_root.imag == 0.0


def test_petrovskii_structural_error():
    A = pb.PrincipalSymbol(
        n=2, b=1, m=1, coeffs={((2, 0), 0): 1.0, ((0, 2), 0): 1.0}
    )  # no p term
    with pytest.raises(StructuralSymbolError):
        pb.petrovskii_check(A, 100)


@pytest.mark.parametrize("n_samples", [0, 2**20 + 1])
def test_petrovskii_refuses_sample_counts_it_cannot_hold(monkeypatch, n_samples):
    def no_scan(*args):
        raise AssertionError("scan built before the count was refused")

    monkeypatch.setattr(pb, "_kronecker_sphere", no_scan)
    with pytest.raises(ValueError, match="n_samples"):
        pb.petrovskii_check(heat_symbol(), n_samples)


def test_petrovskii_refuses_scans_past_the_element_bound(monkeypatch):
    # heat at k = 32 has 33 terms: 2**20 points would need a power array of
    # 2**20 * 33 * 32 elements, past 2**26, although the count is allowed
    def no_scan(*args):
        raise AssertionError("scan built before the array size was refused")

    monkeypatch.setattr(pb, "_kronecker_sphere", no_scan)
    with pytest.raises(ValueError, match="n_samples"):
        pb.petrovskii_check(heat_symbol(32), 2**20)


def test_petrovskii_counts_powers_in_the_element_bound(monkeypatch):
    # xi_1**200 + xi_2**200 + p has three terms, but each point gathers
    # powers up to 200: 2 * 201 elements, so 166937 points fit in 2**26 and
    # 166938 do not
    class Reached(Exception):
        pass

    def spy(n_samples, dim):
        raise Reached

    monkeypatch.setattr(pb, "_kronecker_sphere", spy)
    coeffs = {((200, 0), 0): 1.0, ((0, 200), 0): 1.0, ((0, 0), 1): 1.0}
    A = pb.PrincipalSymbol(n=2, b=100, m=100, coeffs=coeffs)
    allowed = pb._MAX_SCAN_ELEMENTS // (2 * 201)
    assert allowed == 166937
    with pytest.raises(ValueError, match=str(pb._MAX_SCAN_ELEMENTS)):
        pb.petrovskii_check(A, allowed + 1)
    with pytest.raises(Reached):
        pb.petrovskii_check(A, allowed)


def test_petrovskii_scans_at_the_element_bound(monkeypatch):
    # 2**20 points, 4 terms and k = 16 make exactly 2**26 elements: the scan
    # is reached, and the spy stops it there
    class Reached(Exception):
        pass

    def spy(n_samples, dim):
        raise Reached(n_samples, dim)

    monkeypatch.setattr(pb, "_kronecker_sphere", spy)
    coeffs = {((0,) * 16, 1): 1.0}
    for j in range(3):
        coeffs[(tuple(2 if i == j else 0 for i in range(16)), 0)] = 1.0
    A = pb.PrincipalSymbol(n=16, b=1, m=1, coeffs=coeffs)
    assert 2**20 * len(A.coeffs) * A.n == pb._MAX_SCAN_ELEMENTS
    with pytest.raises(Reached) as reached:
        pb.petrovskii_check(A, 2**20)
    assert reached.value.args == (2**20, 16)


def test_petrovskii_squared_heat():
    v = pb.petrovskii_check(squared_heat_symbol(), 10000)
    assert v.passed
    # the double root -|omega|**2 is averaged back to -1 at the witness
    assert v.root_margin == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize(
    "A",
    [heat_symbol(1), heat_symbol(2), heat_symbol(3), squared_heat_symbol(2), squared_heat_symbol(3)],
    ids=["heat1", "heat2", "heat3", "squared_heat", "squared_heat3"],
)
def test_petrovskii_closed_form_minimum(A):
    # the margin delta is the minimum of -Re p over the unit sphere
    v = pb.petrovskii_check(A, 10000)
    assert v.passed
    assert v.root_margin == pytest.approx(1.0, rel=1e-15)
    assert float(np.linalg.norm(v.witness_omega)) == pytest.approx(1.0, rel=1e-15)


def test_petrovskii_backward_heat_zero_located():
    v = pb.petrovskii_check(backward_heat_symbol(), 10000)
    assert not v.passed
    assert v.root_margin == pytest.approx(-1.0, rel=1e-15)
    # the witness root is a root of A(omega, .) to rounding
    assert abs(pb.symbol_eval(backward_heat_symbol(), v.witness_omega, v.witness_root)) < 1e-15


def test_petrovskii_one_dimension_evaluates_both_poles_and_runs_no_search(monkeypatch):
    import scipy.optimize

    def no_search(*args, **kwargs):
        raise AssertionError("k = 1 ran a minimiser")

    monkeypatch.setattr(scipy.optimize, "minimize", no_search)
    for A, margin in ((heat_symbol(1), 1.0), (backward_heat_symbol(1), -1.0), (squared_heat_symbol(1), 1.0)):
        v = pb.petrovskii_check(A, 10000)
        assert v.n_evaluated == 2
        assert v.root_margin == pytest.approx(margin, rel=1e-15)
        assert abs(v.witness_omega[0]) == 1.0


def test_petrovskii_degenerate_symbol_fails_at_zero_margin():
    # p + xi_1**2 has the root p = 0 at omega = (0, +-1): parabolic nowhere
    A = pb.PrincipalSymbol(n=2, b=1, m=1, coeffs={((2, 0), 0): 1.0, ((0, 0), 1): 1.0})
    v = pb.petrovskii_check(A, 10000)
    assert not v.passed
    assert v.root_margin == 0.0
    assert v.witness_root == 0.0
    assert abs(v.witness_omega[1]) == 1.0


def test_petrovskii_zero_witness_root_is_positive_zero():
    # the degree-1 root -a0/a1 is -0.0 at a0 = 0; the report prints +0
    A = pb.PrincipalSymbol(n=2, b=1, m=1, coeffs={((2, 0), 0): 1.0, ((0, 0), 1): 1.0})
    v = pb.petrovskii_check(A, 500)
    assert math.copysign(1.0, v.witness_root.real) == 1.0
    assert math.copysign(1.0, v.root_margin) == 1.0


@pytest.mark.parametrize("c", [1e5, 1e6, 1e9, 2e9, 1e20, 1e300])
def test_petrovskii_wide_coefficient_spread(c):
    # c xi_1**2 + xi_2**2 + p: the root -(c omega_1**2 + omega_2**2) is
    # largest, -1, at omega = (0, +-1), however large c is
    A = pb.PrincipalSymbol(
        n=2, b=1, m=1, coeffs={((2, 0), 0): c, ((0, 2), 0): 1.0, ((0, 0), 1): 1.0}
    )
    v = pb.petrovskii_check(A, 10000)
    assert v.passed
    assert v.root_margin == 1.0
    assert v.witness_omega[0] == 0.0 and abs(v.witness_omega[1]) == 1.0


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, complex(0, math.inf)])
def test_non_finite_coefficient_refused(value):
    with pytest.raises(StructuralSymbolError):
        pb.PrincipalSymbol(n=2, b=1, m=1, coeffs={((2, 0), 0): value, ((0, 0), 1): 1.0})
    with pytest.raises(StructuralSymbolError):
        pb.BoundarySymbol(n=2, b=1, m_j=0, coeffs={((0, 0), 0): value})


def test_petrovskii_huge_coefficients_give_verdict():
    # the roots reach -1e308 here; the check still decides, with the margin
    # set by the axis omega = (0, +-1)
    for big in (1e300, 1e308):
        A = pb.PrincipalSymbol(
            n=2, b=1, m=1, coeffs={((2, 0), 0): big, ((0, 2), 0): 1.0, ((0, 0), 1): 1.0}
        )
        v = pb.petrovskii_check(A, 500)
        assert v.passed
        assert v.root_margin == 1.0
    v = pb.petrovskii_check(
        pb.PrincipalSymbol(
            n=2, b=1, m=1, coeffs={((2, 0), 0): 1e300, ((0, 2), 0): 1e300, ((0, 0), 1): 1e300}
        ),
        10000,
    )
    assert v.root_margin == pytest.approx(1.0, rel=1e-15)


def _scaled(base, factor):
    return pb.PrincipalSymbol(
        n=base.n, b=base.b, m=base.m, coeffs={k: factor * c for k, c in base.coeffs.items()}
    )


@pytest.mark.parametrize("factor", [1e300, 1e-300])
def test_petrovskii_verdict_is_scale_relative(factor):
    # the verdict compares the margin with 1e-9 times the largest root at
    # the witness, and the roots do not move under a constant factor:
    # backward heat times 1e300 once passed an absolute rule, and heat
    # times 1e-300 would fail one
    for base, margin in (
        (heat_symbol(), 1.0),
        (backward_heat_symbol(), -1.0),
        (squared_heat_symbol(), 1.0),
    ):
        v = pb.petrovskii_check(_scaled(base, factor), 2000)
        assert v.passed == (margin > 0)
        assert v.root_margin == pytest.approx(margin, rel=1e-15)


_unit = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(2, 3),
    entries=st.lists(_unit, min_size=18, max_size=18),
    shift=st.floats(0.1, 2.0),
    modulus=st.floats(1e-3, 1e3),
    angle=st.floats(-math.pi, math.pi),
    perm=st.permutations(range(3)),
)
def test_petrovskii_margin_is_invariant_under_factor_and_axis_permutation(
    n, entries, shift, modulus, angle, perm
):
    # A = p + omega^T (S + i T) omega with S = M M^T + shift I: the root
    # margin is the smallest eigenvalue of S, and neither a complex factor
    # of A nor a relabelling of the axes moves it
    M = np.reshape(entries[:9], (3, 3))[:n, :n]
    T = np.reshape(entries[9:], (3, 3))[:n, :n]
    S = M @ M.T + shift * np.eye(n)
    Q = S + 1j * (T + T.T)
    perm = [i for i in perm if i < n]

    def symbol(Q, factor):
        coeffs = {((0,) * n, 1): factor}
        for i in range(n):
            for j in range(n):
                alpha = [0] * n
                alpha[i] += 1
                alpha[j] += 1
                key = (tuple(alpha), 0)
                coeffs[key] = coeffs.get(key, 0.0) + factor * Q[i, j]
        return pb.PrincipalSymbol(n=n, b=1, m=1, coeffs=coeffs)

    delta = pb.petrovskii_check(symbol(Q, 1.0), 2000).root_margin
    assert delta == pytest.approx(float(np.linalg.eigvalsh(S)[0]), rel=1e-12)
    factor = modulus * complex(math.cos(angle), math.sin(angle))
    scaled = pb.petrovskii_check(symbol(Q, factor), 2000).root_margin
    permuted = pb.petrovskii_check(symbol(Q[np.ix_(perm, perm)], 1.0), 2000).root_margin
    assert scaled == pytest.approx(delta, rel=1e-12)
    assert permuted == pytest.approx(delta, rel=1e-12)


def _perturbed_symbol(base, rng, eps):
    """base plus eps * complex normal noise on every index below the top time order."""
    n, m = base.n, base.m
    coeffs = dict(base.coeffs)
    for alpha in itertools.product(range(2 * m + 1), repeat=n):
        if sum(alpha) % 2 == 0 and sum(alpha) > 0 and sum(alpha) <= 2 * m:
            key = (alpha, m - sum(alpha) // 2)
            coeffs[key] = coeffs.get(key, 0.0) + eps * complex(*rng.standard_normal(2))
    return pb.PrincipalSymbol(n=n, b=1, m=m, coeffs=coeffs)


def _root_margin(A, omegas):
    """Largest Re p over roots of p -> A(omega, p), by batched companion eigvals."""
    kappa = A.kappa
    a = np.zeros((len(omegas), kappa + 1), dtype=complex)
    for (alpha, beta), c in A.coeffs.items():
        a[:, beta] += c * np.prod(omegas ** np.array(alpha), axis=1)
    comp = np.zeros((len(omegas), kappa, kappa), dtype=complex)
    comp[:, 1:, :-1] = np.eye(kappa - 1)
    comp[:, :, -1] = -a[:, :kappa] / a[:, kappa:]
    return float(np.max(np.linalg.eigvals(comp).real))


def test_petrovskii_agrees_with_root_margin_oracle():
    # Quasi-homogeneity reduces A != 0 on the hemisphere to: every root p of
    # A(omega, .) has Re p < 0 for omega on the unit sphere (xi = 0 is the
    # structure check).  The verdict must match that margin's sign, and the
    # reported margin can be no larger than the oracle's on its own samples.
    rng = np.random.default_rng(20151116)
    verdicts = set()
    for base in (heat_symbol, squared_heat_symbol):
        for n in (1, 2, 3):
            if n == 1:
                omegas = np.array([[1.0], [-1.0]])
            else:
                g = rng.standard_normal((2000, n))
                omegas = g / np.linalg.norm(g, axis=1, keepdims=True)
            for _ in range(6):
                A = _perturbed_symbol(base(n), rng, 0.6)
                margin = _root_margin(A, omegas)
                v = pb.petrovskii_check(A, 2000)
                if abs(margin) > 1e-3:
                    assert v.passed == (margin < 0), (base.__name__, n, margin, v.root_margin)
                    verdicts.add(v.passed)
                assert v.root_margin <= -margin + 1e-12
                assert float(np.linalg.norm(v.witness_omega)) == pytest.approx(1.0, abs=1e-12)
                assert v.root_margin == -v.witness_root.real
                at_witness = abs(pb.symbol_eval(A, v.witness_omega, v.witness_root))
                rounding = 1e-15 * sum(abs(c) for c in A.coeffs.values())
                assert at_witness <= rounding
    assert verdicts == {True, False}


def test_zeta_polynomial_heat_frames():
    A = heat_symbol()
    f1 = pb.BoundaryFrame(nu=[0.0, 1.0], xi_tan=[1.0, 0.0], p=0.0)
    assert np.allclose(pb.zeta_polynomial(A, [f1])[0], [1.0, 0.0, 1.0])
    f2 = pb.BoundaryFrame(nu=[0.0, 1.0], xi_tan=[0.0, 0.0], p=1.0)
    assert np.allclose(pb.zeta_polynomial(A, [f2])[0], [1.0, 0.0, 1.0])


def test_zeta_polynomial_leading_coefficient():
    # top coefficient is the pure-normal evaluation of the spatial part
    A = squared_heat_symbol()
    frame = pb.random_frames(1, 2, seed=3)[0]
    poly = pb.zeta_polynomial(A, [frame])[0]
    nu = frame.nu
    expected = sum(
        c * np.prod(nu ** np.array(alpha))
        for (alpha, beta), c in A.coeffs.items()
        if beta == 0 and sum(alpha) == 4
    )
    assert poly[-1] == pytest.approx(expected, rel=1e-12)


def _zeta_by_terms(symbol, frame, degree):
    """Reference: symbol(xi_tan + zeta nu, p) expanded term by term, one
    factor (x + v zeta) at a time, as ascending zeta-coefficients."""
    out = np.zeros(degree + 1, dtype=complex)
    for (alpha, beta), c in symbol.coeffs.items():
        term = np.array([complex(c)])
        for a, x, v in zip(alpha, frame.xi_tan, frame.nu):
            for _ in range(a):
                term = npoly.polymul(term, np.array([x, v], dtype=complex))
        out[: len(term)] += term * frame.p**beta
    return out


def _random_coeffs(n, degree, rng):
    """Every index with |alpha| + 2 beta = degree, with a complex normal coefficient."""
    return {
        (alpha, (degree - sum(alpha)) // 2): complex(*rng.standard_normal(2))
        for alpha in itertools.product(range(degree + 1), repeat=n)
        if sum(alpha) <= degree and (degree - sum(alpha)) % 2 == 0
    }


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [1, 2])
def test_zeta_polynomial_matches_the_term_by_term_expansion(n, m):
    # interpolation at the roots of unity against the expansion: within
    # 1e-14 of the largest coefficient, and the leading coefficient within
    # 1e-12 of itself (1.3e-15 and 1.9e-14 measured over 2400 such frames)
    rng = np.random.default_rng(100 * n + m)
    for rep in range(2):
        A = pb.PrincipalSymbol(n=n, b=1, m=m, coeffs=_random_coeffs(n, 2 * m, rng))
        order = int(rng.integers(0, 2 * m + 1))
        B = pb.BoundarySymbol(n=n, b=1, m_j=order, coeffs=_random_coeffs(n, order, rng))
        frames = pb.random_frames(100, n, seed=10 * n + m + rep)
        for symbol, degree in ((A, 2 * m), (B, order)):
            got = pb.zeta_polynomial(symbol, frames)
            assert got.shape == (len(frames), degree + 1)
            for frame, row in zip(frames, got):
                ref = _zeta_by_terms(symbol, frame, degree)
                assert np.max(np.abs(row - ref)) <= 1e-14 * np.max(np.abs(ref))
                assert abs(row[-1] - ref[-1]) <= 1e-12 * abs(ref[-1])


@pytest.mark.parametrize("c", [1.0, 1e3, 1e6, 1e9, 1e12, 1e15, 1e20, 1e100, 1e300])
def test_covering_wide_coefficient_spread(c):
    """c xi_1**2 + xi_2**2 + p with Dirichlet or Neumann data covers at every
    frame up to c = 1e12.  From c = 1e15 on, the roots in zeta of most frames
    are a real double root split by rounding, and the check refuses them with
    DegenerateFrameError; up to 1e15 it refuses exactly the frames at which
    root_split refuses the term-by-term expansion.  From about c = 1e18 on the
    expansion refuses every frame, while interpolation, which keeps each
    coefficient only to rounding of the largest, splits one to three frames'
    roots wider than the cluster radius and passes them when each is checked
    alone (frames 9 and 24 at 1e20, 9 at 1e100 and 1e300 here); it refuses no
    frame the expansion accepts.  The frame list is refused at every c >= 1e20,
    as the expansion refused it."""
    A = pb.PrincipalSymbol(
        n=2, b=1, m=1, coeffs={((2, 0), 0): c, ((0, 2), 0): 1.0, ((0, 0), 1): 1.0}
    )
    frames = pb.random_frames(50, 2, seed=4)
    refused = []
    for i, frame in enumerate(frames):
        try:
            pb.root_split(_zeta_by_terms(A, frame, 2))
        except DegenerateFrameError:
            refused.append(i)
    assert bool(refused) == (c >= 1e15)
    assert (len(refused) == len(frames)) == (c >= 1e20)
    for B in (dirichlet_symbol(), neumann_symbol()):
        if c >= 1e20:
            with pytest.raises(DegenerateFrameError, match="real axis"):
                pb.covering_check(A, [B], frames)
        passed_alone = []
        for i, frame in enumerate(frames):
            try:
                v = pb.covering_check(A, [B], [frame])
            except DegenerateFrameError as exc:
                assert "real axis" in str(exc) and i in refused
                continue
            assert v.passed and v.min_singular == pytest.approx(1.0, rel=1e-15)
            passed_alone += [i] if i in refused else []
        assert len(passed_alone) <= (3 if c >= 1e20 else 0)


def test_evaluate_takes_powers_as_running_products():
    # x**e is ((x * x) * x) ..., exactly, for every exponent up to 4, and a
    # real point gives the same bits as the point cast to complex
    rng = np.random.default_rng(11)
    xi = rng.uniform(-50.0, 50.0, (4000, 2))
    p = rng.uniform(-3.0, 3.0, 4000)

    def by_products(x, e):
        out = np.ones_like(x)
        for _ in range(e):
            out = out * x
        return out

    for e1, e2, beta in itertools.product(range(5), range(5), range(3)):
        table = (np.array([[e1, e2]]), np.array([beta]), np.array([1.0 + 0j]))
        got = pb._evaluate(table, xi, p)
        want = by_products(p, beta) * (by_products(xi[:, 0], e1) * by_products(xi[:, 1], e2))
        assert np.array_equal(got.real.view(np.uint64), want.view(np.uint64))
        assert np.all(got.imag == 0.0)
    for n, m in ((2, 2), (3, 2)):
        table = pb._coeff_table(pb.PrincipalSymbol(n=n, b=1, m=m, coeffs=_random_coeffs(n, 2 * m, rng)))
        pts, q = rng.uniform(-50.0, 50.0, (4000, n)), rng.uniform(-3.0, 3.0, 4000)
        real = pb._evaluate(table, pts, q)
        cast = pb._evaluate(table, pts.astype(complex), q.astype(complex))
        assert np.array_equal(real.view(np.uint64), cast.view(np.uint64))


def test_root_split_examples():
    plus, minus = pb.root_split([1, 0, 1])  # zeta**2 + 1
    assert plus[0] == pytest.approx(1j, abs=1e-12)
    assert minus[0] == pytest.approx(-1j, abs=1e-12)
    plus, minus = pb.root_split([2, 0, 1])  # zeta**2 + (1 + p) at p = 1
    assert plus[0] == pytest.approx(1j * math.sqrt(2), abs=1e-12)
    assert minus[0] == pytest.approx(-1j * math.sqrt(2), abs=1e-12)


def test_root_split_errors():
    with pytest.raises(DegenerateFrameError):
        pb.root_split([-1, 0, 1])  # real roots +-1
    with pytest.raises(CoveringPreconditionError):
        pb.root_split([1j, 1])  # single root at +i: 1 upper, 0 lower
    with pytest.raises(ValueError):
        pb.root_split([1.0])


def test_root_split_batch_heat():
    A = heat_symbol()
    for frame in pb.random_frames(100, 2, seed=1):
        plus, minus = pb.root_split(pb.zeta_polynomial(A, [frame])[0])
        assert len(plus) == 1 and len(minus) == 1


def test_root_split_batch_squared_heat():
    A = squared_heat_symbol()
    for frame in pb.random_frames(100, 2, seed=2):
        plus, minus = pb.root_split(pb.zeta_polynomial(A, [frame])[0])
        assert len(plus) == 2 and len(minus) == 2


def test_conjugate_symmetry_real_frames():
    # real coefficients, real p: roots come in conjugate pairs
    A = heat_symbol()
    frame = pb.BoundaryFrame(nu=[0.0, 1.0], xi_tan=[0.7, 0.0], p=0.3)
    plus, minus = pb.root_split(pb.zeta_polynomial(A, [frame])[0])
    assert plus[0] == pytest.approx(np.conj(minus[0]), rel=1e-12)


def test_plus_polynomial():
    assert np.allclose(pb.plus_polynomial([1j]), [-1j, 1.0])
    assert np.allclose(pb.plus_polynomial([1j, 2j]), [-2.0, -3.0j, 1.0])
    with pytest.raises(ValueError):
        pb.plus_polynomial([])


def test_polynomial_division_reconstructs():
    rng = np.random.default_rng(0)
    for _ in range(10):
        b_poly = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        divisor = pb.plus_polynomial([1j, 0.5 + 2j])
        quo, rem = npoly.polydiv(b_poly, divisor)
        recon = npoly.polyadd(npoly.polymul(quo, divisor), rem)
        assert np.max(np.abs(recon - b_poly)) <= 1e-10 * np.max(np.abs(b_poly))


def test_covering_dirichlet_neumann_pass():
    A = heat_symbol()
    frames = pb.random_frames(50, 2, seed=4)
    for B in (dirichlet_symbol(), neumann_symbol()):
        v = pb.covering_check(A, [B], frames)
        assert v.passed
        assert v.min_singular > 0.1


def test_covering_tangential_fails_at_axis_frame():
    A = heat_symbol()
    bad = pb.BoundaryFrame(nu=[0.0, 1.0], xi_tan=[0.0, 0.0], p=1.0)
    v = pb.covering_check(A, [tangential_symbol()], [bad])
    assert not v.passed
    assert v.raw_singular == 0.0
    assert np.allclose(v.frame.xi_tan, 0.0)


def test_covering_neumann_remainder_value():
    # remainder of zeta mod (zeta - zeta+) is zeta+ = i sqrt(p + |xi_tan|**2)
    A = heat_symbol()
    frame = pb.BoundaryFrame(nu=[0.0, 1.0], xi_tan=[0.6, 0.0], p=0.5)
    poly = pb.zeta_polynomial(A, [frame])[0]
    (zp,), _ = pb.root_split(poly)
    assert zp == pytest.approx(1j * math.sqrt(0.5 + 0.36), rel=1e-12)


def test_covering_scale_invariance_in_b():
    A = heat_symbol()
    frames = pb.random_frames(20, 2, seed=5)
    base = pb.covering_check(A, [neumann_symbol()], frames)
    scaled_B = pb.BoundarySymbol(n=2, b=1, m_j=1, coeffs={((0, 1), 0): -7.3 + 2.0j})
    scaled = pb.covering_check(A, [scaled_B], frames)
    assert base.passed == scaled.passed
    assert base.min_singular == pytest.approx(scaled.min_singular, rel=1e-9)


def test_covering_parabolic_rescaling_invariance():
    # frames (xi, p) -> (c xi, c**(2b) p) leave the verdict unchanged
    A = heat_symbol()
    c = 3.7
    frames = pb.random_frames(20, 2, seed=6)
    scaled = [
        pb.BoundaryFrame(nu=f.nu, xi_tan=c * f.xi_tan, p=c**2 * f.p) for f in frames
    ]
    for B in (dirichlet_symbol(), neumann_symbol()):
        assert (
            pb.covering_check(A, [B], frames).passed
            == pb.covering_check(A, [B], scaled).passed
        )


def test_covering_argument_checks():
    A = heat_symbol()
    with pytest.raises(ValueError):
        pb.covering_check(A, [], [])  # wrong count
    with pytest.raises(ValueError):
        pb.covering_check(A, [dirichlet_symbol()], [])


@pytest.mark.parametrize(
    "nu, xi_tan", [([0.0, 1.0, 0.0], [1.0, 0.0, 0.5]), ([1.0], [0.0])], ids=["long", "short"]
)
def test_covering_refuses_a_frame_of_another_dimension(nu, xi_tan):
    # zip once truncated such a frame to the operator's n and passed it
    frames = pb.random_frames(3, 2, seed=4)
    frames.insert(2, pb.BoundaryFrame(nu=nu, xi_tan=xi_tan, p=0.5))
    with pytest.raises(ValueError, match=f"frame 2: nu has length {len(nu)}, not n = 2"):
        pb.covering_check(heat_symbol(), [dirichlet_symbol()], frames)


@pytest.mark.parametrize(
    "B",
    [dirichlet_symbol(3), pb.BoundarySymbol(n=2, b=2, m_j=0, coeffs={((0, 0), 0): 1.0})],
    ids=["n", "b"],
)
def test_covering_refuses_a_boundary_symbol_of_another_n_or_b(B):
    with pytest.raises(ValueError, match="boundary symbol 0: n = .*, not A's 2, 1"):
        pb.covering_check(heat_symbol(), [B], pb.random_frames(3, 2, seed=4))


def test_random_frames_refuses_counts_past_the_sample_bound(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a frame was drawn before the count was refused")

    monkeypatch.setattr(pb, "BoundaryFrame", never)
    with pytest.raises(ValueError, match=str(pb._MAX_SAMPLES)):
        pb.random_frames(pb._MAX_SAMPLES + 1, 2, seed=0)


def _order_200_boundary_symbol(terms=201):
    """The first `terms` monomials of degree 200 in (xi_1, xi_2): 201 points a
    frame, each with 2 * 201 elements of powers (and of terms at 201)."""
    return pb.BoundarySymbol(
        n=2, b=1, m_j=200, coeffs={((200 - a, a), 0): 1.0 for a in range(terms)}
    )


@pytest.mark.parametrize(
    "A, B, per_frame",
    [
        (heat_symbol(32), dirichlet_symbol(32), 3 * 33 * 32),  # (2m + 1) * terms * n of A
        (heat_symbol(), _order_200_boundary_symbol(), 201 * 201 * 2),  # of B
        (heat_symbol(), _order_200_boundary_symbol(1), 201 * 201 * 2),  # (d + 1) * (d + 1) * n
    ],
    ids=["interior", "boundary", "powers"],
)
def test_covering_refuses_batches_past_the_element_bound(monkeypatch, A, B, per_frame):
    # the list repeats one frame, so no million frames are built; the spy
    # stops the allowed count where the batch would be evaluated
    class Reached(Exception):
        pass

    def spy(*args):
        raise Reached

    monkeypatch.setattr(pb, "zeta_polynomial", spy)
    nu, xi = np.eye(A.n)[-1], np.eye(A.n)[0]
    frame = pb.BoundaryFrame(nu=nu, xi_tan=xi, p=1.0)
    allowed = pb._MAX_SCAN_ELEMENTS // per_frame
    with pytest.raises(ValueError, match=str(pb._MAX_SCAN_ELEMENTS)):
        pb.covering_check(A, [B], [frame] * (allowed + 1))
    with pytest.raises(Reached):
        pb.covering_check(A, [B], [frame] * allowed)


@settings(max_examples=12, deadline=None)
@given(c=st.floats(1e-3, 1e3), seed=st.integers(0, 2**16))
def test_covering_verdict_is_invariant_under_quasi_homogeneous_rescaling(c, seed):
    # (xi_tan, p) -> (c xi_tan, c**(2b) p) keeps the covering condition; the
    # axis frame, last, is where the tangential operator fails.  At m = 1
    # every frame reads 1 to the last bit, so rounding picks the worst one
    frames = pb.random_frames(6, 2, seed) + [
        pb.BoundaryFrame(nu=[0.0, 1.0], xi_tan=[0.0, 0.0], p=0.7)
    ]
    cases = [
        (heat_symbol(), [dirichlet_symbol()]),
        (heat_symbol(), [neumann_symbol()]),
        (heat_symbol(), [tangential_symbol()]),
        (squared_heat_symbol(), [dirichlet_symbol(), neumann_symbol()]),
    ]
    for A, Bs in cases:
        scaled = [
            pb.BoundaryFrame(nu=f.nu, xi_tan=c * f.xi_tan, p=c ** (2 * A.b) * f.p)
            for f in frames
        ]
        base, moved = pb.covering_check(A, Bs, frames), pb.covering_check(A, Bs, scaled)
        assert moved.passed == base.passed
        assert moved.passed or moved.frame_index == base.frame_index
        assert moved.min_singular == pytest.approx(base.min_singular, rel=1e-9, abs=1e-15)
        assert moved.frame is scaled[moved.frame_index]  # reported as given


def _biharmonic_b2():
    """p + |xi|**4 with b = 2, and Dirichlet and Neumann data."""
    coeffs = {((0, 0), 1): 1.0, ((4, 0), 0): 1.0, ((0, 4), 0): 1.0, ((2, 2), 0): 2.0}
    Bs = [
        pb.BoundarySymbol(n=2, b=2, m_j=0, coeffs={((0, 0), 0): 1.0}),
        pb.BoundarySymbol(n=2, b=2, m_j=1, coeffs={((0, 1), 0): 1.0}),
    ]
    return pb.PrincipalSymbol(n=2, b=2, m=2, coeffs=coeffs), Bs


@pytest.mark.parametrize(
    "A, Bs, scales",
    [
        (heat_symbol(), [neumann_symbol()], (1e-100, 1e100)),
        (squared_heat_symbol(), [dirichlet_symbol(), neumann_symbol()], (1e-100, 1e100)),
        (*_biharmonic_b2(), (1e-50, 1e50)),
    ],
    ids=["heat", "squared_heat", "b2"],
)
def test_covering_reads_frames_of_any_size_at_their_orbit_point(A, Bs, scales):
    # given far from |xi_tan|**2 + |p|**2 = 1, a frame once had its leading
    # zeta coefficient refused as (near) zero, or its roots as (near) real
    frames = pb.random_frames(20, 2, seed=3)
    base = pb.covering_check(A, Bs, frames)
    for c in scales:
        scaled = [
            pb.BoundaryFrame(nu=f.nu, xi_tan=c * f.xi_tan, p=c ** (2 * A.b) * f.p)
            for f in frames
        ]
        v = pb.covering_check(A, Bs, scaled)
        assert v.passed and base.passed
        assert v.min_singular == pytest.approx(base.min_singular, rel=1e-12)
    # a subnormal frame: rho = 1e-310, whose reciprocal overflows
    unit = pb.BoundaryFrame(nu=[0.0, 1.0], xi_tan=[1.0, 0.0], p=0.0)
    tiny = pb.BoundaryFrame(nu=[0.0, 1.0], xi_tan=[1e-310, 0.0], p=0.0)
    v, w = pb.covering_check(A, Bs, [tiny]), pb.covering_check(A, Bs, [unit])
    assert v.passed and v.min_singular == pytest.approx(w.min_singular, rel=1e-12)


@pytest.mark.parametrize("tol", [-1.0, -math.inf, math.inf, math.nan])
def test_covering_refuses_vacuous_tolerance(tol):
    # smin > tol * max_mag holds for any frame at tol < 0 and fails at nan
    frames = pb.random_frames(5, 2, seed=4)
    with pytest.raises(ValueError, match="tol"):
        pb.covering_check(heat_symbol(), [dirichlet_symbol()], frames, tol=tol)
    assert pb.covering_check(heat_symbol(), [dirichlet_symbol()], frames, tol=0.0).passed


def test_frame_validation():
    with pytest.raises(ValueError):
        pb.BoundaryFrame(nu=[0.0, 2.0], xi_tan=[1.0, 0.0], p=1.0)
    with pytest.raises(ValueError):
        pb.BoundaryFrame(nu=[0.0, 1.0], xi_tan=[1.0, 1.0], p=1.0)
    with pytest.raises(ValueError):
        pb.BoundaryFrame(nu=[0.0, 1.0], xi_tan=[1.0, 0.0], p=-1.0)


def test_sigma0_examples():
    assert pb.sigma0(1, 1, [0]) == 2
    assert pb.sigma0(2, 1, [0, 1]) == 4
    assert pb.sigma0(2, 1, [4]) == 6


def test_sigma0_divisibility_and_errors():
    assert pb.sigma0(2, 2, [0]) == 4
    assert pb.sigma0(2, 2, [4]) == 8  # >= 5, divisible by 4
    assert pb.sigma0(3, 1, [7]) == 8
    with pytest.raises(ValueError):
        pb.sigma0(3, 2, [0])
    with pytest.raises(ValueError):
        pb.sigma0(1, 1, [-1])

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import full_dft_matrix, oracle_plus_norm, scattered_16x32
from hormspace import class_m as cm
from hormspace import plus_spaces as ps
from hormspace import spectra as sp
from hormspace.errors import ConditioningError, InfeasibleConstraintError, UnsupportedParameterError


def _window_profile(lattice, kind, tau):
    x = lattice.x_axis()
    t = lattice.t_axis()
    X, T = np.meshgrid(x, t, indexing="ij")
    inwin = (T > 0) & (T < tau)
    if kind == "vanishing":
        chi = np.where(inwin, np.sin(np.pi * np.clip(T, 0, tau) / tau) ** 2, 0.0)
    elif kind == "violating":
        chi = np.where(inwin, np.cos(0.5 * np.pi * np.clip(T, 0, tau) / tau), 0.0)
    else:
        raise ValueError(kind)
    return sp.GridFunction(lattice, np.exp(np.sin(X)) * chi), ps.RegionMask(
        lattice, inwin, T >= 0
    )


def test_zero_data_gives_zero(small_lattice):
    region = ps.time_window_region(small_lattice, 0.0, small_lattice.L_t / 4)
    res = ps.plus_norm(np.zeros(small_lattice.shape), sp.AnisotropicIndex(1, 0.5), region)
    assert res.norm == 0.0
    assert np.max(np.abs(res.extension.samples)) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_plus_norm_refuses_non_finite_data(small_lattice, bad):
    # once a silent nan norm
    region = ps.time_window_region(small_lattice, 0.0, small_lattice.L_t / 4)
    vector = np.ones(int(np.count_nonzero(region.v_mask)), dtype=complex)
    vector[0] = bad
    full = np.zeros(small_lattice.shape, dtype=complex)
    full[region.v_mask] = vector
    with pytest.raises(ValueError, match="finite"):
        ps.plus_norm(full, sp.AnisotropicIndex(1.0, 0.5), region)
    # the data is a full grid: a vector of its values on V is refused
    for data in (vector, np.ones_like(vector)):
        with pytest.raises(ValueError, match="shape"):
            ps.plus_norm(data, sp.AnisotropicIndex(1.0, 0.5), region)


def test_supported_restriction_bounded_by_full_norm(small_lattice):
    # data = restriction of a w0 already supported in t >= 0: plus norm <= hnorm(w0)
    t = small_lattice.t_axis()
    idx = sp.AnisotropicIndex(1.0, 0.5)
    rng = np.random.default_rng(5)
    w0 = rng.standard_normal(small_lattice.shape) * (t >= 0)
    region = ps.RegionMask(
        small_lattice,
        np.broadcast_to((t >= 0), small_lattice.shape).copy(),
        np.broadcast_to((t >= 0), small_lattice.shape).copy(),
    )
    res = ps.plus_norm(w0, idx, region)
    full = sp.hnorm(sp.GridFunction(small_lattice, w0), idx)
    assert res.norm <= full * (1 + 1e-12)


@pytest.mark.parametrize("seed", range(24))
def test_matches_dense_oracle(seed):
    """Production solver vs brute-force normal-equations-free oracle."""
    rng = np.random.default_rng(seed)
    if seed >= 20:  # three spatial axes: the gather's multi-axis differences
        lat = sp.Lattice(k=3, n_x=4, n_t=16, L_x=2 * math.pi, L_t=4.0)
    elif seed % 2 == 0:
        lat = sp.Lattice(k=1, n_x=8, n_t=8, L_x=2 * math.pi, L_t=2 * math.pi)
    else:
        lat = sp.Lattice(k=2, n_x=8, n_t=8, L_x=2 * math.pi, L_t=4.0)
    t = lat.t_axis()
    tshape = (1,) * lat.k + (lat.n_t,)
    tn = np.broadcast_to((t >= 0).reshape(tshape), lat.shape).copy()
    if seed % 3 == 0:
        v = (rng.random(lat.shape) < 0.3) & tn  # scattered: dense path
    else:
        v = np.broadcast_to(((t > 0) & (t < lat.L_t / 4)).reshape(tshape), lat.shape).copy()
    if not v.any():
        v[..., lat.n_t // 2 + 1] = True
    region = ps.RegionMask(lat, v, tn)
    phi = cm.log_power([1]) if seed % 2 else cm.constant_one()
    idx = sp.AnisotropicIndex(0.8 + 0.2 * (seed % 4), 0.5, phi)
    u = rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape)
    u = np.where(v, u, 0)
    got = ps.plus_norm(u, idx, region).norm
    want = oracle_plus_norm(u, idx, region)
    assert got == pytest.approx(want, rel=1e-8)


def test_ill_conditioned_normal_equations_are_refused():
    # a relative Tikhonov ridge once answered here, off by ~2e-4 from the oracle
    region, u = scattered_16x32()
    with pytest.raises(ConditioningError) as err:
        ps.plus_norm(u, sp.AnisotropicIndex(16.0, 0.5), region)
    assert err.value.condition_number > 1e12


def test_conditioning_just_below_the_limit_matches_oracle():
    region, u = scattered_16x32()
    idx = sp.AnisotropicIndex(14.0, 0.5)
    solver = ps.PlusNormSolver(idx, region)
    assert 1e11 < solver.max_cond <= ps._COND_LIMIT
    assert solver.solve(u).norm == pytest.approx(oracle_plus_norm(u, idx, region), rel=1e-8)


def _exact_cond(idx, region):
    """eigvalsh condition number of the normal matrix on the free set, built
    from an explicit DFT matrix: G = A^H A with A = (w F)[:, free]."""
    lat = region.lattice
    w = sp.weight_array(lat, idx).ravel()
    a = (w[:, None] * full_dft_matrix(lat))[:, (region.t_nonneg_mask & ~region.v_mask).ravel()]
    ev = np.linalg.eigvalsh(a.conj().T @ a)
    return ev[-1] / ev[0], len(ev)


def _oracle_scattered_case(seed):
    """The scattered region and index of test_matches_dense_oracle's seed."""
    rng = np.random.default_rng(seed)
    if seed >= 20:
        lat = sp.Lattice(k=3, n_x=4, n_t=16, L_x=2 * math.pi, L_t=4.0)
    elif seed % 2 == 0:
        lat = sp.Lattice(k=1, n_x=8, n_t=8, L_x=2 * math.pi, L_t=2 * math.pi)
    else:
        lat = sp.Lattice(k=2, n_x=8, n_t=8, L_x=2 * math.pi, L_t=4.0)
    tshape = (1,) * lat.k + (lat.n_t,)
    tn = np.broadcast_to((lat.t_axis() >= 0).reshape(tshape), lat.shape).copy()
    v = (rng.random(lat.shape) < 0.3) & tn
    if not v.any():
        v[..., lat.n_t // 2 + 1] = True
    phi = cm.log_power([1]) if seed % 2 else cm.constant_one()
    return ps.RegionMask(lat, v, tn), sp.AnisotropicIndex(0.8 + 0.2 * (seed % 4), 0.5, phi)


def _general_cases():
    for seed in range(0, 24, 3):
        yield pytest.param(*_oracle_scattered_case(seed), id=f"oracle-seed{seed}")
    for s in (12.0, 14.0, 15.0):
        yield pytest.param(scattered_16x32()[0], sp.AnisotropicIndex(s, 0.5), id=f"16x32-s{s:g}")


@pytest.mark.parametrize("region,idx", _general_cases())
def test_general_region_condition_bound_is_certified_and_not_loose(region, idx):
    # an accepted general region's number is the Cholesky bound
    # min(max w**2, largest row sum) * ||L^-1||_F**2: never below the exact
    # condition number, and at most n_free times it; a refused one's is the
    # exact number, from a normal matrix built another way (s = 15 here)
    try:
        cond = ps.PlusNormSolver(idx, region).max_cond
    except ConditioningError as err:
        cond = err.condition_number
    exact, n_free = _exact_cond(idx, region)
    if cond > ps._COND_LIMIT:
        assert cond == pytest.approx(exact, rel=1e-4)
    else:
        assert exact * (1 - 1e-9) <= cond <= n_free * exact


@pytest.mark.parametrize("s,accepted", [(14.2, True), (14.4, True), (14.6, True), (14.8, False)])
def test_general_refusals_follow_the_exact_condition_number(s, accepted):
    # the Cholesky bound exceeds 1e12 at every s here (1.8e12 against an
    # exact 6.6e11 at s = 14.4), so each setup escalates to the exact
    # number: below 1e12 the norm is answered and matches the oracle, above
    # it (1.285e12 at s = 14.8) the refusal carries that exact number
    region, u = scattered_16x32()
    idx = sp.AnisotropicIndex(s, 0.5)
    exact, _ = _exact_cond(idx, region)
    assert (exact <= ps._COND_LIMIT) == accepted
    if accepted:
        solver = ps.PlusNormSolver(idx, region)
        assert solver.max_cond == pytest.approx(exact, rel=1e-4)
        assert solver.solve(u).norm == pytest.approx(oracle_plus_norm(u, idx, region), rel=1e-8)
    else:
        with pytest.raises(ConditioningError, match=r"\(exact\) > ") as err:
            ps.PlusNormSolver(idx, region)
        assert err.value.condition_number == pytest.approx(exact, rel=1e-4)


def test_failed_cholesky_is_refused_as_infinite():
    # at s = 25 the normal matrix is not numerically positive definite;
    # the refusal says so without a warning (pytest turns warnings into errors)
    region, _ = scattered_16x32()
    with pytest.raises(ConditioningError, match=r"condition number inf \(Cholesky failed\)") as err:
        ps.PlusNormSolver(sp.AnisotropicIndex(25.0, 0.5), region)
    assert err.value.condition_number == math.inf


def test_refusal_says_how_its_number_was_obtained():
    region, _ = scattered_16x32()
    with pytest.raises(ConditioningError, match=r"condition number \S+ \(exact\) > "):
        ps.PlusNormSolver(sp.AnisotropicIndex(16.0, 0.5), region)
    lat = sp.Lattice(k=2, n_x=8, n_t=64, L_x=2 * math.pi, L_t=2 * math.pi)
    slab = ps.time_window_region(lat, 0.0, lat.L_t / 4)
    with pytest.raises(ConditioningError, match=r"condition number \S+ \(exact\) > "):
        ps.PlusNormSolver(sp.AnisotropicIndex(20.4, 0.5), slab)


def test_overflowed_bound_is_escalated_not_failed(monkeypatch):
    # a bound that overflows is returned finite, so only a failed
    # factorization reads inf; a block with that bound is escalated to its
    # exact number, and a well-conditioned one is accepted
    overflowing = np.diag([1e200, 1e-200])
    assert ps._cholesky_inverse_factor(overflowing, 1e300) == np.finfo(float).max
    assert np.array_equal(overflowing, np.diag([1e-100, 1e100]))
    factor = ps._cholesky_inverse_factor

    def factor_with_overflowed_bound(gram, w2_max):
        factor(gram, w2_max)
        return factor(np.diag([1e200, 1e-200]), 1e300)

    monkeypatch.setattr(ps, "_cholesky_inverse_factor", factor_with_overflowed_bound)
    region, _ = scattered_16x32()
    idx = sp.AnisotropicIndex(1.5, 0.5)
    solver = ps.PlusNormSolver(idx, region)
    assert solver.max_cond == pytest.approx(_exact_cond(idx, region)[0], rel=1e-9)


def _shared_slab_8x64():
    """A k=2, 8**2 x 64 time-window slab whose 64 spatial modes share 15 blocks."""
    lat = sp.Lattice(k=2, n_x=8, n_t=64, L_x=2 * math.pi, L_t=2 * math.pi)
    return ps.time_window_region(lat, 0.0, lat.L_t / 4)


@pytest.mark.parametrize(
    "kind,s,escalated",
    [("scattered", 1.5, False), ("slab", 1.5, False), ("scattered", 14.4, True), ("slab", 20.2, True)],
)
def test_eigvalsh_runs_only_when_a_bound_exceeds_the_limit(monkeypatch, kind, s, escalated):
    # every block is factored by Cholesky and no setup calls eigh; the exact
    # eigvalsh runs once, on the blocks whose certified bound exceeds 1e12
    calls, bounds = [], []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda *a, _f=original, _n=name, **kw: calls.append(_n) or _f(*a, **kw)
        )
    factor = ps._cholesky_inverse_factor
    monkeypatch.setattr(ps, "_cholesky_inverse_factor", lambda *a: bounds.append(factor(*a)) or bounds[-1])
    region = scattered_16x32()[0] if kind == "scattered" else _shared_slab_8x64()
    ps.PlusNormSolver(sp.AnisotropicIndex(s, 0.5), region)
    assert (max(bounds) > ps._COND_LIMIT) == escalated
    assert calls == (["eigvalsh"] if escalated else [])


def test_batched_eigenvalue_bound_equals_the_per_block_norm(monkeypatch):
    # the bound on lambda_max taken for every block before any factor is,
    # block by block, min(max w**2, np.linalg.norm(G, inf)) of the block
    # the factor receives, and max_cond is the largest resulting bound
    seen = []
    factor = ps._cholesky_inverse_factor

    def spy(gram, lam_max):
        seen.append((gram.copy(), lam_max))
        return factor(gram, lam_max)

    monkeypatch.setattr(ps, "_cholesky_inverse_factor", spy)
    idx = sp.AnisotropicIndex(1.5, 0.5)
    solver = ps.PlusNormSolver(idx, _shared_slab_8x64())
    assert len(seen) == len(solver.Q) == 15
    w2 = solver.w2.reshape(len(solver.w2), -1)
    first = [int(np.flatnonzero(solver.cls == c)[0]) for c in range(len(solver.Q))]
    bounds = []
    for (gram, lam_max), row in zip(seen, first):
        assert lam_max == min(w2[row].max(), np.linalg.norm(gram, np.inf))
        bounds.append(factor(gram, min(w2[row].max(), np.linalg.norm(gram, np.inf))))
    assert solver.max_cond == max(bounds) < ps._COND_LIMIT


def _per_row_blocks(idx, region):
    """R = L^-T and the certified bound of every block of a slab region, one
    dpotrf + dtrtri per spatial mode, and the exact condition numbers by
    eigvalsh: the arithmetic of a solver that shares no block."""
    from scipy.linalg.lapack import dpotrf, dtrtri

    lat = region.lattice
    w2 = (sp.weight_array(lat, idx) ** 2).reshape(-1, lat.n_t)
    free = np.flatnonzero((region.t_nonneg_mask & ~region.v_mask).reshape(-1, lat.n_t)[0])
    kernel = np.fft.ifft(w2, axis=-1).real
    gram = kernel[:, (free[:, None] - free[None, :]) % lat.n_t]
    ev = np.linalg.eigvalsh(gram)
    r, bounds = np.empty_like(gram), []
    for i, g in enumerate(gram):
        # the lower triangle of g.T, as in the solver: kernel[m] and
        # kernel[-m] need not be bit-equal, so g is symmetric only to rounding
        low, info = dpotrf(g.T, lower=1)
        assert info == 0
        low_inv, _ = dtrtri(low, lower=1)
        r[i] = low_inv.T
        lam_max = min(w2[i].max(), np.abs(g).sum(axis=1).max())
        bounds.append(lam_max * np.sum(low_inv**2))
    return r, np.array(bounds), ev[:, -1] / ev[:, 0]


@pytest.mark.parametrize(
    "k,n_x,n_t,L_x,s,n_distinct",
    [
        (2, 32, 64, 2 * math.pi, 1.8, 146),
        (3, 16, 32, 2 * math.pi, 3.0, 138),
        (2, 16, 32, 3.0, 1.8, 45),  # |xi| repeats, yet not always in the same floats
        (2, 8, 16, 2 * math.pi, 0.0, 1),  # the weight is 1 everywhere
    ],
)
def test_shared_blocks_equal_per_row_arithmetic(k, n_x, n_t, L_x, s, n_distinct):
    # rows with equal weights are factored once; gathered back to the rows,
    # the factors, the refusal number and every solve equal the per-row ones
    lat = sp.Lattice(k=k, n_x=n_x, n_t=n_t, L_x=L_x, L_t=2 * math.pi)
    region = ps.time_window_region(lat, 0.0, lat.L_t / 4)
    idx = sp.AnisotropicIndex(s, 0.5)
    solver = ps.PlusNormSolver(idx, region)
    w2_rows = (sp.weight_array(lat, idx) ** 2).reshape(-1, n_t)
    assert len(solver.Q) == n_distinct
    assert n_distinct == len(np.unique(w2_rows, axis=0))
    r_ref, bounds, exact = _per_row_blocks(idx, region)
    assert np.array_equal(solver.Q[solver.cls], r_ref)
    assert solver.max_cond == pytest.approx(bounds.max(), rel=1e-12)
    assert np.max(exact) <= solver.max_cond * (1 + 1e-9)
    per_row = copy.copy(solver)
    per_row.Q = r_ref
    per_row.cls = np.arange(len(w2_rows))
    u = _data(region, np.random.default_rng(n_x + k))
    got, want = solver.solve(u), per_row.solve(u)
    assert got.norm == want.norm
    assert np.array_equal(got.extension.samples, want.extension.samples)


def test_refusal_covers_every_row_of_a_shared_slab():
    # 64 spatial modes share 15 blocks; the refusal number is the largest
    # over all 64 rows, just below the limit at s = 20.2 and above at 20.4.
    # Both bounds exceed 1e12, so both numbers are the escalated exact ones
    region = _shared_slab_8x64()
    below = sp.AnisotropicIndex(20.2, 0.5)
    solver = ps.PlusNormSolver(below, region)
    assert len(solver.Q) == 15
    assert 0.9 * ps._COND_LIMIT < solver.max_cond
    assert solver.max_cond == pytest.approx(_per_row_blocks(below, region)[2].max(), rel=1e-12)
    above = sp.AnisotropicIndex(20.4, 0.5)
    with pytest.raises(ConditioningError) as err:
        ps.PlusNormSolver(above, region)
    assert err.value.condition_number > ps._COND_LIMIT
    exact = _per_row_blocks(above, region)[2].max()
    assert err.value.condition_number == pytest.approx(exact, rel=1e-12)


def test_singular_slab_is_refused_without_overflow_warning():
    # a smallest eigenvalue at or below 0 makes the condition number infinite;
    # the refusal says so, with no overflow warning on the way
    lat = sp.Lattice(k=1, n_x=8, n_t=64, L_x=2 * math.pi, L_t=2 * math.pi)
    region = ps.time_window_region(lat, 0.0, lat.L_t / 4)
    with pytest.raises(ConditioningError) as err:
        ps.PlusNormSolver(sp.AnisotropicIndex(20.0, 1.0), region)
    assert err.value.condition_number == math.inf


def _region(kind, seed, n_t=16):
    """A k=1 time-window slab or a seeded 30% scattered region in t >= 0."""
    lat = sp.Lattice(k=1, n_x=8, n_t=n_t, L_x=2 * math.pi, L_t=2 * math.pi)
    if kind == "slab":
        return ps.time_window_region(lat, 0.0, lat.L_t / 4)
    tn = np.broadcast_to(lat.t_axis() >= 0, lat.shape).copy()
    v = (np.random.default_rng(seed).random(lat.shape) < 0.3) & tn
    v[0, n_t // 2 + 1] = True  # never an empty V
    return ps.RegionMask(lat, v, tn)


def _data(region, rng):
    shape = region.lattice.shape
    return np.where(region.v_mask, rng.standard_normal(shape) + 1j * rng.standard_normal(shape), 0)


@pytest.mark.parametrize("kind", ["slab", "scattered"])
def test_reused_solver_matches_fresh_solver_bitwise(kind):
    # the factorization kept from setup must not drift across solves
    region = _region(kind, 11)
    idx = sp.AnisotropicIndex(1.7, 0.5, cm.log_power([1]))
    solver = ps.PlusNormSolver(idx, region)
    rng = np.random.default_rng(12)
    for _ in range(20):
        u = _data(region, rng)
        reused = solver.solve(u)
        fresh = ps.PlusNormSolver(idx, region).solve(u)
        assert reused.norm == fresh.norm
        assert np.array_equal(reused.extension.samples, fresh.extension.samples)


@pytest.mark.parametrize("kind", ["slab", "scattered"])
def test_imaginary_data_gives_imaginary_extension(kind):
    # the real and imaginary parts are solved as two real columns
    region = _region(kind, 13)
    solver = ps.PlusNormSolver(sp.AnisotropicIndex(1.3, 0.5), region)
    u = _data(region, np.random.default_rng(14)).real
    ext = solver.solve(u).extension.samples
    ext_i = solver.solve(1j * u).extension.samples
    assert np.max(np.abs(ext.imag)) <= 1e-12 * np.max(np.abs(ext))
    assert np.array_equal(ext_i, 1j * ext)


_property_cases = given(
    kind=st.sampled_from(["slab", "scattered"]),
    seed=st.integers(0, 2**16),
    s=st.floats(0.5, 3.0),
    n_t=st.sampled_from([8, 16]),
)


@settings(max_examples=25, deadline=None)
@_property_cases
def test_plus_norm_dominates_unconstrained_norm(kind, seed, s, n_t):
    region = _region(kind, seed, n_t)
    u = _data(region, np.random.default_rng(seed))
    idx = sp.AnisotropicIndex(s, 0.5)
    free = ps.RegionMask(region.lattice, region.v_mask, np.ones(region.lattice.shape, bool))
    assert ps.plus_norm(u, idx, region).norm >= ps.plus_norm(u, idx, free).norm * (1 - 1e-12)


@settings(max_examples=25, deadline=None)
@_property_cases
def test_plus_norm_is_hnorm_of_its_extension(kind, seed, s, n_t):
    region = _region(kind, seed, n_t)
    idx = sp.AnisotropicIndex(s, 0.5)
    res = ps.plus_norm(_data(region, np.random.default_rng(seed)), idx, region)
    assert res.norm == pytest.approx(sp.hnorm(res.extension, idx), rel=1e-10)


@settings(max_examples=25, deadline=None)
@_property_cases
def test_extension_is_linear_in_the_data(kind, seed, s, n_t):
    region = _region(kind, seed, n_t)
    solver = ps.PlusNormSolver(sp.AnisotropicIndex(s, 0.5), region)
    rng = np.random.default_rng(seed)
    u, v = _data(region, rng), _data(region, rng)
    a, b = 0.7 - 1.3j, -2.1 + 0.4j
    got = solver.solve(a * u + b * v).extension.samples
    want = a * solver.solve(u).extension.samples + b * solver.solve(v).extension.samples
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_norm_axioms(small_lattice):
    region = ps.time_window_region(small_lattice, 0.0, small_lattice.L_t / 4)
    idx = sp.AnisotropicIndex(1.2, 0.5)
    solver = ps.PlusNormSolver(idx, region)
    rng = np.random.default_rng(9)
    v = region.v_mask
    for _ in range(5):
        u = np.where(v, rng.standard_normal(small_lattice.shape) + 1j * rng.standard_normal(small_lattice.shape), 0)
        w = np.where(v, rng.standard_normal(small_lattice.shape), 0)
        nu = solver.solve(u).norm
        nw = solver.solve(w).norm
        assert solver.solve(2.5j * u).norm == pytest.approx(2.5 * nu, rel=1e-10)
        assert solver.solve(u + w).norm <= nu + nw + 1e-10 * (nu + nw)


def test_minimizer_constraints_and_orthogonality(small_lattice):
    region = ps.time_window_region(small_lattice, 0.0, small_lattice.L_t / 4)
    idx = sp.AnisotropicIndex(1.5, 0.5, cm.log_power([1]))
    rng = np.random.default_rng(3)
    u = np.where(region.v_mask, rng.standard_normal(small_lattice.shape), 0)
    res = ps.plus_norm(u, idx, region)
    ext = res.extension.samples
    assert np.max(np.abs(ext[region.v_mask] - u[region.v_mask])) <= 1e-10
    assert np.max(np.abs(ext[~region.t_nonneg_mask]), initial=0.0) <= 1e-12
    # weighted-inner-product orthogonality to every free direction
    w2 = sp.weight_array(small_lattice, idx) ** 2
    m_ext = np.fft.ifftn(w2 * np.fft.fftn(ext, norm="ortho"), norm="ortho")
    free = region.t_nonneg_mask & ~region.v_mask
    scale = float(np.linalg.norm(m_ext.ravel()))
    assert np.max(np.abs(m_ext[free])) <= 1e-10 * scale


def test_monotone_in_v(small_lattice):
    idx = sp.AnisotropicIndex(1.0, 0.5)
    t = small_lattice.t_axis()
    big_v = np.broadcast_to(((t > 0) & (t < small_lattice.L_t / 2 - 1e-9)), small_lattice.shape).copy()
    small_v = np.broadcast_to(((t > 0) & (t < small_lattice.L_t / 4)), small_lattice.shape).copy()
    tn = np.broadcast_to((t >= 0), small_lattice.shape).copy()
    rng = np.random.default_rng(8)
    u = np.where(big_v, rng.standard_normal(small_lattice.shape), 0)
    n_big = ps.plus_norm(u, idx, ps.RegionMask(small_lattice, big_v, tn)).norm
    n_small = ps.plus_norm(np.where(small_v, u, 0), idx, ps.RegionMask(small_lattice, small_v, tn)).norm
    assert n_small <= n_big * (1 + 1e-12)


def test_infeasible_data_raises(small_lattice):
    t = small_lattice.t_axis()
    v = np.broadcast_to(np.abs(t) < small_lattice.L_t / 4, small_lattice.shape).copy()
    tn = np.broadcast_to(t >= 0, small_lattice.shape).copy()
    region = ps.RegionMask(small_lattice, v, tn)
    u = np.where(v, 1.0 + 0j, 0.0)  # nonzero at V-points with t < 0
    with pytest.raises(InfeasibleConstraintError):
        ps.plus_norm(u, idx=sp.AnisotropicIndex(1, 0.5), region=region)
    # zero data at those points is fine
    u2 = np.where(v & tn, 1.0 + 0j, 0.0)
    assert ps.plus_norm(u2, sp.AnisotropicIndex(1, 0.5), region).norm > 0


def test_empty_v_mask_raises(small_lattice):
    region = ps.RegionMask(
        small_lattice,
        np.zeros(small_lattice.shape, bool),
        np.ones(small_lattice.shape, bool),
    )
    with pytest.raises(ValueError):
        ps.plus_norm(np.zeros(small_lattice.shape), sp.AnisotropicIndex(1, 0.5), region)


# -- trace defects -------------------------------------------------------------


def test_trace_defect_constant_grid(small_lattice):
    g = sp.GridFunction(small_lattice, np.ones(small_lattice.shape))
    defects = ps.trace_defect(g, 0.5, 1.8)  # s*gamma = 0.9: only order 0
    assert len(defects) == 1
    assert defects[0] == pytest.approx(math.sqrt(small_lattice.L_x), rel=1e-12)


def test_trace_defect_empty_range(small_lattice):
    g = sp.GridFunction(small_lattice, np.ones(small_lattice.shape))
    assert ps.trace_defect(g, 0.5, 0.8) == []  # s*gamma = 0.4 < 1/2


def test_trace_defect_vanishing_profile(small_lattice):
    tau = small_lattice.L_t / 4
    g, _ = _window_profile(small_lattice, "vanishing", tau)
    defects = ps.trace_defect(g, 0.5, 1.8)
    assert defects[0] <= 1e-12


def test_trace_defect_half_integer_excluded(small_lattice):
    g = sp.GridFunction(small_lattice, np.ones(small_lattice.shape))
    with pytest.raises(UnsupportedParameterError):
        ps.trace_defect(g, 0.5, 3.0)  # s*gamma - 1/2 = 1


# -- Lemma 5.1 style refinement behavior ----------------------------------------


def _ladder_ratios(kind):
    L = 2 * math.pi
    idx = sp.AnisotropicIndex(1.8, 0.5)
    out = []
    for n_t in (8, 16, 32):
        lat = sp.Lattice(k=1, n_x=8, n_t=n_t, L_x=L, L_t=L)
        g, region = _window_profile(lat, kind, L / 4)
        out.append(ps.lemma51_equivalence_ratio(g, idx, region))
    return out


def test_lemma51_trace_vanishing_bounded():
    ratios = _ladder_ratios("vanishing")
    assert all(r >= 1.0 - 1e-12 for r in ratios)
    assert max(ratios) / min(ratios) < 2.0
    assert ratios[-1] < ratios[0]  # approaching equivalence


def test_lemma51_trace_violating_grows():
    ratios = _ladder_ratios("violating")
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[-1] - 1.0 > 1.5 * (ratios[0] - 1.0)


def test_lemma51_inactive_constraint(small_lattice):
    # data supported strictly inside {t > delta}: the support constraint is
    # nearly inactive and the ratio sits close to 1 (computed: ~1.01 at n_t=8)
    lat = sp.Lattice(k=1, n_x=8, n_t=32, L_x=2 * math.pi, L_t=2 * math.pi)
    tau = lat.L_t / 4
    x = lat.x_axis()
    t = lat.t_axis()
    X, T = np.meshgrid(x, t, indexing="ij")
    y = T / tau
    chi = np.where(
        (y > 0.3) & (y < 0.9),
        np.exp(-0.02 / np.clip((y - 0.3) * (0.9 - y), 1e-300, None)),
        0.0,
    )
    g = sp.GridFunction(lat, np.exp(np.sin(X)) * chi)
    region = ps.RegionMask(lat, (T > 0) & (T < tau), T >= 0)
    ratio = ps.lemma51_equivalence_ratio(g, sp.AnisotropicIndex(1.8, 0.5), region)
    assert 1.0 - 1e-12 <= ratio < 1.02


def test_lemma51_zero_input_is_one(small_lattice):
    region = ps.time_window_region(small_lattice, 0.0, small_lattice.L_t / 4)
    g = sp.GridFunction(small_lattice, np.zeros(small_lattice.shape))
    assert ps.lemma51_equivalence_ratio(g, sp.AnisotropicIndex(1.8, 0.5), region) == 1.0


def test_lemma51_parameter_validation(small_lattice):
    region = ps.time_window_region(small_lattice, 0.0, small_lattice.L_t / 4)
    g = sp.GridFunction(small_lattice, np.zeros(small_lattice.shape))
    with pytest.raises(ValueError):
        ps.lemma51_equivalence_ratio(g, sp.AnisotropicIndex(-1.0, 0.5), region)
    with pytest.raises(UnsupportedParameterError):
        ps.lemma51_equivalence_ratio(g, sp.AnisotropicIndex(1.0, 0.5), region)

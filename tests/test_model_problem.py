import itertools
import math

import numpy as np
import pytest

from conftest import backward_heat_symbol, heat_symbol, squared_heat_symbol
from hormspace import class_m as cm
from hormspace import model_problem as mp
from hormspace import plus_spaces as ps
from hormspace import spectra as sp
from hormspace.errors import StabilityError


@pytest.fixture(scope="module")
def heat_op():
    return mp.PeriodicParabolicOperator(
        symbol=heat_symbol(), L_x=2 * math.pi, tau=math.pi / 2
    )


def _lattice(n_x=8, n_t=16):
    return sp.Lattice(k=2, n_x=n_x, n_t=n_t, L_x=2 * math.pi, L_t=2 * math.pi)


def test_kappa_two_rejected():
    with pytest.raises(NotImplementedError):
        mp.PeriodicParabolicOperator(symbol=squared_heat_symbol(), L_x=2 * math.pi, tau=1.0)


def test_nonparabolic_rejected():
    with pytest.raises(ValueError):
        mp.PeriodicParabolicOperator(symbol=backward_heat_symbol(), L_x=2 * math.pi, tau=1.0)


def test_lambda_modes_heat(heat_op):
    lat = _lattice()
    lam = heat_op.lambda_modes(lat)
    xi = lat.xi_axis()
    XI1, XI2 = np.meshgrid(xi, xi, indexing="ij")
    assert np.allclose(lam, XI1**2 + XI2**2)


def test_zero_forcing(heat_op):
    lat = _lattice()
    zero = sp.GridFunction(lat, np.zeros(lat.shape))
    u = mp.solve_periodic(heat_op, zero)
    assert np.all(u.samples == 0)


def test_support_precondition(heat_op):
    lat = _lattice()
    bad = sp.GridFunction(lat, np.ones(lat.shape))  # nonzero at t < 0
    with pytest.raises(ValueError):
        mp.solve_periodic(heat_op, bad)


def test_single_mode_step_forcing_closed_form(heat_op):
    # f_hat constant on [0, tau]: piecewise-linear quadrature is exact, so the
    # solve reproduces (1 - exp(-lam t)) / lam to rounding
    lat = _lattice(8, 32)
    m1, m2 = 2, 1
    lam = m1**2 + m2**2
    t = lat.t_axis()
    x = lat.x_axis()
    X1, X2, T = np.meshgrid(x, x, t, indexing="ij")
    window = (t >= 0) & (t <= heat_op.tau)
    f = sp.GridFunction(lat, np.exp(1j * (m1 * X1 + m2 * X2)) * window)
    u = mp.solve_periodic(heat_op, f)
    tm = np.clip(T, 0.0, None)
    expected = np.exp(1j * (m1 * X1 + m2 * X2)) * np.where(
        T >= 0, (1 - np.exp(-lam * tm)) / lam, 0.0
    )
    mask = (t >= 0) & (t <= heat_op.tau)
    err = np.max(np.abs(u.samples[..., mask] - expected[..., mask]))
    assert err < 1e-13


def test_causality_exact(heat_op):
    lat = _lattice()
    f = mp.synthesize_forcing(lat, heat_op.tau, seed=3)
    u = mp.solve_periodic(heat_op, f)
    t = lat.t_axis()
    assert np.all(u.samples[..., t <= 0] == 0.0)


def test_linearity(heat_op):
    lat = _lattice()
    f1 = mp.synthesize_forcing(lat, heat_op.tau, seed=1)
    f2 = mp.synthesize_forcing(lat, heat_op.tau, seed=2)
    u1 = mp.solve_periodic(heat_op, f1)
    u2 = mp.solve_periodic(heat_op, f2)
    comb = sp.GridFunction(lat, 2.0 * f1.samples + 1.5j * f2.samples)
    ucomb = mp.solve_periodic(heat_op, comb)
    expect = 2.0 * u1.samples + 1.5j * u2.samples
    scale = np.max(np.abs(expect))
    assert np.max(np.abs(ucomb.samples - expect)) <= 1e-12 * scale


def test_sine_forcing_second_order_convergence(heat_op):
    # smooth forcing: quadrature error is O(dt**2), rate 4 per time doubling
    lam = 2.0
    om = math.pi / heat_op.tau
    errs = []
    for n_t in (16, 32, 64):
        lat = _lattice(8, n_t)
        t = lat.t_axis()
        x = lat.x_axis()
        X1, X2, T = np.meshgrid(x, x, t, indexing="ij")
        win = (T >= 0) & (T <= heat_op.tau)
        f = sp.GridFunction(
            lat, np.exp(1j * (X1 + X2)) * np.where(win, np.sin(om * np.clip(T, 0, heat_op.tau)), 0.0)
        )
        u = mp.solve_periodic(heat_op, f)
        tm = np.clip(T, 0, heat_op.tau)
        exact_t = np.where(
            win, (lam * np.sin(om * tm) - om * np.cos(om * tm) + om * np.exp(-lam * tm)) / (lam**2 + om**2), 0.0
        )
        exact = np.exp(1j * (X1 + X2)) * exact_t
        err = np.max(np.abs((u.samples - exact)[..., win[0, 0]]))
        errs.append(err)
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)


def test_duhamel_derivative_reproduces_forcing(heat_op):
    lat = _lattice()
    f = mp.synthesize_forcing(lat, heat_op.tau, seed=5)
    u = mp.solve_periodic(heat_op, f)
    au = mp.apply_operator(heat_op, u, f=f, time_derivative="duhamel")
    scale = np.max(np.abs(f.samples))
    assert np.max(np.abs(au.samples - f.samples)) <= 1e-12 * scale


def test_apply_operator_constant_in_x_is_time_derivative(heat_op):
    lat = _lattice()
    t = lat.t_axis()
    profile = np.sin(2 * math.pi * t / lat.L_t)
    u = sp.GridFunction(lat, np.broadcast_to(profile, lat.shape).copy())
    au = mp.apply_operator(heat_op, u, time_derivative="spectral")
    expected = (2 * math.pi / lat.L_t) * np.cos(2 * math.pi * t / lat.L_t)
    assert np.allclose(au.samples, np.broadcast_to(expected, lat.shape), atol=1e-10)


def test_roundtrip_residual_second_order(heat_op):
    res = []
    for n_t in (32, 64):
        lat = _lattice(8, n_t)
        f = mp.synthesize_forcing(lat, heat_op.tau, seed=7)
        res.append(mp.roundtrip_residual(heat_op, f))
    assert res[0] / res[1] > 3.5  # at least ~4x improvement per doubling


def test_stability_error_with_negative_zero_mode():
    # a lower-order constant shifts lambda(0) below zero; principal part is
    # still parabolic, so the solve itself must refuse
    op = mp.PeriodicParabolicOperator(
        symbol=heat_symbol(),
        L_x=2 * math.pi,
        tau=math.pi / 2,
        lower_order={(0, 0): -1.0},
    )
    lat = _lattice()
    f = mp.synthesize_forcing(lat, op.tau, seed=1)
    with pytest.raises(StabilityError):
        mp.solve_periodic(op, f)


def test_two_sided_ratio_single_member(heat_op):
    lat = _lattice(8, 32)
    f = mp.synthesize_forcing(lat, heat_op.tau, seed=11)
    c1, c2 = mp.two_sided_ratio(heat_op, [f], 4.0)
    assert c1 == c2
    assert math.isfinite(c1) and c1 > 0


def test_two_sided_ratio_rejects_zero_member(heat_op):
    lat = _lattice()
    zero = sp.GridFunction(lat, np.zeros(lat.shape))
    with pytest.raises(ValueError):
        mp.two_sided_ratio(heat_op, [zero], 4.0)
    with pytest.raises(ValueError):
        mp.two_sided_ratio(heat_op, [], 4.0)
    f = mp.synthesize_forcing(lat, heat_op.tau, seed=0)
    with pytest.raises(ValueError):
        mp.two_sided_ratio(heat_op, [f], 1.5)  # sigma <= 2m


def test_two_sided_ratio_ensemble_stable(heat_op):
    lat = _lattice(8, 16)
    ens = [mp.synthesize_forcing(lat, heat_op.tau, seed=i) for i in range(10)]
    c1, c2 = mp.two_sided_ratio(heat_op, ens, 4.0, cm.log_power([1]))
    assert 0 < c1 <= c2 < math.inf
    assert c2 / c1 < 10.0


def test_inheritance_bounded_vs_flagged(heat_op):
    lat = _lattice(8, 16)
    ok = mp.regularity_inheritance_check(heat_op, lat, 4.0, levels=3, extra_decay=2.0, seed=1)
    assert not ok.flagged
    growths = [r["growth"] for r in ok.levels if r["growth"] is not None]
    assert all(g < 2.0 for g in growths)
    bad = mp.regularity_inheritance_check(heat_op, lat, 4.0, levels=3, extra_decay=0.0, seed=1)
    assert bad.flagged
    bad_growths = [r["growth"] for r in bad.levels if r["growth"] is not None]
    assert max(bad_growths) > 2.0


def test_synthesized_forcing_is_lattice_consistent(heat_op):
    # the same continuum forcing sampled on nested lattices
    coarse = _lattice(8, 16)
    fine = coarse.refine(2, 2)
    fc = mp.synthesize_forcing(coarse, heat_op.tau, seed=9)
    ff = mp.synthesize_forcing(fine, heat_op.tau, seed=9)
    assert np.max(np.abs(ff.samples[::2, ::2, ::2] - fc.samples)) < 1e-12


def _heat_op(k):
    return mp.PeriodicParabolicOperator(
        symbol=heat_symbol(k), L_x=2 * math.pi, tau=math.pi / 2
    )


def _ratio_by_public_steps(op, f, sigma, phi):
    """One member's ratio through solve_periodic, PlusNormSolver.solve and hnorm."""
    lat = f.lattice
    order = 2 * op.symbol.m
    gamma = 1.0 / (2.0 * op.symbol.b)
    idx_u = sp.AnisotropicIndex(sigma, gamma, phi)
    idx_f = sp.AnisotropicIndex(sigma - order, gamma, phi)
    solver = ps.PlusNormSolver(idx_u, ps.time_window_region(lat, 0.0, op.tau))
    u = mp.solve_periodic(op, f)
    return solver.solve(u.samples).norm / sp.hnorm(f, idx_f)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("phi", [cm.constant_one(), cm.log_power([1])], ids=["one", "log1"])
def test_two_sided_ratio_matches_public_steps(k, phi):
    # the ratio is taken in spatial modes; the public functions go through
    # physical space, which is the same arithmetic up to rounding
    op = _heat_op(k)
    lat = sp.Lattice(k=k, n_x=8, n_t=16, L_x=2 * math.pi, L_t=2 * math.pi)
    for seed in range(5):
        f = mp.synthesize_forcing(lat, op.tau, seed=seed)
        c1, c2 = mp.two_sided_ratio(op, [f], 4.0, phi)
        assert c1 == c2
        assert c1 == pytest.approx(_ratio_by_public_steps(op, f, 4.0, phi), rel=1e-13)
    ens = [mp.synthesize_forcing(lat, op.tau, seed=seed) for seed in range(5)]
    ratios = [_ratio_by_public_steps(op, f, 4.0, phi) for f in ens]
    c1, c2 = mp.two_sided_ratio(op, ens, 4.0, phi)
    assert c1 == pytest.approx(min(ratios), rel=1e-13)
    assert c2 == pytest.approx(max(ratios), rel=1e-13)


def test_two_sided_ratio_refuses_growing_mode():
    op = mp.PeriodicParabolicOperator(
        symbol=heat_symbol(),
        L_x=2 * math.pi,
        tau=math.pi / 2,
        lower_order={(0, 0): -1.0},
    )
    lat = _lattice()
    f = mp.synthesize_forcing(lat, op.tau, seed=1)
    with pytest.raises(StabilityError) as info:
        mp.two_sided_ratio(op, [f], 4.0)
    assert info.value.lam == pytest.approx(-1.0)


def test_two_sided_ratio_refuses_forcing_before_zero(heat_op):
    lat = _lattice()
    good = mp.synthesize_forcing(lat, heat_op.tau, seed=1)
    bad = sp.GridFunction(lat, np.ones(lat.shape))  # nonzero at t < 0
    with pytest.raises(ValueError, match="not supported"):
        mp.two_sided_ratio(heat_op, [good, bad], 4.0)


def test_two_sided_ratio_transform_passes_per_member(heat_op, monkeypatch):
    # per member: the spatial transform of f, the time transform for its
    # norm, and the three block passes of the plus norm; no inverse
    # transform over a spatial axis (the solution stays in spatial modes)
    passes = []

    def counting(name, fn):
        def wrapper(a, *args, axis=-1, axes=None, **kwargs):
            a = np.asarray(a)
            if name.endswith("n"):
                n_axes = range(a.ndim) if axes is None else axes
                axes_seen = [ax % a.ndim for ax in n_axes]
                passes.append((name, a.ndim, axes_seen))
                return fn(a, *args, axes=axes, **kwargs)
            passes.append((name, a.ndim, [axis % a.ndim]))
            return fn(a, *args, axis=axis, **kwargs)

        return wrapper

    for name in ("fft", "ifft", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    lat = _lattice(8, 16)
    ens = [mp.synthesize_forcing(lat, heat_op.tau, seed=i) for i in range(3)]
    counts = []
    for size in (1, 3):
        passes.clear()
        mp.two_sided_ratio(heat_op, ens[:size], 4.0)
        counts.append(list(passes))
    per_member = counts[1][len(counts[0]):]
    assert len(per_member) % 2 == 0
    n_axis_passes = sum(len(axes) for _, _, axes in per_member) // 2
    assert n_axis_passes <= 6
    for name, ndim, axes in per_member:
        if name.startswith("i"):
            assert axes == [ndim - 1], (name, ndim, axes)


def _synthesize_forcing_loop(lattice, tau, seed):
    """The per-mode loop synthesize_forcing replaced, kept as its reference."""
    rng = np.random.default_rng(seed)
    k = lattice.k
    band = 2
    width = 2 * band + 1
    coeff = rng.standard_normal((width,) * (k + 1)) + 1j * rng.standard_normal(
        (width,) * (k + 1)
    )
    bins = np.zeros(lattice.shape, dtype=complex)
    for modes in itertools.product(range(-band, band + 1), repeat=k + 1):
        pos = tuple(m % n for m, n in zip(modes, lattice.shape))
        bins[pos] = coeff[tuple(m + band for m in modes)] * (-1) ** modes[-1]
    field = np.fft.ifftn(bins, norm="ortho") * math.sqrt(lattice.size)
    return field * (mp._time_bump(lattice, tau) * 54.6)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n_x,n_t", [(2, 4), (4, 2), (4, 8), (8, 16)])
def test_synthesize_forcing_matches_loop_bytes(k, n_x, n_t):
    # n = 2 and n = 4 alias modes +-2 (and +-1 at n = 2); the last write wins
    lat = sp.Lattice(k=k, n_x=n_x, n_t=n_t, L_x=2 * math.pi, L_t=2 * math.pi)
    for seed in (0, 5):
        got = mp.synthesize_forcing(lat, 1.0, seed).samples
        want = _synthesize_forcing_loop(lat, 1.0, seed)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("levels", [0, -1])
def test_inheritance_refuses_empty_ladder(heat_op, levels):
    with pytest.raises(ValueError, match="levels"):
        mp.regularity_inheritance_check(heat_op, _lattice(), 4.0, levels=levels)



def test_two_sided_ratio_generator_equals_list(heat_op):
    lat = _lattice(8, 16)
    phi = cm.log_power([1])
    ens = [mp.synthesize_forcing(lat, heat_op.tau, seed=i) for i in range(4)]
    streamed = mp.two_sided_ratio(heat_op, (f for f in ens), 4.0, phi)
    assert streamed == mp.two_sided_ratio(heat_op, ens, 4.0, phi)


def test_two_sided_ratio_refuses_empty_generator(heat_op):
    with pytest.raises(ValueError, match="ensemble must be nonempty"):
        mp.two_sided_ratio(heat_op, (f for f in []), 4.0)


def test_two_sided_ratio_refuses_generator_member_on_other_lattice(heat_op):
    lat = _lattice(8, 16)

    def members():
        yield mp.synthesize_forcing(lat, heat_op.tau, seed=0)
        yield mp.synthesize_forcing(lat.refine(2, 2), heat_op.tau, seed=1)

    with pytest.raises(ValueError, match="different lattices"):
        mp.two_sided_ratio(heat_op, members(), 4.0)


def _window_op(k):
    # tau = 0.4 L_t puts the time sample at L_t/4 inside the bump even at n_t = 4
    return mp.PeriodicParabolicOperator(
        symbol=heat_symbol(k), L_x=2 * math.pi, tau=0.8 * math.pi
    )


_MODAL_LATTICES = [
    (k, n_x, n_t) for k in (1, 2, 3) for n_x, n_t in ((2, 4), (4, 4), (4, 8), (8, 16))
] + [(2, 16, 32)]


@pytest.mark.parametrize("k,n_x,n_t", _MODAL_LATTICES)
def test_modal_members_match_grid_members_and_public_steps(k, n_x, n_t):
    # n = 2 and n = 4 alias band modes onto shared rows
    op = _window_op(k)
    lat = sp.Lattice(k=k, n_x=n_x, n_t=n_t, L_x=2 * math.pi, L_t=2 * math.pi)
    phi = cm.log_power([1])
    seeds = range(3)
    grids = [mp.synthesize_forcing(lat, op.tau, seed) for seed in seeds]
    for seed, f in zip(seeds, grids):
        m = mp._forcing_modes(lat, op.tau, seed)
        assert m.modes.shape == (min(n_x, 5) ** k, n_t)
        fhat = np.fft.fftn(f.samples, axes=tuple(range(k)), norm="ortho").reshape(-1, n_t)
        np.testing.assert_allclose(m.modes, fhat[m.rows], rtol=0, atol=1e-13 * np.abs(fhat).max())
        assert np.abs(np.delete(fhat, m.rows, axis=0)).max(initial=0.0) <= 1e-13 * np.abs(fhat).max()
    modal = mp.two_sided_ratio(op, (mp._forcing_modes(lat, op.tau, s) for s in seeds), 4.0, phi)
    grid = mp.two_sided_ratio(op, grids, 4.0, phi)
    public = [_ratio_by_public_steps(op, f, 4.0, phi) for f in grids]
    assert modal == pytest.approx(grid, rel=1e-13)
    assert modal == pytest.approx((min(public), max(public)), rel=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_modal_member_without_samples_in_the_window_is_refused_like_its_grid(k):
    # at n_t = 2 no time sample lies inside (0, tau): both forms are zero
    op = _window_op(k)
    lat = sp.Lattice(k=k, n_x=4, n_t=2, L_x=2 * math.pi, L_t=2 * math.pi)
    for member in (mp._forcing_modes(lat, op.tau, 0), mp.synthesize_forcing(lat, op.tau, 0)):
        with pytest.raises(ValueError, match="zero forcing"):
            mp.two_sided_ratio(op, [member], 4.0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_modal_member_transforms_touch_only_its_band(k, monkeypatch):
    # per member, every transform (making the band, its norm, its plus-norm
    # blocks) stays on the 5**k occupied rows; the lattice has 8**k
    sizes = []

    def spying(fn):
        def wrapper(a, *args, **kwargs):
            sizes.append(np.asarray(a).size)
            return fn(a, *args, **kwargs)

        return wrapper

    for name in ("fft", "ifft", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, spying(getattr(np.fft, name)))
    op = _heat_op(k)
    lat = sp.Lattice(k=k, n_x=8, n_t=16, L_x=2 * math.pi, L_t=2 * math.pi)
    counts = []
    for size in (1, 3):
        sizes.clear()
        mp.two_sided_ratio(op, (mp._forcing_modes(lat, op.tau, s) for s in range(size)), 4.0)
        counts.append(list(sizes))
    per_member = counts[1][len(counts[0]):]
    assert per_member
    assert max(per_member) <= 5**k * lat.n_t < lat.size


def _modal_member(lat, rows, modes):
    return mp._ModalForcing(lat, np.asarray(rows), np.asarray(modes, dtype=complex))


def test_hand_built_modal_members_are_refused(heat_op):
    lat = _lattice(8, 16)
    bump = mp._time_bump(lat, heat_op.tau)
    good = _modal_member(lat, [0, 9], np.stack((bump, 2j * bump)))
    c1, c2 = mp.two_sided_ratio(heat_op, [good], 4.0)
    assert c1 == c2 > 0
    # support outside (0, tau)
    early = _modal_member(lat, [9], np.ones((1, lat.n_t)))
    with pytest.raises(ValueError, match="not supported"):
        mp.two_sided_ratio(heat_op, [good, early], 4.0)
    # another lattice
    fine = lat.refine(2, 2)
    other = _modal_member(fine, [0], mp._time_bump(fine, heat_op.tau)[None])
    with pytest.raises(ValueError, match="different lattices"):
        mp.two_sided_ratio(heat_op, [good, other], 4.0)
    # a growing mode off the member's rows: xi = 0 has lambda = -1, and the
    # member only occupies xi = (1, 1), where lambda = 1
    shifted = mp.PeriodicParabolicOperator(
        symbol=heat_symbol(), L_x=2 * math.pi, tau=math.pi / 2, lower_order={(0, 0): -1.0}
    )
    away = _modal_member(lat, [9], bump[None])
    with pytest.raises(StabilityError) as info:
        mp.two_sided_ratio(shifted, [away], 4.0)
    assert info.value.lam == pytest.approx(-1.0)
    # malformed modes
    with pytest.raises(ValueError, match="n_t time samples"):
        _modal_member(lat, [0, 9], bump[None])
    with pytest.raises(ValueError, match="finite"):
        _modal_member(lat, [9], np.full((1, lat.n_t), np.nan))

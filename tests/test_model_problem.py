import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import backward_heat_symbol, duhamel_step_residual, heat_symbol, squared_heat_symbol
from hormspace import class_m as cm
from hormspace import model_problem as mp
from hormspace import parabolicity as pb
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


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_non_finite_lower_order_coefficient_rejected(c):
    with pytest.raises(ValueError, match=r"lower-order coefficient at \(0, 1\) is not finite"):
        mp.PeriodicParabolicOperator(
            symbol=heat_symbol(), L_x=2 * math.pi, tau=1.0, lower_order={(0, 1): c}
        )


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


def _window_forcing(lat, tau, seed, start):
    """Random complex samples on start < t <= tau, zero elsewhere."""
    rng = np.random.default_rng(seed)
    t = lat.t_axis()
    on = (t > start) & (t <= tau)
    return sp.GridFunction(lat, (rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape)) * on)


_solve_args = {
    "n_x": st.sampled_from([2, 4, 8]),
    "n_t": st.sampled_from([4, 8, 16, 32]),
    "seed": st.integers(0, 2**16),
}


@settings(max_examples=25, deadline=None)
@given(**_solve_args, quiet=st.floats(0.0, 1.0))
def test_solution_is_zero_until_the_forcing_starts(heat_op, n_x, n_t, seed, quiet):
    # u = 0 for t <= 0, and a forcing that is zero on [0, t1] leaves u = 0 there
    lat = _lattice(n_x, n_t)
    t1 = quiet * heat_op.tau
    u = mp.solve_periodic(heat_op, _window_forcing(lat, heat_op.tau, seed, t1)).samples
    t = lat.t_axis()
    assert np.all(u[..., t <= t1] == 0.0)


@settings(max_examples=25, deadline=None)
@given(**_solve_args, a=st.complex_numbers(max_magnitude=10.0), b=st.complex_numbers(max_magnitude=10.0))
def test_solution_is_linear_in_the_forcing(heat_op, n_x, n_t, seed, a, b):
    lat = _lattice(n_x, n_t)
    f, g = (_window_forcing(lat, heat_op.tau, seed + i, 0.0) for i in (0, 1))
    uf, ug = (mp.solve_periodic(heat_op, h).samples for h in (f, g))
    got = mp.solve_periodic(heat_op, sp.GridFunction(lat, a * f.samples + b * g.samples)).samples
    scale = (abs(a) + abs(b)) * max(np.max(np.abs(uf)), np.max(np.abs(ug)))
    assert np.max(np.abs(got - (a * uf + b * ug))) <= 1e-12 * scale


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


@pytest.mark.parametrize("lower_order", [{}, {(1, 0): 0.5j, (0, 0): 0.25}])
def test_solve_takes_exact_duhamel_steps(lower_order):
    # the solve is exact for piecewise-linear forcing, so every step matches
    # an independent quadrature of the Duhamel integral, for real and for
    # complex decay rates; a u off by one part in 1e6 does not
    op = mp.PeriodicParabolicOperator(
        symbol=heat_symbol(), L_x=2 * math.pi, tau=math.pi / 2, lower_order=lower_order
    )
    lat = _lattice()
    t = lat.t_axis()
    bump = np.where((t >= 0) & (t <= op.tau), np.sin(2 * t) ** 2, 0.0)
    f = sp.GridFunction(lat, sp.random_grid(lat, 3).samples * bump)
    u = mp.solve_periodic(op, f)
    assert duhamel_step_residual(op, f, u) <= 1e-12
    perturbed = sp.GridFunction(lat, u.samples * (1.0 + 1e-6))
    assert duhamel_step_residual(op, f, perturbed) > 1e-8


def _grid_residual(op, f):
    """The round-trip residual taken on the grid: solve_periodic, then the
    spatial multiplier by a spatial fftn and ifftn of the samples and the
    fourth-order stencil along time."""
    lat = f.lattice
    axes = tuple(range(lat.k))
    u = mp.solve_periodic(op, f).samples
    spatial = np.fft.ifftn(
        op.spatial_multiplier(lat)[..., None] * np.fft.fftn(u, axes=axes, norm="ortho"),
        axes=axes,
        norm="ortho",
    )
    h = lat.L_t / lat.n_t
    dudt = (np.roll(u, 2, -1) - 8 * np.roll(u, 1, -1) + 8 * np.roll(u, -1, -1) - np.roll(u, -2, -1))
    au = op.a_t * dudt / (12 * h) + spatial
    t = lat.t_axis()
    interior = (t > 0.0) & (t < op.tau)
    resid = (au - f.samples)[..., interior]
    return np.linalg.norm(resid) / np.linalg.norm(f.samples[..., interior])


def _mixed_symbol():
    """p + xi_1**2 + xi_1 xi_2 + xi_2**2: parabolic, with a mixed term."""
    coeffs = {((0, 0), 1): 1.0, ((2, 0), 0): 1.0, ((1, 1), 0): 1.0, ((0, 2), 0): 1.0}
    return pb.PrincipalSymbol(n=2, b=1, m=1, coeffs=coeffs)


@pytest.mark.parametrize("seed", [4, 9])
@pytest.mark.parametrize(
    "symbol, lower_order",
    [
        (heat_symbol(1), {}),
        (heat_symbol(2), {}),
        (_mixed_symbol(), {(1, 0): 0.5j, (0, 1): 0.3 + 0.2j, (0, 0): 0.25}),
    ],
    ids=["heat-k1", "heat-k2", "mixed-complex-lower"],
)
def test_roundtrip_residual_matches_the_grid_residual(symbol, lower_order, seed):
    op = mp.PeriodicParabolicOperator(
        symbol=symbol, L_x=2 * math.pi, tau=math.pi / 2, lower_order=lower_order
    )
    lat = sp.Lattice(k=symbol.n, n_x=8, n_t=32, L_x=2 * math.pi, L_t=2 * math.pi)
    t = lat.t_axis()
    bump = np.where((t >= 0) & (t <= op.tau), np.sin(2 * t) ** 2, 0.0)
    f = sp.GridFunction(lat, sp.random_grid(lat, seed).samples * bump)
    got = mp.roundtrip_residual(op, f)
    assert got == pytest.approx(_grid_residual(op, f), rel=1e-13)


def test_roundtrip_residual_stays_in_spatial_modes(heat_op, monkeypatch):
    # one Duhamel recurrence, and u never returns to physical space
    calls = []
    duhamel = mp._duhamel_modes

    def spy(*args):
        calls.append(args[2])
        return duhamel(*args)

    def no_ifftn(*args, **kwargs):
        raise AssertionError("roundtrip_residual took an inverse FFT")

    lat = _lattice(8, 32)
    f = mp.synthesize_forcing(lat, heat_op.tau, seed=7)
    monkeypatch.setattr(mp, "_duhamel_modes", spy)
    monkeypatch.setattr(np.fft, "ifftn", no_ifftn)
    assert mp.roundtrip_residual(heat_op, f) > 0.0
    assert calls == [slice(None)]


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


@pytest.mark.parametrize(
    "n_t, tau_frac, stop",
    [(16, 0.25, 12), (64, 0.25, 48), (16, 0.3, 13)],
    ids=["on-sample-16", "on-sample-64", "between-samples"],
)
def test_two_sided_ratio_recurrence_stops_at_the_window(monkeypatch, n_t, tau_frac, stop):
    # the ratio reads u on 0 < t < tau only: its recurrence stops at the first
    # sample at or after tau (t = tau exactly when tau_frac = 1/4), so each
    # block's u is the full recurrence there, bit for bit, and exactly 0
    # everywhere else
    lat = sp.Lattice(k=2, n_x=8, n_t=n_t, L_x=2 * math.pi, L_t=2 * math.pi)
    op = mp.PeriodicParabolicOperator(
        symbol=heat_symbol(), L_x=2 * math.pi, tau=tau_frac * lat.L_t
    )
    seen = []
    duhamel = mp._duhamel_modes

    def spy(*args):
        u = duhamel(*args)
        seen.append((args[-1], u.copy()))
        return u

    monkeypatch.setattr(mp, "_duhamel_modes", spy)
    layout = mp._band_layout(lat, op.tau)
    blocks = [mp._forcing_modes(lat, layout, seeds) for seeds in (range(2), range(2, 5))]
    mp.two_sided_ratio(op, blocks, 4.0)
    weights = mp._duhamel_weights(op, lat)
    t = lat.t_axis()
    window = (t > 0.0) & (t < op.tau)
    assert [s for s, _ in seen] == [stop, stop]
    # one step per window sample: 15 of the 31 steps to L_t/2 at n_t = 64
    assert stop - 1 - n_t // 2 == np.count_nonzero(window)
    for f, (_, u) in zip(blocks, seen):
        full = duhamel(op, weights, f.rows, f.modes, n_t)
        assert u.shape == f.modes.shape
        assert np.array_equal(u[..., window], full[..., window])
        assert np.all(full[..., window][..., -1] != 0.0)
        assert not np.any(u[..., ~window])


def test_two_sided_ratio_transform_passes_per_member(heat_op, monkeypatch):
    # per block: the spatial transform of a grid member (a block of one),
    # the time transform for the norms, and the three block passes of the
    # plus norm, however many members the block holds; no inverse transform
    # over a spatial axis (the solution stays in spatial modes)
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
    layout = mp._band_layout(lat, heat_op.tau)
    blocks = [mp._forcing_modes(lat, layout, range(size)) for size in (1, 3)]
    counts = []
    for block in blocks:
        passes.clear()
        mp.two_sided_ratio(heat_op, [block], 4.0)
        counts.append(list(passes))
    assert counts[0] == counts[1]
    for name, ndim, axes in counts[1]:
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
    layout = mp._band_layout(lat, op.tau)
    block = mp._forcing_modes(lat, layout, seeds)
    assert block.modes.shape == (len(seeds), min(n_x, 5) ** k, n_t)
    for modes, f in zip(block.modes, grids):
        fhat = np.fft.fftn(f.samples, axes=tuple(range(k)), norm="ortho").reshape(-1, n_t)
        np.testing.assert_allclose(modes, fhat[block.rows], rtol=0, atol=1e-13 * np.abs(fhat).max())
        assert np.abs(np.delete(fhat, block.rows, axis=0)).max(initial=0.0) <= 1e-13 * np.abs(fhat).max()
    modal = mp.two_sided_ratio(op, [block], 4.0, phi)
    grid = mp.two_sided_ratio(op, grids, 4.0, phi)
    public = [_ratio_by_public_steps(op, f, 4.0, phi) for f in grids]
    assert modal == pytest.approx(grid, rel=1e-13)
    assert modal == pytest.approx((min(public), max(public)), rel=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_modal_member_without_samples_in_the_window_is_refused_like_its_grid(k):
    # at n_t = 2 no time sample lies inside (0, tau): both forms are zero
    op = _window_op(k)
    lat = sp.Lattice(k=k, n_x=4, n_t=2, L_x=2 * math.pi, L_t=2 * math.pi)
    modal = mp._forcing_modes(lat, mp._band_layout(lat, op.tau), [0])
    for member in (modal, mp.synthesize_forcing(lat, op.tau, 0)):
        with pytest.raises(ValueError, match="zero forcing"):
            mp.two_sided_ratio(op, [member], 4.0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_modal_member_transforms_touch_only_its_band(k, monkeypatch):
    # every transform of a block (making the band, the norms, the plus-norm
    # blocks) stays on the members' 5**k occupied rows; the lattice has 8**k
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
    layout = mp._band_layout(lat, op.tau)
    for members in (1, 3):
        sizes.clear()
        mp.two_sided_ratio(op, (mp._forcing_modes(lat, layout, range(members)),), 4.0)
        assert sizes
        assert max(sizes) <= members * 5**k * lat.n_t
    assert 5**k * lat.n_t < lat.size


def _modal_member(lat, rows, modes):
    """A block of one member."""
    return mp._ModalForcing(lat, np.asarray(rows), np.asarray(modes, dtype=complex)[None])


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
    # malformed modes: a row short, no member axis, no member
    with pytest.raises(ValueError, match="n_t time samples"):
        _modal_member(lat, [0, 9], bump[None])
    with pytest.raises(ValueError, match="n_t time samples"):
        mp._ModalForcing(lat, np.asarray([9]), bump[None].astype(complex))
    with pytest.raises(ValueError, match="at least one member"):
        mp._ModalForcing(lat, np.asarray([9]), np.zeros((0, 1, lat.n_t), dtype=complex))
    with pytest.raises(ValueError, match="finite"):
        _modal_member(lat, [9], np.full((1, lat.n_t), np.nan))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ensemble_ratios_do_not_depend_on_the_block_size(k, monkeypatch):
    # blocks of 1, of 7 (7 + 7 + 6) and of the budget (all 20 in one at
    # k = 1, 2; 16 + 4 at k = 3)
    op = _heat_op(k)
    lat = sp.Lattice(k=k, n_x=8, n_t=16, L_x=2 * math.pi, L_t=2 * math.pi)
    phi = cm.log_power([1])
    seeds = range(20)
    band = 5**k * lat.n_t
    got = []
    budget = mp._BLOCK_VALUES
    for values in (1, 7 * band, budget):
        monkeypatch.setattr(mp, "_BLOCK_VALUES", values)
        blocks = list(mp._forcing_blocks(lat, op.tau, seeds))
        assert sum(len(b.modes) for b in blocks) == len(seeds)
        got.append(mp.two_sided_ratio(op, iter(blocks), 4.0, phi))
    assert len(blocks[0].modes) == min(20, budget // band)
    assert got[0] == got[1] == got[2]
    public = [_ratio_by_public_steps(op, mp.synthesize_forcing(lat, op.tau, s), 4.0, phi)
              for s in seeds]
    assert got[0] == pytest.approx((min(public), max(public)), rel=1e-13)


def test_each_member_of_a_block_is_refused_on_its_own_terms(heat_op):
    lat = _lattice(8, 16)
    layout = mp._band_layout(lat, heat_op.tau)
    good = mp._forcing_modes(lat, layout, range(3)).modes

    def block(modes):
        return mp._ModalForcing(lat, layout.rows, np.asarray(modes))

    assert mp.two_sided_ratio(heat_op, [block(good)], 4.0)[0] > 0
    # a zero member between two good ones
    with pytest.raises(ValueError, match="zero forcing"):
        mp.two_sided_ratio(heat_op, [block(np.stack((good[0], 0 * good[1], good[2])))], 4.0)
    # an off-window part of 1e-6 of its own scale, next to a member 1e10 larger
    # whose scale would hide it
    early = good[1].copy()
    early[:, 0] = 1e-6 * np.abs(early).max()
    loud = 1e10 * good[0]
    assert mp.two_sided_ratio(heat_op, [block(loud[None])], 4.0)[0] > 0
    for modes in (early[None], np.stack((loud, early)), np.stack((early, loud))):
        with pytest.raises(ValueError, match="not supported"):
            mp.two_sided_ratio(heat_op, [block(modes)], 4.0)
    # a non-finite member cannot be put into a block
    with pytest.raises(ValueError, match="finite"):
        block(np.stack((good[0], np.full_like(good[1], np.nan), good[2])))


def _localized_with_tail(lat, tau, tail):
    """A bump in time at one x point, plus an x-uniform value at one t < 0
    sample of tail times the bump's peak."""
    samples = np.zeros(lat.shape, dtype=complex)
    bump = mp._time_bump(lat, tau)
    samples[3, 5] = bump
    samples[..., 2] = tail * bump.max()
    return sp.GridFunction(lat, samples)


@pytest.mark.parametrize("tail, accepted", [(1e-14, True), (1e-11, False)])
def test_solve_roundtrip_and_ratio_check_a_grid_forcing_alike(heat_op, tail, accepted):
    # the tail is below 1e-12 of the largest sample at 1e-14, but its mode
    # xi = 0 carries it 16 times larger while the point's modes are 16 times
    # smaller: checked on its modes, the ratio refused what the solve accepted
    lat = sp.Lattice(k=2, n_x=16, n_t=32, L_x=2 * math.pi, L_t=2 * math.pi)
    f = _localized_with_tail(lat, heat_op.tau, tail)
    calls = (
        lambda: mp.solve_periodic(heat_op, f),
        lambda: mp.roundtrip_residual(heat_op, f),
        lambda: mp.two_sided_ratio(heat_op, [f], 4.0),
    )
    for call in calls:
        if accepted:
            call()
        else:
            with pytest.raises(ValueError, match="not supported"):
                call()


def _multiplier_by_axes(op, lat, modulus=False):
    """sum a_alpha (-xi)**alpha by one tensor product per term over the
    axes, the p = 0 rows of the symbol first, then the lower-order terms;
    with modulus, the sum of the terms' moduli."""
    xi = np.abs(lat.xi_axis()) if modulus else lat.xi_axis()
    shape = (lat.n_x,) * lat.k
    out = np.zeros(shape, dtype=complex)
    terms = [(alpha, c) for (alpha, beta), c in op.symbol.coeffs.items() if beta == 0]
    terms += list(op.lower_order.items())
    for alpha, c in terms:
        term = np.full(shape, abs(c) if modulus else c, dtype=complex)
        for axis, a in enumerate(alpha):
            if a:
                axis_shape = [1] * lat.k
                axis_shape[axis] = lat.n_x
                term = term * ((xi if modulus else -xi) ** a).reshape(axis_shape)
        out += term
    return out.real if modulus else out


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("lower", ["none", "constant", "first-order"])
def test_spatial_multiplier_matches_the_tensor_loop(k, lower):
    # principal-only symbols give the same bits; with lower-order terms the
    # sum may be taken in another order (it is at k = 3 with a constant
    # term), which moves each part of a multiplier by at most two units in
    # the last place of the sum of the terms' moduli
    e = [tuple(row) for row in np.eye(k, dtype=int)]
    lower_order = {
        "none": {},
        "constant": {(0,) * k: 31.4 - 160.5j},
        "first-order": {e[0]: 0.5j, e[-1]: 0.3 + 0.2j, (0,) * k: 0.25},
    }[lower]
    op = mp.PeriodicParabolicOperator(
        symbol=heat_symbol(k), L_x=8.45, tau=1.0, lower_order=lower_order
    )
    # at 64**2 numpy's vectorised float power rounds some xi**2 otherwise
    for n_x in (1, 2, 8, 16) + ((64,) if k < 3 else ()):
        lat = sp.Lattice(k=k, n_x=n_x, n_t=8, L_x=8.45, L_t=8.0)
        got, want = op.spatial_multiplier(lat), _multiplier_by_axes(op, lat)
        assert got.shape == want.shape
        if lower_order:
            ulp = np.spacing(_multiplier_by_axes(op, lat, modulus=True))
            assert np.all(np.abs(got.real - want.real) <= 2 * ulp)
            assert np.all(np.abs(got.imag - want.imag) <= 2 * ulp)
        else:
            assert np.array_equal(got, want)


def test_check_forcing_is_reached_only_through_checked_modes(heat_op, monkeypatch):
    import ast
    import inspect

    tree = ast.parse(inspect.getsource(mp))
    callers = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_check_forcing"
    }
    assert callers == {"_checked_modes"}
    # each entry point takes each forcing through it once
    seen = []
    checked = mp._checked_modes
    monkeypatch.setattr(mp, "_checked_modes", lambda op, f: seen.append(f) or checked(op, f))
    lat = _lattice(8, 16)
    f = mp.synthesize_forcing(lat, heat_op.tau, seed=1)
    mp.solve_periodic(heat_op, f)
    mp.roundtrip_residual(heat_op, f)
    mp.two_sided_ratio(heat_op, [f, f], 4.0)
    assert len(seen) == 4 and all(g is f for g in seen)

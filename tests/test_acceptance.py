"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Criterion 5 carries a known-infeasible residual tolerance; see the test's
failure message for the quantitative argument.  Everything else passes at
the stated tolerances.
"""

import json
import math
import time

import numpy as np

from conftest import (
    backward_heat_symbol,
    dirichlet_symbol,
    duhamel_step_residual,
    heat_symbol,
    neumann_symbol,
    oracle_plus_norm,
    squared_heat_symbol,
    tangential_symbol,
)
from hormspace import class_m as cm
from hormspace import cli
from hormspace import embedding as em
from hormspace import interpolation as ip
from hormspace import model_problem as mp
from hormspace import parabolicity as pb
from hormspace import plus_spaces as ps
from hormspace import spectra as sp


def _report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f" :: {detail}" if detail else ""))
    return ok


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_1_interpolation_norm_equality():
    t0 = time.perf_counter()
    lat = sp.Lattice(k=2, n_x=16, n_t=16, L_x=2 * math.pi, L_t=2 * math.pi)
    grids = [sp.random_grid(lat, seed) for seed in range(50)]
    phis = [cm.constant_one(), cm.log_power([1]), cm.log_power([2, -1])]
    triples = [(0, 1, 2), (1, 2.5, 4), (0, 0.5, 3)]
    worst = 0.0
    for g in grids:
        for s0, s, s1 in triples:
            for phi in phis:
                ratio = ip.verify_lemma71(g, s0, s, s1, 0.5, phi)
                worst = max(worst, abs(ratio - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    assert _report(
        "criterion 1: interpolation norm equality",
        ok,
        f"max |ratio-1| = {worst:.3e}, {elapsed:.2f}s",
    )


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_2_parseval():
    lat = sp.Lattice(k=2, n_x=16, n_t=16, L_x=2 * math.pi, L_t=4.0)
    idx = sp.AnisotropicIndex(0.0, 0.5)
    root_cell = math.sqrt(lat.cell_volume)
    worst = 0.0
    for seed in range(100):
        g = sp.random_grid(lat, seed)
        l2 = float(np.linalg.norm(g.samples.ravel())) * root_cell
        worst = max(worst, abs(sp.hnorm(g, idx) - l2) / l2)
    ok = worst <= 1e-12
    assert _report("criterion 2: Parseval exactness", ok, f"worst rel = {worst:.3e}")


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_3_parabolicity_suite():
    t0 = time.perf_counter()
    heat = heat_symbol()

    v_heat = pb.petrovskii_check(heat, 10000)
    ok = v_heat.passed and v_heat.root_margin > 0.1

    v_back = pb.petrovskii_check(backward_heat_symbol(), 10000)
    ok &= (not v_back.passed) and v_back.root_margin < 0

    for frame in pb.random_frames(100, 2, seed=1):
        plus, minus = pb.root_split(pb.zeta_polynomial(heat, [frame])[0])
        ok &= len(plus) == 1 and len(minus) == 1

    frames = pb.random_frames(50, 2, seed=4)
    for B in (dirichlet_symbol(), neumann_symbol()):
        verdict = pb.covering_check(heat, [B], frames)
        ok &= verdict.passed and verdict.min_singular > 0.1

    axis_frame = pb.BoundaryFrame(nu=[0.0, 1.0], xi_tan=[0.0, 0.0], p=1.0)
    v_tan = pb.covering_check(heat, [tangential_symbol()], frames + [axis_frame])
    ok &= not v_tan.passed

    bih = squared_heat_symbol()
    v_bih = pb.petrovskii_check(bih, 10000)
    ok &= v_bih.passed
    for frame in pb.random_frames(100, 2, seed=9):
        plus, minus = pb.root_split(pb.zeta_polynomial(bih, [frame])[0])
        ok &= len(plus) == 2 and len(minus) == 2

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    assert _report(
        "criterion 3: parabolicity suite",
        ok,
        f"heat margin {v_heat.root_margin:.3f}, backward margin {v_back.root_margin:.3f}, {elapsed:.2f}s",
    )


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_4_sigma0():
    ok = (
        pb.sigma0(1, 1, [0]) == 2
        and pb.sigma0(2, 1, [0, 1]) == 4
        and pb.sigma0(2, 1, [4]) == 6
    )
    assert _report("criterion 4: sigma0 examples", ok)


# -- criterion 5 ---------------------------------------------------------------


def _model_setup(n_x, n_t):
    lat = sp.Lattice(k=2, n_x=n_x, n_t=n_t, L_x=2 * math.pi, L_t=2 * math.pi)
    op = mp.PeriodicParabolicOperator(symbol=heat_symbol(), L_x=lat.L_x, tau=lat.L_t / 4)
    return lat, op


def test_criterion_5_model_problem_estimates():
    t0 = time.perf_counter()
    lat, op = _model_setup(16, 32)
    ok = True
    detail = []
    for phi in (cm.constant_one(), cm.log_power([1])):
        ens = [mp.synthesize_forcing(lat, op.tau, seed=i) for i in range(100)]
        c1, c2 = mp.two_sided_ratio(op, ens, 4.0, phi)
        lat2 = lat.refine(2, 2)
        ens2 = [mp.synthesize_forcing(lat2, op.tau, seed=i) for i in range(100)]
        c1f, c2f = mp.two_sided_ratio(op, ens2, 4.0, phi)
        spread_change = (c2f / c1f) / (c2 / c1)
        fin = all(map(math.isfinite, (c1, c2, c1f, c2f))) and c1 > 0 and c1f > 0
        ok &= fin and 0.5 < spread_change < 2.0
        detail.append(f"{phi.kind}: spread {c2 / c1:.3f} -> {c2f / c1f:.3f}")
    # quadrature order: residual improves at least 4x per time doubling
    f32 = mp.synthesize_forcing(lat, op.tau, seed=0)
    r32 = mp.roundtrip_residual(op, f32)
    lat_t2 = lat.refine(1, 2)
    f64 = mp.synthesize_forcing(lat_t2, op.tau, seed=0)
    r64 = mp.roundtrip_residual(op, f64)
    ok &= r32 / r64 >= 3.5
    # representation consistency: every step of the solve is the Duhamel
    # integral of the forcing's piecewise-linear interpolant
    u32 = mp.solve_periodic(op, f32)
    r_rep = duhamel_step_residual(op, f32, u32)
    ok &= r_rep <= 1e-12
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    assert _report(
        "criterion 5: model problem (two-sided estimate, quadrature order)",
        ok,
        "; ".join(detail)
        + f"; residual {r32:.2e} -> {r64:.2e}, duhamel {r_rep:.1e}, {elapsed:.1f}s",
    )


def test_criterion_5_residual_magnitude():
    """Round-trip residual <= 1e-3 at 16**2 x 32 with tau = L_t/4, as stated.

    This tolerance is unattainable with the residual's own evaluator: d/dt
    is the fourth-order stencil on the 8 samples of the window (0, tau), and
    that stencil alone leaves a relative residual of 3.3e-2 on a near-exact
    solution (solve_periodic of the same continuum forcing at n_t = 4096,
    subsampled to n_t = 32; unchanged at n_t = 8192).  The solver's own
    relative error at n_t = 32 is 2.5e-2 (second order: 6.0e-3 at 64,
    1.5e-3 at 128), so a perfect solver would still fail.  The exact
    differentiation of the stored Duhamel representation instead reproduces
    the forcing identically (residual ~ 1e-16), but then no 4x-per-doubling
    improvement exists to measure.  No evaluator satisfies both clauses.
    """
    lat, op = _model_setup(16, 32)
    f = mp.synthesize_forcing(lat, op.tau, seed=0)
    residual = mp.roundtrip_residual(op, f)
    assert _report(
        "criterion 5 (residual magnitude clause)",
        residual <= 1e-3,
        f"residual = {residual:.3e} vs stated 1e-3 (the fd4 evaluator alone gives "
        "3.3e-2 on a near-exact solution)",
    )


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_6_embedding_criterion():
    from test_embedding import oracle_classify

    ok = True
    for phi in (
        cm.log_power([0.4]),
        cm.log_power([0.5]),
        cm.log_power([0.6]),
        cm.log_power([0.5, 0.4]),
        cm.log_power([0.5, 0.6]),
        cm.constant_one(),
    ):
        ok &= em.criterion_verdict(phi) == oracle_classify(phi)

    for p in (0, 1):
        s = p + 1 + 1.0
        alphas = {(0, 0)}
        alphas.add((p, 0))  # |alpha| = p
        for alpha in alphas:
            for R in (10.0, 30.0, 100.0):
                res = em.radial_reduction_check(s, 0.5, cm.constant_one(), alpha, 0, R)
                ok &= res.relerr <= 1e-3

    base = sp.Lattice(k=2, n_x=8, n_t=8, L_x=2 * math.pi, L_t=2 * math.pi)
    lattices = [base]
    for _ in range(4):
        lattices.append(lattices[-1].refine(2, 2))
    rep = em.sharpness_demo(cm.constant_one(), 0, lattices)
    ok &= rep.norm_spread <= 0.05 and rep.sup_monotone

    assert _report("criterion 6: embedding criterion and sharpness", ok)


# -- criterion 7 ---------------------------------------------------------------


def test_criterion_7_plus_norm_oracle_and_lemma51():
    worst = 0.0
    rng_master = np.random.default_rng(123)
    for case in range(20):
        seed = int(rng_master.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        if case % 2 == 0:
            lat = sp.Lattice(k=1, n_x=8, n_t=8, L_x=2 * math.pi, L_t=2 * math.pi)
        else:
            lat = sp.Lattice(k=2, n_x=8, n_t=8, L_x=2 * math.pi, L_t=4.0)
        t = lat.t_axis()
        tshape = (1,) * lat.k + (lat.n_t,)
        tn = np.broadcast_to((t >= 0).reshape(tshape), lat.shape).copy()
        if case % 3 == 0:
            v = (rng.random(lat.shape) < 0.3) & tn
            if not v.any():
                v[..., lat.n_t // 2 + 1] = True
        else:
            v = np.broadcast_to(
                ((t > 0) & (t < lat.L_t / 4)).reshape(tshape), lat.shape
            ).copy()
        region = ps.RegionMask(lat, v, tn)
        phi = cm.log_power([1]) if case % 2 else cm.constant_one()
        idx = sp.AnisotropicIndex(0.9 + 0.3 * (case % 4), 0.5, phi)
        u = np.where(v, rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape), 0)
        got = ps.plus_norm(u, idx, region).norm
        want = oracle_plus_norm(u, idx, region)
        worst = max(worst, abs(got - want) / want)
    ok = worst <= 1e-8

    # Lemma 5.1 refinement behavior, s*gamma = 0.9 > 1/2
    idx = sp.AnisotropicIndex(1.8, 0.5)
    ratios_vanishing, ratios_violating = [], []
    for n_t in (8, 16, 32):
        lat = sp.Lattice(k=1, n_x=8, n_t=n_t, L_x=2 * math.pi, L_t=2 * math.pi)
        tau = lat.L_t / 4
        x, t = lat.x_axis(), lat.t_axis()
        X, T = np.meshgrid(x, t, indexing="ij")
        inwin = (T > 0) & (T < tau)
        region = ps.RegionMask(lat, inwin, T >= 0)
        chi_v = np.where(inwin, np.sin(np.pi * np.clip(T, 0, tau) / tau) ** 2, 0.0)
        chi_b = np.where(inwin, np.cos(0.5 * np.pi * np.clip(T, 0, tau) / tau), 0.0)
        base = np.exp(np.sin(X))
        ratios_vanishing.append(
            ps.lemma51_equivalence_ratio(sp.GridFunction(lat, base * chi_v), idx, region)
        )
        ratios_violating.append(
            ps.lemma51_equivalence_ratio(sp.GridFunction(lat, base * chi_b), idx, region)
        )
    ok &= max(ratios_vanishing) / min(ratios_vanishing) < 2.0
    ok &= ratios_violating[0] < ratios_violating[1] < ratios_violating[2]
    assert _report(
        "criterion 7: factor-norm oracle and trace refinement",
        ok,
        f"worst oracle dev {worst:.2e}; vanishing {ratios_vanishing[-1]:.3f}, "
        f"violating {ratios_violating[-1]:.3f}",
    )


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_8_direct_sum_equality():
    lat = sp.Lattice(k=1, n_x=16, n_t=16, L_x=2 * math.pi, L_t=2 * math.pi)
    p = ip.build_psi(0, 1, 2, cm.log_power([1]))
    rng = np.random.default_rng(77)
    ok = True
    worst = 0.0
    for case in range(20):
        pairs, gs = [], []
        for i in range(3):
            s0 = float(rng.uniform(0, 2))
            s1 = s0 + float(rng.uniform(0.5, 3))
            pairs.append(ip.sobolev_pair(lat, s0, s1, 0.5))
            gs.append(sp.random_grid(lat, 1000 * case + i))
        lhs, rhs = ip.direct_sum_interp_check(pairs, gs, p)
        worst = max(worst, abs(lhs - rhs) / rhs)
        ok &= abs(lhs - rhs) <= 1e-12 * rhs
    assert _report("criterion 8: direct-sum equality", ok, f"worst rel gap {worst:.2e}")


# -- criterion 9 ---------------------------------------------------------------


def test_criterion_9_cli_determinism(tmp_path, capsys):
    heat_path = tmp_path / "heat2d.json"
    heat_path.write_text(
        json.dumps(
            {
                "n": 2,
                "b": 1,
                "m": 1,
                "A": [
                    {"alpha": [2, 0], "beta": 0, "re": 1.0},
                    {"alpha": [0, 2], "beta": 0, "re": 1.0},
                    {"alpha": [0, 0], "beta": 1, "re": 1.0},
                ],
                "B": [{"m_j": 0, "coeffs": [{"alpha": [0, 0], "beta": 0, "re": 1.0}]}],
            }
        )
    )
    import hormspace.gridio as gridio

    lat = sp.Lattice(k=1, n_x=8, n_t=8, L_x=2 * math.pi, L_t=2 * math.pi)
    grid_path = tmp_path / "g.hgrd"
    gridio.save_grid(grid_path, sp.random_grid(lat, 0), ps.time_window_region(lat, 0.0, lat.L_t / 4))

    commands = [
        ["sigma0", "--m", "2", "--b", "1", "--orders", "0", "1"],
        ["check-parabolic", str(heat_path), "--samples", "400", "--seed", "3"],
        ["norm", str(grid_path), "--s", "1", "--gamma", "0.5", "--phi",
         '{"kind":"log_power","exponents":[1.0]}'],
        ["plus-norm", str(grid_path), "--s", "1.8", "--gamma", "0.5", "--lemma51"],
        ["verify-lemma71", "--s0", "0", "--s", "1", "--s1", "2", "--lattice",
         "8x8x8", "--trials", "2", "--seed", "5"],
        ["model-verify", str(heat_path), "--sigma", "4", "--ensemble", "2",
         "--lattice", "8x8x16", "--levels", "1", "--seed", "11"],
        ["embed-check", "--phi", '{"kind":"log_power","exponents":[0.6]}',
         "--weight-sum"],
    ]
    ok = True
    for argv in commands:
        code1 = cli.main(argv)
        out1 = capsys.readouterr().out
        code2 = cli.main(argv)
        out2 = capsys.readouterr().out
        ok &= (out1 == out2) and (code1 == code2) and out1 != ""
    assert _report("criterion 9: CLI determinism", ok, f"{len(commands)} commands")

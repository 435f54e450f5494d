"""Command-line interface: JSON in, deterministic JSON report out.

Exit codes: 0 for pass verdicts, 1 for fail verdicts (and numerical
failures, reported on stderr), 2 for usage or parse errors.  All floats in
reports are serialized with 17 significant digits, and a fixed seed makes
reports byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import class_m, embedding, gridio, interpolation, model_problem, parabolicity
from . import plus_spaces, spectra
from .errors import HormspaceError

__all__ = ["run", "main"]


# -- deterministic JSON serialization ----------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return json.dumps(str(x))
    return format(float(x), ".17g")


def dumps_report(obj) -> str:
    """JSON with floats at 17 significant digits and stable key order."""
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(dumps_report(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}:{dumps_report(v)}" for k, v in obj.items())
        return "{" + ",".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# -- input parsing helpers ----------------------------------------------------

# JSON layouts of the input files: a type (a tuple of types for a number), a
# one-item list for a list of that layout, or a dict of keys; a key that is
# absent is reported where it is read
_NUMBER = (int, float)
_PHI = {"kind": str, "exponents": [_NUMBER], "cutoff": _NUMBER}
_COEFF = {"alpha": [int], "beta": int, "re": _NUMBER, "im": _NUMBER}
_OPERATOR = {
    "n": int, "b": int, "m": int, "A": [_COEFF],
    "B": [{"m_j": int, "coeffs": [_COEFF]}],
    "frames": [{"nu": [_NUMBER], "xi_tan": [_NUMBER], "p": [_NUMBER]}],
}
_GRID = {"k": int, "n_x": int, "n_t": int, "L_x": _NUMBER, "L_t": _NUMBER,
         "re": [_NUMBER], "im": [_NUMBER]}


def _checked(value, layout, what: str):
    """value, once it has the JSON layout; ValueError where it departs."""
    if isinstance(layout, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{what} must be a JSON object")
        for key in layout.keys() & value.keys():
            _checked(value[key], layout[key], f"{what} field {key}")
    elif isinstance(layout, list):
        if not isinstance(value, list):
            raise ValueError(f"{what} must be a list")
        for item in value:
            _checked(item, layout[0], what)
    # type(), not isinstance(): JSON true and false are no numbers
    elif type(value) not in (layout if isinstance(layout, tuple) else (layout,)):
        raise ValueError(f"{what} has the wrong type: {value!r}")
    return value


def _parse_phi(text: str) -> class_m.PhiFunction:
    if text.strip() in ("1", "one", "constant", "constant_one"):
        return class_m.constant_one()
    return class_m.PhiFunction.from_json_dict(_checked(json.loads(text), _PHI, "phi"))


def _parse_lattice(text: str, L_x: float, L_t: float) -> spectra.Lattice:
    parts = [int(p) for p in text.lower().split("x")]
    if len(parts) < 2:
        raise ValueError("lattice spec needs at least KxT")
    spatial, n_t = parts[:-1], parts[-1]
    if any(p != spatial[0] for p in spatial):
        raise ValueError("all spatial extents must be equal")
    return spectra.Lattice(k=len(spatial), n_x=spatial[0], n_t=n_t, L_x=L_x, L_t=L_t)


def _load_coeffs(entries) -> dict:
    """Symbol coefficients keyed by (alpha, beta) from their JSON entries."""
    coeffs = {}
    for entry in entries:
        key = (tuple(entry["alpha"]), int(entry["beta"]))
        coeffs[key] = complex(entry.get("re", 0.0), entry.get("im", 0.0))
    return coeffs


def _load_operator(path: str) -> tuple[dict, parabolicity.PrincipalSymbol]:
    """The operator file's JSON object and its interior symbol."""
    with open(path, "r", encoding="utf-8") as fh:
        d = _checked(json.load(fh), _OPERATOR, "operator file")
    coeffs = _load_coeffs(d["A"])
    return d, parabolicity.PrincipalSymbol(n=d["n"], b=d["b"], m=d["m"], coeffs=coeffs)


def _load_frames(entries) -> list[parabolicity.BoundaryFrame]:
    frames = []
    for e in entries:
        p = e["p"]
        if len(p) != 2:
            raise ValueError(f"frame p must be [re, im], got {p!r}")
        frames.append(
            parabolicity.BoundaryFrame(
                nu=np.asarray(e["nu"], dtype=float),
                xi_tan=np.asarray(e["xi_tan"], dtype=float),
                p=complex(p[0], p[1]),
            )
        )
    return frames


def _load_grid_file(path: str):
    if str(path).endswith(".json"):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        _checked(json.loads(text), _GRID, "grid file")
        return gridio.grid_from_json(text), None
    return gridio.load_grid(path)


# -- commands ------------------------------------------------------------------


def _cmd_sigma0(args) -> tuple[dict, int]:
    return {"sigma0": parabolicity.sigma0(args.m, args.b, args.orders)}, 0


def _cmd_check_parabolic(args) -> tuple[dict, int]:
    spec, A = _load_operator(args.operator)
    verdict = parabolicity.petrovskii_check(A, args.samples)
    report = {"petrovskii": verdict.to_json_dict()}
    passed = verdict.passed
    if spec.get("B"):
        Bs = [
            parabolicity.BoundarySymbol(
                n=A.n, b=A.b, m_j=bd["m_j"], coeffs=_load_coeffs(bd["coeffs"])
            )
            for bd in spec["B"]
        ]
        if spec.get("frames"):
            frames = _load_frames(spec["frames"])
        else:
            frames = parabolicity.random_frames(args.frames, A.n, args.seed)
        cov = parabolicity.covering_check(A, Bs, frames, tol=args.tol)
        report["covering"] = cov.to_json_dict()
        report["sigma0"] = parabolicity.sigma0(A.m, A.b, [B.m_j for B in Bs])
        passed = passed and cov.passed
    report["passed"] = passed
    return report, 0 if passed else 1


def _cmd_norm(args) -> tuple[dict, int]:
    g, _region = _load_grid_file(args.grid)
    lat = g.lattice
    phi = _parse_phi(args.phi)
    idx = spectra.AnisotropicIndex(args.s, args.gamma, phi)
    field_ = spectra.dft(g)
    # hnorm's Parseval sum over this one transform, and r_gamma_max from the
    # r_gamma array of its weight
    r = spectra.r_gamma_array(lat, idx.gamma)
    hnorm = spectra._parseval_norm(spectra._weight(r, idx) * np.abs(field_.coeffs), lat)
    r_gamma_max = float(np.max(r))
    del r
    back = spectra.idft(field_)
    # each full-lattice array is dropped once used, so that fewer of them
    # are alive under the round-trip difference and the embedding constants
    del field_
    rt = float(
        np.max(np.abs(back.samples - g.samples))
        / max(float(np.max(np.abs(g.samples))), 1e-300)
    )
    del back
    l2 = float(np.linalg.norm(g.samples.ravel()) * math.sqrt(lat.cell_volume))
    report = {
        "lattice": {"k": lat.k, "n_x": lat.n_x, "n_t": lat.n_t},
        "hnorm": hnorm,
        "l2": l2,
        "dft_roundtrip_error": rt,
        # r_gamma = 1 at xi = 0, eta = 0, so the weight there is phi(1)
        "weight_at_origin": class_m.eval_phi(idx.phi, 1.0),
        "r_gamma_max": r_gamma_max,
    }
    if args.embed_window:
        s0, s1 = args.embed_window
        c_low, c_high = spectra.embedding_constants(
            spectra.AnisotropicIndex(s0, idx.gamma, phi),
            idx,
            spectra.AnisotropicIndex(s1, idx.gamma, phi),
            lat,
        )
        report["embedding_constants"] = [c_low, c_high]
    return report, 0


def _cmd_verify_lemma71(args) -> tuple[dict, int]:
    lat = _parse_lattice(args.lattice, args.L_x, args.L_t)
    phi = _parse_phi(args.phi)
    s0, s, s1 = args.s0, args.s, args.s1
    tol = args.tol
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"--tol must be finite and nonnegative, got {tol}")
    deviations = []
    for trial in range(args.trials):
        g = spectra.random_grid(lat, args.seed + trial)
        ratio = interpolation.verify_lemma71(g, s0, s, s1, args.gamma, phi)
        deviations.append(abs(ratio - 1.0))
    # np.max propagates a nan deviation, where max(0.0, nan) would drop it
    worst = float(np.max(deviations, initial=0.0))
    p = interpolation.build_psi(s0, s, s1, phi)
    ladder = np.geomspace(1e3, 1e12, 10)
    rv = interpolation.regular_variation_index(p, ladder)
    pair = interpolation.sobolev_pair(lat, s0, s1, args.gamma)
    mult_min = float(np.min(interpolation.generating_operator(pair)))
    gs = [spectra.random_grid(lat, args.seed + 100 + i) for i in range(3)]
    lhs, rhs = interpolation.direct_sum_interp_check([pair] * 3, gs, p)
    passed = worst <= tol and abs(lhs - rhs) <= 1e-12 * max(rhs, 1e-300)
    report = {
        "max_ratio_deviation": worst,
        "tolerance": tol,
        "theta": p.theta,
        "regular_variation_index": rv,
        "generating_multiplier_min": mult_min,
        "direct_sum_lhs": lhs,
        "direct_sum_rhs": rhs,
        "passed": passed,
    }
    return report, 0 if passed else 1


def _cmd_plus_norm(args) -> tuple[dict, int]:
    g, region = _load_grid_file(args.grid)
    phi = _parse_phi(args.phi)
    idx = spectra.AnisotropicIndex(args.s, args.gamma, phi)
    if region is None:
        if args.v_window is None:
            raise ValueError("grid carries no region; pass --v-window T0 T1")
        region = plus_spaces.time_window_region(g.lattice, *args.v_window)
    result = plus_spaces.plus_norm(g.samples, idx, region)
    report = {
        "plus_norm": result.norm,
        "extension_hnorm": spectra.hnorm(result.extension, idx),
        "trace_defect": plus_spaces.trace_defect(g, idx.gamma, idx.s),
    }
    if args.lemma51:
        report["lemma51_ratio"] = plus_spaces.lemma51_equivalence_ratio(g, idx, region)
    if args.interp:
        s0, s, s1 = args.interp
        supported = np.where(region.t_nonneg_mask, g.samples, 0.0)
        lhs, rhs = interpolation.interp_subspace_norm(
            spectra.GridFunction(g.lattice, supported), region, s0, s, s1, idx.gamma, phi
        )
        report["interp_subspace"] = {"lhs": lhs, "rhs": rhs}
    return report, 0


def _cmd_model_verify(args) -> tuple[dict, int]:
    _spec, A = _load_operator(args.operator)
    lat = _parse_lattice(args.lattice, args.L_x, args.L_t)
    tau = args.tau_frac * lat.L_t
    op = model_problem.PeriodicParabolicOperator(symbol=A, L_x=lat.L_x, tau=tau)
    phi = _parse_phi(args.phi)
    sigma, seed, n_ens = args.sigma, args.seed, args.ensemble

    def ensemble(lattice):
        # each member is the band of spatial modes its synthesize_forcing
        # sample occupies, drawn one at a time
        return (model_problem._forcing_modes(lattice, tau, seed + i) for i in range(n_ens))

    c1, c2 = model_problem.two_sided_ratio(op, ensemble(lat), sigma, phi)
    # synthesize_forcing is deterministic: this is the ensemble's first member
    resid = model_problem.roundtrip_residual(
        op, model_problem.synthesize_forcing(lat, tau, seed)
    )
    report = {
        "c1_hat": c1,
        "c2_hat": c2,
        "spread": c2 / c1,
        "roundtrip_residual": resid,
    }
    passed = math.isfinite(c1) and math.isfinite(c2) and c1 > 0
    if args.refine > 0:
        lat2 = lat.refine(2, 2)
        c1r, c2r = model_problem.two_sided_ratio(op, ensemble(lat2), sigma, phi)
        change = (c2r / c1r) / (c2 / c1)
        report["refined"] = {"c1_hat": c1r, "c2_hat": c2r, "spread_change": change}
        passed = passed and 0.5 < change < 2.0
    ladder = model_problem.regularity_inheritance_check(
        op, lat, sigma, phi, levels=args.levels, seed=seed
    )
    report["ladder"] = ladder.to_json_dict()
    report["passed"] = passed and not ladder.flagged
    return report, 0 if report["passed"] else 1


# the most points of one lattice that embed-check builds: its lattices grow as
# 2**(5(n+1)) (--weight-sum) and 2**(7(n+1)) (--sharpness) with the
# dimension, and several float arrays of that size are alive at once
_EMBED_MAX_POINTS = 2**22


def _cube_ladder(n: int, points: int, rungs: int) -> list[spectra.Lattice]:
    """2 pi-periodic lattices of points**(n+1) points, doubling every extent
    from one rung to the next."""
    base = spectra.Lattice(k=n, n_x=points, n_t=points, L_x=2 * math.pi, L_t=2 * math.pi)
    return [base.refine(2**i, 2**i) for i in range(rungs)]


def _cmd_embed_check(args) -> tuple[dict, int]:
    phi = _parse_phi(args.phi)
    p, b, n = args.p, args.b, args.n
    if p < 0 or b < 1 or n < 1:
        raise ValueError(f"need --p >= 0, --b >= 1 and --n >= 1, got {p}, {b}, {n}")
    gamma = 1.0 / (2.0 * b)
    s = p + b + n / 2.0
    verdict = embedding.criterion_verdict(phi)
    # a Lattice holds no arrays, so the sizes are checked before any is filled
    weight_lattices = _cube_ladder(n, 16, 2) if args.weight_sum else []
    ladder = _cube_ladder(n, 8, 5) if args.sharpness and verdict == "diverges" else []
    largest = max((lat.size for lat in weight_lattices + ladder), default=0)
    if largest > _EMBED_MAX_POINTS:
        raise ValueError(
            f"--n {n} needs a lattice of {largest} points; "
            f"embed-check builds at most {_EMBED_MAX_POINTS}"
        )
    r_values = args.r_values
    partials = [embedding.criterion_partial(phi, R) for R in r_values]
    defects = class_m.slow_variation_defect(phi, 2.0, r_values)
    report = {
        "verdict": verdict,
        "r_values": list(r_values),
        "partial_integrals": partials,
        "slow_variation_defect": [float(d) for d in defects],
        "epsilon_bound_constant": class_m.epsilon_bound_constant(phi, 0.5, 1e6),
        "s": s,
    }
    if weight_lattices:
        base_sum, doubled_sum = (
            embedding.derivative_weight_sum(lat, s, gamma, phi, (0,) * n, 0)
            for lat in weight_lattices
        )
        report["weight_sums"] = {"base": base_sum, "doubled": doubled_sum}
    if args.radial:
        rows = []
        for R in (10.0, 30.0, 100.0):
            res = embedding.radial_reduction_check(s, gamma, phi, (0,) * n, 0, R)
            rows.append({"R": R, **res.to_json_dict()})
        report["radial_reduction"] = rows
    if ladder:
        report["sharpness"] = embedding.sharpness_demo(phi, p, ladder, b=b).to_json_dict()
    return report, 0 if verdict == "converges" else 1


_HANDLERS = {
    "sigma0": _cmd_sigma0,
    "check-parabolic": _cmd_check_parabolic,
    "norm": _cmd_norm,
    "verify-lemma71": _cmd_verify_lemma71,
    "plus-norm": _cmd_plus_norm,
    "model-verify": _cmd_model_verify,
    "embed-check": _cmd_embed_check,
}


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command; report JSON to stdout, diagnostics to stderr."""
    try:
        report, code = _HANDLERS[args.command](args)
    except (json.JSONDecodeError, FileNotFoundError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HormspaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(dumps_report(report) + "\n")
    return code


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each declaring only the options its
    handler reads, with each default set here once."""
    ap = argparse.ArgumentParser(prog="hormspace")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigma0")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--orders", type=int, nargs="*", default=[])

    p = sub.add_parser("check-parabolic")
    p.add_argument("operator")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--frames", type=int, default=50)
    p.add_argument("--tol", type=float, default=parabolicity._COVER_TOL)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("norm")
    p.add_argument("grid")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--phi", default="1")
    p.add_argument("--embed-window", dest="embed_window", type=float, nargs=2)

    p = sub.add_parser("verify-lemma71")
    p.add_argument("--lattice", default="16x16x16")
    p.add_argument("--s0", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--s1", type=float, required=True)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--phi", default="1")
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--L-x", dest="L_x", type=float, default=2 * math.pi)
    p.add_argument("--L-t", dest="L_t", type=float, default=2 * math.pi)

    p = sub.add_parser("plus-norm")
    p.add_argument("grid")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--phi", default="1")
    p.add_argument("--v-window", dest="v_window", type=float, nargs=2)
    p.add_argument("--lemma51", action="store_true")
    p.add_argument("--interp", type=float, nargs=3, metavar=("S0", "S", "S1"))

    p = sub.add_parser("model-verify")
    p.add_argument("operator")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--phi", default="1")
    p.add_argument("--ensemble", type=int, default=20)
    p.add_argument("--lattice", default="16x16x32")
    p.add_argument("--refine", type=int, default=0)
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--tau-frac", dest="tau_frac", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--L-x", dest="L_x", type=float, default=2 * math.pi)
    p.add_argument("--L-t", dest="L_t", type=float, default=2 * math.pi)

    p = sub.add_parser("embed-check")
    p.add_argument("--phi", required=True)
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--n", type=int, default=2)
    p.add_argument(
        "--r-values", dest="r_values", type=float, nargs="+", default=[1e3, 1e6, 1e9, 1e12]
    )
    p.add_argument("--radial", action="store_true")
    p.add_argument("--sharpness", action="store_true")
    p.add_argument("--weight-sum", dest="weight_sum", action="store_true")

    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

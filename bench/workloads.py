"""Seeded workload definitions: inputs, invocation lists, expected exit codes
and the correctness checks applied to every report.

Each workload is a fixed list of ``hormspace`` CLI invocations.  Inputs
(operator files and grid files) are generated here from the seed and
written with this module's own writers, so the program under test receives
only argv and files.  Every check is computed by this module (closed-form
rules, invariants of the report, or an independent oracle) and does not
depend on which seed produced the input.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("symbol_verdicts", "model_estimates", "lattice_norms")

# Command -> name of its summed-time metric.  sigma0 is absent on purpose:
# it takes microseconds, so a timing of it would be noise.
TIMED_COMMANDS = {
    "check-parabolic": "check_parabolic_s",
    "embed-check": "embed_check_s",
    "model-verify": "model_verify_s",
    "plus-norm": "plus_norm_s",
    "norm": "norm_s",
    "verify-lemma71": "verify_lemma71_s",
}

# Sizes per scale.  "full" is what the benchmark measures; "tiny" keeps every
# code path of "full" (same commands, same branches, dense and slab solvers)
# at a size that runs in seconds, for warm-up and for the harness self-test.
SIZES = {
    "full": {
        "samples": 10000,
        "frames": 200,
        "model_lattice": "16x16x32",
        "ensemble": 100,
        "levels": 2,
        "dense": (2, 16, 16),
        "dense_oracle": (2, 8, 16),
        "slab": (2, 32, 64),
        "norm_grids": ((3, 32, 64), (2, 128, 64)),
        "lemma71_lattice": "64x64x64",
        "lemma71_trials": 16,
    },
    "tiny": {
        "samples": 200,
        "frames": 10,
        "model_lattice": "8x8x16",
        "ensemble": 2,
        "levels": 1,
        "dense": (2, 4, 16),
        "dense_oracle": (1, 8, 16),
        "slab": (2, 8, 16),
        "norm_grids": ((3, 8, 16), (2, 16, 16)),
        "lemma71_lattice": "8x8x8",
        "lemma71_trials": 2,
    },
}

TWO_PI = 2.0 * math.pi
DENSE_S = 1.5  # s * gamma - 1/2 = 0.25 keeps trace_defect admissible
SLAB_S = 1.8


@dataclass
class Case:
    """One CLI invocation, the exit code its input was built to produce, and
    a check that returns a list of problems found in the parsed report."""

    command: str
    argv: list
    expect_code: int
    check: Callable[[dict], list]
    sizes: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.command}[{self.sizes.get('tag', '')}]"


# -- input writers ---------------------------------------------------------


def write_operator(path: Path, n: int, m: int, A: dict, B: list, frames=None) -> str:
    """Operator JSON as the CLI reads it.  A maps (alpha, beta) -> coefficient;
    B is a list of (m_j, {alpha: coefficient})."""
    spec = {
        "n": n,
        "b": 1,
        "m": m,
        "A": [
            {"alpha": list(alpha), "beta": beta, "re": float(c)}
            for (alpha, beta), c in sorted(A.items())
        ],
        "B": [
            {
                "m_j": m_j,
                "coeffs": [
                    {"alpha": list(alpha), "beta": 0, "re": float(c)}
                    for alpha, c in sorted(coeffs.items())
                ],
            }
            for m_j, coeffs in B
        ],
    }
    if frames is not None:
        spec["frames"] = frames
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


def write_hgrd(path: Path, k: int, n_x: int, n_t: int, samples, v=None, t_nonneg=None) -> str:
    """HGRD binary grid (header, complex64 samples, optional packed masks)."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIIdd", b"HGRD", k, n_x, n_t, TWO_PI, TWO_PI))
        fh.write(np.ascontiguousarray(samples, dtype="<c8").tobytes())
        if v is not None:
            fh.write(np.packbits(v.ravel()).tobytes())
            fh.write(np.packbits(t_nonneg.ravel()).tobytes())
    return str(path)


def _t_axis(n_t: int) -> np.ndarray:
    return -0.5 * TWO_PI + TWO_PI * np.arange(n_t) / n_t


def _unit(v):
    return v / np.linalg.norm(v)


# -- symbols ---------------------------------------------------------------


def _e(n, *axes):
    alpha = [0] * n
    for a in axes:
        alpha[a] += 2
    return tuple(alpha)


def heat(n: int, a_t: float = 1.0) -> dict:
    """a_t p + |xi|**2 (D_k = i d/dx_k, so -Laplacian -> +xi**2)."""
    A = {((0,) * n, 1): a_t}
    for j in range(n):
        A[(_e(n, j), 0)] = 1.0
    return A


def squared_heat(n: int) -> dict:
    """(p + |xi|**2)**2, second order in time."""
    A = {((0,) * n, 2): 1.0}
    for j in range(n):
        A[(_e(n, j), 1)] = 2.0
    for i in range(n):
        for j in range(i, n):
            A[(_e(n, i, j), 0)] = 1.0 if i == j else 2.0
    return A


def _dirichlet(n, c):
    return (0, {(0,) * n: c})


def _normal_derivative(n, c, axis):
    alpha = [0] * n
    alpha[axis] = 1
    return (1, {tuple(alpha): c})


def random_frames(rng, count: int, n: int) -> list:
    """Frames with unit normal, orthogonal tangential frequency, Re p >= 0,
    and |xi_tan|**2 + |p|**2 = 1."""
    frames = []
    for _ in range(count):
        nu = _unit(rng.standard_normal(n))
        xi = rng.standard_normal(n)
        xi -= np.dot(xi, nu) * nu
        p = complex(abs(rng.standard_normal()) + 0.1, rng.standard_normal())
        scale = 1.0 / math.sqrt(float(np.dot(xi, xi)) + abs(p) ** 2)
        frames.append(
            {"nu": nu.tolist(), "xi_tan": (xi * scale).tolist(), "p": [p.real * scale, p.imag * scale]}
        )
    return frames


# -- closed-form expectations ------------------------------------------------


def expected_criterion(exponents) -> str:
    """int_1^inf dr / (r phi**2): the first exponent with 2q != 1 decides."""
    for q in exponents:
        if 2.0 * q != 1.0:
            return "converges" if 2.0 * q > 1.0 else "diverges"
    return "diverges"


def expected_sigma0(m: int, b: int, orders) -> int:
    lower = max([2 * m] + [o + 1 for o in orders])
    return 2 * b * math.ceil(lower / (2 * b))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _finite_pos(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) and v > 0 for v in values)


# -- checks ------------------------------------------------------------------


def check_parabolic(expect_petrovskii: bool, expect_covering):
    """expect_covering is None when the operator has no boundary symbols."""

    def check(rep):
        bad = []
        if rep["petrovskii"]["passed"] is not expect_petrovskii:
            bad.append(f"petrovskii passed={rep['petrovskii']['passed']}")
        if expect_covering is not None and rep["covering"]["passed"] is not expect_covering:
            bad.append(f"covering passed={rep['covering']['passed']}")
        want = expect_petrovskii and expect_covering is not False
        if rep["passed"] is not want:
            bad.append(f"passed={rep['passed']}, expected {want}")
        return bad

    return check


def check_embed(exponents, sharpness: bool, radial: bool = True):
    want = expected_criterion(exponents)

    def check(rep):
        bad = []
        if rep["verdict"] != want:
            bad.append(f"verdict {rep['verdict']}, closed form says {want}")
        partials = rep["partial_integrals"]
        if not all(_finite_pos(v) for v in partials) or partials != sorted(partials):
            bad.append("partial integrals not positive and increasing")
        if radial and not exponents:
            worst = max(row["relerr"] for row in rep["radial_reduction"])
            if not worst <= 1e-3:
                bad.append(f"radial relerr {worst} > 1e-3 at phi = 1")
        if sharpness:
            sh = rep.get("sharpness")
            if sh is None:
                bad.append("sharpness section missing")
            else:
                if not sh["norm_spread"] <= 0.05:
                    bad.append(f"sharpness norm_spread {sh['norm_spread']}")
                if sh["sup_monotone"] is not True:
                    bad.append("sharpness sup not monotone")
        ws = rep["weight_sums"]
        if not _finite_pos(ws["base"], ws["doubled"]):
            bad.append("weight sums not finite and positive")
        return bad

    return check


def check_model(rep):
    bad = []
    if rep["passed"] is not True:
        bad.append("model-verify did not pass")
    if not (_finite_pos(rep["c1_hat"], rep["c2_hat"]) and rep["c1_hat"] <= rep["c2_hat"]):
        bad.append("c1_hat <= c2_hat violated or not finite")
    if not 0.5 < rep["refined"]["spread_change"] < 2.0:
        bad.append("spread change outside (0.5, 2)")
    return bad


def check_plus(oracle=None, lemma51=False, interp=False):
    def check(rep):
        bad = []
        if not _finite_pos(rep["plus_norm"]):
            bad.append("plus_norm not finite and positive")
        elif not _close(rep["plus_norm"], rep["extension_hnorm"], 1e-10):
            bad.append(f"plus_norm {rep['plus_norm']} != extension_hnorm {rep['extension_hnorm']}")
        if oracle is not None:
            want = oracle()
            if not _close(rep["plus_norm"], want, 1e-8):
                bad.append(f"plus_norm {rep['plus_norm']} != oracle {want}")
        if lemma51 and not (
            _finite_pos(rep.get("lemma51_ratio")) and rep["lemma51_ratio"] >= 1.0 - 1e-9
        ):
            bad.append(f"lemma51_ratio {rep.get('lemma51_ratio')} below 1")
        if interp and not _finite_pos(rep["interp_subspace"]["lhs"], rep["interp_subspace"]["rhs"]):
            bad.append("interp_subspace not finite and positive")
        return bad

    return check


def check_norm(rep):
    bad = []
    if not rep["dft_roundtrip_error"] <= 1e-12:
        bad.append(f"dft_roundtrip_error {rep['dft_roundtrip_error']}")
    if not _finite_pos(rep["hnorm"], rep["l2"]):
        bad.append("hnorm or l2 not finite and positive")
    c_low, c_high = rep["embedding_constants"]
    # r >= 1 with equality at the origin: c_low = 1 and c_high = 1 exactly
    if not (_close(c_low, 1.0, 1e-12) and _close(c_high, 1.0, 1e-12)):
        bad.append(f"embedding constants {c_low}, {c_high} differ from 1")
    return bad


def check_lemma71(rep):
    return [] if rep["passed"] is True else ["verify-lemma71 did not pass"]


def check_sigma0(want: int):
    return lambda rep: [] if rep["sigma0"] == want else [f"sigma0 {rep['sigma0']} != {want}"]


# -- the oracle ---------------------------------------------------------------


def _dft_matrix(n: int) -> np.ndarray:
    j = np.arange(n)
    return np.exp(-2j * math.pi * np.outer(j, j) / n) / math.sqrt(n)


def oracle_plus_norm(k, n_x, n_t, samples, v, t_nonneg, s, gamma=0.5) -> float:
    """Least-norm supported extension with phi = 1, by an explicit DFT matrix
    and a dense least-squares solve; shares no code with the program."""
    F = _dft_matrix(n_x)
    for _ in range(k - 1):
        F = np.kron(F, _dft_matrix(n_x))
    F = np.kron(F, _dft_matrix(n_t))
    xi = TWO_PI * np.fft.fftfreq(n_x, d=TWO_PI / n_x)
    eta = TWO_PI * np.fft.fftfreq(n_t, d=TWO_PI / n_t)
    grids = np.meshgrid(*([xi] * k), eta, indexing="ij")
    r2 = 1.0 + sum(g**2 for g in grids[:-1]) + np.abs(grids[-1]) ** (2 * gamma)
    w = (r2 ** (s / 2)).ravel()
    fixed = (v | ~t_nonneg).ravel()
    free = (t_nonneg & ~v).ravel()
    wfix = np.where(fixed, samples.ravel(), 0)
    A = (w[:, None] * F)[:, free]
    c = w * (F @ wfix)
    z, *_ = np.linalg.lstsq(A, -c, rcond=None)
    # periods of 2 pi make the frequency cell volume 1
    return float(np.linalg.norm(A @ z + c))


# -- workloads ------------------------------------------------------------------


def symbol_verdicts(rng, d: Path, z: dict) -> list:
    cases = []

    def coef() -> float:
        return float(rng.uniform(0.5, 2.0))

    # The interior symbols are fixed: the Petrovskii polish's iteration count
    # depends on their coefficients, and the seed should change the inputs,
    # not the amount of work.  Boundary coefficients and frames are seeded.
    # A tangential boundary operator fails covering only where xi_tan = 0 and
    # nu is orthogonal to its direction; random frames almost surely miss
    # that set, so the explicit frame list carries it at a seeded position.
    frames = random_frames(rng, z["frames"] // 4 + 1, 2)
    frames.insert(
        int(rng.integers(0, len(frames) + 1)),
        {"nu": [0.0, float(rng.choice([-1.0, 1.0]))], "xi_tan": [0.0, 0.0], "p": [coef(), 0.0]},
    )
    # (tag, n, m, symbol, boundary symbols, explicit frames, Petrovskii, covering)
    operators = (
        ("heat2-dirichlet", 2, 1, heat(2), [_dirichlet(2, coef())], None, True, True),
        ("heat2-neumann", 2, 1, heat(2), [_normal_derivative(2, coef(), 1)], None, True, True),
        ("heat3-dirichlet", 3, 1, heat(3), [_dirichlet(3, coef())], None, True, True),
        ("backward-heat2", 2, 1, heat(2, a_t=-1.0), [], None, False, None),
        ("heat2-tangential", 2, 1, heat(2), [_normal_derivative(2, coef(), 0)], frames, True, False),
        ("sqheat2-dir-neu", 2, 2, squared_heat(2),
         [_dirichlet(2, coef()), _normal_derivative(2, coef(), 1)], None, True, True),
    )
    for tag, n, m, A, B, explicit, petrovskii, covering in operators:
        path = write_operator(d / f"{tag}.json", n, m, A, B, explicit)
        n_frames = 0 if not B else len(explicit) if explicit else z["frames"]
        cases.append(
            Case(
                "check-parabolic",
                ["check-parabolic", path, "--samples", str(z["samples"]), "--frames", str(z["frames"]),
                 "--seed", str(int(rng.integers(0, 2**31)))],
                0 if petrovskii and covering is not False else 1,
                check_parabolic(petrovskii, covering),
                {"tag": tag, "n": n, "samples": z["samples"], "frames": n_frames},
            )
        )

    # n = 2 cases diverge (one at phi = 1, where the radial reduction is
    # exact up to quadrature) and run the sharpness demo; n = 3 cases converge.
    # The exponent lists that start at the borderline 1/2 are decided by their
    # second exponent.
    diverging = [[], [0.5, float(rng.uniform(0.1, 0.45))]]
    rng.shuffle(diverging)
    converging = [[float(rng.uniform(0.55, 1.5))], [0.5, float(rng.uniform(0.55, 1.5))]]
    rng.shuffle(converging)
    for (n, p), expo in zip(((2, 0), (2, 1), (3, 0), (3, 1)), diverging + converging):
        phi = json.dumps({"kind": "log_power", "exponents": expo}) if expo else "1"
        sharp = n == 2
        argv = ["embed-check", "--phi", phi, "--p", str(p), "--n", str(n), "--radial", "--weight-sum"]
        if sharp:
            argv.append("--sharpness")
        cases.append(
            Case("embed-check", argv, 0 if expected_criterion(expo) == "converges" else 1,
                 check_embed(expo, sharp), {"tag": f"n{n}p{p}", "n": n, "p": p, "exponents": expo})
        )

    m = int(rng.integers(1, 4))
    orders = sorted(int(o) for o in rng.integers(0, 2 * m + 2, size=m))
    cases.append(
        Case("sigma0", ["sigma0", "--m", str(m), "--b", "1", "--orders", *map(str, orders)], 0,
             check_sigma0(expected_sigma0(m, 1, orders)), {"tag": "sigma0"})
    )
    return cases


def model_estimates(rng, d: Path, z: dict) -> list:
    path = write_operator(d / "heat2.json", 2, 1, heat(2), [_dirichlet(2, 1.0)])
    n_x, _, n_t = (int(v) for v in z["model_lattice"].split("x"))
    cases = []
    for tag, phi in (("phi1", "1"), ("logpower1", '{"kind":"log_power","exponents":[1.0]}')):
        argv = ["model-verify", path, "--sigma", "4", "--phi", phi, "--ensemble", str(z["ensemble"]),
                "--lattice", z["model_lattice"], "--refine", "1", "--levels", str(z["levels"]),
                "--seed", str(int(rng.integers(0, 2**31)))]
        cases.append(
            Case("model-verify", argv, 0, check_model,
                 {"tag": tag, "N": n_x * n_x * n_t, "modes": n_x * n_x, "ensemble": z["ensemble"]})
        )
    return cases


def _scattered_region(rng, k, n_x, n_t, share=0.3):
    shape = (n_x,) * k + (n_t,)
    t_nonneg = np.broadcast_to(_t_axis(n_t) >= 0.0, shape).copy()
    v = t_nonneg & (rng.random(shape) < share)
    return v, t_nonneg


def _complex64(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(np.complex64)


def lattice_norms(rng, d: Path, z: dict) -> list:
    cases = []
    for tag, (k, n_x, n_t), with_oracle in (("dense", z["dense"], False), ("dense-oracle", z["dense_oracle"], True)):
        v, tn = _scattered_region(rng, k, n_x, n_t)
        samples = np.where(v, _complex64(rng, v.shape), 0).astype(np.complex64)
        path = write_hgrd(d / f"{tag}.hgrd", k, n_x, n_t, samples, v, tn)
        # computed on the first check, outside any timed region, then reused
        oracle = functools.cache(functools.partial(
            oracle_plus_norm, k, n_x, n_t, samples.astype(complex), v, tn, DENSE_S)) if with_oracle else None
        cases.append(
            Case("plus-norm", ["plus-norm", path, "--s", str(DENSE_S), "--gamma", "0.5"], 0,
                 check_plus(oracle=oracle),
                 {"tag": tag, "N": v.size, "n_free": int(np.count_nonzero(tn & ~v))})
        )

    k, n_x, n_t = z["slab"]
    shape = (n_x,) * k + (n_t,)
    t = _t_axis(n_t)
    t1 = float(rng.uniform(0.6, 1.2))
    v = np.broadcast_to((t > 0.0) & (t < t1), shape).copy()
    tn = np.broadcast_to(t >= 0.0, shape).copy()
    path = write_hgrd(d / "slab.hgrd", k, n_x, n_t, _complex64(rng, shape), v, tn)
    cases.append(
        Case("plus-norm",
             ["plus-norm", path, "--s", str(SLAB_S), "--gamma", "0.5", "--lemma51", "--interp", "0", str(SLAB_S), "3"],
             0, check_plus(lemma51=True, interp=True),
             {"tag": "slab-lemma51", "N": v.size, "modes": n_x**k, "n_free": int(np.count_nonzero(tn & ~v))})
    )

    for k, n_x, n_t in z["norm_grids"]:
        shape = (n_x,) * k + (n_t,)
        path = write_hgrd(d / f"norm{k}_{n_x}_{n_t}.hgrd", k, n_x, n_t, _complex64(rng, shape))
        q = float(rng.uniform(0.5, 1.5))
        cases.append(
            Case("norm",
                 ["norm", path, "--s", f"{rng.uniform(0.5, 2.5):.3f}", "--gamma", "0.5",
                  "--phi", json.dumps({"kind": "log_power", "exponents": [q]}), "--embed-window", "0", "3"],
                 0, check_norm, {"tag": f"{k}d-{n_x}x{n_t}", "N": int(np.prod(shape))})
        )

    lat = z["lemma71_lattice"]
    n_x, _, n_t = (int(v) for v in lat.split("x"))
    cases.append(
        Case("verify-lemma71",
             ["verify-lemma71", "--s0", "0", "--s", f"{rng.uniform(0.5, 1.5):.3f}", "--s1", "2",
              "--phi", json.dumps({"kind": "log_power", "exponents": [float(rng.uniform(0.5, 1.5))]}),
              "--lattice", lat, "--trials", str(z["lemma71_trials"]), "--seed", str(int(rng.integers(0, 2**31)))],
             0, check_lemma71, {"tag": lat, "N": n_x * n_x * n_t, "trials": z["lemma71_trials"]})
    )
    return cases


_BUILDERS = {
    "symbol_verdicts": symbol_verdicts,
    "model_estimates": model_estimates,
    "lattice_norms": lattice_norms,
}


def build(workload: str, seed: int, directory: Path, scale: str = "full") -> list:
    """Write the workload's input files into ``directory`` and return its cases."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, directory, SIZES[scale])


def warmups(workload: str, seed: int, directory: Path) -> list:
    """One cheap invocation per command of the workload, on tiny inputs, so
    first-call work lands in set-up rather than in the first timed case."""
    first = {}
    for case in build(workload, seed, directory, scale="tiny"):
        first.setdefault(case.command, case)
    if "embed-check" in first:
        # the radial and sharpness sections cost the same at any scale
        first["embed-check"] = Case(
            "embed-check", ["embed-check", "--phi", "1", "--weight-sum"], 1,
            check_embed([], sharpness=False, radial=False), {"tag": "warm-up"})
    return list(first.values())

"""Petrovskii parabolicity and boundary covering checks for principal symbols.

Symbols are constant-coefficient principal parts stored as maps from
(multi-index alpha, time order beta) to complex coefficients, with the
homogeneity |alpha| + 2 b beta fixed (2m for the interior symbol, m_j for
a boundary symbol).  Petrovskii parabolicity is decided by the root
margin: every root p of A(omega, .) must have Re p < 0 on the unit sphere
|omega| = 1, checked exactly at k = 1 and by a scan plus a gradient polish
at k >= 2.  The covering condition is a rank test at sampled boundary
frames, each moved along its quasi-homogeneous orbit to |xi_tan|**2 + |p|**2
= 1, of zeta-polynomials interpolated at roots of unity.  Both checks use
one evaluator (powers as running products) and one companion root finder,
and refuse, before evaluating, any scan or batch of frames whose power
arrays would pass 2**26 elements; a frame of another dimension is refused.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    CoveringPreconditionError,
    DegenerateFrameError,
    StructuralSymbolError,
)

__all__ = [
    "PrincipalSymbol",
    "BoundarySymbol",
    "BoundaryFrame",
    "PetrovskiiVerdict",
    "CoveringVerdict",
    "symbol_eval",
    "petrovskii_check",
    "zeta_polynomial",
    "root_split",
    "plus_polynomial",
    "covering_check",
    "sigma0",
    "random_frames",
]

_NEAR_REAL_REL = 1e-9
_CLUSTER_REL = 1e-7
_DELTA_MIN = 1e-9
_COVER_TOL = 1e-8
# the most sphere points or random frames, and of elements in one power array
_MAX_SAMPLES = 2**20
_MAX_SCAN_ELEMENTS = 2**26


def _norm_coeffs(coeffs, n: int, b: int, degree: int, what: str):
    out = {}
    for key, val in coeffs.items():
        alpha, beta = key
        alpha = tuple(int(a) for a in alpha)
        beta = int(beta)
        if len(alpha) != n or any(a < 0 for a in alpha) or beta < 0:
            raise StructuralSymbolError(f"{what}: bad index {key}")
        if sum(alpha) + 2 * b * beta != degree:
            raise StructuralSymbolError(
                f"{what}: index {key} has |alpha| + 2b beta = "
                f"{sum(alpha) + 2 * b * beta}, expected {degree}"
            )
        c = complex(val)
        if not cmath.isfinite(c):
            raise StructuralSymbolError(f"{what}: coefficient at {key} is not finite")
        if c != 0:
            out[(alpha, beta)] = c
    return out


@dataclass(frozen=True)
class PrincipalSymbol:
    """Principal part of an interior operator: sum over |alpha| + 2b beta = 2m."""

    n: int
    b: int
    m: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("spatial dimension must be >= 1")
        if not (self.m >= self.b >= 1):
            raise ValueError("need m >= b >= 1")
        if self.m % self.b != 0:
            raise ValueError("m/b must be an integer")
        object.__setattr__(
            self, "coeffs", _norm_coeffs(self.coeffs, self.n, self.b, 2 * self.m, "A")
        )

    @property
    def kappa(self) -> int:
        return self.m // self.b

    def validate_structure(self) -> None:
        """The coefficient of p**kappa at alpha = 0 must be nonzero."""
        key = ((0,) * self.n, self.kappa)
        if key not in self.coeffs or self.coeffs[key] == 0:
            raise StructuralSymbolError(
                "coefficient of p**kappa at alpha = 0 vanishes; the symbol "
                "cannot satisfy the parabolicity condition at xi = 0, p = 1"
            )


@dataclass(frozen=True)
class BoundarySymbol:
    """Principal part of a boundary operator of order m_j."""

    n: int
    b: int
    m_j: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.m_j < 0:
            raise ValueError("boundary order must be >= 0")
        object.__setattr__(
            self, "coeffs", _norm_coeffs(self.coeffs, self.n, self.b, self.m_j, "B")
        )


@dataclass(frozen=True)
class BoundaryFrame:
    """Inward normal nu, tangential frequency xi_tan _|_ nu, and Re p >= 0."""

    nu: np.ndarray
    xi_tan: np.ndarray
    p: complex

    def __post_init__(self):
        nu = np.asarray(self.nu, dtype=float)
        xi = np.asarray(self.xi_tan, dtype=float)
        if nu.shape != xi.shape or nu.ndim != 1:
            raise ValueError("nu and xi_tan must be 1-D vectors of equal length")
        # a nan would pass every comparison below
        for name, value in (("nu", nu), ("xi_tan", xi), ("p", complex(self.p))):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"frame {name} must be finite, got {value}")
        # hypot, not a sum of squares, which overflows past a length of 1.3e154
        if abs(math.hypot(*nu) - 1.0) > 1e-9:
            raise ValueError("nu must be a unit vector")
        scale = 1.0 + math.hypot(*xi)
        if abs(float(np.dot(nu, xi))) > 1e-9 * scale:
            raise ValueError("xi_tan must be orthogonal to nu")
        if complex(self.p).real < -1e-12:
            raise ValueError("Re p must be >= 0")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "xi_tan", xi)
        object.__setattr__(self, "p", complex(self.p))


def _coeff_table(symbol) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The symbol as exponent matrix E (K, n), time orders beta (K), coeffs c (K)."""
    keys = list(symbol.coeffs)
    E = np.array([alpha for alpha, _ in keys], dtype=int).reshape(len(keys), symbol.n)
    beta = np.array([b for _, b in keys], dtype=int)
    c = np.array([symbol.coeffs[k] for k in keys], dtype=complex)
    return E, beta, c


def _powers(x: np.ndarray, top: int) -> np.ndarray:
    """x**0, x**1, ..., x**top along a new last axis, as running products."""
    out = np.ones(x.shape + (top + 1,), dtype=x.dtype)
    for e in range(1, top + 1):
        out[..., e] = out[..., e - 1] * x
    return out


def _evaluate(table, xi: np.ndarray, p: np.ndarray, *, grad: bool = False):
    """A at N points from a coefficient table; xi is (N, n), p is (N,).

    Powers are running products (x**3 is (x * x) * x), the same for real and
    complex points.  With grad, also returns dA with respect to the real
    coordinates (xi_1, ..., xi_n, Re p, Im p) as an (N, n + 2) complex
    array; A is holomorphic in p, so dA/d(Im p) = i dA/dp.
    """
    E, beta, c = table
    axes = np.arange(E.shape[1])
    xi_pw = _powers(xi, int(E.max(initial=0)))  # (N, n, max E + 1)
    p_pw = _powers(p, int(beta.max(initial=0)))  # (N, max beta + 1)
    xi_pow = xi_pw[:, axes, E]  # (N, K, n)
    coeff_p = c * p_pw[:, beta]  # (N, K)
    xi_mono = xi_pow.prod(axis=2)
    value = (coeff_p * xi_mono).sum(axis=1)
    if not grad:
        return value
    # column j of d_mono: each monomial with its j-th factor differentiated
    d_pow = E * xi_pw[:, axes, np.maximum(E - 1, 0)]
    d_mono = np.where(axes[:, None] == axes, d_pow[..., None], xi_pow[:, :, None, :]).prod(axis=3)
    d_xi = (coeff_p[..., None] * d_mono).sum(axis=1)
    d_p = (c * beta * p_pw[:, np.maximum(beta - 1, 0)] * xi_mono).sum(axis=1)[:, None]
    return value, np.concatenate([d_xi, d_p, 1j * d_p], axis=1)


def symbol_eval(symbol, xi, p: complex) -> complex:
    """Sum of coeff * xi**alpha * p**beta over the symbol's index set."""
    xi = np.asarray(xi, dtype=complex).reshape(1, -1)
    return complex(_evaluate(_coeff_table(symbol), xi, np.array([complex(p)]))[0])


def _kronecker_sphere(n_samples: int, dim: int) -> np.ndarray:
    """Deterministic low-discrepancy points on the unit sphere in R**dim."""
    from scipy.special import ndtri

    # additive recurrence driven by the generalized golden ratio
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alphas = np.array([math.modf(phi ** -(i + 1))[0] for i in range(dim)])
    idx = np.arange(1, n_samples + 1)[:, None]
    u = np.mod(0.5 + idx * alphas[None, :], 1.0)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    g = ndtri(u)
    norms = np.linalg.norm(g, axis=1)
    norms[norms < 1e-12] = 1.0
    return g / norms[:, None]


@dataclass(frozen=True)
class PetrovskiiVerdict:
    passed: bool
    root_margin: float
    witness_omega: np.ndarray
    witness_root: complex
    n_evaluated: int

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "root_margin": self.root_margin,
            "witness_omega": [float(v) for v in self.witness_omega],
            "witness_root": {"re": self.witness_root.real, "im": self.witness_root.imag},
            "n_evaluated": self.n_evaluated,
        }


def _time_coeffs(slices, omega: np.ndarray) -> np.ndarray:
    """a_beta(omega) for A(omega, p) = sum_beta a_beta(omega) p**beta, as (N, kappa + 1)."""
    return np.stack([_evaluate(s, omega, np.ones(len(omega))) for s in slices], axis=1)


def _roots(a: np.ndarray) -> np.ndarray:
    """Roots of each row of ascending coefficients a (N, d + 1), by companion matrix."""
    d = a.shape[1] - 1
    if d == 1:
        return 0.0 - a[:, :1] / a[:, 1:]  # a zero root reads 0, not -0
    comp = np.zeros((len(a), d, d), dtype=complex)
    comp[:, 1:, :-1] = np.eye(d - 1)
    comp[:, :, -1] = -a[:, :d] / a[:, d:]
    return np.linalg.eigvals(comp)


def petrovskii_check(A: PrincipalSymbol, n_samples: int) -> PetrovskiiVerdict:
    """The root margin delta = -max Re p over the roots p of A(omega, .), |omega| = 1.

    By quasi-homogeneity every root of A(xi, .) then has Re p <= -delta
    |xi|**(2b).  At k = 1 both points omega = +-1 are evaluated exactly.  At
    k >= 2 the axis points +-e_j and n_samples Kronecker points are scanned,
    and the four best starts with a simple top root are polished by L-BFGS-B
    on -Re p(v / |v|) / (largest scanned |root|), with the gradient
    dp/domega = -dA/domega / dA/dp.  The witness's roots are clustered, so a
    multiple root reads to rounding.  Passes iff delta > 1e-9 * (largest
    |root| at the witness), which no constant factor of A changes.  More
    than 2**20 points, or n_samples * k * max(terms of A, 2m + 1) above 2**26
    elements of the scan's power arrays, is refused before any point is built.
    """
    if not 1 <= n_samples <= _MAX_SAMPLES:
        raise ValueError(f"n_samples must be in [1, {_MAX_SAMPLES}], got {n_samples}")
    # the scan gathers k * max(terms, 2m + 1) powers a point
    elements = n_samples * A.n * max(len(A.coeffs), 2 * A.m + 1)
    if elements > _MAX_SCAN_ELEMENTS:
        raise ValueError(
            f"n_samples * k * max(terms, 2m + 1) = {elements} exceeds {_MAX_SCAN_ELEMENTS}"
        )
    A.validate_structure()
    n = A.n
    E, beta, c = table = _coeff_table(A)
    slices = [(E[beta == j], beta[beta == j], c[beta == j]) for j in range(A.kappa + 1)]

    axes = np.vstack([np.eye(n), -np.eye(n)])  # at k = 1, the whole sphere
    pts = np.vstack([axes, _kronecker_sphere(n_samples, n)]) if n > 1 else axes
    roots = _roots(_time_coeffs(slices, pts))
    top = roots.real.max(axis=1)
    best_val, best_pt = float(top.max()), pts[np.argmax(top)]

    if n > 1:
        from scipy.optimize import minimize

        size = float(np.max(np.abs(roots))) or 1.0

        def top_root(w: np.ndarray) -> complex:
            r = _roots(_time_coeffs(slices, w[None]))[0]
            return complex(r[np.argmax(r.real)])

        def objective(v: np.ndarray) -> tuple[float, np.ndarray]:
            nv = float(np.linalg.norm(v))
            w = v / nv
            p = top_root(w)
            _, dA = _evaluate(table, w[None], np.array([p]), grad=True)
            g = (dA[0, :n] / dA[0, n]).real / size  # -d(Re p)/dw / size
            # chain rule through w = v / |v|: project onto the tangent space
            return -p.real / size, (g - np.dot(g, w) * w) / nv

        for start in np.argsort(-top)[:4]:
            r = _cluster_roots(roots[start])
            if np.count_nonzero(r == r[np.argmax(r.real)]) > 1:
                continue  # a multiple top root has no derivative; the scan value stands
            opts = {"ftol": 0.0, "gtol": 1e-15, "maxiter": 200}
            res = minimize(objective, pts[start], jac=True, method="L-BFGS-B", options=opts)
            w = res.x / np.linalg.norm(res.x)
            val = top_root(w).real
            if val > best_val:
                best_val, best_pt = val, w

    r = _cluster_roots(_roots(_time_coeffs(slices, best_pt[None]))[0])
    root = complex(r[np.argmax(r.real)])
    margin = 0.0 - root.real  # not -root.real, which reads -0.0 at a zero root
    return PetrovskiiVerdict(
        passed=bool(margin > _DELTA_MIN * float(np.max(np.abs(r)))),
        root_margin=margin,
        witness_omega=best_pt.copy(),
        witness_root=root,
        n_evaluated=len(pts),
    )


def zeta_polynomial(symbol, frames, rho=None) -> np.ndarray:
    """symbol(xi_tan + zeta nu, p) per frame: ascending coefficients, degree d = 2m
    or m_j in zeta, from one evaluation at the d + 1 roots of unity and one DFT
    per row.  With rho, each frame is first moved to (xi_tan / rho, p / rho**(2b)).
    A frame whose nu is not of length n is refused."""
    for i, frame in enumerate(frames):
        if frame.nu.shape != (symbol.n,):
            raise ValueError(f"frame {i}: nu has length {frame.nu.size}, not n = {symbol.n}")
    d = symbol.m_j if isinstance(symbol, BoundarySymbol) else 2 * symbol.m
    rho = np.ones(len(frames)) if rho is None else rho
    w = np.exp(2j * np.pi * np.arange(d + 1) / (d + 1))
    nu = np.array([f.nu for f in frames])[:, None]
    xi = np.array([f.xi_tan for f in frames])[:, None] / rho[:, None, None]
    # p as (re, im) pairs divided by one factor rho at a time: rho**(2b) may leave
    # the float range, and numpy's complex quotient by a subnormal rho overflows
    p = np.array([(f.p.real, f.p.imag) for f in frames])
    for _ in range(2 * symbol.b):
        p = p / rho[:, None]
    pts = (xi + w[:, None] * nu).reshape(-1, symbol.n)
    values = _evaluate(_coeff_table(symbol), pts, np.repeat(p.view(complex)[:, 0], d + 1))
    return np.fft.fft(values.reshape(len(frames), d + 1), axis=1) / (d + 1)


def _cluster_roots(roots: np.ndarray) -> np.ndarray:
    """Merge eigenvalue clusters into centroids to stabilize multiple roots."""
    clusters: list[list[complex]] = []
    for z in roots[np.lexsort((roots.imag, roots.real))]:
        for cl in clusters:
            center = sum(cl) / len(cl)
            if abs(z - center) <= _CLUSTER_REL * (1.0 + abs(center)):
                cl.append(z)
                break
        else:
            clusters.append([z])
    return np.asarray([sum(cl) / len(cl) for cl in clusters for _ in cl])


def root_split(poly) -> tuple[list[complex], list[complex]]:
    """Roots of the ascending-coefficient polynomial, split by sign of Im.

    Raises DegenerateFrameError on roots too close to the real axis and
    CoveringPreconditionError when the halves are unbalanced.
    """
    c = np.asarray(poly, dtype=complex)
    if c.size < 2:
        raise ValueError("polynomial must have degree >= 1")
    if c[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    roots = _cluster_roots(_roots(c[None])[0])
    near_real = np.abs(roots.imag) < _NEAR_REAL_REL * (1.0 + np.abs(roots))
    if np.any(near_real):
        bad = roots[near_real][0]
        raise DegenerateFrameError(
            f"root {bad} is too close to the real axis; the frame is degenerate"
        )
    plus = [complex(z) for z in roots[roots.imag > 0]]
    minus = [complex(z) for z in roots[roots.imag < 0]]
    if len(plus) != len(minus):
        raise CoveringPreconditionError(
            f"unbalanced root split: {len(plus)} upper vs {len(minus)} lower"
        )
    return plus, minus


def plus_polynomial(roots_plus) -> np.ndarray:
    """Monic polynomial (ascending coefficients) with the given roots."""
    roots = list(roots_plus)
    if not roots:
        raise ValueError("need at least one root")
    return npoly.polyfromroots(roots).astype(complex)


@dataclass(frozen=True)
class CoveringVerdict:
    passed: bool
    min_singular: float  # smallest singular value normalized by matrix max
    frame_index: int
    frame: BoundaryFrame
    raw_singular: float

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "min_singular_normalized": self.min_singular,
            "worst_frame_index": self.frame_index,
            "worst_frame": {
                "nu": [float(v) for v in self.frame.nu],
                "xi_tan": [float(v) for v in self.frame.xi_tan],
                "p": {"re": self.frame.p.real, "im": self.frame.p.imag},
            },
            "raw_singular": self.raw_singular,
        }


def covering_check(
    A: PrincipalSymbol,
    Bs: list[BoundarySymbol],
    frames: list[BoundaryFrame],
    *,
    tol: float = _COVER_TOL,
) -> CoveringVerdict:
    """Rank test of the boundary symbols modulo the plus-factor of A.

    Each frame is moved along its orbit (c xi_tan, c**(2b) p), c > 0, which
    keeps the condition, to |xi_tan|**2 + |p|**2 = 1.  There the boundary
    polynomials are reduced modulo the monic product over roots with Im > 0;
    the check passes iff the m x m matrix of remainders has smallest singular
    value above tol times its largest entry at every frame (reported as
    given).  Refused: a negative or non-finite tol (a vacuous test), a B
    whose n or b is not A's, a nu not of length n, and frames * (d + 1) * n *
    max(terms, d + 1) above 2**26 elements for A (d = 2m) or any B (d = m_j).
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    m = A.m
    if len(Bs) != m:
        raise ValueError(f"need exactly m = {m} boundary symbols, got {len(Bs)}")
    for j, B in enumerate(Bs):
        if (B.n, B.b) != (A.n, A.b):
            raise ValueError(f"boundary symbol {j}: n = {B.n}, b = {B.b}, not A's {A.n}, {A.b}")
    if not frames:
        raise ValueError("need at least one frame")
    # each of the frames * (d + 1) points gathers n * max(terms, d + 1) powers
    degrees = [(A, 2 * m)] + [(B, B.m_j) for B in Bs]
    per_frame = max((d + 1) * max(len(S.coeffs), d + 1) for S, d in degrees)
    if len(frames) * per_frame * A.n > _MAX_SCAN_ELEMENTS:
        raise ValueError(
            f"frames * (d + 1) * n * max(terms, d + 1) exceeds {_MAX_SCAN_ELEMENTS}"
        )
    # rho for (x / rho)**2 + (y / rho)**(4b) = 1, x = |xi_tan|, y = |p|**(1/(2b));
    # with mu = max(x, y), lest anything overflow, (rho / mu)**2 is the positive root, also
    # the root of largest real part, of t**(2b) - (x / mu)**2 t**(2b - 1) - (y / mu)**(4b)
    x = np.array([math.hypot(*f.xi_tan) for f in frames])
    y = np.array([abs(f.p) for f in frames]) ** (0.5 / A.b)
    mu = np.maximum(x, y)
    mu[mu == 0.0] = 1.0  # a frame at the origin keeps rho = 0 and is refused below
    orbit = np.zeros((len(frames), 2 * A.b + 1))
    orbit[:, 0], orbit[:, -2], orbit[:, -1] = -((y / mu) ** (4 * A.b)), -((x / mu) ** 2), 1.0
    rho = mu * np.sqrt(_roots(orbit).real.max(axis=1))
    moved = np.where(rho > 0.0, rho, 1.0)
    polys, *bpolys = (zeta_polynomial(S, frames, moved) for S in [A, *Bs])
    worst = None
    for i, (frame, poly) in enumerate(zip(frames, polys)):
        if rho[i] == 0.0:
            raise ValueError(f"frame {i}: |xi_tan| + |p| must be nonzero")
        scale = float(np.max(np.abs(poly)))
        if scale == 0.0 or abs(poly[-1]) < 1e-12 * scale:
            raise DegenerateFrameError(
                f"frame {i}: leading zeta coefficient is (near) zero"
            )
        # 2m roots (the leading coefficient is nonzero), split m / m or refused
        plus, _ = root_split(poly)
        pp = plus_polynomial(plus)
        mat = np.zeros((m, m), dtype=complex)
        for j, bpoly in enumerate(bpolys):
            _, rem = npoly.polydiv(bpoly[i], pp)
            rem = np.atleast_1d(rem)
            mat[j, : min(m, rem.size)] = rem[:m]
        max_mag = float(np.max(np.abs(mat)))
        if max_mag == 0.0:
            return CoveringVerdict(False, 0.0, i, frame, 0.0)
        smin = float(np.linalg.svd(mat, compute_uv=False)[-1])
        normalized = smin / max_mag
        if not smin > tol * max_mag:
            return CoveringVerdict(False, normalized, i, frame, smin)
        if worst is None or normalized < worst[0]:
            worst = (normalized, i, frame, smin)
    return CoveringVerdict(True, worst[0], worst[1], worst[2], worst[3])


def sigma0(m: int, b: int, m_orders) -> int:
    """Smallest integer >= 2m and >= m_j + 1 for all j that 2b divides."""
    if not (m >= b >= 1):
        raise ValueError("need m >= b >= 1")
    if m % b != 0:
        raise ValueError("m/b must be an integer")
    orders = list(m_orders)
    if any(o < 0 for o in orders):
        raise ValueError("boundary orders must be nonnegative")
    lower = max([2 * m] + [o + 1 for o in orders])
    step = 2 * b
    return step * math.ceil(lower / step)


def random_frames(n_frames: int, dim: int, seed: int) -> list[BoundaryFrame]:
    """Seeded random frames with unit normal and |xi_tan|**2 + |p|**2 = 1;
    more than 2**20 frames is refused."""
    if n_frames > _MAX_SAMPLES:
        raise ValueError(f"n_frames must be at most {_MAX_SAMPLES}, got {n_frames}")
    rng = np.random.default_rng(seed)
    frames = []
    while len(frames) < n_frames:
        nu = rng.standard_normal(dim)
        nn = np.linalg.norm(nu)
        if nn < 1e-6:
            continue
        nu /= nn
        xi = rng.standard_normal(dim)
        xi -= np.dot(xi, nu) * nu
        p = complex(abs(rng.standard_normal()), rng.standard_normal())
        mag = math.hypot(float(np.linalg.norm(xi)), abs(p))
        if mag < 1e-9:
            continue
        scale = 1.0 / math.sqrt(float(np.dot(xi, xi)) + abs(p) ** 2)
        xi = xi * scale
        p = p * scale
        frames.append(BoundaryFrame(nu=nu, xi_tan=xi, p=p))
    return frames

"""Petrovskii parabolicity and boundary covering checks for principal symbols.

Symbols are constant-coefficient principal parts stored as maps from
(multi-index alpha, time order beta) to complex coefficients, with the
homogeneity |alpha| + 2 b beta fixed (2m for the interior symbol, m_j for
a boundary symbol).  Petrovskii parabolicity is decided by the root
margin: every root p of A(omega, .) must have Re p < 0 on the unit sphere
|omega| = 1, checked exactly at k = 1 and by a scan plus a gradient polish
at k >= 2, from one evaluator over the symbol's coefficient table.  The
covering condition is a rank test at sampled boundary frames, on the
zeta-polynomials that `_zeta_poly_from_coeffs` expands term by term.
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
# the most sphere points petrovskii_check scans, and the most elements of the
# (points, terms, k) power array its scan builds
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
        if abs(np.linalg.norm(nu) - 1.0) > 1e-9:
            raise ValueError("nu must be a unit vector")
        scale = 1.0 + float(np.linalg.norm(xi))
        if abs(float(np.dot(nu, xi))) > 1e-9 * scale:
            raise ValueError("xi_tan must be orthogonal to nu")
        if complex(self.p).real < -1e-12:
            raise ValueError("Re p must be >= 0")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "xi_tan", xi)
        object.__setattr__(self, "p", complex(self.p))

    def magnitude(self) -> float:
        return float(np.linalg.norm(self.xi_tan)) + abs(self.p)


def _coeff_table(symbol) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The symbol as exponent matrix E (K, n), time orders beta (K), coeffs c (K)."""
    keys = list(symbol.coeffs)
    E = np.array([alpha for alpha, _ in keys], dtype=int).reshape(len(keys), symbol.n)
    beta = np.array([b for _, b in keys], dtype=int)
    c = np.array([symbol.coeffs[k] for k in keys], dtype=complex)
    return E, beta, c


def _evaluate(table, xi: np.ndarray, p: np.ndarray, *, grad: bool = False):
    """A at N points from a coefficient table; xi is (N, n), p is (N,).

    With grad, also returns dA with respect to the real coordinates
    (xi_1, ..., xi_n, Re p, Im p) as an (N, n + 2) complex array; A is
    holomorphic in p, so dA/d(Im p) = i dA/dp.
    """
    E, beta, c = table
    xi_pow = xi[:, None, :] ** E  # (N, K, n)
    coeff_p = c * p[:, None] ** beta  # (N, K)
    xi_mono = xi_pow.prod(axis=2)
    value = (coeff_p * xi_mono).sum(axis=1)
    if not grad:
        return value
    cols = []
    for j in range(E.shape[1]):
        others = np.delete(xi_pow, j, axis=2).prod(axis=2)
        d_xi = E[:, j] * xi[:, None, j] ** np.maximum(E[:, j] - 1, 0)
        cols.append((coeff_p * others * d_xi).sum(axis=1))
    d_p = (c * beta * p[:, None] ** np.maximum(beta - 1, 0) * xi_mono).sum(axis=1)
    cols += [d_p, 1j * d_p]
    return value, np.stack(cols, axis=1)


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
    """Roots in p of each row of ascending coefficients a (N, kappa + 1)."""
    kappa = a.shape[1] - 1
    if kappa == 1:
        return -a[:, :1] / a[:, 1:]
    comp = np.zeros((len(a), kappa, kappa), dtype=complex)
    comp[:, 1:, :-1] = np.eye(kappa - 1)
    comp[:, :, -1] = -a[:, :kappa] / a[:, kappa:]
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
    than 2**20 points, or n_samples * (terms of A) * k above 2**26 elements
    of the scan's power array, is refused before any point is built.
    """
    if not 1 <= n_samples <= _MAX_SAMPLES:
        raise ValueError(f"n_samples must be in [1, {_MAX_SAMPLES}], got {n_samples}")
    elements = n_samples * len(A.coeffs) * A.n
    if elements > _MAX_SCAN_ELEMENTS:
        raise ValueError(f"n_samples * terms * k = {elements} exceeds {_MAX_SCAN_ELEMENTS}")
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

    a = _time_coeffs(slices, best_pt[None])[0]
    r = _cluster_roots(np.roots(a[::-1]))
    root = complex(r[np.argmax(r.real)])
    margin = 0.0 - root.real  # not -root.real, which reads -0.0 at a zero root
    return PetrovskiiVerdict(
        passed=bool(margin > _DELTA_MIN * float(np.max(np.abs(r)))),
        root_margin=margin,
        witness_omega=best_pt.copy(),
        witness_root=root,
        n_evaluated=len(pts),
    )


def _zeta_poly_from_coeffs(coeffs, frame: BoundaryFrame, degree: int) -> np.ndarray:
    """Ascending coefficients of zeta -> symbol(xi_tan + zeta nu, p)."""
    out = np.zeros(degree + 1, dtype=complex)
    xi = frame.xi_tan
    nu = frame.nu
    for (alpha, beta), c in coeffs.items():
        term = np.array([complex(c)])
        for a, (x, v) in zip(alpha, zip(xi, nu)):
            for _ in range(a):
                term = npoly.polymul(term, np.array([x, v], dtype=complex))
        if beta:
            term = term * frame.p**beta
        out[: len(term)] += term
    return out


def zeta_polynomial(A: PrincipalSymbol, frame: BoundaryFrame) -> np.ndarray:
    """A(xi_tan + zeta nu, p) as ascending coefficients in zeta (degree 2m)."""
    return _zeta_poly_from_coeffs(A.coeffs, frame, 2 * A.m)


def _cluster_roots(roots: np.ndarray) -> np.ndarray:
    """Merge eigenvalue clusters into centroids to stabilize multiple roots."""
    if roots.size <= 1:
        return roots
    order = np.lexsort((roots.imag, roots.real))
    roots = roots[order]
    clusters: list[list[complex]] = []
    for z in roots:
        placed = False
        for cl in clusters:
            center = sum(cl) / len(cl)
            if abs(z - center) <= _CLUSTER_REL * (1.0 + abs(center)):
                cl.append(z)
                placed = True
                break
        if not placed:
            clusters.append([z])
    merged = []
    for cl in clusters:
        center = sum(cl) / len(cl)
        merged.extend([center] * len(cl))
    return np.asarray(merged)


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
    roots = np.roots(c[::-1])
    roots = _cluster_roots(roots)
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

    For each frame the boundary polynomials are reduced modulo the monic
    product over roots with positive imaginary part; the check passes iff
    the m x m matrix of remainder coefficients has smallest singular value
    above tol times its largest entry magnitude at every frame.  A negative
    or non-finite tol would make the test vacuous and is refused.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    m = A.m
    if len(Bs) != m:
        raise ValueError(f"need exactly m = {m} boundary symbols, got {len(Bs)}")
    if not frames:
        raise ValueError("need at least one frame")
    worst = None
    for i, frame in enumerate(frames):
        if frame.magnitude() == 0.0:
            raise ValueError(f"frame {i}: |xi_tan| + |p| must be nonzero")
        poly = zeta_polynomial(A, frame)
        scale = float(np.max(np.abs(poly)))
        if scale == 0.0 or abs(poly[-1]) < 1e-12 * scale:
            raise DegenerateFrameError(
                f"frame {i}: leading zeta coefficient is (near) zero"
            )
        # 2m roots (the leading coefficient is nonzero), split m / m or refused
        plus, _ = root_split(poly)
        pp = plus_polynomial(plus)
        mat = np.zeros((m, m), dtype=complex)
        for j, B in enumerate(Bs):
            bpoly = _zeta_poly_from_coeffs(B.coeffs, frame, B.m_j)
            _, rem = npoly.polydiv(bpoly, pp)
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
    """Seeded random frames with unit normal and |xi_tan|**2 + |p|**2 = 1."""
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

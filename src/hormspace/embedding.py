"""Sharp integral criterion for continuity of derivatives, and its mechanics.

At the borderline regularity s = p + b + n/2 the continuity of anisotropic
derivatives up to order p is governed by the convergence of
int_1^inf dr / (r phi(r)**2).  The module provides the closed-form verdict
for the represented family, quadrature of partial integrals, the lattice
weight sums whose finiteness drives the embedding, the reduction of those
sums to a single radial integral (with a constant calibrated over the
closed-form angular moment), and a normalized spectral profile
demonstrating sharpness when the integral diverges.

The profile's phases make every term of its derivative's Fourier sum
nonnegative at the origin, so the derivative's largest modulus is its value
there.  That value and the profile's weighted norm (by Parseval) are sums
over the coefficient moduli, so the demo runs no transform.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .class_m import PhiFunction, constant_one, eval_phi, eval_phi_of_exp
from .spectra import AnisotropicIndex, Lattice, _parseval_norm, r_gamma_array, weight_array

__all__ = [
    "criterion_verdict",
    "criterion_partial",
    "derivative_weight_sum",
    "radial_reduction_check",
    "RadialReductionResult",
    "radial_integrand",
    "sharpness_demo",
    "SharpnessReport",
]


def criterion_verdict(phi: PhiFunction) -> str:
    """Closed-form convergence verdict for int_1^inf dr/(r phi(r)**2).

    Substituting u = log r repeatedly: the integral converges iff the first
    exponent with 2q != 1 has 2q > 1; it diverges when every 2q equals 1
    (and for the constant weight).
    """
    if phi.kind == "constant_one":
        return "diverges"
    if phi.kind != "log_power":
        raise ValueError(f"unsupported kind {phi.kind!r}")
    for q in phi.exponents:
        if 2.0 * q > 1.0:
            return "converges"
        if 2.0 * q < 1.0:
            return "diverges"
    return "diverges"


def criterion_partial(phi: PhiFunction, R: float) -> float:
    """int_1^R dr / (r phi(r)**2), computed in the variable u = log r."""
    if not 1.0 <= R < math.inf:
        raise ValueError(f"R must be finite and >= 1, got {R}")
    from scipy.integrate import quad

    upper = math.log(R)

    def integrand(u):
        return 1.0 / eval_phi_of_exp(phi, u) ** 2

    pts = []
    if phi.kind == "log_power":
        lc = math.log(phi.cutoff)
        if 0.0 < lc < upper:
            pts = [lc]
    val, _err = quad(integrand, 0.0, upper, points=pts or None, limit=400, epsrel=1e-10)
    return float(val)


def derivative_weight_sum(
    lattice: Lattice,
    s: float,
    gamma: float,
    phi: PhiFunction,
    alpha,
    beta: int,
) -> float:
    """Lattice sum of |xi**alpha|**2 |eta|**(2 beta) / (r**2s phi(r)**2) cells.

    The discrete counterpart of the integral whose finiteness makes the
    derivative D^alpha d_t^beta continuous at regularity s = p + b + n/2.
    """
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != lattice.k:
        raise ValueError("alpha length must equal the spatial dimension")
    if beta < 0 or any(a < 0 for a in alpha):
        raise ValueError("derivative orders must be nonnegative")
    r = r_gamma_array(lattice, gamma)
    weight = r ** (2.0 * s) * eval_phi(phi, r) ** 2
    num = np.ones(lattice.shape)
    xi = lattice.xi_axis()
    for axis, a in enumerate(alpha):
        if a:
            shape = [1] * (lattice.k + 1)
            shape[axis] = lattice.n_x
            num = num * (xi ** (2 * a)).reshape(shape)
    if beta:
        eta = lattice.eta_axis()
        shape = [1] * (lattice.k + 1)
        shape[-1] = lattice.n_t
        num = num * (np.abs(eta) ** (2 * beta)).reshape(shape)
    return float(np.sum(num / weight) * lattice.cell_volume)


def radial_integrand(s: float, delta: float, phi: PhiFunction, r):
    """(r**2 - 1)**(s - 1 - delta) * r**(1 - 2s) / phi(r)**2 for r >= 1."""
    r = np.asarray(r, dtype=float)
    return (r**2 - 1.0) ** (s - 1.0 - delta) * r ** (1.0 - 2.0 * s) / eval_phi(phi, r) ** 2


@functools.lru_cache(maxsize=None)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], built once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gauss(a, b, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule mapped affinely to [a, b].

    The rule on [-1, 1] comes from ``_legendre_rule``, so it is built once
    per node count.  Array endpoints of shape (m, 1) give m rules at once,
    one per row, with the same arithmetic as scalar endpoints.
    """
    x, w = _legendre_rule(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _angular_moment(alpha: tuple[int, ...]) -> float:
    """Integral of |omega**alpha|**2 over the unit sphere S^(n-1), n = len(alpha).

    2 prod_i Gamma(alpha_i + 1/2) / Gamma(|alpha| + n/2) for every n >= 1
    (integrate prod_i x_i**(2 alpha_i) e**(-|x|**2) over R^n in Cartesian and
    in polar coordinates), taken in logs so that no factor overflows.
    """
    log_numerator = sum(math.lgamma(a + 0.5) for a in alpha)
    return 2.0 * math.exp(log_numerator - math.lgamma(sum(alpha) + len(alpha) / 2.0))


def _lhs_truncated(
    s: float,
    gamma: float,
    phi: PhiFunction,
    alpha: tuple[int, ...],
    beta: int,
    R: float,
    n_nodes: int = 96,
) -> float:
    """Multiple integral of the weight-sum integrand over {r_gamma <= R}.

    Iterated Gauss quadrature: angular moment in xi times a 2-D integral in
    the spatial radius and the substituted time frequency eta = v**(2b),
    which turns |eta|**(1/b) into the smooth v**2.  One Gauss-Legendre rule
    is mapped to every inner interval [0, rho_top(v)] at once, so the inner
    integrals take one array pass (one ``eval_phi`` call and a row-wise
    sum); the outer sum over v stays a sequential float sum in node order.
    """
    n = len(alpha)
    b = 1.0 / (2.0 * gamma)
    bi = round(b)
    if abs(b - bi) > 1e-9 or bi < 1:
        raise ValueError("gamma must be 1/(2b) with integer b >= 1")
    b = float(bi)
    if R <= 1.0:
        return 0.0
    ang = _angular_moment(alpha)
    v_top = (R**2 - 1.0) ** 0.5
    v_nodes, v_w = _gauss(0.0, v_top, n_nodes)
    # square each node as a scalar: numpy's scalar ** calls libm pow, which
    # can differ in the last bit from an array square, and rho_top must equal
    # a one-row-at-a-time evaluation bit for bit
    v2 = np.array([v**2 for v in v_nodes])
    rho_top = np.sqrt(np.maximum(R**2 - 1.0 - v2, 0.0))
    rho, wr = _gauss(0.0, rho_top[:, None], n_nodes)
    rr = np.sqrt(1.0 + rho**2 + v2[:, None])
    dens = rho ** (2 * sum(alpha) + n - 1) / (rr ** (2.0 * s) * eval_phi(phi, rr) ** 2)
    inner = np.sum(dens * wr, axis=1)
    total = 0.0
    for v, wv, top, row in zip(v_nodes, v_w, rho_top, inner):
        if top <= 0.0:
            continue
        # d eta = 2b v**(2b-1) dv and |eta|**(2 beta) = v**(4 b beta)
        total += wv * float(row) * 2.0 * b * v ** (4.0 * b * beta + 2.0 * b - 1.0)
    return 2.0 * ang * total


_CALIBRATION_CACHE: dict = {}
# truncation radius of the phi == 1 run that fixes the angular constant
_CALIBRATION_R = 30.0


@dataclass(frozen=True)
class RadialReductionResult:
    lhs: float
    rhs: float
    relerr: float
    c_alpha_beta: float

    def to_json_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "relerr": self.relerr,
            "c_alpha_beta": self.c_alpha_beta,
        }


def radial_reduction_check(
    s: float,
    gamma: float,
    phi: PhiFunction,
    alpha,
    beta: int,
    R: float,
) -> RadialReductionResult:
    """Truncated multiple integral versus the calibrated radial integral.

    The angular constant is fixed once per (alpha, beta) by a run at
    phi == 1, so constancy of lhs/rhs across truncation radii is the
    verified content.
    """
    from scipy.integrate import IntegrationWarning, quad

    alpha = tuple(int(a) for a in alpha)
    n = len(alpha)
    b = round(1.0 / (2.0 * gamma))
    p = s - b - n / 2.0
    delta = p - sum(alpha) - 2 * b * beta
    if delta < -1e-9:
        raise ValueError("requires |alpha| + 2b beta <= p = s - b - n/2")
    overflow = f"radial reduction overflows double precision at n = {n}, s = {s}"

    def tail(phi_, upper):
        # an integrand overflowed to nan makes quad warn rather than fail
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            try:
                val, _ = quad(
                    lambda r: float(radial_integrand(s, delta, phi_, r)),
                    1.0,
                    upper,
                    limit=400,
                    epsrel=1e-11,
                )
            except IntegrationWarning:
                raise ValueError(overflow) from None
        return float(val)

    one = constant_one()
    cache_key = (s, gamma, alpha, beta)
    # in many dimensions the powers overflow to inf and their quotients to
    # nan; the finiteness check below refuses that, so numpy stays quiet
    with np.errstate(over="ignore", invalid="ignore"):
        c = _CALIBRATION_CACHE.get(cache_key)
        if c is None:
            c = _lhs_truncated(s, gamma, one, alpha, beta, _CALIBRATION_R) / tail(
                one, _CALIBRATION_R
            )
            _CALIBRATION_CACHE[cache_key] = c
        lhs = _lhs_truncated(s, gamma, phi, alpha, beta, R)
        rhs = c * tail(phi, R)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise ValueError(overflow)
    relerr = abs(lhs - rhs) / lhs if lhs != 0 else math.inf
    return RadialReductionResult(lhs, rhs, relerr, c)


@dataclass(frozen=True)
class SharpnessReport:
    entries: list
    norm_spread: float
    sup_monotone: bool

    def to_json_dict(self) -> dict:
        return {
            "entries": self.entries,
            "norm_spread": self.norm_spread,
            "sup_monotone": self.sup_monotone,
        }


def sharpness_demo(
    phi_diverging: PhiFunction,
    p: int,
    lattices: list[Lattice],
    *,
    b: int = 1,
) -> SharpnessReport:
    """Normalized spectral profiles whose p-th x1-derivative blows up.

    Each lattice carries coefficients of modulus |xi_1|**p / (w**2 Z), with
    w = r**s phi(r) the Hormander weight and Z**2 the derivative weight sum
    at alpha = (p, 0, ..., 0), and phases aligned so that every term of the
    p-th x1-derivative's Fourier sum is nonnegative at the origin.  The
    derivative's largest modulus is therefore its value at the origin, one
    sum over the moduli, and the weighted norm is a Parseval sum over the
    same moduli; neither needs a transform.  When the criterion integral
    diverges the peak grows without bound while every norm stays 1.
    """
    if criterion_verdict(phi_diverging) != "diverges":
        raise ValueError("phi satisfies the criterion; sharpness demo needs divergence")
    if p < 0:
        raise ValueError("p must be >= 0")
    if not lattices:
        raise ValueError("need at least one lattice")
    gamma = 1.0 / (2.0 * b)
    entries = []
    sups = []
    norms = []
    for lat in lattices:
        n = lat.k
        s = p + b + n / 2.0
        I_N = derivative_weight_sum(lat, s, gamma, phi_diverging, (p,) + (0,) * (n - 1), 0)
        Z = math.sqrt(I_N)
        w = weight_array(lat, AnisotropicIndex(s, gamma, phi_diverging))
        xi1_p = np.abs(lat.xi_axis()).reshape((lat.n_x,) + (1,) * n) ** p
        mag = xi1_p / (w * w * Z)
        norm = _parseval_norm(w * mag, lat)
        # the derivative at the origin, its Fourier integral as a lattice sum
        # of nonnegative terms with cell / (2 pi)**(n+1) per mode
        scale = lat.cell_volume / (2.0 * math.pi) ** (n + 1)
        sup = scale * float(np.sum(xi1_p * mag))
        entries.append(
            {
                "n_x": lat.n_x,
                "n_t": lat.n_t,
                "norm": norm,
                "sup_derivative": sup,
                "weight_sum": I_N,
            }
        )
        norms.append(norm)
        sups.append(sup)
    spread = (max(norms) - min(norms)) / max(norms)
    monotone = all(hi > lo for lo, hi in zip(sups, sups[1:]))
    return SharpnessReport(entries, spread, monotone)

"""Interpolation with a function parameter between spectrally diagonal pairs.

A pair of weights (mu0, mu1) with mu1 >= mu0 > 0 represents two Hilbert
norms diagonal in the common DFT basis.  The generating multiplier is
mu1/mu0, and the interpolated norm applies psi of that multiplier on top
of the mu0 norm.  For the Sobolev pair mu_j = r_gamma**s_j the parameter
psi built below reproduces the weight r_gamma**s * phi(r_gamma) pointwise,
which makes the interpolated and direct norms equal, not merely
equivalent; `verify_lemma71` measures exactly that ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .class_m import PhiFunction, eval_phi
from .plus_spaces import RegionMask, plus_norm
from .spectra import AnisotropicIndex, GridFunction, Lattice, r_gamma_array
from .spectra import _finite, _fold, _folded_r, _parseval_norm, _weight

__all__ = [
    "DiagonalPair",
    "InterpParameter",
    "build_psi",
    "eval_psi",
    "regular_variation_index",
    "generating_operator",
    "interp_norm",
    "verify_lemma71",
    "interp_subspace_norm",
    "direct_sum_interp_check",
    "sobolev_pair",
]


def _check_admissible(mu0: np.ndarray, mu1: np.ndarray) -> None:
    """Refuse weights that are not an admissible pair: mu1 >= mu0 > 0."""
    if np.any(mu0 <= 0):
        raise ValueError("mu0 must be strictly positive")
    if np.any(mu1 < mu0):
        raise ValueError("admissibility requires mu1 >= mu0 everywhere")


@dataclass(frozen=True)
class DiagonalPair:
    """Admissible pair of norms diagonal in the DFT basis: mu1 >= mu0 > 0."""

    lattice: Lattice
    mu0: np.ndarray
    mu1: np.ndarray

    def __post_init__(self):
        mu0 = np.asarray(self.mu0, dtype=float)
        mu1 = np.asarray(self.mu1, dtype=float)
        if mu0.shape != self.lattice.shape or mu1.shape != self.lattice.shape:
            raise ValueError("weight shapes must match the lattice")
        _check_admissible(mu0, mu1)
        object.__setattr__(self, "mu0", mu0)
        object.__setattr__(self, "mu1", mu1)


def sobolev_pair(lattice: Lattice, s0: float, s1: float, gamma: float) -> DiagonalPair:
    """The pair with weights r_gamma**s0 and r_gamma**s1 (s0 <= s1)."""
    r = r_gamma_array(lattice, gamma)
    with np.errstate(over="ignore"):
        return DiagonalPair(lattice, r**s0, r**s1)


@dataclass(frozen=True)
class InterpParameter:
    """Function parameter psi(r) = r**theta * phi(r**(1/(s1-s0))) for r >= 1,
    continued by phi(1) on (0, 1)."""

    s0: float
    s: float
    s1: float
    phi: PhiFunction

    @property
    def theta(self) -> float:
        return (self.s - self.s0) / (self.s1 - self.s0)


def build_psi(s0: float, s: float, s1: float, phi: PhiFunction) -> InterpParameter:
    if not (s0 < s < s1):
        raise ValueError(f"need s0 < s < s1, got {(s0, s, s1)}")
    return InterpParameter(s0, s, s1, phi)


def eval_psi(p: InterpParameter, r):
    """Evaluate psi on scalars or arrays of positive numbers."""
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("psi is defined on (0, inf)")
    theta = p.theta
    d = p.s1 - p.s0
    below = eval_phi(p.phi, 1.0)
    safe = np.maximum(arr, 1.0)
    out = np.where(arr >= 1.0, safe**theta * eval_phi(p.phi, safe ** (1.0 / d)), below)
    return float(out) if np.isscalar(r) or arr.ndim == 0 else out


def regular_variation_index(p: InterpParameter, r_ladder) -> float:
    """Empirical regular-variation index from doubling ratios.

    Averages log2(psi(2r)/psi(r)) over the upper half of the ladder.  Exact
    for pure powers; for log-power phi the estimate carries a bias that
    decays like 1/log(r), so it approaches theta only slowly.
    """
    r = np.asarray(r_ladder, dtype=float)
    if r.size < 3:
        raise ValueError("ladder needs at least 3 points")
    if np.any(np.diff(r) <= 0):
        raise ValueError("ladder must be ascending")
    est = np.log(eval_psi(p, 2.0 * r) / eval_psi(p, r)) / math.log(2.0)
    tail = est[r.size // 2 :]
    return float(np.mean(tail))


def generating_operator(pair: DiagonalPair) -> np.ndarray:
    """Diagonal multiplier mu1/mu0 realizing the pair's generating operator."""
    return pair.mu1 / pair.mu0


def _interp_weight(mu0: np.ndarray, mu1: np.ndarray, p: InterpParameter) -> np.ndarray:
    """mu0 * psi(mu1 / mu0) of the pair (mu0, mu1), refused past the largest float."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(mu0 * eval_psi(p, mu1 / mu0), "interpolated weight")


def interp_norm(g: GridFunction, pair: DiagonalPair, p: InterpParameter) -> float:
    """mu0-weighted norm of psi(multiplier) applied spectrally to g."""
    if g.lattice != pair.lattice:
        raise ValueError("grid and pair lattices differ")
    with np.errstate(over="ignore"):
        power = np.abs(np.fft.fftn(g.samples, norm="ortho")) ** 2
        return _parseval_norm(g.lattice, _interp_weight(pair.mu0, pair.mu1, p) ** 2, power)


def verify_lemma71(
    g: GridFunction, s0: float, s: float, s1: float, gamma: float, phi: PhiFunction
) -> float:
    """Ratio of the interpolated norm to the direct weighted norm.

    The identity psi(r**(s1-s0)) = r**(s-s0) * phi(r) makes the two norms
    equal pointwise in frequency, so the ratio is 1 up to rounding.  A zero
    input returns 1 by convention.  One transform of g, folded once, and one
    r_gamma array serve both norms, taken as in hnorm on the folded
    quadrant: the denominator is hnorm(g, idx) to the last bit and the
    numerator is interp_norm(g, pair, p) up to rounding.
    """
    lat = g.lattice
    r = _folded_r(lat, gamma)
    p = build_psi(s0, s, s1, phi)
    idx = AnisotropicIndex(s, gamma, phi)
    with np.errstate(over="ignore"):
        mu0, mu1 = r**s0, r**s1
        # the refusals of DiagonalPair(lat, mu0, mu1), over the same values
        _check_admissible(mu0, mu1)
        power = _fold(lat, np.abs(np.fft.fftn(g.samples, norm="ortho")) ** 2)
        denom = _parseval_norm(lat, _weight(r, idx) ** 2, power)
        if denom == 0.0:
            return 1.0
        return _parseval_norm(lat, _interp_weight(mu0, mu1, p) ** 2, power) / denom


def interp_subspace_norm(
    g_on_plus: GridFunction,
    region: RegionMask,
    s0: float,
    s: float,
    s1: float,
    gamma: float,
    phi: PhiFunction,
) -> tuple[float, float]:
    """Interpolated norm of supported data versus the factor norm of its
    restriction to V.

    The input must vanish outside the t >= 0 window.  Returns (lhs, rhs)
    where lhs applies psi of the ambient Sobolev pair to g and rhs is the
    support-constrained factor norm of g restricted to V; their ratio is
    expected to be resolution-stable.
    """
    if s0 < 0:
        raise ValueError("requires s0 >= 0")
    samples = g_on_plus.samples
    off = ~region.t_nonneg_mask
    scale = float(np.max(np.abs(samples))) if samples.size else 0.0
    if scale > 0 and float(np.max(np.abs(samples[off]), initial=0.0)) > 1e-12 * scale:
        raise ValueError("input is not supported in the t >= 0 window")
    pair = sobolev_pair(g_on_plus.lattice, s0, s1, gamma)
    p = build_psi(s0, s, s1, phi)
    lhs = interp_norm(g_on_plus, pair, p)
    rhs = plus_norm(samples, AnisotropicIndex(s, gamma, phi), region).norm
    return lhs, rhs


def direct_sum_interp_check(
    pairs: list[DiagonalPair], g_list: list[GridFunction], p: InterpParameter
) -> tuple[float, float]:
    """Interpolated norm of a direct sum versus the root-sum-square of the
    summand norms; these agree to rounding."""
    if len(pairs) != len(g_list) or not pairs:
        raise ValueError("pairs and inputs must align and be nonempty")
    # one interpolated weight for each distinct pair, however often it recurs
    weights = {id(q): _interp_weight(q.mu0, q.mu1, p) for q in {id(q): q for q in pairs}.values()}
    weighted = []
    per_summand = []
    for pair, g in zip(pairs, g_list):
        if g.lattice != pair.lattice:
            raise ValueError("grid and pair lattices differ")
        w = weights[id(pair)] * np.abs(np.fft.fftn(g.samples, norm="ortho"))
        w = w * math.sqrt(pair.lattice.cell_volume)
        weighted.append(w.ravel())
        per_summand.append(float(np.sqrt(np.sum(w**2))))
    lhs = float(np.linalg.norm(np.concatenate(weighted)))
    rhs = float(np.sqrt(np.sum(np.asarray(per_summand) ** 2)))
    return lhs, rhs

"""Frequency lattices, unitary DFT, and anisotropic weighted spectral norms.

Conventions used throughout the package:

* A lattice has k spatial axes of n_x points each (period L_x) followed by
  one time axis of n_t points (period L_t); samples are stored C-order with
  the time axis last.
* Spatial samples sit at x_j = j L_x / n_x; time samples sit at
  t_j = -L_t/2 + j L_t / n_t, so t = 0 is exactly the slice n_t // 2 and
  the window covers both signs of t.
* Frequencies are xi_m = 2 pi m / L_x and eta_m = 2 pi m / L_t with
  m in {-n/2, ..., n/2 - 1}, stored in FFT order.
* The DFT is unitary (norm="ortho"), so coefficient energy equals sample
  energy exactly.
* Norms carry the frequency cell volume (2 pi / L_x)**k * (2 pi / L_t) so
  that they are quadrature approximations of the corresponding integrals.
* Weights are even in each frequency, and m and -m give bit-identical
  xi**2 and |eta|.  They are built on the folded quadrant, the first
  n // 2 + 1 FFT-order entries of every axis (m = 0, ..., n/2 - 1 and
  -n/2), which holds every value they take, and `_unfold` expands them to
  the whole lattice with the same bits at every point.  `_folded_sum` sums
  an even array over the whole lattice from its folded quadrant alone;
  `_fold`, the adjoint of `_unfold`, folds a power spectrum onto it.
* Every weighted norm is the Parseval sum `_parseval_norm` of w**2 against
  |coeff|**2, both whole-lattice or both folded (equal up to rounding), or
  against a stack of members' |coeff|**2, one norm per member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .class_m import PhiFunction, constant_one, eval_phi

__all__ = [
    "AnisotropicIndex",
    "Lattice",
    "GridFunction",
    "SpectralField",
    "dft",
    "idft",
    "hnorm",
    "embedding_constants",
    "weight_array",
    "r_gamma_array",
    "random_grid",
]


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class AnisotropicIndex:
    """Regularity triple (s, gamma, phi); parabolic use has gamma = 1/(2b)."""

    s: float
    gamma: float
    phi: PhiFunction = None

    def __post_init__(self):
        if not (math.isfinite(self.s) and math.isfinite(self.gamma)):
            raise ValueError("s and gamma must be finite")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.phi is None:
            object.__setattr__(self, "phi", constant_one())


@dataclass(frozen=True)
class Lattice:
    """Discrete space-time frequency lattice."""

    k: int
    n_x: int
    n_t: int
    L_x: float
    L_t: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("spatial dimension k must be >= 1")
        if self.k > 63:
            raise ValueError(f"spatial dimension k = {self.k} > 63, past numpy's 64 axes")
        if not _is_pow2(self.n_x) or not _is_pow2(self.n_t):
            raise ValueError("n_x and n_t must be powers of two")
        if not (0.0 < self.L_x < math.inf and 0.0 < self.L_t < math.inf):
            raise ValueError("periods must be finite and positive")
        # every weighted sum multiplies by the cell volume, and r_gamma**2 at
        # gamma = 1 reaches 1 + k xi**2 + eta**2 at the largest frequencies;
        # a float product overflows to inf where a float power raises, and a
        # cell below the smallest normal float would zero every norm
        xi = 2.0 * math.pi / self.L_x * (self.n_x // 2)
        eta = 2.0 * math.pi / self.L_t * (self.n_t // 2)
        try:
            cell = self.cell_volume
        except OverflowError:
            cell = math.inf
        squares = self.k * xi * xi + eta * eta
        if not (np.finfo(float).tiny <= cell < math.inf and squares < math.inf):
            raise ValueError(
                f"periods L_x = {self.L_x:g} and L_t = {self.L_t:g} are out of range for "
                f"k = {self.k}: the frequency cell underflows, or it or the largest "
                "squared frequency overflows double precision"
            )

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_x,) * self.k + (self.n_t,)

    @property
    def size(self) -> int:
        return self.n_x**self.k * self.n_t

    @property
    def cell_volume(self) -> float:
        return (2.0 * math.pi / self.L_x) ** self.k * (2.0 * math.pi / self.L_t)

    def xi_axis(self) -> np.ndarray:
        """Spatial frequencies in FFT order."""
        return 2.0 * math.pi * np.fft.fftfreq(self.n_x, d=self.L_x / self.n_x)

    def eta_axis(self) -> np.ndarray:
        """Time frequencies in FFT order."""
        return 2.0 * math.pi * np.fft.fftfreq(self.n_t, d=self.L_t / self.n_t)

    def t_axis(self) -> np.ndarray:
        """Physical time samples, centered so t=0 is index n_t // 2."""
        return -0.5 * self.L_t + self.L_t * np.arange(self.n_t) / self.n_t

    def x_axis(self) -> np.ndarray:
        return self.L_x * np.arange(self.n_x) / self.n_x

    def refine(self, factor_x: int = 1, factor_t: int = 1) -> "Lattice":
        return Lattice(self.k, self.n_x * factor_x, self.n_t * factor_t, self.L_x, self.L_t)


@dataclass(frozen=True)
class GridFunction:
    """Finite complex samples on a lattice."""

    lattice: Lattice
    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=complex)
        if arr.shape != self.lattice.shape:
            raise ValueError(f"samples shape {arr.shape} != lattice shape {self.lattice.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", arr)


@dataclass(frozen=True)
class SpectralField:
    """DFT image of a GridFunction, indexed by (xi, eta) in FFT order."""

    lattice: Lattice
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.shape != self.lattice.shape:
            raise ValueError(f"coeffs shape {arr.shape} != lattice shape {self.lattice.shape}")
        object.__setattr__(self, "coeffs", arr)


def _folded_r(lattice: Lattice, gamma: float) -> np.ndarray:
    """r_gamma on the folded quadrant of the lattice."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    xi = lattice.xi_axis()[: lattice.n_x // 2 + 1]
    eta = lattice.eta_axis()[: lattice.n_t // 2 + 1]
    sq = np.zeros((xi.size,) * lattice.k + (eta.size,))
    for axis in range(lattice.k):
        shape = [1] * (lattice.k + 1)
        shape[axis] = xi.size
        sq = sq + (xi**2).reshape(shape)
    sq = sq + (np.abs(eta) ** (2.0 * gamma)).reshape((1,) * lattice.k + (eta.size,))
    return np.sqrt(1.0 + sq)


def _unfold(lattice: Lattice, a: np.ndarray) -> np.ndarray:
    """Expand an array on the folded quadrant to the whole lattice (FFT
    order): entry i of an axis of n points reads folded entry i for
    i <= n // 2 and n - i above, the entry of -m.  The last axis is
    expanded first, which measured faster than the first-to-last order."""
    for axis in reversed(range(lattice.k + 1)):
        n = lattice.shape[axis]
        i = np.arange(n)
        a = np.take(a, np.where(i <= n // 2, i, n - i), axis=axis)
    return a


def _folded_sum(lattice: Lattice, a: np.ndarray) -> float:
    """Sum over the whole lattice of the even array whose folded quadrant is
    a.  A folded entry of an axis stands for m and -m, except m = 0 and
    m = -n/2, their own mirrors (n = 1 has only m = 0), so a is multiplied
    by those counts."""
    for axis, n in enumerate(lattice.shape):
        count = np.full((n // 2 + 1,) + (1,) * (a.ndim - axis - 1), 2.0)
        count[[0, -1]] = 1.0
        a = a * count
    return float(np.sum(a))


def _fold(lattice: Lattice, b: np.ndarray) -> np.ndarray:
    """The whole-lattice array b folded onto the quadrant: entry m collects
    b[m] + b[-m] (once where m = -m), the adjoint of `_unfold`."""
    for axis, n in enumerate(lattice.shape):
        i = np.arange(n // 2 + 1)
        # copies by np.take: adding views of b measured a higher peak RSS
        b, mirror = np.take(b, i, axis=axis), np.take(b, n - i[1:-1], axis=axis)
        b[(slice(None),) * axis + (slice(1, -1),)] += mirror
    return b


def r_gamma_array(lattice: Lattice, gamma: float) -> np.ndarray:
    """r_gamma over the whole frequency lattice (FFT order)."""
    return _unfold(lattice, _folded_r(lattice, gamma))


def _weight(r: np.ndarray, idx: AnisotropicIndex, phi_r=None) -> np.ndarray:
    """r**s * phi(r) at the r_gamma values r, inf past the largest float; phi_r is phi(r)."""
    with np.errstate(over="ignore"):
        return r**idx.s * (eval_phi(idx.phi, r) if phi_r is None else phi_r)


def weight_array(lattice: Lattice, idx: AnisotropicIndex) -> np.ndarray:
    """The Hormander weight r_gamma**s * phi(r_gamma) over the whole
    frequency lattice (FFT order)."""
    return _unfold(lattice, _weight(_folded_r(lattice, idx.gamma), idx))


def dft(g: GridFunction) -> SpectralField:
    """Unitary forward DFT over all axes."""
    return SpectralField(g.lattice, np.fft.fftn(g.samples, norm="ortho"))


def idft(field: SpectralField) -> GridFunction:
    """Unitary inverse DFT; idft(dft(g)) == g to machine precision."""
    return GridFunction(field.lattice, np.fft.ifftn(field.coeffs, norm="ortho"))


def _finite(x, what: str):
    """x, refused (ValueError) if it holds an inf or a nan; a float is compared
    directly, since np.max of one costs about as much as a short sum."""
    if not (x if isinstance(x, float) else np.max(x)) < math.inf:
        raise ValueError(f"the {what} overflows double precision")
    return x


def _parseval_norm(lattice: Lattice, w2: np.ndarray, power: np.ndarray):
    """(sum w2 power cell_volume)**(1/2), refused unless finite, for a squared
    weight w2 and the power |coeff|**2 of a unitary DFT, both whole-lattice or
    both folded.  power may carry leading member axes before w2's shape: the
    sum runs over w2's axes, and one norm is returned per member (a float
    when there is no member axis)."""
    axes = tuple(range(-w2.ndim, 0))
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.sqrt(np.sum(w2 * power, axis=axes) * lattice.cell_volume)
    return _finite(norm if norm.ndim else float(norm), "weighted sum")


def hnorm(g: GridFunction, idx: AnisotropicIndex) -> float:
    """Weighted spectral norm: (sum weight**2 |coeff|**2 cell_volume)**(1/2).

    With s=0 and phi==1 this is the L2 norm of the samples scaled by the
    square root of the frequency cell volume (Parseval).
    """
    lat = g.lattice
    w = _weight(_folded_r(lat, idx.gamma), idx)
    with np.errstate(over="ignore"):
        power = np.abs(np.fft.fftn(g.samples, norm="ortho")) ** 2
        return _parseval_norm(lat, w**2, _fold(lat, power))


def embedding_constants(
    idx0: AnisotropicIndex,
    idx: AnisotropicIndex,
    idx1: AnisotropicIndex,
    lattice: Lattice,
) -> tuple[float, float]:
    """Lattice certificates for the norm chain idx0 <= idx <= idx1.

    Returns (c_low, c_high) with c_low = max weight(idx0)/weight(idx) and
    c_high = max weight(idx)/weight(idx1), so that on this lattice
    ||.||_{idx0} <= c_low ||.||_{idx} and ||.||_{idx} <= c_high ||.||_{idx1}.
    Orders may touch (s0 <= s <= s1); reversal is an error.
    """
    if not (idx0.s <= idx.s <= idx1.s):
        raise ValueError("need idx0.s <= idx.s <= idx1.s")
    if not (idx0.gamma == idx.gamma == idx1.gamma):
        raise ValueError("indices must share gamma")
    # one r_gamma array for the three weights, and one phi(r) for those
    # indices that share the middle one's phi; the folded quadrant holds
    # every value the weights take, so its maxima are the lattice's
    r = _folded_r(lattice, idx.gamma)
    phi_r = eval_phi(idx.phi, r)
    w0, w, w1 = (
        _weight(r, i, phi_r if i.phi == idx.phi else None) for i in (idx0, idx, idx1)
    )
    return float(np.max(w0 / w)), float(np.max(w / w1))


def random_grid(lattice: Lattice, seed: int) -> GridFunction:
    """Seeded complex Gaussian samples."""
    rng = np.random.default_rng(seed)
    # the real parts are drawn first, as in a + 1j * b, with the same bits,
    # but into one complex array
    samples = np.empty(lattice.shape, dtype=complex)
    samples.real = rng.standard_normal(lattice.shape)
    samples.imag = rng.standard_normal(lattice.shape)
    return GridFunction(lattice, samples)

"""Support-constrained factor norms over a region V.

The norm of data u given on V is the minimum weighted spectral norm over
all grid functions w with w = u on V and w = 0 at every point outside the
t >= 0 half-window.  The constraint set is affine, so the minimizer solves
weighted normal equations on the remaining free points.  The weighted norm
is a convolution, so the normal matrix is a gather from the inverse DFT of
the squared weight (a circulant restricted to the free set; Chan & Ng,
SIAM Rev. 38, 1996).  When both masks are constant across the spatial axes
("time slabs") the problem decouples after a spatial DFT into one small
block per spatial mode, the fast path used by the model-problem module;
any other region is one block over the whole lattice.  The squared weight
is even, so every block is real symmetric.  It sees a spatial mode only
through |xi|, so slab blocks repeat.  Every distinct block is factored
once at setup by Cholesky, and the many later solves reuse the inverse
factor.  The factor gives a free certified bound on the condition number;
only a block whose bound exceeds 1e12 pays for its exact eigenvalues, so
normal equations are refused (ConditioningError, never regularised)
exactly when their condition number exceeds 1e12 or the Cholesky
factorization fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, InfeasibleConstraintError, UnsupportedParameterError
from .spectra import AnisotropicIndex, GridFunction, Lattice, _finite, _parseval_norm, weight_array

__all__ = [
    "RegionMask",
    "PlusNormResult",
    "PlusNormSolver",
    "plus_norm",
    "trace_defect",
    "lemma51_equivalence_ratio",
    "time_window_region",
]

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class RegionMask:
    """Boolean masks selecting the region V and the t >= 0 half-window."""

    lattice: Lattice
    v_mask: np.ndarray
    t_nonneg_mask: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v_mask, dtype=bool)
        t = np.asarray(self.t_nonneg_mask, dtype=bool)
        if v.shape != self.lattice.shape or t.shape != self.lattice.shape:
            raise ValueError("mask shapes must match the lattice shape")
        object.__setattr__(self, "v_mask", v)
        object.__setattr__(self, "t_nonneg_mask", t)


def time_window_region(lattice: Lattice, t0: float, t1: float) -> RegionMask:
    """Region V = {t0 < t < t1} (all x) with the standard t >= 0 support mask."""
    t = lattice.t_axis()
    v_t = (t > t0) & (t < t1)
    tn_t = t >= 0.0
    shape = (1,) * lattice.k + (lattice.n_t,)
    ones = np.ones(lattice.shape, dtype=bool)
    return RegionMask(
        lattice,
        ones & v_t.reshape(shape),
        ones & tn_t.reshape(shape),
    )


@dataclass(frozen=True)
class PlusNormResult:
    norm: float
    extension: GridFunction


def _is_time_slab(mask: np.ndarray, n_t: int) -> bool:
    rows = mask.reshape(-1, n_t)
    return bool(np.all(rows == rows[0]))


def _gram(kernel: np.ndarray, free: np.ndarray, block_shape: tuple) -> np.ndarray:
    """The normal matrices G[c, i, j] = kernel[c][(x_i - x_j) mod block_shape]
    over the free points x_i (raveled indices into a block), in C order."""
    diff = np.zeros((free.size, free.size), dtype=np.intp)
    for c, n in zip(np.unravel_index(free, block_shape), block_shape):
        diff = diff * n + (c[:, None] - c[None, :]) % n
    return np.take(kernel, diff, axis=1)


def _cholesky_inverse_factor(gram: np.ndarray, lam_max: float) -> float:
    """Factor one nonempty real symmetric block G = L L^T in place: gram (C
    order, float64) becomes R = L^-T, so that R R^T = G^-1.  Given lam_max,
    a bound on its largest eigenvalue, returns a certified upper bound on
    cond(G): 1/lambda_min <= trace(G^-1) = ||L^-1||_F**2, and the product
    is capped at the largest float; inf means only a failed factorization,
    which leaves gram unusable."""
    from scipy.linalg.lapack import dpotrf, dtrtri

    # gram.T is the Fortran-ordered view of the same symmetric matrix, so
    # LAPACK works in place
    low, info = dpotrf(gram.T, lower=1, overwrite_a=1)
    if info:
        return math.inf
    low_inv, _ = dtrtri(low, lower=1, overwrite_c=1)
    flat = low_inv.ravel(order="K")
    with np.errstate(over="ignore"):
        return min(float(lam_max * (flat @ flat)), float(np.finfo(float).max))


class PlusNormSolver:
    """Reusable least-norm solver for a fixed (index, region) pair.

    The weighted energy of w is the quadratic form of the circulant
    M = F* diag(w**2) F (F the unitary DFT), so on the free points the
    normal matrix is a gather from one inverse DFT of the squared weight:
    G[i, j] = ifftn(w**2)[(x_i - x_j) mod shape].  A time-slab region is
    first transformed along the spatial axes and splits into one block of
    shape (n_t,) per spatial mode; any other region is one block of shape
    lattice.shape.  The blocks are real symmetric, and rows with the same
    bytes of w**2 share one: setup factors each distinct block once,
    G = L L^T, and keeps Q = R = L^-T (not G), so that R R^T = G^-1, and
    the class `cls` of every row (146 distinct blocks of 1024 at
    32**2 x 64, one at s = 0 with phi = 1).  `max_cond` is the largest
    over the blocks of the Cholesky bound, or of the exact condition
    number for a block whose bound exceeds 1e12, so it is never below the
    exact largest one.  Every solve, slab or general, takes two batched
    real matrix products.  `solve` is `_expand` (the checked data on V,
    zero elsewhere), the outer transform along the spatial axes of a slab,
    `_minimise` over every block of its one member (the block solve and
    the energy) and the inverse outer transform of the extension.  Data of
    a slab that is already in spatial modes and occupies only some of
    them, where only the norms are needed, goes to `_minimise` with those
    rows alone, many members at once: a block whose data vanishes has the
    zero minimiser.  An exact condition number
    above 1e12, or a failed factorization (infinite), raises
    ConditioningError, whose message says which: the answer is refused
    rather than regularised.
    """

    def __init__(self, idx: AnisotropicIndex, region: RegionMask):
        self.idx = idx
        self.region = region
        self.lattice = lat = region.lattice
        self.free_mask = region.t_nonneg_mask & ~region.v_mask
        self.forced_zero = region.v_mask & ~region.t_nonneg_mask
        self.slab = _is_time_slab(region.v_mask, lat.n_t) and _is_time_slab(
            region.t_nonneg_mask, lat.n_t
        )
        self.outer_axes = tuple(range(lat.k)) if self.slab else ()
        block_shape = lat.shape[len(self.outer_axes) :]
        self.block_axes = tuple(range(-len(block_shape), 0))
        with np.errstate(over="ignore"):
            self.w2 = (weight_array(lat, idx) ** 2).reshape((-1,) + block_shape)
        n_blocks = len(self.w2)
        # rows with equal bytes share one block: each distinct row is
        # factored once, and cls[row] is its class
        w2_rows = self.w2.reshape(n_blocks, -1)
        key = w2_rows.view(np.dtype((np.void, w2_rows.shape[1] * w2_rows.itemsize)))[:, 0]
        _, first, self.cls = np.unique(key, return_index=True, return_inverse=True)
        w2_max = _finite(w2_rows.max(axis=1), "squared weight")[first]
        # all slab rows share one free set; a general region has one row
        self.free = np.flatnonzero(self.free_mask.reshape(n_blocks, -1)[0])
        # w**2 is even in every frequency, so its inverse DFT is real
        kernel = np.fft.ifftn(self.w2[first], axes=self.block_axes).real.reshape(first.size, -1)
        self.Q = _gram(kernel, self.free, block_shape)
        cond = np.ones(first.size)
        if self.free.size:
            # lambda_max <= min(max w**2, the largest absolute row sum): each
            # block is a principal submatrix of a circulant with eigenvalues
            # w**2 (and Gershgorin); taken before the factors overwrite Q
            lam_max = np.minimum(w2_max, np.abs(self.Q).sum(axis=-1).max(axis=-1))
            for c in range(first.size):
                cond[c] = _cholesky_inverse_factor(self.Q[c], float(lam_max[c]))
        failed = np.isinf(cond)
        # only blocks refused on the bound are rebuilt for their exact number
        over = np.flatnonzero(~(cond <= _COND_LIMIT) & ~failed)
        if over.size:
            ev = np.linalg.eigvalsh(_gram(kernel[over], self.free, block_shape))
            # a smallest eigenvalue at or below 0 may overflow the quotient
            with np.errstate(over="ignore"):
                cond[over] = ev[:, -1] / np.maximum(ev[:, 0], 1e-300)
        self.max_cond = float(cond.max())
        how = "Cholesky failed" if failed.any() else "exact"
        if not self.max_cond <= _COND_LIMIT:
            raise ConditioningError(
                f"normal equations have condition number {self.max_cond:.3g} ({how}) > "
                f"{_COND_LIMIT:g}; the plus norm is refused",
                self.max_cond,
            )

    def solve(self, u_on_v) -> PlusNormResult:
        w = np.fft.fftn(self._expand(u_on_v), axes=self.outer_axes, norm="ortho")
        norm = self._minimise(w.reshape(1, len(self.w2), -1), slice(None))
        w = np.fft.ifftn(w, axes=self.outer_axes, norm="ortho")
        return PlusNormResult(float(norm[0]), GridFunction(self.lattice, w))

    def _minimise(self, blocks: np.ndarray, rows) -> np.ndarray:
        """Plus norms of members whose data lives on the blocks rows
        (indices into the blocks, or slice(None) for all of them) and
        vanishes on every other block, one norm per member.  blocks has
        shape (members, rows, block size): each member's flattened blocks,
        after the outer transform and zero on the free set; the minimisers'
        values are written into their free sets in place."""
        w2 = self.w2[rows]
        axes = self.block_axes
        shape = blocks.shape[:1] + w2.shape
        coeffs = np.fft.fftn(blocks.reshape(shape), axes=axes, norm="ortho")
        m_fix = np.fft.ifftn(w2 * coeffs, axes=axes, norm="ortho").reshape(blocks.shape)
        # real and imaginary parts as two real columns, so Q stays real
        rhs = m_fix[..., self.free]
        rhs = np.stack((rhs.real, rhs.imag), axis=-1)
        # one gather per call, broadcast over the members; a block shared by
        # every row (a general region, or s = 0) is broadcast, not copied
        cls = slice(None) if len(self.Q) == 1 else self.cls[rows]
        q = self.Q[cls]
        x = q @ (q.transpose(0, 2, 1) @ rhs)
        blocks[..., self.free] = -(x[..., 0] + 1j * x[..., 1])
        coeffs = np.fft.fftn(blocks.reshape(shape), axes=axes, norm="ortho")
        return _parseval_norm(self.lattice, w2, np.abs(coeffs) ** 2)

    def _expand(self, u_on_v) -> np.ndarray:
        """The data on V as a lattice array that is zero off V.  Refuses a
        non-grid shape, non-finite data and nonzero data on V outside t >= 0."""
        arr = np.asarray(u_on_v, dtype=complex)
        if arr.shape != self.lattice.shape:
            raise ValueError(f"data shape {arr.shape} != lattice shape {self.lattice.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("data must be finite")
        full = np.where(self.region.v_mask, arr, 0.0)
        if np.any(full[self.forced_zero] != 0):
            n_bad = int(np.count_nonzero(full[self.forced_zero]))
            raise InfeasibleConstraintError(
                f"{n_bad} points of V lie outside the t >= 0 window but carry "
                "nonzero data; no supported extension exists"
            )
        return full


def plus_norm(u_on_v, idx: AnisotropicIndex, region: RegionMask) -> PlusNormResult:
    """Factor norm of u over V: minimum weighted norm among extensions
    supported in t >= 0.  u is a full lattice grid, read on V only.  Returns
    the norm and the minimizing extension."""
    if not np.any(region.v_mask):
        raise ValueError("v_mask selects no points")
    return PlusNormSolver(idx, region).solve(u_on_v)


def _trace_order_excluded(sg: float) -> bool:
    """True when s*gamma - 1/2 is an integer, the case the trace
    characterization of the plus spaces excludes."""
    return abs(sg - 0.5 - round(sg - 0.5)) < 1e-9


def trace_defect(g: GridFunction, gamma: float, s: float) -> list[float]:
    """L2-in-x size of time-derivative traces at the slice nearest t = 0.

    One entry per integer order q with 0 <= q < s*gamma - 1/2; near-zero
    values certify that the traces vanish.  Half-integer s*gamma - 1/2 is
    excluded.
    """
    sg = s * gamma
    if _trace_order_excluded(sg):
        raise UnsupportedParameterError(
            f"s*gamma - 1/2 = {sg - 0.5} is an integer; the trace "
            "characterization excludes this case"
        )
    n_orders = max(0, math.ceil(sg - 0.5))
    lat = g.lattice
    if n_orders == 0:
        return []
    eta = lat.eta_axis()
    coeffs_t = np.fft.fft(g.samples, axis=-1, norm="ortho")
    slice_idx = lat.n_t // 2
    dx_vol = (lat.L_x / lat.n_x) ** lat.k
    out = []
    for q in range(n_orders):
        mult = (1j * eta) ** q
        deriv = np.fft.ifft(coeffs_t * mult, axis=-1, norm="ortho")
        sl = deriv[..., slice_idx]
        out.append(float(np.sqrt(np.sum(np.abs(sl) ** 2) * dx_vol)))
    return out


def lemma51_equivalence_ratio(
    g: GridFunction, idx: AnisotropicIndex, region: RegionMask
) -> float:
    """Supported-extension norm over the unconstrained-extension norm of g|V.

    For trace-vanishing data the ratio stays bounded under refinement;
    for data with nonvanishing traces (s*gamma > 1/2) it grows, since
    extension by zero leaves the space.
    """
    if idx.s <= 0:
        raise ValueError("requires s > 0")
    if _trace_order_excluded(idx.s * idx.gamma):
        raise UnsupportedParameterError("s*gamma - 1/2 must not be an integer")
    numer = plus_norm(g.samples, idx, region).norm
    free_region = RegionMask(
        region.lattice, region.v_mask, np.ones(region.lattice.shape, dtype=bool)
    )
    denom = plus_norm(g.samples, idx, free_region).norm
    if denom == 0.0:
        return 1.0
    return numer / denom

"""Support-constrained factor norms over a region V.

The norm of data u given on V is the minimum weighted spectral norm over
all grid functions w with w = u on V and w = 0 at every point outside the
t >= 0 half-window.  The constraint set is affine, so the minimizer solves
weighted normal equations; when both masks are constant across the spatial
axes ("time slabs") the problem decouples into one small solve per spatial
mode, which is the fast path used by the model-problem module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, InfeasibleConstraintError, UnsupportedParameterError
from .spectra import AnisotropicIndex, GridFunction, Lattice, weight_array

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
_RIDGE_REL = 1e-12


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


class PlusNormSolver:
    """Reusable least-norm solver for a fixed (index, region) pair.

    Precomputes the (per-mode or dense) normal matrices once; `solve` then
    handles any finite data vector on V.  Conditioning beyond 1e12 triggers a
    relative Tikhonov ridge of 1e-12.
    """

    def __init__(self, idx: AnisotropicIndex, region: RegionMask):
        self.idx = idx
        self.region = region
        self.lattice = region.lattice
        lat = self.lattice
        self.w2 = weight_array(lat, idx) ** 2
        self.fixed_mask = region.v_mask | ~region.t_nonneg_mask
        self.free_mask = region.t_nonneg_mask & ~region.v_mask
        self.forced_zero = region.v_mask & ~region.t_nonneg_mask
        self.slab = _is_time_slab(region.v_mask, lat.n_t) and _is_time_slab(
            region.t_nonneg_mask, lat.n_t
        )
        if self.slab:
            self._init_slab()
        else:
            self._init_dense()

    # -- time-slab fast path ------------------------------------------------

    def _init_slab(self):
        lat = self.lattice
        n_t = lat.n_t
        v_t = self.region.v_mask.reshape(-1, n_t)[0]
        tn_t = self.region.t_nonneg_mask.reshape(-1, n_t)[0]
        self.free_t = np.flatnonzero(tn_t & ~v_t)
        nf = self.free_t.size
        self.w2_modes = self.w2.reshape(-1, n_t)
        if nf == 0:
            self.G = None
            return
        eye = np.zeros((n_t, nf))
        eye[self.free_t, np.arange(nf)] = 1.0
        self.E = np.fft.fft(eye, axis=0, norm="ortho")  # (n_t, nf)
        G = np.einsum("ti,xt,tj->xij", self.E.conj(), self.w2_modes, self.E)
        G = 0.5 * (G + np.conj(np.swapaxes(G, -1, -2)))
        ev = np.linalg.eigvalsh(G)
        cond = ev[:, -1] / np.maximum(ev[:, 0], 1e-300)
        bad = cond > _COND_LIMIT
        if np.any(bad):
            ridge = _RIDGE_REL * ev[bad, -1]
            G[bad] += ridge[:, None, None] * np.eye(nf)
        self.G = G
        self.max_cond = float(np.max(cond))

    def _solve_slab(self, u_full: np.ndarray) -> tuple[float, np.ndarray]:
        lat = self.lattice
        k, n_t = lat.k, lat.n_t
        w_fix = np.where(self.fixed_mask, u_full, 0.0)
        spatial = np.fft.fftn(w_fix, axes=tuple(range(k)), norm="ortho")
        modes = spatial.reshape(-1, n_t)
        if self.free_t.size:
            u_hat = np.fft.fft(modes, axis=-1, norm="ortho")
            rhs = -np.einsum("ti,xt,xt->xi", self.E.conj(), self.w2_modes, u_hat)
            try:
                z = np.linalg.solve(self.G, rhs[..., None])[..., 0]
            except np.linalg.LinAlgError as exc:
                raise ConditioningError(
                    "per-mode normal equations singular", getattr(self, "max_cond", None)
                ) from exc
            modes = modes.copy()
            modes[:, self.free_t] += z
        full_hat = np.fft.fft(modes, axis=-1, norm="ortho")
        energy = float(np.sum(self.w2_modes * np.abs(full_hat) ** 2))
        w = np.fft.ifftn(modes.reshape(lat.shape), axes=tuple(range(k)), norm="ortho")
        return energy, w

    # -- dense general path -------------------------------------------------

    def _apply_m(self, w: np.ndarray) -> np.ndarray:
        return np.fft.ifftn(self.w2 * np.fft.fftn(w, norm="ortho"), norm="ortho")

    def _init_dense(self):
        lat = self.lattice
        free_idx = np.flatnonzero(self.free_mask.ravel())
        self.free_idx = free_idx
        nf = free_idx.size
        if nf == 0:
            self.G_factor = None
            return
        cols = np.empty((nf, nf), dtype=complex)
        basis = np.zeros(lat.size, dtype=complex)
        for j, idx_flat in enumerate(free_idx):
            basis[idx_flat] = 1.0
            mcol = self._apply_m(basis.reshape(lat.shape)).ravel()
            cols[:, j] = mcol[free_idx]
            basis[idx_flat] = 0.0
        G = 0.5 * (cols + cols.conj().T)
        cond = float(np.linalg.cond(G))
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            G = G + _RIDGE_REL * float(np.max(np.abs(np.diag(G)))) * np.eye(nf)
        self.max_cond = cond
        try:
            import scipy.linalg as sla

            self.G_factor = sla.cho_factor(G)
        except Exception as exc:
            raise ConditioningError("normal equations not positive definite", cond) from exc

    def _solve_dense(self, u_full: np.ndarray) -> tuple[float, np.ndarray]:
        import scipy.linalg as sla

        lat = self.lattice
        w_fix = np.where(self.fixed_mask, u_full, 0.0)
        w = w_fix
        if self.free_idx.size:
            rhs = -self._apply_m(w_fix).ravel()[self.free_idx]
            z = sla.cho_solve(self.G_factor, rhs)
            w = w_fix.copy().ravel()
            w[self.free_idx] = z
            w = w.reshape(lat.shape)
        energy = float(np.sum(self.w2 * np.abs(np.fft.fftn(w, norm="ortho")) ** 2))
        return energy, w

    # -- public interface ---------------------------------------------------

    def solve(self, u_on_v) -> PlusNormResult:
        lat = self.lattice
        u_full = self._expand(u_on_v)
        if np.any(u_full[self.forced_zero] != 0):
            n_bad = int(np.count_nonzero(u_full[self.forced_zero]))
            raise InfeasibleConstraintError(
                f"{n_bad} points of V lie outside the t >= 0 window but carry "
                "nonzero data; no supported extension exists"
            )
        if self.slab:
            energy, w = self._solve_slab(u_full)
        else:
            energy, w = self._solve_dense(u_full)
        norm = math.sqrt(max(energy, 0.0) * lat.cell_volume)
        return PlusNormResult(norm, GridFunction(lat, w))

    def _expand(self, u_on_v) -> np.ndarray:
        lat = self.lattice
        arr = np.asarray(u_on_v, dtype=complex)
        if not np.all(np.isfinite(arr)):
            raise ValueError("data must be finite")
        full = np.zeros(lat.shape, dtype=complex)
        if arr.shape == lat.shape:
            full[self.region.v_mask] = arr[self.region.v_mask]
        else:
            nnz = int(np.count_nonzero(self.region.v_mask))
            if arr.ndim != 1 or arr.size != nnz:
                raise ValueError(
                    f"data must be the full grid or a vector of length {nnz} "
                    "(C-order of v_mask)"
                )
            full[self.region.v_mask] = arr
        return full


def plus_norm(u_on_v, idx: AnisotropicIndex, region: RegionMask) -> PlusNormResult:
    """Factor norm of u over V: minimum weighted norm among extensions
    supported in t >= 0.  Returns the norm and the minimizing extension."""
    if not np.any(region.v_mask):
        raise ValueError("v_mask selects no points")
    return PlusNormSolver(idx, region).solve(u_on_v)


def trace_defect(g: GridFunction, gamma: float, s: float) -> list[float]:
    """L2-in-x size of time-derivative traces at the slice nearest t = 0.

    One entry per integer order q with 0 <= q < s*gamma - 1/2; near-zero
    values certify that the traces vanish.  Half-integer s*gamma - 1/2 is
    excluded.
    """
    sg = s * gamma
    if abs(sg - 0.5 - round(sg - 0.5)) < 1e-9:
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
    sg = idx.s * idx.gamma
    if abs(sg - 0.5 - round(sg - 0.5)) < 1e-9:
        raise UnsupportedParameterError("s*gamma - 1/2 must not be an integer")
    numer = plus_norm(g.samples, idx, region).norm
    free_region = RegionMask(
        region.lattice, region.v_mask, np.ones(region.lattice.shape, dtype=bool)
    )
    denom = plus_norm(g.samples, idx, free_region).norm
    if denom == 0.0:
        return 1.0
    return numer / denom

"""Periodic constant-coefficient parabolic model problems with zero Cauchy data.

Periodizing in x removes the boundary, so a first-order-in-time operator
acts mode by mode: on the spatial mode exp(i xi . x) the equation becomes
d/dt u_hat + lambda(xi) u_hat = f_hat / a_t with lambda the (sign-normalized)
spatial symbol.  The solve is the Duhamel integral evaluated by exact
exponential quadrature against the piecewise-linear interpolant of f_hat,
which makes the solution exactly zero for t <= 0 and exact for forcing
that is linear between time samples.  The round trip A(A^-1 f) = f is
checked in the same spatial modes: A is the spatial multiplier plus a_t
d/dt there, so u never returns to physical space.  Every entry point takes
its forcing through _checked_modes, the one support check: a grid on its
samples before its spatial transform, a block of modes on its modes.

The two-sided estimate of the isomorphism is probed by the ratio of the
support-constrained factor norm of the solution on the window (0, tau) to
the weighted norm of the forcing two orders lower; the factor norm is used
because the free tail of the solution wraps around the periodic time
window and a plain spectral norm at high order would see that seam.  The
window is a time slab, so its masks commute with the spatial DFT and the
plus norm splits into one block per spatial mode, as the Duhamel solve does:
the ratio is taken in spatial modes, without returning to physical space,
and only on the modes a forcing occupies.  A grid forcing occupies all of
them after its one spatial transform; a synthesized forcing, made in modal
form, occupies the band of at most 5**k modes |m| <= 2, and every other
mode carries exactly zero.  Forcings on one band share their rows, so an
ensemble of them is taken a block of members at a time: each step (the
time transform, the Duhamel recurrence, the plus-norm blocks and the
Parseval sums) acts on the whole block at once.  A block holds at most
_BLOCK_VALUES = 2**15 complex mode values (512 KB; at least one member):
enough (40 members at 16**2 x 32, 20 at 32**2 x 64) to share the per-call
cost of the small numpy steps, and few enough that model-verify's peak
does not grow with the ensemble.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .class_m import PhiFunction, constant_one, eval_phi
from .errors import StabilityError
from .parabolicity import PrincipalSymbol, _evaluate, petrovskii_check
from .plus_spaces import PlusNormSolver, time_window_region
from .spectra import AnisotropicIndex, GridFunction, Lattice, hnorm, r_gamma_array
from .spectra import _parseval_norm, weight_array

__all__ = [
    "PeriodicParabolicOperator",
    "solve_periodic",
    "roundtrip_residual",
    "two_sided_ratio",
    "regularity_inheritance_check",
    "InheritanceReport",
    "synthesize_forcing",
]


@dataclass(frozen=True)
class PeriodicParabolicOperator:
    """Constant-coefficient operator, first order in time, on an x-periodic box.

    lower_order maps spatial multi-indices (|alpha| < 2m, no time factor) to
    complex coefficients.  Time orders kappa > 1 would need per-mode ODE
    systems and are rejected here.
    """

    symbol: PrincipalSymbol
    L_x: float
    tau: float
    lower_order: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.L_x <= 0 or self.tau <= 0:
            raise ValueError("L_x and tau must be positive")
        if self.symbol.kappa != 1:
            raise NotImplementedError(
                f"time order kappa = {self.symbol.kappa}; only kappa = 1 "
                "(first order in time) is supported"
            )
        self.symbol.validate_structure()
        lo = {}
        for alpha, c in self.lower_order.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != self.symbol.n or any(a < 0 for a in alpha):
                raise ValueError(f"bad lower-order index {alpha}")
            if sum(alpha) >= 2 * self.symbol.m:
                raise ValueError("lower-order terms must have |alpha| < 2m")
            c = complex(c)
            if not np.isfinite(c):
                raise ValueError(f"lower-order coefficient at {alpha} is not finite")
            lo[alpha] = c
        object.__setattr__(self, "lower_order", lo)
        verdict = petrovskii_check(self.symbol, 512)
        if not verdict.passed:
            raise ValueError(
                f"symbol fails the parabolicity check (root margin = {verdict.root_margin:.3e})"
            )

    @property
    def a_t(self) -> complex:
        return self.symbol.coeffs[((0,) * self.symbol.n, 1)]

    def _check_lattice(self, lattice: Lattice) -> None:
        if lattice.k != self.symbol.n:
            raise ValueError("lattice spatial dimension differs from the symbol")
        if abs(lattice.L_x - self.L_x) > 1e-12 * self.L_x:
            raise ValueError("lattice spatial period differs from the operator")
        if not self.tau < 0.5 * lattice.L_t:
            raise ValueError("need tau < L_t / 2 for the centered time window")

    def spatial_multiplier(self, lattice: Lattice) -> np.ndarray:
        """Per-mode value of the spatial part: sum a_alpha * (-xi)**alpha,
        the symbol's p = 0 rows and the lower-order terms evaluated as one
        coefficient table at every spatial mode."""
        self._check_lattice(lattice)
        k = lattice.k
        terms = [(alpha, c) for (alpha, beta), c in self.symbol.coeffs.items() if beta == 0]
        terms += self.lower_order.items()
        E = np.array([alpha for alpha, _ in terms], dtype=int).reshape(len(terms), k)
        table = (E, np.zeros(len(E), dtype=int), np.array([c for _, c in terms], dtype=complex))
        xi = np.stack(np.meshgrid(*(-lattice.xi_axis(),) * k, indexing="ij"), -1).reshape(-1, k)
        return _evaluate(table, xi, np.zeros(len(xi))).reshape((lattice.n_x,) * k)

    def lambda_modes(self, lattice: Lattice) -> np.ndarray:
        """Sign-normalized per-mode decay rates lambda(xi)."""
        return self.spatial_multiplier(lattice) / self.a_t


def _phi12(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi1 = (e^z - 1)/z and phi2 = (e^z - 1 - z)/z**2, stable near z = 0."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-3
    phi1 = np.empty_like(z)
    phi2 = np.empty_like(z)
    zs = z[small]
    # truncated exponential series; error below 1e-22 at |z| = 1e-3
    phi1[small] = 1 + zs / 2 + zs**2 / 6 + zs**3 / 24 + zs**4 / 120 + zs**5 / 720
    phi2[small] = 0.5 + zs / 6 + zs**2 / 24 + zs**3 / 120 + zs**4 / 720 + zs**5 / 5040
    zb = z[~small]
    ez = np.exp(zb)
    phi1[~small] = (ez - 1.0) / zb
    phi2[~small] = (ez - 1.0 - zb) / zb**2
    return phi1, phi2


def _check_forcing(op: PeriodicParabolicOperator, lat: Lattice, values: np.ndarray) -> None:
    """Every forcing must live on the operator's lattice and be supported in
    0 <= t <= tau; _checked_modes alone calls this.  values holds a block
    of forcings, shape (members, rows, n_t), time last: a grid's samples or
    a block's modes.  Each member is measured against its own largest
    value."""
    op._check_lattice(lat)
    t = lat.t_axis()
    outside = (t < 0.0) | (t > op.tau + 1e-12 * lat.L_t)
    size = np.abs(values)
    scale = np.max(size, axis=(1, 2), initial=0.0)
    off = np.max(size[..., outside], axis=(1, 2), initial=0.0)
    if np.any(off > 1e-12 * scale):
        raise ValueError("forcing is not supported in 0 <= t <= tau")


@dataclass(frozen=True)
class _ModalForcing:
    """A block of forcings on the same rows by their spatial modes (unitary
    DFT over the spatial axes): modes[i, r] holds the n_t time samples of
    member i at the mode of flat index rows[r] (C order over the spatial
    axes), and every other mode is 0.  rows may be slice(None), all modes
    in order."""

    lattice: Lattice
    rows: np.ndarray | slice
    modes: np.ndarray

    def __post_init__(self):
        lat = self.lattice
        n_rows = np.arange(lat.n_x**lat.k)[self.rows].size
        if self.modes.ndim != 3 or self.modes.shape[1:] != (n_rows, lat.n_t):
            raise ValueError("modes must hold n_t time samples for each row of each member")
        if not len(self.modes):
            raise ValueError("a block must hold at least one member")
        if not np.all(np.isfinite(self.modes)):
            raise ValueError("modes must be finite")


def _checked_modes(op: PeriodicParabolicOperator, f: GridFunction | _ModalForcing):
    """The forcing as a checked _ModalForcing, the one place a forcing is
    checked: a block on its modes; a grid on its samples, after which it
    takes its one spatial transform and becomes a block of one."""
    lat = f.lattice
    if isinstance(f, _ModalForcing):
        _check_forcing(op, lat, f.modes)
        return f
    _check_forcing(op, lat, f.samples.reshape(1, -1, lat.n_t))
    fhat = np.fft.fftn(f.samples, axes=tuple(range(lat.k)), norm="ortho")
    return _ModalForcing(lat, slice(None), fhat.reshape(1, -1, lat.n_t))


def _duhamel_weights(op: PeriodicParabolicOperator, lat: Lattice) -> np.ndarray:
    """Exponential-quadrature weights (e^z, h (phi1 - phi2), h phi2) with
    z = -lambda h, one column per spatial mode of the lattice (flat C
    order).  Raises StabilityError if any mode of the lattice has
    Re lambda < 0 (a genuinely growing mode)."""
    lam = op.lambda_modes(lat)
    re_min = float(np.min(lam.real))
    if re_min < -1e-12 * (1.0 + float(np.max(np.abs(lam)))):
        bad = np.unravel_index(int(np.argmin(lam.real)), lam.shape)
        xi = [float(lat.xi_axis()[i]) for i in bad]
        raise StabilityError(
            f"mode xi = {xi} has Re lambda = {re_min:.3e} < 0; "
            "the evolution grows exponentially",
            lam=complex(lam[bad]),
        )
    h = lat.L_t / lat.n_t
    z = -lam.reshape(-1) * h
    p1, p2 = _phi12(z)
    return np.stack((np.exp(z), h * (p1 - p2), h * p2))


def _duhamel_modes(
    op: PeriodicParabolicOperator, weights: np.ndarray, rows, fhat: np.ndarray, stop: int
) -> np.ndarray:
    """Duhamel solution on the spatial modes rows (flat indices, or
    slice(None) for all) from the modes fhat of supported forcings there,
    shape (..., rows, n_t): any leading axes are members, each step acts on
    all of them; weights are _duhamel_weights of the lattice.  The
    recurrence runs from t = 0 (index n_t // 2) up to the time index stop,
    exclusive; every mode is exactly 0 for t <= 0 and from stop on."""
    ez, w_left, w_right = weights[:, rows]
    modes = fhat / op.a_t
    u = np.zeros_like(modes)
    for j in range(modes.shape[-1] // 2, stop - 1):
        u[..., j + 1] = ez * u[..., j] + w_left * modes[..., j] + w_right * modes[..., j + 1]
    return u


def solve_periodic(op: PeriodicParabolicOperator, f: GridFunction) -> GridFunction:
    """Duhamel solution with zero Cauchy data; vanishes exactly for t <= 0.

    The forcing must be supported in 0 <= t <= tau.  Raises StabilityError
    if any mode has Re lambda < 0 (a genuinely growing mode).
    """
    lat = f.lattice
    f = _checked_modes(op, f)
    u = _duhamel_modes(op, _duhamel_weights(op, lat), f.rows, f.modes, lat.n_t)
    u = np.fft.ifftn(u.reshape(lat.shape), axes=tuple(range(lat.k)), norm="ortho")
    return GridFunction(lat, u)


def roundtrip_residual(op: PeriodicParabolicOperator, f: GridFunction) -> float:
    """Relative L2 size of (A u - f) at interior nodes 0 < t < tau, for u
    the solve_periodic solution of A u = f.

    A acts mode by mode, so u stays in the spatial modes of the solve's
    recurrence, where the unitary spatial DFT keeps the residual's norm.
    d/dt is the fourth-order central difference along time, so that the
    residual reflects the quadrature error of the solve rather than the
    error of the residual evaluator itself.
    """
    lat = f.lattice
    f_modes = _checked_modes(op, f).modes
    u = _duhamel_modes(op, _duhamel_weights(op, lat), slice(None), f_modes, lat.n_t)
    dudt = (-np.roll(u, -2, axis=-1) + 8 * np.roll(u, -1, axis=-1) - 8 * np.roll(u, 1, axis=-1)
            + np.roll(u, 2, axis=-1)) / (12 * (lat.L_t / lat.n_t))
    au = op.a_t * dudt + op.spatial_multiplier(lat).reshape(-1, 1) * u
    t = lat.t_axis()
    interior = (t > 0.0) & (t < op.tau)
    denom = float(np.linalg.norm(f.samples[..., interior].ravel()))
    if denom == 0.0:
        raise ValueError("forcing vanishes on the window")
    return float(np.linalg.norm((au - f_modes)[..., interior].ravel())) / denom


def _indices(
    op: PeriodicParabolicOperator, sigma: float, phi: PhiFunction | None
) -> tuple[AnisotropicIndex, AnisotropicIndex]:
    """The indices (sigma, gamma, phi) of the solution and (sigma - 2m,
    gamma, phi) of the forcing, with gamma = 1/(2b) and phi = 1 by default.
    Refuses sigma <= 2m."""
    order = 2 * op.symbol.m
    if not sigma > order:
        raise ValueError(f"need sigma > {order}")
    gamma = 1.0 / (2.0 * op.symbol.b)
    phi = constant_one() if phi is None else phi
    return AnisotropicIndex(sigma, gamma, phi), AnisotropicIndex(sigma - order, gamma, phi)


def two_sided_ratio(
    op: PeriodicParabolicOperator,
    ensemble: Iterable[GridFunction | _ModalForcing],
    sigma: float,
    phi: PhiFunction | None = None,
) -> tuple[float, float]:
    """(min, max) over the ensemble of ||u||_{sigma,+} / ||f||_{sigma - 2m}.

    Finite, stable bounds certify the two-sided a priori estimate on the
    lattice.  Requires sigma > 2m and a nondegenerate ensemble.  The
    ensemble may be any iterable, a generator included, of blocks: a
    GridFunction is a block of one, checked on its samples as
    solve_periodic checks it and then occupying every spatial mode; a
    _ModalForcing is a block of forcings by their spatial modes on the rows
    they share (model-verify passes its synthesized bands that way,
    _BLOCK_VALUES mode values a block).  Each block is read once, in order,
    and the next is drawn only after the current one's ratios are taken, so
    a generator keeps one block in memory at a time (besides the one it is
    making).  Every step acts on the whole block: one time transform, one
    Duhamel recurrence, one plus-norm minimisation and one Parseval sum for
    each norm, which return a norm per member.  Each member is refused on
    its own terms (its support against its own scale, a zero forcing), so
    the ratios do not depend on how the ensemble is cut into blocks.  The
    lattice, the plus-norm solver, the forcing weight and the Duhamel
    weights come from the first block.  A spatial mode off a block's rows
    stays exactly zero through the Duhamel solve and its own plus-norm
    block, so every step is taken on the rows alone.  Up to rounding this
    equals solve_periodic, then PlusNormSolver.solve, over hnorm of f, with
    the same refusals; the stability refusal covers every mode of the
    lattice, not only the rows.
    """
    idx_u, idx_f = _indices(op, sigma, phi)
    blocks = iter(ensemble)
    f = next(blocks, None)
    if f is None:
        raise ValueError("ensemble must be nonempty")
    lat = f.lattice
    weights = _duhamel_weights(op, lat)
    region = time_window_region(lat, 0.0, op.tau)
    solver = PlusNormSolver(idx_u, region)
    # a time window is constant across x, so its masks commute with the
    # spatial DFT and the solution never leaves spatial modes
    assert solver.slab
    # the ratio reads u on the window 0 < t < tau only, which is the data on
    # V; the recurrence stops at the first sample at or after tau, so u is
    # exactly 0 off the window
    stop = int(np.count_nonzero(lat.t_axis() < op.tau))
    w2_f = weight_array(lat, idx_f).reshape(-1, lat.n_t) ** 2
    ratios = []
    while f is not None:
        if f.lattice != lat:
            raise ValueError("ensemble members live on different lattices")
        f = _checked_modes(op, f)
        coeffs = np.fft.fft(f.modes, axis=-1, norm="ortho")
        fn = _parseval_norm(lat, w2_f[f.rows], np.abs(coeffs) ** 2)
        if not np.all(fn > 0.0):
            raise ValueError("ensemble contains a zero forcing; ratio undefined")
        u = _duhamel_modes(op, weights, f.rows, f.modes, stop)
        ratios.append(solver._minimise(u, f.rows) / fn)
        f = next(blocks, None)
    ratios = np.concatenate(ratios)
    return float(ratios.min()), float(ratios.max())


def _time_bump(lattice: Lattice, tau: float) -> np.ndarray:
    """exp(-1/(y(1-y))) at y = t/tau inside (0, 1), 0 outside, along the
    time axis."""
    y = lattice.t_axis() / tau
    return np.where(
        (y > 0.0) & (y < 1.0), np.exp(-1.0 / np.clip(y * (1.0 - y), 1e-300, None)), 0.0
    )


class _BandLayout(NamedTuple):
    """Where a synthesized forcing lies on one lattice, the same for every
    seed: the spatial rows of its band (flat indices, C order over the
    spatial axes), the index of its mode numbers |m| <= 2 into (rows, time),
    and its time bump."""

    rows: np.ndarray
    where: tuple
    bump: np.ndarray


def _band_layout(lattice: Lattice, tau: float) -> _BandLayout:
    """The layout of every forcing synthesized on lattice for window tau."""
    k = lattice.k
    m = np.arange(-2, 3)
    occupied, slot = np.unique(m % lattice.n_x, return_inverse=True)
    rows = np.ravel_multi_index(np.ix_(*(occupied,) * k), (lattice.n_x,) * k).ravel()
    slot = np.ravel_multi_index(np.ix_(*(slot,) * k), (occupied.size,) * k)
    # exp(-1/(y(1-y))) peaks at exp(-4); rescale to O(1)
    return _BandLayout(rows, (slot[..., None], m % lattice.n_t), _time_bump(lattice, tau) * 54.6)


def _forcing_band(lattice: Lattice, layout: _BandLayout, seeds) -> np.ndarray:
    """Synthesized forcings' unscaled spatial modes on the rows of their
    band, one member per seed, shape (seeds, rows, n_t): each seed's
    coefficients of mode numbers |m| <= 2 on every axis, drawn from its own
    generator, and one inverse transform along time for the block."""
    width = (5,) * (lattice.k + 1)
    bins = np.zeros((len(seeds), layout.rows.size, lattice.n_t), dtype=complex)
    sign = (-1.0) ** np.arange(-2, 3)
    for member, seed in zip(bins, seeds):
        rng = np.random.default_rng(seed)
        coeff = rng.standard_normal(width) + 1j * rng.standard_normal(width)
        # (-1)**m_t aligns the index transform with the centered time
        # window; where modes alias (n < 5) the last mode in C order wins
        member[layout.where] = coeff * sign
    return np.fft.ifft(bins, axis=-1, norm="ortho")


def _scale_forcing(values: np.ndarray, lattice: Lattice, layout: _BandLayout) -> np.ndarray:
    """The band's samples or modes (time last) times sqrt(N) and the bump."""
    return values * math.sqrt(lattice.size) * layout.bump


def _forcing_modes(lattice: Lattice, layout: _BandLayout, seeds) -> _ModalForcing:
    """synthesize_forcing(lattice, tau, seed) for each of seeds in modal
    form, one block, for layout = _band_layout(lattice, tau): their spatial
    modes on the at most 5**k rows of the band, equal to the spatial
    transform of their samples up to rounding."""
    modes = _scale_forcing(_forcing_band(lattice, layout, seeds), lattice, layout)
    return _ModalForcing(lattice, layout.rows, modes)


# the most complex mode values in one block of synthesized forcings (512 KB)
_BLOCK_VALUES = 2**15


def _forcing_blocks(lattice: Lattice, tau: float, seeds: range) -> Iterator[_ModalForcing]:
    """The synthesized forcings of seeds in modal form, drawn a block at a
    time: as many members as fit in _BLOCK_VALUES mode values, at least
    one.  Where the band lies is the lattice's, found once."""
    layout = _band_layout(lattice, tau)
    size = max(1, _BLOCK_VALUES // (layout.rows.size * lattice.n_t))
    for start in range(0, len(seeds), size):
        yield _forcing_modes(lattice, layout, seeds[start : start + size])


def synthesize_forcing(lattice: Lattice, tau: float, seed: int) -> GridFunction:
    """Random field with mode numbers |m| <= 2 on every axis, times a smooth
    time bump supported in (0, tau).

    The spectral coefficients depend only on the integer mode numbers and
    the seed, so refining the lattice samples the same continuum function.
    """
    layout = _band_layout(lattice, tau)
    bins = np.zeros(lattice.shape, dtype=complex)
    bins.reshape(-1, lattice.n_t)[layout.rows] = _forcing_band(lattice, layout, [seed])[0]
    field = np.fft.ifftn(bins, axes=tuple(range(lattice.k)), norm="ortho")
    return GridFunction(lattice, _scale_forcing(field, lattice, layout))


_GROWTH_LIMIT = 2.0


@dataclass(frozen=True)
class InheritanceReport:
    levels: list
    flagged: bool
    growth_limit: float


def regularity_inheritance_check(
    op: PeriodicParabolicOperator,
    base_lattice: Lattice,
    sigma: float,
    phi: PhiFunction | None = None,
    *,
    levels: int = 3,
    extra_decay: float = 2.0,
    seed: int = 0,
) -> InheritanceReport:
    """Solution norms across a refinement ladder for class-matched forcing.

    The forcing spectrum decays like r**-(sigma - 2m + extra_decay) / phi(r)
    with deterministic phases, windowed smoothly into (0, tau).  With
    extra_decay above (k+1)/2 the forcing norms stay bounded and so should
    the solution norms; extra_decay = 0 sits outside the class and the
    report flags a level whose solution norm grows by more than 2x.
    Needs levels >= 1: an empty ladder would pass without a solve.
    """
    idx_u, idx_f = _indices(op, sigma, phi)
    if levels < 1:
        raise ValueError(f"levels must be at least 1, got {levels}")
    rows = []
    lat = base_lattice
    prev_u = None
    flagged = False
    for level in range(levels):
        r = r_gamma_array(lat, idx_f.gamma)
        profile = r ** (-(idx_f.s + extra_decay)) / eval_phi(idx_f.phi, r)
        phases = _deterministic_phases(lat, seed)
        field = np.fft.ifftn(profile * phases, norm="ortho")
        f = GridFunction(lat, field * _time_bump(lat, op.tau))
        u = solve_periodic(op, f)
        region = time_window_region(lat, 0.0, op.tau)
        u_norm = PlusNormSolver(idx_u, region).solve(u.samples).norm
        f_norm = hnorm(f, idx_f)
        growth = None if prev_u is None else u_norm / prev_u
        if growth is not None and growth > _GROWTH_LIMIT:
            flagged = True
        rows.append(
            {"n_x": lat.n_x, "n_t": lat.n_t, "f_norm": f_norm, "u_norm": u_norm, "growth": growth}
        )
        prev_u = u_norm
        lat = lat.refine(2, 2)
    return InheritanceReport(rows, flagged, _GROWTH_LIMIT)


def _deterministic_phases(lattice: Lattice, seed: int) -> np.ndarray:
    """Unit-modulus phases keyed on integer mode numbers, lattice-consistent."""
    consts = (0.7548776662466927, 0.5698402909980532, 0.3619448614624487, 0.2448684204917588)
    acc = np.zeros(lattice.shape)
    for axis, n in enumerate(lattice.shape):
        m = np.rint(np.fft.fftfreq(n) * n).astype(int)
        shape = [1] * len(lattice.shape)
        shape[axis] = n
        acc = acc + (consts[axis % len(consts)] * m).reshape(shape)
    acc = acc + 0.12345 * seed
    return np.exp(2j * math.pi * np.mod(acc, 1.0))

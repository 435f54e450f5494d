"""Periodic constant-coefficient parabolic model problems with zero Cauchy data.

Periodizing in x removes the boundary, so a first-order-in-time operator
acts mode by mode: on the spatial mode exp(i xi . x) the equation becomes
d/dt u_hat + lambda(xi) u_hat = f_hat / a_t with lambda the (sign-normalized)
spatial symbol.  The solve is the Duhamel integral evaluated by exact
exponential quadrature against the piecewise-linear interpolant of f_hat,
which makes the solution exactly zero for t <= 0 and exact for forcing
that is linear between time samples.

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
mode carries exactly zero.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .class_m import PhiFunction, constant_one, eval_phi
from .errors import StabilityError
from .parabolicity import PrincipalSymbol, petrovskii_check
from .plus_spaces import PlusNormSolver, time_window_region
from .spectra import AnisotropicIndex, GridFunction, Lattice, hnorm, r_gamma_array
from .spectra import _parseval_norm, weight_array

__all__ = [
    "PeriodicParabolicOperator",
    "solve_periodic",
    "apply_operator",
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
            lo[alpha] = complex(c)
        object.__setattr__(self, "lower_order", lo)
        verdict = petrovskii_check(self.symbol, 512)
        if not verdict.passed:
            raise ValueError(
                f"symbol fails the parabolicity check (min |A| = {verdict.min_abs:.3e})"
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
        """Per-mode value of the spatial part: sum a_alpha * (-xi)**alpha."""
        self._check_lattice(lattice)
        xi = lattice.xi_axis()
        shape = (lattice.n_x,) * lattice.k
        out = np.zeros(shape, dtype=complex)
        terms = [
            (alpha, c)
            for (alpha, beta), c in self.symbol.coeffs.items()
            if beta == 0
        ]
        terms += list(self.lower_order.items())
        for alpha, c in terms:
            term = np.full(shape, c, dtype=complex)
            for axis, a in enumerate(alpha):
                if a:
                    axis_shape = [1] * lattice.k
                    axis_shape[axis] = lattice.n_x
                    term = term * ((-xi) ** a).reshape(axis_shape)
            out += term
        return out

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
    """The forcing must live on the operator's lattice and be supported in
    0 <= t <= tau.  values are its samples or its spatial modes, time last:
    a time slice vanishes in one form exactly when it does in the other."""
    op._check_lattice(lat)
    t = lat.t_axis()
    outside = (t < 0.0) | (t > op.tau + 1e-12 * lat.L_t)
    scale = float(np.max(np.abs(values))) if values.size else 0.0
    if scale > 0:
        off = float(np.max(np.abs(values[..., outside]), initial=0.0))
        if off > 1e-12 * scale:
            raise ValueError("forcing is not supported in 0 <= t <= tau")


@dataclass(frozen=True)
class _ModalForcing:
    """A forcing by its spatial modes (unitary DFT over the spatial axes):
    row r of modes holds the n_t time samples of the mode at flat index
    rows[r] (C order over the spatial axes), and every other mode is 0.
    rows may be slice(None), all modes in order."""

    lattice: Lattice
    rows: np.ndarray | slice
    modes: np.ndarray

    def __post_init__(self):
        lat = self.lattice
        n_rows = np.arange(lat.n_x**lat.k)[self.rows].size
        if self.modes.shape != (n_rows, lat.n_t):
            raise ValueError("modes must hold n_t time samples for each row")
        if not np.all(np.isfinite(self.modes)):
            raise ValueError("modes must be finite")


def _spatial_modes(f: GridFunction | _ModalForcing) -> _ModalForcing:
    """The forcing in modal form; a grid takes its one spatial transform."""
    if isinstance(f, _ModalForcing):
        return f
    lat = f.lattice
    fhat = np.fft.fftn(f.samples, axes=tuple(range(lat.k)), norm="ortho")
    return _ModalForcing(lat, slice(None), fhat.reshape(-1, lat.n_t))


def _duhamel_weights(op: PeriodicParabolicOperator, lat: Lattice) -> np.ndarray:
    """Exponential-quadrature weights (e^z, h (phi1 - phi2), h phi2) with
    z = -lambda h, one column per spatial mode of the lattice (flat C
    order).  Raises StabilityError if any mode of the lattice has
    Re lambda < 0 (a genuinely growing mode)."""
    lam = op.lambda_modes(lat)
    re_min = float(np.min(lam.real))
    if re_min < -1e-12 * (1.0 + float(np.max(np.abs(lam)))):
        bad = np.unravel_index(int(np.argmin(lam.real)), lam.shape)
        xi = lat.xi_axis()
        xi_bad = [float(xi[i]) for i in bad]
        raise StabilityError(
            f"mode xi = {xi_bad} has Re lambda = {re_min:.3e} < 0; "
            "the evolution grows exponentially",
            xi=np.asarray(xi_bad),
            lam=complex(lam[bad]),
        )
    h = lat.L_t / lat.n_t
    z = -lam.reshape(-1) * h
    p1, p2 = _phi12(z)
    return np.stack((np.exp(z), h * (p1 - p2), h * p2))


def _duhamel_modes(
    op: PeriodicParabolicOperator, weights: np.ndarray, rows, fhat: np.ndarray
) -> np.ndarray:
    """Duhamel solution on the spatial modes rows (flat indices, or
    slice(None) for all) from the modes fhat of a supported forcing there,
    one row of n_t time samples each; weights are _duhamel_weights of the
    lattice.  Every mode is exactly 0 for t <= 0."""
    ez, w_left, w_right = weights[:, rows]
    modes = fhat / op.a_t
    u = np.zeros_like(modes)
    n_t = modes.shape[-1]
    for j in range(n_t // 2, n_t - 1):  # from t = 0
        u[:, j + 1] = ez * u[:, j] + w_left * modes[:, j] + w_right * modes[:, j + 1]
    return u


def solve_periodic(op: PeriodicParabolicOperator, f: GridFunction) -> GridFunction:
    """Duhamel solution with zero Cauchy data; vanishes exactly for t <= 0.

    The forcing must be supported in 0 <= t <= tau.  Raises StabilityError
    if any mode has Re lambda < 0 (a genuinely growing mode).
    """
    lat = f.lattice
    _check_forcing(op, lat, f.samples)
    f = _spatial_modes(f)
    u = _duhamel_modes(op, _duhamel_weights(op, lat), f.rows, f.modes)
    u = np.fft.ifftn(u.reshape(lat.shape), axes=tuple(range(lat.k)), norm="ortho")
    return GridFunction(lat, u)


def _time_derivative(samples: np.ndarray, lat: Lattice, mode: str) -> np.ndarray:
    h = lat.L_t / lat.n_t
    if mode == "spectral":
        eta = lat.eta_axis()
        coeffs = np.fft.fft(samples, axis=-1, norm="ortho")
        return np.fft.ifft(coeffs * (1j * eta), axis=-1, norm="ortho")
    if mode == "fd4":
        return (
            -np.roll(samples, -2, axis=-1)
            + 8 * np.roll(samples, -1, axis=-1)
            - 8 * np.roll(samples, 1, axis=-1)
            + np.roll(samples, 2, axis=-1)
        ) / (12 * h)
    raise ValueError(f"unknown time_derivative mode {mode!r}")


def apply_operator(
    op: PeriodicParabolicOperator,
    u: GridFunction,
    *,
    f: GridFunction | None = None,
    time_derivative: str = "spectral",
) -> GridFunction:
    """Apply the operator: spatial spectral multiplier plus a_t d/dt.

    time_derivative selects how d/dt is discretized: "spectral" (exact for
    smooth time-periodic u), "fd4" (a local stencil, usable on solutions
    whose free tail wraps around the window), or "duhamel"
    (exact differentiation of the stored Duhamel representation; requires
    the forcing f and reproduces it identically at the nodes).
    """
    lat = u.lattice
    op._check_lattice(lat)
    k = lat.k
    mult = op.spatial_multiplier(lat)
    u_modes = np.fft.fftn(u.samples, axes=tuple(range(k)), norm="ortho")
    spatial = mult[..., None] * u_modes
    if time_derivative == "duhamel":
        if f is None:
            raise ValueError("duhamel differentiation needs the forcing f")
        lam = op.lambda_modes(lat)
        fhat = np.fft.fftn(f.samples, axes=tuple(range(k)), norm="ortho")
        dudt_modes = fhat / op.a_t - lam[..., None] * u_modes
        total = op.a_t * dudt_modes + spatial
        return GridFunction(
            lat, np.fft.ifftn(total, axes=tuple(range(k)), norm="ortho")
        )
    dudt = _time_derivative(u.samples, lat, time_derivative)
    spatial_phys = np.fft.ifftn(spatial, axes=tuple(range(k)), norm="ortho")
    return GridFunction(lat, op.a_t * dudt + spatial_phys)


def roundtrip_residual(op: PeriodicParabolicOperator, f: GridFunction) -> float:
    """Relative L2 size of (A u - f) at interior nodes 0 < t < tau, for u
    the solve_periodic solution of A u = f.

    d/dt is the fourth-order stencil, so that the measured residual
    reflects the quadrature error of the solve rather than the error of the
    residual evaluator itself.
    """
    u = solve_periodic(op, f)
    au = apply_operator(op, u, time_derivative="fd4")
    t = f.lattice.t_axis()
    interior = (t > 0.0) & (t < op.tau)
    resid = (au.samples - f.samples)[..., interior]
    base = f.samples[..., interior]
    denom = float(np.linalg.norm(base.ravel()))
    if denom == 0.0:
        raise ValueError("forcing vanishes on the window")
    return float(np.linalg.norm(resid.ravel())) / denom


def two_sided_ratio(
    op: PeriodicParabolicOperator,
    ensemble: Iterable[GridFunction | _ModalForcing],
    sigma: float,
    phi: PhiFunction | None = None,
) -> tuple[float, float]:
    """(min, max) over the ensemble of ||u||_{sigma,+} / ||f||_{sigma - 2m}.

    Finite, stable bounds certify the two-sided a priori estimate on the
    lattice.  Requires sigma > 2m and a nondegenerate ensemble.  The
    ensemble may be any iterable, a generator included.  Each member is
    read once, in order, and the next one is drawn only after the current
    one's ratio is taken, so a generator keeps one member in memory at a
    time (besides the one it is making).  The lattice, the plus-norm solver,
    the forcing weight and the Duhamel weights come from the first member.
    A member is a GridFunction, which takes one spatial transform and then
    occupies every spatial mode, or a _ModalForcing, a forcing's spatial
    modes on the rows it occupies (model-verify passes the band of each
    synthesized forcing that way).  A spatial mode off those rows stays
    exactly zero through the Duhamel solve and its own plus-norm block, so
    the forcing norm, the Duhamel modes and the plus-norm blocks are taken
    on the rows alone.  Up to rounding this equals solve_periodic, then
    PlusNormSolver.solve, over hnorm of f, with the same refusals; the
    stability refusal covers every mode of the lattice, not only the rows.
    """
    if phi is None:
        phi = constant_one()
    order = 2 * op.symbol.m
    if not sigma > order:
        raise ValueError(f"need sigma > {order}")
    members = iter(ensemble)
    f = next(members, None)
    if f is None:
        raise ValueError("ensemble must be nonempty")
    lat = f.lattice
    weights = _duhamel_weights(op, lat)
    gamma = 1.0 / (2.0 * op.symbol.b)
    idx_u = AnisotropicIndex(sigma, gamma, phi)
    idx_f = AnisotropicIndex(sigma - order, gamma, phi)
    region = time_window_region(lat, 0.0, op.tau)
    solver = PlusNormSolver(idx_u, region)
    # a time window is constant across x, so its masks commute with the
    # spatial DFT and the solution never leaves spatial modes
    assert solver.slab
    off_v = ~region.v_mask.reshape(-1, lat.n_t)[0]
    w_f = weight_array(lat, idx_f).reshape(-1, lat.n_t)
    ratios = []
    while f is not None:
        if f.lattice != lat:
            raise ValueError("ensemble members live on different lattices")
        f = _spatial_modes(f)
        _check_forcing(op, lat, f.modes)
        coeffs = np.fft.fft(f.modes, axis=-1, norm="ortho")
        fn = _parseval_norm(w_f[f.rows] * np.abs(coeffs), lat)
        if fn == 0.0:
            raise ValueError("ensemble contains a zero forcing; ratio undefined")
        u = _duhamel_modes(op, weights, f.rows, f.modes)
        u[:, off_v] = 0.0  # the data on V
        ratios.append(solver._minimise(u, f.rows) / fn)
        f = next(members, None)
    return float(min(ratios)), float(max(ratios))


def _time_bump(lattice: Lattice, tau: float) -> np.ndarray:
    """exp(-1/(y(1-y))) at y = t/tau inside (0, 1), 0 outside, along the
    time axis."""
    y = lattice.t_axis() / tau
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(
            (y > 0.0) & (y < 1.0), np.exp(-1.0 / np.clip(y * (1.0 - y), 1e-300, None)), 0.0
        )


def _forcing_band(lattice: Lattice, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The spatial rows a synthesized forcing occupies (flat indices, C
    order over the spatial axes) and its unscaled spatial modes there: the
    seeded coefficients of mode numbers |m| <= 2 on every axis, inverse
    transformed along time."""
    rng = np.random.default_rng(seed)
    k = lattice.k
    band = 2
    width = 2 * band + 1
    coeff = rng.standard_normal((width,) * (k + 1)) + 1j * rng.standard_normal(
        (width,) * (k + 1)
    )
    m = np.arange(-band, band + 1)
    occupied, slot = np.unique(m % lattice.n_x, return_inverse=True)
    bins = np.zeros((occupied.size,) * k + (lattice.n_t,), dtype=complex)
    # (-1)**m_t aligns the index transform with the centered time window;
    # where modes alias (n < 5) the last mode in C order wins
    bins[np.ix_(*(slot,) * k, m % lattice.n_t)] = coeff * (-1.0) ** m
    rows = np.ravel_multi_index(np.ix_(*(occupied,) * k), (lattice.n_x,) * k).ravel()
    return rows, np.fft.ifft(bins, axis=-1, norm="ortho").reshape(rows.size, lattice.n_t)


def _scale_forcing(values: np.ndarray, lattice: Lattice, tau: float) -> np.ndarray:
    """The band's samples or modes (time last) times sqrt(N) and the bump."""
    # exp(-1/(y(1-y))) peaks at exp(-4); rescale to O(1)
    return values * math.sqrt(lattice.size) * (_time_bump(lattice, tau) * 54.6)


def _forcing_modes(lattice: Lattice, tau: float, seed: int) -> _ModalForcing:
    """synthesize_forcing(lattice, tau, seed) in modal form: its spatial
    modes on the at most 5**k rows of its band, equal to the spatial
    transform of its samples up to rounding."""
    rows, modes = _forcing_band(lattice, seed)
    return _ModalForcing(lattice, rows, _scale_forcing(modes, lattice, tau))


def synthesize_forcing(lattice: Lattice, tau: float, seed: int) -> GridFunction:
    """Random field with mode numbers |m| <= 2 on every axis, times a smooth
    time bump supported in (0, tau).

    The spectral coefficients depend only on the integer mode numbers and
    the seed, so refining the lattice samples the same continuum function.
    """
    rows, modes = _forcing_band(lattice, seed)
    bins = np.zeros(lattice.shape, dtype=complex)
    bins.reshape(-1, lattice.n_t)[rows] = modes
    field = np.fft.ifftn(bins, axes=tuple(range(lattice.k)), norm="ortho")
    return GridFunction(lattice, _scale_forcing(field, lattice, tau))


_GROWTH_LIMIT = 2.0


@dataclass(frozen=True)
class InheritanceReport:
    levels: list
    flagged: bool
    growth_limit: float

    def to_json_dict(self) -> dict:
        return {
            "levels": self.levels,
            "flagged": self.flagged,
            "growth_limit": self.growth_limit,
        }


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
    if phi is None:
        phi = constant_one()
    order = 2 * op.symbol.m
    if not sigma > order:
        raise ValueError(f"need sigma > {order}")
    if levels < 1:
        raise ValueError(f"levels must be at least 1, got {levels}")
    gamma = 1.0 / (2.0 * op.symbol.b)
    idx_u = AnisotropicIndex(sigma, gamma, phi)
    idx_f = AnisotropicIndex(sigma - order, gamma, phi)
    rows = []
    lat = base_lattice
    prev_u = None
    flagged = False
    for level in range(levels):
        r = r_gamma_array(lat, gamma)
        profile = r ** (-(sigma - order + extra_decay)) / eval_phi(phi, r)
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
            {
                "n_x": lat.n_x,
                "n_t": lat.n_t,
                "f_norm": f_norm,
                "u_norm": u_norm,
                "growth": growth,
            }
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

import math
import warnings

import numpy as np
import pytest

# Hypothesis's pytest plugin imports this module when a property fails, and
# the import warns (DeprecationWarning, mypy_extensions.TypedDict), which the
# "error" warning filter turns into an internal error that ends the run.
# Imported once here, with that one category ignored, it is cached for then.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from hormspace import parabolicity as pb
from hormspace import plus_spaces as ps
from hormspace import spectra as sp


def heat_symbol(n=2):
    """d/dt - Laplacian, written with D_k = i d/dx_k (so -Lap = sum D_k**2)."""
    coeffs = {((0,) * n, 1): 1.0}
    for j in range(n):
        alpha = [0] * n
        alpha[j] = 2
        coeffs[(tuple(alpha), 0)] = 1.0
    return pb.PrincipalSymbol(n=n, b=1, m=1, coeffs=coeffs)


def backward_heat_symbol(n=2):
    coeffs = {((0,) * n, 1): -1.0}
    for j in range(n):
        alpha = [0] * n
        alpha[j] = 2
        coeffs[(tuple(alpha), 0)] = 1.0
    return pb.PrincipalSymbol(n=n, b=1, m=1, coeffs=coeffs)


def squared_heat_symbol(n=2):
    """(p + |xi|**2)**2: biharmonic in space, second order in time (kappa=2)."""
    coeffs = {((0,) * n, 2): 1.0}
    for j in range(n):
        alpha = [0] * n
        alpha[j] = 2
        coeffs[(tuple(alpha), 1)] = 2.0
    for i in range(n):
        for j in range(i, n):
            alpha = [0] * n
            alpha[i] += 2
            alpha[j] += 2
            coeffs[(tuple(alpha), 0)] = 1.0 if i == j else 2.0
    return pb.PrincipalSymbol(n=n, b=1, m=2, coeffs=coeffs)


def dirichlet_symbol(n=2):
    return pb.BoundarySymbol(n=n, b=1, m_j=0, coeffs={((0,) * n, 0): 1.0})


def neumann_symbol(n=2):
    alpha = [0] * n
    alpha[-1] = 1
    return pb.BoundarySymbol(n=n, b=1, m_j=1, coeffs={(tuple(alpha), 0): 1.0})


def tangential_symbol(n=2):
    alpha = [0] * n
    alpha[0] = 1
    return pb.BoundarySymbol(n=n, b=1, m_j=1, coeffs={(tuple(alpha), 0): 1.0})


def dft_matrix(n):
    j = np.arange(n)
    return np.exp(-2j * math.pi * np.outer(j, j) / n) / math.sqrt(n)


def full_dft_matrix(lattice):
    mats = [dft_matrix(lattice.n_x)] * lattice.k + [dft_matrix(lattice.n_t)]
    F = mats[0]
    for M in mats[1:]:
        F = np.kron(F, M)
    return F


def oracle_plus_norm(u_full, idx, region):
    """Brute-force least-norm extension via an explicit DFT matrix and lstsq."""
    lat = region.lattice
    F = full_dft_matrix(lat)
    w = sp.weight_array(lat, idx).ravel()
    fixed = (region.v_mask | ~region.t_nonneg_mask).ravel()
    free = (region.t_nonneg_mask & ~region.v_mask).ravel()
    wfix = np.where(fixed, np.asarray(u_full).ravel(), 0)
    A = (w[:, None] * F)[:, free]
    c = w * (F @ wfix)
    if free.sum():
        z, *_ = np.linalg.lstsq(A, -c, rcond=None)
        resid = A @ z + c
    else:
        resid = c
    return float(np.linalg.norm(resid) * math.sqrt(lat.cell_volume))


def duhamel_step_residual(op, f, u, nodes=64):
    """Relative misfit of u to the Duhamel steps of the forcing f, in
    spatial modes: from every time sample t_j >= 0 to the next, with
    h = t_{j+1} - t_j, the step must give

        u_{j+1} = e^{-lambda h} u_j
                  + (1/a_t) int_0^h e^{-lambda (h - s)} ((1 - s/h) f_j + (s/h) f_{j+1}) ds,

    the exact solution for the piecewise-linear interpolant of f.  The
    integral is taken by Gauss-Legendre quadrature, independently of the
    solver's phi1/phi2 weights.  Returns ||misfit|| / ||u_{j+1}|| over all
    modes and steps."""
    lat = f.lattice
    axes = tuple(range(lat.k))
    fh = np.fft.fftn(f.samples, axes=axes, norm="ortho").reshape(-1, lat.n_t)
    uh = np.fft.fftn(u.samples, axes=axes, norm="ortho").reshape(-1, lat.n_t)
    lam = op.lambda_modes(lat).reshape(-1, 1)
    h = lat.L_t / lat.n_t
    x, w = np.polynomial.legendre.leggauss(nodes)
    s, w = 0.5 * h * (x + 1.0), 0.5 * h * w
    kernel = np.exp(-lam * (h - s)) * w
    left, right = kernel @ (1.0 - s / h), kernel @ (s / h)
    j = np.arange(lat.n_t // 2, lat.n_t - 1)
    step = np.exp(-lam * h) * uh[:, j] + (left[:, None] * fh[:, j] + right[:, None] * fh[:, j + 1]) / op.a_t
    return float(np.linalg.norm(uh[:, j + 1] - step) / np.linalg.norm(uh[:, j + 1]))


def scattered_16x32():
    """A k=1, 16x32 lattice with a seeded scattered 30% region in t >= 0 and
    complex data on it.  At gamma = 1/2 its normal equations have condition
    number ~3.4e11 at s = 14 and ~9.2e12 at s = 16, either side of 1e12."""
    lat = sp.Lattice(k=1, n_x=16, n_t=32, L_x=2 * math.pi, L_t=2 * math.pi)
    rng = np.random.default_rng(3)
    tn = np.broadcast_to(lat.t_axis() >= 0, lat.shape).copy()
    v = (rng.random(lat.shape) < 0.3) & tn
    u = rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape)
    return ps.RegionMask(lat, v, tn), np.where(v, u, 0)


@pytest.fixture
def small_lattice():
    return sp.Lattice(k=1, n_x=8, n_t=8, L_x=2 * math.pi, L_t=2 * math.pi)


@pytest.fixture
def medium_lattice():
    return sp.Lattice(k=2, n_x=16, n_t=16, L_x=2 * math.pi, L_t=2 * math.pi)

import math

import numpy as np
import pytest

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

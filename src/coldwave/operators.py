"""Finite-difference model operator L = (x-y^2) d_xx + d_yy + kappa d_x.

Second-order centered stencils at interior lattice points; one-sided
second-order stencils on the lattice edges so that full-lattice
applications stay exact for quadratic fields.  The adjoint swaps the
drift coefficient kappa for 2 - kappa.  The coefficient x - y^2 is read
from the grid (``Grid2D.K``).
"""

import numpy as np

# Largest drift kappa of each boundary condition; kappa lies in [0, max].
KAPPA_MAX = {"closed_dirichlet": 2.0, "mixed": 1.0}


def _d1(u, h, axis):
    """First derivative, centered inside, 3-point one-sided at the ends."""
    u = np.moveaxis(u, axis, 0)
    out = np.empty_like(u, dtype=float)
    out[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
    out[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
    out[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def _d2(u, h, axis):
    """Second derivative, centered inside, 4-point one-sided at the ends."""
    u = np.moveaxis(u, axis, 0)
    out = np.empty_like(u, dtype=float)
    h2 = h * h
    out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h2
    out[0] = (2.0 * u[0] - 5.0 * u[1] + 4.0 * u[2] - u[3]) / h2
    out[-1] = (2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]) / h2
    return np.moveaxis(out, 0, axis)


def gradient(u, grid):
    """Nodal (u_x, u_y) by the same stencils as the operator."""
    return _d1(u, grid.hx, 0), _d1(u, grid.hy, 1)


def apply_L(u, grid, kappa):
    """Apply L to a full-lattice field; returns a full-lattice field."""
    return grid.K * _d2(u, grid.hx, 0) + _d2(u, grid.hy, 1) \
        + kappa * _d1(u, grid.hx, 0)


def apply_L_adjoint(u, grid, kappa):
    """Apply the formal adjoint L* (drift coefficient 2 - kappa)."""
    return apply_L(u, grid, 2.0 - kappa)


def assemble_dirichlet(grid, kappa):
    """Sparse (CSR) matrix of L on interior unknowns with zero boundary
    values.

    Row k is the centered stencil of L at the k-th interior node;
    columns reference interior nodes only (boundary neighbors carry the
    imposed zero).  Returns (A, index) where index maps lattice (i, j)
    to unknown number (-1 elsewhere).
    """
    interior = grid.interior
    idx = -np.ones(interior.shape, dtype=int)
    ii, jj = np.nonzero(interior)
    n = ii.size
    idx[ii, jj] = np.arange(n)
    hx2 = grid.hx * grid.hx
    hy2 = grid.hy * grid.hy
    rows = np.arange(n)
    Kc = grid.K[ii, jj]
    triplets = [(rows, rows, -2.0 * Kc / hx2 - 2.0 / hy2)]
    for di, dj, coeff in (
        (1, 0, Kc / hx2 + kappa / (2.0 * grid.hx)),
        (-1, 0, Kc / hx2 - kappa / (2.0 * grid.hx)),
        (0, 1, np.full(n, 1.0 / hy2)),
        (0, -1, np.full(n, 1.0 / hy2)),
    ):
        nb = idx[ii + di, jj + dj]
        has = nb >= 0
        triplets.append((rows[has], nb[has], coeff[has]))
    return _csr(triplets, (n, n)), idx


def _csr(triplets, shape):
    """CSR matrix from (rows, cols, values) triplets; duplicates add up
    and zero values are not stored."""
    import scipy.sparse as sp

    r, c, v = (np.concatenate(parts) for parts in zip(*triplets))
    keep = v != 0.0
    return sp.csr_array((v[keep], (r[keep], c[keep])), shape=shape)


def assemble_mixed(grid, kappa, g_mask, offg_mask):
    """Sparse (CSR) matrix of the first-order system
        K d_x u1 + d_y u2 + kappa u1 = f1
        d_y u1 - d_x u2             = f2
    with u1 = 0 on g_mask nodes and u2 = 0 on offg_mask nodes.

    Equations are the centered stencils at interior nodes (f-rows come
    in the order eq1-at-node then eq2-at-node, node-major).  Returns
    (A, idx1, idx2) where idx1/idx2 map lattice nodes to the unknown
    numbers of u1/u2 (-1 where constrained or outside).
    """
    inside = grid.inside
    interior = grid.interior
    free1 = inside & ~g_mask
    free2 = inside & ~offg_mask
    idx1 = -np.ones(inside.shape, dtype=int)
    idx2 = -np.ones(inside.shape, dtype=int)
    n1 = int(free1.sum())
    idx1[free1] = np.arange(n1)
    idx2[free2] = n1 + np.arange(int(free2.sum()))
    n_unknown = n1 + int(free2.sum())

    ii, jj = np.nonzero(interior)
    n_int = ii.size
    K = grid.K[ii, jj]
    r1 = 2 * np.arange(n_int)
    r2 = r1 + 1
    triplets = []

    def add(rows, cols, coeff):
        has = cols >= 0
        triplets.append((rows[has], cols[has],
                         np.broadcast_to(coeff, rows.shape)[has]))

    inv2hx = 1.0 / (2.0 * grid.hx)
    inv2hy = 1.0 / (2.0 * grid.hy)
    # eq1: K u1_x + u2_y + kappa u1
    add(r1, idx1[ii + 1, jj], K * inv2hx)
    add(r1, idx1[ii - 1, jj], -K * inv2hx)
    add(r1, idx1[ii, jj], np.full(n_int, kappa))
    add(r1, idx2[ii, jj + 1], np.full(n_int, inv2hy))
    add(r1, idx2[ii, jj - 1], np.full(n_int, -inv2hy))
    # eq2: u1_y - u2_x
    add(r2, idx1[ii, jj + 1], np.full(n_int, inv2hy))
    add(r2, idx1[ii, jj - 1], np.full(n_int, -inv2hy))
    add(r2, idx2[ii + 1, jj], np.full(n_int, -inv2hx))
    add(r2, idx2[ii - 1, jj], np.full(n_int, inv2hx))
    return _csr(triplets, (2 * n_int, n_unknown)), idx1, idx2

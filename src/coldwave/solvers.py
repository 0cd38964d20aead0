"""Least-squares solvers for the degenerate model operator.

Closed Dirichlet: minimize ||L_h u - f|| over interior unknowns with
u = 0 imposed as eliminated boundary values, via rank-revealing
(column-pivoted) QR; the condition estimate is the ratio of extreme
diagonal entries of the triangular factor, which is also the
ill-posedness diagnostic.  Mixed problem: min-norm least squares of the
first-order system with component constraints on G and its complement.
"""

import numpy as np
import scipy.linalg as sla
from dataclasses import dataclass, field

from .errors import (FactorizationFailure, InadmissibleBoundary,
                     InsufficientLevels)
from .grid import Grid2D
from .multipliers import boundary_admissible
from .operators import assemble_dirichlet, assemble_mixed
from .quadrature import (decompose_cells, integrate_signed, integrate_uncut,
                         weighted_norms)
from .typegeometry import canonical_type_function

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ModelProblem:
    """Boundary-value problem for L = (x-y^2) d_xx + d_yy + kappa d_x.

    ``forcing`` is a vectorized callable (x, y) -> f, an ndarray of
    nodal samples, or None (zero).  The mixed problem takes a pair of
    such forcings and the tuple G of constrained boundary-segment names.
    """

    kappa: float
    domain: object
    forcing: object = None
    bc: str = "closed_dirichlet"
    G: tuple = ()
    contains_origin: bool = field(init=False)
    contains_sonic_arc: bool = field(init=False)

    def __post_init__(self):
        if self.bc not in ("closed_dirichlet", "mixed"):
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        if self.bc == "closed_dirichlet" and not 0.0 <= self.kappa <= 2.0:
            raise ValueError("closed Dirichlet problem needs kappa in [0, 2]")
        if self.bc == "mixed" and not 0.0 <= self.kappa <= 1.0:
            raise ValueError("mixed problem needs kappa in [0, 1]")
        object.__setattr__(self, "G", tuple(self.G))
        object.__setattr__(self, "contains_origin",
                           self.domain.contains_origin)
        object.__setattr__(self, "contains_sonic_arc",
                           self.domain.contains_sonic_arc)


@dataclass(frozen=True)
class DiscreteSolution:
    """Grid solution with residual, conditioning, and weighted norms.

    ``values`` is the scalar nodal field, or the (u1, u2) pair for the
    mixed problem; constrained/outside nodes carry the imposed zeros.
    """

    values: object
    residual_norm: float
    condition_estimate: float
    rank: int
    norms: dict
    diagnostics: dict = field(default_factory=dict)


def _check_finite(name, arr):
    if not np.all(np.isfinite(arr)):
        raise FactorizationFailure(f"{name} contains non-finite values")


def qr_least_squares(A, rhs):
    """Rank-revealing least squares (m >= n): column-pivoted QR with
    truncated back substitution (free pivots zero).  Returns
    (x, condition_estimate, rank)."""
    m, n = A.shape
    _check_finite("matrix", A)
    Q, R, piv = sla.qr(A, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    _check_finite("triangular factor", diag)
    dmax = float(diag.max()) if n else 0.0
    rank = int(np.sum(diag > max(m, n) * _EPS * dmax)) if dmax > 0.0 else 0
    y = Q.T @ rhs
    xp = np.zeros(n)
    if rank:
        xp[:rank] = sla.solve_triangular(R[:rank, :rank], y[:rank])
    x = np.empty(n)
    x[piv] = xp
    _check_finite("solution", x)
    cond = float(diag[0] / diag[-1]) if diag[-1] > 0.0 else np.inf
    return x, cond, rank


def qr_min_norm(A, rhs):
    """Minimum-norm solution of an underdetermined system (m <= n) via
    QR of the transpose; escalates to the pivoted factorization when the
    plain one looks rank-deficient."""
    m, n = A.shape
    _check_finite("matrix", A)
    Q, R = sla.qr(A.T, mode="economic")
    diag = np.abs(np.diag(R))
    _check_finite("triangular factor", diag)
    dmax = float(diag.max()) if m else 0.0
    if dmax > 0.0 and diag.min() > max(m, n) * _EPS * dmax:
        z = sla.solve_triangular(R.T, rhs, lower=True)
        x = Q @ z
        _check_finite("solution", x)
        return x, float(diag.max() / diag.min()), m
    Qp, Rp, piv = sla.qr(A.T, mode="economic", pivoting=True)
    dd = np.abs(np.diag(Rp))
    _check_finite("triangular factor", dd)
    dpmax = float(dd.max()) if m else 0.0
    rank = int(np.sum(dd > max(m, n) * _EPS * dpmax)) if dpmax > 0.0 else 0
    z = np.zeros(m)
    if rank:
        z[:rank] = sla.solve_triangular(Rp[:rank, :rank].T,
                                        rhs[piv][:rank], lower=True)
    x = Qp @ z
    _check_finite("solution", x)
    cond = float(dd[0] / dd[-1]) if dd[-1] > 0.0 else np.inf
    return x, cond, rank


def _forcing_values(forcing, grid):
    if forcing is None:
        return np.zeros((grid.nx, grid.ny))
    if callable(forcing):
        return grid.evaluate(forcing)
    arr = np.asarray(forcing, dtype=float)
    if arr.shape != (grid.nx, grid.ny):
        raise ValueError(
            f"forcing samples have shape {arr.shape}, grid needs "
            f"({grid.nx}, {grid.ny})"
        )
    return arr


def solve_closed_dirichlet(problem, grid):
    """Least-squares solve of L_h u = f with u = 0 on the boundary.

    The system is square on the interior unknowns; rank deficiency and
    ill conditioning are expected (and reported) on domains meeting the
    sonic curve.  No uniqueness is implied by the returned minimizer.
    """
    A, idx = assemble_dirichlet(grid, problem.kappa)
    f = _forcing_values(problem.forcing, grid)[grid.interior]
    x, cond, rank = qr_least_squares(A, f)
    scale = np.sqrt(grid.hx * grid.hy)
    residual = scale * float(np.linalg.norm(A @ x - f))
    values = np.zeros((grid.nx, grid.ny))
    values[grid.interior] = x
    norms = weighted_norms(values, grid, include_dual=False)
    return DiscreteSolution(
        values=values,
        residual_norm=residual,
        condition_estimate=cond,
        rank=rank,
        norms={"l2_weighted": norms.l2_weighted,
               "h1_weighted": norms.h1_weighted},
    )


def _segment_node_mask(grid, segment_names):
    """Boundary-node mask of the union of named segments (single-rect
    domains; corners belong to both adjacent segments)."""
    mask = np.zeros((grid.nx, grid.ny), dtype=bool)
    for seg in grid.domain.boundary_segments():
        if seg.name not in segment_names:
            continue
        if seg.name == "bottom":
            mask[:, 0] = True
        elif seg.name == "top":
            mask[:, -1] = True
        elif seg.name == "left":
            mask[0, :] = True
        elif seg.name == "right":
            mask[-1, :] = True
    return mask & grid.boundary


def solve_mixed(problem, grid, spec, check_boundary=True, n_quad=256):
    """Min-norm least squares for the first-order mixed system.

    Imposes u1 = 0 on G and u2 = 0 on the complementary boundary, after
    checking the multiplier's boundary sign conditions (raises
    InadmissibleBoundary when they fail).  The integrability proviso
    int |K^(-1) M^T f|^2 is sampled over uncut cells and reported in
    ``diagnostics`` together with the excluded cut-cell area.
    """
    if problem.bc != "mixed":
        raise ValueError("problem.bc must be 'mixed'")
    if check_boundary:
        report = boundary_admissible(problem.domain, problem.G, spec,
                                     n_quad=n_quad)
        if not report.admissible:
            bad = [r.name for r in report.segments if not r.admissible]
            raise InadmissibleBoundary(
                f"boundary sign conditions fail on segments {bad}"
            )
    g_mask = _segment_node_mask(grid, set(problem.G))
    all_names = {s.name for s in grid.domain.boundary_segments()}
    offg_mask = _segment_node_mask(grid, all_names - set(problem.G))
    A, idx1, idx2 = assemble_mixed(grid, problem.kappa, g_mask, offg_mask)

    f1_fn, f2_fn = problem.forcing
    f1 = _forcing_values(f1_fn, grid)
    f2 = _forcing_values(f2_fn, grid)
    ii, jj = np.nonzero(grid.interior)
    rhs = np.empty(2 * ii.size)
    rhs[0::2] = f1[ii, jj]
    rhs[1::2] = f2[ii, jj]

    m, n = A.shape
    if m <= n:
        x, cond, rank = qr_min_norm(A, rhs)
    else:
        x, cond, rank = qr_least_squares(A, rhs)
    scale = np.sqrt(grid.hx * grid.hy)
    residual = scale * float(np.linalg.norm(A @ x - rhs))

    u1 = np.zeros((grid.nx, grid.ny))
    u2 = np.zeros((grid.nx, grid.ny))
    u1[idx1 >= 0] = x[idx1[idx1 >= 0]]
    u2[idx2 >= 0] = x[idx2[idx2 >= 0]]

    decomp = decompose_cells(grid)

    def hk_density(x_, y_, a, b):
        return np.abs(canonical_type_function(x_, y_)) * a * a + b * b

    hk = np.sqrt(max(integrate_signed(decomp, hk_density, hk_density,
                                      (u1, u2)), 0.0))

    def proviso_density(x_, y_, a, b):
        K = canonical_type_function(x_, y_)
        babs = spec.b(x_, y_)
        c = spec.c(y_)
        w1 = (babs * a - K * c * b) / np.abs(K)
        w2 = c * a + babs * b
        return w1 * w1 + w2 * w2

    proviso = integrate_uncut(decomp, proviso_density, (f1, f2))

    return DiscreteSolution(
        values=(u1, u2),
        residual_norm=residual,
        condition_estimate=cond,
        rank=rank,
        norms={"hk_weighted": hk},
        diagnostics={"integrability_sampled": proviso,
                     "excluded_measure": decomp.cut_area,
                     "forcing_norm": scale * float(np.linalg.norm(rhs))},
    )


def illposedness_diagnostic(problem, levels):
    """Condition estimates of the closed-Dirichlet assembly across
    refinement levels (each level is a node count per axis).

    Returns [(h, condition_estimate)] in the given level order; at
    least three levels are required.  On origin-containing domains the
    estimates are expected to grow faster than on purely elliptic ones.
    """
    if len(levels) < 3:
        raise InsufficientLevels("need at least 3 refinement levels")
    out = []
    for n in levels:
        grid = Grid2D(problem.domain, int(n), int(n))
        A, _ = assemble_dirichlet(grid, problem.kappa)
        _check_finite("matrix", A)
        _, R, _ = sla.qr(A, mode="economic", pivoting=True)
        diag = np.abs(np.diag(R))
        _check_finite("triangular factor", diag)
        cond = float(diag[0] / diag[-1]) if diag[-1] > 0.0 else np.inf
        out.append((max(grid.hx, grid.hy), cond))
    return out

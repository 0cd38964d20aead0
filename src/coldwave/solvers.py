"""Sparse direct solvers for the degenerate model operator.

Every grid solve factors one square sparse matrix M with SuperLU
(``scipy.sparse.linalg.splu``) and estimates its 1-norm condition number
kappa_1 = ||M||_1 * est(||M^-1||_1), where est is the Higham-Tisseur
block 1-norm estimator (SIAM J. Matrix Anal. Appl. 21, 2000) run with a
single, deterministic start vector (t = 1).  kappa_1 is a lower bound on
cond_1(M); it is the reported ``condition_estimate`` and, for the
closed-Dirichlet matrix across refinements, the ill-posedness
diagnostic.

Closed Dirichlet: M is the square 5-point matrix of L_h on interior
unknowns with u = 0 imposed as eliminated boundary values.  Mixed
problem: the min-norm solution of the first-order system A x = f with
component constraints on G and its complement, from the KKT matrix
M = [[I, A^T], [A, 0]].  When the factor is exactly singular, when
kappa_1 * eps >= 1, or when A has more rows than columns, LSMR (Fong &
Saunders, SIAM J. Sci. Comput. 33, 2011) gives the min-norm
least-squares solution instead.  ``diagnostics["method"]`` records
which path ran ("splu" or "lsmr").
"""

import numpy as np
from dataclasses import dataclass, field

from .errors import (FactorizationFailure, InadmissibleBoundary,
                     InsufficientLevels)
from .grid import Grid2D
from .multipliers import boundary_admissible
from .operators import assemble_dirichlet, assemble_mixed
from .quadrature import (decompose_cells, integrate_h1_density,
                         integrate_uncut, weighted_norms)
from .typegeometry import canonical_type_function

_EPS = np.finfo(float).eps
_LSMR_TOL = 1e-12


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
    ``rank`` is the number of equations after a nonsingular factor and
    None after the LSMR fallback; ``diagnostics["method"]`` names the
    path ("splu" or "lsmr").
    """

    values: object
    residual_norm: float
    condition_estimate: float
    rank: int | None
    norms: dict
    diagnostics: dict = field(default_factory=dict)


def _check_finite(name, arr):
    if not np.all(np.isfinite(arr)):
        raise FactorizationFailure(f"{name} contains non-finite values")


def _factor(M):
    """SuperLU factor of a square sparse matrix and its condition
    estimate kappa_1 = ||M||_1 * onenormest(M^-1, t=1).

    Returns (None, inf) when SuperLU finds the factor exactly singular.
    ``t=1`` keeps the estimate deterministic: larger t draws random
    start vectors from the global numpy generator.
    """
    import scipy.sparse.linalg as spla

    M = M.tocsc()
    _check_finite("matrix", M.data)
    try:
        lu = spla.splu(M)
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        return None, np.inf

    def solve_t(v):
        return lu.solve(v, trans="T")

    inverse = spla.LinearOperator(M.shape, matvec=lu.solve, matmat=lu.solve,
                                  rmatvec=solve_t, rmatmat=solve_t,
                                  dtype=float)
    norm1 = float(abs(M).sum(axis=0).max())
    return lu, norm1 * float(spla.onenormest(inverse, t=1))


def _lsmr(A, rhs):
    """Min-norm least-squares solution of A x = rhs by LSMR from x = 0;
    raises FactorizationFailure unless LSMR reports convergence."""
    import scipy.sparse.linalg as spla

    _check_finite("matrix", A.data)
    x, istop, itn = spla.lsmr(A, rhs, atol=_LSMR_TOL, btol=_LSMR_TOL,
                              conlim=0.0, maxiter=10 * max(A.shape))[:3]
    if istop not in (0, 1, 2, 4, 5):   # 3, 6: too ill-conditioned; 7: maxiter
        raise FactorizationFailure(
            f"LSMR fallback did not converge (istop={istop} after {itn} "
            "iterations)")
    return x


def _min_norm_solve(A, rhs):
    """Min-norm least-squares solution of the sparse system A x = rhs.

    The path follows A's shape: a square A is factored itself, a wide A
    through the KKT matrix [[I, A^T], [A, 0]], whose solution (x, y) has
    A x = rhs and x = -A^T y, the min-norm solution, and a tall A (whose
    KKT matrix is singular) goes to LSMR.  Falls back to LSMR on A too
    when there is no usable factor.  Returns (x, condition_estimate,
    rank, method); rank is the full row count after a nonsingular factor
    and None after the fallback.
    """
    m, n = A.shape
    b = rhs
    if m == n:
        lu, cond = _factor(A)
    elif m < n:
        import scipy.sparse as sp

        lu, cond = _factor(sp.block_array([[sp.eye_array(n), A.T],
                                           [A, None]]))
        b = np.concatenate((np.zeros(n), rhs))
    else:
        lu, cond = None, np.inf
    if lu is not None and cond * _EPS < 1.0:
        x, rank, method = lu.solve(b)[:n], m, "splu"
    else:
        x, rank, method = _lsmr(A, rhs), None, "lsmr"
    _check_finite("solution", x)
    return x, cond, rank, method


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
    """Solve L_h u = f with u = 0 on the boundary.

    The system is square on the interior unknowns; ill conditioning is
    expected (and reported) on domains meeting the sonic curve, and a
    singular factor falls back to the min-norm least-squares solution.
    No uniqueness is implied by the returned solution.
    """
    A, idx = assemble_dirichlet(grid, problem.kappa)
    f = _forcing_values(problem.forcing, grid)[grid.interior]
    x, cond, rank, method = _min_norm_solve(A, f)
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
        diagnostics={"method": method},
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


def solve_mixed(problem, grid, spec):
    """Min-norm least squares for the first-order mixed system.

    Imposes u1 = 0 on G and u2 = 0 on the complementary boundary, after
    checking the multiplier's boundary sign conditions (raises
    InadmissibleBoundary when they fail).  The integrability proviso
    int |K^(-1) M^T f|^2 is sampled over uncut cells and reported in
    ``diagnostics`` together with the excluded cut-cell area.
    """
    if problem.bc != "mixed":
        raise ValueError("problem.bc must be 'mixed'")
    report = boundary_admissible(problem.domain, problem.G, spec)
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

    x, cond, rank, method = _min_norm_solve(A, rhs)
    scale = np.sqrt(grid.hx * grid.hy)
    residual = scale * float(np.linalg.norm(A @ x - rhs))

    u1 = np.zeros((grid.nx, grid.ny))
    u2 = np.zeros((grid.nx, grid.ny))
    u1[idx1 >= 0] = x[idx1[idx1 >= 0]]
    u2[idx2 >= 0] = x[idx2[idx2 >= 0]]

    decomp = decompose_cells(grid)

    hk = np.sqrt(max(integrate_h1_density(decomp, u1, u2), 0.0))

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
        diagnostics={"method": method,
                     "integrability_sampled": proviso,
                     "excluded_measure": decomp.cut_area,
                     "forcing_norm": scale * float(np.linalg.norm(rhs))},
    )


def illposedness_diagnostic(problem, levels):
    """1-norm condition estimates kappa_1 of the closed-Dirichlet matrix
    across refinement levels (each level is a node count per axis);
    kappa_1 is inf where the factor is exactly singular.

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
        _, cond = _factor(A)
        out.append((max(grid.hx, grid.hy), cond))
    return out

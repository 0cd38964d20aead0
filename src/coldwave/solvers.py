"""Sparse direct solvers for the degenerate model operator.

Every grid solve factors one square sparse matrix M with SuperLU
(``scipy.sparse.linalg.splu``) through one routine, ``_factor``, and
estimates its 1-norm condition number kappa_1 = ||M||_1 *
est(||M^-1||_1), where est is the Higham-Tisseur block 1-norm estimator
(SIAM J. Matrix Anal. Appl. 21, 2000, Algorithm 2.4):
``scipy.sparse.linalg.onenormest(t=1)`` of M^-1, applied through the
factor by ``lu.solve`` and ``lu.solve(trans="T")``.  With one column
(t = 1) no random start vector is drawn.  kappa_1 is a lower bound on
cond_1(M); it is the reported ``condition_estimate`` and, for the
closed-Dirichlet matrix across refinements, the ill-posedness
diagnostic.  ||M||_1 and the ||M||_inf of the probe come from one pass
over |M|, which also finds a zero row or column: such an M is singular
and is not factored.

The factor is static first: MMD ordering on M + M^T with diagonal
pivots (static pivoting as in SuperLU_DIST, Li & Demmel, SC 1998),
about half the fill of COLAMD with partial pivoting on the Dirichlet
matrix.  A probe decides whether it is kept: one refined solve of
M x = 1 (Skeel, Math. Comp. 35, 1980) must have a normwise backward
error ||M x - b||_inf / (||M||_inf ||x||_inf + ||b||_inf) at or below
PROBE_BACKWARD_ERROR.  Otherwise, and when SuperLU finds the static
factor exactly singular, M is refactored with COLAMD and partial
pivoting.

Closed Dirichlet: M = A, the square 5-point matrix of L_h on interior
unknowns with u = 0 imposed as eliminated boundary values.  Mixed
problem: the min-norm solution of the wide first-order system A x = f
with component constraints on G and its complement, by corrected
seminormal equations (Bjorck, Numerical Methods for Least Squares
Problems, SIAM 1996, sec. 6.6) with M = A A^T; its kappa_1 is about the
square of the conditioning of A.  Both take the same solve and one
correction step, x = lift(M^-1 f), x += lift(M^-1 (f - A x)), with lift
the identity for a square A and A^T for a wide one.  On the static
factor the solution's two solves and the probe's two are one
two-column solve each; SuperLU solves each column of a batch as it
would alone, so the batch changes no digit.  After a rejected probe the
solution is solved on the refactor.  When the factor is exactly
singular or when kappa_1 * eps >= 1, LSMR (Fong & Saunders, SIAM J.
Sci. Comput. 33, 2011) gives the min-norm least-squares solution
instead.  ``diagnostics["method"]`` records which path ran ("splu" or
"lsmr"), beside the sizes ``unknowns``, ``nnz`` (of A), ``lu_nnz`` (of
L + U), the ``ordering`` of the factor ("MMD_AT_PLUS_A" for the kept
static factor, "COLAMD" after a rejected probe) and the
``backward_error`` of the returned x on A x = f, whichever path ran.

Every solve builds its grids from the problem through ``_grids``,
which first refuses the other boundary condition and raises
GridTooLarge where the fill model lu_nnz ~ FILL_C * m**FILL_P, in the
order m of M, exceeds the memory (physical, capped by RLIMIT_AS).
"""

import numpy as np
from dataclasses import dataclass, field

from .errors import (FactorizationFailure, GridTooLarge,
                     InadmissibleBoundary, InsufficientLevels)
from .grid import Domain, Grid2D
from .multipliers import boundary_admissible, require_domain
from .operators import KAPPA_MAX, assemble_dirichlet, assemble_mixed
from .quadrature import (decompose_cells, integrate_h1_density,
                         integrate_uncut, weighted_norms)

_EPS = np.finfo(float).eps
_LSMR_TOL = 1e-12

# Largest normwise backward error of the probe's refined solve for
# which the static (diagonal-pivot) factor is kept.
PROBE_BACKWARD_ERROR = 1e-14

# Fill model lu_nnz ~ FILL_C * m**FILL_P of both factored matrices, in
# their order m: an upper envelope of the COLAMD fill of the kappa = 0.5
# Dirichlet matrix on the origin and all-hyperbolic boxes at levels 65 to
# 257, the fill of the refactor that a rejected probe takes (about twice
# the static fill), so that require_memory does not admit grids whose
# refactor could not fit.  BYTES_PER_FILL, the peak bytes of a solve per
# factor nonzero, is from tools/bench_scale.py (BENCH_mixed_csne.json).
FILL_C = 13.7
FILL_P = 1.2
BYTES_PER_FILL = 26.0


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

    def __post_init__(self):
        if self.bc not in KAPPA_MAX:
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        hi = KAPPA_MAX[self.bc]
        if not 0.0 <= self.kappa <= hi:
            raise ValueError(f"kappa out of range [0, {hi:g}] for {self.bc}")
        object.__setattr__(self, "G", tuple(self.G))


@dataclass(frozen=True)
class DiscreteSolution:
    """Grid solution with residual, conditioning, and weighted norms.

    ``values`` is the scalar nodal field on ``grid``, or the (u1, u2) pair
    for the mixed problem; constrained/outside nodes carry the imposed zeros.
    ``rank`` is the number of equations after a nonsingular factor and
    None after the LSMR fallback; ``diagnostics["method"]`` names the
    path ("splu" or "lsmr").
    """

    grid: Grid2D
    values: object
    residual_norm: float
    condition_estimate: float
    rank: int | None
    norms: dict
    diagnostics: dict = field(default_factory=dict)


def _check_finite(name, arr):
    if not np.all(np.isfinite(arr)):
        raise FactorizationFailure(f"{name} contains non-finite values")


def factor_order(bc, nx, ny):
    """Order m of the matrix a solve factors on an nx x ny grid: the
    interior count (nx - 2)(ny - 2) for a closed Dirichlet problem (an
    upper bound on a union of rectangles) and the row count of A, twice
    that, for a mixed one."""
    return (2 if bc == "mixed" else 1) * (nx - 2) * (ny - 2)


def fill_estimate(m):
    """Fill model: estimated nonzeros of L + U for a factored matrix of
    order m."""
    return FILL_C * m ** FILL_P


def _memory_budget():
    """Bytes a solve may use: physical memory, capped by RLIMIT_AS when
    that is set."""
    import os
    import resource

    budget = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    return budget if soft == resource.RLIM_INFINITY else min(budget, soft)


def require_memory(bc, nx, ny):
    """Raise GridTooLarge, before any assembly, when the fill model puts
    the solve of an nx x ny grid above the memory budget."""
    need = BYTES_PER_FILL * fill_estimate(factor_order(bc, nx, ny))
    budget = _memory_budget()
    if need > budget:
        raise GridTooLarge(
            f"grid nx={nx}, ny={ny} needs an estimated {need / 1e6:.0f} MB "
            f"for its sparse factor, above the {budget / 1e6:.0f} MB memory "
            "budget")


def _grids(problem, bc, shapes):
    """Grids of ``problem.domain``, one per (nx, ny) of ``shapes``, each
    built when taken; first ``problem.bc`` must be ``bc`` (ValueError) and
    every shape must pass ``require_memory`` (GridTooLarge)."""
    if problem.bc != bc:
        raise ValueError(f"problem.bc must be {bc!r}")
    for nx, ny in shapes:
        require_memory(bc, nx, ny)
    return (Grid2D(problem.domain, nx, ny) for nx, ny in shapes)


def _abs_sums(M):
    """Column and row sums of |M| for a CSC matrix, from one pass over
    |M.data|: column sums by ``reduceat`` over the nonempty columns of
    ``indptr`` (0 in an empty column) and row sums by ``bincount`` over
    ``indices``, in the order in which scipy sums ``abs(M)`` along each
    axis, so both are its sums bit for bit."""
    a = np.abs(M.data)
    nonempty = np.flatnonzero(np.diff(M.indptr))
    cols = np.zeros(M.shape[1])
    cols[nonempty] = np.add.reduceat(a, M.indptr[nonempty])
    rows = np.bincount(M.indices, weights=a, minlength=M.shape[0])
    return cols, rows


def _backward_error(M, x, b, norm_inf):
    """Normwise backward error ||M x - b||_inf / (||M||_inf ||x||_inf +
    ||b||_inf) of x for M x = b, given ||M||_inf (0 when x and b are
    both zero)."""
    scale = norm_inf * float(np.abs(x).max()) + float(np.abs(b).max())
    residual = float(np.abs(M @ x - b).max())
    return residual / scale if scale > 0.0 else residual


def _splu(M, **settings):
    """SuperLU factor of M with the ``splu`` keywords ``settings``, or
    None when SuperLU finds it exactly singular."""
    import scipy.sparse.linalg as spla

    try:
        return spla.splu(M, **settings)
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        return None


def _refined_solves(lu, systems):
    """Solutions of the systems (A, lift, b) through the factor ``lu`` of
    M: x = lift(M^-1 b), then one correction step x += lift(M^-1 (b -
    A x)), with lift None for the identity or the sparse matrix applied.
    The right-hand sides of all systems go through one ``lu.solve`` per
    step; SuperLU solves each column of a batch as it solves that column
    alone, so every x is the one its system gives by itself.  A failed
    or nearly singular factor gives inf or NaN silently: the probe
    rejects such a factor, and a solution is checked before it is
    used."""
    if not systems:
        return []

    def lifted(lift, v):
        return v if lift is None else lift @ v

    with np.errstate(all="ignore"):
        first = lu.solve(np.column_stack([b for _, _, b in systems]))
        xs = [lifted(lift, first[:, k])
              for k, (_, lift, _) in enumerate(systems)]
        step = lu.solve(np.column_stack(
            [b - A @ x for (A, _, b), x in zip(systems, xs)]))
        for k, ((_, lift, _), x) in enumerate(zip(systems, xs)):
            x += lifted(lift, step[:, k])
    return xs


def _inverse(lu):
    """M^-1 as a LinearOperator through the factor ``lu`` of M: its
    products are solves with the factor and its adjoint's are solves
    with the transposed factor."""
    import scipy.sparse.linalg as spla

    def solve_t(v):
        return lu.solve(v, trans="T")

    return spla.LinearOperator(lu.shape, matvec=lu.solve, matmat=lu.solve,
                               rmatvec=solve_t, rmatmat=solve_t,
                               dtype=float)


def _factor(M, systems=()):
    """SuperLU factor of a square sparse matrix, its condition estimate
    kappa_1 = ||M||_1 * est(||M^-1||_1) (``onenormest`` of ``_inverse``),
    its ordering and the refined solutions of ``systems`` through it.

    The static factor (``MMD_AT_PLUS_A``, diagonal pivots) is kept when
    its probe accepts it.  The probe's two solves also solve
    ``systems``, a sequence of (A, lift, b) as in ``_refined_solves``:
    one batch of right-hand sides per solve.  Otherwise M is refactored
    with ``COLAMD`` and partial pivoting, and ``systems`` are solved on
    that factor.  Returns (lu, kappa_1, ordering, xs), with one x in xs
    per system, or (None, inf, "COLAMD", None) when SuperLU finds the
    refactor exactly singular too.  A matrix with a zero row or column
    of |M| is singular and never reaches SuperLU, whose factorization
    of it can raise an error that does not say "singular" or crash the
    interpreter: it returns the same.
    """
    import scipy.sparse.linalg as spla

    M = M.tocsc(copy=True)   # a copy even when M is CSC: the caller's stays
    _check_finite("matrix", M.data)
    M.sum_duplicates()   # as splu does in place, before |M| is summed
    cols, rows = _abs_sums(M)
    if not (cols.all() and rows.all()):
        return None, np.inf, "COLAMD", None
    norm1 = float(cols.max(initial=0.0))
    norm_inf = float(rows.max(initial=0.0))
    ones = np.ones(M.shape[0])
    probe = (M, None, ones)
    ordering = "MMD_AT_PLUS_A"
    lu = _splu(M, permc_spec=ordering, diag_pivot_thresh=0.0,
               options={"SymmetricMode": True})
    if lu is not None:
        y, *xs = _refined_solves(lu, [probe, *systems])
        if not (_backward_error(M, y, ones, norm_inf)
                <= PROBE_BACKWARD_ERROR):   # a NaN error rejects too
            lu = None   # released before the refactor allocates its own
    if lu is None:
        ordering = "COLAMD"
        lu = _splu(M, permc_spec=ordering)
        if lu is None:
            return None, np.inf, ordering, None
        xs = _refined_solves(lu, systems)
    return lu, norm1 * float(spla.onenormest(_inverse(lu), t=1)), ordering, xs


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

    A square A is factored itself and a wide A by corrected seminormal
    equations, through a factor of N = A A^T; both take one correction
    step, x = lift(M^-1 rhs), x += lift(M^-1 (rhs - A x)), with lift the
    identity or A^T, in the same solves as the factor's probe.  Any A
    whose factor is exactly singular or has kappa_1 * eps >= 1 goes to
    LSMR.  Returns (x, condition_estimate, rank, method, sizes): kappa_1
    of the factored matrix (A or N), the full row count after a usable
    factor and None after the fallback, and the ``unknowns`` and ``nnz``
    of A, the factor's ``lu_nnz`` (None without a factor), its
    ``ordering`` and the ``backward_error`` of x on A x = rhs.
    """
    m, n = A.shape
    lu, cond, ordering, xs = _factor(A if m == n else A @ A.T,
                                     [(A, None if m == n else A.T, rhs)])
    if lu is None or cond * _EPS >= 1.0:
        x, rank, method = _lsmr(A, rhs), None, "lsmr"
    else:
        x, rank, method = xs[0], m, "splu"
    _check_finite("solution", x)
    # ||A||_inf summed in A's own (CSR) order: the CSC sweep of
    # _abs_sums adds each row in another order.  abs sums duplicates in
    # place, so it takes a copy and the caller's A stays as it is
    norm_inf = float(abs(A.copy()).sum(axis=1).max())
    return x, cond, rank, method, {
        "unknowns": n, "nnz": A.nnz,
        "lu_nnz": None if lu is None else int(lu.nnz), "ordering": ordering,
        "backward_error": _backward_error(A, x, rhs, norm_inf)}


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


def solve_closed_dirichlet(problem, nx, ny):
    """Solve L_h u = f with u = 0 on the boundary, on the nx x ny grid
    of ``problem.domain``, which ``_grids`` checks and builds.

    The system is square on the interior unknowns; ill conditioning is
    expected (and reported) on domains meeting the sonic curve, and a
    singular factor falls back to the min-norm least-squares solution.
    No uniqueness is implied by the returned solution.
    """
    grid, = _grids(problem, "closed_dirichlet", [(nx, ny)])
    A, idx = assemble_dirichlet(grid, problem.kappa)
    f = _forcing_values(problem.forcing, grid)[grid.interior]
    x, cond, rank, method, sizes = _min_norm_solve(A, f)
    scale = np.sqrt(grid.hx * grid.hy)
    residual = scale * float(np.linalg.norm(A @ x - f))
    values = np.zeros((grid.nx, grid.ny))
    values[grid.interior] = x
    norms = weighted_norms(values, grid)
    return DiscreteSolution(
        grid=grid,
        values=values,
        residual_norm=residual,
        condition_estimate=cond,
        rank=rank,
        norms={"l2_weighted": norms.l2_weighted,
               "h1_weighted": norms.h1_weighted},
        diagnostics={"method": method, **sizes},
    )


def solve_mixed(problem, nx, ny, spec):
    """Min-norm least squares for the first-order mixed system, on the
    nx x ny grid of ``problem.domain``, which ``_grids`` checks and builds.

    Imposes u1 = 0 on G and u2 = 0 on the complementary boundary after
    checking the sign conditions of ``spec``, a multiplier of
    ``problem.domain`` (InadmissibleBoundary when they fail).  The proviso
    int |K^(-1) M^T f|^2 is sampled over uncut cells and reported in
    ``diagnostics`` together with the excluded cut-cell area.
    """
    grid, = _grids(problem, "mixed", [(nx, ny)])
    require_domain(grid, spec)
    report = boundary_admissible(problem.G, spec)
    if not report.admissible:
        bad = [r.name for r in report.segments if not r.admissible]
        raise InadmissibleBoundary(
            f"boundary sign conditions fail on segments {bad}"
        )
    g_mask = grid.segment_mask(problem.G)
    offg_mask = grid.segment_mask(set(Domain.SEGMENTS) - set(problem.G))
    A, idx1, idx2 = assemble_mixed(grid, problem.kappa, g_mask, offg_mask)

    f1_fn, f2_fn = problem.forcing
    f1 = _forcing_values(f1_fn, grid)
    f2 = _forcing_values(f2_fn, grid)
    ii, jj = np.nonzero(grid.interior)
    rhs = np.empty(2 * ii.size)
    rhs[0::2] = f1[ii, jj]
    rhs[1::2] = f2[ii, jj]

    x, cond, rank, method, sizes = _min_norm_solve(A, rhs)
    scale = np.sqrt(grid.hx * grid.hy)
    residual = scale * float(np.linalg.norm(A @ x - rhs))

    u1 = np.zeros((grid.nx, grid.ny))
    u2 = np.zeros((grid.nx, grid.ny))
    u1[idx1 >= 0] = x[idx1[idx1 >= 0]]
    u2[idx2 >= 0] = x[idx2[idx2 >= 0]]

    decomp = decompose_cells(grid)

    hk = np.sqrt(max(integrate_h1_density(decomp, u1, u2), 0.0))

    proviso = integrate_uncut(
        decomp, lambda K, x, y, f1, f2: spec.proviso_density(K, y, f1, f2),
        (f1, f2))

    return DiscreteSolution(
        grid=grid,
        values=(u1, u2),
        residual_norm=residual,
        condition_estimate=cond,
        rank=rank,
        norms={"hk_weighted": hk},
        diagnostics={"method": method,
                     "integrability_sampled": proviso,
                     "excluded_measure": decomp.cut_area,
                     "forcing_norm": scale * float(np.linalg.norm(rhs)),
                     **sizes},
    )


def illposedness_diagnostic(problem, levels):
    """1-norm condition estimates kappa_1 of the closed-Dirichlet matrix
    across refinement levels (each level is a node count per axis);
    kappa_1 is inf where the factor is exactly singular.

    Returns [(h, condition_estimate)] in the given level order; at
    least three levels are required, and ``_grids`` checks every level
    before the first is built.  The estimates are reported per level
    and are not expected to be monotone (on an origin box they fall
    from 129 to 257 nodes per axis).
    """
    if len(levels) < 3:
        raise InsufficientLevels("need at least 3 refinement levels")
    out = []
    for grid in _grids(problem, "closed_dirichlet",
                       [(int(n), int(n)) for n in levels]):
        A, _ = assemble_dirichlet(grid, problem.kappa)
        cond = _factor(A)[1]
        out.append((max(grid.hx, grid.hy), cond))
    return out

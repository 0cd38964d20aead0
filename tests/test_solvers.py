import numpy as np
import pytest
import scipy.sparse as sp

from coldwave import solvers
from coldwave.errors import (FactorizationFailure, GridTooLarge,
                             InadmissibleBoundary, InsufficientLevels)
from coldwave.grid import Domain, Grid2D
from coldwave.multipliers import MixedMultiplierSpec
from coldwave.operators import assemble_dirichlet, assemble_mixed
from coldwave.quadrature import decompose_cells
from coldwave.solvers import (ModelProblem, _factor,
                              _min_norm_solve,
                              fill_estimate, illposedness_diagnostic,
                              require_memory, solve_closed_dirichlet,
                              solve_mixed)


def manufactured_forcing(kappa):
    """f = L u* for u* = sin(pi(x-1.5)) sin(pi(y+0.4)/0.8), built from the
    hand-differentiated pieces (independent of the operator stencils)."""

    def ustar(x, y):
        return np.sin(np.pi * (x - 1.5)) * np.sin(np.pi * (y + 0.4) / 0.8)

    def f(x, y):
        u = ustar(x, y)
        ux = np.pi * np.cos(np.pi * (x - 1.5)) * np.sin(np.pi * (y + 0.4) / 0.8)
        return (x - y * y) * (-(np.pi ** 2) * u) \
            - (np.pi / 0.8) ** 2 * u + kappa * ux

    return ustar, f


def dense_dirichlet(grid, kappa):
    """Dense 5-point matrix of L on interior unknowns, node by node."""
    ii, jj = np.nonzero(grid.interior)
    number = {(i, j): k for k, (i, j) in enumerate(zip(ii, jj))}
    K = grid.K
    hx2, hy2 = grid.hx * grid.hx, grid.hy * grid.hy
    A = np.zeros((ii.size, ii.size))
    for (i, j), k in number.items():
        Kc = K[i, j]
        A[k, k] = -2.0 * Kc / hx2 - 2.0 / hy2
        for nb, coeff in (((i + 1, j), Kc / hx2 + kappa / (2.0 * grid.hx)),
                          ((i - 1, j), Kc / hx2 - kappa / (2.0 * grid.hx)),
                          ((i, j + 1), 1.0 / hy2), ((i, j - 1), 1.0 / hy2)):
            if nb in number:
                A[k, number[nb]] = coeff
    return A


def dense_mixed(grid, kappa, idx1, idx2):
    """Dense first-order system matrix, node by node (eq1 then eq2)."""
    ii, jj = np.nonzero(grid.interior)
    K = grid.K
    a, b = 1.0 / (2.0 * grid.hx), 1.0 / (2.0 * grid.hy)
    A = np.zeros((2 * ii.size, int(max(idx1.max(), idx2.max())) + 1))
    for k, (i, j) in enumerate(zip(ii, jj)):
        for row, terms in (
            (2 * k, ((idx1, i + 1, j, K[i, j] * a),
                     (idx1, i - 1, j, -K[i, j] * a), (idx1, i, j, kappa),
                     (idx2, i, j + 1, b), (idx2, i, j - 1, -b))),
            (2 * k + 1, ((idx1, i, j + 1, b), (idx1, i, j - 1, -b),
                         (idx2, i + 1, j, -a), (idx2, i - 1, j, a))),
        ):
            for idx, p, q, coeff in terms:
                if idx[p, q] >= 0:
                    A[row, idx[p, q]] += coeff
    return A


def kkt_factor(A):
    """SuperLU factor of the KKT matrix [[I, A^T], [A, 0]] of a wide A,
    with SuperLU's defaults."""
    import scipy.sparse.linalg as spla

    n = A.shape[1]
    return spla.splu(sp.block_array([[sp.eye_array(n), A.T], [A, None]],
                                    format="csc"))


def kkt_solve(A, rhs):
    """Min-norm solution of a wide A x = rhs from the KKT system, whose
    solution (x, y) has A x = rhs and x = -A^T y."""
    n = A.shape[1]
    return kkt_factor(A).solve(np.concatenate((np.zeros(n), rhs)))[:n]


def mixed_system(n):
    """A and a smooth right-hand side of the acceptance-14 problem
    (kappa 0, G = top, left) on an n x n grid."""
    g = Grid2D(MIXED, n, n)
    A, _, _ = assemble_mixed(g, 0.0, g.segment_mask({"top", "left"}),
                             g.segment_mask({"bottom", "right"}))
    X, Y = (v[g.interior] for v in g.meshgrid())
    rhs = np.empty(A.shape[0])
    rhs[0::2] = np.sin(np.pi * X) * np.cos(0.5 * np.pi * Y)
    rhs[1::2] = np.cos(np.pi * X) * np.sin(np.pi * Y) + 0.3
    return A, rhs


MIXED = Domain.rectangle(0.0, 1.0, 0.0, 0.75)
ORIGIN = Domain.rectangle(-1.05, 0.95, -1.02, 0.98)
ELLIPTIC = Domain.rectangle(1.5, 2.5, -0.4, 0.4)
HYPERBOLIC = Domain.rectangle(-2.0, -0.5, -1.0, 1.0)
UNION = Domain(((1.2, 2.2, -0.4, 0.4), (2.2, 3.2, -0.4, 0.0)))


class TestSparsePath:
    """The sparse assembly and factorization against dense oracles at
    n <= 17."""

    @pytest.mark.parametrize("dom,nx,ny", [(ORIGIN, 13, 13),
                                           (ELLIPTIC, 9, 17),
                                           (UNION, 17, 9)])
    def test_dirichlet_assembly_matches_dense(self, dom, nx, ny):
        g = Grid2D(dom, nx, ny)
        A, idx = assemble_dirichlet(g, 0.5)
        assert sp.issparse(A)
        assert np.array_equal(A.toarray(), dense_dirichlet(g, 0.5))
        assert np.array_equal(idx[g.interior], np.arange(A.shape[0]))

    @pytest.mark.parametrize("kappa,G", [(0.0, ("top", "left")),
                                         (0.7, ())])
    def test_mixed_assembly_matches_dense(self, kappa, G):
        dom = Domain.rectangle(-0.5, 1.0, -0.75, 0.75)
        g = Grid2D(dom, 13, 11)
        g_mask = g.segment_mask(G)
        off = g.segment_mask(set(Domain.SEGMENTS) - set(G))
        A, idx1, idx2 = assemble_mixed(g, kappa, g_mask, off)
        assert sp.issparse(A)
        assert np.array_equal(A.toarray(), dense_mixed(g, kappa, idx1, idx2))

    @pytest.mark.parametrize("dom", [ORIGIN, ELLIPTIC])
    def test_dirichlet_matches_dense_solve(self, dom):
        f = lambda x, y: np.exp(-x ** 2 - y ** 2) + x
        sol = solve_closed_dirichlet(ModelProblem(0.5, dom, forcing=f), 17, 17)
        g = sol.grid
        A, _ = assemble_dirichlet(g, 0.5)
        x = np.linalg.solve(A.toarray(), g.evaluate(f)[g.interior])
        assert np.abs(sol.values[g.interior] - x).max() \
            <= 1e-10 * np.abs(x).max()
        assert sol.diagnostics["method"] == "splu"
        assert sol.rank == A.shape[0]

    def test_mixed_matches_min_norm_lstsq(self):
        dom = MIXED
        spec = MixedMultiplierSpec(dom)
        f1 = lambda x, y: np.sin(np.pi * x) * np.cos(0.5 * np.pi * y)
        f2 = lambda x, y: np.cos(np.pi * x) * np.sin(np.pi * y) + 0.3
        prob = ModelProblem(0.0, dom, forcing=(f1, f2), bc="mixed",
                            G=("top", "left"))
        sol = solve_mixed(prob, 17, 17, spec)
        g = sol.grid
        A, idx1, idx2 = assemble_mixed(
            g, 0.0, g.segment_mask({"top", "left"}),
            g.segment_mask({"bottom", "right"}))
        rhs = np.empty(A.shape[0])
        rhs[0::2] = g.evaluate(f1)[g.interior]
        rhs[1::2] = g.evaluate(f2)[g.interior]
        x = np.linalg.lstsq(A.toarray(), rhs, rcond=None)[0]
        u1, u2 = sol.values
        got = np.empty_like(x)
        got[idx1[idx1 >= 0]] = u1[idx1 >= 0]
        got[idx2[idx2 >= 0]] = u2[idx2 >= 0]
        assert np.abs(got - x).max() <= 1e-10 * np.abs(x).max()
        assert sol.diagnostics["method"] == "splu"
        assert sol.rank == A.shape[0]

    @pytest.mark.parametrize("n", [9, 13, 17])
    @pytest.mark.parametrize("dom", [ORIGIN, ELLIPTIC])
    def test_condition_estimate_brackets_cond1(self, dom, n):
        A, _ = assemble_dirichlet(Grid2D(dom, n, n), 0.5)
        cond1 = np.linalg.cond(A.toarray(), 1)
        est = _factor(A)[1]
        assert cond1 / 3.0 <= est <= cond1 * (1.0 + 1e-12)
        assert _factor(A)[1] == est

    @pytest.mark.parametrize("column", [2, None])
    def test_singular_matrix_takes_lsmr(self, rng, column):
        # a duplicated column leaves an ill-conditioned factor, an empty
        # one an exactly singular factor
        M = rng.normal(size=(12, 12))
        M[:, 5] = M[:, column] if column is not None else 0.0
        A = sp.csr_array(M)
        b = rng.normal(size=12)
        lu, cond, _, _ = _factor(A)
        assert lu is None or cond * np.finfo(float).eps >= 1.0
        x, cond, rank, method, _ = _min_norm_solve(A, b)
        assert (rank, method) == (None, "lsmr")
        x_ref = np.linalg.lstsq(M, b, rcond=None)[0]
        assert np.abs(x - x_ref).max() <= 1e-10 * np.abs(x_ref).max()

    def test_lsmr_not_converged_raises(self, rng, monkeypatch):
        import scipy.sparse.linalg as spla

        real = spla.lsmr

        def stalled(*args, **kwargs):
            out = real(*args, **kwargs)
            return (out[0], 7) + out[2:]   # istop 7: iteration limit

        monkeypatch.setattr(spla, "lsmr", stalled)
        M = rng.normal(size=(6, 6))
        M[:, 1] = M[:, 0]
        with pytest.raises(FactorizationFailure):
            _min_norm_solve(sp.csr_array(M), rng.normal(size=6))

    @pytest.mark.parametrize("box", [(0.0, 1.0, 0.0, 0.75),
                                     (-1.05, 0.95, -1.02, 0.98)])
    @pytest.mark.parametrize("nx", [8, 9, 17])
    @pytest.mark.parametrize("ny", [8, 9, 17])
    def test_mixed_system_is_wide_for_every_G(self, box, nx, ny):
        # unknowns - equations = boundary nodes - corners shared by a G
        # segment and a non-G segment, at least 2 (nx + ny) - 8
        grid = Grid2D(Domain.rectangle(*box), nx, ny)
        names = Domain.SEGMENTS
        for bits in range(16):
            G = {name for k, name in enumerate(names) if bits >> k & 1}
            A = assemble_mixed(grid, 0.5, grid.segment_mask(G),
                               grid.segment_mask(set(names) - G))[0]
            shared = sum((names[k] in G) != (names[k - 1] in G)
                         for k in range(4))
            rows, columns = A.shape
            assert columns - rows == 2 * (nx + ny) - 4 - shared
            assert rows < columns

    def test_wide_system_takes_kkt_factor(self, rng):
        M = rng.normal(size=(9, 16)) * (rng.random((9, 16)) < 0.4)
        M[np.arange(9), np.arange(9)] += 4.0   # full row rank
        b = rng.normal(size=9)
        x, cond, rank, method, _ = _min_norm_solve(sp.csr_array(M), b)
        assert (rank, method) == (9, "splu")
        x_ref = np.linalg.lstsq(M, b, rcond=None)[0]
        assert np.abs(x - x_ref).max() <= 1e-10 * np.abs(x_ref).max()

    @pytest.mark.parametrize("n", [17, 33, 65])
    def test_wide_system_matches_kkt_and_lstsq(self, n):
        A, rhs = mixed_system(n)
        x, cond, rank, method, sizes = _min_norm_solve(A, rhs)
        assert (rank, method) == (A.shape[0], "splu")
        oracles = [kkt_solve(A, rhs)]
        if n <= 33:   # dense lstsq at 65^2 is a 7938 x 8192 SVD
            oracles.append(np.linalg.lstsq(A.toarray(), rhs, rcond=None)[0])
        for x_ref in oracles:
            assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()
        assert sizes["ordering"] == "MMD_AT_PLUS_A"
        assert sizes["backward_error"] <= 1e-14

    def test_correction_step_on_ill_conditioned_wide_system(self, rng):
        # cond(A) = 1e5: x = A^T (A A^T)^-1 b alone is off by 1.4e-7
        # (about cond(A)^2 eps); the correction step gives 3e-12
        U = np.linalg.qr(rng.normal(size=(30, 30)))[0]
        V = np.linalg.qr(rng.normal(size=(50, 30)))[0]
        M = (U * np.logspace(0.0, -5.0, 30)) @ V.T
        b = rng.normal(size=30)
        x, cond, rank, method, sizes = _min_norm_solve(sp.csr_array(M), b)
        assert (rank, method) == (30, "splu")
        assert sizes["ordering"] == "MMD_AT_PLUS_A"
        x_ref = np.linalg.lstsq(M, b, rcond=None)[0]
        assert np.abs(x - x_ref).max() <= 1e-10 * np.abs(x_ref).max()

    def test_rank_deficient_wide_system_takes_lsmr(self, rng):
        M = rng.normal(size=(9, 16)) * (rng.random((9, 16)) < 0.4)
        M[np.arange(9), np.arange(9)] += 4.0
        M[8] = M[3]   # duplicated row: A A^T is singular
        b = rng.normal(size=9)
        x, cond, rank, method, _ = _min_norm_solve(sp.csr_array(M), b)
        assert (rank, method) == (None, "lsmr")
        x_ref = np.linalg.lstsq(M, b, rcond=None)[0]
        assert np.abs(x - x_ref).max() <= 1e-10 * np.abs(x_ref).max()

    def test_normal_factor_fills_less_than_kkt(self):
        A, rhs = mixed_system(129)
        sizes = _min_norm_solve(A, rhs)[4]
        assert sizes["ordering"] == "MMD_AT_PLUS_A"
        assert sizes["lu_nnz"] < 0.5 * kkt_factor(A).nnz

    def test_non_finite_matrix_raises(self):
        A = sp.csr_array(np.array([[1.0, 0.0], [np.nan, 2.0]]))
        with pytest.raises(FactorizationFailure):
            _min_norm_solve(A, np.ones(2))
        wide = sp.csr_array(np.array([[1.0, 0.0, 3.0], [np.nan, 2.0, 0.0]]))
        with pytest.raises(FactorizationFailure):
            _min_norm_solve(wide, np.ones(2))


def backward_error(A, x, b):
    """||A x - b||_inf / (||A||_inf ||x||_inf + ||b||_inf), densely."""
    A = A.toarray()
    return np.abs(A @ x - b).max() / (np.abs(A).sum(axis=1).max()
                                      * np.abs(x).max() + np.abs(b).max())


class TestOneFactor:
    """The static factor, its probe and the COLAMD refactor."""

    @pytest.mark.parametrize("n", [65, 97, 129, 193, 257])
    def test_origin_keeps_static_factor(self, n):
        f = lambda x, y: np.sin(np.pi * (x + 1.05) / 2.0) \
            * np.sin(np.pi * (y + 1.02) / 2.0)
        sol = solve_closed_dirichlet(ModelProblem(0.5, ORIGIN, forcing=f),
                                     n, n)
        assert sol.diagnostics["method"] == "splu"
        assert sol.diagnostics["ordering"] == "MMD_AT_PLUS_A"
        assert sol.diagnostics["backward_error"] <= 1e-14

    @pytest.mark.parametrize("n", [49, 97])
    def test_hyperbolic_box_refactors_with_colamd(self, n):
        # diagonal pivots leave a backward error of 4e-6 to 9e-5 here
        sol = solve_closed_dirichlet(
            ModelProblem(0.5, HYPERBOLIC, forcing=lambda x, y: x * y + 1.0),
            n, n)
        assert sol.diagnostics["ordering"] == "COLAMD"
        assert sol.diagnostics["backward_error"] <= 1e-14
        A, _ = assemble_dirichlet(sol.grid, 0.5)
        M = A.tocsc()
        static = solvers._splu(M, permc_spec="MMD_AT_PLUS_A",
                               diag_pivot_thresh=0.0,
                               options={"SymmetricMode": True})
        y, = solvers._refined_solves(static, [(M, None, np.ones(A.shape[0]))])
        norm_inf = float(solvers._abs_sums(M)[1].max())
        assert solvers._backward_error(M, y, np.ones(A.shape[0]), norm_inf) \
            > solvers.PROBE_BACKWARD_ERROR

    def test_rejected_probe_refactors(self, monkeypatch):
        A, _ = assemble_dirichlet(Grid2D(ORIGIN, 17, 17), 0.5)
        b = np.cos(np.arange(A.shape[0]))
        x_static, _, _, _, kept = _min_norm_solve(A, b)
        monkeypatch.setattr(solvers, "PROBE_BACKWARD_ERROR", 0.0)
        x, cond, rank, method, refactored = _min_norm_solve(A, b)
        assert (kept["ordering"], refactored["ordering"]) \
            == ("MMD_AT_PLUS_A", "COLAMD")
        assert refactored["lu_nnz"] > kept["lu_nnz"]
        assert (rank, method) == (A.shape[0], "splu")
        assert np.abs(x - x_static).max() <= 1e-10 * np.abs(x).max()

    def test_nan_probe_refactors(self, monkeypatch):
        A, _ = assemble_dirichlet(Grid2D(ORIGIN, 17, 17), 0.5)
        with monkeypatch.context() as m:
            m.setattr(solvers, "PROBE_BACKWARD_ERROR", -np.inf)
            _, cond_colamd, ordering, _ = _factor(A)
        assert ordering == "COLAMD"
        real, errors = solvers._backward_error, []

        def nan_first(*args):
            errors.append(real(*args) if errors else np.nan)
            return errors[-1]

        monkeypatch.setattr(solvers, "_backward_error", nan_first)
        _, cond, ordering, _ = _factor(A)
        assert len(errors) == 1 and np.isnan(errors[0])
        assert (ordering, cond) == ("COLAMD", cond_colamd)

    def test_singular_static_factor_refactors(self, monkeypatch):
        M = sp.csc_array(np.array([[1.0, 2.0], [3.0, 4.0]]))
        calls = []
        real = solvers._splu

        def static_singular(matrix, **settings):
            calls.append(settings["permc_spec"])
            return None if len(calls) == 1 else real(matrix, **settings)

        monkeypatch.setattr(solvers, "_splu", static_singular)
        lu, cond, ordering, _ = _factor(M)
        assert calls == ["MMD_AT_PLUS_A", "COLAMD"]
        assert ordering == "COLAMD"
        assert np.allclose(lu.solve(np.array([5.0, 11.0])), [1.0, 2.0])

    @pytest.mark.parametrize("seed", [11, 37])
    def test_empty_row_or_column_skips_superlu(self, seed, monkeypatch):
        # SuperLU fails on these with an error that does not say
        # "singular" (other seeds of this generator crash the interpreter)
        rng = np.random.default_rng(seed)
        n = rng.integers(5, 40)
        A = sp.random_array((n, n), density=rng.uniform(0.05, 0.4), rng=rng,
                            format="lil")
        A.setdiag((rng.random(n) < rng.random()).astype(float))
        k, m = rng.integers(0, 4), rng.integers(0, 5)
        A[rng.choice(n, k, replace=False), :] = 0.0
        A[:, rng.choice(n, m, replace=False)] = 0.0
        calls = []
        monkeypatch.setattr(solvers, "_splu",
                            lambda M, **settings: calls.append(settings))
        A = sp.csr_array(A)
        assert _factor(A) == (None, np.inf, "COLAMD", None)
        x, cond, rank, method, _ = _min_norm_solve(A, np.ones(n))
        assert (cond, rank, method) == (np.inf, None, "lsmr")
        assert calls == []
        assert np.all(np.isfinite(x))

    @pytest.mark.parametrize("shape", [(12, 12), (9, 16), (15, 8)])
    def test_backward_error_reported_for_every_path(self, rng, shape):
        M = rng.normal(size=shape)
        if shape[0] == shape[1]:
            M[:, 5] = M[:, 2]   # singular: the LSMR path
        A, b = sp.csr_array(M), rng.normal(size=shape[0])
        x, _, _, _, sizes = _min_norm_solve(A, b)
        assert sizes["backward_error"] == pytest.approx(
            backward_error(A, x, b), rel=1e-12)

    def test_zero_system_has_zero_backward_error(self):
        A, _ = assemble_dirichlet(Grid2D(ORIGIN, 9, 9), 0.5)
        sizes = _min_norm_solve(A, np.zeros(A.shape[0]))[4]
        assert sizes["backward_error"] == 0.0

    @pytest.mark.parametrize("array", [sp.csc_array, sp.csr_array])
    def test_caller_matrix_left_alone(self, array):
        # duplicates are summed in the solve's own copies: the first
        # column (CSC) or row (CSR) holds (0, 0) twice
        A = array((np.array([1.0, 4.0, 2.0, 3.0]), np.array([0, 0, 0, 1]),
                   np.array([0, 2, 4])), shape=(2, 2))
        data = A.data.copy()
        x = _min_norm_solve(A, np.ones(2))[0]
        assert A.nnz == 4
        assert np.array_equal(A.data, data)
        np.testing.assert_allclose(A @ x, np.ones(2), rtol=1e-14)


def onenormest_t1(lu):
    """scipy's onenormest(t=1) of the inverse through the factor lu."""
    import scipy.sparse.linalg as spla

    def solve_t(v):
        return lu.solve(v, trans="T")

    inverse = spla.LinearOperator(lu.shape, matvec=lu.solve, matmat=lu.solve,
                                  rmatvec=solve_t, rmatmat=solve_t,
                                  dtype=float)
    return float(spla.onenormest(inverse, t=1))


def separate_solve(A, rhs):
    """The solve with the probe and the solution in separate solves and
    every norm from abs(M): the reference the batched solve must match
    bit for bit.  Returns (x, condition_estimate, sizes)."""
    m, n = A.shape
    lift = (lambda v: v) if m == n else (lambda v: A.T @ v)
    M = (A if m == n else A @ A.T).tocsc()
    lu, _, ordering, _ = _factor(M)
    x = lift(lu.solve(rhs))
    x += lift(lu.solve(rhs - A @ x))
    cond = float(abs(M).sum(axis=0).max()) * onenormest_t1(lu)
    norm_inf = float(abs(A).sum(axis=1).max())
    error = float(np.abs(A @ x - rhs).max()) / (
        norm_inf * float(np.abs(x).max()) + float(np.abs(rhs).max()))
    return x, cond, {"unknowns": n, "nnz": A.nnz, "lu_nnz": int(lu.nnz),
                     "ordering": ordering, "backward_error": error}


class TestSolvePath:
    """One pass per factor: the batched probe and solve, the 1-norm
    estimate through the factor and the one-sweep matrix norms
    reproduce the separate computations bit for bit."""

    @staticmethod
    def matrices():
        yield from (assemble_dirichlet(Grid2D(ORIGIN, n, n), 0.5)[0]
                    for n in (13, 33, 49))
        A = mixed_system(41)[0]
        yield A @ A.T
        yield sp.csr_array(np.array([[1.0, 2.0], [3.0, 4.0]]))
        yield sp.csr_array(np.array([[-0.25]]))

    @pytest.mark.parametrize("k", range(6))
    def test_estimate_equals_onenormest(self, k):
        M = list(self.matrices())[k].tocsc()
        lu, cond, _, _ = _factor(M)
        assert cond == float(abs(M).sum(axis=0).max()) * onenormest_t1(lu)

    @pytest.mark.parametrize("seed", range(40))
    def test_estimate_equals_onenormest_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        M = sp.random_array((n, n), density=rng.uniform(0.05, 0.6),
                            rng=rng, format="csc")
        M = M + sp.diags_array(rng.choice([-1.0, 1.0], n)
                               * 10.0 ** rng.uniform(-8.0, 0.0, n))
        lu, cond, _, _ = _factor(M)
        assert cond == float(abs(M).sum(axis=0).max()) * onenormest_t1(lu)

    @pytest.mark.parametrize("seed", range(10))
    def test_norms_equal_abs_sums(self, seed):
        rng = np.random.default_rng(seed)
        M = sp.random_array((30, 20), density=0.15, rng=rng, format="csc")
        for matrix in (M, *(list(self.matrices())[:4]),
                       sp.csc_array((5, 5))):
            matrix = matrix.tocsc()
            cols, rows = solvers._abs_sums(matrix)
            assert (cols.max(initial=0.0), rows.max(initial=0.0)) == (
                abs(matrix).sum(axis=0).max(), abs(matrix).sum(axis=1).max())

    @pytest.mark.parametrize("case", ["origin", "hyperbolic", "mixed"])
    def test_batched_equals_separate(self, case):
        if case == "mixed":
            A, rhs = mixed_system(41)
        else:
            dom = ORIGIN if case == "origin" else HYPERBOLIC
            A, _ = assemble_dirichlet(Grid2D(dom, 49, 49), 0.5)
            rhs = np.cos(np.arange(A.shape[0]))
        x, cond, rank, method, sizes = _min_norm_solve(A, rhs)
        x_ref, cond_ref, sizes_ref = separate_solve(A, rhs)
        assert np.array_equal(x, x_ref)
        assert cond == cond_ref
        assert sizes == sizes_ref
        assert sizes["ordering"] == ("COLAMD" if case == "hyperbolic"
                                     else "MMD_AT_PLUS_A")

    def test_batch_columns_equal_single_solves(self, rng):
        A = mixed_system(33)[0]
        M = (A @ A.T).tocsc()
        lu = _factor(M)[0]
        systems = [(M, None, np.ones(M.shape[0])),
                   (A, A.T, rng.normal(size=M.shape[0])),
                   (M, None, rng.normal(size=M.shape[0]))]
        batched = solvers._refined_solves(lu, systems)
        for system, x in zip(systems, batched):
            assert np.array_equal(x, solvers._refined_solves(lu, [system])[0])


class TestMemoryBudget:
    @pytest.mark.parametrize("n", [65, 129])
    def test_fill_model_within_factor_two(self, n, monkeypatch):
        A, rhs = mixed_system(n)
        sizes = _min_norm_solve(A, rhs)[4]
        # the Dirichlet model is the envelope of the COLAMD refactor
        monkeypatch.setattr(solvers, "PROBE_BACKWARD_ERROR", 0.0)
        D, _ = assemble_dirichlet(Grid2D(ORIGIN, n, n), 0.5)
        square = _min_norm_solve(D, np.ones(D.shape[0]))[4]
        for bc, got in (("mixed", sizes), ("closed_dirichlet", square)):
            estimate = fill_estimate(solvers.factor_order(bc, n, n))
            assert 0.5 <= estimate / got["lu_nnz"] <= 2.0

    @pytest.mark.parametrize("dom", [ORIGIN, HYPERBOLIC])
    @pytest.mark.parametrize("n", [65, 97])
    def test_fill_model_covers_colamd_refactor(self, dom, n):
        import scipy.sparse.linalg as spla

        A, _ = assemble_dirichlet(Grid2D(dom, n, n), 0.5)
        lu = spla.splu(A.tocsc(), permc_spec="COLAMD")
        assert fill_estimate(
            solvers.factor_order("closed_dirichlet", n, n)) >= lu.nnz

    def test_budget_capped_by_address_space_limit(self, monkeypatch):
        import resource

        monkeypatch.setattr(resource, "getrlimit",
                            lambda which: (100_000_000, resource.RLIM_INFINITY))
        assert solvers._memory_budget() == 100_000_000
        require_memory("mixed", 65, 65)
        with pytest.raises(GridTooLarge, match="nx=257, ny=129"):
            require_memory("mixed", 257, 129)

    def test_illposedness_checks_every_level_first(self, monkeypatch):
        assembled = []
        monkeypatch.setattr(solvers, "assemble_dirichlet",
                            lambda *args: assembled.append(args))
        with pytest.raises(GridTooLarge, match="nx=4097, ny=4097"):
            illposedness_diagnostic(ModelProblem(0.5, ORIGIN),
                                    [13, 33, 4097])
        assert assembled == []


class TestEntryChecks:
    """Each grid solve checks its problem's boundary condition and the
    memory of its factor before it builds a grid."""

    def test_dirichlet_solve_refuses_mixed_problem(self):
        # solved as Dirichlet, a mixed problem gave a zero solution
        prob = ModelProblem(0.0, MIXED, bc="mixed", G=("top", "left"))
        with pytest.raises(ValueError,
                           match="problem.bc must be 'closed_dirichlet'"):
            solve_closed_dirichlet(prob, 17, 17)

    @pytest.mark.parametrize("bc", ["closed_dirichlet", "mixed"])
    def test_oversized_grid_refused_before_grid(self, bc, monkeypatch):
        spec = MixedMultiplierSpec(MIXED)
        solve = {"closed_dirichlet": solve_closed_dirichlet,
                 "mixed": lambda *args: solve_mixed(*args, spec)}[bc]

        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(solvers, "_memory_budget", lambda: 1)
        monkeypatch.setattr(solvers, "Grid2D", no_grid)
        with pytest.raises(GridTooLarge, match="nx=17, ny=13"):
            solve(ModelProblem(0.0, MIXED, bc=bc), 17, 13)


class TestModelProblem:
    def test_kappa_range(self):
        dom = Domain.rectangle(-1, 1, -1, 1)
        with pytest.raises(ValueError):
            ModelProblem(2.5, dom)
        with pytest.raises(ValueError):
            ModelProblem(1.5, dom, bc="mixed")


class TestClosedDirichlet:
    def test_zero_forcing_zero_solution(self):
        dom = Domain.rectangle(-1, 1, -1, 1)
        sol = solve_closed_dirichlet(ModelProblem(0.5, dom), 17, 17)
        assert np.abs(sol.values).max() == 0.0
        assert sol.residual_norm == 0.0

    def test_boundary_values_exact_zero(self):
        dom = Domain.rectangle(1.5, 2.5, -0.4, 0.4)
        _, f = manufactured_forcing(0.5)
        sol = solve_closed_dirichlet(ModelProblem(0.5, dom, forcing=f), 17, 17)
        assert np.abs(sol.values[sol.grid.boundary]).max() == 0.0

    def test_manufactured_convergence(self):
        kappa = 0.5
        dom = Domain.rectangle(1.5, 2.5, -0.4, 0.4)
        ustar, f = manufactured_forcing(kappa)
        prob = ModelProblem(kappa, dom, forcing=f)
        errs = []
        for n in (9, 17, 33):
            sol = solve_closed_dirichlet(prob, n, n)
            g = sol.grid
            X, Y = g.meshgrid()
            errs.append(np.sqrt(g.hx * g.hy
                                * np.sum((sol.values - ustar(X, Y)) ** 2)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.0

    def test_union_domain_solve(self):
        dom = Domain(((1.2, 2.2, -0.4, 0.4), (2.2, 3.2, -0.4, 0.0)))
        prob = ModelProblem(0.5, dom,
                            forcing=lambda x, y: np.sin(x) * np.cos(y))
        sol = solve_closed_dirichlet(prob, 21, 9)
        assert np.isfinite(sol.values).all()
        assert np.abs(sol.values[~sol.grid.interior]).max() == 0.0
        assert sol.residual_norm <= 1e-10

    def test_degenerate_domain_reports_condition(self):
        dom = Domain.rectangle(-1, 1, -1, 1)
        prob = ModelProblem(0.5, dom,
                            forcing=lambda x, y: np.exp(-x ** 2 - y ** 2))
        sol = solve_closed_dirichlet(prob, 17, 17)
        assert np.isfinite(sol.condition_estimate)
        assert sol.condition_estimate > 1.0
        assert "l2_weighted" in sol.norms and "h1_weighted" in sol.norms


class TestMixed:
    @pytest.fixture
    def setup(self):
        dom = Domain.rectangle(0.0, 1.0, 0.0, 0.75)
        spec = MixedMultiplierSpec(dom)
        f1 = lambda x, y: np.sin(np.pi * x) * np.cos(0.5 * np.pi * y)
        f2 = lambda x, y: np.cos(np.pi * x) * np.sin(np.pi * y) + 0.3
        prob = ModelProblem(0.0, dom, forcing=(f1, f2), bc="mixed",
                            G=("top", "left"))
        return dom, spec, prob

    def test_zero_forcing(self, setup):
        dom, spec, _ = setup
        zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
        prob = ModelProblem(0.0, dom, forcing=(zero, zero), bc="mixed",
                            G=("top", "left"))
        sol = solve_mixed(prob, 17, 17, spec)
        u1, u2 = sol.values
        assert np.abs(u1).max() == 0.0 and np.abs(u2).max() == 0.0
        assert sol.residual_norm == 0.0

    def test_smooth_forcing_small_residual(self, setup):
        _, spec, prob = setup
        sol = solve_mixed(prob, 33, 33, spec)
        fn = sol.diagnostics["forcing_norm"]
        assert sol.residual_norm <= 1e-6 * fn
        u1, u2 = sol.values
        # constraints honored exactly
        assert np.abs(u1[:, -1]).max() == 0.0  # top in G
        assert np.abs(u1[0, :]).max() == 0.0   # left in G
        assert np.abs(u2[:, 0]).max() == 0.0   # bottom off G
        assert np.abs(u2[-1, :]).max() == 0.0  # right off G
        assert sol.norms["hk_weighted"] > 0.0

    def test_inadmissible_raises(self, setup):
        dom, spec, _ = setup
        zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
        bad = ModelProblem(0.0, dom, forcing=(zero, zero), bc="mixed",
                           G=("bottom",))
        with pytest.raises(InadmissibleBoundary):
            solve_mixed(bad, 17, 17, spec)

    def test_domain_mismatch_refused(self, setup):
        # the spec's t and s_const, and its boundary, are its own domain's
        _, _, prob = setup
        spec = MixedMultiplierSpec(Domain.rectangle(0.0, 1.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="not the multiplier's domain"):
            solve_mixed(prob, 17, 17, spec)

    def test_conormal_runs_and_reports(self):
        # lens-like box with corners on the sonic curve admits G = empty
        dom = Domain.rectangle(0.25, 1.0, 0.5, 1.0)
        spec = MixedMultiplierSpec(dom)
        f1 = lambda x, y: np.sin(np.pi * x) * y
        f2 = lambda x, y: np.cos(np.pi * y) * x
        prob = ModelProblem(0.0, dom, forcing=(f1, f2), bc="mixed", G=())
        sol = solve_mixed(prob, 17, 17, spec)
        assert "integrability_sampled" in sol.diagnostics
        assert sol.residual_norm < 1e-8

    def test_kappa_zero_matches_statement(self, setup):
        _, spec, prob = setup
        assert prob.kappa == 0.0
        sol = solve_mixed(prob, 17, 17, spec)
        assert sol.rank > 0

    def test_acceptance_14_problem_at_129(self, setup):
        _, spec, prob = setup
        sol = solve_mixed(prob, 129, 129, spec)
        assert sol.residual_norm < 1e-6 * sol.diagnostics["forcing_norm"]
        assert sol.diagnostics["method"] == "splu"

    def test_excluded_measure_is_cut_area(self, setup):
        _, spec, prob = setup
        sol = solve_mixed(prob, 17, 17, spec)
        cut_area = decompose_cells(sol.grid).cut_area
        assert cut_area > 0.0
        assert sol.diagnostics["excluded_measure"] == cut_area


class TestIllposednessDiagnostic:
    def test_insufficient_levels(self):
        prob = ModelProblem(0.5, Domain.rectangle(-1, 1, -1, 1))
        with pytest.raises(InsufficientLevels):
            illposedness_diagnostic(prob, [9, 17])

    def test_returns_h_and_cond(self):
        prob = ModelProblem(0.5, Domain.rectangle(1.5, 2.5, -0.4, 0.4))
        out = illposedness_diagnostic(prob, [9, 13, 17])
        assert len(out) == 3
        hs = [h for h, _ in out]
        assert hs[0] > hs[1] > hs[2]
        assert all(np.isfinite(c) and c >= 1.0 for _, c in out)

    def test_elliptic_baseline_monotone(self):
        prob = ModelProblem(0.5, Domain.rectangle(1.5, 2.5, -0.4, 0.4))
        out = illposedness_diagnostic(prob, [9, 17, 33])
        conds = [c for _, c in out]
        assert conds[0] <= conds[1] <= conds[2]

    def test_origin_growth_monotone_and_ahead_of_elliptic(self):
        levels = [13, 33, 49, 65, 97, 129]
        co = [c for _, c in
              illposedness_diagnostic(ModelProblem(0.5, ORIGIN), levels)]
        ce = [c for _, c in
              illposedness_diagnostic(ModelProblem(0.5, ELLIPTIC), levels)]
        assert all(a <= b for a, b in zip(co, co[1:]))
        assert all(o > e for o, e in zip(co, ce))

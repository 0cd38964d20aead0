import numpy as np
import pytest

from coldwave.errors import (InadmissibleBoundary, InsufficientLevels)
from coldwave.grid import Domain, Grid2D
from coldwave.multipliers import MixedMultiplierSpec
from coldwave.quadrature import decompose_cells
from coldwave.solvers import (ModelProblem, illposedness_diagnostic,
                              qr_least_squares, qr_min_norm,
                              solve_closed_dirichlet, solve_mixed)


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


class TestQRHelpers:
    def test_square_solve(self, rng):
        A = rng.normal(size=(40, 40))
        x_true = rng.normal(size=40)
        x, cond, rank = qr_least_squares(A, A @ x_true)
        assert rank == 40
        assert np.allclose(x, x_true, atol=1e-8 * cond)

    def test_rank_deficient_least_squares(self, rng):
        A = rng.normal(size=(30, 20))
        A[:, -1] = A[:, 0]  # exact rank deficiency
        b = rng.normal(size=30)
        x, cond, rank = qr_least_squares(A, b)
        assert rank == 19
        assert np.isfinite(x).all()

    def test_min_norm_solution(self, rng):
        A = rng.normal(size=(15, 40))
        b = rng.normal(size=15)
        x, cond, rank = qr_min_norm(A, b)
        assert rank == 15
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
        # min-norm: orthogonal to the null space direction of any other sol
        x2 = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.linalg.norm(x) <= np.linalg.norm(x2) * (1 + 1e-10)


class TestModelProblem:
    def test_kappa_range(self):
        dom = Domain.rectangle(-1, 1, -1, 1)
        with pytest.raises(ValueError):
            ModelProblem(2.5, dom)
        with pytest.raises(ValueError):
            ModelProblem(1.5, dom, bc="mixed")

    def test_domain_flags_computed(self):
        p = ModelProblem(0.5, Domain.rectangle(-1, 1, -1, 1))
        assert p.contains_origin and p.contains_sonic_arc
        q = ModelProblem(0.5, Domain.rectangle(1.5, 2.5, -0.4, 0.4))
        assert not q.contains_origin and not q.contains_sonic_arc


class TestClosedDirichlet:
    def test_zero_forcing_zero_solution(self):
        dom = Domain.rectangle(-1, 1, -1, 1)
        g = Grid2D(dom, 17, 17)
        sol = solve_closed_dirichlet(ModelProblem(0.5, dom), g)
        assert np.abs(sol.values).max() == 0.0
        assert sol.residual_norm == 0.0

    def test_boundary_values_exact_zero(self):
        dom = Domain.rectangle(1.5, 2.5, -0.4, 0.4)
        _, f = manufactured_forcing(0.5)
        g = Grid2D(dom, 17, 17)
        sol = solve_closed_dirichlet(ModelProblem(0.5, dom, forcing=f), g)
        assert np.abs(sol.values[g.boundary]).max() == 0.0

    def test_manufactured_convergence(self):
        kappa = 0.5
        dom = Domain.rectangle(1.5, 2.5, -0.4, 0.4)
        ustar, f = manufactured_forcing(kappa)
        prob = ModelProblem(kappa, dom, forcing=f)
        errs = []
        for n in (9, 17, 33):
            g = Grid2D(dom, n, n)
            sol = solve_closed_dirichlet(prob, g)
            X, Y = g.meshgrid()
            errs.append(np.sqrt(g.hx * g.hy
                                * np.sum((sol.values - ustar(X, Y)) ** 2)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.0

    def test_union_domain_solve(self):
        dom = Domain(((1.2, 2.2, -0.4, 0.4), (2.2, 3.2, -0.4, 0.0)))
        g = Grid2D(dom, 21, 9)
        prob = ModelProblem(0.5, dom,
                            forcing=lambda x, y: np.sin(x) * np.cos(y))
        sol = solve_closed_dirichlet(prob, g)
        assert np.isfinite(sol.values).all()
        assert np.abs(sol.values[~g.interior]).max() == 0.0
        assert sol.residual_norm <= 1e-10

    def test_degenerate_domain_reports_condition(self):
        dom = Domain.rectangle(-1, 1, -1, 1)
        g = Grid2D(dom, 17, 17)
        prob = ModelProblem(0.5, dom,
                            forcing=lambda x, y: np.exp(-x ** 2 - y ** 2))
        sol = solve_closed_dirichlet(prob, g)
        assert np.isfinite(sol.condition_estimate)
        assert sol.condition_estimate > 1.0
        assert "l2_weighted" in sol.norms and "h1_weighted" in sol.norms


class TestMixed:
    @pytest.fixture
    def setup(self):
        dom = Domain.rectangle(0.0, 1.0, 0.0, 0.75)
        spec = MixedMultiplierSpec.auto(dom)
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
        sol = solve_mixed(prob, Grid2D(dom, 17, 17), spec)
        u1, u2 = sol.values
        assert np.abs(u1).max() == 0.0 and np.abs(u2).max() == 0.0
        assert sol.residual_norm == 0.0

    def test_smooth_forcing_small_residual(self, setup):
        dom, spec, prob = setup
        sol = solve_mixed(prob, Grid2D(dom, 33, 33), spec)
        fn = sol.diagnostics["forcing_norm"]
        assert sol.residual_norm <= 1e-6 * fn
        u1, u2 = sol.values
        g = Grid2D(dom, 33, 33)
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
            solve_mixed(bad, Grid2D(dom, 17, 17), spec)

    def test_conormal_runs_and_reports(self):
        # lens-like box with corners on the sonic curve admits G = empty
        dom = Domain.rectangle(0.25, 1.0, 0.5, 1.0)
        spec = MixedMultiplierSpec.auto(dom)
        f1 = lambda x, y: np.sin(np.pi * x) * y
        f2 = lambda x, y: np.cos(np.pi * y) * x
        prob = ModelProblem(0.0, dom, forcing=(f1, f2), bc="mixed", G=())
        sol = solve_mixed(prob, Grid2D(dom, 17, 17), spec)
        assert "integrability_sampled" in sol.diagnostics
        assert sol.residual_norm < 1e-8

    def test_kappa_zero_matches_statement(self, setup):
        dom, spec, prob = setup
        assert prob.kappa == 0.0
        sol = solve_mixed(prob, Grid2D(dom, 17, 17), spec)
        assert sol.rank > 0

    def test_excluded_measure_is_cut_area(self, setup):
        dom, spec, prob = setup
        grid = Grid2D(dom, 17, 17)
        sol = solve_mixed(prob, grid, spec)
        cut_area = decompose_cells(grid).cut_area
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

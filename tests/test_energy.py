import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.polynomial.polynomial import polyval2d

from coldwave import multipliers
from coldwave.errors import SpecInvalid
from coldwave.grid import Domain, Grid2D
from coldwave.multipliers import (SIGN_TOL, BoundaryReport, BumpGram,
                                  MixedMultiplierSpec, MultiplierSpec,
                                  boundary_admissible, bump_gram,
                                  random_interior_bump,
                                  verify_energy_inequality)
from coldwave.operators import KAPPA_MAX, apply_L, gradient
from coldwave.quadrature import decompose_cells, weighted_norms
from coldwave.typegeometry import canonical_type_function


@pytest.fixture
def unit_square():
    return Domain.rectangle(-1, 1, -1, 1)


def grid_bump(grid, fn):
    X, Y = grid.meshgrid()
    u = fn(X, Y)
    u[grid.boundary] = 0.0
    return u


class TestMultiplierSpec:
    def test_regime_selection(self, unit_square):
        assert MultiplierSpec(1.5, unit_square).regime == \
            "kappa_high"
        assert MultiplierSpec(0.5, unit_square).regime == \
            "kappa_low"

    def test_regime_is_a_property_of_kappa(self):
        assert "regime" not in {f.name for f in dataclasses.fields(
            MultiplierSpec)}
        for kappa, regime in ((0.0, "kappa_low"), (0.999, "kappa_low"),
                              (1.0, "kappa_high"), (2.0, "kappa_high")):
            # a small delta_tilde keeps N's interval open at 0.999
            assert MultiplierSpec(kappa, Domain.rectangle(-1, 1, -1, 1),
                                  delta_tilde=1e-4).regime == regime

    def test_kappa_low_default_N_is_midpoint(self, unit_square):
        spec = MultiplierSpec(0.5, unit_square)
        lo = 1.05 / 2.5
        hi = 0.95 / 1.5
        assert spec.N == pytest.approx(0.5 * (lo + hi))

    def test_kappa_low_N_range_enforced(self, unit_square):
        with pytest.raises(SpecInvalid):
            MultiplierSpec(0.5, unit_square, N=0.99)
        with pytest.raises(SpecInvalid):
            # interval empty at 0.05
            MultiplierSpec(0.95, unit_square)

    def test_invalid_parameters(self, unit_square):
        # kappa spans the closed-Dirichlet range, [0, 2]
        top = KAPPA_MAX["closed_dirichlet"]
        assert MultiplierSpec(top, unit_square).kappa == top
        for kappa in (2.5, math.nextafter(top, 3.0), -1e-300):
            with pytest.raises(SpecInvalid, match=r"outside \[0, 2\]"):
                MultiplierSpec(kappa, unit_square)
        with pytest.raises(SpecInvalid):
            MultiplierSpec(1.0, unit_square, delta=0.0)

    def test_exponential_branch_values(self, unit_square):
        spec = MultiplierSpec(1.0, unit_square, delta=0.01)
        # continuous across the cut, different branches away from it
        K = canonical_type_function
        assert spec.b(K(0.0, 0.0), +1) == pytest.approx(1.0)
        assert spec.b(K(0.0, 0.0), -1) == pytest.approx(1.0)
        assert spec.b(K(1.0, 0.0), +1) <= spec.Q1
        assert spec.b(K(-1.0, 1.0), -1) > spec.Q2  # delta small enough here
        assert spec.warnings == ()

    @pytest.mark.parametrize("rects, q_exponents", [
        ([(0.0, 1.0, -0.3, 0.7)], (1.0, -(0.7 * 0.7))),
        ([(1.5, 2.5, -0.4, 0.4)], (2.5, 0.0)),      # K > 0: Q2 = 1
        ([(-3.0, -2.0, 0.5, 1.0)], (0.0, -4.0)),    # K < 0: Q1 = 1
        ([(-1.0, 0.0, 0.5, 1.0), (1.0, 2.0, 1.0, 2.0)], (1.0, -3.0))])
    def test_Q_from_the_exact_range_of_K(self, rects, q_exponents):
        spec = MultiplierSpec(1.5, Domain(tuple(rects)), delta=0.05)
        assert spec.Q1 == math.exp(2.0 * 0.05 * q_exponents[0])
        assert spec.Q2 == math.exp(q_exponents[1])

    def test_large_delta_warns_not_raises(self, unit_square):
        spec = MultiplierSpec(1.0, unit_square, delta=0.05)
        assert spec.warnings  # exponential bound fails on [-1,1]^2

    def test_kappa_low_b_vanishes_on_cut(self, unit_square):
        spec = MultiplierSpec(0.0, unit_square)
        K = canonical_type_function(0.25, 0.5)
        assert spec.b(K, +1) == 0.0
        assert spec.b(K, -1) == 0.0

    @pytest.mark.parametrize("box, message", [
        ((0.0, 1e300, 0.0, 1.0), "Q1 is not finite for K in [-1.0, 1e+300]"),
        ((-1000.0, 1.0, -1.0, 1.0), "Q2 is not > 0 for K in [-1001.0, 1.0]"),
        ((-740.0, 1.0, -1.0, 1.0),
         "6 delta mu2 / Q2 is not finite for K in [-741.0, 1.0]")])
    def test_Q_out_of_range_refused(self, box, message):
        # exp(2 delta max K) overflows, exp(min K) underflows to 0, and a
        # subnormal exp(min K) overflows the exponent 6 delta K / Q2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpecInvalid) as err:
                MultiplierSpec(1.5, Domain.rectangle(*box))
        assert str(err.value) == message

    def test_settable_values(self):
        # the derived values are not constructor parameters
        assert [f.name for f in dataclasses.fields(MultiplierSpec)
                if f.init] == ["kappa", "domain", "delta", "delta_tilde",
                               "N"]
        assert [f.name for f in dataclasses.fields(MixedMultiplierSpec)
                if f.init] == ["domain", "mu", "delta"]
        with pytest.raises(TypeError):
            MultiplierSpec(1.5, Domain.rectangle(0, 1, 0, 1), Q1=1.0)


# box sides of moderate and of huge extent, where exp(K) and mu y^2 overflow
SPEC_BOX = st.lists(st.one_of(st.floats(-10.0, 10.0),
                              st.floats(-1e300, 1e300)),
                    min_size=2, max_size=2, unique=True).map(sorted)


def built_or_refused(make):
    """make() with every warning raised as an error; None when it raises
    SpecInvalid."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return make()
        except SpecInvalid:
            return None


@settings(max_examples=300, deadline=None)
@given(xs=SPEC_BOX, ys=SPEC_BOX, kappa=st.floats(-0.1, 2.1),
       delta=st.floats(-0.01, 0.51), delta_tilde=st.floats(-0.01, 0.5),
       mu=st.one_of(st.floats(1e-3, 10.0), st.floats()),
       frac=st.floats(-0.1, 1.1))
def test_spec_in_range_or_refused(xs, ys, kappa, delta, delta_tilde, mu,
                                  frac):
    # either constructor builds a spec whose parameters lie in range and
    # whose derived values are finite and positive, or raises SpecInvalid:
    # never OverflowError, never a RuntimeWarning
    dom = Domain.rectangle(*xs, *ys)
    spec = built_or_refused(lambda: MultiplierSpec(
        kappa, dom, delta=delta, delta_tilde=delta_tilde))
    if spec is not None:
        assert 0.0 <= spec.kappa <= KAPPA_MAX["closed_dirichlet"]
        assert 0.0 < spec.delta < 0.5 and spec.delta_tilde > 0.0
        derived = ((spec.Q1, spec.Q2) if spec.regime == "kappa_high"
                   else (spec.N,))
        assert all(0.0 < v < math.inf for v in derived)
    mixed = built_or_refused(
        lambda: MixedMultiplierSpec(dom, mu=mu, delta=mu * frac))
    if mixed is not None:
        assert 0.0 < mixed.delta < mixed.mu
        assert 0.0 < mixed.t < math.inf and 0.0 < mixed.s_const < math.inf


class TestVerifyEnergyInequality:
    def test_zero_field_flagged(self, unit_square):
        g = Grid2D(unit_square, 33, 33)
        spec = MultiplierSpec(1.0, unit_square)
        rep = verify_energy_inequality(np.zeros((33, 33)), spec, g)
        assert rep.lhs == 0.0 and rep.rhs == 0.0
        assert rep.ratio is None

    def test_boundary_support_rejected(self, unit_square):
        g = Grid2D(unit_square, 33, 33)
        spec = MultiplierSpec(1.0, unit_square)
        with pytest.raises(ValueError):
            verify_energy_inequality(np.ones((33, 33)), spec, g)

    def test_polynomial_bump_kappa_one(self, unit_square):
        # two-resolution quadrature comparison certifies the ratio bound
        ratios = []
        spec = MultiplierSpec(1.0, unit_square, delta=0.05)
        for n in (65, 129):
            g = Grid2D(unit_square, n, n)
            u = grid_bump(g, lambda X, Y: (1 - X ** 2) ** 2 * (1 - Y ** 2) ** 2)
            rep = verify_energy_inequality(u, spec, g)
            ratios.append(rep.ratio)
        assert min(ratios) >= 0.05 * 0.9
        assert abs(ratios[0] - ratios[1]) < 0.1 * min(ratios)

    def test_polynomial_bump_kappa_half(self, unit_square):
        g = Grid2D(unit_square, 65, 65)
        spec = MultiplierSpec(0.5, unit_square)
        u = grid_bump(g, lambda X, Y: (1 - X ** 2) ** 2 * (1 - Y ** 2) ** 2)
        rep = verify_energy_inequality(u, spec, g)
        assert rep.ratio > 0.0

    def test_random_bumps_clear_bound(self, unit_square):
        g = Grid2D(unit_square, 65, 65)
        rng = np.random.default_rng(11)
        for kappa in (0.0, 1.0, 2.0):
            spec = MultiplierSpec(kappa, unit_square)
            for _ in range(5):
                u = grid_bump(g, random_interior_bump(unit_square, rng))
                rep = verify_energy_inequality(u, spec, g)
                assert rep.ratio >= spec.delta * 0.9

    def test_rhs_is_square_of_reported_seminorm(self, unit_square):
        g = Grid2D(unit_square, 33, 33)
        spec = MultiplierSpec(1.5, unit_square)
        u = grid_bump(g, random_interior_bump(unit_square,
                                              np.random.default_rng(3)))
        rep = verify_energy_inequality(u, spec, g)
        norms = weighted_norms(u, g)
        assert rep.rhs == norms.h1_weighted ** 2

    def test_one_gradient_two_integrals_per_call(self, unit_square,
                                                 monkeypatch):
        import coldwave.multipliers
        import coldwave.quadrature

        calls = {"gradient": 0, "integrate_signed": 0}
        for name in calls:
            real = getattr(coldwave.quadrature, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            for module in (coldwave.multipliers, coldwave.quadrature):
                monkeypatch.setattr(module, name, counted)
        g = Grid2D(unit_square, 17, 17)
        dec = decompose_cells(g)
        spec = MultiplierSpec(1.5, unit_square)
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = grid_bump(g, random_interior_bump(unit_square, rng))
            verify_energy_inequality(u, spec, g, decomp=dec)
        assert calls == {"gradient": 20, "integrate_signed": 40}


KAPPAS = (0.0, 0.5, 1.0, 1.5, 2.0)


def gram_reference(grid, spec):
    """S and W of bump_gram summed point by point: every basis field,
    its gradient and L of it on the lattice, valued at every quadrature
    point as verify_energy_inequality values them, with no 1-D rows
    shared between points."""
    d = multipliers.BUMP_DEGREE + 1
    x0, x1, y0, y1 = grid.domain.bounding_box
    X, Y = grid.meshgrid()
    X = (2.0 * X - (x0 + x1)) / (x1 - x0)
    Y = (2.0 * Y - (y0 + y1)) / (y1 - y0)
    fields = []
    for i in range(d):
        for j in range(d):
            u = (1.0 - X ** 2) ** 2 * (1.0 - Y ** 2) ** 2 * X ** i * Y ** j
            u[grid.boundary] = 0.0
            fields.append((u, *gradient(u, grid),
                           apply_L(u, grid, spec.kappa)))
    S = W = 0.0
    for pts in decompose_cells(grid).points:
        u, ux, uy, lu = (np.array([pts.values(F) for F in basis])
                         for basis in zip(*fields))
        w = pts.weight
        K = canonical_type_function(pts.x, pts.y)
        mu = -u + spec.b(K, pts.sign) * ux + spec.c(pts.y) * uy
        absk = np.abs(K)
        S = S + (w * mu) @ lu.T
        W = W + (w * absk * ux) @ ux.T + (w * uy) @ uy.T
    return S, W


def assert_gram_matches_reference(grid, kappa):
    spec = MultiplierSpec(kappa, grid.domain)
    gram = bump_gram(grid, spec)
    for got, want in zip((gram.S, gram.W), gram_reference(grid, spec)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestBumpGram:
    @pytest.mark.parametrize("box, nx, ny, sides", [
        ((-1.0, 1.0, -1.0, 1.0), 33, 33, (True, True)),
        ((1.5, 2.5, -0.4, 0.4), 33, 33, (True, False)),
        ((-3.0, -2.0, -0.5, 0.5), 33, 33, (False, True)),
        ((-1.0, 1.0, -1.0, 1.0), 33, 21, (True, True)),
        ((-1.0, 1.0, -1.0, 1.0), 17, 40, (True, True))])
    @pytest.mark.parametrize("kappa", [0.5, 1.5])
    def test_matches_point_by_point_sum(self, box, nx, ny, sides, kappa):
        g = Grid2D(Domain.rectangle(*box), nx, ny)
        assert tuple(pts.x.size > 0
                     for pts in decompose_cells(g).points) == sides
        assert_gram_matches_reference(g, kappa)

    @pytest.mark.parametrize("kappa", [0.5, 1.5])
    def test_matches_point_by_point_sum_degree_5(self, kappa, monkeypatch):
        monkeypatch.setattr(multipliers, "BUMP_DEGREE", 5)
        assert_gram_matches_reference(
            Grid2D(Domain.rectangle(-0.3, 1.2, -0.9, 0.7), 29, 35), kappa)

    @pytest.mark.parametrize("box, n", [
        ((-1.0, 1.0, -1.0, 1.0), 17), ((-1.0, 1.0, -1.0, 1.0), 65),
        ((-0.3, 1.2, -0.9, 0.7), 17)])
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_ratios_match_per_field_check(self, box, n, kappa):
        # the same seed gives the same bumps both ways
        domain = Domain.rectangle(*box)
        g = Grid2D(domain, n, n)
        dec = decompose_cells(g)
        spec = MultiplierSpec(kappa, domain)
        rng = np.random.default_rng(19)
        expected = [verify_energy_inequality(
            grid_bump(g, random_interior_bump(domain, rng)),
            spec, g, decomp=dec).ratio for _ in range(8)]
        alphas = np.random.default_rng(19).uniform(-1.0, 1.0, (8, 4, 4))
        got = bump_gram(g, spec).ratios(alphas)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_span_minimum_is_the_minimizer_ratio(self, unit_square, kappa):
        g = Grid2D(unit_square, 65, 65)
        spec = MultiplierSpec(kappa, unit_square)
        gram = bump_gram(g, spec)
        span_min, alpha = gram.span_minimum()
        assert np.abs(alpha).max() == 1.0 == alpha.max()
        trials = gram.ratios(
            np.random.default_rng(4).uniform(-1.0, 1.0, (50, 4, 4)))
        assert span_min <= trials.min()
        u = grid_bump(g, lambda X, Y: (1 - X ** 2) ** 2 * (1 - Y ** 2) ** 2
                      * polyval2d(X, Y, alpha.reshape(4, 4)))
        rep = verify_energy_inequality(u, spec, g)
        assert rep.ratio == pytest.approx(span_min, rel=1e-10)

    def test_minimizer_sign_convention(self, unit_square):
        # flipping basis signs flips the minimizer's entries alike; the
        # reported coefficients keep their largest entry at +1 either way
        g = Grid2D(unit_square, 33, 33)
        gram = bump_gram(g, MultiplierSpec(0.5, unit_square))
        span_min, alpha = gram.span_minimum()
        rng = np.random.default_rng(2)
        for _ in range(8):
            d = rng.choice([-1.0, 1.0], alpha.size)
            flipped = BumpGram(d[:, None] * gram.S * d,
                               d[:, None] * gram.W * d).span_minimum()
            expected = d * alpha / (d * alpha)[np.argmax(np.abs(alpha))]
            assert flipped[0] == pytest.approx(span_min, rel=1e-12)
            assert flipped[1].max() == 1.0
            np.testing.assert_allclose(flipped[1], expected, atol=1e-9)

    @pytest.mark.parametrize("n", [65, 129])
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_span_minimum_clears_bound(self, unit_square, n, kappa):
        g = Grid2D(unit_square, n, n)
        spec = MultiplierSpec(kappa, unit_square)
        span_min, _ = bump_gram(g, spec).span_minimum()
        assert span_min >= spec.delta

    def test_build_memory_is_blocked(self, unit_square):
        # the (points x 16) matrices of a 129^2 grid held at once peak
        # near 14 MB; through shared 1-D rows the build holds per-cell
        # coefficients and (rows x 16) products, and the peak, below
        # 2 MB, is the cell decomposition's
        g = Grid2D(unit_square, 129, 129)
        spec = MultiplierSpec(1.5, unit_square)
        bump_gram(g, spec)
        tracemalloc.start()
        try:
            bump_gram(g, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_domain_mismatch_refused(self, unit_square):
        # a spec from [0, 1]^2 on a [-1, 1]^2 grid: its Q1 and Q2 are not
        # this domain's, so both checks refuse it
        spec = MultiplierSpec(1.5, Domain.rectangle(0, 1, 0, 1))
        g = Grid2D(unit_square, 17, 17)
        with pytest.raises(ValueError, match="not the multiplier's domain"):
            bump_gram(g, spec)
        with pytest.raises(ValueError, match="not the multiplier's domain"):
            verify_energy_inequality(np.zeros((17, 17)), spec, g)

    def test_rectangle_only(self):
        dom = Domain(((0.0, 1.0, 0.0, 1.0), (1.0, 2.0, 0.0, 0.5)))
        g = Grid2D(dom, 21, 11)
        with pytest.raises(ValueError):
            bump_gram(g, MultiplierSpec(1.0, dom))


def box_points(x0, x1, y0, y1, seed, n=64):
    """The four corners of [x0, x1] x [y0, y1] and n random points of it,
    as x and y arrays."""
    rng = np.random.default_rng(seed)
    x = np.concatenate(([x0, x1, x1, x0],
                        np.clip(x0 + (x1 - x0) * rng.random(n), x0, x1)))
    y = np.concatenate(([y0, y0, y1, y1],
                        np.clip(y0 + (y1 - y0) * rng.random(n), y0, y1)))
    return x, y


class TestMixedMultiplierSpec:
    def test_auto_positivity(self):
        dom = Domain.rectangle(0.0, 1.0, 0.0, 0.75)
        spec = MixedMultiplierSpec(dom)
        xs = np.linspace(0, 1, 41)
        ys = np.linspace(0, 0.75, 41)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        K = X - Y ** 2
        b = spec.b(K)
        c = spec.c(Y)
        assert (b > 0).all()
        assert (2 * c * Y + spec.s_const > 0).all()
        assert (b * b + K * c * c > 0).all()
        assert (c < 0).all()

    @settings(max_examples=300, deadline=None)
    @given(xs=st.lists(st.one_of(st.floats(-100.0, 100.0),
                                 st.floats(-1e15, 1e15)),
                       min_size=2, max_size=2, unique=True),
           ys=st.lists(st.one_of(st.floats(-1.0, 1.0),
                                 st.floats(-1e15, 1e15)),
                       min_size=2, max_size=2, unique=True),
           mu=st.floats(1e-3, 8.0), frac=st.floats(1e-3, 0.999),
           seed=st.integers(0, 2 ** 32 - 1))
    # a small mu and a thin strip leave b > sqrt(-K) |c| to the last term
    # of s_const
    @example(xs=[-100.0, 0.0], ys=[0.0, 0.01], mu=1e-3, frac=0.05, seed=0)
    def test_auto_positive_by_construction(self, xs, ys, mu, frac, seed):
        # s_const bounds the three quantities over the whole box, from
        # K's exact range; mu y1 < 2^53 keeps c < 0 as well
        (x0, x1), (y0, y1) = sorted(xs), sorted(ys)
        spec = MixedMultiplierSpec(Domain.rectangle(x0, x1, y0, y1), mu=mu,
                                   delta=mu * frac)
        X, Y = box_points(x0, x1, y0, y1, seed)
        K = X - Y * Y
        b, c = spec.b(K), spec.c(Y)
        assert (b >= 1.0).all()
        assert (2.0 * c * Y + spec.s_const >= 1.0).all()
        assert (b > np.sqrt(np.maximum(-K, 0.0)) * np.abs(c)).all()
        assert (b * b + K * c * c > 0.0).all()
        assert (c < 0.0).all()

    @settings(max_examples=300, deadline=None)
    @given(xs=st.lists(st.floats(-1e15, 1e15), min_size=2, max_size=2,
                       unique=True),
           ys=st.lists(st.floats(-1e17, 1e17), min_size=2, max_size=2,
                       unique=True),
           mu=st.floats(0.0, exclude_min=True, allow_infinity=False),
           frac=st.floats(1e-3, 0.999), seed=st.integers(0, 2 ** 32 - 1))
    @example(xs=[0.0, 1.0], ys=[0.0, 1e16], mu=1.0, frac=0.05, seed=0)
    def test_c_negative_by_construction(self, xs, ys, mu, frac, seed):
        # t >= nextafter(top) > top = mu max(0, y1) >= mu y at every point
        # of the box; on [0, 1] x [0, 1e16], 1 + top == top, and only the
        # nextafter term keeps c < 0
        (x0, x1), (y0, y1) = sorted(xs), sorted(ys)
        dom = Domain.rectangle(x0, x1, y0, y1)
        spec = built_or_refused(
            lambda: MixedMultiplierSpec(dom, mu=mu, delta=mu * frac))
        assume(spec is not None)
        assert (spec.c(box_points(x0, x1, y0, y1, seed)[1]) < 0.0).all()

    @pytest.mark.parametrize("y1, mu, t", [
        (1e15, 1.0, 1.0 + 1e15),
        (1e16, 1.0, math.nextafter(1e16, math.inf)),
        (1e15, 9.5, math.nextafter(9.5e15, math.inf)),
    ], ids=["below_2_53", "past_2_53", "past_2_53_mu_9.5"])
    def test_auto_keeps_t_above_mu_y(self, y1, mu, t):
        # past 2^53, 1 + mu * y1 rounds to mu * y1 and t is the next double
        spec = MixedMultiplierSpec(Domain.rectangle(0, 1, 0, y1), mu=mu)
        assert spec.t == t
        # c increases with y, so its largest value on the box is at y1
        assert spec.c(y1) < 0.0

    def test_matrix_shape(self):
        spec = MixedMultiplierSpec(Domain.rectangle(0, 1, 0, 0.75))
        K = 0.5 - 0.25 ** 2
        M = spec.matrix(K, 0.25)
        assert M[0, 0] == M[1, 1]
        assert M[1, 0] == pytest.approx(-K * M[0, 1])

    def test_proviso_density_is_weighted_transpose(self, rng):
        # M^T f with its entries written out
        spec = MixedMultiplierSpec(Domain.rectangle(0, 1, 0, 0.75))
        x, y = rng.uniform(0.0, 1.0, 1000), rng.uniform(0.0, 0.75, 1000)
        f1, f2 = rng.normal(size=(2, 1000))
        K = canonical_type_function(x, y)
        b, c = spec.b(K), spec.c(y)
        w1 = (b * f1 - K * c * f2) / np.abs(K)
        w2 = c * f1 + b * f2
        assert np.array_equal(spec.proviso_density(K, y, f1, f2),
                              w1 * w1 + w2 * w2)

    def test_invalid(self):
        dom = Domain.rectangle(0.0, 1.0, 0.0, 0.75)
        with pytest.raises(SpecInvalid):
            MixedMultiplierSpec(dom, mu=-1.0)
        with pytest.raises(SpecInvalid):
            MixedMultiplierSpec(dom, mu=1.0, delta=2.0)

    @pytest.mark.parametrize("box, message", [
        ((-1.0, 1.0, -1.0, 1.0),
         "s_const=inf is not finite for mu=1e+308 on "
         "((-1.0, 1.0, -1.0, 1.0),)"),
        ((0.0, 1.0, 0.0, 10.0),
         "t=inf is not finite for mu=1e+308 on ((0.0, 1.0, 0.0, 10.0),)")])
    def test_overflow_refused_by_name(self, box, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpecInvalid) as err:
                MixedMultiplierSpec(Domain.rectangle(*box), mu=1e308)
        assert str(err.value) == message

    @pytest.mark.parametrize("name", ["mu", "delta"])
    def test_nan_rejected(self, name):
        values = {"mu": 1.0, "delta": 0.05, name: float("nan")}
        with pytest.raises(SpecInvalid):
            MixedMultiplierSpec(Domain.rectangle(0.0, 1.0, 0.0, 0.75),
                                **values)


class TestBoundaryAdmissible:
    def test_first_quadrant_box(self):
        dom = Domain.rectangle(0.0, 1.0, 0.0, 0.75)
        spec = MixedMultiplierSpec(dom)
        report = boundary_admissible(("top", "left"), spec)
        assert isinstance(report, BoundaryReport)
        assert report.admissible

    def test_conormal_lens_box(self):
        # corners on the sonic curve: x-range [y0^2, y1^2]
        dom = Domain.rectangle(0.25, 1.0, 0.5, 1.0)
        spec = MixedMultiplierSpec(dom)
        report = boundary_admissible((), spec)
        assert report.admissible
        assert all(not seg.in_G for seg in report.segments)

    def test_orientation_flip_fails(self):
        dom = Domain.rectangle(0.0, 1.0, 0.0, 0.75)
        spec = MixedMultiplierSpec(dom)
        assert boundary_admissible(("top", "left"), spec).admissible
        flipped = boundary_admissible(("top", "left"), spec,
                                      orientation=-1)
        assert not flipped.admissible

    def test_orientation_covariance(self):
        dom = Domain.rectangle(0.0, 1.0, 0.0, 0.75)
        spec = MixedMultiplierSpec(dom)
        fwd = boundary_admissible(("top",), spec)
        rev = boundary_admissible(("top",), spec, orientation=-1)
        for a, b in zip(fwd.segments, rev.segments):
            assert a.min_value == pytest.approx(-b.max_value, rel=1e-12)
            assert a.max_value == pytest.approx(-b.min_value, rel=1e-12)

    def test_bad_G_inadmissible(self):
        dom = Domain.rectangle(0.0, 1.0, 0.0, 0.75)
        spec = MixedMultiplierSpec(dom)
        # bottom has b dy - c dx = -c dx > 0, so it cannot sit in G
        report = boundary_admissible(("bottom",), spec)
        assert not report.admissible

    @settings(max_examples=100, deadline=None)
    @given(xs=st.lists(st.integers(-32, 32), min_size=2, max_size=2,
                       unique=True),
           ys=st.lists(st.integers(-32, 32), min_size=2, max_size=2,
                       unique=True),
           mu=st.floats(0.1, 4.0), frac=st.floats(1e-3, 0.999))
    def test_verdict_equals_dense_reference(self, xs, ys, mu, frac):
        # corners on multiples of 1/16 put K at multiples of 1/256, so no
        # verdict rests on a value within SIGN_TOL of 0, and 4096
        # midpoints per side see every sign that the side's values take
        (x0, x1), (y0, y1) = (sorted(v / 16.0 for v in xs),
                              sorted(v / 16.0 for v in ys))
        spec = MixedMultiplierSpec(Domain.rectangle(x0, x1, y0, y1), mu=mu,
                                   delta=mu * frac)
        ts = (np.arange(4096) + 0.5) / 4096
        for orientation in (1, -1):
            for k in range(16):
                G = [name for bit, name in enumerate(Domain.SEGMENTS)
                     if k >> bit & 1]
                report = boundary_admissible(G, spec, orientation)
                for seg, rep in zip(spec.domain.boundary_segments(),
                                    report.segments):
                    (xa, ya), (xb, yb) = seg.start, seg.end
                    x, y = xa + ts * (xb - xa), ya + ts * (yb - ya)
                    K = x - y * y
                    length = orientation * math.hypot(xb - xa, yb - ya)
                    q = (spec.b(K) * (yb - ya) - spec.c(y) * (xb - xa)) \
                        / length
                    ok = (q.max() <= SIGN_TOL if seg.name in G
                          else (K * q).min() >= -SIGN_TOL)
                    assert rep.admissible == ok, (seg.name, G, orientation)
                    # the exact extremes bound the midpoints' values
                    vals = q if seg.name in G else K * q
                    assert rep.min_value <= vals.min() + 1e-12 * abs(
                        vals.min())
                    assert rep.max_value >= vals.max() - 1e-12 * abs(
                        vals.max())

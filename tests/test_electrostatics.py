import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings, strategies as st

from coldwave import config as cfg
from coldwave import electrostatics as es
from coldwave import plasma
from coldwave.errors import LayeredNotConverged, SingularCoefficient
from coldwave.fields import Field2D, TensorField2D
from coldwave.typegeometry import canonical_case_classify


def smooth_nonvanishing_k11(rng):
    """Random smooth K11 bounded away from zero on [0, 1]."""
    base = rng.uniform(1.5, 3.0)
    a = rng.uniform(-0.5, 0.5)
    b = rng.uniform(-0.5, 0.5)
    w = rng.uniform(1.0, 4.0)
    return lambda x: base + a * x + b * np.sin(w * x)


class TestIntegrateLayered:
    def test_constant_coefficient(self):
        prob = es.LayeredProblem(lambda x: np.full(np.shape(x), 2.0), 0.0,
                                 (0.0, 1.0))
        sol = es.integrate_layered(prob, 1.0 + 0.5j, 0.0, 1.0)
        assert np.allclose(sol.psi, 1.0 + 0.5j)

    def test_affine(self):
        prob = es.LayeredProblem(lambda x: 1.0 + x, 0.0, (0.0, 1.0))
        sol = es.integrate_layered(prob, 2.0, 0.0, 1.0)
        assert sol.end_value == pytest.approx(1.0, rel=1e-9)

    def test_unconverged_halving_raises(self, monkeypatch):
        # psi oscillates as exp(-30 i ln x): the quadrature needs 129 cells
        monkeypatch.setattr(es, "LAYERED_MAX_CELLS", 100)
        prob = es.LayeredProblem(lambda x: x, 30.0, (1e-4, 1.0))
        with pytest.raises(LayeredNotConverged,
                           match=r"at 99 cells, tolerance 1e-09\)$"):
            es.integrate_layered(prob, 1.0, 1e-4, 1.0)

    def test_phase_below_rounding_raises(self):
        # sigma0 tau ~ 1e9 carries ~1e-7 of rounding: 1e-9 is out of reach
        prob = es.LayeredProblem(lambda x: 1.5 + np.sin(50.0 * x), 1e9,
                                 (0.0, 1.0))
        with pytest.raises(LayeredNotConverged,
                           match=r"rounding \S+e-07 at 64 cells"):
            es.integrate_layered(prob, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("sigma0", [0.0, 3.0])
    def test_nan_coefficient_raises(self, sigma0):
        k11 = lambda x: np.where(abs(x - 0.3) < 1e-3, np.nan, 2.0)
        prob = es.LayeredProblem(k11, sigma0, (0.0, 1.0))
        with pytest.raises(LayeredNotConverged, match="rounding nan"):
            es.integrate_layered(prob, 1.0, 0.0, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(a=st.floats(0.2, 5.0), slope=st.floats(-0.9, 0.9),
           sign=st.sampled_from([-1.0, 1.0]), sigma0=st.floats(-20.0, 20.0),
           psi0=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3),
           ends=st.tuples(st.floats(0.0, 0.45), st.floats(0.55, 1.0)))
    @example(a=1.0, slope=5e-324, sign=-1.0, sigma0=1.0, psi0=1.0 + 0.0j,
             ends=(0.0, 1.0))
    def test_affine_closed_form(self, a, slope, sign, sigma0, psi0, ends):
        # K11 = sign * a * (1 + slope x) stays >= 0.1 a in size on [0, 1];
        # tau = ln(K(x)/K(x0)) / K' = (x - x0)/K(x0) * log1p(u)/u with
        # u = K'(x - x0)/K(x0), whose ratio -> 1 as u -> 0: a slope whose
        # product with x - x0 underflows (or is 0) keeps tau = (x - x0)/K(x0)
        k11 = lambda x: sign * a * (1.0 + slope * x)
        prob = es.LayeredProblem(k11, sigma0, (0.0, 1.0))
        sol = es.integrate_layered(prob, psi0, *ends)
        k, dx = k11(sol.xs), sol.xs - ends[0]
        u = slope * dx / (1.0 + slope * ends[0])
        ratio = np.ones_like(u)
        nz = u != 0.0
        ratio[nz] = np.log1p(u[nz]) / u[nz]
        tau = dx / k[0] * ratio
        exact = psi0 * k[0] / k * np.exp(-1j * sigma0 * tau)
        assert np.all(np.abs(sol.psi - exact) <= 1e-10 * np.abs(exact))

    @pytest.mark.parametrize("x0", [1e-4, 1e-6])
    def test_resonant_graded(self, x0):
        # K11 = x near its zero: psi = (x0/x) exp(-30 i ln(x/x0))
        prob = es.LayeredProblem(lambda x: x, 30.0, (x0, 1.0))
        sol = es.integrate_layered(prob, 1.0, x0, 1.0)
        closed = x0 * np.exp(-30j * math.log(1.0 / x0))
        assert abs(sol.end_value - closed) <= 1e-10 * abs(closed)

    def test_constant_exact_phase(self):
        prob = es.LayeredProblem(lambda x: np.full(np.shape(x), -2.5), 7.0,
                                 (0.0, 3.0))
        sol = es.integrate_layered(prob, 0.3 - 0.4j, 0.5, 2.75)
        exact = (0.3 - 0.4j) * np.exp(-7j * (sol.xs - 0.5) / -2.5)
        assert np.abs(sol.psi - exact).max() <= 1e-13

    def test_ends_and_start_value_exact(self):
        x0, x1, psi0 = 0.1, 0.7, -0.3 + 0.9j
        prob = es.LayeredProblem(lambda x: 1.5 + np.sin(9.0 * x), 4.0,
                                 (0.0, 1.0))
        sol = es.integrate_layered(prob, psi0, x0, x1)
        assert sol.xs[0] == x0 and sol.xs[-1] == x1 and sol.psi[0] == psi0
        assert sol.xs.shape == sol.psi.shape == (sol.steps + 1,)
        assert np.all(np.diff(sol.xs) > 0.0)

    def test_derivative_never_read(self):
        class ValuesOnly:
            """K11 = 2 + x, refusing to give any attribute, such as a
            derivative, beside its values."""

            def __call__(self, x):
                return 2.0 + x

            def __getattr__(self, name):
                raise AssertionError(f"K11.{name} read")

        prob = es.LayeredProblem(ValuesOnly(), 1.5, (0.0, 1.0))
        sol = es.integrate_layered(prob, 1.0, 0.0, 1.0)
        closed = 2.0 / 3.0 * np.exp(-1.5j * math.log(1.5))
        assert abs(sol.end_value - closed) <= 1e-10

    def test_resonant_closed_form(self):
        # K11 = x: psi = psi0 (x0/x) exp(-i sigma0 ln(x/x0))
        x0, sigma0 = 1e-2, 30.0
        prob = es.LayeredProblem(lambda x: x, sigma0, (x0, 1.0))
        sol = es.integrate_layered(prob, 1.0, x0, 1.0)
        closed = x0 * np.exp(-1j * sigma0 * math.log(1.0 / x0))
        assert abs(sol.end_value - closed) <= 1e-8 * abs(closed)

    def test_scalar_fields_broadcast(self):
        # the layered K11 of a constant field is a float at a float x
        # and an array of x's shape at an array x
        k11 = cfg.parse_layered({"K11": {"kind": "constant", "value": 2.0},
                                 "x_range": [0.0, 1.0]}).K11
        assert np.ndim(k11(0.5)) == 0 and k11(0.5) == 2.0
        for x in (np.linspace(0.0, 1.0, 5), np.ones((3, 4))):
            np.testing.assert_array_equal(k11(x), np.full(x.shape, 2.0))

    def test_scalar_valued_k11_refused(self):
        with pytest.raises(ValueError, match="array of x's shape"):
            es.LayeredProblem(lambda x: 2.0, 1.0, (0.0, 1.0))

    def test_scalar_2d_fields_broadcast(self):
        x, z = np.linspace(0.0, 1.0, 5)[:, None], np.linspace(-1, 1, 3)
        for k in (Field2D.constant(2.0), Field2D.affine_quadratic(0.5, 4.0),
                  Field2D(lambda x, z: 3.0)):
            for fn in (k, k.dx, k.dz):
                values = fn(x, z)
                assert values.shape == (5, 3)
                np.testing.assert_array_equal(
                    values, [[fn(p, q) for q in z.tolist()]
                             for p in x.ravel().tolist()])
            assert np.ndim(k(0.5, 0.25)) == 0

    def test_vanishing_leading_coefficient(self):
        with pytest.raises(SingularCoefficient):
            es.LayeredProblem(lambda x: x, 0.0, (-0.5, 0.5))

    def test_touching_zero_between_samples(self):
        # 1 + sin 9x touches 0 at pi/6, between two of the 257 samples
        with pytest.raises(SingularCoefficient, match="touches 0"):
            es.LayeredProblem(lambda x: 1.0 + np.sin(9.0 * x), 0.0,
                              (0.1, 0.7))
        es.LayeredProblem(lambda x: 1.0001 + np.sin(9.0 * x), 0.0,
                          (0.1, 0.7))

    @settings(max_examples=200, deadline=None)
    @given(x0=st.floats(-5.0, 5.0), width=st.floats(0.01, 5.0),
           t=st.floats(0.0, 1.0), c=st.floats(1e-3, 1e3),
           sign=st.sampled_from([-1.0, 1.0]), delta=st.floats(1e-9, 1.0))
    def test_double_zero_refused(self, x0, width, t, c, sign, delta):
        # c (x - x*)^2 vanishes at x* wherever it falls between the
        # samples; lifted by delta it vanishes nowhere
        x1 = x0 + width
        xs = x0 + t * width
        with pytest.raises(SingularCoefficient):
            es.LayeredProblem(lambda x: sign * c * (x - xs) ** 2, 0.0,
                              (x0, x1))
        es.LayeredProblem(lambda x: sign * (c * (x - xs) ** 2 + delta), 0.0,
                          (x0, x1))

    def test_closed_form_oracle(self, rng):
        # psi = psi0 K(x0)/K(x) exp(-i sigma0 int dt/K), integral by quad
        for _ in range(100):
            k11 = smooth_nonvanishing_k11(rng)
            sigma0 = rng.uniform(-3.0, 3.0)
            x0, x1 = sorted(rng.uniform(0.0, 1.0, 2))
            if x1 - x0 < 0.1:
                continue
            psi0 = complex(rng.normal(), rng.normal())
            prob = es.LayeredProblem(k11, sigma0, (0.0, 1.0))
            sol = es.integrate_layered(prob, psi0, x0, x1)
            I, _ = scipy.integrate.quad(lambda t: 1.0 / k11(t), x0, x1,
                                        epsabs=1e-13, epsrel=1e-13)
            closed = psi0 * k11(x0) / k11(x1) * np.exp(-1j * sigma0 * I)
            assert abs(sol.end_value - closed) <= 1e-8 * abs(closed)


class TestPDECoefficients:
    def test_longitudinal_tensor_sigma_zero(self):
        st = plasma.StixParameters(0.5, 5 / 6, 2 / 3, -1 / 6, 0.75)
        t = TensorField2D.from_stix(st)
        pc = es.pde_coefficients(t, 1.3, 0.2, -0.4)
        assert pc.sigma == 0.0
        assert pc.alpha1 == 0.0  # K12 + K21 cancels, fields constant
        assert pc.alpha2 == 0.0

    def test_constant_tensor(self):
        t = TensorField2D(K11=Field2D.constant(2.0),
                          K33=Field2D.constant(3.0))
        pc = es.pde_coefficients(t, 0.0, 0.1, 0.2)
        assert pc.alpha1 == 0.0 and pc.alpha2 == 0.0
        assert (pc.K11, pc.K33) == (2.0, 3.0)

    def test_linear_k11(self):
        t = TensorField2D(K11=Field2D(lambda x, z: x, lambda x, z: 1.0,
                                      lambda x, z: 0.0))
        pc = es.pde_coefficients(t, 0.0, 0.7, 0.1)
        assert pc.alpha1 == pytest.approx(1.0)
        assert pc.alpha2 == 0.0

    def test_fd_fallback_order(self):
        # halving the fallback step must show ~O(h^2) error decay
        def make(scale):
            return TensorField2D(
                K11=Field2D(lambda x, z: np.sin(x) * np.cos(z), scale=scale))

        exact = math.cos(0.7) * math.cos(0.3)
        errs = []
        for scale in (2000.0, 1000.0):
            pc = es.pde_coefficients(make(scale), 0.0, 0.7, 0.3)
            errs.append(abs(pc.alpha1.real - exact))
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.9


class TestTypeFromProduct:
    @pytest.mark.parametrize("k11,k33,expected", [
        (1.0, 1.0, "elliptic"),
        (-1.0, 1.0, "hyperbolic"),
        (0.0, 1.0, "parabolic"),
        (2.0, -3.0, "hyperbolic"),
        (-2.0, -3.0, "elliptic"),
    ])
    def test_classification(self, k11, k33, expected):
        assert es.type_from_product(k11, k33) == expected

    def test_odd_under_sign_flip(self, rng):
        flip = {"elliptic": "hyperbolic", "hyperbolic": "elliptic",
                "parabolic": "parabolic"}
        for _ in range(50):
            k11, k33 = rng.uniform(-2, 2, 2)
            a = es.type_from_product(k11, k33)
            b = es.type_from_product(-k11, k33)
            assert b == flip[a]


def keldysh_points(k11, box):
    """The sonic-point search of k11 in the box, each of its points
    checked to classify as a Keldysh point."""
    res = es.singular_points_on_sonic_line(k11, box)
    assert all(canonical_case_classify(k11, p) == "keldysh_point"
               for p in res.points)
    return res


class TestSingularPoints:
    def test_local_model_origin(self):
        k = Field2D.affine_quadratic(1.0, 1.0)
        res = keldysh_points(k, (-1, 1, -1, 1))
        assert not res.degenerate
        assert len(res.points) == 1
        x, z = res.points[0]
        assert math.hypot(x, z) < 1e-8

    def test_translated_model(self):
        k = Field2D(lambda x, z: (x - 1.0) / 2.0 + (z - 3.0) ** 2,
                    lambda x, z: 0.5,
                    lambda x, z: 2.0 * (z - 3.0))
        res = keldysh_points(k, (0, 2, 2, 4))
        assert len(res.points) == 1
        x, z = res.points[0]
        assert (x, z) == pytest.approx((1.0, 3.0), abs=1e-7)

    def test_plane_layered_degenerate(self):
        k = Field2D(lambda x, z: x, lambda x, z: 1.0, lambda x, z: 0.0)
        res = keldysh_points(k, (-1, 1, -1, 1))
        assert res.degenerate
        assert res.points == ()

    def test_transversal_crossing_has_no_point(self):
        k = Field2D(lambda x, z: x - z / 2, lambda x, z: 1.0,
                    lambda x, z: -0.5)
        res = keldysh_points(k, (-1, 1, -1, 1))
        assert not res.degenerate
        assert res.points == ()

    @pytest.mark.parametrize("exact", [True, False],
                             ids=["analytic", "central-difference"])
    def test_two_tangencies(self, exact):
        # K11_z = -cos 3z vanishes at z = +/- pi/6, where x = +/- 1/3
        def fn(x, z):
            return x - np.sin(3.0 * z) / 3.0

        k = (Field2D(fn, lambda x, z: 1.0, lambda x, z: -np.cos(3.0 * z))
             if exact else Field2D(fn))
        res = keldysh_points(k, (-1, 1, -1, 1))
        np.testing.assert_allclose(
            res.points, [(-1 / 3, -math.pi / 6), (1 / 3, math.pi / 6)],
            rtol=0, atol=1e-7)

    def test_quartic_tangency(self):
        # K11_z vanishes to third order: a residual test stops short of
        # the point, at a z that classifies as a Tricomi point
        k = Field2D(lambda x, z: x - 0.1 - (z - 0.2) ** 4,
                    lambda x, z: 1.0, lambda x, z: -4.0 * (z - 0.2) ** 3)
        res = keldysh_points(k, (-1, 1, -1, 1))
        np.testing.assert_allclose(res.points, [(0.1, 0.2)], rtol=0,
                                   atol=1e-7)

    def test_critical_curve_off_the_sonic_line(self):
        # K11_z = 0 also on x = z^2, where K11 = -1e-4 and the root
        # finder stalls: those candidates are no Keldysh points
        k = Field2D(lambda x, z: (x - z * z) ** 2 - 1e-4,
                    lambda x, z: 2.0 * (x - z * z),
                    lambda x, z: -4.0 * z * (x - z * z))
        res = keldysh_points(k, (-1, 1, -1, 1))
        np.testing.assert_allclose(res.points, [(-0.01, 0.0), (0.01, 0.0)],
                                   rtol=0, atol=1e-7)

    @settings(max_examples=100, deadline=None)
    @given(xc=st.floats(-10.0, 10.0), zc=st.floats(-10.0, 10.0),
           a=st.floats(-1.0, 1.0), b=st.floats(-1.0, 1.0),
           signs=st.tuples(st.sampled_from([-1.0, 1.0]),
                           st.sampled_from([-1.0, 1.0])),
           sides=st.tuples(*[st.floats(0.1, 1.0)] * 4),
           exact=st.booleans())
    def test_translated_scaled_models(self, xc, zc, a, b, signs, sides,
                                      exact):
        # (x - xc)/a + (z - zc)^2/b with |a|, |b| in [0.1, 10] has one
        # Keldysh point, (xc, zc), wherever it lies in the box
        a, b = signs[0] * 10.0 ** a, signs[1] * 10.0 ** b

        def fn(x, z):
            return (x - xc) / a + (z - zc) ** 2 / b

        k = (Field2D(fn, lambda x, z: 1.0 / a, lambda x, z: 2 * (z - zc) / b)
             if exact else Field2D(fn))
        box = (xc - sides[0], xc + sides[1], zc - sides[2], zc + sides[3])
        res = keldysh_points(k, box)
        assert len(res.points) == 1
        assert res.points[0] == pytest.approx((xc, zc), abs=1e-7)


class TestNormalForm:
    def test_standard_form(self):
        d = es.NormalForm(2.0, 1.0, 4.0, A_const=1.0)
        assert d.drift == -1.0
        assert d.xx_coefficient(0.5, 0.3) == pytest.approx(-(0.5 + 0.09))
        assert d.to_scaled(2.0, 8.0) == pytest.approx((1.0, 2.0))

    def test_flipped_is_canonical_model(self):
        d = es.NormalForm(1.0, 1.0, 1.0, A_const=1.0, orientation="flipped")
        for x, y in ((0.3, 0.5), (-1.0, 0.2), (2.0, -1.0)):
            assert d.xx_coefficient(x, y) == pytest.approx(x - y * y)
        assert d.drift == 1.0

    def test_roundtrip(self, rng):
        for orientation in ("standard", "flipped"):
            d = es.NormalForm(rng.uniform(0.5, 2.0), 1.0,
                              rng.uniform(0.5, 2.0), orientation=orientation)
            for _ in range(10):
                x, z = rng.uniform(-3, 3, 2)
                xt, zt = d.to_scaled(x, z)
                xb, zb = d.from_scaled(xt, zt)
                assert abs(xb - x) <= 1e-14 * max(1.0, abs(x))
                assert abs(zb - z) <= 1e-14 * max(1.0, abs(z))

    def test_invariants(self):
        with pytest.raises(ValueError):
            es.NormalForm(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            es.NormalForm(1.0, 1.0, -1.0)

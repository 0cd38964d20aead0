import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from coldwave import plasma, typegeometry as tg
from coldwave.errors import StartNotHyperbolic
from coldwave.fields import Field2D


def fit_parabola_coefficient(path):
    """Least-squares lambda for x = lambda y^2 over a traced path."""
    x = path.points[:, 0]
    y = path.points[:, 1]
    w = y * y
    return float(np.sum(x * w) / np.sum(w * w))


def reference_trace(start, branch, h, domain=None, max_steps=200000):
    """trace_characteristic's RK4 loop as it was written first, with the
    builtins min/max and a point list of tuples: (points, termination)."""
    x, y = float(start[0]), float(start[1])
    direction = -1.0 if y > 0.0 else 1.0
    pts = [(x, y)]
    termination = "step_limit"
    for _ in range(max_steps):
        if math.hypot(x, y) < 10.0 * h:
            termination = "reached_origin_ball"
            break
        gap = y * y - x
        if gap < h * h:
            termination = "reached_sonic"
            break
        if domain is not None:
            x0, x1, y0, y1 = domain
            if not (x0 <= x <= x1 and y0 <= y <= y1):
                termination = "reached_boundary"
                break
        k1 = branch * math.sqrt(gap)
        step = direction * min(h, 0.5 * gap / (abs(k1) + h))
        ym = y + 0.5 * step
        k2 = branch * math.sqrt(max(ym * ym - (x + 0.5 * step * k1), 0.0))
        k3 = branch * math.sqrt(max(ym * ym - (x + 0.5 * step * k2), 0.0))
        y_next = y + step
        k4 = branch * math.sqrt(max(y_next * y_next - (x + step * k3), 0.0))
        x = x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y = y_next
        pts.append((x, y))
    return np.array(pts), termination


coordinates = st.floats(-3.0, 3.0) | st.just(math.nan)


@st.composite
def boxes(draw):
    x0, x1, y0, y1 = (draw(coordinates) for _ in range(4))
    return (min(x0, x1), max(x0, x1), min(y0, y1), max(y0, y1))


@settings(max_examples=60, deadline=None)
@given(y=st.floats(-2.0, 2.0), gap=st.floats(1e-6, 4.0),
       branch=st.sampled_from([1, -1]), h=st.floats(1e-4, 1e-2),
       domain=st.none() | boxes(), max_steps=st.integers(0, 20000))
def test_trace_equals_reference(y, gap, branch, h, domain, max_steps):
    start = (y * y - gap, y)
    assume(y * y - start[0] > 0.0)
    path = tg.trace_characteristic(start, branch, h, domain, max_steps)
    points, termination = reference_trace(start, branch, h, domain,
                                          max_steps)
    assert path.termination == termination
    assert np.array_equal(path.points, points)
    # bit for bit, signed zeros included
    assert path.points.tobytes() == points.tobytes()


class TestClassification:
    def test_canonical_cases(self):
        f = Field2D.affine_quadratic(1.0, -1.0)
        assert tg.canonical_case_classify(f, (0.0, 0.0)) == "keldysh_point"
        assert tg.canonical_case_classify(f, (1.0, 1.0)) == "tricomi_point"
        assert tg.canonical_case_classify(f, (5.0, 0.0)) == "not_on_sonic"

    def test_accepts_field2d(self):
        f = Field2D(lambda x, z: x - z * z, lambda x, z: 1.0,
                    lambda x, z: -2.0 * z)
        assert tg.canonical_case_classify(f, (0.25, 0.5)) == "tricomi_point"

    @pytest.mark.parametrize("field, point", [
        (Field2D.affine_quadratic(1.0, -1.0), (math.nan, 0.0)),
        (Field2D.affine_quadratic(1.0, -1.0), (0.0, math.nan)),
        (Field2D.affine_quadratic(1.0, -1.0), (math.nan, math.nan)),
        (Field2D.constant(math.nan), (0.0, 0.0))],
        ids=["x-nan", "y-nan", "both-nan", "nan-field"])
    def test_nan_is_on_no_sonic_set(self, field, point):
        # abs(nan) > tol is False: a NaN point was a Keldysh or Tricomi one
        assert tg.canonical_case_classify(field, point) == "not_on_sonic"

    def test_keldysh_only_at_origin(self, rng):
        f = Field2D.affine_quadratic(1.0, -1.0)
        for y in rng.uniform(-1.0, 1.0, 50):
            if abs(y) < 1e-4:
                continue
            assert tg.canonical_case_classify(f, (y * y, y)) == "tricomi_point"


class TestCharacteristicDirections:
    def test_hyperbolic_two_directions(self):
        dirs = tg.characteristic_directions((-1.0, 0.0))
        assert len(dirs) == 2
        inv = 1.0 / math.sqrt(2.0)
        assert dirs[0] == pytest.approx((inv, inv))
        assert dirs[1] == pytest.approx((-inv, inv))

    def test_elliptic_none(self):
        assert tg.characteristic_directions((1.0, 0.0)) == []

    def test_sonic_degenerate(self):
        assert tg.characteristic_directions((0.25, 0.5)) == [(0.0, 1.0)]


class TestTraceCharacteristic:
    def test_start_must_be_hyperbolic(self):
        with pytest.raises(StartNotHyperbolic):
            tg.trace_characteristic((1.0, 0.0), 1, 1e-3)

    def test_path_stays_hyperbolic(self):
        h = 1e-3
        path = tg.trace_characteristic((-1.0, 0.5), 1, h)
        k = path.points[:, 0] - path.points[:, 1] ** 2
        assert k.max() <= 10.0 * h * h

    def test_branches_distinct(self):
        p_plus = tg.trace_characteristic((-0.5, 0.4), 1, 1e-3)
        p_minus = tg.trace_characteristic((-0.5, 0.4), -1, 1e-3)
        n = min(len(p_plus.points), len(p_minus.points))
        assert n > 5
        assert not np.allclose(p_plus.points[:n], p_minus.points[:n])

    def test_boundary_stop(self):
        path = tg.trace_characteristic((-1.0, 0.5), -1, 1e-3,
                                       domain=(-1.1, 1.0, -1.0, 1.0))
        assert path.termination == "reached_boundary"

    def test_origin_parabola_fit(self):
        lp, lm = tg.origin_characteristics().roots
        for lam, branch in ((lp, 1), (lm, -1)):
            start = (lam * 0.25 * (1 + 1e-6), 0.5)
            path = tg.trace_characteristic(start, branch, 1e-3)
            assert path.termination == "reached_origin_ball"
            assert fit_parabola_coefficient(path) == pytest.approx(
                lam, abs=1e-3)

    def test_fit_converges_with_step(self):
        lam = tg.origin_characteristics().roots[0]
        errs = []
        for h in (1e-2, 1e-3, 1e-4):
            path = tg.trace_characteristic((lam * 0.25, 0.5), 1, h)
            errs.append(abs(fit_parabola_coefficient(path) - lam))
        assert errs[0] > errs[1] > errs[2]


class TestOriginCharacteristics:
    def test_polynomial_and_roots(self):
        oc = tg.origin_characteristics()
        assert oc.polynomial == (4.0, 1.0, -1.0)
        disc = 1.0 + 16.0
        assert disc > 0.0
        lp, lm = oc.roots
        assert lp == pytest.approx((-1 + math.sqrt(17)) / 8, abs=1e-15)
        assert lm == pytest.approx((-1 - math.sqrt(17)) / 8, abs=1e-15)
        assert lp == pytest.approx(0.390388, abs=1e-6)
        assert lm == pytest.approx(-0.640388, abs=1e-6)

    def test_roots_solve_polynomial(self):
        oc = tg.origin_characteristics()
        a, b, c = oc.polynomial
        for lam in oc.roots:
            assert a * lam * lam + b * lam + c == pytest.approx(0.0, abs=1e-15)

    def test_count_is_four(self):
        assert tg.origin_characteristics().count == 4


class TestCurlCurlSymbol:
    def test_axis_vector(self):
        M, det = tg.curl_curl_symbol((1.0, 0.0, 0.0))
        assert np.allclose(M, np.diag([0.0, -1.0, -1.0]))
        assert det == pytest.approx(0.0, abs=1e-15)

    def test_zero_vector(self):
        M, det = tg.curl_curl_symbol((0.0, 0.0, 0.0))
        assert np.all(M == 0.0) and det == 0.0

    def test_determinant_vanishes(self, rng):
        for _ in range(2000):
            k = rng.uniform(-10.0, 10.0, 3)
            _, det = tg.curl_curl_symbol(k)
            nk = np.linalg.norm(k)
            assert abs(det) <= 1e-12 * max(1.0, nk ** 6)

    def test_kernel_is_k(self, rng):
        # k itself is a null vector of the symbol matrix
        k = rng.uniform(-5, 5, 3)
        M, _ = tg.curl_curl_symbol(k)
        assert np.max(np.abs(M @ k)) <= 1e-12 * np.linalg.norm(k) ** 3


class TestCoulombGaugeSymbol:
    def test_identity_unit_k(self):
        K = plasma.dielectric_tensor(plasma.StixParameters.vacuum())
        assert tg.coulomb_gauge_symbol(K, (1.0, 0.0, 0.0)) == pytest.approx(
            -1.0)

    def test_axial_gives_minus_p(self):
        K = plasma.dielectric_tensor(
            plasma.StixParameters(0.5, 5 / 6, 2 / 3, -1 / 6, 0.75))
        assert tg.coulomb_gauge_symbol(K, (0.0, 0.0, 1.0)) == pytest.approx(
            -0.75)

    def test_degree_six_homogeneity(self, rng):
        for _ in range(200):
            R, L, p = rng.uniform(-2, 2, 3)
            st = plasma.StixParameters(R, L, 0.5 * (R + L), 0.5 * (R - L), p)
            K = plasma.dielectric_tensor(st)
            k = rng.uniform(-10, 10, 3)
            t = rng.uniform(0.5, 3.0)
            s1 = tg.coulomb_gauge_symbol(K, t * k)
            s0 = tg.coulomb_gauge_symbol(K, k)
            assert abs(s1 - t ** 6 * s0) <= 1e-10 * max(abs(t ** 6 * s0),
                                                        1e-300)

    def test_real_for_hermitian_pattern(self, rng):
        st = plasma.StixParameters(0.3, -1.2, -0.45, 0.75, 1.7)
        K = plasma.dielectric_tensor(st)
        k = rng.uniform(-4, 4, 3)
        sigma = tg.coulomb_gauge_symbol(K, k)
        assert abs(sigma.imag) <= 1e-12 * max(1.0, abs(sigma))

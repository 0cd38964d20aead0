import math
import os
import tempfile
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings, strategies as st

from coldwave import dispersion, output, plasma, rootscan
from coldwave.errors import (BracketTooWide, CyclotronResonance,
                             DegenerateQuartic, NumericalFailure)
from test_config_output import (assert_same_text, cell_oracle, csv_oracle,
                                expanded)

E = 1.602176634e-19
ME = 9.1093837015e-31
MP = 1.67262192369e-27
EPS0 = 8.8541878128e-12


def random_stix(rng, s_min=1e-3, p_min=1e-3):
    while True:
        R, L, p = rng.uniform(-2.0, 2.0, 3)
        s, d = 0.5 * (R + L), 0.5 * (R - L)
        if abs(s) > s_min and abs(p) > p_min:
            return plasma.StixParameters(R, L, s, d, p)


def quadratic_roots_oracle(A, B, C):
    """Textbook quadratic solve, independent of the stable path."""
    disc = B * B - 4.0 * A * C
    if disc < 0.0:
        return None
    return sorted(((B + math.sqrt(disc)) / (2.0 * A),
                   (B - math.sqrt(disc)) / (2.0 * A)))


class TestWaveNormalCoefficients:
    def test_vacuum(self):
        for theta in (0.0, 0.3, 1.0, math.pi / 2):
            c = dispersion.wave_normal_coefficients(
                plasma.StixParameters.vacuum(), theta)
            assert (c.A, c.B, c.C) == pytest.approx((1.0, 2.0, 1.0))
            assert c.F_squared == pytest.approx(0.0, abs=1e-15)

    def test_parallel_coefficients(self, rng):
        for _ in range(50):
            st = random_stix(rng)
            c = dispersion.wave_normal_coefficients(st, 0.0)
            rl = st.s ** 2 - st.d ** 2
            assert c.A == pytest.approx(st.p, rel=1e-14)
            assert c.B == pytest.approx(2.0 * st.p * st.s, rel=1e-13)
            assert c.C == pytest.approx(st.p * rl, rel=1e-13)

    def test_f_squared_identity(self, rng):
        # stored F^2 (factored form) must match B^2 - 4AC
        for _ in range(200):
            st = random_stix(rng)
            theta = rng.uniform(0.0, math.pi)
            c = dispersion.wave_normal_coefficients(st, theta)
            direct = c.B * c.B - 4.0 * c.A * c.C
            scale = max(abs(c.F_squared), abs(direct), 1e-30)
            assert abs(c.F_squared - direct) <= 1e-10 * scale
            alt = dispersion.f_squared_alternate(st, theta)
            assert abs(c.F_squared - alt) <= 1e-13 * scale

    def test_formulas_bit_for_bit(self, rng):
        # the scan's CSV bytes rest on this exact arithmetic: each product
        # left to right and each square as x * x
        for _ in range(500):
            st = random_stix(rng)
            theta = rng.uniform(0.0, math.pi)
            sin, cos = np.sin(theta), np.cos(theta)
            sin2, cos2 = sin * sin, cos * cos
            s, d, p = float(st.s), float(st.d), float(st.p)
            rl = s * s - d * d
            c = dispersion.wave_normal_coefficients(
                plasma.StixParameters(st.R, st.L, s, d, p), theta)
            assert c.A == s * sin2 + p * cos2
            assert c.B == rl * sin2 + p * s * (1.0 + cos2)
            assert c.C == p * rl
            g = rl - p * s
            assert c.F_squared == (g * g * sin2 * sin2
                                   + 4.0 * p * p * d * d * cos2)

    def test_f_squared_nonnegative_for_real_stix(self, rng):
        for _ in range(200):
            st = random_stix(rng)
            c = dispersion.wave_normal_coefficients(st, rng.uniform(0, math.pi))
            assert c.F_squared >= 0.0


class TestRefractiveIndices:
    def test_vacuum_roots(self):
        c = dispersion.wave_normal_coefficients(
            plasma.StixParameters.vacuum(), 0.7)
        sol = dispersion.refractive_indices(c)
        assert sol.n_squared == pytest.approx((1.0, 1.0))
        assert sol.classifications == ("propagating", "propagating")

    def test_against_quadratic_oracle(self, rng):
        for _ in range(300):
            st = random_stix(rng)
            theta = rng.uniform(0.0, math.pi / 2)
            c = dispersion.wave_normal_coefficients(st, theta)
            if abs(c.A) < 1e-3:
                continue
            sol = dispersion.refractive_indices(c)
            expected = quadratic_roots_oracle(c.A, c.B, c.C)
            if expected is None:
                assert sol.complex_roots
                continue
            got = sorted(sol.n_squared)
            for g, e in zip(got, expected):
                assert g == pytest.approx(e, rel=1e-8, abs=1e-10)

    def test_parallel_roots_are_R_and_L(self, rng):
        for _ in range(200):
            st = random_stix(rng)
            c = dispersion.wave_normal_coefficients(st, 0.0)
            sol = dispersion.refractive_indices(c)
            got = sorted(sol.n_squared)
            expected = sorted((st.R, st.L))
            for g, e in zip(got, expected):
                assert g == pytest.approx(e, rel=1e-8, abs=1e-12)

    def test_perpendicular_roots(self, rng):
        for _ in range(200):
            st = random_stix(rng)
            c = dispersion.wave_normal_coefficients(st, math.pi / 2)
            sol = dispersion.refractive_indices(c)
            got = sorted(sol.n_squared)
            expected = sorted((st.R * st.L / st.s, st.p))
            for g, e in zip(got, expected):
                assert g == pytest.approx(e, rel=1e-8, abs=1e-12)

    def test_residual_invariant(self, rng):
        for _ in range(200):
            st = random_stix(rng)
            theta = rng.uniform(0.0, math.pi)
            c = dispersion.wave_normal_coefficients(st, theta)
            try:
                sol = dispersion.refractive_indices(c)
            except DegenerateQuartic:
                continue
            if sol.complex_roots or sol.resonance:
                continue
            for r in sol.n_squared:
                res = abs(c.A * r * r - c.B * r + c.C)
                assert res <= 1e-8 * max(1.0, abs(c.A) * r * r)

    def test_resonance_branch(self):
        c = dispersion.WaveNormalCoefficients(0.0, 2.0, 1.0, 4.0, 0.0)
        sol = dispersion.refractive_indices(c)
        assert sol.resonance
        assert sol.n_squared == (0.5,)

    def test_degenerate(self):
        c = dispersion.WaveNormalCoefficients(0.0, 0.0, 1.0, 0.0, 0.0)
        with pytest.raises(DegenerateQuartic):
            dispersion.refractive_indices(c)

    def test_complex_flag(self):
        # B^2 < 4AC forces a conjugate pair
        c = dispersion.WaveNormalCoefficients(1.0, 0.0, 1.0, -4.0, 0.4)
        sol = dispersion.refractive_indices(c)
        assert sol.complex_roots
        assert sol.n_squared[0] == sol.n_squared[1].conjugate()


class TestResonanceAngle:
    def test_p_zero(self):
        st = plasma.StixParameters(1.0, 1.0, 1.0, 0.0, 0.0)
        assert dispersion.resonance_angle(st) == 0.0

    def test_limit_pi_half(self):
        st = plasma.StixParameters(0.0, 0.0, 1e-9, 0.0, -1.0)
        assert dispersion.resonance_angle(st) == pytest.approx(
            math.pi / 2, abs=1e-4)

    def test_unit_ratio(self):
        st = plasma.StixParameters(0.0, 0.0, 1.0, 0.0, -1.0)
        assert dispersion.resonance_angle(st) == pytest.approx(math.pi / 4)

    def test_no_real_angle(self):
        st = plasma.StixParameters(0.0, 0.0, 1.0, 0.0, 1.0)
        assert dispersion.resonance_angle(st) is None

    def test_zero_makes_A_vanish(self, rng):
        for _ in range(50):
            st = random_stix(rng)
            theta = dispersion.resonance_angle(st)
            if theta is None:
                continue
            c = dispersion.wave_normal_coefficients(st, theta)
            assert abs(c.A) <= 1e-12 * (abs(st.s) + abs(st.p))


class TestCutoffFrequencies:
    def test_vacuum_empty(self, vacuum):
        assert dispersion.cutoff_frequencies(vacuum, (1e8, 1e12)) == []

    def test_single_electron_p_cutoff(self):
        n = 1e19
        state = plasma.PlasmaState((plasma.electron(n),), 0.0)
        pi_e = math.sqrt(n * E * E / (EPS0 * ME))
        found = dispersion.cutoff_frequencies(state, (1e10, 1e12))
        p_roots = [w for w, which in found if which == "P"]
        assert len(p_roots) == 1
        assert p_roots[0] == pytest.approx(pi_e, rel=1e-10)

    def test_hydrogen_R_cutoff_above_electron_cyclotron(self, hydrogen):
        om_e = E / ME
        found = dispersion.cutoff_frequencies(hydrogen, (1e8, 1e13))
        r_roots = [w for w, which in found if which == "R"]
        assert len(r_roots) == 1
        assert r_roots[0] > om_e
        # independent oracle: brentq on the R sum written out here
        pi_e2 = 1e19 * E * E / (EPS0 * ME)
        pi_i2 = 1e19 * E * E / (EPS0 * MP)
        om_i = E / MP

        def R(w):
            return 1.0 - pi_e2 / (w * (w - om_e)) - pi_i2 / (w * (w + om_i))

        ref = scipy.optimize.brentq(R, om_e * 1.001, 1e13, xtol=1e-3)
        assert r_roots[0] == pytest.approx(ref, rel=1e-8)

    def test_roots_kill_C(self, hydrogen):
        found = dispersion.cutoff_frequencies(hydrogen, (1e8, 1e13))
        assert found
        for w, _ in found:
            st = plasma.stix_parameters(hydrogen, w)
            assert abs(st.p * (st.s ** 2 - st.d ** 2)) <= 1e-8


class TestHybridResonances:
    def test_vacuum_empty(self, vacuum):
        res = dispersion.hybrid_resonances(vacuum, (1e8, 1e12))
        assert res.roots == ()
        assert res.lower_hybrid_estimate is None

    def test_hydrogen_lower_hybrid(self, hydrogen):
        om_i = E / MP
        om_e = E / ME
        res = dispersion.hybrid_resonances(hydrogen, (2 * om_i, 0.5 * om_e))
        assert res.lower_hybrid_estimate == pytest.approx(2.9e9, rel=0.02)
        assert len(res.roots) == 1
        root = res.roots[0]
        assert root == pytest.approx(res.lower_hybrid_estimate, rel=0.01)
        st = plasma.stix_parameters(hydrogen, root)
        assert abs(st.s) < 1e-8
        below = plasma.stix_parameters(hydrogen, root * 0.99)
        above = plasma.stix_parameters(hydrogen, root * 1.01)
        assert below.s * above.s < 0.0

    def test_lower_hybrid_estimate_when_omega_e_squared_underflows(self):
        # Omega_e ~ 1.5e-211, whose square underflows; the estimate
        # Pi_i Omega_e / Pi_e is linear in B0 there
        species = (plasma.electron(1e14), plasma.proton(1e14))
        B0 = 8.713129219028573e-223
        est, scaled = (dispersion.hybrid_resonances(
            plasma.PlasmaState(species, b), (1e3, 1e4)).lower_hybrid_estimate
            for b in (B0, B0 * 2.0 ** 600))
        assert est == pytest.approx(scaled * 2.0 ** -600, rel=1e-14)
        assert est == pytest.approx(3.5e-213, rel=0.03)

    def test_lower_hybrid_estimate_at_zero_omega_e(self):
        # q B0 underflows at B0 = 1e-320, so Omega_e = 0 with B0 > 0: the
        # estimate is 0, or Pi_i when no electrons screen the ions
        proton = plasma.proton(1e14)
        pi_i = math.sqrt(plasma.plasma_frequency_squared(proton))
        for n_e, expected in ((1e14, 0.0), (0.0, pi_i)):
            pl = plasma.PlasmaState((plasma.electron(n_e), proton), 1e-320)
            assert dispersion.hybrid_resonances(
                pl, (1e3, 1e4)).lower_hybrid_estimate == expected


class TestRootScan:
    def test_bracket_too_wide(self):
        with pytest.raises(BracketTooWide):
            rootscan.split_at_poles(1.0, 1.0 + 1e-12, [1.0 + 5e-13])

    def test_pole_guard_excises(self):
        pieces = rootscan.split_at_poles(1.0, 3.0, [2.0])
        assert len(pieces) == 2
        assert pieces[0][1] < 2.0 < pieces[1][0]

    def test_scan_finds_all_roots(self):
        found = rootscan.scan_roots(lambda x: (np.sin(x), np.cos(x)),
                                    1.0, 10.0)
        # cos vanishes at odd multiples of pi/2, sin at even ones
        assert [row for _, row in found] == [1, 0, 1, 0, 1, 0]
        for (r, _), k in zip(found, range(1, 7)):
            assert r == pytest.approx(k * math.pi / 2, rel=1e-11)

    def test_rows_must_be_a_tuple(self):
        with pytest.raises(TypeError, match="tuple of rows"):
            rootscan.scan_roots(np.sin, 1.0, 10.0)

    @settings(max_examples=300, deadline=None)
    @given(ends=st.lists(st.floats(5e-324, 1e300), min_size=2, max_size=2,
                         unique=True),
           n=st.integers(8, rootscan.SCAN_SAMPLES))
    def test_samples_equal_python_power(self, ends, n):
        # the samples of a piece, bit for bit as Python's ** gives them
        lo, hi = sorted(ends)
        ratio = hi / lo
        assume(math.isfinite(ratio))
        expected = [lo * ratio ** (i / n) for i in range(n + 1)]
        got = rootscan._geometric_samples(lo, ratio, n)
        assert got.tobytes() == np.array(expected).tobytes()


def flat_scan(pl, omegas, thetas):
    """The scan's columns as the 1-D arrays they stand for."""
    return {name: expanded(col) for name, col
            in dispersion.dispersion_scan(pl, omegas, thetas).items()}


class TestDispersionScan:
    def test_vacuum_rows(self, vacuum):
        cols = flat_scan(vacuum, [1e9, 2e9], [0.0, 0.5, 1.0])
        assert list(cols) == dispersion.SCAN_HEADER.split(",")
        assert all(len(c) == 6 for c in cols.values())
        assert cols["n2_plus"] == pytest.approx([1.0] * 6)
        assert cols["n2_minus"] == pytest.approx([1.0] * 6)
        assert cols["flag"].tolist() == [""] * 6

    def test_matches_direct_composition(self, hydrogen):
        omega, theta = 5e9, 0.7
        cols = flat_scan(hydrogen, [omega], [theta])
        st = plasma.stix_parameters(hydrogen, omega)
        c = dispersion.wave_normal_coefficients(st, theta)
        sol = dispersion.refractive_indices(c)
        assert (cols["A"][0], cols["B"][0], cols["C"][0]) == (c.A, c.B, c.C)
        assert {cols["n2_plus"][0], cols["n2_minus"][0]} == set(sol.n_squared)

    def test_cyclotron_rows_flagged(self, hydrogen):
        om_e = plasma.cyclotron_frequency(plasma.electron(), hydrogen.B0)
        cols = flat_scan(hydrogen, [om_e], [0.0, 1.0])
        assert len(cols["flag"]) == 2
        assert cols["flag"].tolist() == ["cyclotron_resonance"] * 2
        assert np.isnan(cols["A"]).all()

    @pytest.mark.parametrize("omega", [1e-170, 1e-100])
    def test_non_finite_rows_flagged(self, omega, hydrogen):
        # at 1e-170 A = -inf and B = NaN, at 1e-100 C = inf
        cols = flat_scan(hydrogen, [omega], [0.5])
        coeffs = [cols[k][0] for k in ("A", "B", "C", "F2")]
        assert not all(map(math.isfinite, coeffs))
        assert np.isnan([cols["n2_plus"][0], cols["n2_minus"][0]]).all()
        assert [cols[k][0] for k in ("class_plus", "class_minus", "flag")] \
            == ["", "", "non_finite"]
        with pytest.raises(NumericalFailure, match="non-finite"):
            dispersion.refractive_indices(
                dispersion.WaveNormalCoefficients(*coeffs, 0.5))

    def test_row_count_and_order(self, hydrogen):
        omegas = [1e9, 2e9, 4e9]
        thetas = [0.0, 0.4]
        cols = flat_scan(hydrogen, omegas, thetas)
        assert len(cols["omega"]) == 6
        assert cols["omega"].tolist() == [1e9, 1e9, 2e9, 2e9, 4e9, 4e9]
        assert cols["theta"].tolist() == thetas * 3

    def test_repeating_columns_are_encoded(self, hydrogen):
        # omega and C index the omega grid, theta the theta grid, the
        # labels _LABELS; the other columns are one cell per row
        cols = dispersion.dispersion_scan(hydrogen, [1e9, 2e9, 4e9],
                                          [0.0, 0.4])
        encoded = {"omega": [1e9, 2e9, 4e9], "theta": [0.0, 0.4],
                   "C": flat_scan(hydrogen, [1e9, 2e9, 4e9],
                                  [0.0])["C"].tolist()}
        for name, values in encoded.items():
            assert cols[name][0].tolist() == values
        for name in ("class_plus", "class_minus", "flag"):
            assert cols[name][0] is dispersion._LABELS
        for name in ("A", "B", "F2", "n2_plus", "n2_minus"):
            assert cols[name].shape == (6,)


def three_species(n_e=1e19, frac_d=0.4, B0=2.0):
    """Electron/proton/deuteron plasma of the benchmark scan."""
    deuteron = plasma.Species("deuteron", 3.3435837724e-27, 1, 1,
                              frac_d * n_e)
    return plasma.PlasmaState(
        (plasma.electron(n_e), plasma.proton((1.0 - frac_d) * n_e),
         deuteron), B0)


def oracle_rows(pl, omegas, thetas):
    """Scan rows from the point-by-point chain stix_parameters ->
    wave_normal_coefficients -> refractive_indices."""
    nan = math.nan
    rows = []
    for omega in omegas:
        try:
            st = plasma.stix_parameters(pl, omega)
        except CyclotronResonance:
            rows.extend((omega, theta) + (nan,) * 6
                        + ("", "", "cyclotron_resonance") for theta in thetas)
            continue
        for theta in thetas:
            c = dispersion.wave_normal_coefficients(st, theta)
            head = (omega, theta, c.A, c.B, c.C, c.F_squared)
            try:
                sol = dispersion.refractive_indices(c)
            except DegenerateQuartic:
                rows.append(head + (nan, nan, "", "", "degenerate"))
                continue
            if sol.resonance:
                rows.append(head + (sol.n_squared[0], nan,
                                    sol.classifications[0], "resonance",
                                    "resonance"))
            elif sol.complex_roots:
                rows.append(head + (sol.n_squared[0].real,
                                    sol.n_squared[1].real,
                                    "complex", "complex", "complex"))
            else:
                rows.append(head + sol.n_squared + sol.classifications
                            + ("",))
    return rows


def assert_scan_matches_oracle(pl, omegas, thetas):
    cols = dispersion.dispersion_scan(pl, omegas, thetas)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scan.csv")
        output.write_csv(dispersion.SCAN_HEADER, [tuple(cols.values())],
                         path)
        with open(path, "rb") as fh:
            got = fh.read()
    expected = csv_oracle(dispersion.SCAN_HEADER,
                          oracle_rows(pl, omegas, thetas))
    assert_same_text(got.decode(), expected)
    return {name: expanded(col) for name, col in cols.items()}


def cyclotron_frequencies(pl):
    return [plasma.cyclotron_frequency(sp, pl.B0) for sp in pl.species]


class TestScanOracle:
    """The columnar scan against the point-by-point chain, byte for byte.

    Both solve through the one kernel ``_solve_grid``, so this checks the
    scan's layout, row order, broadcasting and flags, not a second
    implementation of the solve: that is checked against hand-worked
    cases and the algebraic properties below."""

    @pytest.mark.parametrize("name", ["hydrogen", "three_species"])
    def test_log_grid_with_cyclotron_rows(self, name, hydrogen):
        pl = hydrogen if name == "hydrogen" else three_species()
        poles = cyclotron_frequencies(pl)
        omegas = sorted(np.geomspace(1e6, 1e14, 400).tolist() + poles)
        thetas = [0.0, math.pi / 2] + np.linspace(0.01, 1.56, 23).tolist()
        cols = assert_scan_matches_oracle(pl, omegas, thetas)
        # F^2 is a sum of squares for real Stix parameters: no complex rows
        assert set(cols["flag"].tolist()) \
            <= {"", "cyclotron_resonance", "resonance"}
        assert (cols["flag"] == "cyclotron_resonance").sum() \
            == len(poles) * len(thetas)

    @pytest.mark.parametrize("name", ["hydrogen", "three_species"])
    def test_resonance_angles(self, name, hydrogen):
        pl = hydrogen if name == "hydrogen" else three_species()
        omegas, thetas = [], []
        for omega in np.geomspace(1e7, 1e13, 60).tolist():
            theta = dispersion.resonance_angle(
                plasma.stix_parameters(pl, omega))
            if theta is not None:
                omegas.append(omega)
                thetas.append(theta)
        cols = assert_scan_matches_oracle(pl, omegas, thetas)
        assert "resonance" in set(cols["flag"].tolist())

    def test_f_squared_matches_alternate_form(self, hydrogen):
        for pl in (hydrogen, three_species()):
            omegas = np.geomspace(1e6, 1e14, 97).tolist()
            thetas = np.linspace(0.0, math.pi / 2, 11).tolist()
            cols = flat_scan(pl, omegas, thetas)
            k = 0
            for omega in omegas:
                st = plasma.stix_parameters(pl, omega)
                for theta in thetas:
                    alt = dispersion.f_squared_alternate(st, theta)
                    sin2 = math.sin(theta) ** 2
                    cos2 = math.cos(theta) ** 2
                    # rounding scale: the terms before any cancellation
                    scale = ((st.s ** 2 + st.d ** 2 + abs(st.p * st.s)) ** 2
                             * sin2 * sin2
                             + 4.0 * st.p ** 2 * st.d ** 2 * cos2)
                    assert abs(cols["F2"][k] - alt) <= 1e-14 * scale
                    k += 1

    def test_masked_branches_match_hand_solutions(self):
        # crafted (A, B, C, F2) reach every branch, the degenerate one
        # too; F2 is taken as given, consistent with B^2 - 4AC or not
        nan = math.nan
        cases = [
            # |A|, |B| <= 1e-12 |A|+|B|+|C|: no roots
            ((0.0, 0.0, 1.0, 0.0), (nan, nan, "", "", "degenerate")),
            # A = 0: single root C/B = 0.5
            ((0.0, 2.0, 1.0, 4.0),
             (0.5, nan, "propagating", "resonance", "resonance")),
            # F2 < 0: real part B/2A = 0
            ((1.0, 0.0, 1.0, -4.0),
             (0.0, 0.0, "complex", "complex", "complex")),
            # double root: q = (2 + 0)/2 = 1, q/A = C/q = 1
            ((1.0, 2.0, 1.0, 0.0),
             (1.0, 1.0, "propagating", "propagating", "")),
            # B = F = 0, so q = 0: the double root at zero is a cutoff
            ((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, "cutoff", "cutoff", "")),
            # B < 0: q = (-3 - 1)/2 = -2, C/q = -1 first, then q/A = 2
            ((-1.0, -3.0, 2.0, 1.0),
             (-1.0, 2.0, "evanescent", "propagating", "")),
            # q = 5, q/A = 2.5; C/q = 2e-21 <= 1e-14 * 2.5 is a cutoff
            ((2.0, 5.0, 1e-20, 25.0),
             (2.5, 2e-21, "propagating", "cutoff", "")),
            # |A| = 1e-13 <= 1e-12 * (2 + 1e-13): root C/B = 1
            ((1e-13, 1.0, 1.0, 1.0),
             (1.0, nan, "propagating", "resonance", "resonance")),
            # -0.0 >= 0 and q = -0.0 == 0: the zero roots are +0.0
            ((1.0, -0.0, 0.0, -0.0), (0.0, 0.0, "cutoff", "cutoff", "")),
            # a NaN or infinite coefficient: NaN roots, no class
            ((1.0, nan, 1.0, 1.0), (nan, nan, "", "", "non_finite")),
            ((-math.inf, 1.0, 1.0, 1.0), (nan, nan, "", "", "non_finite")),
            ((0.0, 0.0, 1.0, math.inf), (nan, nan, "", "", "non_finite")),
        ]
        A, B, C, F2 = (np.array(c) for c in zip(*(c for c, _ in cases)))
        n2p, n2m, *codes = dispersion._solve_grid(A, B, C, F2)
        cp, cm, flag = (dispersion._LABELS[c] for c in codes)
        for k, (_, expected) in enumerate(cases):
            got = (n2p[k], n2m[k], cp[k], cm[k], flag[k])
            assert list(map(cell_oracle, got)) \
                == list(map(cell_oracle, expected)), (k, got, expected)


# Finite coefficients whose squares and products neither overflow nor
# lose precision to underflow; zeros reach the resonance branch.
coefficient = st.floats(-1e100, 1e100).filter(
    lambda v: v == 0.0 or abs(v) >= 1e-100)


@settings(max_examples=400, deadline=None)
@given(A=coefficient, B=coefficient, C=coefficient)
def test_roots_solve_the_quadratic(A, B, C):
    F2 = B * B - 4.0 * A * C
    coeffs = dispersion.WaveNormalCoefficients(A, B, C, F2, 0.0)
    try:
        sol = dispersion.refractive_indices(coeffs)
    except DegenerateQuartic:
        tol = dispersion.RESONANCE_BRANCH_RTOL * (abs(A) + abs(B) + abs(C))
        assert abs(A) <= tol and abs(B) <= tol
        return
    eps = np.finfo(float).eps
    roots = sol.n_squared
    if sol.complex_roots:
        assert F2 < 0.0
        assert roots[0] == roots[1].conjugate()
        assert roots[0].real == B / (2.0 * A)
        assert abs(roots[0].imag) == pytest.approx(
            math.sqrt(-F2) / abs(2.0 * A), rel=2 * eps)
        return
    assert all(type(r) is float for r in roots)
    if sol.resonance:
        (x,) = roots
        assert abs(B * x - C) <= 2 * eps * abs(C)
    else:
        a, b, c = map(Fraction, (A, B, C))
        for x in map(Fraction, roots):
            # residual in exact arithmetic against the first-order
            # rounding of the solve and of F2 = B*B - 4*A*C
            size = abs(a) * x * x + abs(b * x) + abs(c)
            assert abs(a * x * x - b * x + c) <= 8 * Fraction(eps) * size
        product = roots[0] * roots[1]
        assert abs(product - C / A) <= 4 * eps * abs(C / A)
    biggest = max(1.0, *map(abs, roots))
    for x, label in zip(roots, sol.classifications):
        if abs(x) <= dispersion.CUTOFF_RTOL * biggest:
            assert label == "cutoff"
        else:
            assert label == ("propagating" if x > 0.0 else "evanescent")


SPECIES_KINDS = [("electron", 9.1093837015e-31, -1), ("proton",
                 1.67262192369e-27, 1), ("deuteron", 3.3435837724e-27, 1),
                 ("alpha", 6.6446573357e-27, 1)]


@st.composite
def plasmas(draw):
    count = draw(st.integers(1, 3))
    species = []
    for k in range(count):
        name, mass, sign = draw(st.sampled_from(SPECIES_KINDS))
        species.append(plasma.Species(
            f"{name}{k}", mass, sign, draw(st.integers(1, 2)),
            10.0 ** draw(st.floats(14.0, 21.0))))
    return plasma.PlasmaState(species, draw(st.floats(0.0, 5.0)))


@settings(max_examples=40, deadline=None)
@given(pl=plasmas(),
       log_omegas=st.lists(st.floats(5.0, 15.0), min_size=1, max_size=8),
       thetas=st.lists(st.floats(0.0, math.pi / 2), min_size=1, max_size=6))
def test_scan_matches_oracle_on_random_plasmas(pl, log_omegas, thetas):
    omegas = [10.0 ** v for v in log_omegas] + [
        w for w in cyclotron_frequencies(pl) if w > 0.0]
    assert_scan_matches_oracle(pl, omegas, thetas + [0.0, math.pi / 2])


class TestArraySampling:
    def test_one_call_per_piece(self, hydrogen):
        calls = []

        def f(w):
            calls.append(np.ndim(w))
            R, L, _, _, p = plasma.stix_arrays(hydrogen, w)
            return p, R, L

        poles = cyclotron_frequencies(hydrogen)
        pieces = rootscan.split_at_poles(1e6, 1e14, poles)
        assert len(pieces) == 3
        found = rootscan.scan_roots(f, 1e6, 1e14, poles)
        assert {row for _, row in found} == {0, 1, 2}
        assert sorted((w, "PRL"[row]) for w, row in found) \
            == dispersion.cutoff_frequencies(hydrogen, (1e6, 1e14))
        # one array call per pole-free piece serves all three rows; every
        # other call is a scalar bisection step
        assert calls.count(1) == len(pieces)
        assert calls[:1] == [1]
        assert set(calls) == {0, 1}

    @pytest.mark.parametrize("name", ["hydrogen", "three_species"])
    def test_roots_equal_scalar_sampling(self, name, hydrogen, monkeypatch):
        pl = hydrogen if name == "hydrogen" else three_species()
        bracket = (1e6, 1e15)
        array_cut = dispersion.cutoff_frequencies(pl, bracket)
        array_res = dispersion.hybrid_resonances(pl, bracket).roots
        assert array_cut and array_res

        def scalar_only(f):
            # each sample its own scalar call, as a point-wise scan does
            def rows(x):
                if not isinstance(x, np.ndarray):
                    return f(x)
                return tuple(np.array(row) for row in
                             zip(*[f(v) for v in x.tolist()]))
            return rows

        scan = rootscan.scan_roots
        monkeypatch.setattr(
            rootscan, "scan_roots",
            lambda f, *args, **kw: scan(scalar_only(f), *args, **kw))
        assert dispersion.cutoff_frequencies(pl, bracket) == array_cut
        assert dispersion.hybrid_resonances(pl, bracket).roots == array_res


def reference_scan_roots(f, a, b, poles=()):
    """The one-function scan: one function per scan, its samples one
    array call per pole-free piece, its roots a sorted list."""
    if a <= 0.0:
        raise ValueError("bracket must be positive")
    roots = []

    def add(r):
        if not roots or abs(roots[-1] - r) > rootscan.ROOT_RTOL * abs(r):
            roots.append(r)

    for lo, hi in rootscan.split_at_poles(a, b, poles):
        ratio = hi / lo
        n = max(8, min(rootscan.SCAN_SAMPLES,
                       int(rootscan.SCAN_SAMPLES * math.log(ratio)
                           / math.log(b / a))))
        xs = [lo * ratio ** (i / n) for i in range(n + 1)]
        fs = np.broadcast_to(f(np.array(xs)), (n + 1,))
        f0, f1 = fs[:-1], fs[1:]
        for i in np.flatnonzero((f0 == 0.0) | (f0 * f1 < 0.0)).tolist():
            if fs[i] == 0.0:
                add(xs[i])
            else:
                add(rootscan.bisect(f, xs[i], xs[i + 1]))
        if fs[-1] == 0.0:
            add(xs[-1])
    return roots


def reference_stix(pl, w):
    """R, L, s, d, p from the species functions, with no species table."""
    R = L = p = 1.0
    for sp in pl.species:
        pi2 = plasma.plasma_frequency_squared(sp)
        Om = plasma.cyclotron_frequency(sp, pl.B0)
        R -= pi2 / (w * (w + sp.charge_sign * Om))
        L -= pi2 / (w * (w - sp.charge_sign * Om))
        p -= pi2 / (w * w)
    return R, L, 0.5 * (R + L), 0.5 * (R - L), p


def reference_roots(pl, bracket):
    """Cutoffs and resonance roots from one reference scan per function."""
    poles = [w for w in cyclotron_frequencies(pl) if w > 0.0]
    cutoffs = sorted(
        (w, label) for index, label in ((4, "P"), (0, "R"), (1, "L"))
        for w in reference_scan_roots(
            lambda w, index=index: reference_stix(pl, w)[index],
            *bracket, poles))
    return cutoffs, tuple(reference_scan_roots(
        lambda w: reference_stix(pl, w)[2], *bracket, poles))


@settings(max_examples=60, deadline=None)
@given(pl=plasmas(), low=st.floats(3.0, 16.0), high=st.floats(3.0, 16.0))
# the square of this field's electron cyclotron frequency underflows
@example(pl=plasma.PlasmaState((plasma.electron(1e14), plasma.proton(1e14)),
                               8.713129219028573e-223), low=3.0, high=4.0)
def test_row_scan_equals_reference(pl, low, high):
    a, b = sorted((10.0 ** low, 10.0 ** high))
    assume(a < b)
    try:
        expected = reference_roots(pl, (a, b))
    except BracketTooWide:
        with pytest.raises(BracketTooWide):
            dispersion.cutoff_frequencies(pl, (a, b))
        return
    assert dispersion.cutoff_frequencies(pl, (a, b)) == expected[0]
    assert dispersion.hybrid_resonances(pl, (a, b)).roots == expected[1]


@pytest.mark.parametrize("scan", [dispersion.cutoff_frequencies,
                                  dispersion.hybrid_resonances])
def test_non_finite_samples_refused(hydrogen, scan):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match=r"^non-finite Stix "
                           r"parameter p=-inf at omega=1e-170$"):
            scan(hydrogen, (1e-170, 1e6))

import math
import warnings

import numpy as np
import pytest

from coldwave import plasma
from coldwave.dispersion import dispersion_scan
from coldwave.errors import (CyclotronResonance, LengthMismatch,
                             MissingElectrons, NumericalFailure)

# Constants restated here so the expected values do not depend on the
# package's own constants module.
E = 1.602176634e-19
ME = 9.1093837015e-31
MP = 1.67262192369e-27
EPS0 = 8.8541878128e-12


def random_species(rng):
    return plasma.Species(
        "x",
        mass=10.0 ** rng.uniform(-30.5, -26.5),
        charge_sign=int(rng.choice([-1, 1])),
        charge_number=int(rng.integers(1, 4)),
        density=10.0 ** rng.uniform(17.0, 20.0),
    )


class TestSpecies:
    def test_invariants(self):
        with pytest.raises(ValueError):
            plasma.Species("bad", -1.0, 1)
        with pytest.raises(ValueError):
            plasma.Species("bad", ME, 0)
        with pytest.raises(ValueError):
            plasma.Species("bad", ME, 1, charge_number=0)
        with pytest.raises(ValueError):
            plasma.Species("bad", ME, 1, density=-1.0)

    def test_charge_magnitude(self):
        sp = plasma.Species("he", 4 * MP, 1, charge_number=2)
        assert sp.charge == pytest.approx(2 * E)
        assert plasma.electron().charge == pytest.approx(-E)

    def test_state_rejects_negative_field(self):
        with pytest.raises(ValueError):
            plasma.PlasmaState((), -1.0)


class TestCyclotronFrequency:
    def test_zero_field(self):
        assert plasma.cyclotron_frequency(plasma.electron(), 0.0) == 0.0

    def test_electron_one_tesla(self):
        expected = E * 1.0 / ME
        got = plasma.cyclotron_frequency(plasma.electron(), 1.0)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(1.7588e11, rel=1e-4)

    def test_mass_ratio(self):
        om_p = plasma.cyclotron_frequency(plasma.proton(), 1.0)
        om_e = plasma.cyclotron_frequency(plasma.electron(), 1.0)
        assert om_p / om_e == pytest.approx(ME / MP, rel=1e-14)


class TestPlasmaFrequency:
    def test_zero_density(self):
        assert plasma.plasma_frequency_squared(plasma.electron(0.0)) == 0.0

    def test_electron_1e19(self):
        expected = 1e19 * E * E / (EPS0 * ME)
        got = plasma.plasma_frequency_squared(plasma.electron(1e19))
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(3.183e22, rel=2e-4)

    def test_linear_in_density(self, rng):
        for _ in range(20):
            sp = random_species(rng)
            doubled = plasma.Species(sp.name, sp.mass, sp.charge_sign,
                                     sp.charge_number, 2.0 * sp.density)
            assert plasma.plasma_frequency_squared(doubled) == pytest.approx(
                2.0 * plasma.plasma_frequency_squared(sp), rel=1e-15)


class TestStixParameters:
    def test_vacuum(self, vacuum):
        st = plasma.stix_parameters(vacuum, 1.0)
        assert (st.R, st.L, st.s, st.d, st.p) == (1.0, 1.0, 1.0, 0.0, 1.0)

    def test_spot_value_pi_equals_omega_c(self):
        # Pi = Omega and omega = 2 Omega force exact rationals
        B0 = 1.0
        om_c = plasma.cyclotron_frequency(plasma.electron(), B0)
        n = om_c ** 2 * EPS0 * ME / (E * E)
        state = plasma.PlasmaState((plasma.electron(n),), B0)
        st = plasma.stix_parameters(state, 2.0 * om_c)
        assert st.R == pytest.approx(1.0 / 2.0, abs=1e-14)
        assert st.L == pytest.approx(5.0 / 6.0, abs=1e-14)
        assert st.s == pytest.approx(2.0 / 3.0, abs=1e-14)
        assert st.d == pytest.approx(-1.0 / 6.0, abs=1e-14)
        assert st.p == pytest.approx(3.0 / 4.0, abs=1e-14)

    def test_s_d_identities(self, rng):
        for _ in range(50):
            state = plasma.PlasmaState(
                tuple(random_species(rng) for _ in range(3)),
                rng.uniform(0.1, 5.0))
            omega = 10.0 ** rng.uniform(8.0, 12.0)
            try:
                st = plasma.stix_parameters(state, omega)
            except CyclotronResonance:
                continue
            scale = abs(st.R) + abs(st.L) + 1e-300
            assert abs(st.s - 0.5 * (st.R + st.L)) <= 1e-12 * scale
            assert abs(st.d - 0.5 * (st.R - st.L)) <= 1e-12 * scale
            assert abs(st.R - st.L - 2.0 * st.d) <= 1e-12 * scale

    def test_resonance_guard(self):
        state = plasma.PlasmaState((plasma.electron(1e19),), 1.0)
        om_c = plasma.cyclotron_frequency(plasma.electron(), 1.0)
        with pytest.raises(CyclotronResonance):
            plasma.stix_parameters(state, om_c * (1.0 + 1e-12))
        with pytest.raises(ValueError):
            plasma.stix_parameters(state, -1.0)

    @pytest.mark.parametrize("omega", [0.0, -1.0, float("nan"),
                                       -float("nan"), np.float64("nan"),
                                       float("inf")])
    def test_omega_must_be_positive(self, hydrogen, omega):
        # one check everywhere, before any arithmetic: no RuntimeWarning
        need = "finite" if omega == math.inf else "> 0"
        for call in (
                lambda: plasma.stix_parameters(hydrogen, omega),
                lambda: plasma.stix_approximate_RL(hydrogen, omega),
                lambda: plasma.velocity_response(hydrogen.species[0],
                                                 [1.0, 0.0, 0.0], 1.0, omega),
                lambda: plasma.displacement([1.0, 0.0, 0.0], np.zeros(3),
                                            omega),
                lambda: dispersion_scan(hydrogen, [1e9, omega], [0.0])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError,
                                   match=f"omega must be {need}, got "):
                    call()

    def test_species_table_outside_equality(self, hydrogen):
        assert hydrogen.species_table == tuple(
            (plasma.plasma_frequency_squared(sp),
             plasma.cyclotron_frequency(sp, hydrogen.B0), sp.charge_sign)
            for sp in hydrogen.species)
        twin = plasma.PlasmaState(list(hydrogen.species), hydrogen.B0)
        object.__setattr__(twin, "species_table", ())
        assert twin == hydrogen
        assert hash(twin) == hash(hydrogen)
        assert repr(twin) == repr(hydrogen)
        assert "species_table" not in repr(hydrogen)

    def test_non_finite_parameter_raises(self, hydrogen):
        # omega^2 underflows to 0, so p = 1 - sum Pi^2/omega^2 is -inf
        with pytest.raises(NumericalFailure, match=r"^non-finite Stix "
                           r"parameter p=-inf at omega=1e-170$"):
            plasma.stix_parameters(hydrogen, 1e-170)

    @pytest.mark.parametrize("omega", [1e-100, 1e-10, 1.0, 1e12])
    def test_finite_values_are_float_arithmetic(self, hydrogen, omega):
        R = L = p = 1.0
        for sp in hydrogen.species:
            pi2 = sp.density * sp.charge * sp.charge / (EPS0 * sp.mass)
            Om = abs(sp.charge * hydrogen.B0 / sp.mass)
            R -= pi2 / (omega * (omega + sp.charge_sign * Om))
            L -= pi2 / (omega * (omega - sp.charge_sign * Om))
            p -= pi2 / (omega * omega)
        st = plasma.stix_parameters(hydrogen, omega)
        values = (st.R, st.L, st.s, st.d, st.p)
        assert values == (R, L, 0.5 * (R + L), 0.5 * (R - L), p)
        assert {type(v) for v in values} == {float}

    def test_array_kernel_matches_scalar_calls(self, rng):
        for _ in range(20):
            state = plasma.PlasmaState(
                tuple(random_species(rng) for _ in range(3)),
                rng.uniform(0.1, 5.0))
            omegas = 10.0 ** rng.uniform(6.0, 14.0, 64)
            arrays = plasma.stix_arrays(state, omegas)
            near = plasma.near_cyclotron(state, omegas)
            for k, omega in enumerate(omegas.tolist()):
                try:
                    st = plasma.stix_parameters(state, omega)
                except CyclotronResonance:
                    assert near[k]
                    continue
                assert not near[k]
                assert tuple(a[k] for a in arrays) \
                    == (st.R, st.L, st.s, st.d, st.p)

    def test_formula_bit_for_bit(self, rng):
        # species by species, in order, as every scan and root search
        # evaluates it
        for _ in range(50):
            state = plasma.PlasmaState(
                tuple(random_species(rng) for _ in range(3)),
                rng.uniform(0.1, 5.0))
            omega = float(10.0 ** rng.uniform(6.0, 14.0))
            R = L = p = 1.0
            for sp in state.species:
                pi2 = sp.density * sp.charge * sp.charge / (EPS0 * sp.mass)
                Om = abs(sp.charge * state.B0 / sp.mass)
                R -= pi2 / (omega * (omega + sp.charge_sign * Om))
                L -= pi2 / (omega * (omega - sp.charge_sign * Om))
                p -= pi2 / (omega * omega)
            assert plasma.stix_arrays(state, omega) \
                == (R, L, 0.5 * (R + L), 0.5 * (R - L), p)

    def test_array_kernel_vacuum_and_cyclotron_mask(self, vacuum):
        assert plasma.stix_arrays(vacuum, np.array([1e9, 2e9])) \
            == (1.0, 1.0, 1.0, 0.0, 1.0)
        state = plasma.PlasmaState((plasma.electron(1e19),), 1.0)
        om_c = plasma.cyclotron_frequency(plasma.electron(), 1.0)
        omegas = np.array([om_c * (1.0 - 2e-9), om_c, om_c * (1.0 + 1e-12)])
        assert plasma.near_cyclotron(state, omegas).tolist() \
            == [False, True, True]
        assert plasma.near_cyclotron(state, om_c) is True


class TestApproximateRL:
    def test_electron_only(self):
        state = plasma.PlasmaState((plasma.electron(1e19),), 1.0)
        assert plasma.stix_approximate_RL(state, 1e9) == (1.0, 1.0)

    def test_missing_electrons(self):
        state = plasma.PlasmaState((plasma.proton(1e19),), 1.0)
        with pytest.raises(MissingElectrons):
            plasma.stix_approximate_RL(state, 1e9)

    def test_hydrogen_accuracy(self, hydrogen):
        om_i = plasma.cyclotron_frequency(plasma.proton(), hydrogen.B0)
        omega = 100.0 * om_i
        st = plasma.stix_parameters(hydrogen, omega)
        R_a, L_a = plasma.stix_approximate_RL(hydrogen, omega)
        assert abs(R_a - st.R) / abs(st.R) < 1e-2
        assert abs(L_a - st.L) / abs(st.L) < 1e-2


class TestDielectricTensor:
    def test_vacuum_is_identity(self):
        K = plasma.dielectric_tensor(plasma.StixParameters.vacuum())
        assert np.allclose(K.entries, np.eye(3))

    def test_pattern(self):
        st = plasma.StixParameters(0.5, 5 / 6, 2 / 3, -1 / 6, 0.75)
        K = plasma.dielectric_tensor(st).entries
        assert K[0, 1] == pytest.approx(1j / 6)
        assert K[1, 0] == pytest.approx(-1j / 6)
        for i, j in ((0, 2), (2, 0), (1, 2), (2, 1)):
            assert K[i, j] == 0.0

    def test_hermitian_for_real_inputs(self, rng):
        for _ in range(20):
            R, L, p = rng.uniform(-2, 2, 3)
            st = plasma.StixParameters(R, L, 0.5 * (R + L), 0.5 * (R - L), p)
            K = plasma.dielectric_tensor(st).entries
            assert np.max(np.abs(K - K.conj().T)) <= 1e-12


class TestVelocityResponse:
    def test_unmagnetized_limit(self, rng):
        sp = random_species(rng)
        E_vec = rng.normal(size=3) + 1j * rng.normal(size=3)
        omega = 1e9
        v = plasma.velocity_response(sp, E_vec, 0.0, omega)
        expected = 1j * sp.charge / (sp.mass * omega) * E_vec
        assert np.allclose(v, expected, rtol=1e-14)

    def test_axial_decoupled(self):
        sp = plasma.electron(1e19)
        v = plasma.velocity_response(sp, [0.0, 0.0, 2.0], 1.0, 1e9)
        assert v[0] == 0.0 and v[1] == 0.0
        assert v[2] == pytest.approx(1j * sp.charge * 2.0 / (sp.mass * 1e9))

    def test_direct_substitution(self):
        # independent evaluation of the coupled components
        sp = plasma.electron(1e19)
        B0 = 1.0
        om_c = E * B0 / ME
        omega = 2.0 * om_c
        v = plasma.velocity_response(sp, [1.0, 0.0, 0.0], B0, omega)
        q = -E
        denom = ME * (omega ** 2 - om_c ** 2)
        assert v[0] == pytest.approx(1j * q * omega / denom, rel=1e-14)
        assert v[1] == pytest.approx(1j * q * (-1j * (-1) * om_c) / denom,
                                     rel=1e-14)

    def test_resonance_guard(self):
        sp = plasma.electron(1e19)
        om_c = E / ME
        with pytest.raises(CyclotronResonance):
            plasma.velocity_response(sp, [1, 0, 0], 1.0, om_c)


class TestPlasmaCurrent:
    def test_zero_velocities(self, hydrogen):
        j = plasma.plasma_current(hydrogen, [np.zeros(3), np.zeros(3)])
        assert np.all(j == 0.0)

    def test_single_species(self):
        sp = plasma.electron(1e19)
        state = plasma.PlasmaState((sp,), 0.0)
        v = np.array([1.0, 2.0j, -1.0])
        j = plasma.plasma_current(state, [v])
        assert np.allclose(j, sp.density * sp.charge * v)

    def test_quasineutral_cancellation(self, hydrogen):
        v = np.array([0.3, -0.1j, 2.0])
        j = plasma.plasma_current(hydrogen, [v, v])
        assert np.max(np.abs(j)) <= 1e-12 * 1e19 * E

    def test_length_mismatch(self, hydrogen):
        with pytest.raises(LengthMismatch):
            plasma.plasma_current(hydrogen, [np.zeros(3)])


class TestDisplacement:
    def test_vacuum(self):
        E_vec = np.array([1.0, 2.0, 3.0])
        D = plasma.displacement(E_vec, np.zeros(3), 1e9)
        assert np.allclose(D, EPS0 * E_vec)

    def test_linearity(self, rng):
        E_vec = rng.normal(size=3) + 1j * rng.normal(size=3)
        j = rng.normal(size=3) + 1j * rng.normal(size=3)
        D1 = plasma.displacement(E_vec, j, 1e9)
        D2 = plasma.displacement(2.0 * E_vec, 2.0 * j, 1e9)
        assert np.allclose(D2, 2.0 * D1, rtol=1e-15)

    def test_axial_component_matches_p(self):
        sp = plasma.electron(1e19)
        state = plasma.PlasmaState((sp,), 1.0)
        omega = 5e11
        E_vec = np.array([0.0, 0.0, 1.0], dtype=complex)
        v = plasma.velocity_response(sp, E_vec, state.B0, omega)
        j = plasma.plasma_current(state, [v])
        D = plasma.displacement(E_vec, j, omega)
        p = plasma.stix_parameters(state, omega).p
        assert D[2] == pytest.approx(EPS0 * p, rel=1e-12)

    def test_consistency_chain(self, rng):
        # eps0 K E must equal the velocity->current->displacement path
        count = 0
        while count < 100:
            sp = random_species(rng)
            B0 = rng.uniform(0.1, 5.0)
            omega = 10.0 ** rng.uniform(8.0, 12.0)
            om_c = plasma.cyclotron_frequency(sp, B0)
            if om_c > 0.0 and abs(omega - om_c) < 1e-6 * om_c:
                continue
            state = plasma.PlasmaState((sp,), B0)
            E_vec = rng.normal(size=3) + 1j * rng.normal(size=3)
            v = plasma.velocity_response(sp, E_vec, B0, omega)
            j = plasma.plasma_current(state, [v])
            D_path = plasma.displacement(E_vec, j, omega)
            K = plasma.dielectric_tensor(plasma.stix_parameters(state, omega))
            D_tensor = EPS0 * K.apply(E_vec)
            err = np.max(np.abs(D_path - D_tensor))
            assert err <= 1e-8 * np.max(np.abs(D_tensor))
            count += 1


class TestLowerHybridCoefficients:
    def test_vacuum(self, vacuum):
        co = plasma.lower_hybrid_coefficients(vacuum, 1e9)
        assert (co.xi, co.zeta, co.mu, co.elliptic) == (1.0, 0.0, 0.0, False)

    def test_zeta_xi_identity(self, rng):
        for _ in range(30):
            state = plasma.PlasmaState(
                tuple(random_species(rng) for _ in range(2)),
                rng.uniform(0.1, 5.0))
            omega = 10.0 ** rng.uniform(8.0, 12.0)
            try:
                co = plasma.lower_hybrid_coefficients(state, omega)
            except CyclotronResonance:
                continue
            pi_sum = sum(plasma.plasma_frequency_squared(sp)
                         for sp in state.species)
            expected = pi_sum / omega ** 2 - 1.0
            assert co.zeta - co.xi == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("state, message", [
        ("hydrogen", "zeta=inf"), ("vacuum", "zeta=nan")])
    def test_non_finite_coefficient_raises(self, request, state, message):
        # omega^2 underflows to 0 in zeta = xi + sum Pi^2/omega^2 - 1
        with pytest.raises(NumericalFailure, match=r"^non-finite "
                           rf"lower-hybrid coefficient {message} at "
                           r"omega=1e-170$"):
            plasma.lower_hybrid_coefficients(
                request.getfixturevalue(state), 1e-170)

    @pytest.mark.parametrize("omega", [1e-100, 1.0, 1e10])
    def test_finite_values_are_float_arithmetic(self, hydrogen, omega):
        xi, pi2_sum, mu = 1.0, 0.0, 0.0
        for sp in hydrogen.species:
            pi2 = sp.density * sp.charge * sp.charge / (EPS0 * sp.mass)
            Om = abs(sp.charge * hydrogen.B0 / sp.mass)
            xi += pi2 / (Om * Om - omega * omega)
            pi2_sum += pi2
            mu += pi2 * Om / (omega * (Om * Om - omega * omega))
        co = plasma.lower_hybrid_coefficients(hydrogen, omega)
        assert (co.xi, co.zeta, co.mu) \
            == (xi, xi + pi2_sum / (omega * omega) - 1.0, mu)
        assert type(co.elliptic) is bool

    def test_elliptic_flag_brackets_lower_hybrid(self, hydrogen):
        from coldwave import dispersion
        est = dispersion.hybrid_resonances(
            hydrogen, (1e9, 1e10)).lower_hybrid_estimate
        below = plasma.lower_hybrid_coefficients(hydrogen, est * 0.97)
        above = plasma.lower_hybrid_coefficients(hydrogen, est * 1.03)
        assert below.elliptic
        assert not above.elliptic

    def test_xi_tends_to_one(self, hydrogen):
        om_c = plasma.cyclotron_frequency(plasma.electron(), hydrogen.B0)
        pi2 = plasma.plasma_frequency_squared(hydrogen.species[0])
        omega = 1e6 * max(om_c, np.sqrt(pi2))
        co = plasma.lower_hybrid_coefficients(hydrogen, omega)
        assert co.xi == pytest.approx(1.0, abs=1e-10)

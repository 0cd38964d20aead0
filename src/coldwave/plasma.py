"""Species-level and aggregate cold-plasma quantities.

Frequencies, Stix parameters (R, L, s, d, p), the dielectric tensor,
single-particle velocity response, plasma current, displacement, and the
lower-hybrid coefficient functions (xi, zeta, mu).  All quantities are SI;
frequencies are angular (rad/s).

Every function here is pure: no shared mutable state, safe to call from
any number of threads.
"""

from dataclasses import dataclass, field

import numpy as np

from .constants import E_CHARGE, EPSILON_0, M_ELECTRON, M_PROTON
from .errors import (CyclotronResonance, LengthMismatch, MissingElectrons,
                     NumericalFailure)

# Relative distance from a cyclotron frequency below which the cold model
# is treated as broken down.
RESONANCE_RTOL = 1e-9


@dataclass(frozen=True)
class Species:
    """One particle species: mass [kg], charge sign (+1/-1), charge
    number Z (charge magnitude is Z*e), and number density [m^-3]."""

    name: str
    mass: float
    charge_sign: int
    charge_number: int = 1
    density: float = 0.0

    def __post_init__(self):
        if self.mass <= 0.0:
            raise ValueError(f"species {self.name!r}: mass must be > 0")
        if self.charge_sign not in (-1, 1):
            raise ValueError(f"species {self.name!r}: charge_sign must be -1 or +1")
        if self.charge_number < 1:
            raise ValueError(f"species {self.name!r}: charge_number must be >= 1")
        if self.density < 0.0:
            raise ValueError(f"species {self.name!r}: density must be >= 0")

    @property
    def charge(self):
        """Signed charge q = Z * charge_sign * e [C]."""
        return self.charge_number * self.charge_sign * E_CHARGE


def electron(density=0.0):
    """Electron species at the given density [m^-3]."""
    return Species("electron", M_ELECTRON, -1, 1, density)


def proton(density=0.0):
    """Proton species at the given density [m^-3]."""
    return Species("proton", M_PROTON, +1, 1, density)


@dataclass(frozen=True)
class PlasmaState:
    """Species mix in a longitudinal background field B0 [T].

    An empty species list is the vacuum limit and is legal everywhere.
    ``species_table`` holds (Pi^2, Omega, charge sign) of each species,
    built once here for the Stix kernel and the cyclotron tests; it takes
    no part in equality, hashing or repr.
    """

    species: tuple = ()
    B0: float = 0.0
    species_table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "species", tuple(self.species))
        if self.B0 < 0.0:
            raise ValueError("B0 must be >= 0")
        object.__setattr__(self, "species_table", tuple(
            (plasma_frequency_squared(sp), cyclotron_frequency(sp, self.B0),
             sp.charge_sign) for sp in self.species))

    def electron_species(self):
        """First negatively charged species, or None."""
        for sp in self.species:
            if sp.charge_sign == -1:
                return sp
        return None

    def ion_species(self):
        """All positively charged species, in order."""
        return [sp for sp in self.species if sp.charge_sign == +1]


@dataclass(frozen=True)
class StixParameters:
    """The quintuple (R, L, s, d, p); s=(R+L)/2 and d=(R-L)/2."""

    R: float
    L: float
    s: float
    d: float
    p: float

    @classmethod
    def vacuum(cls):
        return cls(1.0, 1.0, 1.0, 0.0, 1.0)


@dataclass(frozen=True)
class DielectricTensor:
    """3x3 complex tensor [[s, -i d, 0], [i d, s, 0], [0, 0, p]]."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        if arr.shape != (3, 3):
            raise ValueError("dielectric tensor must be 3x3")
        object.__setattr__(self, "entries", arr)

    def apply(self, E):
        """Matrix-vector product K @ E."""
        return self.entries @ np.asarray(E, dtype=complex)


@dataclass(frozen=True)
class LowerHybridCoefficients:
    """Coefficient functions of the reduced second-order wave operator.

    ``elliptic`` is True exactly when xi < 0 (the operator is elliptic
    only there, i.e. at lower-hybrid frequencies).
    """

    xi: float
    zeta: float
    mu: float
    elliptic: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "elliptic", self.xi < 0.0)


def cyclotron_frequency(species, B0):
    """Angular cyclotron frequency |q B0 / m| [rad/s] (non-negative)."""
    if B0 < 0.0:
        raise ValueError("B0 must be >= 0")
    return abs(species.charge * B0 / species.mass)


def plasma_frequency_squared(species):
    """Squared angular plasma frequency n q^2 / (eps0 m) [(rad/s)^2]."""
    q = species.charge
    return species.density * q * q / (EPSILON_0 * species.mass)


def _near(omega, Om, rtol):
    """Whether Om > 0 and omega lies within rtol (relative) of it."""
    return Om > 0.0 and abs(omega - Om) < rtol * Om


def _cyclotron_hits(plasma, omega, rtol):
    """(species, Omega, hit) for each species with Omega > 0, where hit
    is True where omega lies within rtol (relative) of Omega."""
    for sp, (_, Om, _) in zip(plasma.species, plasma.species_table):
        if Om > 0.0:
            yield sp, Om, _near(omega, Om, rtol)


def near_cyclotron(plasma, omega, rtol=RESONANCE_RTOL):
    """True where omega lies within rtol (relative) of a cyclotron
    frequency.  omega may be a float or an ndarray (boolean mask)."""
    near = False
    for _, _, hit in _cyclotron_hits(plasma, omega, rtol):
        near = near | hit
    return near


def stix_arrays(plasma, omega):
    """The Stix quintuple (R, L, s, d, p) at angular frequency omega.

    R and L sum 1 - Pi^2 / (omega (omega +/- sign*Omega)) over species;
    p = 1 - sum Pi^2/omega^2.  Plain arithmetic, so omega may be a float
    (float results) or an ndarray (arrays of its shape; with no species
    the results stay the scalar vacuum values).  Nothing is checked: see
    :func:`finite_stix_arrays` for the non-finite refusal and
    :func:`stix_parameters` for the omega > 0 and cyclotron guards too.
    """
    w2 = omega * omega
    R = L = p = 1.0
    for pi2, Om, sgn in plasma.species_table:
        R -= pi2 / (omega * (omega + sgn * Om))
        L -= pi2 / (omega * (omega - sgn * Om))
        p -= pi2 / w2
    return R, L, 0.5 * (R + L), 0.5 * (R - L), p


def _require_finite(kind, names, compute, omega):
    """compute(omega) with numpy's warnings silenced, omega a 0-d or 1-D
    array.  Raises NumericalFailure naming the first omega, in order, at
    which a value is not finite, and the first of ``names`` that is not
    finite there (an overflow or an underflowed omega^2)."""
    with np.errstate(all="ignore"):
        values = compute(omega)
    if not np.isfinite(np.array(values, dtype=float)).all():
        table = np.reshape(np.broadcast_arrays(omega, *values),
                           (len(names) + 1, -1))
        bad = ~np.isfinite(table[1:])
        i = bad.any(axis=0).argmax()
        j = bad[:, i].argmax()
        raise NumericalFailure(
            f"non-finite {kind} {names[j]}={float(table[j + 1, i])!r} at "
            f"omega={float(table[0, i])!r}")
    return values


def finite_stix_arrays(plasma, omega):
    """:func:`stix_arrays` on a 0-d or 1-D array omega, raising
    NumericalFailure where a parameter is not finite, with the message of
    :func:`stix_parameters`.  Cyclotron frequencies are not checked."""
    return _require_finite("Stix parameter", "RLsdp",
                           lambda w: stix_arrays(plasma, w), omega)


def require_omega(omega):
    """Raise ValueError naming the first entry of omega not finite and > 0."""
    for w in np.ravel(omega).tolist():
        if not 0.0 < w < np.inf:
            need = "finite" if w == np.inf else "> 0"
            raise ValueError(f"omega must be {need}, got {w}")


def _at_omega(plasma, omega, rtol, compute):
    """compute(w) on the 0-d array w = omega, as floats.  Raises
    ValueError unless omega is finite and > 0 and CyclotronResonance
    within rtol (relative) of a cyclotron frequency; ``compute`` refuses
    non-finite values (see :func:`_require_finite`)."""
    require_omega(omega)
    for sp, Om, hit in _cyclotron_hits(plasma, omega, rtol):
        if hit:
            raise CyclotronResonance(
                f"omega={omega!r} within {rtol} (relative) of cyclotron "
                f"frequency {Om!r} of species {sp.name!r}")
    return [float(v) for v in compute(np.asarray(omega, dtype=float))]


def stix_parameters(plasma, omega, resonance_rtol=RESONANCE_RTOL):
    """Stix parameters of a plasma at angular frequency omega > 0.

    A 0-d call of :func:`finite_stix_arrays`.  Raises CyclotronResonance
    if omega sits within ``resonance_rtol`` of any species' cyclotron
    frequency, where the cold model breaks down, and NumericalFailure if
    a parameter is not finite (omega^2 underflows at omega = 1e-170).
    """
    return StixParameters(*_at_omega(
        plasma, omega, resonance_rtol,
        lambda w: finite_stix_arrays(plasma, w)))


def stix_approximate_RL(plasma, omega):
    """Electron-mass approximation of (R, L).

    Combining each ion's fraction with the electron one and dropping the
    squared ion cyclotron frequencies leaves, per ion species,

        R ~ 1 - Pi_e^2 / (omega^2 + omega W_e + W_e W_i)
        L ~ 1 - Pi_e^2 / (omega^2 - omega W_e + W_e W_i)

    where W denotes the signed cyclotron frequency q B0 / m (negative
    for electrons; the formulas only reproduce the exact parameters with
    that sign).  Requires an electron species; with no ions both values
    are exactly 1.
    """
    require_omega(omega)
    el = plasma.electron_species()
    if el is None:
        raise MissingElectrons("approximate R/L needs an electron species")
    pi_e2 = plasma_frequency_squared(el)
    w_e = el.charge * plasma.B0 / el.mass
    R = 1.0
    L = 1.0
    for ion in plasma.ion_species():
        w_i = ion.charge * plasma.B0 / ion.mass
        R -= pi_e2 / (omega * omega + omega * w_e + w_e * w_i)
        L -= pi_e2 / (omega * omega - omega * w_e + w_e * w_i)
    return R, L


def dielectric_tensor(stix):
    """Populate the 3x3 tensor from the Stix parameters.

    Off-pattern entries are exactly zero; the result is Hermitian for
    real (s, d, p).
    """
    s, d, p = stix.s, stix.d, stix.p
    K = np.zeros((3, 3), dtype=complex)
    K[0, 0] = s
    K[1, 1] = s
    K[2, 2] = p
    K[0, 1] = -1j * d
    K[1, 0] = 1j * d
    return DielectricTensor(K)


def velocity_response(species, E, B0, omega):
    """First-order velocity of one species driven by a plane-wave field E.

    Components perpendicular to B0 couple through the cyclotron motion:

        v1 = i q (omega E1 + i sign*Omega E2) / (m (omega^2 - Omega^2))
        v2 = i q (omega E2 - i sign*Omega E1) / (m (omega^2 - Omega^2))
        v3 = i q E3 / (m omega)

    Raises CyclotronResonance when omega lies within RESONANCE_RTOL
    (relative) of Omega.
    """
    require_omega(omega)
    E = np.asarray(E, dtype=complex)
    q = species.charge
    m = species.mass
    Om = cyclotron_frequency(species, B0)
    if _near(omega, Om, RESONANCE_RTOL):
        raise CyclotronResonance(
            f"omega={omega!r} too close to cyclotron frequency {Om!r}"
        )
    denom = m * (omega * omega - Om * Om)
    sgn = species.charge_sign
    v1 = 1j * q * (omega * E[0] + 1j * sgn * Om * E[1]) / denom
    v2 = 1j * q * (omega * E[1] - 1j * sgn * Om * E[0]) / denom
    v3 = 1j * q * E[2] / (m * omega)
    return np.array([v1, v2, v3])


def plasma_current(plasma, velocities):
    """Current density j = sum over species of n q v [A/m^2]."""
    if len(velocities) != len(plasma.species):
        raise LengthMismatch(
            f"{len(velocities)} velocities for {len(plasma.species)} species"
        )
    j = np.zeros(3, dtype=complex)
    for sp, v in zip(plasma.species, velocities):
        j += sp.density * sp.charge * np.asarray(v, dtype=complex)
    return j


def displacement(E, j, omega):
    """Electric displacement D = eps0 E + (i/omega) j.

    Consistency: with velocities from :func:`velocity_response` and
    current from :func:`plasma_current`, this equals eps0 K E.
    """
    require_omega(omega)
    E = np.asarray(E, dtype=complex)
    j = np.asarray(j, dtype=complex)
    return EPSILON_0 * E + (1j / omega) * j


def lower_hybrid_coefficients(plasma, omega):
    """Coefficients (xi, zeta, mu) of the reduced wave operator.

    xi   = 1 + sum Pi^2 / (Omega^2 - omega^2)
    zeta = xi + sum Pi^2 / omega^2 - 1
    mu   = sum Pi^2 Omega / (omega (Omega^2 - omega^2))

    The operator is elliptic only where xi < 0.  Computed on a 0-d
    array; raises NumericalFailure if a coefficient is not finite.
    """
    def coefficients(w):
        xi, pi2_sum, mu = 1.0, 0.0, 0.0
        for pi2, Om, _ in plasma.species_table:
            xi += pi2 / (Om * Om - w * w)
            pi2_sum += pi2
            mu += pi2 * Om / (w * (Om * Om - w * w))
        return xi, xi + pi2_sum / (w * w) - 1.0, mu

    return LowerHybridCoefficients(*_at_omega(
        plasma, omega, RESONANCE_RTOL,
        lambda w: _require_finite("lower-hybrid coefficient",
                                  ("xi", "zeta", "mu"), coefficients, w)))

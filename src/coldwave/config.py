"""JSON configuration ingestion and validation.

One reader per file kind reads each key once: it applies the key's
default, checks its type and range and converts it.  The plasma and
problem readers collect every refusal into one ValueError, ``invalid
<kind> configuration: a; b``, raised before any object is built.
A JSON boolean is never taken as a number.

Plasma (``parse_plasma``; "electron" and "proton" default mass_kg and
charge_sign from SPECIES_ALIASES):
    {"B0": num >= 0 (default 0), "species": [{"name": str (default
     "species"), "mass_kg": num > 0, "charge_sign": -1|1, "Z": whole num
     >= 1 (default 1), "density_m3": num >= 0 (default 0)}, ...]}
Problem (``parse_problem``):
    {"kappa": num in [0, operators.KAPPA_MAX[bc.type]],
     "domain": {"rects": [[x0, x1, y0, y1], ...]},
     "grid": {"nx": int >= 8 (default 33), "ny": the same},
     "bc": {"type": "closed_dirichlet" (default) | "mixed" (one rect),
            "G": [bottom|right|top|left, ...] (mixed; default [])},
     "forcing": {"kind": one of FORCINGS[bc.type] (default its first,
                 zero forcing), and the keys that kind reads}}
    gauss reads "params": {"cx", "cy", "w" > 0}, by default the box
    centre and width / 6; samples reads "values", samples2 "values1"
    and "values2", each nx lists of ny numbers.
Fields (``parse_fields``; ``parse_layered`` adds "sigma0": num (default
0) and "x_range": [x0, x1] to K11, which it evaluates at z = 0):
    {"K11": {"kind": "affine_quadratic", "a": num, "b": num}
            | {"kind": "constant", "value": num}
            | {"kind": "expression-table", "xs": [...], "zs": [...],
               "values": [[...], ...]},   # xs, zs strictly increasing
     "K33": {...}}   # optional, defaults to constant 1
"""

import json
import math

import numpy as np

from .electrostatics import LayeredProblem
from .fields import Field2D
from .grid import Domain
from .operators import KAPPA_MAX
from .plasma import PlasmaState, Species, electron, proton
from .solvers import ModelProblem

SPECIES_ALIASES = {s.name: {"mass_kg": s.mass, "charge_sign": s.charge_sign}
                   for s in (electron(), proton())}

GRID_MIN = 8


def load_json(path):
    """A JSON file's contents.  Raises ValueError, naming the file and
    the literal, at NaN, Infinity, -Infinity or a number that overflows
    a double (such as 1e999, or an integer of 400 digits): every
    configured number must be finite.

    The file is parsed once without hooks and its numbers checked in one
    walk; only when the walk finds one that may be non-finite is it
    parsed again with a hook per literal, which names the first such
    literal."""
    def refuse(literal):
        raise ValueError(f"{path}: non-finite number {literal}")

    def finite(parse):
        def hook(literal):
            if math.isinf(float(literal)):
                refuse(literal)
            return parse(literal)
        return hook

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    data = json.loads(text)
    if _all_finite(data):
        return data
    return json.loads(text, parse_constant=refuse, parse_float=finite(float),
                      parse_int=finite(int))


def _all_finite(value):
    """False when the parsed JSON ``value`` holds a non-finite float or
    an int beyond the range of a double.  A list is checked by its sum,
    through which inf and NaN always propagate; the rare sum of finite
    numbers that overflows reads as non-finite too."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        value = list(value.values())
    if not isinstance(value, list):
        try:
            return not isinstance(value, int) or math.isfinite(value)
        except OverflowError:   # an int that no double holds
            return False
    try:
        return math.isfinite(sum(value))
    except (TypeError, OverflowError):   # not all numbers, or a huge int
        return all(map(_all_finite, value))


def _is_number(value):
    """Whether the parsed JSON ``value`` is a number: an int or a float,
    and not ``true`` or ``false``, which Python parses to a bool."""
    return type(value) in (int, float)


def _is_numbers(value, depth=1):
    """Whether the parsed JSON ``value`` is a list of numbers (``depth``
    1) or a list of such lists (``depth`` 2), told as ``_is_number``
    tells one number."""
    if depth > 1:
        return isinstance(value, list) and all(
            _is_numbers(v, depth - 1) for v in value)
    return isinstance(value, list) and set(map(type, value)) <= {int, float}


def _refused(kind, *diags):
    return ValueError(f"invalid {kind} configuration: " + "; ".join(diags))


def parse_plasma(data):
    """PlasmaState from a plasma-configuration mapping."""
    if not isinstance(data, dict):
        raise _refused("plasma", "plasma configuration must be a JSON object")
    diags = []
    b0 = data.get("B0", 0.0)
    if not (_is_number(b0) and b0 >= 0.0):
        diags.append("B0 must be a number >= 0")
    entries = data.get("species", [])
    if not isinstance(entries, list):
        raise _refused("plasma", *diags, "species must be a list")
    species = []
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            diags.append(f"species[{k}] must be an object")
            continue
        name = entry.get("name", "species")
        if not isinstance(name, str):
            diags.append(f"species[{k}]: name must be a string")
            continue
        entry = {**SPECIES_ALIASES.get(name, {}), **entry}
        mass, sign = entry.get("mass_kg"), entry.get("charge_sign")
        z, density = entry.get("Z", 1), entry.get("density_m3", 0.0)
        refusals = [text for refused, text in (
            ("mass_kg" not in entry, "missing mass_kg"),
            ("mass_kg" in entry and not _is_number(mass),
             "mass_kg must be a number"),
            (_is_number(mass) and not mass > 0.0, "mass_kg must be > 0"),
            (not (_is_number(sign) and sign in (-1, 1)),
             "charge_sign must be -1 or 1"),
            (not (_is_number(z) and z >= 1 and float(z).is_integer()),
             "Z must be a whole number >= 1"),
            (not _is_number(density), "density_m3 must be a number"),
            (_is_number(density) and density < 0.0,
             "density_m3 must be >= 0"),
        ) if refused]
        diags += [f"species[{k}] ({name!r}): {text}" for text in refusals]
        if not refusals:
            species.append(Species(
                name=name, mass=float(mass), charge_sign=int(sign),
                charge_number=int(z), density=float(density)))
    if diags:
        raise _refused("plasma", *diags)
    return PlasmaState(tuple(species), float(b0))


def _unit_box(domain, g):
    """g(X, Y) of (x, y) scaled to the unit square by the domain's box."""
    x0, x1, y0, y1 = domain.bounding_box
    return lambda x, y: g((x - x0) / (x1 - x0), (y - y0) / (y1 - y0))


def _gauss(domain, params):
    x0, x1, y0, y1 = domain.bounding_box
    cx = params.get("cx", 0.5 * (x0 + x1))
    cy = params.get("cy", 0.5 * (y0 + y1))
    w = params.get("w", (x1 - x0) / 6.0)
    return lambda x, y: np.exp(
        -((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * w * w))


# Forcing kinds of each boundary condition: kind -> (the forcing keys it
# reads, builder(domain, *their values) -> ModelProblem.forcing).  The
# first kind of each, zero forcing (None), is the default.
FORCINGS = {
    "closed_dirichlet": {
        "zero": ((), lambda domain: None),
        "one": ((), lambda domain: lambda x, y: np.ones(np.shape(x))),
        "sine_bump": ((), lambda domain: _unit_box(
            domain, lambda X, Y: np.sin(np.pi * X) * np.sin(np.pi * Y))),
        "gauss": (("params",), _gauss),
        "samples": (("values",), lambda domain, values: values),
    },
    "mixed": {
        "zero2": ((), lambda domain: (None, None)),
        "smooth2": ((), lambda domain: (
            _unit_box(domain, lambda X, Y: np.sin(np.pi * X)
                      * np.cos(0.5 * np.pi * Y)),
            _unit_box(domain, lambda X, Y: np.cos(np.pi * X)
                      * np.sin(np.pi * Y) + 0.3))),
        "samples2": (("values1", "values2"),
                     lambda domain, values1, values2: (values1, values2)),
    },
}


def parse_problem(data):
    """(ModelProblem, (nx, ny)) from a problem-configuration mapping."""
    if not isinstance(data, dict):
        raise _refused("problem",
                       "problem configuration must be a JSON object")
    sections = {key: data.get(key, {})
                for key in ("domain", "grid", "bc", "forcing")}
    for key, value in sections.items():
        if not isinstance(value, dict):
            raise _refused("problem", f"{key} must be a JSON object")
    diags = []
    bc = sections["bc"].get("type", "closed_dirichlet")
    hi = KAPPA_MAX.get(bc) if isinstance(bc, str) else None
    kappa = data.get("kappa")
    if not _is_number(kappa):
        diags.append("kappa must be a number")
    elif hi is not None and not 0.0 <= kappa <= hi:
        diags.append(f"kappa out of range [0, {hi:g}] for {bc}")
    rects = sections["domain"].get("rects")
    if not (rects and isinstance(rects, list)):
        diags.append("domain.rects must be a nonempty list")
        rects = []
    for r in rects:
        if not _is_numbers(r):
            diags.append(f"domain.rects: rectangle {r} must be a list of "
                         "numbers")
        elif len(r) != 4 or not (r[0] < r[1] and r[2] < r[3]):
            diags.append(f"rectangle {r} must satisfy x0 < x1, y0 < y1")
    shape = tuple(sections["grid"].get(key, 33) for key in ("nx", "ny"))
    for key, n in zip(("nx", "ny"), shape):
        if not isinstance(n, int) or n < GRID_MIN:
            diags.append(f"grid.{key} must be an integer >= {GRID_MIN}")
            shape = None
    G = sections["bc"].get("G", []) if bc == "mixed" else []
    if hi is None:
        diags.append("bc.type must be 'closed_dirichlet' or 'mixed'")
    elif not isinstance(G, list):
        diags.append("bc.G must be a list of segment names")
    else:
        diags += [f"unknown boundary segment {name!r} in G" for name in G
                  if name not in Domain.SEGMENTS]
    if bc == "mixed" and len(rects) > 1:
        diags.append("mixed problems need a single-rectangle domain")
    forcing = None if hi is None else _forcing(sections["forcing"], bc,
                                               shape, diags)
    if diags:
        raise _refused("problem", *diags)
    domain = Domain(tuple(map(tuple, rects)))
    return ModelProblem(float(kappa), domain, forcing(domain), bc,
                        tuple(G)), shape


def _forcing(entry, bc, shape, diags):
    """Builder domain -> ModelProblem.forcing of the forcing mapping
    ``entry`` of a ``bc`` problem, or None after appending its refusals
    to ``diags``; ``shape`` is the grid's (nx, ny), or None when the
    grid is refused."""
    kinds = FORCINGS[bc]
    kind = entry.get("kind", next(iter(kinds)))
    if not (isinstance(kind, str) and kind in kinds):
        diags.append(f"forcing kind {kind!r} is not a {bc} kind "
                     f"({', '.join(kinds)})")
        return None
    keys, build = kinds[kind]
    count = len(diags)
    values = [_params(entry.get(key, {}), diags) if key == "params"
              else _samples(entry, key, shape, diags) for key in keys]
    return None if len(diags) > count else (
        lambda domain: build(domain, *values))


def _params(params, diags):
    """The gauss forcing's ``params``, after appending their refusals to
    ``diags``."""
    if not isinstance(params, dict):
        diags.append("forcing.params must be a JSON object")
        return None
    diags += [f"forcing.params.{name} must be a number"
              for name in ("cx", "cy", "w")
              if name in params and not _is_number(params[name])]
    if _is_number(params.get("w")) and not params["w"] > 0.0:
        diags.append("forcing.params.w must be > 0")
    return params


def _samples(entry, key, shape, diags):
    """The nodal samples ``entry[key]`` as an array of ``shape``, or None
    after appending their refusal to ``diags``."""
    value = entry.get(key)
    if key not in entry:
        diags.append(f"missing forcing.{key}")
    elif not _is_numbers(value, 2):
        diags.append(f"forcing.{key} must be a list of lists of numbers")
    elif shape is not None:   # else the grid is refused
        if len(value) == shape[0] and set(map(len, value)) == {shape[1]}:
            return np.asarray(value, dtype=float)
        diags.append(f"forcing.{key} must have shape (nx, ny) = {shape}")
    return None


def parse_field(entry, default=None, name="field"):
    """Field2D from a field-definition mapping; ``name`` names the entry
    (such as ``K11``) in the message of a ValueError that refuses it."""
    if entry is None:
        if default is None:
            raise ValueError("missing field definition")
        return Field2D.constant(default)
    if not isinstance(entry, dict):
        raise ValueError(f"{name} must be a JSON object")

    def numbers(key, depth=0):
        value = entry.get(key)
        if not (_is_numbers(value, depth) if depth else _is_number(value)):
            shape = ("a number", "a list of numbers",
                     "a list of lists of numbers")[depth]
            raise ValueError(f"{name}.{key} must be {shape}")
        return value

    kind = entry.get("kind")
    if kind == "constant":
        return Field2D.constant(float(numbers("value")))
    if kind == "affine_quadratic":
        return Field2D.affine_quadratic(float(numbers("a")),
                                        float(numbers("b")))
    if kind == "expression-table":
        xs, zs, values = numbers("xs", 1), numbers("zs", 1), numbers(
            "values", 2)
        for key, axis in (("xs", xs), ("zs", zs)):
            if len(axis) < 2:
                raise ValueError(f"{name}.{key} must have two entries or more")
            if not all(a < b for a, b in zip(axis, axis[1:])):
                raise ValueError(f"{name}.{key} must be strictly increasing")
        if len(values) != len(xs) or set(map(len, values)) != {len(zs)}:
            raise ValueError(f"{name}.values must have shape (len(xs), "
                             "len(zs))")
        return Field2D.from_table(xs, zs, values)
    raise ValueError(f"unknown field kind {kind!r}")


def parse_fields(data):
    """(K11, K33) Field2D pair from a field-definition file's mapping;
    K33 defaults to the constant 1."""
    if not isinstance(data, dict):
        raise ValueError("field definitions must be a JSON object")
    return (parse_field(data.get("K11"), name="K11"),
            parse_field(data.get("K33"), default=1.0, name="K33"))


def parse_layered(data):
    """LayeredProblem from a layered-run mapping: the field ``K11``,
    whose real part at z = 0 is the problem's K11 (an array for an
    array x), ``sigma0`` (default 0) and ``x_range`` [x0, x1]."""
    if not isinstance(data, dict):
        raise ValueError("layered configuration must be a JSON object")
    f2d = parse_field(data.get("K11"), name="K11")
    sigma0 = data.get("sigma0", 0.0)
    if not _is_number(sigma0):
        raise ValueError("sigma0 must be a number")
    x_range = data.get("x_range")
    if not (_is_numbers(x_range) and len(x_range) == 2):
        raise ValueError("x_range must be a list of two numbers")
    return LayeredProblem(lambda x: np.real(f2d(x, 0.0)), float(sigma0),
                          tuple(x_range))


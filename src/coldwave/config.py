"""JSON configuration ingestion and validation.

Plasma configuration:
    {"B0": <tesla>, "species": [{"name": str, "mass_kg": num,
     "charge_sign": -1|1, "Z": int, "density_m3": num}, ...]}
Species named "electron" or "proton" may omit mass/charge fields.

Problem configuration:
    {"kappa": num, "domain": {"rects": [[x0,x1,y0,y1], ...]},
     "grid": {"nx": int, "ny": int},
     "bc": {"type": "closed_dirichlet"} | {"type": "mixed", "G": [...]},
     "forcing": {"kind": <expression id> | "samples" | "samples2", ...}}

Field definitions (type maps, layered runs):
    {"K11": {"kind": "affine_quadratic", "a": .., "b": ..}
            | {"kind": "constant", "value": ..}
            | {"kind": "expression-table", "xs": [...], "zs": [...],
               "values": [[...], ...]},
     "K33": {...}}   # optional, defaults to constant 1

Layered run: {"K11": {...}, "sigma0": num, "x_range": [x0, x1]}.

A JSON boolean is never taken as a number.
"""

import json
import math

import numpy as np

from .constants import M_ELECTRON, M_PROTON
from .electrostatics import LayeredProblem
from .fields import Field1D, Field2D
from .grid import Domain
from .plasma import PlasmaState, Species

SPECIES_ALIASES = {
    "electron": {"mass_kg": M_ELECTRON, "charge_sign": -1, "Z": 1},
    "proton": {"mass_kg": M_PROTON, "charge_sign": +1, "Z": 1},
}

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


def parse_plasma(data):
    """PlasmaState from a plasma-configuration mapping."""
    diags = validate_plasma(data)
    if diags:
        raise ValueError("invalid plasma configuration: " + "; ".join(diags))
    species = []
    for entry in data.get("species", []):
        merged = dict(SPECIES_ALIASES.get(entry.get("name", ""), {}))
        merged.update(entry)
        species.append(Species(
            name=merged.get("name", "species"),
            mass=float(merged["mass_kg"]),
            charge_sign=int(merged["charge_sign"]),
            charge_number=int(merged.get("Z", 1)),
            density=float(merged.get("density_m3", 0.0)),
        ))
    return PlasmaState(tuple(species), float(data.get("B0", 0.0)))


def validate_plasma(data):
    """Schema and range diagnostics for a plasma configuration."""
    diags = []
    if not isinstance(data, dict):
        return ["plasma configuration must be a JSON object"]
    b0 = data.get("B0", 0.0)
    if not _is_number(b0) or b0 < 0.0:
        diags.append("B0 must be a number >= 0")
    species = data.get("species", [])
    if not isinstance(species, list):
        return diags + ["species must be a list"]
    for k, entry in enumerate(species):
        if not isinstance(entry, dict):
            diags.append(f"species[{k}] must be an object")
            continue
        name = entry.get("name", "")
        if not isinstance(name, str):
            diags.append(f"species[{k}]: name must be a string")
            continue
        merged = dict(SPECIES_ALIASES.get(name, {}))
        merged.update(entry)
        if "mass_kg" not in merged:
            diags.append(f"species[{k}] ({name!r}): missing mass_kg")
        elif not _is_number(merged["mass_kg"]):
            diags.append(f"species[{k}] ({name!r}): mass_kg must be a "
                         "number")
        elif not merged["mass_kg"] > 0.0:
            diags.append(f"species[{k}] ({name!r}): mass_kg must be > 0")
        sign = merged.get("charge_sign")
        if not (_is_number(sign) and sign in (-1, 1)):
            diags.append(f"species[{k}] ({name!r}): charge_sign must be -1 or 1")
        z = merged.get("Z", 1)
        if not (_is_number(z) and z >= 1
                and float(z).is_integer()):
            diags.append(f"species[{k}] ({name!r}): Z must be a whole "
                         "number >= 1")
        density = merged.get("density_m3", 0.0)
        if not _is_number(density):
            diags.append(f"species[{k}] ({name!r}): density_m3 must be a "
                         "number")
        elif density < 0.0:
            diags.append(f"species[{k}] ({name!r}): density_m3 must be >= 0")
    return diags


def _box_normalized(domain):
    x0, x1, y0, y1 = domain.bounding_box

    def norm(x, y):
        return (x - x0) / (x1 - x0), (y - y0) / (y1 - y0)

    return norm


def scalar_forcing(kind, domain, params=None):
    """Vectorized forcing callable from an expression id."""
    params = params or {}
    if kind == "zero":
        return lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    if kind == "one":
        return lambda x, y: np.ones_like(np.asarray(x, dtype=float))
    if kind == "sine_bump":
        norm = _box_normalized(domain)

        def f(x, y):
            X, Y = norm(x, y)
            return np.sin(np.pi * X) * np.sin(np.pi * Y)

        return f
    if kind == "gauss":
        x0, x1, y0, y1 = domain.bounding_box
        cx = params.get("cx", 0.5 * (x0 + x1))
        cy = params.get("cy", 0.5 * (y0 + y1))
        w = params.get("w", (x1 - x0) / 6.0)

        def f(x, y):
            return np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * w * w))

        return f
    raise ValueError(f"unknown scalar forcing kind {kind!r}")


def vector_forcing(kind, domain, params=None):
    """Pair of forcing callables for the mixed first-order system."""
    if kind == "zero2":
        z = scalar_forcing("zero", domain)
        return z, z
    if kind == "smooth2":
        norm = _box_normalized(domain)

        def f1(x, y):
            X, Y = norm(x, y)
            return np.sin(np.pi * X) * np.cos(0.5 * np.pi * Y)

        def f2(x, y):
            X, Y = norm(x, y)
            return np.cos(np.pi * X) * np.sin(np.pi * Y) + 0.3

        return f1, f2
    raise ValueError(f"unknown vector forcing kind {kind!r}")


def parse_problem(data):
    """(ModelProblem, (nx, ny)) from a problem-configuration mapping."""
    from .solvers import ModelProblem

    diags = validate_problem(data)
    if diags:
        raise ValueError("invalid problem configuration: " + "; ".join(diags))
    domain = Domain(tuple(tuple(r) for r in data["domain"]["rects"]))
    bc = data.get("bc", {"type": "closed_dirichlet"})
    grid = data.get("grid", {"nx": 33, "ny": 33})
    forcing_cfg = data.get("forcing", {"kind": "zero"})
    kind = forcing_cfg.get("kind", "zero")
    if bc["type"] == "mixed":
        if kind == "samples2":
            forcing = (np.asarray(forcing_cfg["values1"], dtype=float),
                       np.asarray(forcing_cfg["values2"], dtype=float))
        else:
            forcing = vector_forcing(kind, domain, forcing_cfg.get("params"))
        problem = ModelProblem(float(data["kappa"]), domain, forcing=forcing,
                               bc="mixed", G=tuple(bc.get("G", ())))
    else:
        if kind == "samples":
            forcing = np.asarray(forcing_cfg["values"], dtype=float)
        else:
            forcing = scalar_forcing(kind, domain, forcing_cfg.get("params"))
        problem = ModelProblem(float(data["kappa"]), domain, forcing=forcing)
    return problem, (int(grid["nx"]), int(grid["ny"]))


def validate_problem(data):
    """Schema and range diagnostics for a problem configuration."""
    diags = []
    if not isinstance(data, dict):
        return ["problem configuration must be a JSON object"]
    for key in ("domain", "grid", "bc", "forcing"):
        if not isinstance(data.get(key, {}), dict):
            return [f"{key} must be a JSON object"]
    kappa = data.get("kappa")
    if not _is_number(kappa):
        diags.append("kappa must be a number")
    else:
        bc_type = data.get("bc", {}).get("type", "closed_dirichlet")
        hi = 1.0 if bc_type == "mixed" else 2.0
        if not 0.0 <= kappa <= hi:
            diags.append(f"kappa out of range [0, {hi:g}] for {bc_type}")
    rects = data.get("domain", {}).get("rects")
    if not (rects and isinstance(rects, list)):
        diags.append("domain.rects must be a nonempty list")
        rects = None
    else:
        for r in rects:
            if not _is_numbers(r):
                diags.append(f"domain.rects: rectangle {r} must be a list "
                             "of numbers")
            elif len(r) != 4 or not (r[0] < r[1] and r[2] < r[3]):
                diags.append(f"rectangle {r} must satisfy x0 < x1, y0 < y1")
    grid = data.get("grid", {})
    for key in ("nx", "ny"):
        n = grid.get(key, 33)
        if not isinstance(n, int) or n < GRID_MIN:
            diags.append(f"grid.{key} must be an integer >= {GRID_MIN}")
    bc = data.get("bc", {"type": "closed_dirichlet"})
    if bc.get("type") not in ("closed_dirichlet", "mixed"):
        diags.append("bc.type must be 'closed_dirichlet' or 'mixed'")
    if bc.get("type") == "mixed":
        valid = {"bottom", "right", "top", "left"}
        G = bc.get("G", [])
        if not isinstance(G, list):
            diags.append("bc.G must be a list of segment names")
            G = []
        for name in G:
            if not (isinstance(name, str) and name in valid):
                diags.append(f"unknown boundary segment {name!r} in G")
        if rects and len(rects) != 1:
            diags.append("mixed problems need a single-rectangle domain")
    forcing = data.get("forcing", {})
    params = forcing.get("params", {})
    if not isinstance(params, dict):
        diags.append("forcing.params must be a JSON object")
    else:
        diags += [f"forcing.params.{key} must be a number"
                  for key in ("cx", "cy", "w")
                  if key in params and not _is_number(params[key])]
    diags += [f"forcing.{key} must be a list of lists of numbers"
              for key in ("values", "values1", "values2")
              if key in forcing and not _is_numbers(forcing[key], 2)]
    return diags


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
        return Field2D.from_table(numbers("xs", 1), numbers("zs", 1),
                                  numbers("values", 2))
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
    evaluated at z = 0, ``sigma0`` (default 0) and ``x_range`` [x0, x1]."""
    if not isinstance(data, dict):
        raise ValueError("layered configuration must be a JSON object")
    f2d = parse_field(data.get("K11"), name="K11")
    sigma0 = data.get("sigma0", 0.0)
    if not _is_number(sigma0):
        raise ValueError("sigma0 must be a number")
    x_range = data.get("x_range")
    if not (_is_numbers(x_range) and len(x_range) == 2):
        raise ValueError("x_range must be a list of two numbers")
    k11 = Field1D(lambda x: np.real(f2d(x, 0.0)))
    return LayeredProblem(k11, float(sigma0), tuple(x_range))


def parse_bracket(text):
    """'W0:W1' -> (W0, W1), finite with 0 < W0 < W1."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"bracket {text!r} must be 'low:high'")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(
            f"bracket {text!r} must have numeric bounds") from None
    if not 0.0 < lo < hi:
        raise ValueError(f"bracket {text!r} must satisfy 0 < low < high")
    if hi == math.inf:
        raise ValueError(f"bracket {text!r} must have finite bounds")
    return lo, hi


def parse_angle(text):
    """Angle in radians from '1.2', '1.2rad', or '60deg'."""
    text = str(text).strip()
    if text.endswith("deg"):
        return math.radians(float(text[:-3]))
    if text.endswith("rad"):
        return float(text[:-3])
    return float(text)


def parse_grid_spec(text, angle=False):
    """Grid values from 'a,b,c' or 'start:stop:count[:log]'."""
    conv = parse_angle if angle else float
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(f"range {text!r} must be start:stop:count[:log]")
        start, stop = conv(parts[0]), conv(parts[1])
        count = int(parts[2])
        if count < 1:
            raise ValueError("count must be >= 1")
        spacing = parts[3] if len(parts) == 4 else "lin"
        if spacing == "log":
            if start <= 0.0 or stop <= 0.0:
                raise ValueError("log spacing needs positive endpoints")
            return list(np.geomspace(start, stop, count))
        if spacing != "lin":
            raise ValueError(f"unknown spacing {spacing!r}")
        return list(np.linspace(start, stop, count))
    return [conv(tok) for tok in text.split(",") if tok.strip()]

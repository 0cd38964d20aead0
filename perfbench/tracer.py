"""Per-layer spans taken from outside the program.

``Tracer.install()`` wraps the public functions listed in ``TARGETS``.
A function is rebound in every ``coldwave`` module that holds it (and
in module-level dicts such as the CLI's command table), so calls made
through ``from .x import f`` are traced too.  Each call records a span
(name, start, end, parent span, pass) and, where a sizer is given, sizes
computed from the call's inputs and return value only.  Spans stay in
memory; ``write()`` stores them as JSON lines at the end of the run.

``pass_metrics(spans)`` derives the per-layer metrics of one pass and
``layer_metrics(spans)`` their medians over passes.  A layer's self
time is the duration of its spans minus that of their direct child
spans.  A target missing from the program is listed as
absent; metrics of a layer that no call reached read 0.
"""

import functools
import importlib
import json
import os
import statistics
import sys
import time


def _matrix_sizes(args, kwargs, result):
    A = result[0]
    stored = getattr(A, "nbytes", None)
    if not isinstance(stored, int):
        stored = sum(getattr(getattr(A, name, None), "nbytes", 0)
                     for name in ("data", "indices", "indptr", "row", "col",
                                  "offsets"))
    return {"unknowns": int(A.shape[1]), "bytes": int(stored)}


def _cut_cells(args, kwargs, result):
    import numpy as np
    grid = args[0]
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    K = X - Y * Y
    inside = grid.inside
    corners = (K[:-1, :-1], K[1:, :-1], K[:-1, 1:], K[1:, 1:])
    cell_inside = (inside[:-1, :-1] & inside[1:, :-1]
                   & inside[:-1, 1:] & inside[1:, 1:])
    lo = np.minimum.reduce(corners)
    hi = np.maximum.reduce(corners)
    return {"cut_cells": int(np.sum(cell_inside & (lo < 0.0) & (hi > 0.0)))}


def _scan_points(args, kwargs, result):
    omegas = args[1] if len(args) > 1 else kwargs["omega_grid"]
    thetas = args[2] if len(args) > 2 else kwargs["theta_grid"]
    return {"points": len(omegas) * len(thetas)}


def _written_bytes(position):
    """Sizer of the file a writer took as its ``out`` argument."""
    def sizer(args, kwargs, result):
        out = args[position] if len(args) > position else kwargs.get("out")
        return {"bytes": os.path.getsize(out) if isinstance(out, str) else 0}
    return sizer


# (span group, module, attribute path, sizer)
TARGETS = [
    ("config.parse", "coldwave.config", "load_json", None),
    ("config.parse", "coldwave.config", "parse_plasma", None),
    ("config.parse", "coldwave.config", "parse_problem", None),
    ("config.parse", "coldwave.config", "parse_field", None),
    ("config.parse", "coldwave.config", "parse_bracket", None),
    ("config.parse", "coldwave.config", "parse_angle", None),
    ("config.parse", "coldwave.config", "parse_grid_spec", None),
    ("grid.build", "coldwave.grid", "Grid2D.__init__", None),
    ("operators.assemble", "coldwave.operators", "assemble_dirichlet",
     _matrix_sizes),
    ("operators.assemble", "coldwave.operators", "assemble_mixed",
     _matrix_sizes),
    ("operators.apply", "coldwave.operators", "apply_L", None),
    ("operators.apply", "coldwave.operators", "apply_L_adjoint", None),
    ("operators.apply", "coldwave.operators", "gradient", None),
    ("solvers", "coldwave.solvers", "solve_closed_dirichlet", None),
    ("solvers", "coldwave.solvers", "solve_mixed", None),
    ("solvers", "coldwave.solvers", "illposedness_diagnostic", None),
    ("quadrature.decompose", "coldwave.quadrature", "decompose_cells",
     _cut_cells),
    ("quadrature.integrate", "coldwave.quadrature", "integrate_signed", None),
    ("quadrature.integrate", "coldwave.quadrature", "integrate_uncut", None),
    ("quadrature.integrate", "coldwave.quadrature", "weighted_norms", None),
    ("multipliers.verify", "coldwave.multipliers",
     "verify_energy_inequality", None),
    ("multipliers.boundary", "coldwave.multipliers", "boundary_admissible",
     None),
    ("multipliers.boundary", "coldwave.multipliers",
     "MixedMultiplierSpec.auto", None),
    ("multipliers.bump_eval", "coldwave.multipliers", "random_interior_bump",
     "closure"),
    ("plasma.stix", "coldwave.plasma", "stix_parameters", None),
    ("dispersion.scan", "coldwave.dispersion", "dispersion_scan",
     _scan_points),
    ("rootscan", "coldwave.rootscan", "scan_roots", "count_f"),
    ("typegeometry.trace", "coldwave.typegeometry", "trace_characteristic",
     lambda a, k, r: {"points": len(r.points)}),
    ("electrostatics.integrate", "coldwave.electrostatics",
     "integrate_layered", lambda a, k, r: {"steps": int(r.steps)}),
    ("output.format", "coldwave.output", "write_csv", _written_bytes(2)),
    ("output.format", "coldwave.output", "write_json", _written_bytes(1)),
    ("cli", "coldwave.cli", "cmd_*", None),
]


class Tracer:
    """In-memory span recorder; one per traced worker process."""

    def __init__(self):
        self.spans = []     # [group, name, start, end, parent, pass, sizes]
        self.stack = []
        self.pass_no = None
        self.absent = []
        self._evals = 0     # calls of the function scan_roots samples

    def _wrap(self, group, name, fn, sizer):
        tracer = self

        if sizer == "closure":
            # only the closures the factory returns are timed
            @functools.wraps(fn)
            def factory(*args, **kwargs):
                return tracer._wrap(group, name + ".closure",
                                    fn(*args, **kwargs), None)

            return factory

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sizer == "count_f":
                args = (tracer._count(args[0]),) + args[1:]
            rec = [group, name, 0.0, 0.0,
                   tracer.stack[-1] if tracer.stack else None,
                   tracer.pass_no, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                tracer.stack.pop()
            if sizer == "count_f":
                rec[6] = {"f_evals": tracer._evals, "roots": len(result)}
            elif sizer is not None:
                rec[6] = sizer(args, kwargs, result)
            return result

        return traced

    def _count(self, f):
        self._evals = 0

        def counted(x):
            self._evals += 1
            return f(x)

        return counted

    def install(self):
        """Rebind every target in the loaded coldwave modules."""
        for group, module, path, sizer in TARGETS:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                self.absent.append(f"{module}.{path}")
                continue
            if path.endswith("*"):
                names = [n for n in vars(mod) if n.startswith(path[:-1])
                         and callable(getattr(mod, n))]
            else:
                names = [path]
            for name in names:
                self._install_one(group, mod, module, name, sizer)

    def _install_one(self, group, mod, module, name, sizer):
        owner_name, _, attr = name.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            self.absent.append(f"{module}.{name}")
            return
        label = f"{module.rpartition('.')[2]}.{name}"
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(
                self._wrap(group, label, raw.__func__, sizer)))
            return
        wrapped = self._wrap(group, label, raw, sizer)
        if owner is not mod:
            setattr(owner, attr, wrapped)
            return
        for other in list(sys.modules.values()):
            if not getattr(other, "__name__", "").startswith("coldwave"):
                continue
            for key, value in list(vars(other).items()):
                if value is raw:
                    setattr(other, key, wrapped)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is raw:
                            value[k] = wrapped

    def write(self, path, workload):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"absent": self.absent}) + "\n")
            for index, (group, name, t0, t1, parent, pass_no, sizes) in \
                    enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "group": group, "name": name, "start": t0,
                    "end": t1, "parent": parent, "workload": workload,
                    "pass": pass_no, "sizes": sizes}) + "\n")


def read_spans(path):
    """(absent names, spans) from a file written by ``Tracer.write``."""
    with open(path, encoding="utf-8") as fh:
        absent = json.loads(fh.readline())["absent"]
        return absent, [json.loads(line) for line in fh]


# per-layer metric -> span group whose self time it sums
SELF_TIMES = {
    "solvers.self_s": "solvers",
    "operators.assemble_s": "operators.assemble",
    "operators.apply_s": "operators.apply",
    "quadrature.decompose_s": "quadrature.decompose",
    "quadrature.integrate_s": "quadrature.integrate",
    "multipliers.bump_eval_s": "multipliers.bump_eval",
    "multipliers.verify_self_s": "multipliers.verify",
    "multipliers.boundary_s": "multipliers.boundary",
    "grid.build_s": "grid.build",
    "config.parse_s": "config.parse",
    "plasma.stix_s": "plasma.stix",
    "dispersion.scan_self_s": "dispersion.scan",
    "rootscan.self_s": "rootscan",
    "typegeometry.trace_s": "typegeometry.trace",
    "electrostatics.integrate_s": "electrostatics.integrate",
    "cli.self_s": "cli",
    "output.format_s": "output.format",
}
# per-layer metric -> (span group, size key, scale) it sums
SIZES = {
    "operators.unknowns": ("operators.assemble", "unknowns", 1.0),
    "operators.matrix_mb": ("operators.assemble", "bytes", 1e-6),
    "quadrature.cut_cells": ("quadrature.decompose", "cut_cells", 1.0),
    "dispersion.points": ("dispersion.scan", "points", 1.0),
    "rootscan.f_evals": ("rootscan", "f_evals", 1.0),
    "rootscan.roots": ("rootscan", "roots", 1.0),
    "typegeometry.trace_points": ("typegeometry.trace", "points", 1.0),
    "electrostatics.steps": ("electrostatics.integrate", "steps", 1.0),
    "output.bytes": ("output.format", "bytes", 1.0),
}


def pass_metrics(spans):
    """Per-layer metrics of the spans of one pass."""
    self_time = {}
    child_time = {}
    for sp in spans:
        if sp["parent"] is not None:
            child_time[sp["parent"]] = child_time.get(sp["parent"], 0.0) \
                + sp["end"] - sp["start"]
    sizes = {}
    inclusive = {}
    count = {}
    for sp in spans:
        g = sp["group"]
        dur = sp["end"] - sp["start"]
        self_time[g] = self_time.get(g, 0.0) + dur - child_time.get(
            sp["id"], 0.0)
        inclusive[g] = inclusive.get(g, 0.0) + dur
        count[g] = count.get(g, 0) + 1
        for key, value in (sp["sizes"] or {}).items():
            sizes[(g, key)] = sizes.get((g, key), 0) + value
    out = {name: self_time.get(g, 0.0) for name, g in SELF_TIMES.items()}
    out.update({name: sizes.get((g, key), 0) * scale
                for name, (g, key, scale) in SIZES.items()})
    out["plasma.stix_calls"] = count.get("plasma.stix", 0)
    scan_s = inclusive.get("dispersion.scan", 0.0)
    out["dispersion.points_per_s"] = (out["dispersion.points"] / scan_s
                                      if scan_s > 0.0 else 0.0)
    roots = out["rootscan.roots"]
    out["rootscan.evals_per_root"] = (out["rootscan.f_evals"] / roots
                                      if roots else 0.0)
    return out


def layer_metrics(spans):
    """Median over passes of each per-layer metric."""
    passes = sorted({sp["pass"] for sp in spans})
    per_pass = [pass_metrics([sp for sp in spans if sp["pass"] == p])
                for p in passes]
    if not per_pass:
        per_pass = [pass_metrics([])]
    return {name: statistics.median(m[name] for m in per_pass)
            for name in per_pass[0]}, len(per_pass)

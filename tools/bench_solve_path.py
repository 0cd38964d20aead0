"""Count and time the SuperLU work per factor of the grid solves.

Usage: python3 tools/bench_solve_path.py PARENT_CHECKOUT N [--seed S]
           > BENCH.json

Three records, each taken from this checkout ("change") and from
PARENT_CHECKOUT ("parent"), every measurement in a fresh interpreter
that imports the coldwave of that checkout's ``src``:

* ``solve_calls``: each step of the ``bvp`` benchmark workload (inputs
  from ``perfbench/workloads.build`` at ``--seed``, default 7) runs once
  through ``coldwave.cli.main`` with ``solvers._splu`` wrapped, so that
  every factor counts its ``solve`` calls, the columns they solve and
  how many of them are transposed.  Per step: ``factors``, ``solves``,
  ``columns``, ``transposed`` and ``solves_per_factor``.
* ``scale``: ``solvers._min_norm_solve`` of the closed-Dirichlet origin
  box [-1.05,0.95]x[-1.02,0.98] (kappa 0.5, a sine right-hand side) at
  SCALE_LEVELS, best of SCALE_REPEATS calls in one process, with the
  seconds inside ``splu`` (SuperLU's ``gstrf``) of that call beside it.
  Each side runs N // 2 times (at least once), in pairs whose first side
  alternates, starting with the parent.
* ``bvp_pairs``: N alternating pairs of ``perfbench/run.py --workload
  bvp`` (``tools/bench_scale.run_pairs``), with the command medians
  ``solve_s``, ``solve_mixed_s`` and ``illposedness_s`` of every run.

The JSON goes to stdout.  Nothing is written inside either checkout but
the benchmark's own ``.perfbench/`` directory.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCALE_LEVELS = (257, 513)
SCALE_REPEATS = 3


def _child(checkout, *args):
    """JSON printed by this script run with ``args`` on the coldwave of
    ``checkout``."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *args], check=True,
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.path.join(checkout, "src"),
             "PYTHONDONTWRITEBYTECODE": "1"})
    return json.loads(out.stdout)


def _wrap_splu(tally):
    """Replace ``solvers._splu``, once per process, by a wrapper that
    counts every factor's solves into ``tally`` and adds the seconds of
    each factorization to ``tally["splu_s"]``."""
    from coldwave import solvers

    real = solvers._splu

    class Counted:
        def __init__(self, lu):
            self._lu = lu

        def solve(self, b, trans="N"):
            tally["solves"] += 1
            tally["columns"] += 1 if b.ndim == 1 else b.shape[1]
            tally["transposed"] += trans != "N"
            return self._lu.solve(b, trans=trans)

        def __getattr__(self, name):
            return getattr(self._lu, name)

    def counted_splu(M, **settings):
        t0 = time.perf_counter()
        lu = real(M, **settings)
        tally["splu_s"] += time.perf_counter() - t0
        tally["factors"] += lu is not None
        return None if lu is None else Counted(lu)

    solvers._splu = counted_splu


def _new_tally():
    return dict.fromkeys(("factors", "solves", "columns", "transposed",
                          "splu_s"), 0)


def child_calls(seed):
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads
    from coldwave import cli

    rows = {}
    tally = _new_tally()
    _wrap_splu(tally)
    with tempfile.TemporaryDirectory() as workdir:
        for step in workloads.build("bvp", seed, workdir):
            tally.update(_new_tally())
            argv = [a.replace("{out}", workdir) for a in step.argv]
            assert cli.main(argv) == 0
            row = {k: v for k, v in tally.items() if k != "splu_s"}
            row["solves_per_factor"] = row["solves"] / row["factors"]
            rows[step.group] = row
    return rows


def child_scale(n):
    import numpy as np

    from coldwave import solvers
    from coldwave.grid import Domain, Grid2D
    from coldwave.operators import assemble_dirichlet

    grid = Grid2D(Domain.rectangle(-1.05, 0.95, -1.02, 0.98), n, n)
    A, _ = assemble_dirichlet(grid, 0.5)
    rhs = np.sin(np.arange(A.shape[0]) * 0.01)
    tally = _new_tally()
    _wrap_splu(tally)
    best = None
    for _ in range(SCALE_REPEATS):
        tally.update(_new_tally())
        t0 = time.perf_counter()
        solvers._min_norm_solve(A, rhs)
        wall = time.perf_counter() - t0
        if best is None or wall < best["wall_s"]:
            best = {"wall_s": wall, "splu_s": tally["splu_s"],
                    "solves": tally["solves"], "columns": tally["columns"]}
    best["splu_share"] = best["splu_s"] / best["wall_s"]
    return {"n": n, "unknowns": A.shape[0], **best}


def scale(parent, rounds):
    out = {}
    sides = [("parent", parent), ("change", ROOT)]
    for n in SCALE_LEVELS:
        runs = {"parent": [], "change": []}
        for k in range(rounds):
            for side, checkout in sides if k % 2 == 0 else sides[::-1]:
                runs[side].append(_child(checkout, "--child-scale", str(n)))
                print(f"{side} {n}: {runs[side][-1]['wall_s']:.3f} s",
                      file=sys.stderr)
        out[str(n)] = {"runs": runs, "median_wall_s": {
            side: statistics.median(r["wall_s"] for r in rs)
            for side, rs in runs.items()}}
    return out


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("pairs", nargs="?", type=int)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--child-calls", action="store_true")
    parser.add_argument("--child-scale", type=int)
    args = parser.parse_args(argv)
    if args.child_calls:
        result = child_calls(args.seed)
    elif args.child_scale:
        result = child_scale(args.child_scale)
    else:
        sys.path.insert(0, os.path.join(ROOT, "tools"))
        import bench_scale
        import numpy as np
        import scipy

        parent = os.path.abspath(args.parent)
        result = {
            "machine": {"nproc": os.cpu_count(),
                        "python": platform.python_version(),
                        "numpy": np.__version__, "scipy": scipy.__version__},
            "solve_calls": {
                side: _child(checkout, "--child-calls", "--seed",
                             str(args.seed))
                for side, checkout in (("parent", parent),
                                       ("change", ROOT))},
            "scale": scale(parent, max(1, args.pairs // 2)),
            "bvp_pairs": bench_scale.run_pairs(parent, args.pairs, "bvp",
                                               args.seed)}
    json.dump(result, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

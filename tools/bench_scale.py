"""Time and size the grid solves from 65^2 to 513^2, count their SuperLU
work, and fit the fill model.

Usage: python3 tools/bench_scale.py [--pairs PARENT_CHECKOUT N]
           [--workload W] [--seed S] > BENCH.json

Each level of ``solve-mixed`` (the acceptance-14 box [0,1]x[0,0.75],
kappa 0, G = top,left, ``smooth2`` forcing) and of ``solve`` (the origin
box [-1.05,0.95]x[-1.02,0.98], kappa 0.5, ``sine_bump`` forcing) runs in
a fresh interpreter (``CHILD``) that calls ``coldwave.cli.main`` once
with ``solvers._splu`` wrapped.  It reports the wall time of that call
(``wall_s``, the first solve's scipy import included), its
``ru_maxrss`` and its SuperLU work: ``factors``, the seconds inside
``splu`` (``splu_s``, without that import), the ``solves`` on the
factors, the ``columns`` they solve and how many solves are
``transposed``.  The run's ``--summary`` gives the sizes: unknowns, nnz
of A, lu_nnz of the factor and the SuperLU ordering, and the solve's
backward error (null from a checkout whose summary has none).  Beside
them stand the fill model's estimate ``solvers.fill_estimate(m)`` for
the order m of the factored matrix and the memory estimate that
``solvers.require_memory`` compares with the budget.  ``fit`` is the
least-squares line of log lu_nnz against log m over every level of both
commands, and ``bytes_per_fill`` the largest peak RSS per factor nonzero
at 257 and above, where the factor dominates: the source of
``solvers.BYTES_PER_FILL``.  (The fill model ``FILL_C``/``FILL_P`` is an
upper envelope of COLAMD fill, which these levels do not factor; see
``solvers``.)

With ``--pairs PARENT N`` (N >= 2), ``perfbench/run.py --workload W``
(``--workload``, default ``bvp``) runs N times in PARENT and in this
checkout (``--seed``, default 7, 8 s each), in pairs whose first side
alternates, starting with the parent.  Every run's end-to-end metrics
and command medians (``dispersion_s``, ``solve_s``, ...), and the
quartiles of each over the runs of each side, are recorded under
``<W>_pairs``.  The level sweep measures the grid solves that only
``bvp`` runs, so pairs of another workload are recorded alone.  Pairs
of ``bvp`` also run the sweep on PARENT's ``src``, under
``parent_levels``, and each ``bvp`` step (inputs from
``perfbench/workloads.build`` at ``--seed``) once through ``CHILD`` on
each side, under ``solve_calls``: its ``factors``, ``solves``,
``columns``, ``transposed`` and ``solves_per_factor``.  The ``scale``
record of earlier BENCH files (in-process solves at 257^2 and 513^2,
best of 3) is retired: the sweep's rows carry the same ``splu_s`` and
``wall_s`` at those levels.  The JSON goes to stdout.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile

import numpy as np
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
LEVELS = (65, 129, 257, 513)
COMMANDS = {
    "solve-mixed": {"kappa": 0.0,
                    "domain": {"rects": [[0.0, 1.0, 0.0, 0.75]]},
                    "bc": {"type": "mixed", "G": ["top", "left"]},
                    "forcing": {"kind": "smooth2"}},
    "solve": {"kappa": 0.5,
              "domain": {"rects": [[-1.05, 0.95, -1.02, 0.98]]},
              "bc": {"type": "closed_dirichlet"},
              "forcing": {"kind": "sine_bump"}},
}
PAIR_SEED = 7
PAIR_SECONDS = 8

CHILD = """
import json, resource, sys, time
sys.dont_write_bytecode = True
from coldwave import solvers
from coldwave.cli import main
work = dict.fromkeys(("factors", "splu_s", "solves", "columns",
                      "transposed"), 0)
splu = solvers._splu

class Counted:
    def __init__(self, lu):
        self._lu = lu
    def solve(self, b, trans="N"):
        work["solves"] += 1
        work["columns"] += 1 if b.ndim == 1 else b.shape[1]
        work["transposed"] += trans != "N"
        return self._lu.solve(b, trans=trans)
    def __getattr__(self, name):
        return getattr(self._lu, name)

def counted(M, **settings):
    import scipy.sparse.linalg  # imported before the clock starts
    t0 = time.perf_counter()
    lu = splu(M, **settings)
    work["splu_s"] += time.perf_counter() - t0
    work["factors"] += lu is not None
    return None if lu is None else Counted(lu)

solvers._splu = counted
t0 = time.perf_counter()
code = main(sys.argv[1:])
wall = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"exit": code, "wall_s": wall, "ru_maxrss_mb": rss / 1024,
                  **work}))
"""


def run_child(src, argv):
    """The record of ``CHILD``: one CLI call ``argv``, run in a fresh
    interpreter on the coldwave of ``src``, which must exit 0."""
    out = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], check=True,
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    record = json.loads(out.stdout)
    if record["exit"] != 0:
        raise RuntimeError(f"{argv} exited {record['exit']}: {out.stderr}")
    return record


def run_level(command, n, workdir, src):
    from coldwave import solvers

    problem = dict(COMMANDS[command], grid={"nx": n, "ny": n})
    cfg = os.path.join(workdir, "problem.json")
    summary = os.path.join(workdir, "summary.json")
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump(problem, fh)
    row = {"command": command, "n": n, **run_child(src, [
        "--quiet", "--out", os.devnull, command, "--problem", cfg,
        "--summary", summary])}
    with open(summary, encoding="utf-8") as fh:
        info = json.load(fh)
    m = solvers.factor_order(problem["bc"]["type"], n, n)
    row.update({k: info[k] for k in ("method", "unknowns", "nnz", "lu_nnz",
                                     "ordering")})
    row["backward_error"] = info.get("backward_error")
    row["order"] = m
    row["fill_estimate"] = solvers.fill_estimate(m)
    row["fill_ratio"] = row["fill_estimate"] / info["lu_nnz"]
    row["memory_estimate_mb"] = solvers.BYTES_PER_FILL * row[
        "fill_estimate"] / 1e6
    return row


def sweep(src):
    """Every level of every command, run with the coldwave of ``src``."""
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        for command in COMMANDS:
            for n in LEVELS:
                rows.append(run_level(command, n, workdir, src))
                print(f"{src} {command} {n}: {rows[-1]['wall_s']:.2f} s, "
                      f"{rows[-1]['ru_maxrss_mb']:.0f} MB", file=sys.stderr)
    return rows


def fit(rows):
    """Least-squares lu_nnz = c m^p over rows, and the largest peak bytes
    per factor nonzero at 257 and above."""
    logm = np.log([r["order"] for r in rows])
    logf = np.log([r["lu_nnz"] for r in rows])
    p, logc = np.polyfit(logm, logf, 1)
    per_fill = max(r["ru_maxrss_mb"] * 1024 * 1024 / r["lu_nnz"]
                   for r in rows if r["n"] >= 257)
    return {"c": math.exp(logc), "p": p, "bytes_per_fill": per_fill}


def solve_calls(parent, seed):
    """SuperLU work of each ``bvp`` benchmark step (inputs from
    ``perfbench/workloads.build`` at ``seed``), one fresh interpreter per
    step and side."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    calls = {"parent": {}, "change": {}}
    with tempfile.TemporaryDirectory() as workdir:
        out = os.path.join(workdir, "out")
        os.mkdir(out)
        for step in workloads.build("bvp", seed, workdir):
            argv = [a.replace("{out}", out) for a in step.argv]
            for side, src in (("parent", os.path.join(parent, "src")),
                              ("change", SRC)):
                record = run_child(src, argv)
                work = {k: record[k] for k in ("factors", "solves",
                                               "columns", "transposed")}
                work["solves_per_factor"] = work["solves"] / work["factors"]
                calls[side][step.group] = work
    return calls


def run_once(checkout, workload, seed):
    """End-to-end metrics and command medians of one benchmark run, and
    its failed command count."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(PAIR_SECONDS), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    with open(os.path.join(checkout, ".perfbench", "results",
                           f"{workload}-seed{seed}-trace0.json"),
              encoding="utf-8") as fh:
        commands = json.load(fh)["commands"]
    return ({**{k: v["value"] for k, v in result["metrics"].items()},
             **{k: v["median_s"] for k, v in commands.items()}},
            result["failed"])


def run_pairs(parent, pairs, workload, seed):
    runs = {"parent": [], "change": []}
    failed = 0
    sides = [("parent", parent), ("change", ROOT)]
    for k in range(pairs):
        for side, checkout in sides if k % 2 == 0 else sides[::-1]:
            metrics, bad = run_once(checkout, workload, seed)
            runs[side].append(metrics)
            failed += bad
    wins = sum(c["wall_ref_s"] < p["wall_ref_s"]
               for p, c in zip(runs["parent"], runs["change"]))
    return {"workload": workload, "seed": seed, "seconds": PAIR_SECONDS,
            "pairs": pairs,
            "order": "parent first in pairs 0, 2, ...; change first in "
                     "pairs 1, 3, ...", "failed": failed,
            "wall_ref_s_change_wins": wins, "runs": runs,
            "quartiles": {side: {k: statistics.quantiles(
                [r[k] for r in rs], n=4) for k in rs[0]}
                for side, rs in runs.items()}}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pairs", nargs=2, metavar=("PARENT", "N"))
    parser.add_argument("--workload", default="bvp")
    parser.add_argument("--seed", type=int, default=PAIR_SEED)
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    report = {"machine": {"nproc": os.cpu_count(),
                          "python": platform.python_version(),
                          "numpy": np.__version__, "scipy": scipy.__version__}}
    if not args.pairs or args.workload == "bvp":
        rows = sweep(SRC)
        report.update(levels=rows, fit=fit(rows))
        if args.pairs:
            report["parent_levels"] = sweep(os.path.join(args.pairs[0], "src"))
            report["solve_calls"] = solve_calls(args.pairs[0], args.seed)
    if args.pairs:
        report[f"{args.workload}_pairs"] = run_pairs(
            args.pairs[0], int(args.pairs[1]), args.workload, args.seed)
    json.dump(report, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

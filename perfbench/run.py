"""coldwave benchmark.

    python3 perfbench/run.py --workload bvp|energy|scan|all --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
its ``src`` directory.  Inputs are generated from ``--seed`` and handed
to ``coldwave.cli.main`` in a worker process (worker.py) that runs the
workload's commands in passes for ``--seconds`` seconds.  Every output
is checked (checks.py) and every later pass must reproduce it byte for
byte.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run (tracer.py).  Lines before it are a readable report that
also gives each command's time with its sample count.  Scratch files go
to ``.perfbench/`` in the checkout; results and span files stay in
``.perfbench/results/``.  See README.md in this directory.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIME_LIMIT = 170.0          # a run must end within 180 s
COLD_STARTS = 9


def _child_env(workdir):
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in ("COLDWAVE_THREADS", "OPENBLAS_NUM_THREADS",
                "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = env.get(var, "")
        env[var] = str(min(int(current), nproc) if current.isdigit()
                       and int(current) > 0 else nproc)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = workdir
    return env


def _cold_start(env):
    """Seconds from spawning an interpreter to coldwave.cli imported."""
    t0 = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, "-c",
         "import time, coldwave.cli; print(time.monotonic_ns())"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
        check=True)
    return (int(proc.stdout) - t0) / 1e9


def _import_times(env):
    """Cumulative import seconds of scipy.linalg and coldwave.cli from
    ``python -X importtime`` (0 for a module the import no longer pulls
    in)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import coldwave.cli"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
        check=True)
    found = {"scipy.linalg": 0.0, "coldwave.cli": 0.0}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in found:
            found[parts[2].strip()] = int(parts[1]) / 1e6
    return {"import.scipy_linalg_s": found["scipy.linalg"],
            "import.coldwave_cli_s": found["coldwave.cli"]}


def _high_percentile(values):
    """(label, value) of the highest percentile with ten samples beyond
    it, or None with fewer than eleven samples."""
    if len(values) < 11:
        return None
    ranked = sorted(values)
    k = len(ranked) - 11
    return f"p{100.0 * (k + 1) / len(ranked):.0f}", ranked[k]


def _check_outputs(steps, passes, workdir):
    """(attempted, failed, problems) over all passes of the worker."""
    first = passes[0]["hashes"]
    attempted = failed = 0
    problems = []
    for k, step in enumerate(steps):
        try:
            bad = step.check(os.path.join(workdir, "out0"))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            bad = [f"unreadable output: {exc!r}"]
        problems += [f"{step.outputs[0]}: {p}" for p in bad]
        for p in passes:
            codes = p["steps"][k]["codes"]
            attempted += len(codes)
            wrong = sum(code != 0 for code in codes)
            if wrong:
                problems.append(f"pass {p['pass']}: exit codes {codes}")
            differs = any(p["hashes"].get(name) != first.get(name)
                          or name not in first for name in step.outputs)
            if differs:
                problems.append(f"pass {p['pass']}: outputs {step.outputs} "
                                "differ from the checked ones")
            if bad or differs:
                wrong = len(codes)
            failed += wrong
    return attempted, failed, problems


def _command_times(passes):
    """Per-repeat samples of each command group over timed passes."""
    samples = {}
    for p in passes:
        per_group = {}
        for rec in p["steps"]:
            acc = per_group.setdefault(rec["group"], [0.0] * len(
                rec["seconds"]))
            for i, s in enumerate(rec["seconds"]):
                acc[i] += s
        for group, values in per_group.items():
            samples.setdefault(group, []).extend(values)
    return samples


def run_workload(name, seed, seconds, trace):
    workdir = os.path.join(ROOT, ".perfbench",
                           f"{name}-{seed}-{trace}-{os.getpid()}")
    results = os.path.join(ROOT, ".perfbench", "results")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.makedirs(results, exist_ok=True)
    t_start = time.monotonic()
    with open(os.path.join(HERE, "BASELINE.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["energy_reference"]
    steps = workloads.build(name, seed, workdir, reference)
    env = _child_env(workdir)
    report = {"workload": name, "seed": seed, "trace": trace}

    if trace:
        _import_times(env)      # compiles bytecode in a fresh checkout
        samples = [_import_times(env) for _ in range(5)]
        imports = {k: statistics.median(s[k] for s in samples)
                   for k in samples[0]}
    else:
        _cold_start(env)
        setup = [_cold_start(env) for _ in range(COLD_STARTS)]

    spec = os.path.join(workdir, "spec.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({"root": ROOT, "workdir": workdir, "workload": name,
                   "seconds": seconds, "trace": trace,
                   "steps": [{"group": s.group, "argv": s.argv,
                              "outputs": s.outputs, "repeat": s.repeat}
                             for s in steps]}, fh)
    log = os.path.join(workdir, "worker.log")
    with open(log, "w", encoding="utf-8") as err:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec],
            env=env, cwd=ROOT, stdout=err, stderr=err,
            timeout=max(10.0, TIME_LIMIT - (time.monotonic() - t_start)))
    if proc.returncode != 0:
        with open(log, encoding="utf-8") as fh:
            sys.stderr.write(fh.read())
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    with open(os.path.join(workdir, "worker_result.json"),
              encoding="utf-8") as fh:
        worker = json.load(fh)
    passes = worker["passes"]
    attempted, failed, problems = _check_outputs(steps, passes, workdir)
    report.update(toolchain=worker["toolchain"], attempted=attempted,
                  failed=failed, problems=problems)

    untraced = [p for p in passes[1:] if not p["traced"]]
    wall = statistics.median(p["wall"] for p in untraced)
    report["passes"] = [{k: p[k] for k in ("wall", "wall_ref",
                                            "calibration_s", "traced")}
                        for p in passes[1:]]
    if trace:
        shutil.move(os.path.join(workdir, "spans.jsonl"), os.path.join(
            results, f"spans-{name}-seed{seed}.jsonl"))
        absent, spans = tracer.read_spans(os.path.join(
            results, f"spans-{name}-seed{seed}.jsonl"))
        metrics, n_traced = tracer.layer_metrics(spans)
        metrics.update(imports)
        untraced_ref = statistics.median(p["wall_ref"] for p in untraced)
        traced_ref = statistics.median(p["wall_ref"] for p in passes
                                       if p["traced"])
        metrics["trace.overhead_frac"] = (traced_ref - untraced_ref) \
            / untraced_ref
        units = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
        report.update(absent=absent, traced_passes=n_traced,
                      untraced_passes=len(untraced))
    else:
        metrics = {"setup_s": statistics.median(setup),
                   "wall_ref_s": statistics.median(p["wall_ref"]
                                                   for p in untraced),
                   "peak_rss_mb": worker["peak_rss_mb"]}
        units = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
        report["samples"] = {"setup_s": len(setup),
                             "wall_ref_s": len(untraced)}
        report["wall_s"] = wall
        report["commands"] = {
            group: {"median_s": statistics.median(v), "n": len(v),
                    "high": _high_percentile(v)}
            for group, v in _command_times(untraced).items()}
    report["fail_frac"] = failed / attempted
    report["metrics"] = {k: {"value": metrics[k], "unit": unit}
                         for k, unit in units.items()}
    with open(os.path.join(results, f"{name}-seed{seed}-trace{trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    shutil.rmtree(workdir, ignore_errors=True)
    return report


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _print_report(rep):
    tc = rep["toolchain"]
    print(f"== {rep['workload']}  seed {rep['seed']}  trace {rep['trace']}  "
          f"python {tc['python']}  numpy {tc['numpy']}  scipy {tc['scipy']}  "
          f"blas {tc['blas']}  nproc {tc['nproc']}  "
          f"BLAS threads {tc['blas_threads']}")
    samples = rep.get("samples", {})
    for k, m in rep["metrics"].items():
        n = samples.get(k)
        print(f"  {k:28s} {m['value']:14.6g} {m['unit']:6s}"
              + (f" median of {n}" if n else ""))
    print(f"  {'fail_frac':28s} {rep['fail_frac']:14.6g} {'ratio':6s} "
          f"{rep['failed']} of {rep['attempted']} commands")
    if "wall_s" in rep:
        print(f"  {'wall_s':28s} {rep['wall_s']:14.6g} {'s':6s} median of "
              f"{rep['samples']['wall_ref_s']}, not rescaled")
    for group, c in rep.get("commands", {}).items():
        high = f", {c['high'][0]} {c['high'][1]:.6g} s" if c["high"] else ""
        print(f"  {group:28s} {c['median_s']:14.6g} {'s':6s} median of "
              f"{c['n']}{high}")
    if rep["trace"]:
        print(f"  traced passes {rep['traced_passes']}, untraced "
              f"{rep['untraced_passes']}; absent: "
              f"{', '.join(rep['absent']) or 'none'}")
    for p in rep["problems"]:
        print(f"  FAILED {p}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "coldwave", "cli.py")):
        print(f"error: no coldwave sources under {ROOT}/src", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    names = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"--workload must be one of {workloads.WORKLOADS} "
                     "or all")
    reports = [run_workload(n, seed, args.seconds, args.trace)
               for n in names]
    for rep in reports:
        _print_report(rep)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports
                   for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in reports),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

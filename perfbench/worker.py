"""Runs one workload's passes in a fresh interpreter.

Usage: python3 worker.py SPEC.json  (written by run.py).

The first pass warms the process up and writes the outputs that run.py
checks; later passes are timed until the spec's seconds are spent and
must reproduce those outputs byte for byte (compared by hash).  With
tracing on, half of the time goes to untraced passes and half to passes
with the tracer installed, so that the tracing overhead can be measured.
Each pass is bracketed by a calibration loop, and its time is also
given rescaled to a reference CPU speed.  The result (per-step times,
exit codes, hashes, peak RSS and the toolchain) is written as JSON next
to the spec.
"""

import gc
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback


# Seconds the calibration loop takes at the reference CPU speed.  A
# shared 2-vCPU virtual machine flips between speed states about 1.5x
# apart for seconds to minutes at a time, so pass times are also given
# rescaled to this speed (``wall_ref``).
CALIBRATION_REF_S = 0.02


def calibrate():
    """Seconds of a fixed pure-Python loop (best of three): the speed
    of the CPU at the time of a pass."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def _run_pass(cli, steps, out_dir, pass_no, tracer=None):
    os.makedirs(out_dir, exist_ok=True)
    gc.collect()
    speed = calibrate()
    if tracer is not None:
        tracer.pass_no = pass_no
    records = []
    t_pass = time.perf_counter()
    for step in steps:
        argv = [a.replace("{out}", out_dir) for a in step["argv"]]
        times, codes = [], []
        for _ in range(step["repeat"]):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = None
            times.append(time.perf_counter() - t0)
            codes.append(code)
        records.append({"group": step["group"], "seconds": times,
                        "codes": codes})
    wall = time.perf_counter() - t_pass
    hashes = {}
    for step in steps:
        for name in step["outputs"]:
            path = os.path.join(out_dir, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    speed = 0.5 * (speed + calibrate())
    return {"pass": pass_no, "traced": tracer is not None, "wall": wall,
            "wall_ref": wall * CALIBRATION_REF_S / speed,
            "calibration_s": speed, "steps": records, "hashes": hashes}


def _timed_passes(cli, spec, seconds, first_no, tracer=None, minimum=2):
    passes = []
    t0 = time.perf_counter()
    while len(passes) < minimum or time.perf_counter() - t0 < seconds:
        passes.append(_run_pass(cli, spec["steps"],
                                os.path.join(spec["workdir"], "out"),
                                first_no + len(passes), tracer))
    return passes


def _toolchain():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": vendor,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import coldwave.cli as cli
    src = os.path.join(spec["root"], "src")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"coldwave was imported from {cli.__file__}, "
                         f"not from {src}")
    tracer = None
    passes = [_run_pass(cli, spec["steps"],
                        os.path.join(spec["workdir"], "out0"), 0)]
    seconds = spec["seconds"]
    if spec["trace"]:
        from tracer import Tracer
        passes += _timed_passes(cli, spec, seconds / 2.0, 1)
        tracer = Tracer()
        tracer.install()
        passes += _timed_passes(cli, spec, seconds / 2.0, len(passes),
                                tracer)
        tracer.write(os.path.join(spec["workdir"], "spans.jsonl"),
                     spec["workload"])
    else:
        passes += _timed_passes(cli, spec, seconds, 1, minimum=3)
    result = {
        "toolchain": _toolchain(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "passes": passes,
    }
    with open(os.path.join(spec["workdir"], "worker_result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])

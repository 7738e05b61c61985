"""One workload process: timed set-up, timed passes, then output checks.

Started by run.py with the thread and path environment already fixed; prints
its findings as one JSON line. ``--setup-only`` stops after the set-up, so
run.py can sample the set-up time in fresh processes.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here: imports onward

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _blas_info():
    """BLAS name, version and the thread count the loaded library reports."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:  # no /proc: the thread count stays unknown
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def _run_pass(wl, workdir, tracer):
    """Time one pass of the workload's fixed work list."""
    outputs, op_s = [], {}
    ops = wl.ops(workdir)
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for i, (name, fn) in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t_op = time.perf_counter()
        try:
            outputs.append((name, fn(), None))
        except Exception:  # a failed operation is counted, not fatal
            outputs.append((name, None, traceback.format_exc()))
        op_s[name] = time.perf_counter() - t_op
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "cpu_s": _cpu_s() - cpu0, "op_s": op_s}, outputs


def _run_phase(wl, workroot, budget, passes, tracer=None):
    """Run passes until the next one would end after ``budget`` seconds."""
    start = time.perf_counter()
    while True:
        k = len(passes)
        mark = tracer.mark() if tracer is not None else 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            timing, outputs = _run_pass(wl, workroot / f"pass-{k}", tracer)
        timing["traced"] = tracer is not None
        timing["tomography_warnings"] = sum(
            1 for w in caught if w.filename.endswith("tomography.py"))
        if tracer is not None:
            timing["spans"] = (mark, tracer.mark())
        passes.append((timing, outputs))
        elapsed = time.perf_counter() - start
        phase = [t["wall_s"] for t, _ in passes if t["traced"] == (tracer is not None)]
        if elapsed + statistics.median(phase) > budget:
            return


def check_passes(wl, passes, label):
    """Check every output; returns (attempted, failed, largest deviations)."""
    attempted = failed = 0
    deviations = {}
    for _, outputs in passes:
        for name, out, error in outputs:
            attempted += 1
            ok, dev = False, {}
            if error is None:
                try:
                    ok, dev = wl.check(name, out)
                except Exception:  # an unreadable output fails its check
                    error = traceback.format_exc()
                for key, value in dev.items():
                    deviations[key] = max(deviations.get(key, 0.0), value)
            if not ok:
                failed += 1
                print(f"FAILED {label}/{name}: {error or dev}", file=sys.stderr)
    return attempted, failed, deviations


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import numpy as np
    import scipy

    from phonon_lab import circuit, cli, lindblad, saw, tomography

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    wl.prepare()

    workroot = Path(args.workdir)
    passes = []
    try:
        if args.trace:
            import tracer as tr

            _run_phase(wl, workroot, args.seconds / 2, passes)
            tracer = tr.Tracer()
            tracer.install([saw, circuit, lindblad, tomography, cli])
            try:
                _run_phase(wl, workroot, args.seconds / 2, passes, tracer)
            finally:
                tracer.uninstall()
        else:
            _run_phase(wl, workroot, args.seconds, passes)
        # the high-water mark of set-up plus timed passes, before the checks
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        wl.references()
        attempted, failed, deviations = check_passes(wl, passes, args.workload)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    result = {
        "setup_s": setup_s,
        "passes": [t for t, _ in passes],
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
        "deviations": deviations,
        "environment": {
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": _blas_info(),
        },
    }
    if args.trace:
        traced = [t for t in result["passes"] if t["traced"]]
        layers = [tr.layer_metrics(tracer.spans[slice(*t["spans"])]) for t in traced]
        result["layers"] = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        result["layers"]["tomography.warnings"] = statistics.median(
            t["tomography_warnings"] for t in traced)
        tracer.dump(workroot.parent / f"spans-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

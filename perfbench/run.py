"""phonon-lab benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload dynamics --seed 1 --seconds 20 --trace 0

Workloads: device-chain, dynamics, wigner, reanalysis (see workloads.py for
what each does and why it was chosen). The workload runs in one child
process with one BLAS thread and one job; it times passes of a fixed work
list for ``--seconds`` and checks every output. Four more fresh processes
repeat only the set-up, and ``setup_s`` is the median of the five.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` the same time is split between untraced and traced passes and
the result holds the per-layer metrics. The last line of standard output is
the result; the line before it records the environment. Spans and the full
result are written to ``.perfbench-out/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("device-chain", "dynamics", "wigner", "reanalysis")
SETUP_SAMPLES = 5
DEADLINE_S = 160.0


def _git_commit(root):
    """Commit id of the checkout; None outside a clone or without git."""
    try:
        # the ceiling stops git from reporting a repository that holds root
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _child(args, env, timeout):
    proc = subprocess.run(args, env=env, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started = time.perf_counter()
    root = Path.cwd()
    src = root / "src"
    if not (src / "phonon_lab" / "__init__.py").is_file():
        print("perfbench: run from the phonon-lab repository root (src/phonon_lab missing)",
              file=sys.stderr)
        return 2
    out_dir = root / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)

    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.pathsep.join([str(src), str(HERE)]),
        "PYTHONDONTWRITEBYTECODE": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PHONON_LAB_JOBS": "1",
    })
    base = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--workdir", str(out_dir / f"work-{os.getpid()}")]
    try:
        run = _child(base, env, DEADLINE_S)
        setups = [run["setup_s"]]
        for _ in range(SETUP_SAMPLES - 1):
            remaining = DEADLINE_S - (time.perf_counter() - started)
            setups.append(_child(base + ["--setup-only"], env, remaining)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    untraced = [p for p in run["passes"] if not p["traced"]]
    attempted, failed = run["attempted"], run["failed"]
    if args.trace:
        traced = [p for p in run["passes"] if p["traced"]]
        values = dict(run["layers"])
        values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - statistics.median(p["wall_s"] for p in untraced))
        values["lindblad.max_abs_err"] = run["deviations"].get("lindblad_abs_err", 0.0)
        values["tomography.fit.max_abs_err"] = run["deviations"].get("fit_abs_err", 0.0)
        values["tomography.fidelity.abs_dev"] = run["deviations"].get("fidelity_abs_dev", 0.0)
        values["failed_frac"] = failed / attempted
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": run["peak_rss_mb"],
            "passed_frac": (attempted - failed) / attempted,
        }
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": _git_commit(root),
        **run["environment"],
        "passes": len(run["passes"]),
        "setup_samples_s": setups,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"environment": environment, "passes": run["passes"],
              "deviations": run["deviations"], "result": result}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1))
    print(json.dumps({"environment": environment}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

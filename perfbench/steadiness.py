"""Run the benchmark repeatedly and report the spread of each metric.

Run from the repository root:

    python3 perfbench/steadiness.py --workloads dynamics wigner --seeds 1-10

Each run uses another seed. For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile range as a share of the median, next to the metric's bound
from BENCHMARK.json. Runs are sequential, so they do not compete for cores.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    args = ap.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: check failed\n{proc.stderr}", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": spread,
                          "bound": bounds[name], "values": vals}
            print(f"  {name:12s} median {med:.4g}  q1 {q1:.4g}  q3 {q3:.4g}  "
                  f"iqr/median {spread:.4f}  bound {bounds[name]}")
        report[workload] = rows
    out = HERE.parent / ".perfbench-out" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))


if __name__ == "__main__":
    sys.exit(main())

"""Compare two checkouts on one qbench workload and write a BENCH_*.json.

    python3 tools/bench_pairs.py BASE CHANGE --workload train --output BENCH_train.json

BASE and CHANGE are two checkouts of this repository (for example a
``git archive`` of the parent commit and the working tree).  Each pair runs
``qbench/run.py --trace 0`` once in each checkout with the same seed and
run length (BENCHMARK.json's ``run_seconds`` unless ``--seconds`` is
given), the two sides taking turns to go first.  The output holds, for every
end-to-end metric that BENCHMARK.json lists, both sides' median and
quartiles, every run's value and the number of pairs in which CHANGE was
better.  It also holds every run's solver work per solve (the report's
``counts``), so equal checks per solve on both sides show up as equal
numbers.  Launches and script bytes per solve come from the stand-in's
log, one record per process written when its input ends, so they leave
out every process still running when the run reports: a checkout whose
solves leave their process parked for the next solve reads 0 there.
Next to them go every run's raw seconds
(the report's ``op_s.p50``, ``reference_task_s.p50`` and
``host_cpu_s.per_op``) with each side's medians, so a change in ``op_ref``
can be split into the operation's part and the reference task's part.
Then one ``--trace 1`` run per side gives
the per-layer rows named by ``--layers``, in seconds and, for timings, also
in units of that run's reference task (``*_ref``).  Runs go one at a
time, so the two sides never compete for the CPU.  Last, one line on
standard error per end-to-end metric gives the verdict: each side's median
and the pairs CHANGE won.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

DEFAULT_LAYERS = "augment.refine_s,regressor.fit_s,regressor.predict_s,regressor.tree_nodes"
# The report's raw timings in seconds, the parts of op_ref and cpu_ref.
RAW_SECONDS = ("op_s.p50", "reference_task_s.p50", "host_cpu_s.per_op")


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last two JSON lines of one benchmark run: its report and result."""
    cmd = [sys.executable, "qbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    report, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    return {**result, "report": report["report"]}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def raw_seconds(side_runs: list[dict]) -> dict:
    """Each RAW_SECONDS row of one side: every run's value and their median."""
    rows = {}
    for name in RAW_SECONDS:
        values = [r["report"]["seconds"][name] for r in side_runs]
        rows[name] = {"median": statistics.median(values), "runs": values}
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, help="run length (default: run_seconds)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--layers", default=DEFAULT_LAYERS,
                        help="comma-separated per-layer rows to record from one"
                        " --trace 1 run per side; empty for none")
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    sides = {"base": args.base, "change": args.change}

    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for i in range(args.pairs):
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        for side in order:
            runs[side].append(run(sides[side], args.workload, args.seed + i, args.seconds, 0))
            print(f"pair {i + 1}/{args.pairs} {side}: "
                  f"{runs[side][-1]['metrics']['op_ref.p50']['value']:.3f} op_ref.p50",
                  file=sys.stderr)

    end_to_end = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in sides}
        wins = sum((c < b) if lower else (c > b)
                   for b, c in zip(values["base"], values["change"]))
        end_to_end[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "base": summary(values["base"]),
            "change": summary(values["change"]),
            "change_better_pairs": wins,
            "runs": values,
        }

    layers = [name for name in args.layers.split(",") if name]
    traced = {side: run(path, args.workload, args.seed, args.seconds, 1)
              for side, path in sides.items()} if layers else {}
    # A traced run's rows are seconds, which drift with the host's speed;
    # dividing by its reference task's time, as op_ref does, cancels most
    # of that drift.
    ref = {side: result["report"]["seconds"]["reference_task_s.p50"]
           for side, result in traced.items()}
    per_layer = {}
    for name in layers:
        unit = traced["change"]["metrics"][name]["unit"]
        row = per_layer[name] = {"unit": unit}
        for side in sides:
            value = row[side] = traced[side]["metrics"][name]["value"]
            if unit.split("/")[0] == "s":
                row[f"{side}_ref"] = value / ref[side]
    report = traced["change"]["report"] if traced else runs["change"][-1]["report"]
    solver = report.get("real_solver", f"unavailable: the {args.workload} workload runs no solver")

    doc = {
        "workload": args.workload,
        "command": f"python3 qbench/run.py --workload {args.workload} --seconds {args.seconds}",
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "pairs": args.pairs,
        "seeds": [args.seed, args.seed + args.pairs - 1],
        "all_correct": all(r["correct"] for side in sides for r in runs[side]),
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in sides},
        "end_to_end": end_to_end,
        "counts": {side: [r["report"].get("counts", {}) for r in runs[side]] for side in sides},
        "seconds": {side: raw_seconds(runs[side]) for side in sides},
        "per_layer": {"seed": args.seed, "reference_task_s": ref, "rows": per_layer},
        "solver_rows": solver,
    }
    args.output.write_text(json.dumps(doc, indent=2) + "\n")
    for name, row in end_to_end.items():
        print(f"{name}: base {row['base']['median']:.6g} change {row['change']['median']:.6g}"
              f" {row['unit']} (median), change better in {row['change_better_pairs']}"
              f"/{args.pairs} pairs", file=sys.stderr)
    for name in RAW_SECONDS:
        print(f"{name}: base {doc['seconds']['base'][name]['median']:.6g}"
              f" change {doc['seconds']['change'][name]['median']:.6g} s (median)",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

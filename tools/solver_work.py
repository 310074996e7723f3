"""Count the reference solver's work over a fixed list of solves.

    python3 tools/solver_work.py --output before.json --src BASE/src
    python3 tools/solver_work.py --compare before.json --output BENCH_solver_work.json

Each instance is CIRCUIT@DEVICE, a bundled circuit and a device spec (by
default the list in ``INSTANCES``).  Each one is solved by
``qlayout.search.solve_optimal``, unseeded, with ``tests/refsolver.py
--stats`` as the solver, so each check's conflicts, decisions and
propagations (literals taken off the trail) and the clauses and variables
it searched over line up with its check record: phase, bound, verdict,
grid shape and bytes sent.  ``--src`` picks the ``qlayout`` source tree
measured (default: this checkout's); the reference solver is always this
checkout's.

The reference solver is deterministic, so the output repeats byte for byte
from run to run, and one run per side decides a comparison.  Wall seconds
do not repeat: they go to standard error only, labelled ``refsolver``.
``--compare`` takes an earlier output as the base side and adds whether
the optima agree, the totals of both sides, every check whose conflicts
rose, every check whose search work changed at all, every check whose bytes
sent changed and every base check that the change no longer runs (see
:func:`compare`).  An encoding that sends the same clauses in other words
shows an empty ``work_changed``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFSOLVER = ROOT / "tests" / "refsolver.py"
INSTANCES = (
    "bv_n5@line:5", "wstate_n3@ring:5", "wstate_n3@line:5", "teleport_n3@grid:2x3",
    "teleport_n3@line:5", "qft_n3@line:5", "qft_n3@ring:5", "ghz_n4@line:5",
    "toffoli_n3@line:5", "fredkin_n3@ring:5", "qft_n4@qx2",
)
SOLVE_TIMEOUT_S = 3600.0
SUMMED = ("bytes_sent", "conflicts", "decisions", "propagations")
SHAPE = ("phase", "bound", "sat", "horizon", "time_bits")
WORK = ("conflicts", "decisions", "propagations", "clauses", "variables")


def measure(spec: str) -> dict:
    """Optima and one row per check of one unseeded solve."""
    from qlayout.arch import resolve_graph
    from qlayout.backend import SolverConfig
    from qlayout.corpus import load_bundled
    from qlayout.search import solve_optimal

    circuit, device = spec.split("@")
    with tempfile.TemporaryDirectory() as tmp:
        stats = Path(tmp) / "stats.jsonl"
        solver = SolverConfig((sys.executable, str(REFSOLVER), "--stats", str(stats)),
                              SOLVE_TIMEOUT_S)
        started = time.perf_counter()
        result = solve_optimal(load_bundled(circuit), resolve_graph(device), solver=solver)
        seconds = time.perf_counter() - started
        lines = stats.read_text().splitlines() if stats.exists() else []
        work = [json.loads(line) for line in lines]
    if len(work) != len(result.checks):
        raise RuntimeError(f"{spec}: {len(work)} solver records for {len(result.checks)} checks")
    checks = [{**{key: getattr(record, key) for key in (*SHAPE, "bytes_sent")}, **counts}
              for record, counts in zip(result.checks, work)]
    totals = {key: sum(check[key] for check in checks) for key in SUMMED}
    print(f"{spec}: optimum ({result.optimal_depth}, {result.optimal_swaps}) in"
          f" {len(checks)} checks, {totals['conflicts']} conflicts,"
          f" {seconds:.1f} s refsolver", file=sys.stderr)
    return {"optimal_depth": result.optimal_depth, "optimal_swaps": result.optimal_swaps,
            "totals": totals, "checks": checks}


def compare(base: dict, change: dict) -> dict:
    """Optima agreement, both sides' totals and every check, matched across
    the sides by phase, bound and grid shape, whose conflicts rose, whose
    ``WORK`` counts differ (with both values of each) or whose ``bytes_sent``
    changed, plus every base check with no match on the change side, with its
    conflicts.  A swap phase starts from the swap count of the model the
    solver found, so its checks need not match one for one."""
    optima_equal, unmatched, rose, changed, resized, dropped = True, 0, [], [], [], []
    for spec, new in change["results"].items():
        old = base["results"][spec]
        optima_equal &= all(old[key] == new[key] for key in ("optimal_depth", "optimal_swaps"))
        before = {tuple(c[key] for key in SHAPE): c for c in old["checks"]}
        after = {tuple(c[key] for key in SHAPE) for c in new["checks"]}
        dropped += [{"instance": spec, **dict(zip(SHAPE, shape)), "conflicts": c["conflicts"]}
                    for shape, c in before.items() if shape not in after]
        for c in new["checks"]:
            b = before.get(tuple(c[key] for key in SHAPE))
            if b is None:
                unmatched += 1
                continue
            row = {"instance": spec, **{key: c[key] for key in SHAPE}}
            if c["conflicts"] > b["conflicts"]:
                rose.append({**row, "conflicts": [b["conflicts"], c["conflicts"]]})
            if any(c[key] != b[key] for key in WORK):
                changed.append({**row, **{key: [b[key], c[key]] for key in WORK}})
            if c["bytes_sent"] != b["bytes_sent"]:
                resized.append({**row, "bytes_sent": [b["bytes_sent"], c["bytes_sent"]]})
    return {"optima_equal": optima_equal,
            "totals": {key: [base["totals"][key], change["totals"][key]] for key in SUMMED},
            "unmatched_checks": unmatched,
            "more_conflicts": rose,
            "work_changed": changed,
            "bytes_changed": resized,
            "dropped_checks": dropped}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("instances", nargs="*", default=list(INSTANCES),
                        help="CIRCUIT@DEVICE (default: the fixed list)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the qlayout source tree to measure (default: this checkout's)")
    parser.add_argument("--compare", type=Path,
                        help="an earlier output without --compare, taken as the base side")
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args(argv)
    base = json.loads(args.compare.read_text()) if args.compare else None
    if base and base["instances"] != args.instances:
        parser.error(f"{args.compare} measured other instances")
    sys.path.insert(0, str(args.src.resolve()))

    results = {spec: measure(spec) for spec in args.instances}
    side = {"results": results,
            "totals": {key: sum(r["totals"][key] for r in results.values()) for key in SUMMED}}
    doc = {"solver": "tests/refsolver.py --stats", "instances": args.instances}
    if base:
        base = {key: base[key] for key in side}
        doc.update(base=base, change=side, comparison=compare(base, side))
    else:
        doc.update(side)
    args.output.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands: ``map`` (optimally lay out one circuit), ``features`` (print
the six-feature description), ``augment`` (build a labeled corpus),
``train`` (fit a regression tree), ``predict`` (query trained models),
``validate`` (replay-check a solution file), and ``bench`` (compare
predictor-seeded and unseeded searches).

Exit codes: 0 success, 1 usage error, 2 input error, 3 solver error (a
failed launch or exit, a spent ``--timeout``, ``unknown`` or an error, a
refuted bound known satisfiable, or a model that leaves out a value or puts
two qubits on one physical qubit or off the device), 4 validation failure,
5 no layout exists (the circuit does not fit the device's components).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import json
import sys
from pathlib import Path

from . import __version__
from .arch import GraphError, resolve_graph
from .augment import (
    DEFAULT_KMAX,
    ChunkPlan,
    build_corpus,
    load_dataset,
)
from .backend import (DEFAULT_TIMEOUT, MappingSolution, SolverConfig, render_circuit,
                      validate_solution)
from .circuit import QasmError, emit_qasm, load_qasm
from .encode import DEFAULT_SWAP_DURATION
from .features import FEATURE_NAMES, extract_features
from .regressor import DEFAULT_MAX_DEPTH, RegressionTree, fit
from .search import InfeasibleError, SearchError, solve_optimal

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_VALIDATION = 4
EXIT_INFEASIBLE = 5


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        return value

    return integer


def _seconds(text: str) -> float:
    """An argparse type: a number of seconds above 0 (``inf`` included)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not value > 0:               # also refuses nan
        raise argparse.ArgumentTypeError(f"must be above 0, not {text}")
    return value


def _budget_list(text: str) -> tuple[int, ...]:
    """An argparse type: comma-separated integers of at least 1, blank fields
    skipped, and at least one of them."""
    try:
        budgets = tuple(_at_least(1)(field) for field in text.split(",") if field.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}") from None
    if not budgets:
        raise argparse.ArgumentTypeError("no budget given")
    return budgets


def _add_solver_args(p: argparse.ArgumentParser):
    p.add_argument("--solver", help="solver command reading SMT-LIB2 on stdin"
                   " (default: $QLAYOUT_SOLVER or 'z3 -in')")
    p.add_argument("--timeout", type=_seconds, default=DEFAULT_TIMEOUT,
                   help="wall-clock seconds per solve, all of its checks together"
                   " (above 0)")
    p.add_argument("--swap-duration", type=_at_least(1), default=DEFAULT_SWAP_DURATION,
                   help="time steps one swap occupies (default 3)")


def build_parser() -> _Parser:
    parser = _Parser(prog="qlayout", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qlayout {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("map", help="optimally map a circuit onto a device")
    p.add_argument("circuit", help="OpenQASM 2.0 file")
    p.add_argument("--arch", required=True,
                   help="qx2 | line:N | ring:N | grid:RxC | graph JSON path")
    p.add_argument("--depth-model", help="trained depth-model JSON")
    p.add_argument("--swap-model", help="trained swap-model JSON")
    p.add_argument("--output", help="write the mapped circuit here (QASM)")
    p.add_argument("--telemetry", help="write search telemetry + solution JSON here")
    p.add_argument("--keep-swap-opcode", action="store_true",
                   help="emit swap gates instead of their three-CNOT expansion")
    _add_solver_args(p)

    p = sub.add_parser("features", help="print the six-feature description")
    p.add_argument("circuit")
    p.add_argument("--output", help="write the feature JSON here")

    p = sub.add_parser("augment", help="chunk, label, and refine a training corpus")
    p.add_argument("inputs", nargs="+", help="OpenQASM 2.0 seed files")
    p.add_argument("--arch", required=True)
    p.add_argument("--out", required=True, help="corpus output directory")
    p.add_argument("--b-list", type=_budget_list, required=True,
                   help="comma-separated chunk-size budgets, cycled (e.g. 3,5,7)")
    p.add_argument("--two-qubit-only", action="store_true",
                   help="drop single-qubit gates before chunking")
    p.add_argument("--kmax", type=_at_least(1), default=DEFAULT_KMAX,
                   help="nearest-neighbor refinement rounds (default 3)")
    p.add_argument("--no-refine", action="store_true",
                   help="skip nearest-neighbor refinement")
    p.add_argument("--timeout-per-sample", type=_seconds, default=DEFAULT_TIMEOUT,
                   help="wall-clock seconds per sample, all of its checks together"
                   " (above 0), though one solver process labels many samples")
    p.add_argument("--jobs", type=_at_least(1), default=1,
                   help="parallel labeling workers, one solver process each")
    p.add_argument("--solver")
    p.add_argument("--swap-duration", type=_at_least(1), default=DEFAULT_SWAP_DURATION)

    p = sub.add_parser("train", help="fit a regression tree on a dataset CSV")
    p.add_argument("dataset", help="CSV produced by augment")
    p.add_argument("--target", choices=("depth", "swaps"), required=True)
    p.add_argument("--max-depth", type=_at_least(0), default=DEFAULT_MAX_DEPTH)
    p.add_argument("--output", required=True, help="model JSON path")

    p = sub.add_parser("predict", help="query trained models for a circuit")
    p.add_argument("circuit")
    p.add_argument("--depth-model")
    p.add_argument("--swap-model")

    p = sub.add_parser("validate", help="replay-check a solution file")
    p.add_argument("circuit")
    p.add_argument("--arch", required=True)
    p.add_argument("--solution", required=True,
                   help="telemetry JSON from `map` (or a bare solution object)")
    p.add_argument("--swap-duration", type=_at_least(1), default=DEFAULT_SWAP_DURATION)

    p = sub.add_parser("bench", help="compare seeded vs unseeded search telemetry")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--arch", required=True)
    p.add_argument("--depth-model", required=True)
    p.add_argument("--swap-model", required=True)
    p.add_argument("--output", help="write the per-circuit table as CSV here")
    p.add_argument("--jobs", type=_at_least(1), default=1)
    _add_solver_args(p)

    return parser


def _solver_config(args) -> SolverConfig:
    return SolverConfig.resolve(args.solver, timeout=args.timeout)


def _load_model(path: str | None, role: str):
    """The ``role`` model at ``path``, if any; any other model is bad input."""
    if not path:
        return None
    model = RegressionTree.load(path)
    if model.target != role:
        raise ValueError(f"{path}: a {model.target!r} model, not a {role!r} model")
    if model.feature_names != FEATURE_NAMES:
        raise ValueError(f"{path}: model features {list(model.feature_names)}"
                         f" are not {list(FEATURE_NAMES)}")
    return model


def _cmd_map(args) -> int:
    circuit = load_qasm(args.circuit)
    graph = resolve_graph(args.arch)
    result = solve_optimal(
        circuit,
        graph,
        depth_model=_load_model(args.depth_model, "depth"),
        swap_model=_load_model(args.swap_model, "swaps"),
        solver=_solver_config(args),
        swap_duration=args.swap_duration,
    )
    report = validate_solution(circuit, graph, result.solution, args.swap_duration)
    doc = result.telemetry()
    doc["solution"] = result.solution.to_dict()
    doc["validation"] = report.to_dict()
    if args.telemetry:
        Path(args.telemetry).write_text(json.dumps(doc, indent=2) + "\n")
    if args.output:
        mapped = (render_circuit(circuit, graph, result.solution, keep_swap_opcode=True)
                  if args.keep_swap_opcode else result.solution.mapped_circuit)
        Path(args.output).write_text(emit_qasm(mapped))
    print(json.dumps(
        {k: doc[k] for k in ("optimal_depth", "optimal_swaps",
                             "depth_checks", "swap_checks")},
        indent=2,
    ))
    if not report.ok:
        print(f"validation FAILED: {report.first.kind}: {report.first.message}",
              file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _cmd_features(args) -> int:
    circuit = load_qasm(args.circuit)
    text = extract_features(circuit).to_json()
    if args.output:
        Path(args.output).write_text(text + "\n")
    print(text)
    return EXIT_OK


def _cmd_augment(args) -> int:
    plan = ChunkPlan(budgets=args.b_list, two_qubit_only=args.two_qubit_only)
    inputs = [(path, load_qasm(path)) for path in args.inputs]
    graph = resolve_graph(args.arch)
    solver = SolverConfig.resolve(args.solver, timeout=args.timeout_per_sample)
    depth_ds, swap_ds = build_corpus(
        inputs,
        [plan],
        graph,
        args.out,
        kmax=args.kmax,
        refine=not args.no_refine,
        jobs=args.jobs,
        solver=solver,
        swap_duration=args.swap_duration,
    )
    print(f"labeled samples: depth={len(depth_ds.samples)} swaps={len(swap_ds.samples)}")
    print(f"datasets: {Path(args.out) / 'depth_dataset.csv'},"
          f" {Path(args.out) / 'swaps_dataset.csv'}")
    return EXIT_OK


def _cmd_train(args) -> int:
    dataset = load_dataset(args.dataset, target=args.target)
    tree = fit(
        dataset.rows(), dataset.labels(), target=args.target, max_depth=args.max_depth
    )
    tree.save(args.output)
    importances = dict(zip(tree.feature_names, tree.feature_importance()))
    print(json.dumps({"model": args.output, "samples": len(dataset.samples),
                      "importances": importances}, indent=2))
    return EXIT_OK


def _cmd_predict(args) -> int:
    if not args.depth_model and not args.swap_model:
        print("error: pass --depth-model and/or --swap-model", file=sys.stderr)
        return EXIT_USAGE
    features = extract_features(load_qasm(args.circuit))
    out = {}
    if args.depth_model:
        out["depth"] = _load_model(args.depth_model, "depth").predict(features)
    if args.swap_model:
        out["swaps"] = _load_model(args.swap_model, "swaps").predict(features)
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _cmd_validate(args) -> int:
    circuit = load_qasm(args.circuit)
    graph = resolve_graph(args.arch)
    doc = json.loads(Path(args.solution).read_text())
    if isinstance(doc, dict):
        doc = doc.get("solution", doc)
    solution = MappingSolution.from_dict(doc)
    report = validate_solution(circuit, graph, solution, args.swap_duration)
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK if report.ok else EXIT_VALIDATION


def _cmd_bench(args) -> int:
    graph = resolve_graph(args.arch)
    depth_model = _load_model(args.depth_model, "depth")
    swap_model = _load_model(args.swap_model, "swaps")
    solver = _solver_config(args)
    circuits = [(path, load_qasm(path)) for path in args.inputs]

    def run(item):
        path, circuit = item
        seeded = solve_optimal(circuit, graph, depth_model, swap_model,
                               solver=solver, swap_duration=args.swap_duration)
        bare = solve_optimal(circuit, graph, solver=solver,
                             swap_duration=args.swap_duration)
        return path, seeded, bare

    if args.jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
            results = list(pool.map(run, circuits))
    else:
        results = [run(c) for c in circuits]

    header = ["circuit", "depth", "swaps",
              "depth_checks_seeded", "swap_checks_seeded",
              "depth_checks_unseeded", "swap_checks_unseeded",
              "wall_time_seeded", "wall_time_unseeded"]
    rows = []
    mismatched = []
    for path, seeded, bare in results:
        if (seeded.optimal_depth, seeded.optimal_swaps) != (
            bare.optimal_depth, bare.optimal_swaps
        ):
            mismatched.append(path)
        rows.append([
            path, bare.optimal_depth, bare.optimal_swaps,
            seeded.depth_checks, seeded.swap_checks,
            bare.depth_checks, bare.swap_checks,
            round(sum(seeded.wall_time_per_check), 4),
            round(sum(bare.wall_time_per_check), 4),
        ])

    for path in [None] + ([args.output] if args.output else []):
        with (open(path, "w", encoding="utf-8", newline="") if path
              else contextlib.nullcontext(sys.stdout)) as fh:
            csv.writer(fh).writerows([header, *rows])
    seeded_total = sum(r[3] + r[4] for r in rows)
    bare_total = sum(r[5] + r[6] for r in rows)
    print(f"total checks: seeded={seeded_total} unseeded={bare_total}", file=sys.stderr)
    if mismatched:
        print(f"error: optima changed under seeding for {mismatched}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


_COMMANDS = {
    "map": _cmd_map,
    "features": _cmd_features,
    "augment": _cmd_augment,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "validate": _cmd_validate,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (QasmError, GraphError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SearchError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: bad input: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark's own parts: the stand-in solver and its witnesses.

Run from the repository root with ``python3 -m pytest qbench -q``.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import reference  # noqa: E402
import standin  # noqa: E402
from qlayout.arch import line_graph, qx2  # noqa: E402
from qlayout.backend import (  # noqa: E402
    SolverConfig,
    SolverOutputError,
    check,
    decode_solution,
    validate_solution,
)
from qlayout.circuit import make_circuit  # noqa: E402
from qlayout.encode import (  # noqa: E402
    bit_length,
    build_context,
    emit_script,
    encode_base,
    encode_depth_bound,
    encode_swap_bound,
)
from qlayout.search import solve_optimal  # noqa: E402

TINY = [
    ("triangle@line:3", make_circuit(3, [("cx", (0, 1)), ("cx", (1, 2)), ("cx", (0, 2))]),
     line_graph(3)),
    ("bell@line:2", make_circuit(2, [("h", (0,)), ("cx", (0, 1))]), line_graph(2)),
    ("star@line:4", make_circuit(4, [("cx", (0, 1)), ("cx", (0, 2)), ("cx", (0, 3))]),
     line_graph(4)),
    ("chain@qx2", make_circuit(3, [("h", (0,)), ("cx", (0, 1)), ("cx", (1, 2)),
                                   ("cx", (2, 0))]), qx2()),
]


def write_pool(tmp_path, witnesses) -> Path:
    path = tmp_path / "pool.txt"
    path.write_text("".join(w.format() + "\n" for w in witnesses))
    return path


def config(pool: Path, log: Path | None = None) -> SolverConfig:
    command = [sys.executable, str(HERE / "standin.py"), str(pool)]
    if log is not None:
        command += ["--log", str(log)]
    return SolverConfig(command=tuple(command), timeout=60)


def script_at(circuit, graph, depth, swaps=None) -> tuple[object, str]:
    ctx = build_context(circuit, graph, depth + 4, bit_length(depth))
    fragments = [encode_base(ctx), encode_depth_bound(ctx, depth)]
    if swaps is not None:
        fragments.append(encode_swap_bound(ctx, swaps))
    return ctx, emit_script(ctx, fragments)


@pytest.mark.parametrize("key,circuit,graph", TINY, ids=[t[0] for t in TINY])
def test_verdicts_agree_with_exhaustive_reference(tmp_path, key, circuit, graph):
    schedule = reference.exhaustive_schedule(circuit, graph)
    pool = write_pool(tmp_path, [reference.to_witness(key, schedule, graph)])
    cfg = config(pool)
    d_opt, s_opt = schedule.depth, schedule.swap_count
    for depth in range(1, d_opt + 3):
        ctx, script = script_at(circuit, graph, depth)
        result = check(script, cfg)
        assert result.sat == (depth >= d_opt), depth
        if result.sat:
            solution = decode_solution(result.values, ctx)
            assert validate_solution(circuit, graph, solution).ok
            assert solution.final_depth <= depth
    for swaps in range(0, s_opt + 2):
        _, script = script_at(circuit, graph, d_opt, swaps)
        assert check(script, cfg).sat == (swaps >= s_opt), swaps
    result = solve_optimal(circuit, graph, solver=cfg)
    assert (result.optimal_depth, result.optimal_swaps) == (d_opt, s_opt)
    assert validate_solution(circuit, graph, result.solution).ok


def test_settled_schedule_matches_the_test_oracle():
    sys.path.insert(0, str(ROOT))
    from tests import oracles

    for _, circuit, graph in TINY:
        schedule = reference.settled_schedule(circuit, graph)
        assert (schedule.depth, schedule.swap_count) == oracles.brute_force_optimum(
            circuit, graph
        )


def test_pool_lines_round_trip():
    _, circuit, graph = TINY[0]
    witness = reference.to_witness("k", reference.exhaustive_schedule(circuit, graph), graph)
    again = standin.Witness.parse(witness.format())
    assert again.format() == witness.format()
    assert (again.pos, again.time, again.swaps) == (witness.pos, witness.time, witness.swaps)


def run_standin(pool: Path, text: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "standin.py"), str(pool)],
        input=text, capture_output=True, text=True, timeout=60, check=True,
    )
    return proc.stdout.splitlines()


@pytest.fixture
def small_pool(tmp_path) -> Path:
    witness = standin.Witness("w", 2, 1, [[2, 0], [1, 0]], [0, 1], [(0, 0)])
    return write_pool(tmp_path, [witness])


def test_session_commands(small_pool):
    replies = run_standin(small_pool, """
        (set-logic QF_BV)
        (declare-const pos_q0_t0 (_ BitVec 2))
        (declare-const swp_e0_t0 Bool)
        (declare-fun time_g1 () (_ BitVec 2))
        (define-fun moved () Bool (and swp_e0_t0 (= pos_q0_t0 #b10)))
        (push 1)
        (assert (bvult pos_q0_t0 #b01))
        (check-sat)
        (pop 1)
        (check-sat-assuming (moved (not swp_e0_t0)))
        (check-sat-assuming (moved))
        (get-value (pos_q0_t0 moved (bvadd time_g1 #b11) ((_ extract 1 1) pos_q0_t0)))
        (get-value (time_g1))
    """)
    assert replies == [
        "unsat",
        "unsat",
        "sat",
        "((pos_q0_t0 #b10) (moved true) ((bvadd time_g1 #b11) #b00)"
        " (((_ extract 1 1) pos_q0_t0) #b1))",
        "((time_g1 #b01))",
    ]


def test_unknown_operator_is_an_error_not_a_guess(small_pool):
    replies = run_standin(small_pool, """
        (declare-const pos_q0_t0 (_ BitVec 2))
        (declare-const other (_ BitVec 2))
        (assert (bvsdiv pos_q0_t0 #b01))
        (assert (= other #b01))
        (check-sat)
    """)
    assert replies[0].startswith("(error") and "bvsdiv" in replies[0]
    assert replies[1].startswith("(error") and "other" in replies[1]
    assert replies[2].startswith("(error")


def test_ill_sorted_terms_are_errors(small_pool):
    replies = run_standin(small_pool, """
        (declare-const pos_q0_t0 (_ BitVec 2))
        (assert (= pos_q0_t0 #b010))
    """)
    assert replies[0].startswith("(error") and "ill-sorted" in replies[0]


def test_error_replies_surface_as_solver_failures(small_pool):
    script = "(declare-const x (_ BitVec 2))\n(assert (= x #b01))\n(check-sat)\n"
    with pytest.raises(SolverOutputError):
        check(script, config(small_pool))


def test_replies_arrive_before_input_ends(small_pool):
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "standin.py"), str(small_pool)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        proc.stdin.write("(declare-const swp_e0_t0 Bool)\n(check-sat)\n")
        proc.stdin.flush()
        assert proc.stdout.readline().strip() == "sat"
        proc.stdin.write("(get-value (swp_e0_t0))\n")
        proc.stdin.flush()
        assert proc.stdout.readline().strip() == "((swp_e0_t0 true))"
    finally:
        proc.stdin.close()
        proc.wait(timeout=30)
    assert proc.returncode == 0


def test_log_records_one_line_per_launch(tmp_path, small_pool):
    log = tmp_path / "log.jsonl"
    script = "(declare-const swp_e0_t0 Bool)\n(assert swp_e0_t0)\n(check-sat)\n"
    for _ in range(2):
        assert check(script, config(small_pool, log)).sat
    import json

    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(records) == 2
    assert all(r["checks"] == 1 and r["sat"] == 1 and r["asserts"] == 1 for r in records)


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "qbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "qbench/run.py", "--workload", "map", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

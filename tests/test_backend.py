"""Solver subprocess driver, model decoding, and the solution validator."""

import dataclasses
import math
import stat

import pytest

from qlayout.arch import line_graph, qx2
from qlayout.backend import (
    DEFAULT_SOLVER_COMMAND,
    SOLVER_ENV_VAR,
    CheckResult,
    DecodeError,
    MappingSolution,
    SolverConfig,
    SolverExitError,
    SolverOutputError,
    SolverTimeoutError,
    _parse_literal,
    _VALUE_RE,
    check,
    decode_solution,
    model_swaps,
    replay,
    validate_solution,
    VIOLATION_KINDS,
)
from qlayout.circuit import make_circuit
from qlayout.encode import build_context

# --------------------------------------------------------------------------
# Literal and output parsing
# --------------------------------------------------------------------------


def test_parse_literal_forms():
    assert _parse_literal("#b0110") == 6
    assert _parse_literal("#x1f") == 31
    assert _parse_literal("#xAB") == 171
    assert _parse_literal("true") is True
    assert _parse_literal("false") is False


def test_value_regex_tolerates_whitespace():
    out = "sat\n((pos_q0_t0 #b010))\n(( swp_e1_t3   true ))\n((time_g0 #x0a))\n"
    found = dict(_VALUE_RE.findall(out))
    assert found == {"pos_q0_t0": "#b010", "swp_e1_t3": "true", "time_g0": "#x0a"}


def test_solver_config_resolution_priority(monkeypatch):
    monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)
    assert SolverConfig.resolve().command == tuple(DEFAULT_SOLVER_COMMAND.split())
    monkeypatch.setenv(SOLVER_ENV_VAR, "mysolver --model")
    assert SolverConfig.resolve().command == ("mysolver", "--model")
    assert SolverConfig.resolve("other -in").command == ("other", "-in")
    assert SolverConfig.resolve(timeout=12.0).timeout == 12.0


# --------------------------------------------------------------------------
# Subprocess checks
# --------------------------------------------------------------------------


def test_check_sat_returns_model_values(small_solver):
    script = (
        "(set-option :produce-models true)\n(set-logic QF_BV)\n"
        "(declare-const x (_ BitVec 3))\n(declare-const b Bool)\n"
        "(assert (= x #b101))\n(assert b)\n(check-sat)\n"
        "(get-value (x))\n(get-value (b))\n"
    )
    result = check(script, small_solver)
    assert result.sat
    assert result.values == {"x": 5, "b": True}
    assert result.wall_time > 0


def test_check_unsat_has_no_values(small_solver):
    script = (
        "(set-option :produce-models true)\n(set-logic QF_BV)\n"
        "(declare-const x (_ BitVec 2))\n"
        "(assert (= x #b01))\n(assert (= x #b10))\n(check-sat)\n(get-value (x))\n"
    )
    result = check(script, small_solver)
    assert not result.sat
    assert result.values is None


def _script_solver(tmp_path, body: str) -> SolverConfig:
    path = tmp_path / "fakesolver"
    path.write_text(f"#!/bin/sh\n{body}\n")
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return SolverConfig.resolve(str(path))


def test_check_raises_on_nonzero_exit(tmp_path):
    cfg = _script_solver(tmp_path, "exit 3")
    with pytest.raises(SolverExitError):
        check("(check-sat)\n", cfg)


def test_check_raises_on_missing_command():
    with pytest.raises(SolverExitError):
        check("(check-sat)\n", SolverConfig.resolve("/no/such/solver/binary"))


def test_check_raises_on_verdictless_output(tmp_path):
    cfg = _script_solver(tmp_path, "cat > /dev/null; echo hello world")
    with pytest.raises(SolverOutputError):
        check("(check-sat)\n", cfg)


def test_check_raises_on_unknown_verdict(tmp_path):
    cfg = _script_solver(tmp_path, "cat > /dev/null; echo unknown")
    with pytest.raises(SolverOutputError):
        check("(check-sat)\n", cfg)


def test_check_raises_on_timeout(tmp_path):
    cfg = dataclasses.replace(_script_solver(tmp_path, "sleep 30"), timeout=0.3)
    with pytest.raises(SolverTimeoutError):
        check("(check-sat)\n", cfg)


# --------------------------------------------------------------------------
# Map replay and decoding
# --------------------------------------------------------------------------


def _replay_map(initial_map, swaps, upto):
    """The map in effect at step ``upto``, read off ``replay``."""
    for until, current in replay(initial_map, swaps):
        if upto <= until:
            return list(current)


def test_replay_map_applies_completed_swaps_only():
    start = (0, 1, 2)
    swaps = (((0, 1), 2),)
    assert _replay_map(start, swaps, upto=2) == [0, 1, 2]
    assert _replay_map(start, swaps, upto=3) == [1, 0, 2]


def test_replay_map_chains_swaps_in_time_order():
    start = (0, 1)
    swaps = (((1, 2), 5), ((0, 1), 2))
    # after (0,1): q0->1, q1->0; after (1,2): q0->2
    assert _replay_map(start, swaps, upto=9) == [2, 0]


def test_replay_map_moves_occupant_into_empty_spot():
    start = (0,)
    assert _replay_map(start, (((0, 1), 2),), upto=5) == [1]


def test_replay_yields_one_map_per_distinct_swap_time():
    # two swaps complete at t=4 and apply in listed order: (1,2) then (0,1)
    swaps = (((1, 2), 4), ((0, 1), 2), ((0, 1), 4))
    assert list(replay((0, 1, 2), swaps)) == [
        (2, (0, 1, 2)),
        (4, (1, 0, 2)),
        (math.inf, (2, 1, 0)),
    ]
    assert list(replay((0, 1), ())) == [(math.inf, (0, 1))]


def _model_for(ctx, *, pos0, times, true_swaps=()):
    values = {}
    for q in range(ctx.circuit.num_qubits):
        for t in range(ctx.horizon):
            values[ctx.pos_name(q, t)] = pos0[q]
    for e in range(len(ctx.graph.edges)):
        for t in range(ctx.horizon):
            values[ctx.swap_name(e, t)] = (e, t) in true_swaps
    for g, t in enumerate(times):
        values[ctx.time_name(g)] = t
    return values


def test_decode_expands_swaps_and_remaps_later_gates():
    circuit = make_circuit(2, [("cx", (0, 1)), ("h", (0,))])
    graph = line_graph(3)
    ctx = build_context(circuit, graph, horizon=5, time_bits=3)
    edge01 = graph.edges.index((0, 1))
    values = _model_for(ctx, pos0=(0, 1), times=(0, 3), true_swaps={(edge01, 2)})

    sol = decode_solution(values, ctx)
    assert sol.initial_map == (0, 1)
    assert sol.gate_times == (0, 3)
    assert sol.swaps == (((0, 1), 2),)
    assert sol.final_depth == 4
    assert sol.swap_count == 1
    names = [(g.name, g.qubits) for g in sol.mapped_circuit.gates]
    assert names == [
        ("cx", (0, 1)),
        ("cx", (0, 1)),
        ("cx", (1, 0)),
        ("cx", (0, 1)),
        ("h", (1,)),                 # q0 sits on phys 1 after the swap
    ]


def test_decode_keep_swap_opcode():
    circuit = make_circuit(2, [("cx", (0, 1))])
    graph = line_graph(3)
    ctx = build_context(circuit, graph, horizon=5, time_bits=3)
    edge12 = graph.edges.index((1, 2))
    values = _model_for(ctx, pos0=(0, 1), times=(0,), true_swaps={(edge12, 4)})
    sol = decode_solution(values, ctx, keep_swap_opcode=True)
    assert [(g.name, g.qubits) for g in sol.mapped_circuit.gates] == [
        ("cx", (0, 1)),
        ("swap", (1, 2)),
    ]


def test_decode_orders_gate_before_swap_at_same_step():
    circuit = make_circuit(2, [("h", (0,))])
    graph = line_graph(2)
    ctx = build_context(circuit, graph, horizon=4, time_bits=2)
    values = _model_for(ctx, pos0=(0, 1), times=(3,), true_swaps={(0, 3)})
    sol = decode_solution(values, ctx)
    assert [g.name for g in sol.mapped_circuit.gates] == ["h", "cx", "cx", "cx"]
    assert sol.mapped_circuit.gates[0].qubits == (0,)   # pre-swap placement


def test_decode_missing_variable_is_an_error():
    circuit = make_circuit(2, [("cx", (0, 1))])
    ctx = build_context(circuit, line_graph(2), horizon=3, time_bits=2)
    values = _model_for(ctx, pos0=(0, 1), times=(0,))
    del values[ctx.time_name(0)]
    with pytest.raises(DecodeError):
        decode_solution(values, ctx)


def test_model_swaps_reads_true_indicators_edge_major():
    circuit = make_circuit(2, [("cx", (0, 1))])
    ctx = build_context(circuit, line_graph(3), horizon=5, time_bits=3)
    values = _model_for(ctx, pos0=(0, 1), times=(0,), true_swaps={(1, 2), (0, 4)})
    assert model_swaps(values, ctx) == (((0, 1), 4), ((1, 2), 2))
    del values[ctx.swap_name(1, 0)]
    with pytest.raises(DecodeError, match="swp_e1_t0"):
        model_swaps(values, ctx)


def test_decode_empty_circuit_has_zero_depth():
    circuit = make_circuit(2, [])
    ctx = build_context(circuit, line_graph(2), horizon=1, time_bits=1)
    sol = decode_solution(_model_for(ctx, pos0=(0, 1), times=()), ctx)
    assert sol.final_depth == 0
    assert sol.mapped_circuit.gates == ()


def test_solution_round_trips_through_dict():
    circuit = make_circuit(2, [("cx", (0, 1))])
    ctx = build_context(circuit, line_graph(3), horizon=5, time_bits=3)
    values = _model_for(ctx, pos0=(1, 2), times=(0,), true_swaps={(0, 4)})
    sol = decode_solution(values, ctx)
    clone = MappingSolution.from_dict(sol.to_dict())
    assert clone.initial_map == sol.initial_map
    assert clone.gate_times == sol.gate_times
    assert clone.swaps == sol.swaps
    assert clone.final_depth == sol.final_depth
    assert clone.swap_count == sol.swap_count


# --------------------------------------------------------------------------
# Validator
# --------------------------------------------------------------------------


def _ok_solution():
    """cx(0,1) at t=0 under the identity placement on line(2)."""
    circuit = make_circuit(2, [("cx", (0, 1))])
    graph = line_graph(2)
    mapped = make_circuit(2, [("cx", (0, 1))])
    sol = MappingSolution(
        initial_map=(0, 1),
        gate_times=(0,),
        swaps=(),
        final_depth=1,
        swap_count=0,
        mapped_circuit=mapped,
    )
    return circuit, graph, sol


def test_validator_accepts_a_correct_solution():
    circuit, graph, sol = _ok_solution()
    report = validate_solution(circuit, graph, sol)
    assert report.ok
    assert report.violations == ()
    assert report.first is None


def test_validator_flags_duplicate_placement():
    circuit, graph, sol = _ok_solution()
    bad = dataclasses.replace(sol, initial_map=(1, 1))
    report = validate_solution(circuit, graph, bad)
    assert not report.ok
    assert report.first.kind == "injectivity"


def test_validator_flags_out_of_range_placement():
    circuit, graph, sol = _ok_solution()
    bad = dataclasses.replace(sol, initial_map=(0, 7))
    report = validate_solution(circuit, graph, bad)
    assert report.first.kind == "injectivity"


def test_validator_flags_short_placement():
    circuit, graph, sol = _ok_solution()
    bad = dataclasses.replace(sol, initial_map=(0,))
    assert validate_solution(circuit, graph, bad).first.kind == "injectivity"


def test_validator_flags_dependency_inversion():
    circuit = make_circuit(2, [("h", (0,)), ("cx", (0, 1))])
    graph = line_graph(2)
    sol = MappingSolution(
        initial_map=(0, 1),
        gate_times=(1, 1),               # cx must strictly follow h
        swaps=(),
        final_depth=2,
        swap_count=0,
        mapped_circuit=make_circuit(2, [("h", (0,)), ("cx", (0, 1))]),
    )
    report = validate_solution(circuit, graph, sol)
    assert report.first.kind == "order"


def test_validator_flags_negative_time():
    circuit, graph, sol = _ok_solution()
    bad = dataclasses.replace(sol, gate_times=(-1,), final_depth=0)
    assert validate_solution(circuit, graph, bad).first.kind == "order"


def test_validator_flags_missing_gate_times():
    circuit, graph, sol = _ok_solution()
    bad = dataclasses.replace(sol, gate_times=())
    report = validate_solution(circuit, graph, bad)
    assert report.first.kind == "totals"
    assert len(report.violations) == 1


def test_validator_flags_swap_on_missing_edge():
    circuit, graph, sol = _ok_solution()
    bad = dataclasses.replace(
        sol, swaps=(((0, 5), 4),), swap_count=1, final_depth=5
    )
    assert validate_solution(circuit, graph, bad).first.kind == "swap_overlap"


def test_validator_flags_swap_too_early_for_its_window():
    circuit, graph, sol = _ok_solution()
    bad = dataclasses.replace(
        sol, gate_times=(4,), swaps=(((0, 1), 1),), swap_count=1, final_depth=5
    )
    assert validate_solution(circuit, graph, bad).first.kind == "swap_overlap"


def test_validator_flags_overlapping_swaps_sharing_a_qubit():
    circuit = make_circuit(2, [("cx", (0, 1))])
    graph = line_graph(3)
    sol = MappingSolution(
        initial_map=(0, 1),
        gate_times=(0,),
        swaps=(((0, 1), 4), ((1, 2), 5)),
        swap_count=2,
        final_depth=6,
        mapped_circuit=make_circuit(3, [("cx", (0, 1))]),
    )
    assert validate_solution(circuit, graph, sol).first.kind == "swap_overlap"


def test_validator_allows_disjoint_parallel_swaps():
    circuit = make_circuit(2, [("cx", (0, 1))])
    graph = line_graph(4)
    sol = MappingSolution(
        initial_map=(0, 1),
        gate_times=(0,),
        swaps=(((0, 1), 4), ((2, 3), 4)),
        swap_count=2,
        final_depth=5,
        mapped_circuit=make_circuit(4, [("cx", (0, 1))]),
    )
    assert validate_solution(circuit, graph, sol).ok


def test_validator_flags_gate_inside_swap_window():
    circuit = make_circuit(2, [("cx", (0, 1)), ("h", (0,))])
    graph = line_graph(3)
    sol = MappingSolution(
        initial_map=(0, 1),
        gate_times=(0, 3),               # h lands inside the (1,2)@4 window
        swaps=(((1, 2), 4),),
        swap_count=1,
        final_depth=5,
        mapped_circuit=make_circuit(3, [("cx", (0, 1)), ("h", (0,))]),
    )
    report = validate_solution(circuit, graph, sol)
    assert report.ok  # h sits on phys 0, untouched by the swap
    busy = dataclasses.replace(sol, gate_times=(3, 0), final_depth=5)
    # now the cx at t=3 touches phys 1 during the swap window [2,4]
    report = validate_solution(circuit, graph, busy)
    assert not report.ok
    assert {v.kind for v in report.violations} <= {"order", "swap_overlap"}
    assert any(v.kind == "swap_overlap" for v in report.violations)


def test_validator_flags_non_adjacent_interaction():
    circuit = make_circuit(2, [("cx", (0, 1))])
    graph = line_graph(3)
    sol = MappingSolution(
        initial_map=(0, 2),              # ends of the line: not an edge
        gate_times=(0,),
        swaps=(),
        swap_count=0,
        final_depth=1,
        mapped_circuit=make_circuit(3, [("cx", (0, 2))]),
    )
    assert validate_solution(circuit, graph, sol).first.kind == "adjacency"


def test_validator_adjacency_uses_the_replayed_map():
    # q0 starts away from q1 but a swap carries it next door before the cx
    circuit = make_circuit(2, [("cx", (0, 1))])
    graph = line_graph(3)
    sol = MappingSolution(
        initial_map=(0, 2),
        gate_times=(3,),
        swaps=(((0, 1), 2),),            # q0: phys 0 -> phys 1 at t=2
        swap_count=1,
        final_depth=4,
        mapped_circuit=make_circuit(3, [("cx", (1, 2))]),
    )
    assert validate_solution(circuit, graph, sol).ok


def test_validator_flags_wrong_reported_depth():
    circuit, graph, sol = _ok_solution()
    bad = dataclasses.replace(sol, final_depth=9)
    assert validate_solution(circuit, graph, bad).first.kind == "totals"


def test_validator_flags_wrong_swap_count():
    circuit, graph, sol = _ok_solution()
    bad = dataclasses.replace(sol, swap_count=2)
    assert validate_solution(circuit, graph, bad).first.kind == "totals"


def test_validator_reports_highest_priority_kind_first():
    # both a non-injective map and a wrong total: injectivity outranks totals
    circuit, graph, sol = _ok_solution()
    bad = dataclasses.replace(sol, initial_map=(0, 0), final_depth=9)
    report = validate_solution(circuit, graph, bad)
    kinds = [v.kind for v in report.violations]
    assert kinds == sorted(kinds, key=VIOLATION_KINDS.index)
    assert report.first.kind == "injectivity"


def test_validation_report_to_dict():
    circuit, graph, sol = _ok_solution()
    bad = dataclasses.replace(sol, swap_count=3)
    doc = validate_solution(circuit, graph, bad).to_dict()
    assert doc["ok"] is False
    assert doc["violations"][0]["kind"] == "totals"
    assert isinstance(doc["violations"][0]["message"], str)


def test_kind_priority_tuple_is_stable():
    assert VIOLATION_KINDS == (
        "injectivity",
        "order",
        "swap_overlap",
        "adjacency",
        "totals",
    )


def test_check_result_is_frozen():
    r = CheckResult(sat=True, values={}, wall_time=0.1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.sat = False
    assert math.isclose(r.wall_time, 0.1)

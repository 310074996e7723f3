"""Circuit IR, QASM subset parser/emitter, dependency DAG, chain metrics."""

import random

import pytest

from qlayout.circuit import (
    Circuit,
    Gate,
    QasmError,
    build_dag,
    emit_qasm,
    gate_depths,
    gate_tails,
    longest_chain,
    make_circuit,
    parse_qasm,
)
from qlayout.corpus import circuit_names, load_bundled

from .conftest import random_circuit
from .oracles import dag_pairwise_oracle, longest_path_oracle

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


# --------------------------------------------------------------------------
# Gate / Circuit construction rules
# --------------------------------------------------------------------------


def test_gate_arity_and_distinct_operands():
    Gate(0, "h", (1,))
    Gate(0, "cx", (0, 1))
    with pytest.raises(ValueError):
        Gate(0, "ccx", (0, 1, 2))
    with pytest.raises(ValueError):
        Gate(0, "cx", (1, 1))


def test_circuit_checks_ids_and_qubit_range():
    with pytest.raises(ValueError):
        Circuit(2, (Gate(1, "h", (0,)),))
    with pytest.raises(ValueError):
        Circuit(1, (Gate(0, "cx", (0, 1)),))


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def test_parse_header_only_is_empty_circuit():
    c = parse_qasm(HEADER + "qreg q[3];\n")
    assert c.num_qubits == 3
    assert c.gates == ()


def test_parse_two_gates_shared_qubit_dependency():
    c = parse_qasm(HEADER + "qreg q[2];\ncx q[0],q[1];\nh q[1];\n")
    assert [g.name for g in c.gates] == ["cx", "h"]
    assert build_dag(c).edges == frozenset({(0, 1)})


def test_parse_flattens_multiple_qregs_in_declaration_order():
    c = parse_qasm(HEADER + "qreg a[2];\nqreg b[1];\ncx a[1],b[0];\n")
    assert c.num_qubits == 3
    assert c.gates[0].qubits == (1, 2)


def test_parse_broadcasts_single_qubit_gate_over_register():
    c = parse_qasm(HEADER + "qreg q[3];\nh q;\n")
    assert [g.qubits for g in c.gates] == [(0,), (1,), (2,)]
    assert all(g.name == "h" for g in c.gates)


def test_parse_keeps_parameters_verbatim():
    c = parse_qasm(HEADER + "qreg q[2];\nrz(pi/4) q[0];\ncu1(0.392699) q[0],q[1];\n")
    assert c.gates[0].params == ("pi/4",)
    assert c.gates[1].params == ("0.392699",)


def test_parse_drops_barrier_measure_and_creg():
    text = (
        HEADER
        + "qreg q[2];\ncreg c[2];\nh q[0];\nbarrier q;\nmeasure q[0] -> c[0];\n"
    )
    c = parse_qasm(text)
    assert [g.name for g in c.gates] == ["h"]


def test_parse_strips_comments():
    c = parse_qasm(HEADER + "qreg q[1]; // trailing\n// whole line\nx q[0];\n")
    assert [g.name for g in c.gates] == ["x"]


def test_parse_missing_header_rejected():
    with pytest.raises(QasmError):
        parse_qasm("qreg q[1];\nh q[0];\n")


def test_parse_wrong_version_rejected():
    with pytest.raises(QasmError):
        parse_qasm('OPENQASM 3.0;\nqreg q[1];\n')


def test_parse_undeclared_register_has_position():
    with pytest.raises(QasmError) as err:
        parse_qasm(HEADER + "qreg q[2];\ncx q[0],r[0];\n")
    assert err.value.line == 4
    assert "undeclared" in str(err.value)
    # 6000 lines of multi-line statements, shared lines and comments first
    filler = "cx q[0],\n  q[1];  h q[0]; // c;\n// only a comment\n" * 2000
    with pytest.raises(QasmError) as err:
        parse_qasm(HEADER + "qreg q[2];\n" + filler + "  h q[1]; cx q[0],r[0];\n")
    assert (err.value.line, err.value.column) == (6004, 22)
    assert "undeclared" in str(err.value)


def test_parse_three_operand_gate_rejected():
    with pytest.raises(QasmError) as err:
        parse_qasm(HEADER + "qreg q[3];\nccx q[0],q[1],q[2];\n")
    assert "1- and 2-qubit" in str(err.value)


def test_parse_repeated_operand_rejected():
    with pytest.raises(QasmError):
        parse_qasm(HEADER + "qreg q[2];\ncx q[0],q[0];\n")


def test_parse_unindexed_two_qubit_operand_rejected():
    with pytest.raises(QasmError):
        parse_qasm(HEADER + "qreg a[2];\nqreg b[2];\ncx a,b;\n")


def test_parse_out_of_range_index_rejected():
    with pytest.raises(QasmError):
        parse_qasm(HEADER + "qreg q[2];\nh q[2];\n")


def test_parse_register_redeclaration_rejected():
    with pytest.raises(QasmError):
        parse_qasm(HEADER + "qreg q[2];\nqreg q[3];\n")


def test_parse_garbage_statement_rejected():
    with pytest.raises(QasmError):
        parse_qasm(HEADER + "qreg q[1];\n!!!;\n")


def test_bundled_gate_count_matches_hand_count():
    # fredkin_n3.qasm: an opening cx, a 15-gate toffoli expansion, a closing
    # cx -- 17 statements by hand count.
    c = load_bundled("fredkin_n3")
    assert len(c.gates) == 17
    assert c.num_qubits == 3


# --------------------------------------------------------------------------
# Emitter and round-trips
# --------------------------------------------------------------------------


def test_emit_empty_circuit_is_header_and_register_only():
    text = emit_qasm(Circuit(num_qubits=2))
    body = [ln for ln in text.splitlines() if ln]
    assert body == ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[2];"]


def test_emit_orders_statements():
    c = make_circuit(2, [("h", (0,)), ("cx", (0, 1))])
    lines = emit_qasm(c).splitlines()
    assert lines[3:] == ["h q[0];", "cx q[0],q[1];"]


@pytest.mark.parametrize("name", circuit_names())
def test_bundled_round_trip(name):
    c = load_bundled(name)
    again = parse_qasm(emit_qasm(c))
    assert again.num_qubits == c.num_qubits
    assert [
        (g.name, g.qubits, g.params) for g in again.gates
    ] == [(g.name, g.qubits, g.params) for g in c.gates]


def test_random_round_trip():
    rng = random.Random(20260816)
    for _ in range(25):
        c = random_circuit(rng)
        again = parse_qasm(emit_qasm(c))
        assert [(g.name, g.qubits, g.params) for g in again.gates] == [
            (g.name, g.qubits, g.params) for g in c.gates
        ]


# --------------------------------------------------------------------------
# DAG and chain lengths
# --------------------------------------------------------------------------


def test_dag_single_gate_empty():
    assert build_dag(make_circuit(2, [("cx", (0, 1))])).edges == frozenset()


def test_dag_immediate_predecessor_only():
    c = make_circuit(3, [("cx", (0, 1)), ("cx", (1, 2)), ("h", (0,))])
    assert build_dag(c).edges == frozenset({(0, 1), (0, 2)})


def test_dag_matches_pairwise_oracle_on_random_circuits():
    rng = random.Random(7)
    for _ in range(40):
        c = random_circuit(rng, max_gates=20)
        assert set(build_dag(c).edges) == dag_pairwise_oracle(c)


def test_dag_edges_respect_program_order():
    rng = random.Random(8)
    for _ in range(20):
        c = random_circuit(rng)
        assert all(i < j for i, j in build_dag(c).edges)


def test_longest_chain_trivial_cases():
    assert longest_chain(Circuit(3)) == 0
    assert longest_chain(make_circuit(1, [("x", (0,))])) == 1
    k = 6
    c = make_circuit(1, [("x", (0,))] * k)
    assert longest_chain(c) == k


def test_longest_chain_matches_exhaustive_dfs():
    rng = random.Random(9)
    for _ in range(30):
        c = random_circuit(rng, max_gates=20)
        assert longest_chain(c) == longest_path_oracle(c)


def test_longest_chain_bounds():
    rng = random.Random(10)
    for _ in range(20):
        c = random_circuit(rng, min_gates=1)
        per_qubit = [0] * c.num_qubits
        for g in c.gates:
            for q in g.qubits:
                per_qubit[q] += 1
        assert max(per_qubit) <= longest_chain(c) <= len(c.gates)


def test_gate_depths_align_with_longest_chain():
    c = load_bundled("toffoli_n3")
    depths = gate_depths(c)
    assert max(depths) == longest_chain(c)
    for (i, j) in build_dag(c).edges:
        assert depths[i] < depths[j]


def test_gate_tails_are_the_longest_dag_paths_after_each_gate():
    assert gate_tails(make_circuit(3, [("h", (0,)), ("cx", (0, 1)), ("x", (2,)),
                                       ("cx", (1, 2)), ("h", (0,))])) == [2, 1, 1, 0, 0]
    rng = random.Random(5)
    for _ in range(20):
        c = random_circuit(rng, min_gates=1)
        edges = build_dag(c).edges
        longest = [0] * len(c.gates)
        for i in reversed(range(len(c.gates))):   # DAG edges run forward in gate order
            longest[i] = max((longest[j] + 1 for a, j in edges if a == i), default=0)
        assert gate_tails(c) == longest
        depths = gate_depths(c)
        assert max(d + t for d, t in zip(depths, gate_tails(c))) == longest_chain(c)

"""Six-feature extraction: definitions, worked examples, serialization."""

import json
import math
import random

from qlayout.circuit import Circuit, make_circuit
from qlayout.corpus import circuit_names, load_bundled
from qlayout.features import (
    FEATURE_NAMES,
    FeatureVector,
    entanglement_variance,
    extract_features,
    format_float,
    max_qubit_depth,
    operation_density,
)

from .conftest import random_circuit
from .oracles import feature_oracle, left_to_right_sum


def test_feature_name_order_is_canonical():
    assert FEATURE_NAMES == (
        "circuit_depth",
        "circuit_width",
        "max_qubit_depth",
        "operation_density",
        "two_qubit_gate_count",
        "entanglement_variance",
    )


def test_empty_circuit_features():
    fv = extract_features(Circuit(num_qubits=3))
    assert fv.as_tuple() == (0, 3, 0, 0.0, 0, 0.0)


def test_single_cx_features():
    fv = extract_features(make_circuit(2, [("cx", (0, 1))]))
    assert fv.circuit_depth == 1
    assert fv.circuit_width == 2
    assert fv.max_qubit_depth == 1
    assert fv.operation_density == 1.0       # (0 + 2*1) / (1 * 2)
    assert fv.two_qubit_gate_count == 1
    assert fv.entanglement_variance == 0.0   # both qubits carry one 2q gate


def test_max_qubit_depth_counts_gates_per_qubit():
    c = make_circuit(2, [("x", (0,)), ("x", (0,)), ("x", (0,))])
    assert max_qubit_depth(c) == 3
    assert max_qubit_depth(make_circuit(2, [("cx", (0, 1))])) == 1


def test_operation_density_worked_example():
    # four 1q + three 2q gates, chain length 5, width 3 -> 10/15
    ops = [
        ("cx", (0, 1)), ("cx", (0, 1)), ("cx", (0, 1)),
        ("h", (0,)), ("h", (1,)), ("h", (0,)), ("h", (1,)),
    ]
    c = make_circuit(3, ops)
    from qlayout.circuit import longest_chain

    assert longest_chain(c) == 5
    assert math.isclose(operation_density(c), 10 / 15, rel_tol=0, abs_tol=1e-12)


def test_single_qubit_stream_density_is_one():
    c = make_circuit(1, [("x", (0,))] * 7)
    assert operation_density(c) == 1.0


def test_entanglement_variance_worked_examples():
    # star: q0 in three 2q gates, q1..q3 in one each -> tallies [3,1,1,1],
    # mean 1.5, sum of squared deviations 3 -> ln(4)/4
    c = make_circuit(4, [("cx", (0, 1)), ("cz", (0, 2)), ("cx", (0, 3))])
    assert math.isclose(entanglement_variance(c), math.log(4) / 4, abs_tol=1e-12)

    # concentrated: tallies [3,3,0,0], mean 1.5, sum 4*2.25 = 9 -> ln(10)/4
    c2 = make_circuit(4, [("cx", (0, 1))] * 3)
    assert math.isclose(entanglement_variance(c2), math.log(10) / 4, abs_tol=1e-12)


def test_entanglement_variance_zero_cases():
    assert entanglement_variance(make_circuit(3, [("h", (0,))])) == 0.0
    # uniform load: every qubit carries exactly one 2q gate
    c = make_circuit(4, [("cx", (0, 1)), ("cx", (2, 3))])
    assert entanglement_variance(c) == 0.0


def test_entanglement_variance_adds_left_to_right():
    # Loads (0, 1, 1, 1, 1): compensated summation (the builtin sum since
    # CPython 3.12) gives a spread of exactly 0.8.
    c = make_circuit(5, [("cx", (1, 2)), ("cx", (3, 4))])
    deviations = [(n - 0.8) ** 2 for n in (0, 1, 1, 1, 1)]
    assert left_to_right_sum(deviations) != math.fsum(deviations)
    assert entanglement_variance(c) == math.log(left_to_right_sum(deviations) + 1.0) / 5


def test_extract_matches_straight_line_oracle_on_bundled():
    for name in circuit_names():
        c = load_bundled(name)
        got = extract_features(c).as_tuple()
        want = feature_oracle(c)
        assert got[:3] == want[:3] and got[4] == want[4]
        assert math.isclose(got[3], want[3], abs_tol=1e-9)
        assert math.isclose(got[5], want[5], abs_tol=1e-9)


def test_extract_matches_oracle_on_random_circuits():
    rng = random.Random(123)
    for _ in range(60):
        c = random_circuit(rng)
        got = extract_features(c).as_tuple()
        want = feature_oracle(c)
        assert got[:3] == want[:3] and got[4] == want[4]
        assert math.isclose(got[3], want[3], abs_tol=1e-9)
        assert math.isclose(got[5], want[5], abs_tol=1e-9)


def test_nine_significant_digit_serialization():
    assert format_float(0.123456789123) == "0.123456789"
    assert format_float(1.0) == "1"
    assert format_float(2 / 3) == "0.666666667"


def test_feature_vector_json_round_trip():
    fv = extract_features(load_bundled("bv_n4"))
    doc = json.loads(fv.to_json())
    assert list(doc) == list(FEATURE_NAMES)
    assert doc["circuit_width"] == fv.circuit_width
    assert math.isclose(doc["operation_density"], fv.operation_density, abs_tol=1e-8)


def test_json_holds_what_the_text_form_reads_back_as():
    fv = FeatureVector(7, 3, 5, 2 / 3, 4, 1.0)
    assert fv.to_text() == ["7", "3", "5", "0.666666667", "4", "1"]
    assert json.loads(fv.to_json()) == dict(zip(FEATURE_NAMES, (7, 3, 5, 0.666666667, 4, 1.0)))
    assert '"entanglement_variance": 1.0' in fv.to_json()


def test_as_tuple_order_matches_names():
    fv = extract_features(load_bundled("ghz_n4"))
    assert fv.as_tuple() == tuple(getattr(fv, n) for n in FEATURE_NAMES)

"""Chunked augmentation, qubit reordering, AllKNN refinement, CSV round-trip."""

import math
import random

import pytest

from qlayout.augment import (
    ChunkPlan,
    Dataset,
    Sample,
    _standardize,
    allknn_refine,
    gate_allocation,
    load_dataset,
    qubit_reorder,
    save_dataset,
)
from qlayout.circuit import build_dag, make_circuit
from qlayout.features import FeatureVector, extract_features

from .conftest import random_circuit
from .oracles import allknn_per_point, enn_reference, left_to_right_sum


def _fv(a, b, c, d, e, f) -> FeatureVector:
    return FeatureVector(
        circuit_depth=a,
        circuit_width=b,
        max_qubit_depth=c,
        operation_density=d,
        two_qubit_gate_count=e,
        entanglement_variance=f,
    )


# --------------------------------------------------------------------------
# ChunkPlan / gate_allocation
# --------------------------------------------------------------------------


def test_chunk_plan_requires_positive_budgets():
    with pytest.raises(ValueError):
        ChunkPlan(())
    with pytest.raises(ValueError):
        ChunkPlan((3, 0))


def test_allocation_keeps_trailing_chunk_with_two_qubit_gate():
    c = make_circuit(2, [("h", (0,)), ("h", (1,)), ("x", (0,)), ("h", (0,)), ("cx", (0, 1))])
    chunks = gate_allocation(c, ChunkPlan((3,)))
    assert [len(ch.gates) for ch in chunks] == [3, 2]


def test_allocation_discards_single_qubit_residual():
    c = make_circuit(2, [("h", (0,)), ("cx", (0, 1)), ("x", (0,)), ("h", (1,))])
    chunks = gate_allocation(c, ChunkPlan((3,)))
    assert [len(ch.gates) for ch in chunks] == [3]
    assert chunks[0].gates[1].name == "cx"


def test_allocation_cycles_budget_list():
    ops = [("cx", (0, 1))] * 10
    chunks = gate_allocation(make_circuit(2, ops), ChunkPlan((4, 4)))
    assert [len(ch.gates) for ch in chunks] == [4, 4, 2]


def test_allocation_two_qubit_only_filters_first():
    ops = [("h", (0,)), ("cx", (0, 1)), ("x", (1,)), ("cz", (1, 2)), ("cx", (0, 2))]
    chunks = gate_allocation(make_circuit(3, ops), ChunkPlan((2,), two_qubit_only=True))
    assert [len(ch.gates) for ch in chunks] == [2, 1]
    names = [g.name for ch in chunks for g in ch.gates]
    assert names == ["cx", "cz", "cx"]


def test_allocation_chunks_renumber_gate_ids():
    ops = [("cx", (0, 1))] * 5
    for chunk in gate_allocation(make_circuit(2, ops), ChunkPlan((2,))):
        assert [g.id for g in chunk.gates] == list(range(len(chunk.gates)))


def test_allocation_empty_output_possible():
    c = make_circuit(1, [("h", (0,)), ("x", (0,))])
    assert gate_allocation(c, ChunkPlan((5,))) == []


# --------------------------------------------------------------------------
# qubit_reorder
# --------------------------------------------------------------------------


def test_reorder_first_appearance_order():
    c = make_circuit(4, [("cx", (2, 3)), ("h", (0,))])
    r = qubit_reorder(c)
    # q2 -> 0, q3 -> 1, q0 -> 2
    assert r.gates[0].qubits == (0, 1)
    assert r.gates[1].qubits == (2,)
    assert r.num_qubits == 3


def test_reorder_identity_when_already_contiguous():
    c = make_circuit(3, [("h", (0,)), ("cx", (0, 1)), ("cx", (1, 2))])
    r = qubit_reorder(c)
    assert [g.qubits for g in r.gates] == [g.qubits for g in c.gates]


def test_reorder_preserves_dag_shape():
    rng = random.Random(11)
    for _ in range(30):
        c = random_circuit(rng, min_gates=1)
        r = qubit_reorder(c)
        assert len(r.gates) == len(c.gates)
        assert [len(g.qubits) for g in r.gates] == [len(g.qubits) for g in c.gates]
        assert build_dag(r).edges == build_dag(c).edges


# --------------------------------------------------------------------------
# AllKNN refinement
# --------------------------------------------------------------------------


def _toy_dataset(rows, labels):
    samples = [
        Sample(_fv(r[0], 1, 1, r[1], 1, 0.0), lab, f"s{i}")
        for i, (r, lab) in enumerate(zip(rows, labels))
    ]
    return Dataset("depth", samples)


def test_refine_requires_more_samples_than_kmax():
    ds = _toy_dataset([(1, 1), (2, 2), (3, 3)], [1, 1, 1])
    with pytest.raises(ValueError):
        allknn_refine(ds, k_max=3)


def test_refine_all_same_label_unchanged():
    rows = [(i, 7 - i) for i in range(8)]
    ds = _toy_dataset(rows, [4] * 8)
    out = allknn_refine(ds, k_max=3)
    assert [s.source for s in out.samples] == [s.source for s in ds.samples]


def test_refine_identical_features_pass_through():
    ds = _toy_dataset([(2, 2)] * 6, [1, 2, 1, 2, 1, 2])
    out = allknn_refine(ds, k_max=3)
    assert len(out.samples) == 6


def test_refine_removes_isolated_odd_label():
    # label-1 points in mutual-nearest pairs, one label-9 point between the
    # pairs: only the odd point's nearest neighbor disagrees with it
    rows = [(0.0, 0), (0.001, 0), (1.0, 0), (1.001, 0), (0.5, 0)]
    labels = [1, 1, 1, 1, 9]
    out = allknn_refine(_toy_dataset(rows, labels), k_max=1)
    assert [s.label for s in out.samples] == [1, 1, 1, 1]


def test_refine_output_is_subset_preserving_order():
    rng = random.Random(13)
    rows = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(25)]
    labels = [rng.randint(0, 2) for _ in range(25)]
    ds = _toy_dataset(rows, labels)
    out = allknn_refine(ds, k_max=3)
    sources = [s.source for s in ds.samples]
    out_sources = [s.source for s in out.samples]
    assert out_sources == [s for s in sources if s in set(out_sources)]


def test_refine_matches_independent_enn_reference():
    rng = random.Random(29)
    for _ in range(10):
        n = rng.randint(8, 30)
        rows = []
        labels = []
        for _ in range(n):
            if rng.random() < 0.5:
                rows.append((rng.gauss(0, 1), rng.gauss(0, 1)))
                base = 1
            else:
                rows.append((rng.gauss(6, 1), rng.gauss(6, 1)))
                base = 2
            labels.append(base if rng.random() > 0.1 else 3 - base)
        ds = _toy_dataset(rows, labels)
        for kmax in (1, 2, 3):
            got = [s.source for s in allknn_refine(ds, kmax).samples]
            want = [f"s{i}" for i in enn_reference(
                [s.features.as_tuple() for s in ds.samples], labels, kmax
            )]
            assert got == want


def test_refine_idempotent_on_survivors():
    rng = random.Random(53)
    rows = [(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(20)]
    labels = [rng.randint(0, 1) for _ in range(20)]
    once = allknn_refine(_toy_dataset(rows, labels), k_max=2)
    if len(once.samples) > 2:
        twice = allknn_refine(once, k_max=2)
        assert [s.source for s in twice.samples] == [s.source for s in once.samples]


def _random_table(rng, kind, n):
    if kind == "duplicates":
        base = [
            tuple(rng.randint(0, 3) for _ in range(6))
            for _ in range(rng.randint(2, 6))
        ]
        rows = [rng.choice(base) for _ in range(n)]
    elif kind == "lattice":
        dims = rng.randint(1, 3)
        rows = [
            tuple(rng.randint(0, 2) if c < dims else 0 for c in range(6))
            for _ in range(n)
        ]
    else:
        rows = [tuple(rng.uniform(0, 10) for _ in range(6)) for _ in range(n)]
    samples = [
        Sample(_fv(*row), rng.randint(0, 2), f"s{i}") for i, row in enumerate(rows)
    ]
    return Dataset("depth", samples)


@pytest.mark.parametrize("kind", ["duplicates", "lattice", "distinct"])
def test_refine_matches_the_per_point_search(kind):
    # Duplicate rows share distances; lattice rows also put distinct rows at
    # equal distances, so a tie can cut across several groups of equal rows.
    rng = random.Random(f"allknn-{kind}")
    for _ in range(40):
        ds = _random_table(rng, kind, rng.randint(4, 60))
        for kmax in (1, 2, 3):
            got = [s.source for s in allknn_refine(ds, kmax).samples]
            want = [s.source for s in allknn_per_point(ds, kmax).samples]
            assert got == want


def test_refine_takes_equidistant_neighbors_in_index_order():
    # Sample 2 sits one unit from samples 0 and 4 on one side and from
    # samples 1 and 3 on the other; its nearest neighbor is sample 0, the
    # only label 7, whichever side sample 0 is on.  Samples 0 and 4 are
    # equal rows with different labels, so both go too.
    for left, right in ((0, 2), (2, 0)):
        rows = [(left, 0), (right, 0), (1, 0), (right, 0), (left, 0)]
        out = allknn_refine(_toy_dataset(rows, [7, 5, 5, 5, 5]), k_max=1)
        assert [s.source for s in out.samples] == ["s1", "s3"]


def test_standardize_adds_left_to_right():
    # Compensated summation (the builtin sum since CPython 3.12) makes the
    # first column's mean exactly 0.1 and its spread 0.
    rows = [(0.1, float(i)) for i in range(10)]
    col = [r[0] for r in rows]
    assert left_to_right_sum(col) != math.fsum(col)
    mean = left_to_right_sum(col) / 10
    std = math.sqrt(left_to_right_sum((v - mean) ** 2 for v in col) / 10)
    assert std > 0.0
    assert [r[0] for r in _standardize(rows)] == [(0.1 - mean) / std] * 10


# --------------------------------------------------------------------------
# CSV round-trip
# --------------------------------------------------------------------------


def test_dataset_csv_round_trip(tmp_path):
    c = make_circuit(3, [("h", (0,)), ("cx", (0, 1)), ("cx", (1, 2))])
    ds = Dataset(
        "swaps",
        [Sample(extract_features(c), 2, "seed:sample_0000")],
        graph="line5",
    )
    path = tmp_path / "ds.csv"
    save_dataset(ds, path)
    back = load_dataset(path, target="swaps")
    assert back.target == "swaps"
    assert len(back.samples) == 1
    s = back.samples[0]
    assert s.label == 2
    assert s.source == "seed:sample_0000"
    assert s.features.as_tuple()[:3] == extract_features(c).as_tuple()[:3]
    assert abs(s.features.operation_density - extract_features(c).operation_density) < 1e-8


def test_load_dataset_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_dataset(path)

"""Chunked augmentation, qubit reordering, AllKNN refinement, CSV round-trip,
and corpus builds that share solver sessions."""

import dataclasses
import hashlib
import json
import logging
import math
import random
import shlex
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from qlayout import augment, search
from qlayout.arch import line_graph
from qlayout.augment import (
    _CSV_HEADER,
    ChunkPlan,
    Dataset,
    Sample,
    _standardize,
    allknn_refine,
    build_corpus,
    gate_allocation,
    load_dataset,
    qubit_reorder,
    save_dataset,
)
from qlayout.backend import SolverConfig
from qlayout.circuit import build_dag, make_circuit
from qlayout.features import FeatureVector, extract_features
from qlayout.regressor import fit
from qlayout.search import SearchError

from .conftest import random_circuit
from .oracles import allknn_per_point, enn_reference, left_to_right_sum
from .test_backend import _reaped, _script_solver


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


@pytest.mark.parametrize("k_max", [0, -5])
def test_refine_rejects_k_max_below_one(k_max):
    ds = _toy_dataset([(i, i) for i in range(6)], [1, 2, 1, 2, 1, 2])
    with pytest.raises(ValueError, match=f"k_max must be at least 1, not {k_max}"):
        allknn_refine(ds, k_max=k_max)


def _count_distances(monkeypatch) -> Counter:
    calls = Counter()
    dist = math.dist

    def counting(p, q):
        calls["dist"] += 1
        return dist(p, q)

    monkeypatch.setattr(math, "dist", counting)
    return calls


def test_refine_measures_no_distance_from_a_row_with_more_than_k_max_samples(monkeypatch):
    # 60 samples over 12 distinct rows of 5 samples each, all of one label:
    # with k_max = 3 each row's own samples are its nearest, so no distance
    # is measured in any round.
    rows = [(i % 4, i % 3) for i in range(60)]
    assert set(Counter(rows).values()) == {5}
    calls = _count_distances(monkeypatch)
    out = allknn_refine(_toy_dataset(rows, [1] * 60), k_max=3)
    assert len(out.samples) == 60
    assert calls["dist"] == 0


def test_refine_measures_each_small_row_against_each_row_once(monkeypatch):
    # Distinct rows with 1, 2, 3, 4, 5, 1, 2 and 6 samples, all of one
    # label: nothing is removed, so each row with at most k_max = 3 samples
    # is ranked once, against every distinct row, and no other row is.
    sizes = [1, 2, 3, 4, 5, 1, 2, 6]
    rows = [(g, g % 3) for g, size in enumerate(sizes) for _ in range(size)]
    random.Random(7).shuffle(rows)
    calls = _count_distances(monkeypatch)
    out = allknn_refine(_toy_dataset(rows, [1] * len(rows)), k_max=3)
    assert len(out.samples) == len(rows)
    small = sum(1 for size in sizes if size <= 3)
    assert calls["dist"] == small * len(sizes) == 40


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
    elif kind == "mixed":  # groups of equal rows, some above k_max samples
        rows = []
        while len(rows) < n:
            row = tuple(rng.randint(0, 3) for _ in range(6))
            rows += [row] * rng.randint(1, 6)
        rng.shuffle(rows)
    else:
        rows = [tuple(rng.uniform(0, 10) for _ in range(6)) for _ in range(n)]
    samples = [
        Sample(_fv(*row), rng.randint(0, 2), f"s{i}") for i, row in enumerate(rows)
    ]
    return Dataset("depth", samples)


@pytest.mark.parametrize("kind", ["duplicates", "lattice", "distinct", "mixed"])
def test_refine_matches_the_per_point_search(kind):
    # Duplicate rows share distances; lattice rows also put distinct rows at
    # equal distances, so a tie can cut across several groups of equal rows.
    # Mixed tables hold rows with at most k_max samples, which measure their
    # distances, beside rows with more, which measure none.
    rng = random.Random(f"allknn-{kind}")
    sizes = Counter()
    for _ in range(40):
        ds = _random_table(rng, kind, rng.randint(4, 60))
        counts = Counter(s.features for s in ds.samples).values()
        for kmax in (1, 2, 3):
            got = [s.source for s in allknn_refine(ds, kmax).samples]
            want = [s.source for s in allknn_per_point(ds, kmax).samples]
            assert got == want
            sizes.update(c > kmax for c in counts)
    if kind == "mixed":
        assert sizes[True] > 100 and sizes[False] > 100


def test_refine_fit_and_predict_reproduce_the_train_tables_in_the_manifest():
    # The committed benchmark tables (2,000 rows over 270 distinct feature
    # rows each) and the outputs their generator recorded for them.
    data = Path(__file__).resolve().parents[1] / "qbench" / "data"
    manifest = json.loads((data / "manifest.json").read_text())
    for target, want in manifest["train"].items():
        table = load_dataset(data / f"train_{target}.csv", target)
        refined = allknn_refine(table)
        tree = fit(refined.rows(), refined.labels(), target=target)
        predictions = [tree.predict(row) for row in table.rows()]
        assert len(refined.samples) == want["refined_rows"]
        assert _sha256(tree.to_json()) == want["tree_sha256"]
        assert _sha256(json.dumps(predictions)) == want["predictions_sha256"]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_refine_takes_equidistant_neighbors_in_index_order():
    # Sample 2 sits one unit from samples 0 and 4 on one side and from
    # samples 1 and 3 on the other; its nearest neighbor is sample 0, the
    # only label 7, whichever side sample 0 is on.  Samples 0 and 4 are
    # equal rows with different labels, so both go too.
    for left, right in ((0, 2), (2, 0)):
        rows = [(left, 0), (right, 0), (1, 0), (right, 0), (left, 0)]
        out = allknn_refine(_toy_dataset(rows, [7, 5, 5, 5, 5]), k_max=1)
        assert [s.source for s in out.samples] == ["s1", "s3"]


def test_refine_regroups_after_a_group_loses_its_first_member():
    # Round 1 (n = 1): samples 0, 1, 4 share a row, and so do 2, 3, 5.
    # Sample 0's nearest is sample 1 (label 1) and sample 1's is sample 0
    # (label 2), so both go, as does sample 5; sample 4 is now the first
    # and only member of its row.  Round 2 (n = 2): sample 4's neighbours
    # are samples 2 and 3 (label 1), so it goes too.
    rows = [(1, 0), (1, 0), (0, 0), (0, 0), (1, 0), (0, 0)]
    ds = _toy_dataset(rows, [2, 1, 1, 1, 2, 2])
    assert [s.source for s in allknn_refine(ds, 1).samples] == ["s2", "s3", "s4"]
    for kmax in (2, 3):
        got = [s.source for s in allknn_refine(ds, kmax).samples]
        assert got == [s.source for s in allknn_per_point(ds, kmax).samples]
        assert got == ["s2", "s3"]


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
    row = ",".join([*extract_features(c).to_text(), "2", "seed:sample_0000"])
    assert path.read_text().splitlines()[1] == row
    back = load_dataset(path, target="swaps")
    assert back.target == "swaps"
    assert len(back.samples) == 1
    s = back.samples[0]
    assert s.label == 2
    assert s.source == "seed:sample_0000"
    assert s.features.as_tuple()[:3] == extract_features(c).as_tuple()[:3]
    assert abs(s.features.operation_density - extract_features(c).operation_density) < 1e-8
    assert [type(v) for v in (*s.features.as_tuple(), s.label)] == [
        int, int, int, float, int, float, int]


@pytest.mark.parametrize("column, value", [
    ("circuit_depth", "2.5"),
    ("circuit_width", "2.5"),
    ("max_qubit_depth", "2.5"),
    ("operation_density", "nan"),
    ("two_qubit_gate_count", "2.5"),
    ("entanglement_variance", "nan"),
    ("operation_density", "inf"),
    ("entanglement_variance", "-inf"),
    ("label", "2.5"),
    ("label", ""),
    pytest.param("circuit_depth", "1" + "0" * 400, id="circuit_depth-1e400"),
    pytest.param("label", "-1" + "0" * 400, id="label--1e400"),
])
def test_load_dataset_rejects_a_missing_or_non_finite_number(tmp_path, column, value):
    good = dict(zip(_CSV_HEADER, ["3", "2", "3", "0.5", "1", "0.3", "4", "s0"]))
    bad = {**good, column: value}
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(",".join(r) for r in (
        _CSV_HEADER, good.values(), bad.values(), good.values())) + "\n")
    with pytest.raises(ValueError, match=f"line 3, column {column}: '{value}'"):
        load_dataset(path)


def test_load_dataset_names_the_first_bad_column_of_a_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(_CSV_HEADER) + "\n3,2,3,nan,1.5,0.3,x,s0\n")
    with pytest.raises(ValueError, match="line 2, column operation_density: 'nan'"):
        load_dataset(path)
    huge = "1" + "0" * 400  # two ints beyond the float range that cancel out
    path.write_text(",".join(_CSV_HEADER) + f"\n{huge},-{huge},3,0.5,1,0.3,4,s0\n")
    with pytest.raises(ValueError, match=f"line 2, column circuit_depth: '{huge}'"):
        load_dataset(path)


@pytest.mark.parametrize("line, problem", [
    ("3,2,3,0.5,1,0.3,4", "7 fields, expected 8"),
    ("3,2,3,0.5,1,0.3,4,s1,extra", "9 fields, expected 8"),
])
def test_load_dataset_rejects_a_row_of_the_wrong_length(tmp_path, line, problem):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(_CSV_HEADER) + "\n3,2,3,0.5,1,0.3,4,s0\n\n" + line + "\n")
    with pytest.raises(ValueError, match=f"line 4, {problem}"):
        load_dataset(path)


def test_load_dataset_skips_blank_lines(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text(",".join(_CSV_HEADER) + "\n\n3,2,3,0.5,1,0.3,4,s0\n\n")
    assert [s.source for s in load_dataset(path).samples] == ["s0"]


def test_load_dataset_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_dataset(path)


# --------------------------------------------------------------------------
# build_corpus: which labeling failures skip a sample
# --------------------------------------------------------------------------

_PAIR = [("pair", make_circuit(2, [("cx", (0, 1))]))]


def test_build_corpus_skips_a_sample_whose_search_fails(tmp_path, monkeypatch, caplog):
    def failing(circuit, graph, **kwargs):
        raise SearchError("depth phase failed: solver exited 1")

    monkeypatch.setattr(augment, "label_sample", failing)
    with caplog.at_level(logging.WARNING, logger="qlayout.augment"):
        depth_ds, swap_ds = build_corpus(
            _PAIR, [ChunkPlan((3,))], line_graph(2), tmp_path, refine=False
        )
    assert depth_ds.samples == [] and swap_ds.samples == []
    assert "pair chunk 0: labeling failed (depth phase failed" in caplog.text


def test_build_corpus_lets_a_program_bug_propagate(tmp_path, monkeypatch):
    def buggy(circuit, graph, **kwargs):
        raise TypeError("unsupported operand type(s)")

    monkeypatch.setattr(augment, "label_sample", buggy)
    with pytest.raises(TypeError, match="unsupported operand"):
        build_corpus(_PAIR, [ChunkPlan((3,))], line_graph(2), tmp_path, refine=False)


def test_build_corpus_rejects_fewer_than_one_job(tmp_path):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        build_corpus(_PAIR, [ChunkPlan((3,))], line_graph(2), tmp_path, jobs=0)


def test_build_corpus_rejects_kmax_below_one_before_labeling(tmp_path, monkeypatch):
    def never(circuit, graph, **kwargs):
        raise AssertionError("a chunk was labeled")

    monkeypatch.setattr(augment, "label_sample", never)
    with pytest.raises(ValueError, match="kmax must be at least 1, not 0"):
        build_corpus(_PAIR, [ChunkPlan((3,))], line_graph(2), tmp_path / "out", kmax=0)
    assert not (tmp_path / "out").exists()


def test_build_corpus_rejects_a_swap_duration_below_one_step_before_labeling(
        tmp_path, monkeypatch):
    def never(circuit, graph, **kwargs):
        raise AssertionError("a chunk was labeled")

    monkeypatch.setattr(augment, "label_sample", never)
    with pytest.raises(ValueError, match="swap duration must be at least 1 step, not 0"):
        build_corpus(_PAIR, [ChunkPlan((3,))], line_graph(2), tmp_path / "out",
                     swap_duration=0)
    assert not (tmp_path / "out").exists()


def _counting_labels(monkeypatch) -> list:
    """Label each chunk without a solver: the trivial layout's result, with
    made-up optima that cycle with the call count.  Returns the chunks
    labeled."""
    labeled = []

    def label(circuit, graph, **kwargs):
        labeled.append(circuit)
        k = len(labeled)
        return dataclasses.replace(search._trivial_solution(circuit, graph),
                                   optimal_depth=k % 3, optimal_swaps=k % 2)

    monkeypatch.setattr(augment, "label_sample", label)
    return labeled


def test_build_corpus_writes_the_refined_datasets(tmp_path, monkeypatch):
    rng = random.Random(7)
    inputs = [(f"c{i}", random_circuit(rng, max_qubits=4, min_gates=6)) for i in range(12)]

    def build(out: str, refine: bool):
        _counting_labels(monkeypatch)
        return build_corpus(inputs, [ChunkPlan((2, 3))], line_graph(4), tmp_path / out,
                            kmax=2, refine=refine)

    plain = build("plain", refine=False)
    refined = build("refined", refine=True)
    for dataset, name in zip(plain, ("depth_dataset.csv", "swaps_dataset.csv")):
        save_dataset(allknn_refine(dataset, 2), tmp_path / name)
        assert (tmp_path / "refined" / name).read_text() == (tmp_path / name).read_text()
    assert 2 < len(refined[0].samples) < len(plain[0].samples)


def test_build_corpus_skips_a_chunk_wider_than_the_device(tmp_path, monkeypatch, caplog):
    labeled = _counting_labels(monkeypatch)
    wide = make_circuit(3, [("cx", (0, 1)), ("cx", (1, 2)), ("cx", (0, 1))])
    with caplog.at_level(logging.WARNING, logger="qlayout.augment"):
        depth_ds, _ = build_corpus([("wide", wide)], [ChunkPlan((2,))], line_graph(2),
                                   tmp_path, refine=False)
    assert "wide chunk 0: 3 qubits exceed device line:2; skipped" in caplog.text
    assert [c.num_qubits for c in labeled] == [2]          # chunk 1 only
    assert [s.source for s in depth_ds.samples] == ["wide:sample_0000"]


# --------------------------------------------------------------------------
# build_corpus: one solver session per labeling worker
# --------------------------------------------------------------------------

# Three one-chunk circuits, each solved in two checks.
_PAIRS = [(name, make_circuit(2, [("h", (0,)), ("cx", (0, 1))])) for name in "abc"]


def _launches(pids) -> list[int]:
    """The logged solver pids, once every one of them has exited."""
    launched = [int(pid) for pid in pids.read_text().split()]
    assert all(map(_reaped, launched))
    return launched


def _logging(tmp_path, command: str) -> SolverConfig:
    """A solver that logs its pid to ``tmp_path / "pids"``, then runs ``command``."""
    return _script_solver(tmp_path, f"echo $$ >> {tmp_path / 'pids'}\n{command}")


def test_build_corpus_survives_a_failed_solve(tmp_path, small_solver, caplog):
    # the first process answers the first check with an error; later ones
    # are the real solver
    cfg = _logging(tmp_path, f"""if mkdir {tmp_path / 'failed'} 2>/dev/null; then
  while read -r line; do
    [ "$line" = "(check-sat)" ] && echo '(error "scripted failure")'
  done
fi
exec {shlex.join(small_solver.command)}""")
    with caplog.at_level(logging.WARNING, logger="qlayout.augment"):
        depth_ds, _ = build_corpus(_PAIRS, [ChunkPlan((3,))], line_graph(2),
                                   tmp_path / "out", refine=False, solver=cfg)
    assert "a chunk 0: labeling failed (depth phase failed" in caplog.text
    assert "scripted failure" in caplog.text
    assert [(s.source, s.label) for s in depth_ds.samples] == [
        ("b:sample_0000", 2), ("c:sample_0001", 2),
    ]
    assert len(_launches(tmp_path / "pids")) == 2


def test_build_corpus_budget_is_per_solve_not_per_build(tmp_path, small_solver):
    # the real solver, sent each check-sat 0.4 s late: each solve of two
    # checks fits the budget, the build of three does not
    cfg = _logging(tmp_path, f"""while read -r line; do
  [ "$line" = "(check-sat)" ] && sleep 0.4
  printf '%s\\n' "$line"
done | {shlex.join(small_solver.command)}""")
    cfg = dataclasses.replace(cfg, timeout=2.0)
    start = time.monotonic()
    depth_ds, _ = build_corpus(_PAIRS, [ChunkPlan((3,))], line_graph(2),
                               tmp_path / "out", refine=False, solver=cfg)
    assert time.monotonic() - start > cfg.timeout
    assert [s.label for s in depth_ds.samples] == [2, 2, 2]
    assert len(_launches(tmp_path / "pids")) == 1


def _tree(root) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_build_corpus_shares_a_session_with_the_same_output(tmp_path, small_solver,
                                                            monkeypatch):
    inputs = [*_PAIRS, ("ghz", make_circuit(4, [("h", (0,)), ("cx", (0, 1)),
                                                ("cx", (1, 2)), ("cx", (2, 3))]))]
    cfg = _logging(tmp_path, f"exec {shlex.join(small_solver.command)}")
    pids = tmp_path / "pids"

    def build(name, jobs=1):
        pids.write_text("")
        build_corpus(inputs, [ChunkPlan((3,))], line_graph(4), tmp_path / name,
                     refine=False, jobs=jobs, solver=cfg)
        return _tree(tmp_path / name), len(_launches(pids))

    shared, launches = build("shared")
    assert len(shared) == 5 * 3 + 2 and launches == 1
    parallel, launches = build("parallel", jobs=2)
    assert parallel == shared and launches <= 2

    # a fresh solver process for every solve, as a SolverConfig gives
    original = augment.label_sample

    def one_process_per_solve(circuit, graph, *, solver, **kwargs):
        return original(circuit, graph, solver=solver.config, **kwargs)

    monkeypatch.setattr(augment, "label_sample", one_process_per_solve)
    fresh, launches = build("fresh")
    assert fresh == shared and launches == 5


def test_build_corpus_never_gives_one_session_to_two_solves(tmp_path, monkeypatch):
    busy, seen, lock = Counter(), set(), threading.Lock()

    def label(circuit, graph, *, solver, swap_duration):
        with lock:
            busy[solver] += 1
            seen.add(solver)
            clash = busy[solver] > 1
        time.sleep(0.0005)
        with lock:
            busy[solver] -= 1
        assert not clash, "two solves shared one session"
        return search._trivial_solution(circuit, graph)

    monkeypatch.setattr(augment, "label_sample", label)
    inputs = [(str(i), make_circuit(2, [("cx", (0, 1))])) for i in range(100)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        depth_ds, _ = build_corpus(inputs, [ChunkPlan((1,))], line_graph(2), tmp_path,
                                   refine=False, jobs=8)
    finally:
        sys.setswitchinterval(interval)
    assert len(depth_ds.samples) == 100 and len(seen) <= 8

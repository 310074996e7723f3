"""Coupling-graph models: construction rules, topologies, loading."""

import json
import re
import sys
import threading
import warnings

import pytest

from qlayout.arch import (
    CouplingGraph,
    GraphError,
    component_sizes,
    grid_graph,
    line_graph,
    load_graph,
    qx2,
    resolve_graph,
    ring_graph,
)


def test_minimal_two_qubit_graph():
    g = CouplingGraph("pair", 2, ((0, 1),))
    assert g.has_edge(0, 1) and g.has_edge(1, 0)


def test_self_loop_rejected():
    with pytest.raises(GraphError):
        CouplingGraph("bad", 3, ((0, 0),))


def test_duplicate_edge_rejected_both_orientations():
    with pytest.raises(GraphError):
        CouplingGraph("bad", 3, ((0, 1), (1, 0)))


def test_out_of_range_edge_rejected():
    with pytest.raises(GraphError):
        CouplingGraph("bad", 2, ((0, 2),))


def test_edges_are_canonicalized_and_sorted():
    g = CouplingGraph("g", 4, ((3, 2), (1, 0), (2, 1)))
    assert g.edges == ((0, 1), (1, 2), (2, 3))


def test_qx2_is_the_five_qubit_bowtie():
    g = qx2()
    assert g.num_qubits == 5
    assert g.edges == ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4))


def test_grid_edge_count_formula():
    # |edges| = 2*r*c - r - c for an r x c grid
    assert len(grid_graph(1, 1).edges) == 0
    assert len(grid_graph(2, 2).edges) == 4
    assert grid_graph(5, 5).num_qubits == 25
    assert len(grid_graph(5, 5).edges) == 40
    for r, c in [(1, 4), (2, 3), (3, 3), (4, 2)]:
        assert len(grid_graph(r, c).edges) == 2 * r * c - r - c


def test_grid_zero_dimension_rejected():
    with pytest.raises(GraphError):
        grid_graph(0, 3)


def test_line_and_ring_shapes():
    assert len(line_graph(2).edges) == 1
    assert len(line_graph(5).edges) == 4
    assert len(ring_graph(3).edges) == 3
    assert len(ring_graph(5).edges) == 5
    with pytest.raises(GraphError):
        line_graph(1)
    with pytest.raises(GraphError):
        ring_graph(2)


@pytest.mark.parametrize("spec", ["qx2", "line:5", "ring:5", "grid:2x3"])
def test_neighbors_and_edge_indexing(spec):
    # precomputed lookups agree with scans of the edge list, in ascending
    # index order (the encoder emits assertions in this order)
    g = resolve_graph(spec)
    assert len(g.incident) == g.num_qubits and len(g.touching) == len(g.edges)
    for p in range(g.num_qubits):
        assert g.incident[p] == tuple(k for k, e in enumerate(g.edges) if p in e)
        for q in range(-1, g.num_qubits + 1):
            assert g.has_edge(p, q) == ((min(p, q), max(p, q)) in g.edges)
            assert g.has_edge(q, p) == g.has_edge(p, q)
    for k, (a, b) in enumerate(g.edges):
        assert g.touching[k] == tuple(
            j for j, e in enumerate(g.edges) if j != k and {a, b} & set(e)
        )


@pytest.mark.parametrize("spec", ["qx2", "grid:2x3"])
def test_device_tables_are_computed_once_and_leave_equality_alone(spec):
    g = resolve_graph(spec)
    assert g.incident is g.incident and g.touching is g.touching
    assert g.components is g.components
    new = CouplingGraph(g.name, g.num_qubits, g.edges)
    assert g == new and hash(g) == hash(new)
    assert g != CouplingGraph("other", g.num_qubits, g.edges)


def test_threads_that_race_to_fill_the_tables_read_equal_ones():
    # the tables take no lock of their own: a thread that loses the race to
    # fill one must still read the same tuples
    ref = grid_graph(4, 5)
    expected = (ref.incident, ref.touching, ref.components)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            g, seen = grid_graph(4, 5), []
            barrier = threading.Barrier(8)

            def read():
                barrier.wait(timeout=10)
                seen.append((g.incident, g.touching, g.components))

            threads = [threading.Thread(target=read) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive()
            assert seen == [expected] * 8
    finally:
        sys.setswitchinterval(interval)


def test_disconnected_graph_warns_but_loads():
    with pytest.warns(UserWarning):
        g = CouplingGraph("split", 5, ((0, 1), (2, 3), (3, 4)))
    assert g.components == (3, 2)


def test_connected_graphs_load_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for graph in (qx2(), line_graph(5), grid_graph(2, 3), CouplingGraph("one", 1, ())):
            assert graph.components == (graph.num_qubits,)


def test_component_sizes_are_largest_first():
    assert component_sizes(6, [(0, 1), (4, 5), (1, 2)]) == [3, 2, 1]
    assert component_sizes(3, []) == [1, 1, 1]
    assert component_sizes(0, []) == []


def test_load_graph_round_trip(tmp_path):
    doc = {"name": "pair", "num_qubits": 2, "edges": [[0, 1]]}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    g = load_graph(path)
    assert g.name == "pair"
    assert g.edges == ((0, 1),)


@pytest.mark.parametrize("doc, field", [
    ({"num_qubits": 3.9, "edges": [[0, 1], [1, 2]]}, "num_qubits"),
    ({"num_qubits": "3", "edges": [[0, 1], [1, 2]]}, "num_qubits"),
    ({"num_qubits": True, "edges": []}, "num_qubits"),
    ({"num_qubits": 3, "edges": [[0, 1.7], [1, 2]]}, "edges[0]"),
])
def test_load_graph_accepts_only_json_integers(tmp_path, doc, field):
    # int() would truncate 3.9 and 1.7 and parse "3" and true
    path = tmp_path / "device.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GraphError, match=rf"bad graph schema \({re.escape(field)} "):
        load_graph(path)


def test_load_graph_rejects_self_loop(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x", "num_qubits": 3, "edges": [[0, 0]]}))
    with pytest.raises(GraphError):
        load_graph(path)


@pytest.mark.parametrize("num_qubits", [0, -2])
def test_a_graph_without_qubits_is_rejected(tmp_path, num_qubits):
    with pytest.raises(GraphError, match=f"at least 1 qubit, not {num_qubits}"):
        CouplingGraph("empty", num_qubits, ())
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"num_qubits": num_qubits, "edges": []}))
    with pytest.raises(GraphError, match="at least 1 qubit"):
        load_graph(path)


def test_load_graph_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(GraphError):
        load_graph(path)


@pytest.mark.parametrize("doc", [[1, 2], "pair", 5, None])
def test_load_graph_rejects_a_top_level_that_is_not_an_object(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GraphError, match="bad graph schema"):
        load_graph(path)
    with pytest.raises(GraphError):
        resolve_graph(str(path))


def test_resolve_graph_named_forms(tmp_path):
    assert resolve_graph("qx2").num_qubits == 5
    assert resolve_graph("line:4").edges == ((0, 1), (1, 2), (2, 3))
    assert resolve_graph("ring:3").num_qubits == 3
    g = resolve_graph("grid:2x3")
    assert g.num_qubits == 6 and len(g.edges) == 7
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"name": "g", "num_qubits": 2, "edges": [[0, 1]]}))
    assert resolve_graph(str(path)).name == "g"


def test_resolve_graph_bad_spec():
    with pytest.raises((GraphError, FileNotFoundError)):
        resolve_graph("hexagon:7")

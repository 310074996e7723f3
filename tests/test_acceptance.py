"""End-to-end acceptance checks for the layout-synthesis toolkit.

Each test is one acceptance gate.  The cross-check suite (20 circuits x 4
devices) is solved once and memoized in the session-scoped ``suite`` cache;
later gates reuse those results under different predictor seedings, so the
file is meant to run top to bottom.
"""

import dataclasses
import random
import statistics
import time

import pytest

from qlayout.arch import grid_graph, line_graph
from qlayout.augment import ChunkPlan, Dataset, Sample, allknn_refine, build_corpus, gate_allocation
from qlayout.backend import validate_solution
from qlayout.circuit import build_dag, load_qasm, make_circuit
from qlayout.corpus import load_bundled
from qlayout.features import FEATURE_NAMES, FeatureVector, extract_features
from qlayout.regressor import fit
from qlayout.search import run_bound_search, solve_optimal

from . import oracles
from .conftest import random_circuit

# ==========================================================================
# Gate 1: the two-phase search reports exactly what a naive scan reports
# ==========================================================================


def test_optimal_search_agrees_with_naive_linear_scan(suite):
    started = time.monotonic()
    for cname, aname in suite.instances():
        result = suite.solve(cname, aname)
        depth, swaps, _ = suite.scan(cname, aname)
        assert (result.optimal_depth, result.optimal_swaps) == (depth, swaps), (
            f"{cname} on {aname}: search found "
            f"({result.optimal_depth}, {result.optimal_swaps}), scan found "
            f"({depth}, {swaps})"
        )
        # the frontier leaves a witness at the optimum and a certificate below
        assert (result.optimal_depth, True) in result.depth_history
        if result.optimal_depth > suite.ldc(cname):
            assert (result.optimal_depth - 1, False) in result.depth_history
        assert (result.optimal_swaps, True) in result.swap_history
        if result.optimal_swaps > result.swap_floor:
            assert (result.optimal_swaps - 1, False) in result.swap_history
        elif result.optimal_swaps > 0:
            # the floor of one swap is the device's: no placement puts every
            # interacting pair on an edge, as trying every placement confirms
            assert not oracles.embeds_by_permutation(
                suite.circuits[cname], suite.graphs[aname]), (cname, aname)
    elapsed = time.monotonic() - started
    print(f"\n80-instance cross-check finished in {elapsed / 60:.1f} min")


# ==========================================================================
# Gate 2: predictor seeding can shift work but never the answer
# ==========================================================================


def test_prediction_seeding_never_changes_the_optimum(suite):
    for cname, aname in suite.instances():
        base = suite.solve(cname, aname)
        d_opt, s_opt = base.optimal_depth, base.optimal_swaps
        ldc = suite.ldc(cname)
        settings = {
            (0, 0),
            (max(0, ldc - 5), max(0, s_opt - 5)),
            (d_opt, s_opt),
            (d_opt + 7, s_opt + 7),
        }
        for dseed, sseed in sorted(settings):
            run = suite.solve(cname, aname, dseed, sseed)
            assert (run.optimal_depth, run.optimal_swaps) == (d_opt, s_opt), (
                f"{cname} on {aname}: seeding ({dseed}, {sseed}) reported "
                f"({run.optimal_depth}, {run.optimal_swaps}) instead of "
                f"({d_opt}, {s_opt})"
            )
            assert run.depth_checks >= 1 and run.swap_checks >= 1


# ==========================================================================
# Gate 3: exact predictions pin the search to the minimum number of checks
# ==========================================================================


def test_exact_predictions_need_at_most_three_checks_per_phase(suite):
    for cname, aname in suite.instances():
        base = suite.solve(cname, aname)
        run = suite.solve(cname, aname, base.optimal_depth, base.optimal_swaps)
        assert run.depth_checks <= 3, (cname, aname, run.depth_history)
        assert run.swap_checks <= 3, (cname, aname, run.swap_history)
        if base.optimal_depth == suite.ldc(cname):
            assert run.depth_checks == 1, (cname, aname, run.depth_history)
        if base.optimal_swaps == 0:
            assert run.swap_checks == 1, (cname, aname, run.swap_history)
        assert run.depth_history[0] == (base.optimal_depth, True)
        assert run.swap_history[0] == (base.optimal_swaps, True)


# ==========================================================================
# Gate 4: the frontier walk on a scripted satisfiability threshold
# ==========================================================================


def test_frontier_walk_on_a_scripted_threshold():
    probed = []

    def probe(bound: int):
        sat = bound >= 25
        probed.append((bound, sat))
        return sat, ("model", bound) if sat else None

    outcome = run_bound_search(23, 1, probe)
    assert probed == [(23, False), (25, True), (24, False)]
    assert outcome.optimum == 25
    assert outcome.payload == ("model", 25)


# ==========================================================================
# Gate 5: the independent validator accepts every solution and rejects
#         corrupted variants with the right violation class
# ==========================================================================


def test_reported_solutions_survive_independent_validation(suite):
    for cname, aname in suite.instances():
        result = suite.solve(cname, aname)
        report = validate_solution(
            suite.circuits[cname], suite.graphs[aname], result.solution
        )
        assert report.ok, (cname, aname, report.violations)


def _non_edge(graph):
    edges = {tuple(sorted(e)) for e in graph.edges}
    for a in range(graph.num_qubits):
        for b in range(a + 1, graph.num_qubits):
            if (a, b) not in edges:
                return a, b
    raise AssertionError(f"{graph.name} is complete")


def _touching_edges(graph):
    for i, (a, b) in enumerate(graph.edges):
        for c, d in graph.edges[i + 1 :]:
            if {a, b} & {c, d}:
                return (a, b), (c, d)
    raise AssertionError(f"{graph.name} has no touching edge pair")


def test_corrupted_solutions_are_rejected_by_class(suite):
    rng = random.Random(20260816)
    pool = [
        (cname, aname, suite.solve(cname, aname).solution)
        for cname, aname in suite.instances()
    ]

    def run_category(kind, candidates, corrupt):
        assert candidates, f"no candidate solutions for {kind}"
        for i in range(100):
            cname, aname, sol = candidates[i % len(candidates)]
            circuit = suite.circuits[cname]
            graph = suite.graphs[aname]
            report = validate_solution(circuit, graph, corrupt(circuit, graph, sol))
            assert not report.ok, (kind, cname, aname)
            assert report.first.kind == kind, (
                f"{kind} corruption of {cname} on {aname} reported as "
                f"{report.first.kind}: {report.first.message}"
            )

    def break_injectivity(circuit, graph, sol):
        spots = list(sol.initial_map)
        i = rng.randrange(len(spots))
        if rng.random() < 0.5:
            j = (i + 1 + rng.randrange(len(spots) - 1)) % len(spots)
            spots[i] = spots[j]
        else:
            spots[i] = graph.num_qubits + rng.randrange(3)
        return dataclasses.replace(sol, initial_map=tuple(spots))

    run_category("injectivity", pool, break_injectivity)

    def break_order(circuit, graph, sol):
        i, j = rng.choice(sorted(build_dag(circuit).edges))
        times = list(sol.gate_times)
        times[j] = times[i]
        return dataclasses.replace(sol, gate_times=tuple(times))

    with_deps = [
        p for p in pool if build_dag(suite.circuits[p[0]]).edges
    ]
    run_category("order", with_deps, break_order)

    def break_swap_window(circuit, graph, sol):
        flavor = rng.randrange(3)
        if flavor == 0:                    # completes before its window fits
            extra = ((rng.choice(graph.edges), 1),)
        elif flavor == 1:                  # not a device edge at all
            extra = ((_non_edge(graph), 5),)
        else:                              # two swaps sharing a qubit overlap
            e1, e2 = _touching_edges(graph)
            extra = ((e1, 6), (e2, 7))
        return dataclasses.replace(sol, swaps=sol.swaps + extra)

    run_category("swap_overlap", pool, break_swap_window)

    def break_adjacency(circuit, graph, sol):
        edges = {tuple(sorted(e)) for e in graph.edges}
        pairs = [g.qubits for g in circuit.gates if g.is_two_qubit]
        for _ in range(200):
            mapping = tuple(rng.sample(range(graph.num_qubits), circuit.num_qubits))
            if any(tuple(sorted((mapping[a], mapping[b]))) not in edges
                   for a, b in pairs):
                return dataclasses.replace(sol, initial_map=mapping)
        raise AssertionError("no separating placement found")

    swap_free = [
        p for p in pool
        if p[2].swap_count == 0
        and any(g.is_two_qubit for g in suite.circuits[p[0]].gates)
    ]
    run_category("adjacency", swap_free, break_adjacency)


# ==========================================================================
# Gate 6: feature extraction against an independent evaluator
# ==========================================================================


def test_feature_extraction_matches_an_independent_evaluator():
    rng = random.Random(6)
    integer_fields = {0, 1, 2, 4}          # depth, width, qubit depth, 2q count
    for _ in range(200):
        circuit = random_circuit(rng)
        got = extract_features(circuit).as_tuple()
        want = oracles.feature_oracle(circuit)
        for idx, name in enumerate(FEATURE_NAMES):
            if idx in integer_fields:
                assert got[idx] == want[idx], (name, circuit)
            else:
                assert abs(got[idx] - want[idx]) <= 1e-9, (name, circuit)


# ==========================================================================
# Gate 7: every tree split is the exhaustive loss minimizer
# ==========================================================================


def _pvar(values):
    return statistics.pvariance(values) if len(values) > 1 else 0.0


def _check_node(node, rows, labels):
    if node.is_leaf:
        return 0
    want = oracles.minimal_split(rows, labels)
    assert want is not None
    feature, threshold = want
    assert node.split.feature_index == feature
    assert node.split.threshold == threshold

    left = [(r, y) for r, y in zip(rows, labels) if r[feature] <= threshold]
    right = [(r, y) for r, y in zip(rows, labels) if r[feature] > threshold]
    weighted = (
        len(left) * _pvar([y for _, y in left])
        + len(right) * _pvar([y for _, y in right])
    ) / len(rows)
    assert weighted <= node.node_mse + 1e-12

    return (
        1
        + _check_node(node.left, [r for r, _ in left], [y for _, y in left])
        + _check_node(node.right, [r for r, _ in right], [y for _, y in right])
    )


def test_tree_splits_match_exhaustive_minimization():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 50)
        rows = [
            tuple(
                float(rng.choice((0, 1, 2, 3)))
                if rng.random() < 0.5
                else round(rng.uniform(0.0, 5.0), 3)
                for _ in range(6)
            )
            for _ in range(n)
        ]
        labels = [rng.randint(0, 12) for _ in range(n)]
        tree = fit(rows, labels, max_depth=rng.choice((2, 3, 5)))
        splits = _check_node(tree.root, rows, labels)
        importances = tree.feature_importance()
        assert all(v >= 0 for v in importances)
        if splits:
            assert abs(sum(importances) - 1.0) <= 1e-9
        else:
            assert sum(importances) == 0.0


# ==========================================================================
# Gate 8: chunking follows the budget cycle, drops only interaction-free
#         residuals, and preserves order and dependency shape
# ==========================================================================


def test_chunking_budgets_residuals_and_reordering():
    rng = random.Random(8)
    for _ in range(100):
        circuit = random_circuit(rng, min_qubits=2, min_gates=1)
        budgets = tuple(rng.randint(1, 7) for _ in range(rng.randint(1, 3)))
        two_only = rng.random() < 0.3
        chunks = gate_allocation(circuit, ChunkPlan(budgets, two_only))

        source = [
            g for g in circuit.gates if g.is_two_qubit or not two_only
        ]
        groups, i, b = [], 0, 0
        while i < len(source):
            take = budgets[b % len(budgets)]
            if i + take <= len(source):
                groups.append(source[i : i + take])
                i, b = i + take, b + 1
            else:
                residual = source[i:]
                if any(g.is_two_qubit for g in residual):
                    groups.append(residual)
                else:
                    assert not any(g.is_two_qubit for g in residual)
                break

        assert [len(c.gates) for c in chunks] == [len(g) for g in groups]

        for chunk, group in zip(chunks, groups):
            # qubits are renumbered 0..k-1 in first-appearance order
            seen = []
            for g in chunk.gates:
                for q in g.qubits:
                    if q not in seen:
                        seen.append(q)
            assert seen == list(range(chunk.num_qubits))
            # names, arities, and the dependency DAG survive the relabeling
            assert [g.name for g in chunk.gates] == [g.name for g in group]
            original = make_circuit(
                circuit.num_qubits,
                [(g.name, g.qubits, g.params) for g in group],
            )
            assert oracles.dag_pairwise_oracle(chunk) == (
                oracles.dag_pairwise_oracle(original)
            )


# ==========================================================================
# Gate 9: nearest-neighbor refinement equals the reference editing pass
# ==========================================================================


def _sample_key(sample):
    return (sample.features.as_tuple(), sample.label, sample.source)


def test_neighbor_refinement_matches_reference_edits():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(5, 40)
        labels = [rng.randint(0, 2) for _ in range(n)]
        rows = [
            tuple(
                label * 2.0 + rng.gauss(0.0, 0.6) for _ in range(6)
            )
            for label in labels
        ]
        dataset = Dataset(
            "depth",
            [
                Sample(FeatureVector(*row), label, f"s{i}")
                for i, (row, label) in enumerate(zip(rows, labels))
            ],
        )
        for k_max in (1, 2, 3):
            if n <= k_max:
                continue
            refined = allknn_refine(dataset, k_max)
            keep = oracles.enn_reference(rows, labels, k_max)
            assert [_sample_key(s) for s in refined.samples] == [
                _sample_key(dataset.samples[i]) for i in keep
            ]
            original = {_sample_key(s) for s in dataset.samples}
            assert {_sample_key(s) for s in refined.samples} <= original

    flat = Dataset(
        "swaps",
        [
            Sample(FeatureVector(float(i), 1.0, 1.0, 0.5, 2.0, 0.1), 7, f"s{i}")
            for i in range(10)
        ],
    )
    for k_max in (1, 2, 3):
        assert allknn_refine(flat, k_max).samples == flat.samples


# ==========================================================================
# Gate 10: trained predictors cut solver work and never shift the optimum
# ==========================================================================


def test_seeding_reduces_search_work_without_changing_optima(
    suite, tmp_path_factory
):
    seeds = ["ghz_n4", "qft_n4", "adder_n4", "bv_n5", "ising_n4", "linear_n5"]
    inputs = [(name, load_bundled(name)) for name in seeds]
    plans = [ChunkPlan((4,)), ChunkPlan((6, 3))]
    corpus_dir = tmp_path_factory.mktemp("corpus")
    depth_ds, swap_ds = build_corpus(
        inputs, plans, line_graph(5), corpus_dir, kmax=3, refine=True,
        solver=suite.solver,
    )
    assert len(depth_ds.samples) >= 10

    def hold_out(ds):
        train = [s for i, s in enumerate(ds.samples) if i % 5 != 4]
        held = [s for i, s in enumerate(ds.samples) if i % 5 == 4]
        return train, held

    depth_train, held = hold_out(depth_ds)
    swap_train, _ = hold_out(swap_ds)
    depth_model = fit(
        [s.features.as_tuple() for s in depth_train],
        [s.label for s in depth_train],
        target="depth",
    )
    swap_model = fit(
        [s.features.as_tuple() for s in swap_train],
        [s.label for s in swap_train],
        target="swaps",
    )

    # source is "<seed name>:<sample dir>"; the directory half locates the
    # chunk's QASM inside the corpus.
    bench = [
        load_qasm(corpus_dir / s.source.split(":", 1)[1] / "original.qasm")
        for s in held
    ]
    assert len(bench) >= 3

    seeded_counts = {"depth": [], "swap": []}
    bare_counts = {"depth": [], "swap": []}
    seeded_wall = bare_wall = 0.0
    for graph in (line_graph(5), grid_graph(2, 3)):
        for circuit in bench:
            seeded = solve_optimal(
                circuit, graph, depth_model, swap_model, solver=suite.solver
            )
            bare = solve_optimal(circuit, graph, solver=suite.solver)
            assert (seeded.optimal_depth, seeded.optimal_swaps) == (
                bare.optimal_depth, bare.optimal_swaps,
            ), f"optimum shifted under seeding on {graph.name}"
            seeded_counts["depth"].append(seeded.depth_checks)
            seeded_counts["swap"].append(seeded.swap_checks)
            bare_counts["depth"].append(bare.depth_checks)
            bare_counts["swap"].append(bare.swap_checks)
            seeded_wall += sum(seeded.wall_time_per_check)
            bare_wall += sum(bare.wall_time_per_check)

    for phase in ("depth", "swap"):
        mean_seeded = statistics.mean(seeded_counts[phase])
        mean_bare = statistics.mean(bare_counts[phase])
        assert mean_seeded <= mean_bare + 2.0, (
            f"{phase} phase: seeded mean {mean_seeded:.2f} checks vs "
            f"unseeded {mean_bare:.2f}"
        )

    total_seeded = sum(seeded_counts["depth"]) + sum(seeded_counts["swap"])
    total_bare = sum(bare_counts["depth"]) + sum(bare_counts["swap"])
    print(
        f"\nseeded: {total_seeded} checks / {seeded_wall:.1f}s solver time;"
        f" unseeded: {total_bare} checks / {bare_wall:.1f}s"
        f" ({len(bench)} held-out circuits x 2 devices)"
    )

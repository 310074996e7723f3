"""Dataset construction: circuit chunking, qubit renumbering, solver
labeling, nearest-neighbor refinement, and corpus emission.

A long circuit is cut into training-sized chunks by walking its gate list
against a cycling list of size budgets; a chunk closes when it reaches the
current budget, and a trailing partial chunk survives only if it contains at
least one two-qubit gate.  Every chunk is then renumbered so qubits appear
as 0..k-1 in first-appearance order, which decouples the sample from the
parent circuit's labeling.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .arch import CouplingGraph
from .circuit import Circuit, Gate, emit_qasm
from .features import (
    FEATURE_NAMES,
    FeatureVector,
    extract_features,
    format_float,
    ordered_sum,
)

log = logging.getLogger(__name__)

DEFAULT_KMAX = 3


@dataclass(frozen=True)
class ChunkPlan:
    """Cycling gate-count budgets, optionally restricted to two-qubit gates."""

    budgets: tuple[int, ...]
    two_qubit_only: bool = False

    def __post_init__(self):
        if not self.budgets or any(b < 1 for b in self.budgets):
            raise ValueError("budgets must be a non-empty list of positive sizes")


@dataclass(frozen=True)
class Sample:
    features: FeatureVector
    label: Optional[int]
    source: str = ""


@dataclass
class Dataset:
    target: str                       # "depth" or "swaps"
    samples: list[Sample] = field(default_factory=list)
    graph: str = ""

    def rows(self) -> list[tuple[float, ...]]:
        return [s.features.as_tuple() for s in self.samples]

    def labels(self) -> list[int]:
        return [s.label for s in self.samples]


def qubit_reorder(circuit: Circuit) -> Circuit:
    """Renumber qubits 0..k-1 in order of first appearance.

    Gates are scanned in order and each gate's qubits in listed order; the
    result's width is the number of distinct qubits actually used.
    """
    mapping: dict[int, int] = {}
    for g in circuit.gates:
        for q in g.qubits:
            if q not in mapping:
                mapping[q] = len(mapping)
    gates = tuple(
        Gate(g.id, g.name, tuple(mapping[q] for q in g.qubits), g.params)
        for g in circuit.gates
    )
    return Circuit(num_qubits=max(len(mapping), 1), gates=gates)


def gate_allocation(circuit: Circuit, plan: ChunkPlan) -> list[Circuit]:
    """Cut a circuit into renumbered chunks following the budget cycle.

    The final partial chunk is kept only when it contains a two-qubit gate;
    budget-sized chunks are kept unconditionally.
    """
    source = [
        g for g in circuit.gates if g.is_two_qubit or not plan.two_qubit_only
    ]
    chunks: list[Circuit] = []
    pending: list[Gate] = []
    budget_index = 0

    def close(gates: list[Gate]):
        renumbered = tuple(
            Gate(i, g.name, g.qubits, g.params) for i, g in enumerate(gates)
        )
        chunk = Circuit(num_qubits=circuit.num_qubits, gates=renumbered)
        chunks.append(qubit_reorder(chunk))

    for gate in source:
        pending.append(gate)
        if len(pending) == plan.budgets[budget_index % len(plan.budgets)]:
            close(pending)
            pending = []
            budget_index += 1
    if pending and any(g.is_two_qubit for g in pending):
        close(pending)
    return chunks


# --------------------------------------------------------------------------
# Nearest-neighbor refinement
# --------------------------------------------------------------------------


def _standardize(rows: Sequence[Sequence[float]]) -> list[tuple[float, ...]] | None:
    """Z-score each column; returns None when every row is identical."""
    cols = list(zip(*rows))
    n = len(rows)
    means = [ordered_sum(c) / n for c in cols]
    stds = []
    for c, m in zip(cols, means):
        var = ordered_sum((v - m) ** 2 for v in c) / n
        stds.append(math.sqrt(var))
    if all(s == 0.0 for s in stds):
        return None
    return [
        tuple((v - m) / s if s > 0.0 else 0.0 for v, m, s in zip(row, means, stds))
        for row in rows
    ]


def allknn_refine(dataset: Dataset, k_max: int = DEFAULT_KMAX) -> Dataset:
    """Iterative edited-nearest-neighbor cleaning for n = 1..k_max.

    In each round, every surviving sample whose label is not among the modal
    labels of its n nearest neighbors (Euclidean distance over z-scored
    features) is removed; removals within a round are batched.  Neighbors
    at equal distance are taken in ascending sample index.  Datasets whose
    features are all identical pass through unchanged.

    Samples with equal z-scored rows share every distance, so each round
    measures distances between the distinct surviving rows only: its cost
    grows with the square of the number of distinct rows, not of samples.
    """
    if len(dataset.samples) <= k_max:
        raise ValueError(f"need more than k_max={k_max} samples to refine")
    scaled = _standardize(dataset.rows())
    if scaled is None:
        return Dataset(dataset.target, list(dataset.samples), dataset.graph)

    labels = dataset.labels()
    alive = list(range(len(dataset.samples)))
    for n in range(1, k_max + 1):
        if len(alive) <= n:
            break
        groups: dict[tuple[float, ...], list[int]] = {}
        for i in alive:
            groups.setdefault(scaled[i], []).append(i)
        members = list(groups.values())
        removed = []
        for p, group in groups.items():
            order = sorted((math.dist(p, q), x) for x, q in enumerate(groups))
            # The nearest samples by (distance, index), through every tie at
            # the last distance needed: n for each member besides itself.  No
            # group can place more than its first n + 1 members among them.
            near: list[tuple[float, int]] = []
            for d, x in order:
                if len(near) > n and d != near[-1][0]:
                    break
                near.extend((d, j) for j in members[x][: n + 1])
            near.sort()
            for i in group:
                ranked = (j for _, j in near if j != i)
                counts: dict[int, int] = {}
                for j in islice(ranked, n):
                    counts[labels[j]] = counts.get(labels[j], 0) + 1
                top = max(counts.values())
                modal = {lab for lab, c in counts.items() if c == top}
                if labels[i] not in modal:
                    removed.append(i)
        if removed:
            gone = set(removed)
            alive = [i for i in alive if i not in gone]
    return Dataset(
        dataset.target, [dataset.samples[i] for i in alive], dataset.graph
    )


# --------------------------------------------------------------------------
# CSV dataset serialization
# --------------------------------------------------------------------------

_CSV_HEADER = list(FEATURE_NAMES) + ["label", "source"]


def save_dataset(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for s in dataset.samples:
            row = []
            for name in FEATURE_NAMES:
                v = getattr(s.features, name)
                row.append(format_float(v) if isinstance(v, float) else v)
            row.append(s.label)
            row.append(s.source)
            writer.writerow(row)


def load_dataset(path, target: str = "depth") -> Dataset:
    samples = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or list(reader.fieldnames) != _CSV_HEADER:
            raise ValueError(f"{path}: expected columns {_CSV_HEADER}")
        for row in reader:
            fv = FeatureVector(
                circuit_depth=int(row["circuit_depth"]),
                circuit_width=int(row["circuit_width"]),
                max_qubit_depth=int(row["max_qubit_depth"]),
                operation_density=float(row["operation_density"]),
                two_qubit_gate_count=int(row["two_qubit_gate_count"]),
                entanglement_variance=float(row["entanglement_variance"]),
            )
            samples.append(Sample(fv, int(row["label"]), row["source"]))
    return Dataset(target=target, samples=samples)


# --------------------------------------------------------------------------
# Labeling and corpus emission
# --------------------------------------------------------------------------


def label_sample(circuit: Circuit, graph: CouplingGraph, **solve_kwargs):
    """Optimal (depth, swaps) for one circuit, via the full solver search."""
    from .search import solve_optimal  # local import: search pulls in backend

    result = solve_optimal(circuit, graph, **solve_kwargs)
    return result


def build_corpus(
    inputs: Iterable[tuple[str, Circuit]],
    plans: Sequence[ChunkPlan],
    graph: CouplingGraph,
    out_dir,
    *,
    kmax: int = DEFAULT_KMAX,
    refine: bool = True,
    jobs: int = 1,
    **solve_kwargs,
) -> tuple[Dataset, Dataset]:
    """Chunk, label, and write an MLQD-style sample corpus.

    Every chunk gets a directory ``sample_NNNN/`` holding ``original.qasm``,
    ``result/mapped.qasm`` and ``info.json`` with the optimal depth, swap
    count, graph name, and search counts.  Returns the depth-target and
    swap-target datasets (optionally refined), which are also written as
    ``depth_dataset.csv`` / ``swaps_dataset.csv`` under ``out_dir``.
    Labeling runs on ``jobs`` worker threads (each check is its own solver
    subprocess, so threads parallelize cleanly).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    depth_ds = Dataset("depth", graph=graph.name)
    swap_ds = Dataset("swaps", graph=graph.name)
    index = 0

    work = []
    for source_name, circuit in inputs:
        for plan in plans:
            for chunk_no, chunk in enumerate(gate_allocation(circuit, plan)):
                if chunk.num_qubits > graph.num_qubits:
                    log.warning(
                        "%s chunk %d: %d qubits exceed device %s; skipped",
                        source_name, chunk_no, chunk.num_qubits, graph.name,
                    )
                    continue
                work.append((source_name, chunk_no, chunk))

    def label(item):
        source_name, chunk_no, chunk = item
        try:
            return label_sample(chunk, graph, **solve_kwargs)
        except Exception as exc:  # timeouts / solver errors: skip sample
            log.warning(
                "%s chunk %d: labeling failed (%s); skipped",
                source_name, chunk_no, exc,
            )
            return None

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(label, work))
    else:
        results = [label(item) for item in work]

    for (source_name, chunk_no, chunk), result in zip(work, results):
        if result is None:
            continue
        sample_dir = out / f"sample_{index:04d}"
        (sample_dir / "result").mkdir(parents=True, exist_ok=True)
        (sample_dir / "original.qasm").write_text(emit_qasm(chunk))
        (sample_dir / "result" / "mapped.qasm").write_text(
            emit_qasm(result.solution.mapped_circuit)
        )
        info = {
            "depth": result.optimal_depth,
            "swaps": result.optimal_swaps,
            "graph": graph.name,
            "search_counts": {
                "depth_checks": result.depth_checks,
                "swap_checks": result.swap_checks,
            },
        }
        (sample_dir / "info.json").write_text(json.dumps(info, indent=2) + "\n")
        fv = extract_features(chunk)
        rel = str(sample_dir.name)
        depth_ds.samples.append(Sample(fv, result.optimal_depth, f"{source_name}:{rel}"))
        swap_ds.samples.append(Sample(fv, result.optimal_swaps, f"{source_name}:{rel}"))
        index += 1

    if refine and len(depth_ds.samples) > kmax:
        depth_ds = allknn_refine(depth_ds, kmax)
        swap_ds = allknn_refine(swap_ds, kmax)
    save_dataset(depth_ds, out / "depth_dataset.csv")
    save_dataset(swap_ds, out / "swaps_dataset.csv")
    return depth_ds, swap_ds

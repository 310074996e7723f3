"""Dataset construction: circuit chunking, qubit renumbering, solver
labeling, nearest-neighbor refinement, and corpus emission.

A long circuit is cut into training-sized chunks by walking its gate list
against a cycling list of size budgets; a chunk closes when it reaches the
current budget, and a trailing partial chunk survives only if it contains at
least one two-qubit gate.  Every chunk is then renumbered so qubits appear
as 0..k-1 in first-appearance order, which decouples the sample from the
parent circuit's labeling.

A dataset CSV row is a sample's features, then its label and source.
``features.py`` owns the feature columns, their types and their text form;
this module adds only the label (an int) and the source (free text).
"""

from __future__ import annotations

import contextlib
import csv
import heapq
import json
import logging
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import search
from .arch import CouplingGraph
from .backend import Session, SolverConfig
from .circuit import Circuit, Gate, emit_qasm
from .encode import DEFAULT_SWAP_DURATION, check_swap_duration
from .features import FEATURE_NAMES, FEATURE_TYPES, FeatureVector, extract_features, parse_numbers

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


def _standardize(rows: Sequence[tuple[float, ...]]) -> list[tuple[float, ...]] | None:
    """Z-score each column; returns None when every row is identical.

    Equal rows share one scaled tuple.  Means and variances add left to
    right, as ``features.ordered_sum`` does, in loops inlined for speed.
    """
    n = len(rows)
    means = []
    stds = []
    for c in zip(*rows):
        total = 0.0
        for v in c:
            total += v
        m = total / n
        total = 0.0
        for v in c:
            total += (v - m) ** 2
        means.append(m)
        stds.append(math.sqrt(total / n))
    if all(s == 0.0 for s in stds):
        return None
    scaled: dict[tuple, tuple[float, ...]] = {}
    for row in rows:
        if row not in scaled:
            scaled[row] = tuple(
                (v - m) / s if s > 0.0 else 0.0 for v, m, s in zip(row, means, stds)
            )
    return [scaled[row] for row in rows]


def _modal(labels: Sequence[int], neighbors: Iterable[int]) -> set[int]:
    """The most frequent labels among ``neighbors``."""
    counts: dict[int, int] = {}
    for j in neighbors:
        counts[labels[j]] = counts.get(labels[j], 0) + 1
    top = max(counts.values())
    return {lab for lab, c in counts.items() if c == top}


def allknn_refine(dataset: Dataset, k_max: int = DEFAULT_KMAX) -> Dataset:
    """Iterative edited-nearest-neighbor cleaning for n = 1..k_max.

    In each round, every surviving sample whose label is not among the modal
    labels of its n nearest neighbors (Euclidean distance over z-scored
    features) is removed; removals within a round are batched.  Neighbors
    at equal distance are taken in ascending sample index.  Datasets whose
    features are all identical pass through unchanged.

    Samples with equal z-scored rows share every distance, so distances are
    measured between distinct rows only, and removals never change one.
    Each distinct row is ranked once per call into the prefix that holds
    its first k_max + 1 samples and every tie at the last distance.  A row
    with more than k_max samples measures nothing: they are its prefix, at
    distance 0, and every other row is strictly farther.  Any other row
    measures its distances to the rows that still have samples and sorts
    only those within its (k_max + 1)-th smallest distance; each of those
    rows holds a sample, so the prefix lies within that cut.  A round walks
    a prefix past rows whose samples have all gone; a row is ranked again,
    over the survivors, only when removals leave its prefix fewer than
    n + 1 samples.  Everything past a prefix is strictly farther than its
    last row, so the walk finds the same neighbors as a full sort.  Time
    grows with the number G of distinct rows times the number of rows with
    at most k_max samples, memory with G times the prefix length.  The
    first n + 1 samples nearest to a row decide all of its samples: one
    that is among the first n has the other n as neighbors, and every
    other sample the first n.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, not {k_max}")
    if len(dataset.samples) <= k_max:
        raise ValueError(f"need more than k_max={k_max} samples to refine")
    scaled = _standardize(dataset.rows())
    if scaled is None:
        return Dataset(dataset.target, list(dataset.samples), dataset.graph)

    labels = dataset.labels()
    groups: dict[tuple[float, ...], list[int]] = {}
    for i, row in enumerate(scaled):
        groups.setdefault(row, []).append(i)
    rows = list(groups)
    members = list(groups.values())  # each row's surviving samples, ascending

    def rank(p: int, live: list[int], points: list) -> list[tuple[float, int]]:
        """(distance, row) for the rows ``live``, at ``points``, nearest to
        row ``p``."""
        if len(members[p]) > k_max:  # its own samples come first
            return [(0.0, p)]
        dists = list(map(math.dist, repeat(rows[p]), points))
        # each live row holds a sample, so k_max + 1 rows hold the prefix
        cut = heapq.nsmallest(k_max + 1, dists)[-1]
        order = [o for o, d in enumerate(dists) if d <= cut]
        order.sort(key=dists.__getitem__)
        prefix: list[tuple[float, int]] = []
        count = 0
        for o in order:
            if count > k_max and dists[o] != prefix[-1][0]:
                break
            prefix.append((dists[o], live[o]))
            count += len(members[live[o]])
        return prefix

    def nearest(prefix: Sequence[tuple[float, int]], n: int) -> list[tuple[float, int]]:
        """The nearest samples by (distance, index), through every tie at
        the last distance needed: n for each member besides itself.  No
        row can place more than its first n + 1 members among them."""
        near: list[tuple[float, int]] = []
        for d, x in prefix:
            if not members[x]:
                continue
            if len(near) > n and d != near[-1][0]:
                break
            near.extend((d, j) for j in members[x][: n + 1])
        near.sort()
        return near

    ranked: list[Sequence[tuple[float, int]]] = [()] * len(rows)
    alive = list(range(len(dataset.samples)))
    for n in range(1, k_max + 1):
        if len(alive) <= n:
            break
        live = [x for x, group in enumerate(members) if group]
        points = [rows[x] for x in live]
        removed = []
        for p in live:
            near = nearest(ranked[p], n)
            if len(near) <= n:  # not ranked yet, or emptied by removals
                ranked[p] = rank(p, live, points)
                near = nearest(ranked[p], n)
            head = [j for _, j in near[: n + 1]]
            first = head[:n]
            others = _modal(labels, first)
            for i in members[p]:
                if i in first:
                    modal = _modal(labels, (j for j in head if j != i))
                else:
                    modal = others
                if labels[i] not in modal:
                    removed.append(i)
        if removed:
            gone = set(removed)
            alive = [i for i in alive if i not in gone]
            members[:] = [[i for i in group if i not in gone] for group in members]
    return Dataset(
        dataset.target, [dataset.samples[i] for i in alive], dataset.graph
    )


# --------------------------------------------------------------------------
# CSV dataset serialization
# --------------------------------------------------------------------------

_CSV_HEADER = [*FEATURE_NAMES, "label", "source"]
_CSV_NUMBERS = (*FEATURE_TYPES, int)  # the types of every column but source


def save_dataset(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for s in dataset.samples:
            writer.writerow([*s.features.to_text(), s.label, s.source])


def load_dataset(path, target: str = "depth") -> Dataset:
    """Read a dataset CSV; a row that is not a sample raises ValueError."""
    samples = []
    parsed: dict[tuple[str, ...], tuple[FeatureVector, int]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != _CSV_HEADER:
            raise ValueError(f"{path}: expected columns {_CSV_HEADER}")
        for row in reader:
            if not row:  # a blank line
                continue
            try:
                if len(row) != len(_CSV_HEADER):
                    raise ValueError(f"{len(row)} fields, expected {len(_CSV_HEADER)}")
                numbers = tuple(row[:-1])
                sample = parsed.get(numbers)
                if sample is None:  # rows that share their numbers share one parse
                    *features, label = parse_numbers(_CSV_HEADER, _CSV_NUMBERS, numbers)
                    sample = parsed[numbers] = FeatureVector(*features), label
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}, {exc}") from None
            samples.append(Sample(*sample, row[-1]))
    return Dataset(target=target, samples=samples)


# --------------------------------------------------------------------------
# Labeling and corpus emission
# --------------------------------------------------------------------------


def label_sample(circuit: Circuit, graph: CouplingGraph, **solve_kwargs):
    """Optimal (depth, swaps) for one circuit, via the full solver search;
    ``build_corpus`` passes its worker's live session as ``solver``."""
    return search.solve_optimal(circuit, graph, **solve_kwargs)


def build_corpus(
    inputs: Iterable[tuple[str, Circuit]],
    plans: Sequence[ChunkPlan],
    graph: CouplingGraph,
    out_dir,
    *,
    kmax: int = DEFAULT_KMAX,
    refine: bool = True,
    jobs: int = 1,
    solver: Optional[SolverConfig] = None,
    swap_duration: int = DEFAULT_SWAP_DURATION,
) -> tuple[Dataset, Dataset]:
    """Chunk, label, and write an MLQD-style sample corpus.

    Every chunk gets a directory ``sample_NNNN/`` holding ``original.qasm``,
    ``result/mapped.qasm`` and ``info.json`` with the optimal depth, swap
    count, graph name, and search counts.  Returns the depth-target and
    swap-target datasets (optionally refined), which are also written as
    ``depth_dataset.csv`` / ``swaps_dataset.csv`` under ``out_dir``.

    Labeling runs on ``jobs`` worker threads.  Each solve takes one of
    ``jobs`` solver sessions and gives it back when done, so at most
    ``jobs`` solver processes run, each serving one solve at a time within
    ``solver.timeout``.  A failed solve's process is killed and the next
    solve on that session starts a fresh one.  Every session is closed
    before this returns or raises.

    ``out_dir`` must not hold ``sample_*`` entries already: a second build
    there would leave the first one's samples beside its own.  This, like
    ``jobs``, ``kmax`` and ``swap_duration``, is checked before anything is
    solved or written.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    if refine and kmax < 1:
        raise ValueError(f"kmax must be at least 1, not {kmax}")
    check_swap_duration(swap_duration)
    out = Path(out_dir)
    if next(out.glob("sample_*"), None) is not None:
        raise ValueError(f"{out} already holds sample_* entries from an earlier build")
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

    # Each worker holds at most one session, so one is always idle when a
    # solve starts; deque appends and pops are thread-safe.
    idle: deque[Session] = deque()

    def label(item):
        source_name, chunk_no, chunk = item
        session = idle.pop()
        try:
            return label_sample(chunk, graph, solver=session, swap_duration=swap_duration)
        except (search.SearchError, search.InfeasibleError) as exc:
            # any other exception is a bug in qlayout and propagates
            log.warning(
                "%s chunk %d: labeling failed (%s); skipped",
                source_name, chunk_no, exc,
            )
            return None
        finally:
            idle.append(session)

    with contextlib.ExitStack() as stack:
        idle.extend(stack.enter_context(Session(solver)) for _ in range(jobs))
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

"""Exhaustive reference optima and the data files of the benchmark.

The reference search is a copy of ``tests/oracles.brute_force_optimum`` that
also returns the schedule it found, so that the schedule can serve the
stand-in solver as a witness.  It enumerates every injective initial
placement and every schedule of gate executions and swap completions, and it
never consults qlayout's encoder or solver.  Failed search states are
memoized, which prunes repeated work without changing which schedule is
found first.

Run ``python3 qbench/reference.py`` from the repository root to regenerate
``qbench/data/``: the witness pool, the ``train`` tables and the manifest of
expected results.  Generation takes about ten minutes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from qlayout.arch import CouplingGraph, resolve_graph  # noqa: E402
from qlayout.augment import ChunkPlan, Dataset, Sample, gate_allocation, save_dataset  # noqa: E402
from qlayout.backend import MappingSolution  # noqa: E402
from qlayout.circuit import Circuit, emit_qasm, longest_chain, make_circuit  # noqa: E402
from qlayout.corpus import circuit_names, load_bundled  # noqa: E402
from qlayout.features import extract_features  # noqa: E402

from instances import (  # noqa: E402
    AUGMENT_BUDGETS, AUGMENT_DEVICE, MAP_CIRCUITS, MAP_DEVICES, TRAIN_ROWS, TRAIN_SEED,
)
from standin import Witness  # noqa: E402

SWAP_DURATION = 3
DEPTH_CAP = 24
SWAP_CAP = 3

AUGMENT_PLAN = ChunkPlan(AUGMENT_BUDGETS)


@dataclass(frozen=True)
class Schedule:
    """An optimal schedule found by the exhaustive search."""

    depth: int
    swap_count: int
    placement: tuple[int, ...]                     # logical -> physical at t=0
    gate_times: tuple[int, ...]
    swaps: tuple[tuple[tuple[int, int], int], ...]  # ((a, b), completion time)


class Unsettled(RuntimeError):
    """The search found no optimum that is stable under its caps."""


def exhaustive_schedule(
    circuit: Circuit,
    graph: CouplingGraph,
    swap_duration: int = SWAP_DURATION,
    depth_cap: int = DEPTH_CAP,
    swap_cap: int = SWAP_CAP,
) -> Schedule:
    """(optimal depth, optimal swaps at that depth) and a schedule reaching it.

    Schedules that use more than ``swap_cap`` swaps are not considered.
    """
    gates = circuit.gates
    if not any(len(g.qubits) == 2 for g in gates):
        times, ready = [], [0] * circuit.num_qubits
        for g in gates:
            t = max(ready[q] for q in g.qubits)
            times.append(t)
            for q in g.qubits:
                ready[q] = t + 1
        return Schedule(
            longest_chain(circuit), 0, tuple(range(circuit.num_qubits)), tuple(times), ()
        )

    preds: dict[int, set[int]] = {g.id: set() for g in gates}
    last: dict[int, int] = {}
    for g in gates:
        for q in g.qubits:
            if q in last:
                preds[g.id].add(last[q])
            last[q] = g.id

    edge_set = {tuple(sorted(e)) for e in graph.edges}
    all_edges = sorted(edge_set)
    nq = circuit.num_qubits

    def chain_lower_bound(done_times: dict[int, int]) -> int:
        depth_at: dict[int, int] = {}
        best = 0
        for g in gates:
            if g.id in done_times:
                continue
            d = 1
            for p in preds[g.id]:
                if p in done_times:
                    continue
                d = max(d, depth_at[p] + 1)
            depth_at[g.id] = d
            best = max(best, d)
        return best

    def search(bound: int, max_swaps: int):
        """(initial placement, gate times, swaps) of the first schedule found."""
        failed: set = set()

        def rec(t, placement, done_times, gate_uses, swaps):
            if len(done_times) == len(gates):
                return done_times, swaps
            if t >= bound or t + chain_lower_bound(done_times) > bound:
                return None
            # Only the recent past constrains the future; key on that.
            key = (
                t, placement, frozenset(done_times), len(swaps),
                frozenset((p, tt) for p, s in gate_uses.items() for tt in s
                          if tt > t - swap_duration),
                frozenset(s for s in swaps if s[1] > t - swap_duration),
            )
            if key in failed:
                return None

            eligible = []
            for g in gates:
                if g.id in done_times:
                    continue
                if any(p not in done_times or done_times[p] >= t for p in preds[g.id]):
                    continue
                spots = [placement[q] for q in g.qubits]
                if len(spots) == 2 and tuple(sorted(spots)) not in edge_set:
                    continue
                eligible.append(g)

            # greedily prefer executing more gates, then fewer swaps
            for k in range(len(eligible), -1, -1):
                for combo in itertools.combinations(eligible, k):
                    spots = []
                    for g in combo:
                        spots.extend(placement[q] for q in g.qubits)
                    if len(set(spots)) != len(spots):
                        continue
                    new_done = dict(done_times)
                    new_uses = {p: set(s) for p, s in gate_uses.items()}
                    for g in combo:
                        new_done[g.id] = t
                        for q in g.qubits:
                            new_uses.setdefault(placement[q], set()).add(t)

                    candidates = []
                    if t >= swap_duration - 1:
                        for a, b in all_edges:
                            window = range(t - swap_duration + 1, t + 1)
                            if any(
                                tt in new_uses.get(p, ())
                                for p in (a, b)
                                for tt in window
                            ):
                                continue
                            if any(
                                ({a, b} & {x, y}) and ts > t - swap_duration
                                for (x, y), ts in swaps
                            ):
                                continue
                            candidates.append((a, b))
                    for m in range(len(candidates) + 1):
                        if len(swaps) + m > max_swaps:
                            break
                        for scombo in itertools.combinations(candidates, m):
                            touched = [p for e in scombo for p in e]
                            if len(set(touched)) != len(touched):
                                continue
                            new_placement = list(placement)
                            for a, b in scombo:
                                for q in range(nq):
                                    if new_placement[q] == a:
                                        new_placement[q] = b
                                    elif new_placement[q] == b:
                                        new_placement[q] = a
                            found = rec(
                                t + 1,
                                tuple(new_placement),
                                new_done,
                                new_uses,
                                swaps + tuple(((a, b), t) for a, b in scombo),
                            )
                            if found is not None:
                                return found
            failed.add(key)
            return None

        for placement in itertools.permutations(range(graph.num_qubits), nq):
            found = rec(0, tuple(placement), {}, {}, ())
            if found is not None:
                done_times, swaps = found
                return placement, tuple(done_times[g.id] for g in gates), swaps
        return None

    found = None
    for bound in range(1, depth_cap + 1):
        found = search(bound, swap_cap)
        if found is not None:
            depth = bound
            break
    if found is None:
        raise Unsettled(f"no schedule within {depth_cap} steps and {swap_cap} swaps")
    while found[2]:
        better = search(depth, len(found[2]) - 1)
        if better is None:
            break
        found = better
    placement, times, swaps = found
    return Schedule(depth, len(swaps), tuple(placement), times, swaps)


def settled_schedule(circuit: Circuit, graph: CouplingGraph) -> Schedule:
    """The optimum, accepted only if raising the swap cap by one keeps it.

    One search under the raised cap decides this: if its optimum uses at
    most ``SWAP_CAP`` swaps, a search under ``SWAP_CAP`` reaches the same
    depth (that schedule is within its cap, and it has fewer options) and
    the same swap count at that depth.  Otherwise the optimum moved.
    """
    raised = exhaustive_schedule(circuit, graph, swap_cap=SWAP_CAP + 1)
    if raised.swap_count > SWAP_CAP:
        raise Unsettled(
            f"optimum ({raised.depth}, {raised.swap_count}) needs more than"
            f" {SWAP_CAP} swaps"
        )
    return raised


# --------------------------------------------------------------------------
# Witnesses
# --------------------------------------------------------------------------


def to_solution(schedule: Schedule) -> MappingSolution:
    """The schedule as a qlayout solution, for ``validate_solution``."""
    completions = list(schedule.gate_times) + [t for _, t in schedule.swaps]
    return MappingSolution(
        initial_map=schedule.placement,
        gate_times=schedule.gate_times,
        swaps=schedule.swaps,
        final_depth=1 + max(completions) if completions else 0,
        swap_count=len(schedule.swaps),
        mapped_circuit=Circuit(num_qubits=1, gates=()),
    )


def to_witness(key: str, schedule: Schedule, graph: CouplingGraph) -> Witness:
    """The schedule as the stand-in's variable values."""
    last = max((t for _, t in schedule.swaps), default=-1)
    current = list(schedule.placement)
    pos = []
    for t in range(last + 2):
        pos.append(list(current))
        for (a, b), ts in schedule.swaps:
            if ts == t:
                current = [b if p == a else a if p == b else p for p in current]
    swaps = [(graph.edges.index(tuple(sorted(e))), t) for e, t in schedule.swaps]
    return Witness(key, schedule.depth, schedule.swap_count, pos, schedule.gate_times, swaps)


def schedule_from_witness(witness: Witness, graph: CouplingGraph) -> Schedule:
    swaps = tuple((graph.edges[k], t) for k, t in sorted(witness.swaps, key=lambda s: s[1]))
    return Schedule(
        witness.depth, witness.swap_count, witness.pos[0], witness.time, swaps
    )


# --------------------------------------------------------------------------
# Instances
# --------------------------------------------------------------------------


def qasm_key(qasm: str) -> str:
    """Pool key of a chunk: a digest of its OpenQASM text."""
    return "chunk:" + hashlib.sha256(qasm.encode()).hexdigest()[:16]


def chunk_key(chunk: Circuit) -> str:
    return qasm_key(emit_qasm(chunk))


def augment_inputs() -> list[tuple[str, Circuit]]:
    return [(name, load_bundled(name)) for name in circuit_names()]


ONE_QUBIT_GATES = ("h", "x", "s", "t", "tdg", "z")
TWO_QUBIT_GATES = ("cx", "cz")


def random_circuit(rng: random.Random, max_qubits: int = 6, max_gates: int = 30) -> Circuit:
    """The generator of ``tests/conftest.random_circuit``, default bounds."""
    nq = rng.randint(1, max_qubits)
    ops = []
    for _ in range(rng.randint(0, max_gates)):
        if nq >= 2 and rng.random() < 0.45:
            a, b = rng.sample(range(nq), 2)
            ops.append((rng.choice(TWO_QUBIT_GATES), (a, b)))
        elif rng.random() < 0.2:
            ops.append(("rz", (rng.randrange(nq),), (round(rng.uniform(0, 3), 4),)))
        else:
            ops.append((rng.choice(ONE_QUBIT_GATES), (rng.randrange(nq),)))
    return make_circuit(nq, ops)


# --------------------------------------------------------------------------
# Generation
# --------------------------------------------------------------------------


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def generate() -> None:
    from qlayout.augment import allknn_refine
    from qlayout.backend import validate_solution
    from qlayout.regressor import fit

    DATA.mkdir(exist_ok=True)
    witnesses = []
    unsettled = {}
    for cname in MAP_CIRCUITS:
        for dname in MAP_DEVICES:
            circuit, graph = load_bundled(cname), resolve_graph(dname)
            try:
                schedule = settled_schedule(circuit, graph)
            except Unsettled as exc:
                unsettled[f"{cname}@{dname}"] = str(exc)
                print(f"map {cname}@{dname}: {exc}", flush=True)
                continue
            assert validate_solution(circuit, graph, to_solution(schedule)).ok
            witnesses.append(to_witness(f"{cname}@{dname}", schedule, graph))
            print(f"map {cname}@{dname}: {schedule.depth}, {schedule.swap_count}", flush=True)

    graph = resolve_graph(AUGMENT_DEVICE)
    seen = set()
    for name, circuit in augment_inputs():
        for chunk in gate_allocation(circuit, AUGMENT_PLAN):
            key = chunk_key(chunk)
            if key in seen or chunk.num_qubits > graph.num_qubits:
                continue
            seen.add(key)
            schedule = settled_schedule(chunk, graph)
            assert validate_solution(chunk, graph, to_solution(schedule)).ok
            witnesses.append(to_witness(key, schedule, graph))
    print(f"augment: {len(seen)} distinct chunks", flush=True)

    rng = random.Random(TRAIN_SEED)
    depth_ds = Dataset("depth", graph=graph.name)
    swap_ds = Dataset("swaps", graph=graph.name)
    skipped = 0
    circuits = 0
    while len(depth_ds.samples) < TRAIN_ROWS:
        circuit = random_circuit(rng)
        circuits += 1
        for no, chunk in enumerate(gate_allocation(circuit, AUGMENT_PLAN)):
            if len(depth_ds.samples) == TRAIN_ROWS:
                break
            if chunk.num_qubits > graph.num_qubits:
                skipped += 1
                continue
            schedule = settled_schedule(chunk, graph)
            assert validate_solution(chunk, graph, to_solution(schedule)).ok
            fv = extract_features(chunk)
            source = f"random{circuits - 1}:chunk{no}"
            depth_ds.samples.append(Sample(fv, schedule.depth, source))
            swap_ds.samples.append(Sample(fv, schedule.swap_count, source))
    print(f"train: {circuits} circuits, {skipped} wide chunks skipped", flush=True)

    pool_path = DATA / "witnesses.txt"
    pool_path.write_text(
        f"# qbench witness pool ({len(witnesses)} schedules, swap duration"
        f" {SWAP_DURATION}); see Witness in standin.py for the line format\n"
        + "".join(w.format() + "\n" for w in witnesses)
    )
    save_dataset(depth_ds, DATA / "train_depth.csv")
    save_dataset(swap_ds, DATA / "train_swaps.csv")

    # Expected train results, from the tables as the benchmark loads them.
    from qlayout.augment import load_dataset

    expected = {}
    for target in ("depth", "swaps"):
        ds = load_dataset(DATA / f"train_{target}.csv", target)
        refined = allknn_refine(ds)
        tree = fit(refined.rows(), refined.labels(), target=target)
        expected[target] = {
            "refined_rows": len(refined.samples),
            "tree_sha256": hashlib.sha256(tree.to_json().encode()).hexdigest(),
            "predictions_sha256": hashlib.sha256(
                json.dumps([tree.predict(r) for r in ds.rows()]).encode()
            ).hexdigest(),
        }
    manifest = {
        "generator": "python3 qbench/reference.py",
        "swap_duration": SWAP_DURATION,
        "depth_cap": DEPTH_CAP,
        "swap_cap": SWAP_CAP,
        "map_unsettled": unsettled,
        "train_seed": TRAIN_SEED,
        "train_circuits": circuits,
        "train_wide_chunks_skipped": skipped,
        "files": {
            p.name: file_digest(p)
            for p in (pool_path, DATA / "train_depth.csv", DATA / "train_swaps.csv")
        },
        "train": expected,
    }
    (DATA / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


if __name__ == "__main__":
    generate()

"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from the definitions, not by
calling into qlayout internals, so agreement is evidence rather than
tautology.  The only shared pieces are the data types being checked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from qlayout.arch import CouplingGraph
from qlayout.augment import DEFAULT_KMAX, Dataset
from qlayout.backend import SolverConfig, check
from qlayout.circuit import Circuit, build_dag
from qlayout.encode import (
    EncodingContext,
    bit_length,
    build_context,
    emit_script,
    encode_base,
    encode_depth_bound,
    encode_swap_bound,
)
from qlayout.regressor import DEFAULT_MAX_DEPTH, RegressionTree, SplitCandidate, TreeNode
from qlayout.search import BoundSearchOutcome, SearchError


def left_to_right_sum(values) -> float:
    """Plain float accumulation, the builtin ``sum`` of CPython up to 3.11.

    Since 3.12 the builtin compensates rounding; the package adds left to
    right on every interpreter, so oracles that mirror its arithmetic
    exactly use this.
    """
    total = 0.0
    for v in values:
        total += v
    return total


# --------------------------------------------------------------------------
# Circuit-structure oracles
# --------------------------------------------------------------------------


def dag_pairwise_oracle(circuit: Circuit) -> set[tuple[int, int]]:
    """O(n^2) scan: (i, j) iff they share a qubit and nothing intervenes."""
    edges = set()
    gates = circuit.gates
    for j in range(len(gates)):
        for i in range(j):
            shared = set(gates[i].qubits) & set(gates[j].qubits)
            for q in shared:
                between = any(
                    q in gates[k].qubits for k in range(i + 1, j)
                )
                if not between:
                    edges.add((i, j))
    return edges


def longest_path_oracle(circuit: Circuit) -> int:
    """Exhaustive DFS over the dependency DAG, counting nodes on the path."""
    edges = dag_pairwise_oracle(circuit)
    succ: dict[int, list[int]] = {}
    for i, j in edges:
        succ.setdefault(i, []).append(j)

    def walk(node: int) -> int:
        return 1 + max((walk(n) for n in succ.get(node, [])), default=0)

    return max((walk(g.id) for g in circuit.gates), default=0)


def feature_oracle(circuit: Circuit) -> tuple[float, ...]:
    """Straight-line evaluation of the six feature definitions."""
    gates = circuit.gates
    width = circuit.num_qubits

    # longest dependency chain via per-qubit relay
    ready = {q: 0 for q in range(width)}
    depth = 0
    for g in gates:
        d = 1 + max(ready[q] for q in g.qubits)
        for q in g.qubits:
            ready[q] = d
        depth = max(depth, d)

    per_qubit_gates = [0] * width
    for g in gates:
        for q in g.qubits:
            per_qubit_gates[q] += 1
    mqd = max(per_qubit_gates, default=0)

    n1 = sum(1 for g in gates if len(g.qubits) == 1)
    n2 = sum(1 for g in gates if len(g.qubits) == 2)
    density = 0.0 if not gates else (n1 + 2 * n2) / (depth * width)

    two_q = [0] * width
    for g in gates:
        if len(g.qubits) == 2:
            for q in g.qubits:
                two_q[q] += 1
    mean = sum(two_q) / width
    ev = math.log(sum((c - mean) ** 2 for c in two_q) + 1) / width

    return (depth, width, mqd, density, n2, ev)


# --------------------------------------------------------------------------
# Regression-tree oracles
# --------------------------------------------------------------------------


def exhaustive_splits(rows, labels):
    """Every candidate (loss, feature, threshold) across all features."""
    out = []
    n = len(rows)
    for f in range(len(rows[0])):
        values = sorted({r[f] for r in rows})
        for lo, hi in zip(values, values[1:]):
            s = (lo + hi) / 2.0
            left = [y for r, y in zip(rows, labels) if r[f] <= s]
            right = [y for r, y in zip(rows, labels) if r[f] > s]
            ml = left_to_right_sum(left) / len(left)
            mr = left_to_right_sum(right) / len(right)
            ll = left_to_right_sum((y - ml) ** 2 for y in left) / len(left)
            lr = left_to_right_sum((y - mr) ** 2 for y in right) / len(right)
            out.append(((len(left) * ll + len(right) * lr) / n, f, s))
    return out


def minimal_split(rows, labels, tol=0.0):
    """The (feature, threshold) the tie rules should select, or None.

    The oracle's arithmetic mirrors the implementation statement for
    statement, so exact float equality is the right tie criterion.
    """
    cands = exhaustive_splits(rows, labels)
    if not cands:
        return None
    best = min(g for g, _, _ in cands)
    near = [(f, s) for g, f, s in cands if g <= best + tol]
    return min(near)


def _mean(values):
    return left_to_right_sum(values) / len(values)


def _mse(values):
    """Mean squared deviation from the mean."""
    m = _mean(values)
    total = 0.0
    for v in values:
        total += (v - m) ** 2
    return total / len(values)


def best_split_per_threshold(rows, labels, feature):
    """The split search that ``regressor.best_split`` replaced, kept verbatim
    but for one fix: a midpoint that rounds up to the larger value leaves the
    right side empty, and is skipped, as ``regressor._screen`` skips it.

    Every candidate threshold rebuilds both sides and evaluates ``_mse`` on
    them, so the search is quadratic in the rows.
    """
    values = sorted({row[feature] for row in rows})
    if len(values) < 2:
        return None
    n = len(rows)
    best = None
    for lo, hi in zip(values, values[1:]):
        threshold = (lo + hi) / 2.0
        left = [y for row, y in zip(rows, labels) if row[feature] <= threshold]
        right = [y for row, y in zip(rows, labels) if row[feature] > threshold]
        if not right:
            continue
        loss = (len(left) * _mse(left) + len(right) * _mse(right)) / n
        if best is None or loss < best.loss:
            best = SplitCandidate(feature_index=feature, threshold=threshold, loss=loss)
    return best


def _grow_per_threshold(rows, labels, depth, max_depth):
    node = TreeNode(
        sample_count=len(labels), node_mse=_mse(labels), prediction=_mean(labels)
    )
    if depth >= max_depth or len(labels) < 2 or len(set(labels)) == 1:
        return node
    chosen = None
    for f in range(len(rows[0])):  # ties: lowest loss, feature index, threshold
        cand = best_split_per_threshold(rows, labels, f)
        if cand is not None and (chosen is None or cand.loss < chosen.loss):
            chosen = cand
    if chosen is None:
        return node
    f, s = chosen.feature_index, chosen.threshold
    left_idx = [i for i, row in enumerate(rows) if row[f] <= s]
    right_idx = [i for i, row in enumerate(rows) if row[f] > s]
    node.split = chosen
    node.left = _grow_per_threshold(
        [rows[i] for i in left_idx], [labels[i] for i in left_idx], depth + 1, max_depth
    )
    node.right = _grow_per_threshold(
        [rows[i] for i in right_idx], [labels[i] for i in right_idx], depth + 1, max_depth
    )
    return node


def fit_per_threshold(rows, labels, max_depth=DEFAULT_MAX_DEPTH):
    """``regressor.fit`` on the per-threshold split search.

    The growth rule is the package's: a node whose labels are all equal is
    a leaf, whatever rounding leaves in its float spread.
    """
    root = _grow_per_threshold([tuple(r) for r in rows], list(labels), 0, max_depth)
    return RegressionTree(root=root, target="depth", max_depth=max_depth)


# --------------------------------------------------------------------------
# Nearest-neighbor cleaning oracle
# --------------------------------------------------------------------------


def enn_reference(rows, labels, rounds: int) -> list[int]:
    """Surviving indices after iterative ENN for n = 1..rounds.

    Distances are Euclidean over columns standardized on the *initial*
    data; each round removes, in one batch, every survivor whose label is
    outside the modal set of its n nearest surviving neighbors.
    """
    n_samples = len(rows)
    cols = list(zip(*rows))
    means = [sum(c) / n_samples for c in cols]
    stds = [math.sqrt(sum((v - m) ** 2 for v in c) / n_samples) for c, m in zip(cols, means)]
    if all(s == 0 for s in stds):
        return list(range(n_samples))
    scaled = [
        tuple((v - m) / s if s else 0.0 for v, m, s in zip(r, means, stds))
        for r in rows
    ]
    alive = list(range(n_samples))
    for n in range(1, rounds + 1):
        if len(alive) <= n:
            break
        drop = set()
        for i in alive:
            near = sorted(
                (math.sqrt(sum((a - b) ** 2 for a, b in zip(scaled[i], scaled[j]))), j)
                for j in alive
                if j != i
            )[:n]
            votes: dict[int, int] = {}
            for _, j in near:
                votes[labels[j]] = votes.get(labels[j], 0) + 1
            top = max(votes.values())
            if labels[i] not in {lab for lab, c in votes.items() if c == top}:
                drop.add(i)
        alive = [i for i in alive if i not in drop]
    return alive


def _standardize(rows):
    """Z-scored columns, zero where a column is constant; None if all are."""
    cols = list(zip(*rows))
    n = len(rows)
    means = [left_to_right_sum(c) / n for c in cols]
    stds = [
        math.sqrt(left_to_right_sum((v - m) ** 2 for v in c) / n)
        for c, m in zip(cols, means)
    ]
    if all(s == 0.0 for s in stds):
        return None
    return [
        tuple((v - m) / s if s > 0.0 else 0.0 for v, m, s in zip(row, means, stds))
        for row in rows
    ]


def allknn_per_point(dataset: Dataset, k_max: int = DEFAULT_KMAX) -> Dataset:
    """The per-sample AllKNN that ``allknn_refine`` replaced, kept verbatim.

    Every survivor sorts every other survivor by ``(distance, index)`` in
    every round, over the same z-scored rows as the package computes.
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
        removed = []
        for i in alive:
            dists = sorted(
                (math.dist(scaled[i], scaled[j]), j) for j in alive if j != i
            )
            neighbor_labels = [labels[j] for _, j in dists[:n]]
            counts: dict[int, int] = {}
            for lab in neighbor_labels:
                counts[lab] = counts.get(lab, 0) + 1
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
# Encoding oracle
# --------------------------------------------------------------------------


def _bv(value: int, width: int) -> str:
    return "#b" + format(value, f"0{width}b")


def encode_base_pairwise(ctx: EncodingContext) -> list[str]:
    """The base encoding that ``encode_base`` replaced, kept verbatim.

    Every assertion spells out its position and gate-time equalities, and
    exclusivity and gate blocking are stated one conflicting pair at a
    time.  ``encode_base`` must have exactly the same models over the
    declared variables.

    Families: mapping validity and injectivity; two-qubit adjacency at
    execution time; dependency ordering; swap-window exclusivity and gate
    blocking; mapping transformation after swap completion.
    """
    lines: list[str] = []
    nq = ctx.circuit.num_qubits
    nphys = ctx.graph.num_qubits
    qb = ctx.qubit_bits
    edges = ctx.graph.edges
    dur = ctx.swap_duration

    # Mapping validity: positions inside the device, distinct per step.
    phys_limit = None if nphys == (1 << qb) else _bv(nphys, qb)
    for t in range(ctx.horizon):
        if phys_limit is not None:
            for q in range(nq):
                lines.append(f"(assert (bvult {ctx.pos_names[q][t]} {phys_limit}))")
        if nq > 1:
            names = " ".join(ctx.pos_names[q][t] for q in range(nq))
            lines.append(f"(assert (distinct {names}))")

    # Two-qubit gates execute on device edges.
    for g in ctx.circuit.gates:
        if not g.is_two_qubit:
            continue
        q1, q2 = g.qubits
        for t in range(ctx.representable_times):
            placements = []
            for a, b in edges:
                pa, pb = _bv(a, qb), _bv(b, qb)
                p1, p2 = ctx.pos_names[q1][t], ctx.pos_names[q2][t]
                placements.append(f"(and (= {p1} {pa}) (= {p2} {pb}))")
                placements.append(f"(and (= {p1} {pb}) (= {p2} {pa}))")
            lines.append(
                f"(assert (=> (= {ctx.time_names[g.id]} {_bv(t, ctx.time_bits)})"
                f" (or {' '.join(placements)})))"
            )

    # Dependent gates execute strictly in order.
    for i, j in sorted(build_dag(ctx.circuit).edges):
        lines.append(f"(assert (bvult {ctx.time_names[i]} {ctx.time_names[j]}))")

    # Swaps need a full window: none may complete before duration-1.
    for e in range(len(edges)):
        for t in range(min(dur - 1, ctx.horizon)):
            lines.append(f"(assert (not {ctx.swap_names[e][t]}))")

    # Swap windows exclude overlapping swaps on the same or touching edges.
    for t in range(dur - 1, ctx.horizon):
        for k in range(len(edges)):
            me = ctx.swap_names[k][t]
            for tt in range(t - dur + 1, t):
                lines.append(f"(assert (not (and {me} {ctx.swap_names[k][tt]})))")
            for kk in ctx.graph.touching[k]:
                for tt in range(t - dur + 1, t + 1):
                    lines.append(f"(assert (not (and {me} {ctx.swap_names[kk][tt]})))")

    # Swap windows block gates on the swapped physical qubits.
    for t in range(dur - 1, ctx.horizon):
        for k, (a, b) in enumerate(edges):
            pa, pb = _bv(a, qb), _bv(b, qb)
            me = ctx.swap_names[k][t]
            for g in ctx.circuit.gates:
                for tt in range(t - dur + 1, min(t + 1, ctx.representable_times)):
                    on_edge = " ".join(
                        f"(= {ctx.pos_names[q][tt]} {p})"
                        for q in g.qubits
                        for p in (pa, pb)
                    )
                    lines.append(
                        f"(assert (=> (and (= {ctx.time_names[g.id]}"
                        f" {_bv(tt, ctx.time_bits)}) (or {on_edge})) (not {me})))"
                    )

    # Mapping evolves exactly through completed swaps.
    for t in range(ctx.horizon - 1):
        for q in range(nq):
            now, nxt = ctx.pos_names[q][t], ctx.pos_names[q][t + 1]
            for p in range(nphys):
                incident = [ctx.swap_names[k][t] for k in ctx.graph.incident[p]]
                pv = _bv(p, qb)
                if incident:
                    stay = f"(and (not (or {' '.join(incident)})) (= {now} {pv}))"
                else:
                    stay = f"(= {now} {pv})"
                lines.append(f"(assert (=> {stay} (= {nxt} {pv})))")
            for k, (a, b) in enumerate(edges):
                sw = ctx.swap_names[k][t]
                pa, pb = _bv(a, qb), _bv(b, qb)
                lines.append(
                    f"(assert (=> (and {sw} (= {now} {pa})) (= {nxt} {pb})))"
                )
                lines.append(
                    f"(assert (=> (and {sw} (= {now} {pb})) (= {nxt} {pa})))"
                )
    return lines


# --------------------------------------------------------------------------
# Scheduling oracles
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    """One valid schedule found by the exhaustive search."""

    placements: tuple[tuple[int, ...], ...]  # physical qubit of each logical one, per step
    gate_times: dict[int, int]               # gate id -> execution step
    swaps: tuple[tuple[tuple[int, int], int], ...]  # (edge, completion step)


def embeds_by_permutation(circuit: Circuit, graph: CouplingGraph) -> bool:
    """Whether some injective placement of the circuit's qubits puts every
    two-qubit gate on a device edge, trying every placement in turn."""
    pairs = {frozenset(g.qubits) for g in circuit.gates if len(g.qubits) == 2}
    edges = {frozenset(e) for e in graph.edges}
    return any(
        all(frozenset(placement[q] for q in pair) in edges for pair in pairs)
        for placement in itertools.permutations(range(graph.num_qubits), circuit.num_qubits)
    )


def brute_force_optimum(
    circuit: Circuit,
    graph: CouplingGraph,
    swap_duration: int = 3,
    depth_cap: int = 10,
    swap_cap: int = 3,
) -> tuple[int, int]:
    """Exhaustive search for (optimal depth, optimal swaps at that depth).

    Only usable on tiny instances; schedules using more than ``swap_cap``
    swaps are not considered.
    """
    gates = circuit.gates
    if not any(len(g.qubits) == 2 for g in gates):
        from qlayout.circuit import longest_chain

        return longest_chain(circuit), 0
    depth, schedule = brute_force_schedule(
        circuit, graph, swap_duration, depth_cap, swap_cap
    )
    return depth, len(schedule.swaps)


def brute_force_schedule(
    circuit: Circuit,
    graph: CouplingGraph,
    swap_duration: int = 3,
    depth_cap: int = 10,
    swap_cap: int = 3,
) -> tuple[int, Schedule]:
    """Optimal depth and a schedule with the fewest swaps at that depth.

    Enumerates every injective initial placement and every schedule of gate
    executions and swap completions over time steps, honoring dependency
    order, adjacency at execution time, swap windows, and post-completion
    map exchange.
    """
    gates = circuit.gates

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
        # steps still needed for the unexecuted gates
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

    def search(bound: int, max_swaps: int) -> Schedule | None:
        """The first schedule found within ``bound`` steps."""

        def rec(t, placement, done_times, gate_uses, swaps, history=()):
            history += (placement,)
            if len(done_times) == len(gates):
                return Schedule(history, done_times, swaps)
            if t >= bound or t + chain_lower_bound(done_times) > bound:
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
                                history,
                            )
                            if found is not None:
                                return found
            return None

        for placement in itertools.permutations(range(graph.num_qubits), nq):
            found = rec(0, tuple(placement), {}, {}, ())
            if found is not None:
                return found
        return None

    depth = None
    best = None
    for bound in range(1, depth_cap + 1):
        best = search(bound, swap_cap)
        if best is not None:
            depth = bound
            break
    if depth is None:
        raise RuntimeError(f"no schedule within {depth_cap} steps")
    while best.swaps:
        better = search(depth, len(best.swaps) - 1)
        if better is None:
            break
        best = better
    return depth, best


def linear_scan_solve(
    circuit: Circuit,
    graph: CouplingGraph,
    solver: SolverConfig,
    swap_duration: int = 3,
    padding: int = 10,
) -> tuple[int, int, int]:
    """Naive optimal search: depth upward by 1 from the chain length, then
    swaps downward by 1 from the first model's count.  Returns
    (depth, swaps, checks)."""
    from qlayout.circuit import longest_chain

    if not any(len(g.qubits) == 2 for g in circuit.gates):
        return longest_chain(circuit), 0, 0

    checks = 0
    bound = longest_chain(circuit)
    values = None
    while True:
        horizon = bound + padding
        ctx = build_context(circuit, graph, horizon, bit_length(horizon), swap_duration)
        script = emit_script(ctx, [encode_base(ctx), encode_depth_bound(ctx, bound)])
        result = check(script, solver)
        checks += 1
        if result.sat:
            values = result.values
            break
        bound += 1

    depth = bound
    count = sum(
        1
        for e in range(len(ctx.graph.edges))
        for t in range(ctx.first_swap, ctx.horizon)
        if values[ctx.swap_names[e][t]] is True
    )
    while count > 0:
        target = count - 1
        script = emit_script(
            ctx,
            [
                encode_base(ctx),
                encode_depth_bound(ctx, depth),
                encode_swap_bound(ctx, target),
            ],
        )
        result = check(script, solver)
        checks += 1
        if not result.sat:
            break
        count = sum(
            1
            for e in range(len(ctx.graph.edges))
            for t in range(ctx.first_swap, ctx.horizon)
            if result.values[ctx.swap_names[e][t]] is True
        )
    return depth, count, checks


# --------------------------------------------------------------------------
# Bound-search oracle
# --------------------------------------------------------------------------


def bound_search_two_loops(
    start: int, floor: int, probe, ceiling: float = math.inf
) -> BoundSearchOutcome:
    """The bound search that ``run_bound_search`` replaced, kept verbatim.

    A descent loop after a satisfiable first check and an ascent loop after
    an unsatisfiable one, each closing a 2-wide gap with one middle check.
    """
    current = max(start, floor)
    sat, best = probe(current)
    if sat:
        while current > floor:
            lower = max(current - 2, floor)
            sat2, payload2 = probe(lower)
            if sat2:
                best, current = payload2, lower
                continue
            if current - lower == 1:       # nothing between the two bounds
                return BoundSearchOutcome(current, best)
            sat3, payload3 = probe(lower + 1)
            if sat3:
                return BoundSearchOutcome(lower + 1, payload3)
            return BoundSearchOutcome(current, best)
        return BoundSearchOutcome(current, best)

    while current < ceiling:
        upper = current + 2
        sat2, payload2 = probe(upper)
        if not sat2:
            current = upper
            continue
        sat3, payload3 = probe(upper - 1)
        if sat3:
            return BoundSearchOutcome(upper - 1, payload3)
        return BoundSearchOutcome(upper, payload2)
    raise SearchError(
        f"solver refuted bound {current}, but bound {ceiling} is known satisfiable"
    )


def grid_shape_after(last, depth: int | None) -> tuple[int, int]:
    """The transition rule that ``search.grid_shape``'s closed form replaced,
    kept verbatim: (horizon, time_bits) of the check after ``last``, a
    ``CheckRecord`` or None; ``depth`` is its depth bound, or None in the swap
    phase, which keeps the grid.

    The first grid ends at the first bound, with that bound's width: the
    width a satisfiable check there would narrow to.  After a satisfiable
    depth check the gate-time width narrows to its bound's.  A deeper depth
    bound grows the grid to end at it, and one needing more bits widens it.
    """
    if last is None:
        return depth, bit_length(depth)
    horizon, time_bits = last.horizon, last.time_bits
    if last.phase == "depth" and last.sat:
        time_bits = min(time_bits, bit_length(last.bound))
    if depth is None:
        return horizon, time_bits
    return max(horizon, depth), max(time_bits, bit_length(depth))

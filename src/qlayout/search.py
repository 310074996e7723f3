"""Prediction-seeded iterative search for optimal depth, then optimal swaps.

Phase one finds the smallest satisfiable depth bound: start at
``max(predicted depth, longest dependency chain)``, move in 2-unit steps
(down after a satisfiable check, up after an unsatisfiable one), and close
a 2-wide satisfiable/unsatisfiable gap with a single check between the two
bounds.  Phase two fixes the optimal depth and runs the same stepping on
the swap-count bound, starting at ``min(predicted swaps, swaps in the last
satisfiable model)`` with floor zero.

Variable shapes grow on demand: the time-grid extent starts one increment
above the first bound and grows by a large or small increment (chosen by
comparing the just-checked bound against a threshold) whenever the next
bound would not fit; gate-time widths widen before a bound that crosses a
power of two and may narrow again after satisfiable checks.  Increments are
at least 2, the search's stride, so a grown grid always fits the next bound.

One probe serves both phases, and one solver session serves the whole
solve.  The probe builds the context and base once per grid shape and loads
them as the session's outer scope; each check adds only its bound lines,
records its wall time, and turns a solver failure into a
:class:`SearchError` naming the phase.  Only depth-phase calls resize the
grid, so the swap phase reuses the optimum's loaded base throughout.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

from . import backend as be
from .arch import CouplingGraph
from .circuit import Circuit, gate_depths, longest_chain
from .encode import (  # noqa: F401 - emit_script stays for qbench/spans.py
    DEFAULT_SWAP_DURATION,
    bit_length,
    build_context,
    declarations,
    emit_script,
    encode_base,
    encode_depth_bound,
    encode_swap_bound,
)
from .features import extract_features


class SearchError(RuntimeError):
    """Search aborted by a solver failure; carries partial telemetry."""

    def __init__(self, message: str, telemetry: Optional[dict] = None):
        super().__init__(message)
        self.telemetry = telemetry or {}


class InfeasibleError(ValueError):
    """No layout of the circuit on the device exists, at any depth."""


def _component_sizes(n: int, pairs) -> list[int]:
    """Sizes of the connected components of the graph on nodes 0..n-1 with
    edges ``pairs``, largest first."""
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for a, b in pairs:
        root[find(a)] = find(b)
    return sorted(Counter(find(x) for x in range(n)).values(), reverse=True)


def check_feasible(circuit: Circuit, graph: CouplingGraph) -> None:
    """Raise :class:`InfeasibleError` unless some layout exists at some depth.

    A swap moves qubits only along a device edge, so a logical qubit never
    leaves the device component it starts in, and qubits linked by
    two-qubit gates, directly or through others, must share one.  Within a
    component, swaps bring any two qubits together.  So a layout exists
    exactly when the circuit's interacting groups pack into the device's
    components (with the circuit no wider than the device).
    """
    two_qubit = (g.qubits for g in circuit.gates if g.is_two_qubit)
    groups = [n for n in _component_sizes(circuit.num_qubits, two_qubit) if n > 1]
    rooms = tuple(_component_sizes(graph.num_qubits, graph.edges))

    @lru_cache(maxsize=None)
    def fits(i: int, rooms: tuple[int, ...]) -> bool:
        if i == len(groups):
            return True
        return any(
            fits(i + 1, tuple(sorted(rooms[:j] + (room - groups[i],) + rooms[j + 1:])))
            for j, room in enumerate(rooms)
            if room >= groups[i] and room not in rooms[:j]
        )

    if not fits(0, rooms):
        raise InfeasibleError(
            f"no layout on device {graph.name!r}: groups of interacting qubits"
            f" of sizes {groups} do not fit its connected components of sizes"
            f" {list(rooms)}"
        )


@dataclass(frozen=True)
class ResizePolicy:
    """Extent-growth policy: large increment at or above the threshold."""

    threshold: int = 50
    large_step: int = 15
    small_step: int = 10

    def __post_init__(self):
        if min(self.large_step, self.small_step) < 2:
            raise ValueError("resize steps must be at least 2, the search's stride")

    def step(self, bound: int) -> int:
        return self.large_step if bound >= self.threshold else self.small_step


@dataclass
class BoundSearchOutcome:
    optimum: int
    history: list[tuple[int, bool]]   # (bound, satisfiable) in check order
    payload: object                   # probe payload of the optimum's model


Probe = Callable[[int], tuple[bool, object]]


def run_bound_search(start: int, floor: int, probe: Probe) -> BoundSearchOutcome:
    """Find the minimal bound whose probe is satisfiable.

    Requires a monotone frontier (satisfiable at b implies satisfiable at
    b+1) and a satisfiable region reachable above ``start``.  The returned
    payload always comes from a satisfiable check at the optimum itself.
    """
    history: list[tuple[int, bool]] = []

    def check(bound: int) -> tuple[bool, object]:
        sat, payload = probe(bound)
        history.append((bound, sat))
        return sat, payload

    current = max(start, floor)
    sat, payload = check(current)
    if sat:
        best = payload
        while current > floor:
            lower = max(current - 2, floor)
            sat2, payload2 = check(lower)
            if sat2:
                best, current = payload2, lower
                continue
            if current - lower == 1:       # nothing between the two bounds
                return BoundSearchOutcome(current, history, best)
            sat3, payload3 = check(lower + 1)
            if sat3:
                return BoundSearchOutcome(lower + 1, history, payload3)
            return BoundSearchOutcome(current, history, best)
        return BoundSearchOutcome(current, history, best)

    while True:
        upper = current + 2
        sat2, payload2 = check(upper)
        if not sat2:
            current = upper
            continue
        sat3, payload3 = check(upper - 1)
        if sat3:
            return BoundSearchOutcome(upper - 1, history, payload3)
        return BoundSearchOutcome(upper, history, payload2)


@dataclass
class SolveResult:
    optimal_depth: int
    optimal_swaps: int
    depth_checks: int
    swap_checks: int
    resize_events: list[dict] = field(default_factory=list)
    wall_time_per_check: list[float] = field(default_factory=list)
    depth_history: list[tuple[int, bool]] = field(default_factory=list)
    swap_history: list[tuple[int, bool]] = field(default_factory=list)
    solution: Optional[be.MappingSolution] = None

    def telemetry(self) -> dict:
        return {
            "optimal_depth": self.optimal_depth,
            "optimal_swaps": self.optimal_swaps,
            "depth_checks": self.depth_checks,
            "swap_checks": self.swap_checks,
            "resize_events": self.resize_events,
            "wall_time_per_check": self.wall_time_per_check,
        }


def _trivial_solution(circuit: Circuit, graph: CouplingGraph) -> SolveResult:
    """Circuits without two-qubit gates: schedule greedily, map identically."""
    times = tuple(d - 1 for d in gate_depths(circuit))
    depth = longest_chain(circuit)
    mapped = Circuit(num_qubits=graph.num_qubits, gates=circuit.gates)
    solution = be.MappingSolution(
        initial_map=tuple(range(circuit.num_qubits)),
        gate_times=times,
        swaps=(),
        final_depth=depth,
        swap_count=0,
        mapped_circuit=mapped,
    )
    return SolveResult(
        optimal_depth=depth,
        optimal_swaps=0,
        depth_checks=0,
        swap_checks=0,
        solution=solution,
    )


def solve_optimal(
    circuit: Circuit,
    graph: CouplingGraph,
    depth_model=None,
    swap_model=None,
    *,
    solver: Optional[be.SolverConfig] = None,
    swap_duration: int = DEFAULT_SWAP_DURATION,
    policy: ResizePolicy = ResizePolicy(),
    keep_swap_opcode: bool = False,
) -> SolveResult:
    """Optimal (depth, swap count) for a circuit on a device, with telemetry.

    ``depth_model``/``swap_model`` are optional predictors exposing
    ``predict(features) -> int``; they only seed the search and cannot
    change the reported optima.
    """
    if circuit.num_qubits > graph.num_qubits:
        raise ValueError(
            f"circuit needs {circuit.num_qubits} qubits but device"
            f" {graph.name!r} has {graph.num_qubits}"
        )
    if not any(g.is_two_qubit for g in circuit.gates):
        return _trivial_solution(circuit, graph)
    check_feasible(circuit, graph)

    solver = solver or be.SolverConfig.resolve()
    ldc = longest_chain(circuit)
    features = None
    if depth_model is not None or swap_model is not None:
        features = extract_features(circuit)

    predicted_depth = depth_model.predict(features) if depth_model else 0
    start = max(predicted_depth, ldc)

    # Grid shape of the next check; only depth-phase checks change it.
    horizon = start + policy.step(start)
    time_bits = bit_length(horizon)
    last_depth = start
    resize_events: list[dict] = []
    wall_times: list[float] = []

    def resize(kind: str, old: int, new: int) -> int:
        resize_events.append({"phase": "depth", "check_index": len(wall_times),
                              "kind": kind, "old": old, "new": new})
        return new

    ctx = None

    def probe(depth: int, swap_bound: Optional[int] = None) -> tuple[bool, object]:
        """One check at a depth bound; the swap phase adds a swap bound."""
        nonlocal horizon, time_bits, last_depth, ctx
        phase = "depth" if swap_bound is None else "swap"
        if phase == "depth":
            if depth >= horizon:
                horizon = resize("horizon", horizon, last_depth + policy.step(last_depth))
            if bit_length(depth) > time_bits:
                time_bits = resize("time_bits", time_bits, bit_length(depth))
        if ctx is None or (ctx.horizon, ctx.time_bits) != (horizon, time_bits):
            ctx = build_context(circuit, graph, horizon, time_bits, swap_duration)
            session.load(declarations(ctx) + encode_base(ctx))
        bounds = encode_depth_bound(ctx, depth)
        if phase == "swap":
            bounds += encode_swap_bound(ctx, swap_bound)
        try:
            result = session.check(bounds, (name for name, _ in ctx.variables()))
        except be.SolverError as exc:
            raise SearchError(
                f"{phase} phase failed: {exc}",
                {"wall_time_per_check": wall_times, "resize_events": resize_events},
            ) from exc
        wall_times.append(result.wall_time)
        if phase == "depth":
            last_depth = depth
            if result.sat and bit_length(depth) < time_bits:
                time_bits = resize("time_bits", time_bits, bit_length(depth))
        return result.sat, (ctx, result.values) if result.sat else None

    with be.Session(solver) as session:
        depth_outcome = run_bound_search(start, ldc, probe)
        best_depth = depth_outcome.optimum
        depth_ctx, depth_values = depth_outcome.payload
        swaps_in_model = len(be.model_swaps(depth_values, depth_ctx))
        predicted_swaps = swap_model.predict(features) if swap_model else swaps_in_model
        swap_start = max(0, min(predicted_swaps, swaps_in_model))
        swap_outcome = run_bound_search(
            swap_start, 0, lambda bound: probe(best_depth, bound)
        )

    final_ctx, final_values = swap_outcome.payload
    solution = be.decode_solution(
        final_values, final_ctx, keep_swap_opcode=keep_swap_opcode
    )
    return SolveResult(
        optimal_depth=best_depth,
        optimal_swaps=swap_outcome.optimum,
        depth_checks=len(depth_outcome.history),
        swap_checks=len(swap_outcome.history),
        resize_events=resize_events,
        wall_time_per_check=wall_times,
        depth_history=depth_outcome.history,
        swap_history=swap_outcome.history,
        solution=solution,
    )

"""Prediction-seeded iterative search for optimal depth, then optimal swaps.

Phase one finds the smallest satisfiable depth bound, from the predicted
depth (at most a depth any layout meets) with the longest dependency chain
as floor.  Phase two fixes the optimal depth and finds the smallest
swap-count bound, from ``min(predicted swaps, swaps in the last satisfiable
model)``.  Its floor is one when :func:`embeds` proves that no placement
puts every interacting pair on a device edge, so every layout swaps, and
zero otherwise.  Both run the frontier walk of
:func:`run_bound_search`: 2-unit steps from the start, then one check to
close a 2-wide gap, so an exact prediction costs at most three checks each.

Each check appends one :class:`CheckRecord` (phase, bound, verdict, grid
shape, wall time, bytes sent, whether it launched a solver).  That list is
the search's only state, and each count over it is defined once, as a
:class:`SolveResult` property.
A check's grid shape is :func:`grid_shape` of the records before it, in
closed form: the grid ends at the deepest depth bound probed, and the
gate-time width is that of the lowest satisfiable depth bound probed so
far, or of the horizon while none is.

One probe serves both phases, and one solver session serves the whole
solve.  On a gate-time width other than the previous record's, the probe
loads the base, declarations first, as the session's outer scope,
streaming it to the solver as encoded.  On a deeper grid at the same width
it extends that scope with the new steps' lines alone, as the encoding is
prefix-closed.  Each check adds only its bound lines, and each satisfiable
model is decoded at once, so a phase's payload is its schedule; only the
one returned is drawn.  A solver failure, a failed launch included, or a
model that does not decode raises :class:`SearchError` naming the phase.
So do a depth model with fewer swaps than the floor and an ascent refuted
at or above a bound known to be satisfiable, so a wrong solver cannot keep
it running.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache
from typing import Callable, Optional

from . import backend as be
from .arch import CouplingGraph, component_sizes
from .circuit import Circuit, gate_depths, longest_chain
from .encode import (  # noqa: F401 - emit_script stays for qbench/spans.py
    DEFAULT_SWAP_DURATION,
    bit_length,
    build_context,
    check_swap_duration,
    emit_script,
    encode_base,
    encode_depth_bound,
    encode_swap_bound,
)
from .features import extract_features


class SearchError(RuntimeError):
    """Search aborted by a failing or wrong solver.  From :func:`solve_optimal`,
    ``telemetry`` is :meth:`SolveResult.telemetry` of the checks run, with
    ``optimal_depth`` and ``optimal_swaps`` None."""

    def __init__(self, message: str, telemetry: Optional[dict] = None):
        super().__init__(message)
        self.telemetry = telemetry or {}


class InfeasibleError(ValueError):
    """No layout of the circuit on the device exists, at any depth."""


# Placements that :func:`embeds` tries before it gives up: a small part of
# what one solver check costs.
EMBED_STEPS = 10_000


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
    groups = [n for n in component_sizes(circuit.num_qubits, two_qubit) if n > 1]
    rooms = graph.components

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


def embeds(circuit: Circuit, graph: CouplingGraph) -> Optional[bool]:
    """Whether some injective placement puts every interacting pair of
    ``circuit`` on an edge of ``graph``, as a layout without swaps needs;
    None when :data:`EMBED_STEPS` tried placements settle neither.

    Backtracking in the style of VF2 (Cordella et al., TPAMI 2004): each
    qubit goes only to a free device qubit of at least its degree next to
    the spots of all its placed partners.
    """
    partners = [set() for _ in range(circuit.num_qubits)]
    for a, b in (g.qubits for g in circuit.gates if g.is_two_qubit):
        partners[a].add(b)
        partners[b].add(a)
    near = graph.neighbors
    order, rest = [], {q for q, ws in enumerate(partners) if ws}
    while rest:   # most placed partners first, then the highest degree
        order.append(max(sorted(rest), key=lambda q: (len(partners[q].intersection(order)),
                                                      len(partners[q]))))
        rest.remove(order[-1])
    spot, budget = {}, EMBED_STEPS

    def extend(i: int) -> Optional[bool]:
        """Whether the placement in ``spot`` of ``order[:i]`` extends to all."""
        nonlocal budget
        if i == len(order):
            return True
        q = order[i]
        placed = [spot[w] for w in partners[q] if w in spot]
        for p in near[placed[0]] if placed else range(graph.num_qubits):
            if (p not in spot.values() and len(near[p]) >= len(partners[q])
                    and all(p in near[x] for x in placed)):
                budget -= 1
                if budget < 0:
                    return None
                spot[q] = p
                found = extend(i + 1)
                del spot[q]
                if found is not False:
                    return found
        return False

    return extend(0)


@dataclass(frozen=True)
class CheckRecord:
    """One solver check: the bound it probed, its verdict, grid shape, wall
    time and the bytes written to the solver for it, a base it loaded
    included, and whether a solver process started for it."""

    phase: str          # "depth", or "swap" (then ``bound`` is a swap count)
    bound: int
    sat: bool
    horizon: int
    time_bits: int
    wall_time: float
    bytes_sent: int = 0
    launched: bool = False


def grid_shape(checks: list[CheckRecord], depth: int) -> tuple[int, int]:
    """(horizon, time_bits) of the check after ``checks`` at depth bound
    ``depth`` (in the swap phase, the optimal depth).

    The grid ends at the deepest depth bound probed, this one included.  The
    gate-time width is that of the lowest satisfiable depth bound probed so
    far, or of the horizon while none is: :func:`run_bound_search` never
    probes above its best satisfiable bound, so the width grows with the
    horizon on an ascent and narrows after each satisfiable depth check.
    """
    depth_checks = [c for c in checks if c.phase == "depth"]
    horizon = max([depth] + [c.bound for c in depth_checks])
    lowest_sat = min([horizon] + [c.bound for c in depth_checks if c.sat])
    return horizon, bit_length(lowest_sat)


@dataclass
class BoundSearchOutcome:
    optimum: int
    payload: object                   # probe payload of the optimum's model


Probe = Callable[[int], tuple[bool, object]]


def run_bound_search(
    start: int, floor: int, probe: Probe, ceiling: float = math.inf
) -> BoundSearchOutcome:
    """Find the minimal bound whose probe is satisfiable.

    The walk's only state is its frontier: the highest refuted bound (at
    first ``floor - 1``) and the lowest satisfiable bound with its payload.
    It checks ``max(start, floor)`` first.  While nothing is satisfiable the
    next bound is ``refuted + 2``; then it is ``max(best - 2, refuted + 1)``
    until ``best - refuted == 1``, so the payload comes from a satisfiable
    check at the optimum itself.  That optimum is minimal when satisfiable
    at b implies satisfiable at b+1.  ``ceiling`` is a bound known to be
    satisfiable: an ascent refuted at or above it raises :class:`SearchError`.
    """
    bound, refuted, best = max(start, floor), floor - 1, None
    while True:
        sat, payload = probe(bound)
        if sat:
            best = BoundSearchOutcome(bound, payload)
        else:
            refuted = bound
        if best is None:
            if refuted >= ceiling:
                raise SearchError(f"solver refuted bound {refuted}, but bound"
                                  f" {ceiling} is known satisfiable")
            bound = refuted + 2
        elif best.optimum - refuted > 1:
            bound = max(best.optimum - 2, refuted + 1)
        else:
            return best


@dataclass
class SolveResult:
    optimal_depth: Optional[int]
    optimal_swaps: Optional[int]
    checks: list[CheckRecord] = field(default_factory=list)
    solution: Optional[be.MappingSolution] = None
    embeds: Optional[bool] = None   # :func:`embeds`' answer; None when it gave up

    # the swap phase's floor: 1 when the circuit cannot embed
    swap_floor = property(lambda self: int(self.embeds is False))

    depth_history = property(lambda self: [(c.bound, c.sat) for c in self.checks
                                           if c.phase == "depth"])
    swap_history = property(lambda self: [(c.bound, c.sat) for c in self.checks
                                          if c.phase == "swap"])
    depth_checks = property(lambda self: len(self.depth_history))
    swap_checks = property(lambda self: len(self.swap_history))
    wall_time_per_check = property(lambda self: [c.wall_time for c in self.checks])
    bytes_sent = property(lambda self: sum(c.bytes_sent for c in self.checks))
    launches = property(lambda self: sum(c.launched for c in self.checks))

    @property
    def resize_events(self) -> list[dict]:
        """Grid-shape changes between consecutive checks, at the index of the
        first check on the new shape; depth-phase checks cause all of them."""
        return [
            {"phase": "depth", "check_index": i, "kind": kind, "old": old, "new": new}
            for i, (prev, cur) in enumerate(zip(self.checks, self.checks[1:]), start=1)
            for kind, old, new in (("horizon", prev.horizon, cur.horizon),
                                   ("time_bits", prev.time_bits, cur.time_bits))
            if old != new
        ]

    @property
    def base_loads(self) -> int:
        """Whole bases the session loaded: one per check on a new gate-time width."""
        widths = [c.time_bits for c in self.checks]
        return sum(prev != cur for prev, cur in zip([None] + widths, widths))

    @property
    def grid_extensions(self) -> int:
        """Grids grown in place: a deeper horizon at an unchanged width."""
        return sum(prev.time_bits == cur.time_bits and prev.horizon != cur.horizon
                   for prev, cur in zip(self.checks, self.checks[1:]))

    def telemetry(self) -> dict:
        """The optima (None when the search failed), the swap floor and the
        embedding test's answer behind it, every count above, by name, plus
        each check record as a dict."""
        keys = ("optimal_depth", "optimal_swaps", "swap_floor", "embeds", "depth_checks",
                "swap_checks", "resize_events", "base_loads", "grid_extensions",
                "bytes_sent", "launches", "wall_time_per_check")
        return {**{key: getattr(self, key) for key in keys},
                "checks": [asdict(c) for c in self.checks]}


def _drawn(circuit: Circuit, graph: CouplingGraph, solution: be.MappingSolution):
    """``solution`` with its physical circuit drawn."""
    return replace(solution, mapped_circuit=be.render_circuit(circuit, graph, solution))


def _trivial_solution(circuit: Circuit, graph: CouplingGraph) -> SolveResult:
    """Circuits without two-qubit gates: schedule greedily, map identically."""
    depth, times = longest_chain(circuit), tuple(d - 1 for d in gate_depths(circuit))
    solution = be.MappingSolution(tuple(range(circuit.num_qubits)), times, (), depth, 0)
    return SolveResult(depth, 0, solution=_drawn(circuit, graph, solution), embeds=True)


def solve_optimal(
    circuit: Circuit,
    graph: CouplingGraph,
    depth_model=None,
    swap_model=None,
    *,
    solver: be.SolverConfig | be.Session | None = None,
    swap_duration: int = DEFAULT_SWAP_DURATION,
) -> SolveResult:
    """Optimal (depth, swap count) for a circuit on a device, with telemetry.

    ``depth_model``/``swap_model`` are optional predictors exposing
    ``predict(features) -> int``; they only seed the search and cannot
    change the reported optima.  ``solver`` is a ``backend.SolverConfig``
    (None for the default), which runs this solve in a session of its own
    on a parked process of that command if one is live, else on a fresh
    one, and parks the process again once the solve ends cleanly; or a live
    ``backend.Session``, which serves it as one of its solves and stays
    open.  A process's earlier solves may change which optimal layout a
    solver returns, never the optima.  The returned solution alone has its
    physical circuit drawn, swaps as three CNOTs.  Bad arguments raise
    ValueError, an instance with no layout :class:`InfeasibleError`, and
    any solver failure :class:`SearchError`.
    """
    check_swap_duration(swap_duration)
    if circuit.num_qubits > graph.num_qubits:
        raise ValueError(
            f"circuit needs {circuit.num_qubits} qubits but device"
            f" {graph.name!r} has {graph.num_qubits}"
        )
    if not any(g.is_two_qubit for g in circuit.gates):
        return _trivial_solution(circuit, graph)
    check_feasible(circuit, graph)
    # a layout without swaps keeps its placement, which then embeds the circuit
    embedding = embeds(circuit, graph)
    swap_floor = int(embedding is False)

    features = extract_features(circuit) if depth_model or swap_model else None
    start = depth_model.predict(features) if depth_model else 0

    checks: list[CheckRecord] = []

    @lru_cache(maxsize=1)   # checks on one grid shape share its context and name tables
    def context(horizon: int, time_bits: int):
        return build_context(circuit, graph, horizon, time_bits, swap_duration)

    def probe(depth: int, swap_bound: Optional[int] = None) -> tuple[bool, object]:
        """One check at a depth bound, plus a swap bound in the swap phase."""
        phase, bound = ("depth", depth) if swap_bound is None else ("swap", swap_bound)
        shape = grid_shape(checks, depth)
        last = (checks[-1].horizon, checks[-1].time_bits) if checks else (0, 0)
        ctx = context(*shape)
        try:
            if shape != last:
                # a deeper grid at the same width needs only its new steps
                start = last[0] if last[1] == shape[1] else 0
                (session.extend if start else session.load)(encode_base(ctx, start))
            bounds = encode_depth_bound(ctx, depth)
            if phase == "swap":
                bounds += encode_swap_bound(ctx, swap_bound)
            result = session.check(bounds, ctx.model_names)
            checks.append(CheckRecord(phase, bound, result.sat, *shape, result.wall_time,
                                      result.bytes_sent, result.launched))
            if not result.sat:
                return False, None
            return True, be.decode_solution(result.values, ctx)
        except (be.SolverError, be.DecodeError) as exc:
            raise SearchError(f"{phase} phase failed at bound {bound} (horizon"
                              f" {shape[0]}, {shape[1]} time bits): {exc}") from exc

    # A sequential schedule runs one gate at a time, each after fewer than
    # num_qubits swaps, so this depth is satisfiable on a feasible instance.
    depth_ceiling = len(circuit.gates) * (1 + swap_duration * graph.num_qubits)
    fresh = solver is None or isinstance(solver, be.SolverConfig)
    try:
        with be.Session(solver) if fresh else solver.solve() as session:
            depth_outcome = run_bound_search(min(start, depth_ceiling),
                                             longest_chain(circuit), probe, depth_ceiling)
            best_depth = depth_outcome.optimum
            swaps_in_model = depth_outcome.payload.swap_count
            if swaps_in_model < swap_floor:
                raise SearchError(f"swap phase failed: the depth model has {swaps_in_model}"
                                  f" swaps, but the device needs at least {swap_floor}")
            predicted_swaps = swap_model.predict(features) if swap_model else swaps_in_model
            swap_outcome = run_bound_search(
                min(predicted_swaps, swaps_in_model), swap_floor,
                lambda bound: probe(best_depth, bound), swaps_in_model,
            )
    except SearchError as exc:
        exc.telemetry = SolveResult(None, None, checks, embeds=embedding).telemetry()
        raise
    return SolveResult(best_depth, swap_outcome.optimum, checks,
                       _drawn(circuit, graph, swap_outcome.payload), embedding)

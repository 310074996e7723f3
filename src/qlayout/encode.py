"""Bit-vector satisfiability encoding of one layout decision instance.

The question "can this circuit be mapped onto this device within depth T_B
(and at most S_B swaps)?" becomes a quantifier-free bit-vector script:

* ``pos_q{q}_t{t}`` — physical location of logical qubit q at step t;
* ``swp_e{k}_t{t}`` — true iff a swap on edge k completes at step t;
* ``time_g{i}`` — execution step of gate i, a bit vector of
  ``time_bits`` bits.

A gate executing at step t contributes t+1 to the final depth; a swap
completing at t occupies its two physical qubits over the window
[t-duration+1, t] and exchanges the mapping that takes effect at t+1.
The time grid has extent ``horizon`` (exclusive), at least any depth bound
asserted against it.  Swaps run ``duration - 1`` steps further
(``swap_extent``), so no swap window is cut off at the horizon; every
depth bound forces these look-ahead swaps false.

The encoding is prefix-closed in time: no step's lines depend on the
horizon.  With ``start=h``, ``declarations`` and ``encode_base`` yield only
the lines of steps h and later (a swap counts at the step its window
starts, and gate times, dependency order and early swaps at step 0), so
the base of horizon h plus those lines of a deeper grid of the same
gate-time width is the deeper grid's base.

Sub-terms that many assertions share are named once, as nullary
``define-fun`` literals, so they add no variables and leave the set of
models over the declared variables unchanged:

* ``at_q{q}_t{t}_p{p}`` — ``(= pos_q{q}_t{t} p)``;
* ``exec_g{i}_t{t}`` — ``(= time_g{i} t)``, for each representable step;
* ``busy_p{p}_t{t}`` — some swap on an edge at p has a window covering t;
* ``blk_q{q}_t{t}`` — logical qubit q sits on a busy physical qubit at t.

Definitions live in the base, ahead of their first use, so they share its
scope in a solver session.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .arch import CouplingGraph
from .circuit import Circuit, build_dag

DEFAULT_SWAP_DURATION = 3


class EncodingError(ValueError):
    """Instance cannot be encoded with the requested shape."""


def check_swap_duration(steps: int) -> None:
    """Raise :class:`EncodingError` unless a swap occupies at least one step."""
    if steps < 1:
        raise EncodingError(f"swap duration must be at least 1 step, not {steps}")


def bit_length(value: int) -> int:
    """Bits needed to represent ``value``: floor(log2(value)) + 1, min 1."""
    return max(1, int(value).bit_length())


def _bv(value: int, width: int) -> str:
    return "#b" + format(value, f"0{width}b")


def _define(name: str, body: str) -> str:
    return f"(define-fun {name} () Bool {body})"


def _any(terms: list[str]) -> str:
    """Disjunction of ``terms``; a single term stands for itself."""
    return terms[0] if len(terms) == 1 else f"(or {' '.join(terms)})"


@dataclass(frozen=True)
class EncodingContext:
    """Variable grids and shape parameters for one instance."""

    circuit: Circuit
    graph: CouplingGraph
    horizon: int                 # exclusive extent of the time grids
    time_bits: int               # width of every gate-time bit vector
    swap_duration: int = DEFAULT_SWAP_DURATION

    def __post_init__(self):
        if self.circuit.num_qubits > self.graph.num_qubits:
            raise EncodingError(
                f"circuit needs {self.circuit.num_qubits} qubits but device"
                f" {self.graph.name!r} has {self.graph.num_qubits}"
            )
        if self.horizon < 1:
            raise EncodingError("time horizon must be at least 1")
        if self.time_bits < 1:
            raise EncodingError("gate-time width must be at least 1 bit")
        check_swap_duration(self.swap_duration)

    @property
    def qubit_bits(self) -> int:
        """Width of each position variable: ceil(log2 |P|), at least 1."""
        n = self.graph.num_qubits
        return max(1, (n - 1).bit_length() if n > 1 else 1)

    @property
    def swap_extent(self) -> int:
        """Exclusive extent of the swap grid: ``swap_duration - 1`` steps
        past the horizon, the last completion of a window starting before it."""
        return self.horizon + self.swap_duration - 1

    @property
    def representable_times(self) -> int:
        """Largest time-step count expressible in gate-time equalities."""
        return min(self.horizon, 1 << self.time_bits)

    def pos_name(self, q: int, t: int) -> str:
        return f"pos_q{q}_t{t}"

    def swap_name(self, e: int, t: int) -> str:
        return f"swp_e{e}_t{t}"

    def time_name(self, g: int) -> str:
        return f"time_g{g}"

    def at_name(self, q: int, t: int, p: int) -> str:
        return f"at_q{q}_t{t}_p{p}"

    def exec_name(self, g: int, t: int) -> str:
        return f"exec_g{g}_t{t}"

    def busy_name(self, p: int, t: int) -> str:
        return f"busy_p{p}_t{t}"

    def blocked_name(self, q: int, t: int) -> str:
        return f"blk_q{q}_t{t}"

    def variables(self, start: int = 0) -> list[tuple[str, str]]:
        """(name, sort) pairs of the steps from ``start`` on, in declaration
        order."""
        out = []
        for q in range(self.circuit.num_qubits):
            for t in range(start, self.horizon):
                out.append((self.pos_name(q, t), f"(_ BitVec {self.qubit_bits})"))
        first_swap = start + self.swap_duration - 1 if start else 0
        for e in range(len(self.graph.edges)):
            for t in range(first_swap, self.swap_extent):
                out.append((self.swap_name(e, t), "Bool"))
        if not start:
            for g in range(len(self.circuit.gates)):
                out.append((self.time_name(g), f"(_ BitVec {self.time_bits})"))
        return out

    def model_names(self) -> list[str]:
        """The variables a decoded model reads: positions at step 0, swaps
        completing before the horizon, and gate times."""
        return [
            *(self.pos_name(q, 0) for q in range(self.circuit.num_qubits)),
            *(self.swap_name(e, t) for e in range(len(self.graph.edges))
              for t in range(self.horizon)),
            *(self.time_name(g) for g in range(len(self.circuit.gates))),
        ]


def build_context(
    circuit: Circuit,
    graph: CouplingGraph,
    horizon: int,
    time_bits: int,
    swap_duration: int = DEFAULT_SWAP_DURATION,
) -> EncodingContext:
    return EncodingContext(circuit, graph, horizon, time_bits, swap_duration)


def declarations(ctx: EncodingContext, start: int = 0) -> list[str]:
    return [f"(declare-const {name} {sort})" for name, sort in ctx.variables(start)]


def encode_base(ctx: EncodingContext, start: int = 0) -> Iterator[str]:
    """The instance-defining constraints of the steps from ``start`` on,
    independent of any bound.

    Families: mapping validity and injectivity; two-qubit adjacency at
    execution time; dependency ordering; swap-window exclusivity and gate
    blocking; mapping transformation after swap completion.  Shared
    sub-terms are defined once, before their first use, as nullary
    ``define-fun`` literals (see the module docstring).  Lines are yielded
    as they are built, so a solver session can take the first ones while
    the rest are encoded.
    """
    nq = ctx.circuit.num_qubits
    nphys = ctx.graph.num_qubits
    qb = ctx.qubit_bits
    edges = ctx.graph.edges
    dur = ctx.swap_duration
    horizon = ctx.horizon
    steps = ctx.representable_times
    at = ctx.at_name

    # Mapping validity: positions inside the device, distinct per step.
    phys_limit = None if nphys == (1 << qb) else _bv(nphys, qb)
    for t in range(start, horizon):
        if phys_limit is not None:
            for q in range(nq):
                yield f"(assert (bvult {ctx.pos_name(q, t)} {phys_limit}))"
        if nq > 1:
            names = " ".join(ctx.pos_name(q, t) for q in range(nq))
            yield f"(assert (distinct {names}))"

    for q in range(nq):
        for t in range(start, horizon):
            pos = ctx.pos_name(q, t)
            for p in range(nphys):
                yield _define(at(q, t, p), f"(= {pos} {_bv(p, qb)})")
    for g in ctx.circuit.gates:
        for t in range(start, steps):
            yield _define(ctx.exec_name(g.id, t),
                          f"(= {ctx.time_name(g.id)} {_bv(t, ctx.time_bits)})")

    # Two-qubit gates execute on device edges.
    for g in ctx.circuit.gates:
        if not g.is_two_qubit:
            continue
        q1, q2 = g.qubits
        for t in range(start, steps):
            placements = " ".join(
                f"(and {at(q1, t, a)} {at(q2, t, b)}) (and {at(q1, t, b)} {at(q2, t, a)})"
                for a, b in edges
            )
            yield f"(assert (=> {ctx.exec_name(g.id, t)} (or {placements})))"

    if not start:
        # Dependent gates execute strictly in order.
        for i, j in sorted(build_dag(ctx.circuit).edges):
            yield f"(assert (bvult {ctx.time_name(i)} {ctx.time_name(j)}))"
        # Swaps need a full window: none may complete before duration-1.
        for e in range(len(edges)):
            for t in range(dur - 1):
                yield f"(assert (not {ctx.swap_name(e, t)}))"

    # Swap windows exclude overlapping swaps on the same or touching edges.
    for t in range(start + dur - 1, ctx.swap_extent):
        for k in range(len(edges)):
            others = [ctx.swap_name(k, tt) for tt in range(t - dur + 1, t)]
            others += [
                ctx.swap_name(kk, tt)
                for kk in ctx.graph.edges_touching(k)
                for tt in range(t - dur + 1, t + 1)
            ]
            if others:
                yield f"(assert (=> {ctx.swap_name(k, t)} (not {_any(others)})))"

    # Swap windows block gates on the swapped physical qubits: a gate may
    # not execute at t while one of its qubits sits on a busy qubit.
    busy = [p for p in range(nphys) if ctx.graph.edges_at(p)]
    if busy:
        for p in busy:
            for t in range(start, steps):
                window = range(max(t, dur - 1), t + dur)
                yield _define(ctx.busy_name(p, t), _any([
                    ctx.swap_name(k, tt) for k in ctx.graph.edges_at(p) for tt in window
                ]))
        for q in range(nq):
            for t in range(start, steps):
                yield _define(ctx.blocked_name(q, t), _any([
                    f"(and {at(q, t, p)} {ctx.busy_name(p, t)})" for p in busy
                ]))
        for g in ctx.circuit.gates:
            for t in range(start, steps):
                blocked = _any([ctx.blocked_name(q, t) for q in g.qubits])
                yield f"(assert (not (and {ctx.exec_name(g.id, t)} {blocked})))"

    # Mapping evolves exactly through completed swaps.
    for t in range(max(start - 1, 0), horizon - 1):
        for q in range(nq):
            for p in range(nphys):
                incident = [ctx.swap_name(k, t) for k in ctx.graph.edges_at(p)]
                if incident:
                    stay = f"(and (not {_any(incident)}) {at(q, t, p)})"
                else:
                    stay = at(q, t, p)
                yield f"(assert (=> {stay} {at(q, t + 1, p)}))"
            for k, (a, b) in enumerate(edges):
                sw = ctx.swap_name(k, t)
                yield f"(assert (=> (and {sw} {at(q, t, a)}) {at(q, t + 1, b)}))"
                yield f"(assert (=> (and {sw} {at(q, t, b)}) {at(q, t + 1, a)}))"


def encode_depth_bound(ctx: EncodingContext, depth_bound: int) -> list[str]:
    """Assert every gate time below the bound and no swap completing at or
    beyond it, look-ahead swaps included."""
    if depth_bound > ctx.horizon:
        raise EncodingError(
            f"depth bound {depth_bound} exceeds time horizon {ctx.horizon};"
            " resize the context first"
        )
    lines = []
    if depth_bound < (1 << ctx.time_bits):
        limit = _bv(depth_bound, ctx.time_bits)
        for g in range(len(ctx.circuit.gates)):
            lines.append(f"(assert (bvult {ctx.time_name(g)} {limit}))")
    for e in range(len(ctx.graph.edges)):
        for t in range(depth_bound, ctx.swap_extent):
            lines.append(f"(assert (not {ctx.swap_name(e, t)}))")
    return lines


def encode_swap_bound(ctx: EncodingContext, swap_bound: int) -> list[str]:
    """Cap the number of true swap indicators before the horizon via a
    zero-extended adder tree; a depth bound forces the later ones false."""
    if swap_bound < 0:
        raise EncodingError("swap bound must be nonnegative")
    all_swaps = [
        ctx.swap_name(e, t)
        for e in range(len(ctx.graph.edges))
        for t in range(ctx.horizon)
    ]
    if not all_swaps or swap_bound >= len(all_swaps):
        return []
    if swap_bound == 0:
        return [f"(assert (not {name}))" for name in all_swaps]
    width = (len(all_swaps)).bit_length()  # ceil(log2(N+1)) for N >= 1
    one, zero = _bv(1, width), _bv(0, width)
    terms = [f"(ite {name} {one} {zero})" for name in all_swaps]
    while len(terms) > 1:
        merged = []
        for i in range(0, len(terms) - 1, 2):
            merged.append(f"(bvadd {terms[i]} {terms[i + 1]})")
        if len(terms) % 2:
            merged.append(terms[-1])
        terms = merged
    return [f"(assert (bvule {terms[0]} {_bv(swap_bound, width)}))"]


PREAMBLE = ("(set-option :produce-models true)", "(set-logic QF_BV)")


def value_query(names) -> str:
    """One batched ``get-value`` for every name in ``names``."""
    return f"(get-value ({' '.join(names)}))"


def emit_script(ctx: EncodingContext, fragments: list[list[str]]) -> str:
    """Assemble a complete solver script: declarations, constraint
    fragments, the satisfiability query, and one value query for the
    variables a decoded model reads."""
    lines = [*PREAMBLE, *declarations(ctx)]
    for fragment in fragments:
        lines.extend(fragment)
    lines.append("(check-sat)")
    lines.append(value_query(ctx.model_names()))
    return "\n".join(lines) + "\n"

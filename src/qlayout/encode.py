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
depth bound forces these look-ahead swaps false.  No window fits before
step 0, so swap variables start at completion step ``first_swap``
(``duration - 1``): an earlier swap is not declared, named or read, and
the mapping holds still over the steps before it.

Each gate g is encoded only at the steps of its window,
``asap(g) <= t < representable_times - tail(g)``, where ``asap`` is
``gate_depths`` - 1 and ``tail(g)`` (``gate_tails``) is the longest chain
of gates that must run after g.  Only there does g get an ``exec`` literal,
an adjacency and a blocking assertion; qubit q gets ``blk`` literals from
the least asap to ``representable_times`` less the least tail of its gates.
Under the dependency order and any depth bound at most the horizon, which
every check asserts, no gate runs outside its window: the base is exact
under such a bound, and only under it.

The encoding is prefix-closed in time: ``encode_base(ctx, h)`` declares
the variables that steps h and later own, then yields the lines they own.
A swap belongs to the step its window starts; gate times and dependency
order to step 0; g's lines at step t to step ``t + tail(g)``, and
q's ``blk`` literal at t to t plus that least tail, so an extension also
carries gate lines of steps below h.  The base of horizon h plus those
lines of a deeper grid of the same gate-time width is the deeper grid's
base.

Sub-terms that many assertions share are named once, as nullary
``define-fun`` literals, so they add no variables and leave the set of
models over the declared variables unchanged:

* ``at_q{q}_t{t}_p{p}`` — ``(= pos_q{q}_t{t} p)``;
* ``exec_g{i}_t{t}`` — ``(= time_g{i} t)``, for each step of gate i's window;
* ``busy_p{p}_t{t}`` — some swap on an edge at p has a window covering t;
* ``blk_q{q}_t{t}`` — logical qubit q sits on a busy physical qubit at t.

Definitions live in the base, ahead of their first use, so they share its
scope in a solver session.

Constraints go out as one ``(assert (and c1 c2 ...))`` per unit that a
single step owns, so a grown base stays the deeper base: mapping validity
(range and ``distinct``) one per step, swap exclusivity one per completion
step, the mapping evolution one per qubit and step, the dependency order
one in all, and each depth bound and swap bound 0 one per check.  Adjacency
and blocking stay one per gate and step.  A group of one term is the term
itself, as SMT-LIB's ``and`` takes two arguments or more.  Solvers split a
top-level conjunction into its conjuncts before they search, and each
conjunct is a single line of an assertion-per-line encoding, in the same
order, with ``(=> a b c)`` for ``(=> (and a b) c)``: the solver gets the same
clauses in fewer commands and bytes.

Each :class:`EncodingContext` builds the names of its variables and its
bit-vector constants once, in tables that the encoders and the decoder
read.  The ``at``/``exec`` names are read only while the base is encoded,
so ``encode_base`` builds them itself and frees them once the base is
streamed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .arch import CouplingGraph
from .circuit import Circuit, build_dag, gate_depths, gate_tails

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


def _any(terms: list[str]) -> str:
    """Disjunction of ``terms``; a single term stands for itself."""
    return terms[0] if len(terms) == 1 else f"(or {' '.join(terms)})"


def _all(terms: list[str]) -> str:
    """Conjunction of ``terms``; a single term stands for itself."""
    return terms[0] if len(terms) == 1 else f"(and {' '.join(terms)})"


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
        return max(1, (self.graph.num_qubits - 1).bit_length())

    @property
    def swap_extent(self) -> int:
        """Exclusive extent of the swap grid: ``swap_duration - 1`` steps
        past the horizon, the last completion of a window starting before it."""
        return self.horizon + self.swap_duration - 1

    @property
    def first_swap(self) -> int:
        """Earliest completion step of a swap, the first with a full window
        from step 0; no swap variable exists before it."""
        return self.swap_duration - 1

    @property
    def representable_times(self) -> int:
        """Largest time-step count expressible in gate-time equalities."""
        return min(self.horizon, 1 << self.time_bits)

    # Name and literal tables, built once per context and only read; name
    # grids are indexed [q][t], [e][t] and [g], swap rows from step 0 though
    # no script names a swap before ``first_swap``.

    @cached_property
    def pos_names(self) -> list[list[str]]:
        return [[f"pos_q{q}_t{t}" for t in range(self.horizon)]
                for q in range(self.circuit.num_qubits)]

    @cached_property
    def swap_names(self) -> list[list[str]]:
        return [[f"swp_e{e}_t{t}" for t in range(self.swap_extent)]
                for e in range(len(self.graph.edges))]

    @cached_property
    def time_names(self) -> list[str]:
        return [f"time_g{g}" for g in range(len(self.circuit.gates))]

    @cached_property
    def qubit_literals(self) -> list[str]:
        """Of each physical qubit, then of the qubit count."""
        return [_bv(p, self.qubit_bits) for p in range(self.graph.num_qubits + 1)]

    @cached_property
    def time_literals(self) -> list[str]:
        """Of each step up to the horizon that the gate-time width holds."""
        return [_bv(t, self.time_bits) for t in range(min(self.horizon + 1, 1 << self.time_bits))]

    @cached_property
    def model_names(self) -> list[str]:
        """The variables a decoded model reads: positions at step 0, swaps
        completing from ``first_swap`` to before the horizon, and gate times."""
        return [*(row[0] for row in self.pos_names),
                *(name for row in self.swap_names for name in row[self.first_swap:self.horizon]),
                *self.time_names]


def build_context(
    circuit: Circuit,
    graph: CouplingGraph,
    horizon: int,
    time_bits: int,
    swap_duration: int = DEFAULT_SWAP_DURATION,
) -> EncodingContext:
    return EncodingContext(circuit, graph, horizon, time_bits, swap_duration)


def encode_base(ctx: EncodingContext, start: int = 0) -> Iterator[str]:
    """Declarations of the variables that steps from ``start`` on own, then
    the instance-defining constraints they own, independent of any bound
    (see the module docstring for gate windows).

    Families: mapping validity and injectivity; two-qubit adjacency at
    execution time; dependency ordering; swap-window exclusivity and gate
    blocking; mapping transformation after swap completion, each asserted
    in the units the module docstring lists.  Shared sub-terms are defined
    once, before their first use, as nullary ``define-fun`` literals (see
    the module docstring).  Lines are yielded as they are built, so a solver
    session can take the first ones while the rest are encoded.
    """
    nq, nphys, edges = ctx.circuit.num_qubits, ctx.graph.num_qubits, ctx.graph.edges
    dur, first, horizon, steps = (ctx.swap_duration, ctx.first_swap, ctx.horizon,
                                  ctx.representable_times)
    pos, swp, literal = ctx.pos_names, ctx.swap_names, ctx.qubit_literals

    # Declarations: a swap belongs to the step its window starts, and step 0
    # also owns every gate time.
    pos_sort, time_sort = f"(_ BitVec {ctx.qubit_bits})", f"(_ BitVec {ctx.time_bits})"
    yield from (f"(declare-const {name} {pos_sort})" for row in pos for name in row[start:])
    yield from (f"(declare-const {name} Bool)" for row in swp for name in row[start + first:])
    times = () if start else ctx.time_names
    yield from (f"(declare-const {name} {time_sort})" for name in times)

    def owned(asap: int, tail: int) -> range:
        """Window steps, from ``asap`` to ``tail`` short of the last one, whose
        lines (at step t, owned by step t + tail) this call yields."""
        return range(max(asap, start - tail), steps - tail)

    asap, tail = [d - 1 for d in gate_depths(ctx.circuit)], gate_tails(ctx.circuit)
    qubit_asap, qubit_tail = [steps] * nq, [steps] * nq   # least over the qubit's gates
    for g in ctx.circuit.gates:
        for q in g.qubits:
            qubit_asap[q] = min(qubit_asap[q], asap[g.id])
            qubit_tail[q] = min(qubit_tail[q], tail[g.id])
    # name grids [q][t][p] and [g]{t: name}
    at = [[[f"at_q{q}_t{t}_p{p}" for p in range(nphys)] for t in range(horizon)]
          for q in range(nq)]
    run = [{t: f"exec_g{g}_t{t}" for t in owned(asap[g], tail[g])} for g in range(len(asap))]
    incident, touching = ctx.graph.incident, ctx.graph.touching

    # Mapping validity: positions inside the device, distinct per step.
    inside = nphys < 1 << ctx.qubit_bits
    for t in range(start, horizon):
        valid = [f"(bvult {row[t]} {literal[nphys]})" for row in pos] if inside else []
        if nq > 1:
            valid.append(f"(distinct {' '.join(row[t] for row in pos)})")
        if valid:
            yield f"(assert {_all(valid)})"

    for q in range(nq):
        for t in range(start, horizon):
            name, row = pos[q][t], at[q][t]
            for p in range(nphys):
                yield f"(define-fun {row[p]} () Bool (= {name} {literal[p]}))"
    for g, name in enumerate(ctx.time_names):
        for t, exec_t in run[g].items():
            yield f"(define-fun {exec_t} () Bool (= {name} {ctx.time_literals[t]}))"

    # Two-qubit gates execute on device edges.
    for g in ctx.circuit.gates:
        if not g.is_two_qubit:
            continue
        q1, q2 = g.qubits
        for t, exec_t in run[g.id].items():
            at1, at2 = at[q1][t], at[q2][t]
            placements = " ".join(f"(and {at1[a]} {at2[b]}) (and {at1[b]} {at2[a]})"
                                  for a, b in edges)
            yield f"(assert (=> {exec_t} (or {placements})))"

    if not start:
        # Dependent gates execute strictly in order.
        time = ctx.time_names
        order = [f"(bvult {time[i]} {time[j]})" for i, j in sorted(build_dag(ctx.circuit).edges)]
        if order:
            yield f"(assert {_all(order)})"

    # Swap windows exclude overlapping swaps on the same or touching edges.
    for t in range(start + first, ctx.swap_extent):
        opens, exclusive = max(t - dur + 1, first), []
        for k, row in enumerate(swp):
            others = row[opens:t]
            for kk in touching[k]:
                others += swp[kk][opens:t + 1]
            if others:
                exclusive.append(f"(=> {row[t]} (not {_any(others)}))")
        if exclusive:
            yield f"(assert {_all(exclusive)})"

    # Swap windows block gates on the swapped physical qubits: a gate may
    # not execute at t while one of its qubits sits on a busy qubit.
    busy = [p for p in range(nphys) if incident[p]]
    if busy:
        for p in busy:
            for t in range(start, steps):
                window = slice(max(t, first), t + dur)
                swaps = [name for k in incident[p] for name in swp[k][window]]
                yield f"(define-fun busy_p{p}_t{t} () Bool {_any(swaps)})"
        for q in range(nq):
            for t in owned(qubit_asap[q], qubit_tail[q]):
                spots = [f"(and {at[q][t][p]} busy_p{p}_t{t})" for p in busy]
                yield f"(define-fun blk_q{q}_t{t} () Bool {_any(spots)})"
        for g in ctx.circuit.gates:
            for t, exec_t in run[g.id].items():
                blocked = _any([f"blk_q{q}_t{t}" for q in g.qubits])
                yield f"(assert (not (and {exec_t} {blocked})))"

    # Mapping evolves exactly through completed swaps; before the first swap
    # it stays.
    for t in range(max(start - 1, 0), horizon - 1):
        moves = t >= first
        leave = [f"(not {_any([swp[k][t] for k in ks])})" if ks and moves else None
                 for ks in incident]
        for q in range(nq):
            now, after = at[q][t], at[q][t + 1]
            evolve = [f"(=> {leave[p]} {now[p]} {after[p]})" if leave[p]
                      else f"(=> {now[p]} {after[p]})" for p in range(nphys)]
            for k, (a, b) in enumerate(edges if moves else ()):
                evolve += [f"(=> {swp[k][t]} {now[a]} {after[b]})",
                           f"(=> {swp[k][t]} {now[b]} {after[a]})"]
            yield f"(assert {_all(evolve)})"


def encode_depth_bound(ctx: EncodingContext, depth_bound: int) -> list[str]:
    """Assert, in one assertion, every gate time below the bound and no swap
    completing at or beyond it, look-ahead swaps included; a bound below
    ``first_swap`` names no swap."""
    if depth_bound > ctx.horizon:
        raise EncodingError(
            f"depth bound {depth_bound} exceeds time horizon {ctx.horizon};"
            " resize the context first"
        )
    limit = ctx.time_literals[depth_bound] if depth_bound < 1 << ctx.time_bits else None
    terms = [f"(bvult {name} {limit})" for name in ctx.time_names] if limit else []
    for row in ctx.swap_names:
        terms += [f"(not {name})" for name in row[max(depth_bound, ctx.first_swap):]]
    return [f"(assert {_all(terms)})"] if terms else []


def encode_swap_bound(ctx: EncodingContext, swap_bound: int) -> list[str]:
    """Cap the number of true swap indicators from ``first_swap`` to before
    the horizon via a zero-extended adder tree over them; a depth bound
    forces the later ones false."""
    if swap_bound < 0:
        raise EncodingError("swap bound must be nonnegative")
    all_swaps = [name for row in ctx.swap_names for name in row[ctx.first_swap:ctx.horizon]]
    if not all_swaps or swap_bound >= len(all_swaps):
        return []
    if swap_bound == 0:
        return [f"(assert {_all([f'(not {name})' for name in all_swaps])})"]
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
    """Assemble a complete solver script: the preamble, the fragments, the
    first being ``encode_base(ctx)``, the satisfiability query, and one
    value query for the variables a decoded model reads."""
    lines = [*PREAMBLE, *(line for fragment in fragments for line in fragment),
             "(check-sat)", value_query(ctx.model_names)]
    return "\n".join(lines) + "\n"

"""Constraint encoding: variable shapes, script structure, solver semantics."""

import hashlib
import io
import itertools
import random
import re
import shutil
import subprocess
from collections import Counter

import pytest

from qlayout.arch import grid_graph, line_graph, qx2, resolve_graph
from qlayout.backend import check, decode_solution, validate_solution
from qlayout.circuit import Circuit, make_circuit
from qlayout.corpus import circuit_names, load_bundled
from qlayout.encode import (
    EncodingError,
    bit_length,
    build_context,
    emit_script,
    encode_base,
    encode_depth_bound,
    encode_swap_bound,
    value_query,
)

from . import refsolver
from .oracles import brute_force_optimum, brute_force_schedule, encode_base_pairwise

# --------------------------------------------------------------------------
# Shapes and structure (no solver)
# --------------------------------------------------------------------------


def _declared(ctx, start: int = 0) -> list[str]:
    """The leading ``declare-const`` lines of ``encode_base(ctx, start)``."""
    return list(itertools.takewhile(lambda ln: ln.startswith("(declare-const "),
                                    encode_base(ctx, start)))


def _parse_sexp(text: str):
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def walk():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            items = []
            while tokens[pos] != ")":
                items.append(walk())
            pos += 1
            return items
        return tok

    return walk()


def _text(node) -> str:
    """The script text of a parsed term."""
    return node if isinstance(node, str) else f"({' '.join(map(_text, node))})"


def _conjuncts(lines) -> list[str]:
    """``lines`` with each grouped assertion ``(assert (and c1 c2 ...))``
    split into one ``(assert ci)`` per conjunct, in order."""
    out = []
    for line in lines:
        if not line.startswith("(assert (and "):
            out.append(line)
            continue
        _, (_, *terms) = _parse_sexp(line)
        out += [f"(assert {_text(term)})" for term in terms]
    return out


def test_bit_length_is_floor_log2_plus_one():
    assert bit_length(0) == 1
    assert bit_length(1) == 1
    assert bit_length(23) == 5
    assert bit_length(32) == 6


def test_variable_grid_shapes_on_qx2():
    c = make_circuit(2, [("cx", (0, 1))])
    ctx = build_context(c, qx2(), horizon=4, time_bits=5)
    decls = _declared(ctx)
    pos = [d for d in decls if d.startswith("(declare-const pos_")]
    swp = [d for d in decls if d.startswith("(declare-const swp_")]
    tim = [d for d in decls if d.startswith("(declare-const time_")]
    assert len(pos) == 2 * 4                 # |Q| x horizon
    assert all("(_ BitVec 3)" in d for d in pos)   # ceil(log2 5) = 3
    assert len(swp) == 6 * 4                 # |E| x completions 2 to horizon + 1
    assert all(d.endswith("Bool)") for d in swp)
    assert len(tim) == 1
    assert "(_ BitVec 5)" in tim[0]


def test_declaration_count_formula():
    # swaps complete from duration - 1 to horizon + duration - 2: horizon
    # steps per edge, whatever the duration
    c = make_circuit(3, [("cx", (0, 1)), ("h", (2,)), ("cx", (1, 2))])
    for (graph, horizon), duration in itertools.product(
            [(line_graph(4), 7), (qx2(), 5)], (1, 2, 3)):
        ctx = build_context(c, graph, horizon, time_bits=4, swap_duration=duration)
        expected = 3 * horizon + len(graph.edges) * horizon + 3
        assert len(_declared(ctx)) == expected
        # no declaration follows the first constraint
        assert sum(ln.startswith("(declare-const ") for ln in encode_base(ctx)) == expected


def test_context_rejects_bad_shapes():
    c = make_circuit(3, [("cx", (0, 1))])
    with pytest.raises(EncodingError):
        build_context(c, line_graph(2), 4, 3)      # circuit wider than device
    with pytest.raises(EncodingError):
        build_context(c, line_graph(3), 0, 3)
    with pytest.raises(EncodingError):
        build_context(c, line_graph(3), 4, 0)
    with pytest.raises(EncodingError):
        build_context(c, line_graph(3), 4, 3, swap_duration=0)


def test_range_assertion_skipped_for_power_of_two_devices():
    c = make_circuit(2, [("cx", (0, 1))])
    four = grid_graph(2, 2)                        # 4 qubits, 2 bits exactly
    base4 = "\n".join(encode_base(build_context(c, four, 3, 3)))
    assert "bvult pos_" not in base4
    five = qx2()
    base5 = _conjuncts(encode_base(build_context(c, five, 3, 3)))
    assert "(assert (bvult pos_q0_t0 #b101))" in base5


def test_distinct_positions_every_step():
    c = make_circuit(3, [("cx", (0, 1)), ("cx", (1, 2))])
    ctx = build_context(c, line_graph(3), 4, 3)
    base = _conjuncts(encode_base(ctx))
    distinct = [ln for ln in base if "distinct" in ln]
    assert len(distinct) == 4
    assert "(assert (distinct pos_q0_t2 pos_q1_t2 pos_q2_t2))" in distinct


def test_adjacency_implications_capped_by_time_bits():
    c = make_circuit(2, [("cx", (0, 1))])
    ctx = build_context(c, line_graph(3), horizon=10, time_bits=2)
    base = list(encode_base(ctx))
    on_time = [ln for ln in base if ln.startswith("(assert (=> exec_g0_t")]
    assert len(on_time) == 4                       # t in 0..3 only (2 bits)
    assert "(define-fun exec_g0_t3 () Bool (= time_g0 #b11))" in base
    assert not any("exec_g0_t4" in ln for ln in base)
    assert on_time[0] == (
        "(assert (=> exec_g0_t0 (or (and at_q0_t0_p0 at_q1_t0_p1)"
        " (and at_q0_t0_p1 at_q1_t0_p0) (and at_q0_t0_p1 at_q1_t0_p2)"
        " (and at_q0_t0_p2 at_q1_t0_p1))))"
    )
    assert "(define-fun at_q1_t0_p2 () Bool (= pos_q1_t0 #b10))" in base


def test_dag_order_constraints_present():
    c = make_circuit(3, [("cx", (0, 1)), ("cx", (1, 2)), ("h", (0,))])
    ctx = build_context(c, line_graph(3), 4, 3)
    base = _conjuncts(encode_base(ctx))
    assert "(assert (bvult time_g0 time_g1))" in base
    assert "(assert (bvult time_g0 time_g2))" in base


def test_single_qubit_only_circuit_has_no_adjacency_family():
    c = make_circuit(2, [("h", (0,)), ("x", (1,))])
    ctx = build_context(c, line_graph(3), 4, 3)
    base = list(encode_base(ctx))
    assert not any(ln.startswith("(assert (=> exec_") for ln in base)
    assert not any(re.search(r"\(and at_q\S+ at_q", ln) for ln in base)  # no placements


def test_blocking_is_one_assertion_per_gate_and_step():
    # gates 0 and 1 (tail 1) run at steps 0 to steps - 2, gate 2 (asap 1)
    # at steps 1 to steps - 1, of the 4, 8 and 9 representable steps
    c = make_circuit(3, [("cx", (0, 1)), ("h", (2,)), ("cx", (1, 2))])
    for time_bits, count in ((2, 3 + 3 + 3), (3, 7 + 7 + 7), (4, 8 + 8 + 8)):
        ctx = build_context(c, qx2(), 9, time_bits)
        base = list(encode_base(ctx))
        blocking = [ln for ln in base if ln.startswith("(assert (not (and exec_")]
        assert len(blocking) == count
        assert "(assert (not (and exec_g1_t2 blk_q2_t2)))" in blocking
        assert "(assert (not (and exec_g2_t3 (or blk_q1_t3 blk_q2_t3))))" in blocking
        assert not any("exec_g2_t0" in ln for ln in base)
        last = ctx.representable_times - 1
        assert not any(f"exec_g0_t{last} " in ln for ln in base)
        assert f"(define-fun blk_q2_t{last} " in "\n".join(base)


_SWAP = re.compile(r"\bswp_e(\d+)_t(\d+)\b")


def test_early_swaps_forbidden_by_duration():
    # a swap without a full window before it is neither declared nor named:
    # not in the base, an extension, any depth bound (below duration - 1
    # too), a swap bound or the value query
    c = make_circuit(2, [("cx", (0, 1))])
    for duration in (1, 2, 3):
        ctx = build_context(c, line_graph(3), 6, 3, swap_duration=duration)
        assert ctx.first_swap == duration - 1
        script = [*encode_base(ctx), *encode_base(ctx, 1), value_query(ctx.model_names)]
        for bound in range(ctx.horizon + 1):
            script += encode_depth_bound(ctx, bound)
        for bound in range(3):
            script += encode_swap_bound(ctx, bound)
        steps = {int(t) for line in script for _, t in _SWAP.findall(line)}
        assert min(steps) == duration - 1
        assert max(steps) == ctx.swap_extent - 1
        assert f"(declare-const swp_e1_t{duration - 1} Bool)" in script
        # a depth bound below the first completion step forces off the declared swaps
        below = encode_depth_bound(ctx, 0)
        assert ({int(t) for line in below for _, t in _SWAP.findall(line)}
                == set(range(duration - 1, ctx.swap_extent)))


def test_a_swap_at_the_first_completion_step_moves_its_qubits():
    # q0 sits on physical qubit 1 when a swap on edge (1, 2) completes at
    # the first step a whole window reaches: the next step has q0 on 2
    c = make_circuit(2, [("cx", (0, 1))])
    for duration in (1, 2, 3):
        ctx = build_context(c, line_graph(3), duration + 1, 3, swap_duration=duration)
        t, moved = ctx.first_swap, ctx.pos_names[0][ctx.first_swap + 1]
        script = [*encode_base(ctx), *encode_depth_bound(ctx, ctx.horizon),
                  f"(assert {ctx.swap_names[1][t]})",
                  f"(assert (= {ctx.pos_names[0][t]} {ctx.qubit_literals[1]}))"]
        for spot in (2, 1):
            script += ["(push 1)", f"(assert (= {moved} {ctx.qubit_literals[spot]}))",
                       "(check-sat)", "(pop 1)"]
        out = io.StringIO()
        assert refsolver.run("\n".join(script) + "\n", out) == 0
        assert out.getvalue().split() == ["sat", "unsat"], duration


def test_depth_bound_fragment():
    c = make_circuit(2, [("cx", (0, 1)), ("h", (0,))])
    ctx = build_context(c, line_graph(3), 8, 3)
    frag = _conjuncts(encode_depth_bound(ctx, 5))
    assert "(assert (bvult time_g0 #b101))" in frag
    assert "(assert (bvult time_g1 #b101))" in frag
    # swaps at t >= 5 forbidden
    assert "(assert (not swp_e0_t5))" in frag
    assert "(assert (not swp_e1_t7))" in frag
    assert "(assert (not swp_e1_t9))" in frag      # look-ahead swaps too
    assert not any("swp_e1_t10" in ln for ln in frag)
    with pytest.raises(EncodingError):
        encode_depth_bound(ctx, 9)


def test_depth_bound_gate_clause_skipped_when_unrepresentable():
    c = make_circuit(2, [("cx", (0, 1))])
    ctx = build_context(c, line_graph(3), 8, time_bits=3)
    frag = encode_depth_bound(ctx, 8)              # 8 = 2^3: bvult impossible
    assert all("bvult" not in ln for ln in frag)
    assert all("swp" in ln for ln in frag) or frag == []


def test_swap_bound_special_cases():
    c = make_circuit(2, [("cx", (0, 1))])
    ctx = build_context(c, line_graph(3), 4, 3)
    zero = _conjuncts(encode_swap_bound(ctx, 0))
    assert len(zero) == 2 * 2                      # every indicator, steps 2-3, forced off
    assert all(ln.startswith("(assert (not swp_") for ln in zero)
    assert len(encode_swap_bound(ctx, 0)) == 1              # one assertion per check
    assert len(encode_swap_bound(ctx, 3)) == 1
    assert encode_swap_bound(ctx, 4) == []         # >= |sigma|: vacuous
    assert encode_swap_bound(ctx, 9) == []
    with pytest.raises(EncodingError):
        encode_swap_bound(ctx, -1)


# --------------------------------------------------------------------------
# Prefix closure: a grid grown in place is the deeper grid
# --------------------------------------------------------------------------


def _grown_grids():
    """(base of horizon h, lines of steps h on at horizon h2, base of h2)
    for h < h2, over seeded circuits on four devices, swap durations 1-3
    and gate-time widths 3-5."""
    rng = random.Random(17)
    for spec in ("qx2", "line:5", "grid:2x3", "ring:5"):
        graph = resolve_graph(spec)
        for width in (2, 3, 4):
            gates = []
            for _ in range(rng.randint(2, 5)):
                a, b = rng.sample(range(width), 2)
                gates.append(("cx", (a, b)) if rng.random() < 0.7 else ("h", (a,)))
            circuit = make_circuit(width, gates)
            for duration in (1, 2, 3):
                for bits in (3, 4, 5):
                    h = rng.randint(1, 7)
                    h2 = rng.randint(h + 1, 10)
                    small, big = (build_context(circuit, graph, x, bits, duration)
                                  for x in (h, h2))
                    yield (list(encode_base(small)), list(encode_base(big, h)),
                           list(encode_base(big)))


def test_a_base_plus_its_extension_is_the_deeper_base():
    cases = 0
    for base, extension, deeper in _grown_grids():
        assert extension
        assert Counter(base + extension) == Counter(deeper)
        cases += 1
    assert cases == 108


def test_a_grown_base_repeats_no_line():
    for base, extension, _ in _grown_grids():
        stream = base + extension
        assert len(set(stream)) == len(stream)


_NAME = re.compile(r"\b(?:pos|swp|time|at|exec|busy|blk)_[a-z0-9_]+")


def test_a_grown_base_names_every_symbol_before_its_first_use():
    for base, extension, _ in _grown_grids():
        known = set()
        for line in base + extension:
            names = _NAME.findall(line)
            if line.startswith(("(declare-const ", "(define-fun ")):
                new, names = names[0], names[1:]
                assert new not in known, line
            else:
                new = None
            assert known.issuperset(names), line
            if new:
                known.add(new)


def test_extension_lines_start_at_their_step():
    c = make_circuit(2, [("cx", (0, 1)), ("cx", (0, 1))])
    ctx = build_context(c, line_graph(3), horizon=5, time_bits=3, swap_duration=3)
    assert _declared(ctx, 4) == [
        "(declare-const pos_q0_t4 (_ BitVec 2))", "(declare-const pos_q1_t4 (_ BitVec 2))",
        "(declare-const swp_e0_t6 Bool)", "(declare-const swp_e1_t6 Bool)",
    ]
    extension = _conjuncts(encode_base(ctx, 4))
    assert "(assert (bvult time_g0 time_g1))" in _conjuncts(encode_base(ctx))
    assert not any("time_g1 time_g0" in ln or "time_g0 time_g1" in ln for ln in extension)
    # a window starting at step 4 ends at the look-ahead swap 6
    assert "(define-fun busy_p0_t4 () Bool (or swp_e0_t4 swp_e0_t5 swp_e0_t6))" in extension
    # the mapping evolves from the old grid's last step into the new one
    assert "(assert (=> swp_e0_t3 at_q0_t3_p0 at_q0_t4_p1))" in extension
    assert ctx.model_names == [
        "pos_q0_t0", "pos_q1_t0", *(f"swp_e{e}_t{t}" for e in (0, 1) for t in range(2, 5)),
        "time_g0", "time_g1",
    ]


_EXEC = re.compile(r"\(define-fun exec_g(\d+)_t(\d+) ")


def _gate_steps(lines) -> set[tuple[int, int]]:
    """(gate, step) of every ``exec`` literal that ``lines`` define."""
    return {(int(g), int(t)) for g, t in (m.groups() for m in map(_EXEC.match, lines) if m)}


def test_an_extension_carries_gate_lines_of_steps_below_its_start():
    # one chain of four gates on a 6-step grid: gate g runs at steps g to
    # g + 2, and its lines at step t belong to step t + 3 - g
    c = make_circuit(2, [("h", (0,)), ("h", (0,)), ("cx", (0, 1)), ("x", (1,))])
    ctx = build_context(c, line_graph(2), horizon=6, time_bits=3)
    for start in (0, 2, 4, 5):
        extension = list(encode_base(ctx, start))
        want = {(g, t) for g in range(4) for t in range(g, g + 3) if t + 3 - g >= start}
        assert _gate_steps(extension) == want
        blocking = [ln.replace("(assert (not (and ", "(define-fun ") for ln in extension
                    if ln.startswith("(assert (not (and exec_")]
        assert _gate_steps(blocking) == want
        assert any(t < start for _, t in want) == (start > 0)
    # the two-qubit gate's step-3 adjacency belongs to step 4
    assert ("(assert (=> exec_g2_t3 (or (and at_q0_t3_p0 at_q1_t3_p1)"
            " (and at_q0_t3_p1 at_q1_t3_p0))))") in list(encode_base(ctx, 4))


# --------------------------------------------------------------------------
# The solver input is pinned byte for byte
# --------------------------------------------------------------------------

# (horizon, gate-time width, swap duration): a width that covers the
# horizon, one narrower than it, a wide one, and one-step swaps.
_PINNED_SHAPES = ((3, 2, 3), (6, 2, 3), (9, 4, 3), (5, 3, 1))

# Byte count and SHA-256 of each part of the encoder's output over
# _pinned_parts' cases: a change here is a change to what every solver is
# sent, so only a deliberate change of the encoding may update them.
_PINNED = {
    "base": (8438409, "30b1891817c2080866b874cdad53ec402cd170c338ea78b85020338c00498c9a"),
    "extension_base": (
        4002964, "3bcda2125eb066f88433ff6fbb6fdd5597ebb28fa46ce4f753830f31176202b2"),
    "depth_bound": (119174, "2be1ef2c446ba4f7d0ea1549d76dbc4942d5073fbab1c825783c58d68df3b09c"),
    "swap_bound_0": (118256, "61bb15165947b518a183cd1d341b8099437cacd213dc299643fa4df67fa9a8e0"),
    "swap_bound_1": (293778, "c1bda2e62e90d57b8e7e2b27f0db1a82bf4dfaeb6d54adfe6e02d7d284098ea2"),
    "swap_bound_2": (293778, "083547c043e8d208fd0855fa2d299070ce77e7bb1308f43594550dbc2951600d"),
    "value_query": (108772, "6bbe3f2d79cfc38c71237550c9861b314d5763f047177ac07aae5af066d88179"),
}


def _pinned_parts() -> dict[str, list[str]]:
    """Every encoder output over the bundled circuits of at most 5 qubits on
    four devices and the pinned shapes, one list of lines per part."""
    parts: dict[str, list[str]] = {}
    for spec in ("qx2", "line:5", "ring:5", "grid:2x3"):
        graph = resolve_graph(spec)
        for name in circuit_names():
            circuit = load_bundled(name)
            if circuit.num_qubits > 5:
                continue
            for horizon, bits, duration in _PINNED_SHAPES:
                ctx = build_context(circuit, graph, horizon, bits, duration)
                grown = horizon // 2 + 1
                for part, lines in (
                    ("base", encode_base(ctx)),
                    ("extension_base", encode_base(ctx, grown)),
                    ("depth_bound", encode_depth_bound(ctx, horizon - 1)),
                    *((f"swap_bound_{b}", encode_swap_bound(ctx, b)) for b in (0, 1, 2)),
                    ("value_query", [value_query(ctx.model_names)]),
                ):
                    parts.setdefault(part, []).extend(lines)
    return parts


def test_encoder_output_is_pinned():
    found = {}
    for part, lines in _pinned_parts().items():
        text = "".join(line + "\n" for line in lines).encode()
        found[part] = (len(text), hashlib.sha256(text).hexdigest())
    assert found == _PINNED


_TOKEN = re.compile(r"[()]|[^\s()]+")


def _short_connectives(text: str) -> Counter:
    """Applications of ``and``, ``or`` and ``=>`` in ``text`` with fewer than
    two arguments, by operator."""
    short, open_terms = Counter(), []      # [operator, arguments] of each open term
    for token in _TOKEN.findall(text):
        if token == ")":
            op, count = open_terms.pop()
            if op in ("and", "or", "=>") and count < 2:
                short[op] += 1
        if token == "(":
            open_terms.append([None, 0])
        elif open_terms and open_terms[-1][0] is None:
            open_terms[-1][0] = token      # a closed term in head position reads ")"
        elif open_terms:
            open_terms[-1][1] += 1
    return short


def test_every_connective_has_at_least_two_arguments():
    # SMT-LIB's and, or and => take two arguments or more, and a strict
    # parser rejects (and x): a group of one term must be the term itself
    assert _short_connectives("(assert (and (or x) (=> y)))") == {"or": 1, "=>": 1}
    assert _short_connectives("(assert (=> (and y) (or x y) z))") == {"and": 1}
    for part, lines in _pinned_parts().items():
        assert _short_connectives("\n".join(lines)) == Counter(), part


# --------------------------------------------------------------------------
# The compact base has the models of the pairwise one
# --------------------------------------------------------------------------


def _holds(commands, values) -> bool:
    """Truth of a parsed base under ``values``, definitions evaluated in order;
    declarations are passed over."""
    model = dict(values)
    for cmd in commands:
        if cmd[0] == "define-fun":
            model[cmd[1]] = refsolver.evaluate(cmd[4], model)
        elif cmd[0] == "assert" and refsolver.evaluate(cmd[1], model) is not True:
            return False
    return True


def _schedule_values(ctx, schedule) -> dict:
    """The declared variables of ``ctx`` set from an oracle schedule."""
    values = {}
    last = len(schedule.placements) - 1
    for q in range(ctx.circuit.num_qubits):
        for t in range(ctx.horizon):
            values[ctx.pos_names[q][t]] = (schedule.placements[min(t, last)][q], ctx.qubit_bits)
    for k, edge in enumerate(ctx.graph.edges):
        for t in range(ctx.swap_extent):
            values[ctx.swap_names[k][t]] = (edge, t) in schedule.swaps
    for g, t in schedule.gate_times.items():
        values[ctx.time_names[g]] = (t, ctx.time_bits)
    return values


def _mutations(commands, values):
    """Every assignment that differs from ``values`` in one variable that
    the parsed ``commands`` declare."""
    for _, name, sort in (cmd for cmd in commands if cmd[0] == "declare-const"):
        if sort == "Bool":
            yield {**values, name: not values[name]}
            continue
        value, width = values[name]
        for other in range(1 << width):
            if other != value:
                yield {**values, name: (other, width)}


MODEL_SET_CASES = [
    ("line:3", make_circuit(3, [("h", (0,)), ("cx", (0, 1)), ("h", (1,)),
                                ("cx", (1, 2)), ("cx", (0, 2))]), line_graph(3)),
    ("grid:2x2", make_circuit(3, [("cx", (0, 1)), ("cx", (1, 2)), ("cx", (0, 2))]),
     grid_graph(2, 2)),
    ("qx2", make_circuit(4, [("cx", (0, 1)), ("cx", (2, 3)), ("cx", (0, 3)), ("h", (1,)),
                             ("cx", (1, 2))]), qx2()),
]


@pytest.mark.parametrize("name,circuit,graph", MODEL_SET_CASES,
                         ids=[c[0] for c in MODEL_SET_CASES])
def test_compact_base_agrees_with_pairwise_base(name, circuit, graph):
    depth, schedule = brute_force_schedule(circuit, graph)
    assert schedule.swaps                          # the swap families take part
    horizon = depth + 3
    # full-width gate times, then the optimum's width, as the search narrows
    # them after a satisfiable check (on line:3, 8 steps of a 10-step grid)
    for time_bits in (bit_length(horizon), bit_length(depth)):
        ctx = build_context(circuit, graph, horizon, time_bits)
        # the premise every check asserts: no swap completes at or past the
        # horizon, where the pairwise base declares none, and no gate runs
        # outside the window of steps that the compact base encodes it at
        premise = encode_depth_bound(ctx, ctx.horizon)
        new = refsolver.parse("\n".join([*premise, *encode_base(ctx)]))
        old = refsolver.parse("\n".join([*premise, *encode_base_pairwise(ctx)]))
        valid = _schedule_values(ctx, schedule)
        assert _holds(new, valid) and _holds(old, valid)
        verdicts = set()
        for values in _mutations(new, valid):
            verdict = _holds(new, values)
            assert verdict == _holds(old, values), (name, time_bits, values)
            verdicts.add(verdict)
        assert verdicts == {True, False}


@pytest.mark.parametrize("name,circuit,graph", MODEL_SET_CASES[:2],
                         ids=[c[0] for c in MODEL_SET_CASES[:2]])
def test_compact_base_is_equivalent_to_pairwise_base(name, circuit, graph):
    # an exact proof on the reference solver: no assignment of the declared
    # variables satisfies one base and not the other.  The pairwise base names swaps
    # completing before a full window, which the compact one never declares;
    # the premise declares them false, as a decoded model reads them
    depth, _ = brute_force_schedule(circuit, graph)
    ctx = build_context(circuit, graph, depth + 1, bit_length(depth + 1))
    new = list(encode_base(ctx))
    symbols = [ln for ln in new if ln.startswith(("(declare-const ", "(define-fun "))]
    early = [name for row in ctx.swap_names for name in row[:ctx.first_swap]]
    assert early and not any(name in ln for ln in new for name in early)
    new_body = " ".join(ln[len("(assert "):-1] for ln in new if ln.startswith("(assert "))
    old_body = " ".join(ln[len("(assert "):-1] for ln in encode_base_pairwise(ctx))
    script = "\n".join([
        *(f"(declare-const {name} Bool)" for name in early), *symbols,
        *(f"(assert (not {name}))" for name in early), *encode_depth_bound(ctx, ctx.horizon),
        f"(assert (not (= (and {old_body}) (and {new_body}))))", "(check-sat)",
    ])
    out = io.StringIO()
    refsolver.run(script + "\n", out)
    assert out.getvalue() == "unsat\n"


# --------------------------------------------------------------------------
# Gate windows: outside its window, a gate is refuted at every step
# --------------------------------------------------------------------------

WINDOW_CASES = [
    # (name, circuit, device, swap-free): the interaction path 0-1-2 fits
    # line:3 as it is, so there a gate can run at every step of its window
    ("path", make_circuit(3, [("h", (0,)), ("cx", (0, 1)), ("cx", (1, 2)), ("h", (2,)),
                              ("x", (0,))]), line_graph(3), True),
    ("triangle", make_circuit(3, [("cx", (0, 1)), ("cx", (1, 2)), ("cx", (0, 2))]),
     line_graph(3), False),
]


def test_a_gate_is_refuted_at_every_step_outside_its_window():
    # on a full-width grid, and on a narrow one whose last representable
    # step lies below the horizon
    for (name, circuit, graph, swap_free), (horizon, time_bits) in itertools.product(
            WINDOW_CASES, ((7, 3), (7, 2))):
        ctx = build_context(circuit, graph, horizon, time_bits)
        base = list(encode_base(ctx))
        kept = _gate_steps(base)
        steps = [(g, t) for g in range(len(circuit.gates)) for t in range(ctx.representable_times)]
        assert kept < set(steps)
        script = [*base, *encode_depth_bound(ctx, horizon)]
        for g, t in steps:
            script += ["(push 1)", f"(assert (= {ctx.time_names[g]} {ctx.time_literals[t]}))",
                       "(check-sat)", "(pop 1)"]
        out = io.StringIO()
        assert refsolver.run("\n".join(script) + "\n", out) == 0
        sat = dict(zip(steps, (verdict == "sat" for verdict in out.getvalue().split())))
        for step in steps:
            if step not in kept:
                assert not sat[step], (name, time_bits, step)
            elif swap_free:
                assert sat[step], (name, time_bits, step)


# --------------------------------------------------------------------------
# Adder-tree popcount: evaluate the emitted term against naive counting
# --------------------------------------------------------------------------


def _eval_bv(node, env, width):
    if isinstance(node, str):
        if node.startswith("#b"):
            return int(node[2:], 2)
        return env[node]
    op = node[0]
    if op == "ite":
        branch = node[2] if _eval_bv(node[1], env, width) else node[3]
        return _eval_bv(branch, env, width)
    if op == "bvadd":
        return (_eval_bv(node[1], env, width) + _eval_bv(node[2], env, width)) % (1 << width)
    if op == "bvule":
        return _eval_bv(node[1], env, width) <= _eval_bv(node[2], env, width)
    raise AssertionError(f"unexpected operator {op}")


def test_adder_tree_popcount_matches_naive_count():
    rng = random.Random(61)
    c = make_circuit(3, [("cx", (0, 1)), ("cx", (1, 2))])
    ctx = build_context(c, line_graph(4), horizon=5, time_bits=3)
    # a leaf per swap from the first full window to the horizon
    n_indicators = len(ctx.graph.edges) * (ctx.horizon - ctx.first_swap)
    width = n_indicators.bit_length()
    for _ in range(100):
        env = {
            ctx.swap_names[e][t]: rng.random() < 0.4
            for e in range(len(ctx.graph.edges))
            for t in range(ctx.first_swap, ctx.horizon)
        }
        true_count = sum(env.values())
        bound = rng.randint(0, n_indicators - 1)
        frag = encode_swap_bound(ctx, bound)
        if bound == 0:
            frag = _conjuncts(frag)
            holds = true_count == 0
            assert all(ln.startswith("(assert (not ") for ln in frag)
            violated = any(env[re.findall(r"swp_e\d+_t\d+", ln)[0]] for ln in frag)
            assert violated != holds
            continue
        assert len(frag) == 1
        node = _parse_sexp(frag[0])
        assert node[0] == "assert"
        comparison = node[1]
        assert comparison[0] == "bvule"
        total = _eval_bv(comparison[1], env, width)
        assert total == true_count                 # adder never overflows
        assert _eval_bv(comparison, env, width) == (true_count <= bound)


# --------------------------------------------------------------------------
# Script assembly
# --------------------------------------------------------------------------


def test_emit_script_layout():
    c = make_circuit(2, [("cx", (0, 1))])
    ctx = build_context(c, line_graph(3), 4, 3)
    script = emit_script(ctx, [encode_base(ctx), encode_depth_bound(ctx, 2)])
    lines = script.strip().splitlines()
    assert lines[0] == "(set-option :produce-models true)"
    assert lines[1] == "(set-logic QF_BV)"
    check_at = lines.index("(check-sat)")
    # one batched query names the variables a decoded model reads: positions
    # at step 0, swaps completing from the first full window to before the
    # horizon, gate times
    assert lines[check_at + 1:] == [
        "(get-value (pos_q0_t0 pos_q1_t0 swp_e0_t2 swp_e0_t3 swp_e1_t2 swp_e1_t3 time_g0))"
    ]
    assert script.count("(") == script.count(")")


# --------------------------------------------------------------------------
# Solver semantics vs the exhaustive oracle
# --------------------------------------------------------------------------

TINY_CASES = [
    ("adjacent pair", make_circuit(2, [("cx", (0, 1))]), line_graph(3)),
    ("distant pair", make_circuit(3, [("cx", (0, 1)), ("cx", (0, 2))]), line_graph(3)),
    (
        "triangle demand",
        make_circuit(3, [("cx", (0, 1)), ("cx", (1, 2)), ("cx", (0, 2))]),
        line_graph(3),
    ),
    (
        "mixed with 1q",
        make_circuit(3, [("h", (0,)), ("cx", (0, 1)), ("h", (1,)), ("cx", (0, 2))]),
        line_graph(3),
    ),
]


def _probe(circuit, graph, depth_bound, swap_bound, solver):
    horizon = depth_bound + 4
    ctx = build_context(circuit, graph, horizon, bit_length(horizon))
    frags = [encode_base(ctx), encode_depth_bound(ctx, depth_bound)]
    if swap_bound is not None:
        frags.append(encode_swap_bound(ctx, swap_bound))
    return ctx, check(emit_script(ctx, frags), solver)


@pytest.mark.parametrize("name,circuit,graph", TINY_CASES, ids=[c[0] for c in TINY_CASES])
def test_encoding_agrees_with_exhaustive_oracle(name, circuit, graph, small_solver):
    want_depth, want_swaps = brute_force_optimum(circuit, graph)

    # smallest satisfiable depth bound equals the oracle's optimum
    ctx, result = _probe(circuit, graph, want_depth, None, small_solver)
    assert result.sat, f"{name}: expected SAT at depth {want_depth}"
    if want_depth > 1:
        _, below = _probe(circuit, graph, want_depth - 1, None, small_solver)
        assert not below.sat, f"{name}: expected UNSAT at depth {want_depth - 1}"

    # smallest satisfiable swap bound at that depth equals the oracle's
    _, at = _probe(circuit, graph, want_depth, want_swaps, small_solver)
    assert at.sat, f"{name}: expected SAT at {want_swaps} swaps"
    if want_swaps > 0:
        _, under = _probe(circuit, graph, want_depth, want_swaps - 1, small_solver)
        assert not under.sat, f"{name}: expected UNSAT at {want_swaps - 1} swaps"

    # every model decodes into a solution the independent validator accepts
    solution = decode_solution(result.values, ctx)
    report = validate_solution(circuit, graph, solution)
    assert report.ok, report.violations
    assert solution.final_depth <= want_depth


def test_bound_monotonicity(small_solver):
    circuit = TINY_CASES[2][1]                     # triangle demand
    graph = TINY_CASES[2][2]
    _, up_depth = _probe(circuit, graph, 7, 1, small_solver)
    assert up_depth.sat
    _, up_swaps = _probe(circuit, graph, 6, 2, small_solver)
    assert up_swaps.sat


def test_unroutable_bound_is_unsat(small_solver):
    # a triangle of demands cannot be met in 3 steps: no swap fits
    circuit = TINY_CASES[2][1]
    _, result = _probe(circuit, line_graph(3), 3, None, small_solver)
    assert not result.sat


def test_adjacent_cx_solves_at_depth_one(small_solver):
    circuit = make_circuit(2, [("cx", (0, 1))])
    ctx, result = _probe(circuit, line_graph(2), 1, None, small_solver)
    assert result.sat
    solution = decode_solution(result.values, ctx)
    assert solution.gate_times == (0,)
    assert solution.swap_count == 0


def test_empty_circuit_script_is_sat(small_solver):
    ctx = build_context(Circuit(num_qubits=1), line_graph(2), 1, 1)
    result = check(emit_script(ctx, [encode_base(ctx)]), small_solver)
    assert result.sat


def test_script_parses_on_second_solver_if_available():
    second = shutil.which("cvc5") or shutil.which("cvc4")
    if second is None:
        pytest.skip("no second SMT solver on PATH for the cross-parse check")
    circuit = TINY_CASES[1][1]                     # distant pair
    # depth bound 3 lies above the optimum, so the script is satisfiable
    assert brute_force_optimum(circuit, line_graph(3))[0] < 3
    ctx = build_context(circuit, line_graph(3), 5, 3)
    script = emit_script(ctx, [encode_base(ctx), encode_depth_bound(ctx, 3)])
    proc = subprocess.run(
        [second, "--lang", "smt2"], input=script.encode(), capture_output=True, timeout=60
    )
    out = proc.stdout.decode()
    assert "error" not in out.lower()
    assert out.splitlines()[0] == "sat"

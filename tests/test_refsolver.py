"""The reference solver (``tests/refsolver.py``) against exhaustive
enumeration, so the tests that run on it where z3 is absent can trust it."""

import dataclasses
import io
import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from qlayout.backend import Session, check

from . import refsolver
from .conftest import REFERENCE_SOLVER

SORTS = {"a": 0, "b": 0, "x": 3, "y": 2, "z": 2}  # 0 = Bool, n = (_ BitVec n)
COMPARISONS = ("bvult", "bvule", "bvugt", "bvuge")


def _term(rng, sort, depth, sorts=SORTS):
    """A random term of ``sort`` over the symbols in ``sorts``."""
    if depth == 0 or rng.random() < 0.25:
        names = [n for n, s in sorts.items() if s == sort]
        if names and rng.random() < 0.7:
            return rng.choice(names)
        if sort == 0:
            return rng.choice(["true", "false"])
        return "#b" + format(rng.randrange(1 << sort), f"0{sort}b")
    sub = depth - 1

    def term(s):
        return _term(rng, s, sub, sorts)

    if sort:
        if rng.random() < 0.5:
            return ("bvadd", term(sort), term(sort))
        return ("ite", term(0), term(sort), term(sort))
    op = rng.choice(["not", "and", "or", "xor", "=>", "=", "distinct", "ite", "cmp"])
    if op == "not":
        return ("not", term(0))
    if op == "ite":
        return ("ite", term(0), term(0), term(0))
    if op == "cmp":
        width = rng.choice([2, 3])
        return (rng.choice(COMPARISONS), term(width), term(width))
    width = rng.choice([0, 2, 3]) if op in ("=", "distinct") else 0
    return (op,) + tuple(term(width) for _ in range(rng.randint(2, 3)))


def _holds(sexp, model, sorts=SORTS) -> bool:
    """Direct truth of a term, written apart from the solver's evaluator."""
    if isinstance(sexp, str):
        if sexp in ("true", "false"):
            return sexp == "true"
        if sexp.startswith("#b"):
            return int(sexp[2:], 2)
        return model[sexp]
    op, args = sexp[0], [_holds(a, model, sorts) for a in sexp[1:]]
    if op == "bvadd":
        width = _width(sexp[1], sorts)
        return (args[0] + args[1]) % (1 << width)
    table = {
        "not": lambda: not args[0],
        "and": lambda: all(args),
        "or": lambda: any(args),
        "xor": lambda: sum(map(bool, args)) % 2 == 1,
        "=>": lambda: _implies(args),
        "=": lambda: len(set(args)) == 1,
        "distinct": lambda: len(set(args)) == len(args),
        "ite": lambda: args[1] if args[0] else args[2],
        "bvult": lambda: args[0] < args[1],
        "bvule": lambda: args[0] <= args[1],
        "bvugt": lambda: args[0] > args[1],
        "bvuge": lambda: args[0] >= args[1],
    }
    return table[op]()


def _implies(args) -> bool:
    out = args[-1]
    for a in reversed(args[:-1]):
        out = (not a) or out
    return out


def _width(sexp, sorts=SORTS) -> int:
    if isinstance(sexp, str):
        return len(sexp) - 2 if sexp.startswith("#b") else sorts[sexp]
    return _width(sexp[-1], sorts)  # bvadd and ite: the last argument has the sort


def _assignments():
    domains = [[False, True] if s == 0 else range(1 << s) for s in SORTS.values()]
    for values in itertools.product(*domains):
        yield dict(zip(SORTS, values))


def _sort_text(sort: int) -> str:
    return "Bool" if sort == 0 else f"(_ BitVec {sort})"


def _declarations() -> list[str]:
    return [f"(declare-const {n} {_sort_text(s)})" for n, s in SORTS.items()]


def _parse_values(line: str, sorts=SORTS) -> dict:
    """The values of a ``get-value`` reply that names every symbol in ``sorts``."""
    pairs = dict(p.split() for p in line[2:-2].split(") ("))
    return {
        n: pairs[n] == "true" if s == 0 else int(pairs[n][2:], 2) for n, s in sorts.items()
    }


def _answer(assertions) -> list[str]:
    lines = _declarations()
    lines += [f"(assert {refsolver.term_text(t)})" for t in assertions]
    lines += ["(check-sat)", f"(get-value ({' '.join(SORTS)}))"]
    out = io.StringIO()
    refsolver.run("\n".join(lines) + "\n", out)
    return out.getvalue().splitlines()


@pytest.mark.parametrize("seed", range(6))
def test_verdicts_and_models_match_exhaustive_enumeration(seed):
    rng = random.Random(seed)
    everything = list(_assignments())
    verdicts = set()
    for _ in range(30):
        assertions = [_term(rng, 0, 3) for _ in range(rng.randint(1, 4))]
        sat = any(all(_holds(t, m) for t in assertions) for m in everything)
        lines = _answer(assertions)
        assert lines[0] == ("sat" if sat else "unsat"), assertions
        verdicts.add(lines[0])
        if sat:
            model = _parse_values(lines[1])
            assert all(_holds(t, model) for t in assertions), (assertions, model)
    assert verdicts == {"sat", "unsat"}


@pytest.mark.parametrize("seed", range(4))
def test_scoped_checks_match_exhaustive_enumeration(seed):
    # random push/pop/assert/check sequences: each check must see exactly
    # the assertions of the scopes still open
    rng = random.Random(seed)
    everything = list(_assignments())
    lines, scopes, checks = _declarations(), [[]], []
    for _ in range(60):
        step = rng.random()
        if step < 0.2 or len(scopes) == 1:     # the outer scope stays empty
            n = rng.randint(1, 2)
            lines.append(f"(push {n})")
            scopes += [[] for _ in range(n)]
        elif step < 0.4 and len(scopes) > 1:
            n = rng.randint(1, len(scopes) - 1)
            lines.append(f"(pop {n})")
            del scopes[-n:]
        elif step < 0.75:
            term = _term(rng, 0, 2)
            lines.append(f"(assert {refsolver.term_text(term)})")
            scopes[-1].append(term)
        else:
            in_scope = [t for scope in scopes for t in scope]
            checks.append((any(all(_holds(t, m) for t in in_scope) for m in everything),
                           in_scope))
            lines += ["(check-sat)", f"(get-value ({' '.join(SORTS)}))"]
    out = io.StringIO()
    refsolver.run("\n".join(lines) + "\n", out)
    replies = out.getvalue().splitlines()
    assert len(replies) == 2 * len(checks)
    for (sat, in_scope), verdict, values in zip(checks, replies[::2], replies[1::2]):
        assert verdict == ("sat" if sat else "unsat"), in_scope
        if sat:
            model = _parse_values(values)
            assert all(_holds(t, model) for t in in_scope), (in_scope, model)
        else:
            assert values == '(error "model is not available")'
    assert {verdict for verdict in replies[::2]} == {"sat", "unsat"}


def test_pop_drops_scoped_declarations_and_rejects_underflow():
    script = (
        "(push 1)\n(declare-const w Bool)\n(assert w)\n(check-sat)\n(pop 1)\n"
        "(declare-const w (_ BitVec 2))\n(assert (= w #b11))\n(check-sat)\n"
        "(get-value (w))\n(pop 1)\n"
    )
    out = io.StringIO()
    assert refsolver.run(script, out) == 1
    lines = out.getvalue().splitlines()
    assert lines[:3] == ["sat", "sat", "((w #b11))"]
    assert lines[3].startswith('(error "pop 1 exceeds push depth 0')


def test_answers_each_command_as_it_reads_it():
    # a session gets each verdict before the solver's input ends
    cfg = dataclasses.replace(REFERENCE_SOLVER, timeout=30.0)
    with Session(cfg) as session:
        session.load(_declarations())
        first = session.check(["(assert (= x #b101))"], ["x"])
        second = session.check(["(assert (= x (bvadd x #b001)))"], ["x"])
        third = session.check(["(assert (and a (not a)))"], ["a"])
        fourth = session.check(["(assert (= y #b11))", "(assert b)"], ["b", "y"])
    assert first.values == {"x": 5}
    assert (second.sat, third.sat) == (False, False)
    assert fourth.values == {"b": True, "y": 3}


@pytest.mark.parametrize("seed", range(4))
def test_definitions_match_exhaustive_enumeration(seed):
    # each definition is a random term over the constants and the earlier
    # definitions; assertions and get-value use them like constants
    rng = random.Random(seed)
    everything = list(_assignments())
    verdicts = set()
    for _ in range(20):
        sorts, definitions = dict(SORTS), []
        for i in range(rng.randint(1, 3)):
            sort = rng.choice([0, 0, 2, 3])
            definitions.append((f"d{i}", sort, _term(rng, sort, 2, sorts)))
            sorts[f"d{i}"] = sort
        assertions = [_term(rng, 0, 3, sorts) for _ in range(rng.randint(1, 3))]

        def extended(model):
            model = dict(model)
            for name, _, body in definitions:
                model[name] = _holds(body, model, sorts)
            return model

        sat = any(all(_holds(t, extended(m), sorts) for t in assertions) for m in everything)
        lines = _declarations() + [
            f"(define-fun {name} () {_sort_text(sort)} {refsolver.term_text(body)})"
            for name, sort, body in definitions
        ]
        lines += [f"(assert {refsolver.term_text(t)})" for t in assertions]
        lines += ["(check-sat)", f"(get-value ({' '.join(sorts)}))"]
        out = io.StringIO()
        assert refsolver.run("\n".join(lines) + "\n", out) == (0 if sat else 1)
        replies = out.getvalue().splitlines()
        assert replies[0] == ("sat" if sat else "unsat"), (definitions, assertions)
        verdicts.add(replies[0])
        if sat:
            values = _parse_values(replies[1], sorts)
            model = extended({n: values[n] for n in SORTS})
            assert values == model
            assert all(_holds(t, model, sorts) for t in assertions)
    assert verdicts == {"sat", "unsat"}


def test_definitions_are_scoped_and_sort_checked():
    script = (
        "(declare-const x (_ BitVec 2))\n"
        "(push 1)\n(define-fun d () Bool (= x #b10))\n(assert d)\n"
        "(check-sat)\n(get-value (x d))\n(pop 1)\n"
        "(define-fun d () (_ BitVec 2) (bvadd x #b01))\n(assert (= d #b00))\n"
        "(check-sat)\n(get-value (d x))\n"
        "(define-fun d () Bool true)\n"
        "(define-fun e () Bool x)\n"
        "(define-fun f ((y Bool)) Bool y)\n"
        "(check-sat)\n"
    )
    out = io.StringIO()
    assert refsolver.run(script, out) == 1
    lines = out.getvalue().splitlines()
    assert lines[:4] == ["sat", "((x #b10) (d true))", "sat", "((d #b00) (x #b11))"]
    assert lines[4].startswith('(error "invalid declaration of d')
    assert lines[5].startswith('(error "definition of e does not match its sort')
    assert lines[6].startswith('(error "unsupported command define-fun')
    assert lines[7].startswith('(error "an earlier command failed')
    assert len(lines) == 8


def _brute_force_sat(num_vars, clauses) -> bool:
    """Satisfiability by bit-parallel enumeration: bit k of a mask is
    assignment k, in which variable v is true iff bit v-1 of k is set."""
    size = 1 << num_vars
    full = (1 << size) - 1
    true_of = []
    for v in range(num_vars):
        block = ((1 << (1 << v)) - 1) << (1 << v)       # v-th bit set: upper half
        pattern = block
        width = 2 << v
        while width < size:
            pattern |= pattern << width
            width *= 2
        true_of.append(pattern)
    alive = full
    for clause in clauses:
        sat = 0
        for lit in clause:
            mask = true_of[abs(lit) - 1]
            sat |= mask if lit > 0 else full ^ mask
        alive &= sat
    return alive != 0


@pytest.mark.parametrize("seed", range(4))
def test_cdcl_matches_enumeration_on_random_3sat(seed):
    # about 4.3 clauses per variable, near the hardest ratio: both verdicts occur
    rng = random.Random(seed)
    verdicts = set()
    for _ in range(25):
        n = 14
        clauses = [
            [v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), 3)]
            for _ in range(60)
        ]
        model = refsolver.solve(n, clauses)
        assert (model is not None) == _brute_force_sat(n, clauses), clauses
        if model is not None:
            assert all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)
        verdicts.add(model is not None)
    assert verdicts == {True, False}


def test_cdcl_refutes_the_pigeonhole_principle():
    # six pigeons, five holes: unsatisfiable, and hard for clause learning
    pigeons, holes = 6, 5

    def var(pigeon, hole):
        return pigeon * holes + hole + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    clauses += [
        [-var(p, h), -var(q, h)]
        for h in range(holes)
        for p in range(pigeons)
        for q in range(p + 1, pigeons)
    ]
    work = {}
    assert refsolver.solve(pigeons * holes, clauses, work) is None
    assert work["conflicts"] > 0 and work["decisions"] >= work["conflicts"]
    assert work["propagations"] > work["decisions"]
    assert refsolver.solve(pigeons * holes, clauses[1:]) is not None


def test_stats_file_gets_one_record_per_check_and_the_answers_stay(tmp_path):
    script = (
        "(declare-const x (_ BitVec 3))\n(declare-const y (_ BitVec 3))\n"
        "(assert (bvult x y))\n(check-sat)\n(push 1)\n(assert (bvult y x))\n"
        "(check-sat)\n(pop 1)\n(check-sat)\n(get-value (x y))\n"
    )
    command = [sys.executable, str(Path(refsolver.__file__))]
    plain = subprocess.run(command, input=script, capture_output=True, text=True, check=True)
    records = []
    for run in (1, 2):
        stats = tmp_path / f"stats{run}.jsonl"
        out = subprocess.run([*command, "--stats", str(stats)], input=script,
                             capture_output=True, text=True, check=True)
        assert out.stdout == plain.stdout
        records.append(stats.read_text())
    assert records[0] == records[1]                # the counts repeat exactly
    lines = [json.loads(line) for line in records[0].splitlines()]
    assert len(lines) == 3
    assert all(list(r) == ["conflicts", "decisions", "propagations", "clauses", "variables"]
               for r in lines)
    assert lines[0] == lines[2]                    # the same clauses after the pop
    assert lines[1]["clauses"] > lines[0]["clauses"]
    bad = subprocess.run([*command, "--stats"], input=script, capture_output=True, text=True)
    assert bad.returncode != 0 and "usage" in bad.stderr


def test_unsupported_input_gets_an_error_and_no_verdict():
    script = (
        "(declare-const x (_ BitVec 2))\n(assert (= (bvmul x x) #b01))\n"
        "(check-sat)\n"
    )
    out = io.StringIO()
    assert refsolver.run(script, out) == 1
    lines = out.getvalue().splitlines()
    assert len(lines) == 2 and all(line.startswith("(error ") for line in lines)


def test_get_value_after_unsat_is_an_error_but_later_checks_still_answer():
    script = (
        "(declare-const x (_ BitVec 2))\n(assert (bvult x #b01))\n"
        "(check-sat)\n(get-value (x))\n"
        "(assert (= x #b01))\n(check-sat)\n(get-value (x))\n"
    )
    out = io.StringIO()
    assert refsolver.run(script, out) == 1
    assert out.getvalue().splitlines() == [
        "sat", "((x #b00))", "unsat", '(error "model is not available")',
    ]


def test_runs_as_a_solver_command():
    script = (
        "(set-option :produce-models true)\n(set-logic QF_BV)\n"
        "(declare-const p Bool)\n(declare-const x (_ BitVec 4))\n"
        "(assert (= (bvadd x #b0011) #b0001))\n(assert (not p))\n"
        "(check-sat)\n(get-value (x))\n(get-value (p))\n"
    )
    result = check(script, REFERENCE_SOLVER)
    assert result.sat
    assert result.values == {"x": 14, "p": False}

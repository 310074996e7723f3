"""Reference SMT-LIB2 solver for small QF_BV scripts (standard library only).

Usage::

    python3 tests/refsolver.py [--stats FILE] < script.smt2

It reads commands on standard input and answers like ``z3 -in``: ``sat`` or
``unsat`` for each ``check-sat`` and one ``((name value) ...)`` line for
each ``get-value``.  Each command is answered as soon as it has been read,
so it serves an interactive session (``qlayout.backend.Session``) as well
as a piped script.  Satisfiability is decided exactly, not guessed: every
assertion in scope is bit-blasted into clauses (Tseitin encoding) and a CDCL
SAT search either finds a model or refutes the clauses.  Before ``sat`` is
printed, every assertion in scope is evaluated on the model directly, so a
``sat`` answer never rests on the bit-blaster alone.

It exists so that the tests which need real solver semantics on instances
of a few qubits also run where no SMT solver is installed.  It is orders of
magnitude slower than z3 and is not meant for the acceptance suite or for
``qlayout map`` on real circuits.

Supported: the commands ``set-option``, ``set-logic``, ``set-info``,
``declare-const``, nullary ``define-fun``, ``assert``, ``push``, ``pop``,
``check-sat``, ``get-value`` and ``exit``; the sorts ``Bool`` and
``(_ BitVec n)``; the operators ``not and or xor => = distinct ite bvult
bvule bvugt bvuge bvadd``; ``true``, ``false`` and ``#b`` literals.  That
covers every script ``qlayout.encode`` emits and every session
``qlayout.search`` drives.  A definition's body must have the stated sort;
the name then stands for the body's literal or bits, and the model gets its
value by evaluating the body, in definition order.  Declarations,
definitions and assertions are scoped: ``pop`` drops those made since the
matching ``push`` and re-blasts the ones that remain.  Anything else is
answered with ``(error "...")`` and the exit status is 1; after an error in
any command but ``get-value``, every ``check-sat`` is answered with an error
too, never with a verdict on a different script.

With ``--stats FILE``, each ``check-sat`` also appends one JSON line to
FILE: the conflicts, decisions and propagations (literals taken off the
trail) of its SAT search, and the clauses and variables it searched over.
The search is deterministic, so a script gives the same counts every run.
"""

from __future__ import annotations

import heapq
import json
import os
import re
import sys

TRUE, FALSE = 1, -1  # variable 1 is fixed true by a unit clause

_TOKEN = re.compile(r';[^\n]*|\s+|(\(|\)|\|[^|]*\||"(?:[^"]|"")*"|[^\s()|";]+)')


class SmtError(Exception):
    """A command, operator, sort or symbol outside the supported fragment."""


class Reader:
    """Incremental S-expression reader: complete top-level commands as
    their text arrives.  A list becomes a tuple, an atom a str."""

    def __init__(self):
        self.stack: list[list] = [[]]

    def feed(self, text: str) -> list:
        """Commands completed by ``text``; a token must not span two feeds."""
        stack = self.stack
        for match in _TOKEN.finditer(text):
            tok = match.group(1)
            if tok is None:
                continue
            if tok == "(":
                stack.append([])
            elif tok == ")":
                if len(stack) == 1:
                    raise SmtError("unbalanced ')'")
                done = tuple(stack.pop())
                stack[-1].append(done)
            else:
                stack[-1].append(tok)
        commands, stack[0] = stack[0], []
        return commands


def parse(text: str) -> list:
    """S-expressions of ``text``; a list becomes a tuple, an atom a str."""
    reader = Reader()
    commands = reader.feed(text)
    if len(reader.stack) != 1:
        raise SmtError("unbalanced '('")
    return commands


def parse_sort(sexp) -> int:
    """0 for Bool, the width for a bit-vector sort."""
    if sexp == "Bool":
        return 0
    if isinstance(sexp, tuple) and len(sexp) == 3 and sexp[:2] == ("_", "BitVec"):
        width = int(sexp[2])
        if width >= 1:
            return width
    raise SmtError(f"unsupported sort {sexp}")


def literal(sexp):
    """(value, width) of a ``#b`` literal, True/False, or None."""
    if sexp == "true":
        return True
    if sexp == "false":
        return False
    if isinstance(sexp, str) and sexp.startswith("#b") and len(sexp) > 2:
        return int(sexp[2:], 2), len(sexp) - 2
    return None


# --------------------------------------------------------------------------
# Direct evaluation (model check and get-value)
# --------------------------------------------------------------------------


def evaluate(sexp, model: dict):
    """Value of a term under ``model``: a bool, or (value, width)."""
    lit = literal(sexp)
    if lit is not None:
        return lit
    if isinstance(sexp, str):
        if sexp not in model:
            raise SmtError(f"unknown symbol {sexp}")
        return model[sexp]
    op, args = sexp[0], [evaluate(a, model) for a in sexp[1:]]
    if op == "not":
        return not args[0]
    if op == "and":
        return all(args)
    if op == "or":
        return any(args)
    if op == "xor":
        return sum(args) % 2 == 1
    if op == "=>":
        out = args[-1]
        for a in reversed(args[:-1]):
            out = (not a) or out
        return out
    if op == "=":
        return all(a == b for a, b in zip(args, args[1:]))
    if op == "distinct":
        return len(set(args)) == len(args)
    if op == "ite":
        return args[1] if args[0] else args[2]
    (x, width), (y, _) = args[0], args[1]
    if op == "bvadd":
        return (x + y) % (1 << width), width
    return {"bvult": x < y, "bvule": x <= y, "bvugt": x > y, "bvuge": x >= y}[op]


# --------------------------------------------------------------------------
# Bit-blasting
# --------------------------------------------------------------------------


class Blaster:
    """Tseitin clauses for Boolean and bit-vector terms.

    A Boolean term becomes a literal (a signed variable number); a
    bit-vector term becomes a tuple of literals, least significant bit
    first.  Gates are hashed structurally, so a repeated subterm costs one
    variable.
    """

    def __init__(self):
        self.num_vars = 1
        self.clauses: list[list[int]] = [[TRUE]]
        self.symbols: dict[str, int | tuple[int, ...]] = {}
        self.sorts: dict[str, int] = {}           # declared symbols only
        self.definitions: list[tuple[str, object]] = []  # in definition order
        self._gates: dict[tuple, int] = {}
        self._terms: dict = {}

    def fresh(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def declare(self, name: str, sort: int) -> None:
        self._new_symbol(name)
        self.sorts[name] = sort
        if sort == 0:
            self.symbols[name] = self.fresh()
        else:
            self.symbols[name] = tuple(self.fresh() for _ in range(sort))

    def define(self, name: str, sort: int, body) -> None:
        """Bind ``name`` to the literal or bits of ``body``, of sort ``sort``."""
        self._new_symbol(name)
        value = self.term(body)
        if (0 if isinstance(value, int) else len(value)) != sort:
            raise SmtError(f"definition of {name} does not match its sort")
        self.symbols[name] = value
        self.definitions.append((name, body))

    def _new_symbol(self, name: str) -> None:
        if name in self.symbols or literal(name) is not None:
            raise SmtError(f"invalid declaration of {name}")

    # -- gates ------------------------------------------------------------

    def conj(self, lits) -> int:
        out = set()
        for lit in lits:
            if lit == FALSE or -lit in out:
                return FALSE
            if lit != TRUE:
                out.add(lit)
        if not out:
            return TRUE
        if len(out) == 1:
            return out.pop()
        key = ("and", frozenset(out))
        v = self._gates.get(key)
        if v is None:
            v = self._gates[key] = self.fresh()
            self.clauses.extend([-v, lit] for lit in out)
            self.clauses.append([v] + [-lit for lit in out])
        return v

    def disj(self, lits) -> int:
        return -self.conj([-lit for lit in lits])

    def xor(self, a: int, b: int) -> int:
        if a in (TRUE, FALSE):
            return -b if a == TRUE else b
        if b in (TRUE, FALSE):
            return -a if b == TRUE else a
        if a == b:
            return FALSE
        if a == -b:
            return TRUE
        sign = (1 if a > 0 else -1) * (1 if b > 0 else -1)
        a, b = sorted((abs(a), abs(b)))
        key = ("xor", a, b)
        v = self._gates.get(key)
        if v is None:
            v = self._gates[key] = self.fresh()
            self.clauses += [[-v, a, b], [-v, -a, -b], [v, -a, b], [v, a, -b]]
        return sign * v

    def ite(self, c: int, a: int, b: int) -> int:
        if c in (TRUE, FALSE):
            return a if c == TRUE else b
        if a == b:
            return a
        return self.disj([self.conj([c, a]), self.conj([-c, b])])

    def bv_eq(self, x, y) -> int:
        return self.conj([-self.xor(a, b) for a, b in zip(x, y)])

    def bv_ult(self, x, y) -> int:
        lt = FALSE
        for a, b in zip(x, y):  # the most significant differing bit decides
            lt = self.ite(self.xor(a, b), b, lt)
        return lt

    def bv_add(self, x, y) -> tuple[int, ...]:
        out, carry = [], FALSE
        for a, b in zip(x, y):
            half = self.xor(a, b)
            out.append(self.xor(half, carry))
            carry = self.disj([self.conj([a, b]), self.conj([half, carry])])
        return tuple(out)

    # -- terms ------------------------------------------------------------

    def term(self, sexp):
        """Literal or bit tuple of a term, memoized by its s-expression."""
        out = self._terms.get(sexp)
        if out is None:
            out = self._terms[sexp] = self._blast(sexp)
        return out

    def boolean(self, sexp) -> int:
        out = self.term(sexp)
        if not isinstance(out, int):
            raise SmtError(f"expected a Bool term: {sexp}")
        return out

    def _same_sort(self, args):
        terms = [self.term(a) for a in args]
        if len(terms) < 2:
            raise SmtError("operator needs at least two arguments")
        kinds = {-1 if isinstance(t, int) else len(t) for t in terms}
        if len(kinds) != 1:
            raise SmtError(f"sort mismatch in {args}")
        return terms

    def _blast(self, sexp):
        lit = literal(sexp)
        if lit is not None:
            if isinstance(lit, bool):
                return TRUE if lit else FALSE
            value, width = lit
            return tuple(TRUE if value >> i & 1 else FALSE for i in range(width))
        if isinstance(sexp, str):
            if sexp not in self.symbols:
                raise SmtError(f"unknown symbol {sexp}")
            return self.symbols[sexp]
        if not sexp or not isinstance(sexp[0], str):
            raise SmtError(f"unsupported term {sexp}")
        op, args = sexp[0], sexp[1:]
        if op == "not" and len(args) == 1:
            return -self.boolean(args[0])
        if op == "and":
            return self.conj([self.boolean(a) for a in args])
        if op == "or":
            return self.disj([self.boolean(a) for a in args])
        if op == "xor" and args:
            out = FALSE
            for a in args:
                out = self.xor(out, self.boolean(a))
            return out
        if op == "=>" and len(args) >= 2:
            out = self.boolean(args[-1])
            for a in reversed(args[:-1]):
                out = self.disj([-self.boolean(a), out])
            return out
        if op == "ite" and len(args) == 3:
            c = self.boolean(args[0])
            a, b = self._same_sort(args[1:])
            if isinstance(a, int):
                return self.ite(c, a, b)
            return tuple(self.ite(c, p, q) for p, q in zip(a, b))
        if op in ("=", "distinct"):
            terms = self._same_sort(args)
            eq = (lambda p, q: -self.xor(p, q)) if isinstance(terms[0], int) else self.bv_eq
            if op == "=":
                return self.conj([eq(p, q) for p, q in zip(terms, terms[1:])])
            return self.conj([
                -eq(p, q) for i, p in enumerate(terms) for q in terms[i + 1:]
            ])
        if op in ("bvadd", "bvult", "bvule", "bvugt", "bvuge") and len(args) == 2:
            x, y = self._same_sort(args)
            if isinstance(x, int):
                raise SmtError(f"{op} needs bit-vector arguments")
            if op == "bvadd":
                return self.bv_add(x, y)
            if op in ("bvugt", "bvule"):
                x, y = y, x
            lt = self.bv_ult(x, y)
            return lt if op in ("bvult", "bvugt") else -lt
        raise SmtError(f"unsupported operator {op}")

    def assert_term(self, sexp) -> None:
        """Add clauses that hold exactly when the Boolean term is true.

        Conjunctions split into separate assertions and disjunctive shapes
        become one clause, so the common assertion forms need no gate
        variable at the top.
        """
        if isinstance(sexp, tuple) and sexp and sexp[0] == "and":
            for a in sexp[1:]:
                self.assert_term(a)
            return
        clause = set()
        for lit in self._disjuncts(sexp):
            if lit == TRUE or -lit in clause:
                return
            if lit != FALSE:
                clause.add(lit)
        self.clauses.append(sorted(clause))

    def _disjuncts(self, sexp) -> list[int]:
        if isinstance(sexp, tuple) and sexp:
            op, args = sexp[0], sexp[1:]
            if op == "or":
                return [lit for a in args for lit in self._disjuncts(a)]
            if op == "=>" and len(args) >= 2:
                negated = [lit for a in args[:-1] for lit in self._negated_conjuncts(a)]
                return negated + self._disjuncts(args[-1])
            if op == "not" and len(args) == 1:
                return self._negated_conjuncts(args[0])
        return [self.boolean(sexp)]

    def _negated_conjuncts(self, sexp) -> list[int]:
        if isinstance(sexp, tuple) and sexp and sexp[0] == "and":
            return [lit for a in sexp[1:] for lit in self._negated_conjuncts(a)]
        return [-self.boolean(sexp)]


# --------------------------------------------------------------------------
# CDCL SAT search
# --------------------------------------------------------------------------


def _luby(i: int) -> int:
    """Term i (from 0) of the Luby restart sequence 1 1 2 1 1 2 4 ..."""
    size = 1
    while size < i + 1:
        size = 2 * size + 1
    while size - 1 != i:
        size //= 2
        i %= size
    return (size + 1) // 2


def solve(num_vars: int, clauses: list[list[int]], work: dict | None = None):
    """A model as a list indexed by variable (True/False), or None if unsat.
    ``work``, if given, gets the search's conflict, decision and
    propagation counts.

    Two watched literals, first-UIP clause learning with non-chronological
    backjumping, activity-ordered decisions with saved phases, and Luby
    restarts.  Literals are signed variable numbers; ``value`` is indexed
    by literal (negative indices wrap to the upper half) and holds 1, -1 or
    0 for true, false and unassigned.
    """
    n = num_vars
    value = [0] * (2 * n + 1)
    level = [0] * (n + 1)
    reason: list = [None] * (n + 1)
    watches: list[list[list[int]]] = [[] for _ in range(2 * n + 1)]
    activity = [0.0] * (n + 1)
    phase = [-1] * (n + 1)
    trail: list[int] = []
    limits: list[int] = []  # trail length at each decision level
    heap = [(0.0, v) for v in range(1, n + 1)]
    bump = 1.0
    work = {} if work is None else work
    work.update(conflicts=0, decisions=0, propagations=0)

    def assign(lit, why):
        value[lit], value[-lit] = 1, -1
        level[abs(lit)] = len(limits)
        reason[abs(lit)] = why
        trail.append(lit)

    def propagate(head):
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            watching, watches[false_lit] = watches[false_lit], []
            for i, clause in enumerate(watching):
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], false_lit
                first = clause[0]
                if value[first] != 1:
                    for k in range(2, len(clause)):
                        if value[clause[k]] != -1:
                            clause[1], clause[k] = clause[k], false_lit
                            watches[clause[1]].append(clause)
                            break
                    else:
                        watches[false_lit].append(clause)
                        if value[first] == -1:
                            watches[false_lit].extend(watching[i + 1:])
                            return clause, head
                        assign(first, clause)
                    continue
                watches[false_lit].append(clause)
        return None, head

    def backtrack(to_level):
        if len(limits) > to_level:
            for lit in trail[limits[to_level]:]:
                v = abs(lit)
                value[lit] = value[-lit] = 0
                phase[v] = 1 if lit > 0 else -1
                heapq.heappush(heap, (-activity[v], v))
            del trail[limits[to_level]:]
            del limits[to_level:]

    def analyze(conflict):
        nonlocal bump
        seen = set()
        learnt = [0]
        pending = 0
        lit = 0
        index = len(trail) - 1
        clause = conflict
        while True:
            for q in clause:
                v = abs(q)
                if q == lit or v in seen or level[v] == 0:
                    continue
                seen.add(v)
                activity[v] += bump
                if level[v] == len(limits):
                    pending += 1
                else:
                    learnt.append(q)
            while abs(trail[index]) not in seen:
                index -= 1
            lit = trail[index]
            index -= 1
            pending -= 1
            if pending == 0:
                break
            clause = reason[abs(lit)]
        learnt[0] = -lit
        bump /= 0.95
        if bump > 1e100:
            for v in range(1, n + 1):
                activity[v] *= 1e-100
            bump *= 1e-100
        if len(learnt) == 1:
            return learnt, 0
        top = max(range(1, len(learnt)), key=lambda i: level[abs(learnt[i])])
        learnt[1], learnt[top] = learnt[top], learnt[1]
        return learnt, level[abs(learnt[1])]

    units = []
    for clause in clauses:
        clause = list(dict.fromkeys(clause))
        if not clause:
            return None
        if any(-lit in clause for lit in clause):
            continue
        if len(clause) == 1:
            units.append(clause[0])
        else:
            watches[clause[0]].append(clause)
            watches[clause[1]].append(clause)
    for lit in units:
        if value[lit] == -1:
            return None
        if not value[lit]:
            assign(lit, None)
    conflict, head = propagate(0)
    work["propagations"] += head
    if conflict is not None:
        return None

    restarts, conflicts, budget = 0, 0, 100
    while True:
        conflict, taken = propagate(head)
        work["propagations"] += taken - head
        head = taken
        if conflict is not None:
            if not limits:
                return None
            conflicts += 1
            work["conflicts"] += 1
            learnt, back_to = analyze(conflict)
            backtrack(back_to)
            head = len(trail)
            if len(learnt) > 1:
                watches[learnt[0]].append(learnt)
                watches[learnt[1]].append(learnt)
            assign(learnt[0], learnt)
            continue
        if conflicts >= budget:
            restarts += 1
            conflicts, budget = 0, 100 * _luby(restarts)
            backtrack(0)
            head = len(trail)
        while heap and value[heap[0][1]]:
            heapq.heappop(heap)
        if not heap:
            return [None] + [value[v] == 1 for v in range(1, n + 1)]
        v = heapq.heappop(heap)[1]
        work["decisions"] += 1
        limits.append(len(trail))
        assign(v * phase[v], None)


# --------------------------------------------------------------------------
# Command loop
# --------------------------------------------------------------------------


def _show(val) -> str:
    if isinstance(val, bool):
        return "true" if val else "false"
    number, width = val
    return "#b" + format(number, f"0{width}b")


class Solver:
    """The command interpreter; one instance serves a whole session."""

    def __init__(self, out, stats=None):
        self.out = out
        self.stats = stats               # path of the --stats file, or None
        self.frames: list[list] = [[]]   # declarations and assertions per scope
        self.blaster = Blaster()
        self.asserted: list = []
        self.model = None
        self.failed = self.lost = False

    def error(self, message, cmd=None) -> None:
        # a check after any lost command but get-value would answer another script
        self.failed = True
        self.lost = self.lost or not (isinstance(cmd, tuple) and cmd[:1] == ("get-value",))
        self.reply('(error "%s")' % str(message).replace('"', "'"))

    def reply(self, text: str) -> None:
        self.out.write(text + "\n")
        self.out.flush()

    def execute(self, cmd) -> bool:
        """Run one command; False for ``exit``."""
        if cmd == ("exit",):
            return False
        try:
            self._execute(cmd)
        except SmtError as exc:
            self.error(exc, cmd)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            self.error(f"malformed command {cmd}: {exc}", cmd)
        return True

    def _execute(self, cmd) -> None:
        if not isinstance(cmd, tuple) or not cmd or not isinstance(cmd[0], str):
            raise SmtError(f"not a command: {cmd}")
        name, args = cmd[0], cmd[1:]
        if name in ("set-option", "set-logic", "set-info"):
            return
        if name in ("push", "pop") and len(args) <= 1:
            n = int(args[0]) if args else 1
            if name == "push":
                self.frames.extend([] for _ in range(n))
            elif not 0 <= n < len(self.frames):
                raise SmtError(f"pop {n} exceeds push depth {len(self.frames) - 1}")
            elif n:
                del self.frames[-n:]
                self._rebuild()
            return
        if name == "declare-const" and len(args) == 2:
            entry = ("declare", args[0], parse_sort(args[1]))
        elif name == "define-fun" and len(args) == 4 and args[1] == ():
            entry = ("define", args[0], parse_sort(args[2]), args[3])
        elif name == "assert" and len(args) == 1:
            entry = ("assert", args[0])
        else:
            self._query(name, args)
            return
        self._add(entry)
        self.frames[-1].append(entry)

    def _add(self, entry) -> None:
        if entry[0] == "declare":
            self.blaster.declare(entry[1], entry[2])
        elif entry[0] == "define":
            self.blaster.define(*entry[1:])
        else:
            self.blaster.assert_term(entry[1])
            self.asserted.append(entry[1])
            self.model = None

    def _rebuild(self) -> None:
        """Blast what remains in scope after a pop, from scratch."""
        self.blaster, self.asserted, self.model = Blaster(), [], None
        for frame in self.frames:
            for entry in frame:
                self._add(entry)

    def _query(self, name, args) -> None:
        if name == "check-sat" and not args:
            if self.lost:
                raise SmtError("an earlier command failed")
            work: dict = {}
            self.model = _check(self.blaster, self.asserted, work)
            if self.stats:
                work.update(clauses=len(self.blaster.clauses), variables=self.blaster.num_vars)
                with open(self.stats, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(work) + "\n")
            self.reply("sat" if self.model is not None else "unsat")
        elif name == "get-value" and len(args) == 1 and isinstance(args[0], tuple):
            if self.model is None:
                raise SmtError("model is not available")
            pairs = " ".join(
                f"({term_text(t)} {_show(evaluate(t, self.model))})" for t in args[0]
            )
            self.reply(f"({pairs})")
        else:
            raise SmtError(f"unsupported command {name}")


def run(script: str, out) -> int:
    """Answer every command of ``script`` on ``out``; 0, or 1 after an error."""
    solver = Solver(out)
    try:
        commands = parse(script)
    except SmtError as exc:
        solver.error(exc)
        return 1
    for cmd in commands:
        if not solver.execute(cmd):
            break
    return 1 if solver.failed else 0


def serve(infd: int, out, stats=None) -> int:
    """Answer commands from ``infd`` as each one arrives, until end of input
    or ``exit``; 0, or 1 after an error.  ``stats`` is a path that each
    ``check-sat`` appends its search counts to, or None."""
    solver, reader, pending = Solver(out, stats), Reader(), b""
    while True:
        chunk = os.read(infd, 1 << 16)
        data = pending + chunk
        # feed whole lines only, so that no token is cut in two
        cut = data.rfind(b"\n") + 1 if chunk else len(data)
        data, pending = data[:cut], data[cut:]
        try:
            commands = reader.feed(data.decode("utf-8", errors="replace"))
        except SmtError as exc:
            solver.error(exc)
            reader = Reader()
            commands = []
        for cmd in commands:
            if not solver.execute(cmd):
                return 1 if solver.failed else 0
        if not chunk:
            if len(reader.stack) != 1:
                solver.error("input ended inside a command")
            return 1 if solver.failed else 0


def _check(blaster: Blaster, asserted: list, work: dict):
    assignment = solve(blaster.num_vars, blaster.clauses, work)
    if assignment is None:
        return None
    model = {}
    for name, sort in blaster.sorts.items():
        bits = blaster.symbols[name]
        if sort == 0:
            model[name] = assignment[bits]
        else:
            model[name] = sum(1 << i for i, v in enumerate(bits) if assignment[v]), sort
    for name, body in blaster.definitions:
        model[name] = evaluate(body, model)
    for sexp in asserted:
        if evaluate(sexp, model) is not True:
            raise SmtError(f"internal error: model violates {term_text(sexp)}")
    return model


def term_text(sexp) -> str:
    if isinstance(sexp, str):
        return sexp
    return "(" + " ".join(term_text(s) for s in sexp) + ")"


if __name__ == "__main__":
    if sys.argv[1:] and (len(sys.argv) != 3 or sys.argv[1] != "--stats"):
        sys.exit("usage: refsolver.py [--stats FILE] < script.smt2")
    sys.exit(serve(sys.stdin.fileno(), sys.stdout, sys.argv[2] if sys.argv[1:] else None))

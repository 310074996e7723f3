"""Witness-backed stand-in for an SMT-LIB2 QF_BV solver (standard library only).

Usage::

    python3 standin.py POOL.txt [--log FILE]

The stand-in reads SMT-LIB2 commands on standard input and answers them the
way a solver would, but it decides satisfiability by evaluating assertions
against a pool of precomputed schedules ("witnesses") instead of searching.
A witness gives a value to every variable named ``pos_q{q}_t{t}``,
``swp_e{k}_t{t}`` or ``time_g{i}``; a witness that lacks a declared variable,
or whose value does not fit the declared sort, drops out at the declaration.
``check-sat`` answers ``sat`` with the first surviving witness that satisfies
every assertion, ``unsat`` when none does.

A ``sat`` answer therefore always carries a genuine model of the script.  An
``unsat`` answer is right exactly when the pool holds an optimal schedule for
the instance and the script's bound lies below that optimum.

Supported commands: ``set-option``, ``set-logic``, ``set-info``,
``declare-const``, nullary ``declare-fun`` and ``define-fun``, ``assert``,
``push``, ``pop``, ``check-sat``, ``check-sat-assuming``, ``get-value``
(single and batched terms), ``echo`` and ``exit``.  Each command is answered
as soon as it has been read: replies are flushed before the next blocking
read, so an interactive session works as well as a piped script.  Any
command, operator or symbol the stand-in cannot evaluate is answered with
``(error "...")``; after such an answer every ``check-sat`` is answered with
an error too, never with a guess.

With ``--log FILE`` one JSON record per launch is appended to FILE when the
input ends: wall and CPU seconds spent, bytes read, assertions evaluated,
checks answered and witness evaluations performed.
"""

from __future__ import annotations

import os
import sys
import time

_START = time.perf_counter()

BOOL = 0  # sort code for Bool; a positive integer is a bit-vector width



class SmtError(Exception):
    """A command, operator or symbol the stand-in cannot evaluate."""


class Witness:
    """One precomputed schedule: a line of the pool file.

    The line holds whitespace-separated fields ``key depth swaps pos time
    swp``: ``pos`` lists the logical-to-physical map of each step, maps
    separated by ``;`` and entries by ``,``, up to the step after the last
    swap (later steps keep the last map); ``time`` lists gate times; ``swp``
    lists ``edge:step`` swap completions, or ``-`` for none.
    """

    __slots__ = ("key", "depth", "swap_count", "pos", "time", "swaps")

    def __init__(self, key, depth, swap_count, pos, time_, swaps):
        self.key = key
        self.depth = depth
        self.swap_count = swap_count
        self.pos = [tuple(row) for row in pos]
        self.time = tuple(time_)
        self.swaps = frozenset(swaps)

    @staticmethod
    def parse(line: str) -> "Witness":
        key, depth, swaps, pos, times, swp = line.split()
        return Witness(
            key, int(depth), int(swaps),
            [[int(p) for p in row.split(",")] for row in pos.split(";")],
            [int(t) for t in times.split(",")] if times != "-" else [],
            [] if swp == "-" else [tuple(int(x) for x in e.split(":")) for e in swp.split(",")],
        )

    def format(self) -> str:
        return " ".join((
            self.key, str(self.depth), str(self.swap_count),
            ";".join(",".join(map(str, row)) for row in self.pos),
            ",".join(map(str, self.time)) or "-",
            ",".join(f"{k}:{t}" for k, t in sorted(self.swaps)) or "-",
        ))

    def value(self, name):
        """Value of a parsed variable name, or None when this witness lacks it."""
        kind, a, b = name
        if kind == "pos":
            if a >= len(self.pos[0]):
                return None
            return self.pos[min(b, len(self.pos) - 1)][a]
        if kind == "swp":
            return (a, b) in self.swaps
        return self.time[a] if a < len(self.time) else None


def load_pool(path) -> list[Witness]:
    with open(path, "r", encoding="utf-8") as fh:
        return [Witness.parse(line) for line in fh if line.strip() and line[0] != "#"]


def _number(text: str):
    return int(text) if text.isascii() and text.isdigit() else None


def parse_name(name: str):
    """``("pos", q, t)``, ``("swp", k, t)``, ``("time", g, None)`` or None."""
    for prefix, kind in (("pos_q", "pos"), ("swp_e", "swp")):
        if name.startswith(prefix):
            a, sep, b = name[5:].partition("_t")
            a, b = _number(a), _number(b)
            return (kind, a, b) if sep and a is not None and b is not None else None
    if name.startswith("time_g"):
        g = _number(name[6:])
        return None if g is None else ("time", g, None)
    return None


def tokens(text: str) -> list[str]:
    """SMT-LIB2 tokens; comments come back as tokens starting with ``;``."""
    if '"' in text or "|" in text or ";" in text:
        import re

        return re.findall(r'[()]|;[^\n]*|"(?:[^"]|"")*"|\|[^|]*\||[^\s()";|]+', text)
    return text.replace("(", " ( ").replace(")", " ) ").split()


# --------------------------------------------------------------------------
# Term evaluation
# --------------------------------------------------------------------------

_LITERALS: dict[str, object] = {"true": True, "false": False}


def _literal(atom: str):
    if atom.startswith("#b") and len(atom) > 2 and set(atom[2:]) <= {"0", "1"}:
        return int(atom[2:], 2), len(atom) - 2
    if atom.startswith("#x") and len(atom) > 2:
        try:
            return int(atom[2:], 16), 4 * (len(atom) - 2)
        except ValueError:
            pass
    return None


_LITERAL_SORTS: dict[str, int] = {"true": BOOL, "false": BOOL}


def _literal_sort(atom: str) -> int:
    sort = _LITERAL_SORTS.get(atom)
    if sort is None:
        lit = _literal(atom)
        if lit is None:
            raise SmtError(f"unknown symbol {atom}")
        sort = _LITERAL_SORTS[atom] = lit[1]
    return sort


class Solver:
    """Command interpreter over the witness pool."""

    def __init__(self, pool: list[Witness]):
        self.sorts: dict[str, int] = {}
        self.defs: dict[str, tuple[int, object]] = {}
        # Surviving witnesses, each with its variable environment.
        self.alive: list[tuple[Witness, dict]] = [(w, {}) for w in pool]
        self.stack: list[tuple] = []
        self.model: dict | None = None
        self.broken: str | None = None
        self.stats = {"asserts": 0, "checks": 0, "sat": 0, "evals": 0}

    # ---- sorts -----------------------------------------------------------

    def parse_sort(self, node) -> int:
        if node == "Bool":
            return BOOL
        if (
            isinstance(node, list) and len(node) == 3 and node[:2] == ["_", "BitVec"]
            and node[2].isdigit() and int(node[2]) > 0
        ):
            return int(node[2])
        raise SmtError(f"unsupported sort {_show(node)}")

    def sort_of(self, term) -> int:
        """Sort of a term, after checking the sorts of all its arguments."""
        if term.__class__ is str:
            sort = self.sorts.get(term)
            return _literal_sort(term) if sort is None else sort
        if not term:
            raise SmtError("empty term")
        op = term[0]
        rule = _ARITY.get(op) if op.__class__ is str else None
        if rule is None:
            return self._indexed_sort(term)
        kind, low, high = rule
        n = len(term) - 1
        if not low <= n <= high:
            raise SmtError(f"wrong argument count for {op}")
        sorts = self.sorts
        args = []
        for a in term[1:]:
            if a.__class__ is str:
                sort = sorts.get(a)
                args.append(_literal_sort(a) if sort is None else sort)
            else:
                args.append(self.sort_of(a))
        first = args[0]
        if kind == "bool":
            if args.count(BOOL) == n:
                return BOOL
        elif kind == "ite":
            if first == BOOL and args[1] == args[2]:
                return args[1]
        elif kind == "concat":
            if BOOL not in args:
                return sum(args)
        elif args.count(first) == n:  # "same", "cmp", "bv": equal sorts
            if kind == "same":
                return BOOL
            if first > 0:
                return BOOL if kind == "cmp" else first
        raise SmtError(f"ill-sorted arguments to {op} in {_show(term)[:200]}")

    def _indexed_sort(self, term) -> int:
        op = term[0]
        if isinstance(op, list) and len(term) == 2 and len(op) in (3, 4) and op[0] == "_":
            width = self.sort_of(term[1])
            idx = [int(i) for i in op[2:] if i.isdigit()]
            if width > 0 and op[1] == "extract" and len(idx) == 2 and idx[1] <= idx[0] < width:
                return idx[0] - idx[1] + 1
            if width > 0 and op[1] == "zero_extend" and len(idx) == 1:
                return idx[0] + width
        raise SmtError(f"unsupported operator {_show(op)} in {_show(term)[:200]}")

    # ---- evaluation ------------------------------------------------------

    def ev(self, term, env):
        if term.__class__ is str:
            v = env.get(term)
            if v is not None:
                return v
            v = _LITERALS.get(term)
            if v is not None:
                return v
            return self._atom(term, env)
        op = term[0]
        fn = _OPS.get(op) if op.__class__ is str else None
        if fn is None:
            return self._indexed(term, env)
        return fn(self, term, env)

    def _atom(self, atom: str, env):
        if atom in self.defs:
            v = self.ev(self.defs[atom][1], env)
            env[atom] = v
            return v
        if atom in self.sorts:
            raise SmtError(f"no witness value for {atom}")
        lit = _literal(atom)
        if lit is None:
            raise SmtError(f"unknown symbol {atom}")
        _LITERALS[atom] = lit[0]
        return lit[0]

    def _indexed(self, term, env):
        op = term[0]
        if isinstance(op, list) and len(term) == 2:
            if len(op) == 4 and op[:2] == ["_", "extract"]:
                hi, lo = int(op[2]), int(op[3])
                return (self.ev(term[1], env) >> lo) & ((1 << (hi - lo + 1)) - 1)
            if len(op) == 3 and op[:2] == ["_", "zero_extend"]:
                return self.ev(term[1], env)
        raise SmtError(f"unsupported operator {_show(op)}")

    def mask(self, term) -> int:
        """All-ones mask for a bit-vector term already checked by sort_of."""
        while term.__class__ is list:
            op = term[0]
            if op.__class__ is list:
                if op[1] == "extract":
                    return (1 << (int(op[2]) - int(op[3]) + 1)) - 1
                return (self.mask(term[1]) + 1 << int(op[2])) - 1
            if op == "concat":
                return (1 << sum(self.mask(a).bit_length() for a in term[1:])) - 1
            term = term[2] if op == "ite" else term[1]
        return (1 << self.sort_of(term)) - 1

    # ---- commands --------------------------------------------------------

    def run(self, cmd) -> str | None:
        try:
            return self._run(cmd)
        except SmtError as exc:
            self.broken = self.broken or str(exc)
            return _error(str(exc))
        except (IndexError, ValueError, TypeError) as exc:
            self.broken = self.broken or f"malformed command {_show(cmd)[:200]}"
            return _error(f"malformed command ({exc})")

    def _run(self, cmd) -> str | None:
        if not isinstance(cmd, list) or not cmd or not isinstance(cmd[0], str):
            raise SmtError(f"not a command: {_show(cmd)[:200]}")
        head = cmd[0]
        if head in ("set-option", "set-logic", "set-info"):
            return None
        if head == "declare-const":
            self.declare(cmd[1], self.parse_sort(cmd[2]))
            return None
        if head == "declare-fun":
            if cmd[2]:
                raise SmtError(f"function {cmd[1]} takes arguments")
            self.declare(cmd[1], self.parse_sort(cmd[3]))
            return None
        if head == "define-fun":
            if cmd[2]:
                raise SmtError(f"function {cmd[1]} takes arguments")
            sort = self.parse_sort(cmd[3])
            if self.sort_of(cmd[4]) != sort:
                raise SmtError(f"definition of {cmd[1]} does not match its sort")
            self.new_symbol(cmd[1], sort)
            self.defs[cmd[1]] = (sort, cmd[4])
            return None
        if head == "assert":
            self.assert_term(cmd[1])
            return None
        if head == "push":
            for _ in range(int(cmd[1]) if len(cmd) > 1 else 1):
                self.stack.append((
                    [(w, dict(env)) for w, env in self.alive],
                    dict(self.sorts), dict(self.defs), self.broken,
                ))
            return None
        if head == "pop":
            n = int(cmd[1]) if len(cmd) > 1 else 1
            if n > len(self.stack):
                raise SmtError(f"pop {n} exceeds push depth {len(self.stack)}")
            for _ in range(n):
                self.alive, self.sorts, self.defs, self.broken = self.stack.pop()
            self.model = None
            return None
        if head == "check-sat":
            return self.check([])
        if head == "check-sat-assuming":
            return self.check(cmd[1])
        if head == "get-value":
            return self.get_value(cmd[1])
        if head == "echo":
            return cmd[1].strip('"')
        if head == "exit":
            raise SystemExit(0)
        raise SmtError(f"unsupported command {head}")

    def new_symbol(self, name: str, sort: int):
        if name in self.sorts:
            raise SmtError(f"symbol {name} already declared")
        self.sorts[name] = sort

    def declare(self, name: str, sort: int):
        self.new_symbol(name, sort)
        parsed = parse_name(name)
        if parsed is None:
            return
        kept = []
        for w, env in self.alive:
            v = w.value(parsed)
            if v is None:
                continue
            if sort == BOOL:
                if v is not True and v is not False:
                    continue
            elif v is True or v is False or not 0 <= v < (1 << sort):
                continue
            env[name] = v
            kept.append((w, env))
        self.alive = kept

    def _require_bool(self, term):
        if self.sort_of(term) != BOOL:
            raise SmtError(f"assertion is not Boolean: {_show(term)[:200]}")

    def assert_term(self, term):
        self.stats["asserts"] += 1
        self._require_bool(term)
        kept = []
        ev = self.ev
        for item in self.alive:
            v = ev(term, item[1])
            if v is True:
                kept.append(item)
        self.stats["evals"] += len(self.alive)
        self.alive = kept
        self.model = None

    def check(self, assumptions) -> str:
        self.stats["checks"] += 1
        self.model = None
        if self.broken is not None:
            return _error(f"cannot decide after an earlier error: {self.broken}")
        for term in assumptions:
            self._require_bool(term)
        for w, env in self.alive:
            self.stats["evals"] += len(assumptions)
            if all(self.ev(term, env) is True for term in assumptions):
                self.model = env
                self.stats["sat"] += 1
                return "sat"
        return "unsat"

    def get_value(self, terms) -> str:
        if self.model is None:
            raise SmtError("no model: the last check was not satisfiable")
        if not isinstance(terms, list) or not terms:
            raise SmtError("get-value needs a non-empty term list")
        pairs = []
        for term in terms:
            sort = self.sort_of(term)
            v = self.ev(term, self.model)
            if sort == BOOL:
                text = "true" if v is True else "false"
            else:
                text = "#b" + format(v, f"0{sort}b")
            pairs.append(f"({_show(term)} {text})")
        return "(" + " ".join(pairs) + ")"


def _show(node) -> str:
    if isinstance(node, list):
        return "(" + " ".join(_show(n) for n in node) + ")"
    return str(node)


def _error(message: str) -> str:
    return '(error "' + message.replace('"', "'") + '")'


# ---- operator table ------------------------------------------------------


def _not(s, t, env):
    return not s.ev(t[1], env)


def _and(s, t, env):
    ev = s.ev
    for a in t[1:]:
        if ev(a, env) is False:
            return False
    return True


def _or(s, t, env):
    ev = s.ev
    for a in t[1:]:
        if ev(a, env) is True:
            return True
    return False


def _implies(s, t, env):
    ev = s.ev
    for a in t[1:-1]:
        if ev(a, env) is False:
            return True
    return ev(t[-1], env)


def _xor(s, t, env):
    out = False
    for a in t[1:]:
        out = out is not s.ev(a, env)
    return out


def _eq(s, t, env):
    ev = s.ev
    first = ev(t[1], env)
    for a in t[2:]:
        if ev(a, env) != first:
            return False
    return True


def _distinct(s, t, env):
    ev = s.ev
    values = [ev(a, env) for a in t[1:]]
    return len(set(values)) == len(values)


def _ite(s, t, env):
    return s.ev(t[2] if s.ev(t[1], env) else t[3], env)


def _compare(test):
    def op(s, t, env):
        return test(s.ev(t[1], env), s.ev(t[2], env))
    return op


def _fold(combine):
    def op(s, t, env):
        ev = s.ev
        acc = ev(t[1], env)
        for a in t[2:]:
            acc = combine(acc, ev(a, env))
        return acc & s.mask(t[1])
    return op


def _bvnot(s, t, env):
    return ~s.ev(t[1], env) & s.mask(t[1])


def _bvneg(s, t, env):
    return -s.ev(t[1], env) & s.mask(t[1])


def _concat(s, t, env):
    acc = 0
    for a in t[1:]:
        acc = (acc << s.sort_of(a)) | s.ev(a, env)
    return acc


_OPS = {
    "not": _not,
    "and": _and,
    "or": _or,
    "=>": _implies,
    "xor": _xor,
    "=": _eq,
    "distinct": _distinct,
    "ite": _ite,
    "bvult": _compare(lambda a, b: a < b),
    "bvule": _compare(lambda a, b: a <= b),
    "bvugt": _compare(lambda a, b: a > b),
    "bvuge": _compare(lambda a, b: a >= b),
    "bvadd": _fold(lambda a, b: a + b),
    "bvsub": _fold(lambda a, b: a - b),
    "bvmul": _fold(lambda a, b: a * b),
    "bvand": _fold(lambda a, b: a & b),
    "bvor": _fold(lambda a, b: a | b),
    "bvxor": _fold(lambda a, b: a ^ b),
    "bvnot": _bvnot,
    "bvneg": _bvneg,
    "concat": _concat,
}
_MANY = 1 << 30
# operator -> (argument rule, fewest arguments, most arguments)
_ARITY = {
    "not": ("bool", 1, 1), "and": ("bool", 1, _MANY), "or": ("bool", 1, _MANY),
    "=>": ("bool", 2, _MANY), "xor": ("bool", 2, _MANY),
    "=": ("same", 2, _MANY), "distinct": ("same", 2, _MANY),
    "ite": ("ite", 3, 3),
    "bvult": ("cmp", 2, 2), "bvule": ("cmp", 2, 2),
    "bvugt": ("cmp", 2, 2), "bvuge": ("cmp", 2, 2),
    "bvadd": ("bv", 2, _MANY), "bvsub": ("bv", 2, _MANY), "bvmul": ("bv", 2, _MANY),
    "bvand": ("bv", 2, _MANY), "bvor": ("bv", 2, _MANY), "bvxor": ("bv", 2, _MANY),
    "bvnot": ("bv", 1, 1), "bvneg": ("bv", 1, 1),
    "concat": ("concat", 2, _MANY),
}


# --------------------------------------------------------------------------
# Input loop
# --------------------------------------------------------------------------


def serve(solver: Solver, infd: int, out) -> int:
    """Answer commands from ``infd`` until end of input; returns bytes read."""
    root: list = []
    stack: list = []
    cur = root
    pending = ""
    total = 0
    try:
        while True:
            chunk = os.read(infd, 1 << 20)
            total += len(chunk)
            if chunk:
                text = pending + chunk.decode("utf-8", errors="replace")
                cut = text.rfind("\n") + 1
                text, pending = text[:cut], text[cut:]
            else:
                text, pending = pending, ""
            for tok in tokens(text):
                if tok == "(":
                    node: list = []
                    cur.append(node)
                    stack.append(cur)
                    cur = node
                elif tok == ")":
                    if not stack:
                        out.write(_error("unbalanced ')'") + "\n")
                        continue
                    cur = stack.pop()
                    if not stack:
                        reply = solver.run(root.pop())
                        if reply is not None:
                            out.write(reply + "\n")
                elif tok[0] != ";":
                    if stack:
                        cur.append(tok)
                    else:
                        out.write(_error(f"unexpected token {tok}") + "\n")
            out.flush()
            if not chunk:
                if stack:
                    out.write(_error("input ended inside a command") + "\n")
                    out.flush()
                return total
    except SystemExit:
        out.flush()
        return total


def main(argv: list[str]) -> int:
    args = list(argv)
    log_path = None
    if "--log" in args:
        i = args.index("--log")
        log_path = args[i + 1]
        del args[i:i + 2]
    if len(args) != 1:
        sys.stderr.write("usage: standin.py POOL.txt [--log FILE]\n")
        return 2
    solver = Solver(load_pool(args[0]))
    total = serve(solver, sys.stdin.fileno(), sys.stdout)
    if log_path:
        record = dict(solver.stats)
        record.update(
            pid=os.getpid(),
            bytes=total,
            wall_s=time.perf_counter() - _START,
            cpu_s=time.process_time(),
        )
        fd = os.open(log_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            line = ", ".join(f'"{k}": {v!r}' for k, v in record.items())
            os.write(fd, ("{" + line + "}\n").encode())
        finally:
            os.close(fd)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""External-solver orchestration, model decoding, and independent validation.

The solver is any SMT-LIB2 command that reads from standard input and
writes its replies to standard output.  :class:`Session` runs every
solver process: it keeps one for a whole solve, or for many solves one
after another, with the base of the current grid shape in an outer
``(push 1)`` scope, grown in place when the grid deepens, and each
check's bound lines in an inner scope, popped after the verdict and, on
``sat``, one batched ``get-value``; so the solver must answer each
command as soon as it has read it.  A load launches the process, if none
runs, before it takes its first line, and streams the lines as they
come, so the solver starts up and parses while the caller still encodes
the rest of the base.  :func:`check` is a
one-check session: it sends one self-contained script and closes the
solver's input, so it also serves a solver that answers only at end of
input.  Both treat an ``(error ...)`` reply before the verdict as a
solver failure.  A session's end closes the solver's input without
waiting: a solver that has answered exits on its own, and is waited for
at the next launch or at interpreter exit, or killed if its solve's
budget runs out first.

A model decodes to a schedule; :func:`render_circuit` alone draws the
physical circuit of one.  Solutions are validated without consulting the
solver or the script, so encoder and solver bugs cannot vouch for
themselves.  Drawing and validation read a schedule's placements from one
walk of its swaps, :func:`_maps_at`.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import re
import selectors
import shlex
import subprocess
import threading
import time
from collections import deque
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, Optional

from .arch import CouplingGraph, json_integer
from .circuit import Circuit, Gate, build_dag
from .encode import (DEFAULT_SWAP_DURATION, PREAMBLE, EncodingContext, check_swap_duration,
                     value_query)

DEFAULT_SOLVER_COMMAND = "z3 -in"
SOLVER_ENV_VAR = "QLAYOUT_SOLVER"
DEFAULT_TIMEOUT = 300.0
# Lines per batch of a streamed load: about 32 KB of this encoding's
# base text, so a batch usually fits an empty 64 KB pipe in one write.
_BATCH_LINES = 256

# Solvers whose sessions closed cleanly, each with its solve's deadline,
# until they are waited for.  Worker threads close sessions, so a lock
# guards the list.
_exiting: list[tuple[subprocess.Popen, float]] = []
_exiting_lock = threading.Lock()


def _reap(block: bool = True) -> None:
    """Wait for the solvers that clean closes left to exit: with ``block``
    each until its deadline, else only those that have exited.  One whose
    deadline has passed is killed."""
    with _exiting_lock:
        entries = _exiting[:]
        _exiting.clear()
    running = []
    for proc, deadline in entries:
        remaining = deadline - time.monotonic()
        try:
            proc.wait(timeout=max(0.0, remaining) if block else 0)
        except subprocess.TimeoutExpired:
            if not block and remaining > 0:
                running.append((proc, deadline))
                continue
            proc.kill()
            proc.wait()
    with _exiting_lock:
        _exiting.extend(running)


atexit.register(_reap)


class SolverError(RuntimeError):
    """Base class for solver-invocation failures."""


class SolverTimeoutError(SolverError):
    """Solver process outlived ``SolverConfig.timeout``, its wall-clock budget."""


class SolverExitError(SolverError):
    """Solver could not start, or exited nonzero before the expected reply."""


class SolverOutputError(SolverError):
    """Solver answered ``unknown`` or an error, or exited 0 before the reply."""


class DecodeError(ValueError):
    """Model value table is incomplete or inconsistent."""


@dataclass(frozen=True)
class SolverConfig:
    """A solver command and the wall-clock seconds of one solve: one
    :func:`check`, or all checks of one solve on a :class:`Session`, however
    many solves its process serves.  An empty command, or a timeout that is
    not above 0 (or is nan), raises ValueError."""

    command: tuple[str, ...] = tuple(DEFAULT_SOLVER_COMMAND.split())
    timeout: float = DEFAULT_TIMEOUT

    def __post_init__(self):
        if not self.command:
            raise ValueError("solver command is empty")
        if not self.timeout > 0:
            raise ValueError(f"solver timeout must be above 0 seconds, not {self.timeout}")

    @staticmethod
    def resolve(command: Optional[str] = None, timeout: float = DEFAULT_TIMEOUT) -> "SolverConfig":
        """Priority: explicit command, then $QLAYOUT_SOLVER, then ``z3 -in``.

        An explicit command is used even when empty, and so rejected."""
        if command is None:
            command = os.environ.get(SOLVER_ENV_VAR) or DEFAULT_SOLVER_COMMAND
        return SolverConfig(command=tuple(shlex.split(command)), timeout=timeout)


@dataclass(frozen=True)
class CheckResult:
    sat: bool
    values: Optional[dict[str, int | bool]]  # None when unsat
    wall_time: float
    bytes_sent: int = 0     # written to the solver for this check


# One ``(name value)`` pair, alone or inside a batched get-value reply.
_VALUE_RE = re.compile(
    r"\(\s*([A-Za-z0-9_]+)\s+(#b[01]+|#x[0-9a-fA-F]+|true|false)\s*\)"
)

# A reply's first token: a string literal, a quoted symbol, a parenthesis or
# an atom, after any whitespace; an unterminated string or symbol matches
# nothing.  Inside parentheses only parentheses, strings and quoted symbols
# count, and a lone quote or bar starts an unterminated one.
_FIRST_TOKEN = re.compile(r'\s*("(?:[^"]|"")*"|\|[^|]*\||[()]|[^\s()"|]+)')
_NESTED_TOKEN = re.compile(r'[()]|"(?:[^"]|"")*"|\|[^|]*\||["|]')
_ERROR_RE = re.compile(r"\(\s*error\b")


def _parse_literal(text: str) -> int | bool:
    if text == "true":
        return True
    if text == "false":
        return False
    if text.startswith("#b"):
        return int(text[2:], 2)
    return int(text[2:], 16)


def _values(text: str) -> dict[str, int | bool]:
    return {name: _parse_literal(lit) for name, lit in _VALUE_RE.findall(text)}


def _next_reply(text: str, pos: int) -> Optional[tuple[str, int]]:
    """The first complete reply in ``text[pos:]`` and the index after it.

    A reply is an atom followed by whitespace or a balanced parenthesized
    expression; None means the text ends before one is complete.
    """
    first = _FIRST_TOKEN.match(text, pos)
    if first is None:
        return None
    token, (begin, end) = first.group(1), first.span(1)
    if token != "(":
        return (token, end) if end < len(text) or token == ")" else None
    depth = 0
    for match in _NESTED_TOKEN.finditer(text, begin):
        token = match.group()
        if token == "(":
            depth += 1
        elif token == ")":
            depth -= 1
            if not depth:
                return text[begin:match.end()], match.end()
        elif len(token) == 1:
            return None
    return None


def _verdict(reply: str) -> Optional[bool]:
    """True for ``sat``, False for ``unsat``, None for a reply to skip over.

    ``unknown`` and an ``(error ...)`` reply raise: an error before the
    verdict means the solver decided a different script than it was sent.
    """
    if reply in ("sat", "unsat"):
        return reply == "sat"
    if reply == "unknown":
        raise SolverOutputError("solver returned 'unknown'")
    if _ERROR_RE.match(reply):
        raise SolverOutputError(f"solver error before the verdict: {reply[:500]}")
    return None


def check(script: str, config: Optional[SolverConfig] = None) -> CheckResult:
    """Run one self-contained script in a fresh solver process: a one-check
    :class:`Session` that closes the solver's input after the script and, on
    ``sat``, reads the values from all output after the verdict."""
    start = time.monotonic()
    with Session(config) as session:
        session._unsent += [memoryview(script.encode()), None]  # then end of input
        while (sat := _verdict(session._reply())) is None:
            pass
        session._pump(session._proc, lambda: False)   # to the end of output
        values = _values(session._text[session._pos:]) if sat else None
        sent = session._written
    return CheckResult(sat=sat, values=values, wall_time=time.monotonic() - start,
                       bytes_sent=sent)


class Session:
    """One solver process at a time, answering the checks of one or more solves.

    Use as a context manager.  A process starts with the first load or
    check.  On exit its input is closed, and it is waited for at the next
    launch or at interpreter exit, or killed once its solve's budget runs
    out; on an exception it is killed and waited for at once.
    :meth:`load` makes its lines (declarations and base
    assertions) the outer scope, replacing the previous one; a process's
    first load also sends ``encode.PREAMBLE``.  :meth:`extend` adds lines
    to the current outer scope, with no pop and no second base, so a grid
    can grow in place.  Both launch the process, if none runs, before
    they take their first line, and stream the lines in batches as they
    take them: after each batch they write pending text, as much as one
    write takes without blocking, and read any output waiting.  A load or
    extension that raises kills the process, so no half-sent base is ever
    checked.  :meth:`check` adds bound lines in an inner scope, asks for a
    verdict and, on ``sat``, for the named values in one query, then pops
    the inner scope.  Streamed text goes out while the load runs instead of
    waiting for the next check; only what the solver's input has not taken
    by then, and a check's closing pop, go out with the next load or check.
    The wall time and ``bytes_sent`` of a check that follows loads or
    extensions include them: the launch, the encoding of their lines and
    their transfer.

    ``config.timeout`` is the budget of one solve.  It starts when the
    session is created and restarts at each :meth:`solve`; once it is
    spent the process is killed and every later check of that solve raises
    :class:`SolverTimeoutError`.  An exception that escapes :meth:`solve`
    kills the process, so the next solve starts a fresh one; after a clean
    solve the process stays up, and the next solve's first load pops the
    old base.
    """

    def __init__(self, config: Optional[SolverConfig] = None):
        self.config = config or SolverConfig.resolve()
        self._deadline = time.monotonic() + self.config.timeout
        self._reset()

    def _reset(self) -> None:
        """Forget the process, if any: the next check starts a fresh one."""
        self._proc: Optional[subprocess.Popen] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._unsent: deque[Optional[memoryview]] = deque()  # encoded text; None ends the input
        self._writing = False      # the selector watches the solver's input
        self._written = 0          # bytes written since the last check
        self._loading_since: Optional[float] = None  # start of a load not yet checked
        self._loaded = False
        self._text = ""            # solver output; replies before _pos are taken
        self._pos = 0
        self._stderr = bytearray()
        self._ended = False        # the solver closed its standard output

    @contextlib.contextmanager
    def solve(self) -> Iterator["Session"]:
        """The scope of one solve: restarts the budget, and kills the process
        when an exception escapes."""
        self._deadline = time.monotonic() + self.config.timeout
        try:
            yield self
        except BaseException:
            self.close(kill=True)
            raise

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(kill=exc_type is not None)

    def load(self, lines: Iterable[str]) -> None:
        """Replace the outer scope with ``lines``, streaming them to the
        solver, launched first if none runs, as they are taken."""
        self._stream(chain(["(pop 1)"] if self._loaded else PREAMBLE, ["(push 1)"], lines))
        self._loaded = True

    def extend(self, lines: Iterable[str]) -> None:
        """Add ``lines`` to the outer scope of the last load, streamed as
        :meth:`load` streams them."""
        self._stream(lines)

    def _stream(self, lines: Iterable[str]) -> None:
        """Send ``lines`` in batches, launching the solver first if none
        runs; kill it if taking a line raises."""
        if self._loading_since is None:
            self._loading_since = time.monotonic()
        try:
            proc = self._proc or self._start()
            rest = iter(lines)
            while batch := list(islice(rest, _BATCH_LINES)):
                self._send(batch)
                self._poll(proc, 0)
        except BaseException:
            self.close(kill=True)
            raise

    def check(self, lines: Iterable[str], names: Iterable[str]) -> CheckResult:
        """Check the outer scope plus ``lines``; values of ``names`` on sat."""
        start = self._loading_since or time.monotonic()
        self._send(["(push 1)", *lines, "(check-sat)"])
        while (sat := _verdict(self._reply())) is None:
            pass
        values = None
        if sat:
            self._send([value_query(names)])
            values = _values(self._reply())
        self._send(["(pop 1)"])
        sent, self._written, self._loading_since = self._written, 0, None
        return CheckResult(sat=sat, values=values, wall_time=time.monotonic() - start,
                           bytes_sent=sent)

    def close(self, kill: bool = False) -> None:
        """Close the solver's input and leave its exit to be waited for at
        the next launch or at interpreter exit, or kill and wait for it
        now: with ``kill``, or once the solve's budget is spent."""
        proc = self._proc
        if proc is None:
            self._reset()
            return
        self._unsent.clear()
        try:
            self._watch_input(proc, False)
            proc.stdin.close()
        except OSError:
            pass
        finally:
            if kill or time.monotonic() >= self._deadline:
                proc.kill()
                proc.wait()
            else:
                with _exiting_lock:
                    _exiting.append((proc, self._deadline))
            proc.stdout.close()
            proc.stderr.close()
            self._selector.close()
            self._reset()

    # ---- process plumbing ------------------------------------------------

    def _send(self, lines) -> None:
        self._unsent.append(memoryview("\n".join([*lines, ""]).encode()))

    def _reply(self) -> str:
        """The next complete reply; sends pending text while waiting for it."""
        proc = self._proc or self._start()
        found = self._pump(proc, lambda: _next_reply(self._text, self._pos))
        if found is None:
            raise self._exit_error(proc)
        reply, self._pos = found
        return reply

    def _start(self) -> subprocess.Popen:
        _reap(block=False)
        command = self.config.command
        try:
            proc = subprocess.Popen(
                list(command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
        except OSError as exc:
            raise SolverExitError(f"cannot launch solver {command}: {exc}") from None
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            os.set_blocking(stream.fileno(), False)
        self._selector = selectors.DefaultSelector()
        for stream in (proc.stdout, proc.stderr):
            self._selector.register(stream, selectors.EVENT_READ)
        self._proc = proc
        return proc

    def _watch_input(self, proc: subprocess.Popen, on: bool) -> None:
        if on != self._writing:
            if on:
                self._selector.register(proc.stdin, selectors.EVENT_WRITE)
            else:
                self._selector.unregister(proc.stdin)
            self._writing = on

    def _pump(self, proc: subprocess.Popen, done):
        """Write pending input and read output, in chunks, until ``done()``
        holds or the output ends, and return the last ``done()``.  Once the
        budget is spent it kills the process instead, even with a reply
        waiting."""
        while (remaining := self._deadline - time.monotonic()) > 0:
            # the end of output can complete a final atom, so ask done() first
            if (found := done()) or self._ended:
                return found
            # one wait at a time, so an infinite or huge budget cannot
            # overflow the platform's timeout
            self._poll(proc, min(remaining, 3600.0))
        proc.kill()
        raise SolverTimeoutError(
            f"solver exceeded {self.config.timeout}s: {' '.join(self.config.command)}"
        )

    def _poll(self, proc: subprocess.Popen, timeout: float) -> None:
        """Wait up to ``timeout`` seconds for the solver's pipes, then write
        one chunk of pending input and read one chunk of each ready output."""
        self._watch_input(proc, bool(self._unsent) and not proc.stdin.closed)
        for key, _ in self._selector.select(timeout):
            if key.fileobj is proc.stdin:
                self._write(proc)
            else:
                self._read(key, proc.stdout)

    def _write(self, proc: subprocess.Popen) -> None:
        data = self._unsent[0]
        if data is None:
            self._watch_input(proc, False)
            proc.stdin.close()
            self._unsent.popleft()
            return
        try:
            sent = os.write(proc.stdin.fileno(), data[: 1 << 16])
        except BlockingIOError:
            return
        except BrokenPipeError:  # the solver stopped reading; its output tells why
            self._unsent.clear()
            return
        self._written += sent
        if sent < len(data):
            self._unsent[0] = data[sent:]
        else:
            self._unsent.popleft()

    def _read(self, key: selectors.SelectorKey, stdout) -> None:
        chunk = os.read(key.fd, 1 << 16)
        if not chunk:
            self._selector.unregister(key.fileobj)
        if key.fileobj is not stdout:
            if len(self._stderr) < 1 << 16:
                self._stderr += chunk
            return
        # an empty chunk is the end of output; a newline ends a final atom
        text = chunk.decode(errors="replace") if chunk else "\n"
        self._text, self._pos = self._text[self._pos:] + text, 0
        self._ended = not chunk

    def _exit_error(self, proc: subprocess.Popen) -> SolverError:
        """Output ended before the reply: a bad answer after exit 0, else a failure."""
        try:
            proc.wait(timeout=max(0.0, self._deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        fd = proc.stderr.fileno()
        try:
            while len(self._stderr) < 1 << 16 and (chunk := os.read(fd, 1 << 16)):
                self._stderr += chunk
        except BlockingIOError:   # a child of the solver holds stderr open
            pass
        stderr = self._stderr.decode(errors="replace")[:500]
        error = SolverOutputError if proc.returncode == 0 else SolverExitError
        return error(f"solver exited {proc.returncode} before answering: {stderr}")


# --------------------------------------------------------------------------
# Solution decoding
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MappingSolution:
    """A layout: initial placement, schedules, and the physical circuit that
    :func:`render_circuit` drew from them, or None if none was drawn."""

    initial_map: tuple[int, ...]                 # logical index -> physical index
    gate_times: tuple[int, ...]
    swaps: tuple[tuple[tuple[int, int], int], ...]  # ((a, b), completion time)
    final_depth: int
    swap_count: int
    mapped_circuit: Circuit | None = None

    def to_dict(self) -> dict:
        return {
            "initial_map": list(self.initial_map),
            "gate_times": list(self.gate_times),
            "swaps": [[list(edge), t] for edge, t in self.swaps],
            "final_depth": self.final_depth,
            "swap_count": self.swap_count,
        }

    @staticmethod
    def from_dict(doc: dict) -> "MappingSolution":
        """Inverse of :meth:`to_dict`; a ValueError names a malformed field."""
        if not isinstance(doc, dict):
            raise ValueError(f"solution is a JSON {type(doc).__name__}, not an object")

        def field(name: str, parse):
            try:
                return parse(name, doc[name])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"bad solution field {name!r}: {exc!r}") from None

        def integers(name: str, xs) -> tuple[int, ...]:
            return tuple(json_integer(name, x) for x in xs)

        return MappingSolution(
            initial_map=field("initial_map", integers),
            gate_times=field("gate_times", integers),
            swaps=field("swaps", lambda name, s: tuple(
                (integers(name, (a, b)), json_integer(name, t)) for (a, b), t in s)),
            final_depth=field("final_depth", json_integer),
            swap_count=field("swap_count", json_integer),
        )


def _maps_at(initial_map: tuple[int, ...], swaps, times) -> dict[int, tuple[int, ...]]:
    """The logical->physical map in effect at each of ``times``.

    A swap that completes at step t moves its qubits from step t + 1 on, and
    swaps that complete together apply in listed order.  A swap with an
    empty end moves only the qubit on the other end.
    """
    ordered = sorted(swaps, key=lambda s: s[1])
    current, maps, done = list(initial_map), {}, 0
    for t in sorted(set(times)):
        while done < len(ordered) and ordered[done][1] < t:
            (a, b), _ = ordered[done]
            occupant = {p: q for q, p in enumerate(current)}
            qa, qb = occupant.get(a), occupant.get(b)
            if qa is not None:
                current[qa] = b
            if qb is not None:
                current[qb] = a
            done += 1
        maps[t] = tuple(current)
    return maps


def _value(values: dict[str, int | bool], name: str) -> int | bool:
    try:
        return values[name]
    except KeyError:
        raise DecodeError(f"model is missing variable {name!r}") from None


def model_swaps(
    values: dict[str, int | bool], ctx: EncodingContext
) -> tuple[tuple[tuple[int, int], int], ...]:
    """(edge, completion time) of every true swap indicator, edge-major;
    none completes before ``ctx.first_swap``."""
    return tuple(
        (edge, t)
        for edge, row in zip(ctx.graph.edges, ctx.swap_names)
        for t in range(ctx.first_swap, ctx.horizon)
        if _value(values, row[t]) is True
    )


def decode_solution(values: dict[str, int | bool], ctx: EncodingContext) -> MappingSolution:
    """Turn a model value table into a schedule, with no circuit drawn.  A
    placement that repeats a device qubit or leaves the device raises
    :class:`DecodeError`, so every decoded schedule can be rendered."""
    swaps = model_swaps(values, ctx)
    initial_map = tuple(int(_value(values, row[0])) for row in ctx.pos_names)
    if len(set(initial_map).intersection(range(ctx.graph.num_qubits))) < len(initial_map):
        raise DecodeError(f"model placement {initial_map} is not on distinct device qubits")
    gate_times = tuple(int(_value(values, name)) for name in ctx.time_names)
    return MappingSolution(
        initial_map=initial_map,
        gate_times=gate_times,
        swaps=swaps,
        final_depth=1 + max(chain(gate_times, (t for _, t in swaps)), default=-1),
        swap_count=len(swaps),
    )


def render_circuit(circuit: Circuit, graph: CouplingGraph, solution: MappingSolution, *,
                   keep_swap_opcode: bool = False) -> Circuit:
    """The physical circuit of a schedule, in step order: each gate of
    ``circuit`` on the device qubits the map holds at its step, gates of one
    step in program order, then the swaps completing at that step, in
    schedule order, as three CNOTs or, with ``keep_swap_opcode``, one
    ``swap`` gate."""
    maps = _maps_at(solution.initial_map, solution.swaps, solution.gate_times)
    steps = sorted(chain(((t, 0, i) for i, t in enumerate(solution.gate_times)),
                         ((t, 1, i) for i, (_, t) in enumerate(solution.swaps))))
    ops: list[tuple] = []
    for t, is_swap, i in steps:
        if not is_swap:
            g = circuit.gates[i]
            ops.append((g.name, tuple(maps[t][q] for q in g.qubits), g.params))
        else:
            a, b = solution.swaps[i][0]
            ops += ([("swap", (a, b))] if keep_swap_opcode
                    else [("cx", (a, b)), ("cx", (b, a)), ("cx", (a, b))])
    return Circuit(num_qubits=graph.num_qubits,
                   gates=tuple(Gate(i, *op) for i, op in enumerate(ops)))


# --------------------------------------------------------------------------
# Independent validation
# --------------------------------------------------------------------------

VIOLATION_KINDS = ("injectivity", "order", "swap_overlap", "adjacency", "totals")


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = ()

    @property
    def first(self) -> Optional[Violation]:
        return self.violations[0] if self.violations else None

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"kind": v.kind, "message": v.message} for v in self.violations
            ],
        }


def validate_solution(
    circuit: Circuit,
    graph: CouplingGraph,
    solution: MappingSolution,
    swap_duration: int = DEFAULT_SWAP_DURATION,
) -> ValidationReport:
    """Replay a solution against every mapping rule, solver-free.

    Checks, in priority order: injectivity and range of the evolving map;
    dependency order; swap-window legality (minimum completion time, overlap
    exclusion, gate blocking); two-qubit adjacency at execution time; and
    reported totals.  A swap duration below one step raises ValueError, as
    the encoder does.
    """
    check_swap_duration(swap_duration)
    problems: list[Violation] = []
    nq, nphys = circuit.num_qubits, graph.num_qubits

    def fail(kind: str, message: str):
        problems.append(Violation(kind, message))

    # Injectivity and range of the initial map.
    if len(solution.initial_map) != nq:
        fail("injectivity", f"initial map covers {len(solution.initial_map)} of {nq} qubits")
    if any(not 0 <= p < nphys for p in solution.initial_map):
        fail("injectivity", "initial map targets a physical qubit outside the device")
    elif len(set(solution.initial_map)) != len(solution.initial_map):
        fail("injectivity", f"initial map {solution.initial_map} is not injective")

    if len(solution.gate_times) != len(circuit.gates):
        fail("totals", "gate-time table does not cover every gate")
        return ValidationReport(ok=False, violations=tuple(problems))

    # Dependency order, strictly increasing along every DAG edge.
    for i, j in sorted(build_dag(circuit).edges):
        if not solution.gate_times[i] < solution.gate_times[j]:
            fail(
                "order",
                f"gate {j} at t={solution.gate_times[j]} does not follow"
                f" gate {i} at t={solution.gate_times[i]}",
            )

    if any(t < 0 for t in solution.gate_times):
        fail("order", "negative gate time")

    swaps = sorted(solution.swaps, key=lambda s: s[1])
    for (a, b), t in swaps:
        if not graph.has_edge(a, b):
            fail("swap_overlap", f"swap on ({a},{b}) is not a device edge")
        if t < swap_duration - 1:
            fail(
                "swap_overlap",
                f"swap completing at t={t} cannot fit its {swap_duration}-step window",
            )
    for x in range(len(swaps)):
        (a1, b1), t1 = swaps[x]
        for y in range(x + 1, len(swaps)):
            (a2, b2), t2 = swaps[y]
            if {a1, b1} & {a2, b2}:
                if abs(t1 - t2) < swap_duration:
                    fail(
                        "swap_overlap",
                        f"swaps on ({a1},{b1})@{t1} and ({a2},{b2})@{t2} overlap",
                    )

    # Gate blocking and adjacency need the map at each gate's moment.
    if not problems or all(v.kind in ("order", "totals") for v in problems):
        maps = _maps_at(solution.initial_map, swaps, solution.gate_times)
        for g, tg in zip(circuit.gates, solution.gate_times):
            spots = [maps[tg][q] for q in g.qubits]
            for (a, b), ts in swaps:
                if ts - swap_duration + 1 <= tg <= ts and ({a, b} & set(spots)):
                    fail(
                        "swap_overlap",
                        f"gate {g.id} at t={tg} sits on qubits busy with the"
                        f" swap ({a},{b}) completing at t={ts}",
                    )
            if g.is_two_qubit and not graph.has_edge(*spots):
                fail(
                    "adjacency",
                    f"gate {g.id} at t={tg} maps to non-adjacent qubits {spots}",
                )

    completions = list(solution.gate_times) + [t for _, t in swaps]
    expected_depth = 1 + max(completions) if completions else 0
    if solution.final_depth != expected_depth:
        fail(
            "totals",
            f"reported depth {solution.final_depth} but schedule ends at {expected_depth}",
        )
    if solution.swap_count != len(solution.swaps):
        fail(
            "totals",
            f"reported {solution.swap_count} swaps but schedule lists {len(solution.swaps)}",
        )

    order = {kind: i for i, kind in enumerate(VIOLATION_KINDS)}
    problems.sort(key=lambda v: order[v.kind])
    return ValidationReport(ok=not problems, violations=tuple(problems))

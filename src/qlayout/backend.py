"""External-solver orchestration, model decoding, and independent validation.

A fresh solver subprocess runs per satisfiability check: the script goes to
the solver's standard input, the ``sat``/``unsat`` verdict and model values
come back on standard output.  Decoded solutions are replay-validated
without consulting the solver or the script, so encoder and solver bugs
cannot vouch for themselves.
"""

from __future__ import annotations

import math
import os
import re
import shlex
import subprocess
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from .arch import CouplingGraph
from .circuit import Circuit, Gate, build_dag
from .encode import DEFAULT_SWAP_DURATION, EncodingContext

DEFAULT_SOLVER_COMMAND = "z3 -in"
SOLVER_ENV_VAR = "QLAYOUT_SOLVER"
DEFAULT_TIMEOUT = 300.0


class SolverError(RuntimeError):
    """Base class for solver-invocation failures."""


class SolverTimeoutError(SolverError):
    """Solver exceeded the wall-clock budget."""


class SolverExitError(SolverError):
    """Solver exited nonzero without producing a verdict."""


class SolverOutputError(SolverError):
    """Solver output held no recognizable verdict or values."""


class DecodeError(ValueError):
    """Model value table is incomplete or inconsistent."""


@dataclass(frozen=True)
class SolverConfig:
    command: tuple[str, ...] = tuple(DEFAULT_SOLVER_COMMAND.split())
    timeout: float = DEFAULT_TIMEOUT

    @staticmethod
    def resolve(command: Optional[str] = None, timeout: float = DEFAULT_TIMEOUT) -> "SolverConfig":
        """Priority: explicit command, then $QLAYOUT_SOLVER, then ``z3 -in``."""
        text = command or os.environ.get(SOLVER_ENV_VAR) or DEFAULT_SOLVER_COMMAND
        return SolverConfig(command=tuple(shlex.split(text)), timeout=timeout)


@dataclass(frozen=True)
class CheckResult:
    sat: bool
    values: Optional[dict[str, int | bool]]  # None when unsat
    wall_time: float


_VALUE_RE = re.compile(
    r"\(\s*\(\s*([A-Za-z0-9_]+)\s+(#b[01]+|#x[0-9a-fA-F]+|true|false)\s*\)\s*\)"
)


def _parse_literal(text: str) -> int | bool:
    if text == "true":
        return True
    if text == "false":
        return False
    if text.startswith("#b"):
        return int(text[2:], 2)
    return int(text[2:], 16)


def check(script: str, config: Optional[SolverConfig] = None) -> CheckResult:
    """Run one satisfiability check in a fresh solver subprocess."""
    config = config or SolverConfig.resolve()
    start = time.monotonic()
    try:
        proc = subprocess.run(
            list(config.command),
            input=script.encode(),
            capture_output=True,
            timeout=config.timeout,
        )
    except subprocess.TimeoutExpired:
        raise SolverTimeoutError(
            f"solver exceeded {config.timeout}s: {' '.join(config.command)}"
        ) from None
    except OSError as exc:
        raise SolverExitError(f"cannot launch solver {config.command}: {exc}") from None
    elapsed = time.monotonic() - start

    stdout = proc.stdout.decode(errors="replace")
    verdict = None
    for line in stdout.splitlines():
        word = line.strip()
        if word in ("sat", "unsat", "unknown"):
            verdict = word
            break
    if verdict is None:
        if proc.returncode != 0:
            raise SolverExitError(
                f"solver exited {proc.returncode}:"
                f" {proc.stderr.decode(errors='replace')[:500]}"
            )
        raise SolverOutputError(f"no verdict in solver output: {stdout[:500]!r}")
    if verdict == "unknown":
        raise SolverOutputError("solver returned 'unknown'")
    if verdict == "unsat":
        return CheckResult(sat=False, values=None, wall_time=elapsed)
    values: dict[str, int | bool] = {
        name: _parse_literal(lit) for name, lit in _VALUE_RE.findall(stdout)
    }
    return CheckResult(sat=True, values=values, wall_time=elapsed)


# --------------------------------------------------------------------------
# Solution decoding
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MappingSolution:
    """A decoded layout: initial placement, schedules, and the physical circuit."""

    initial_map: tuple[int, ...]                 # logical index -> physical index
    gate_times: tuple[int, ...]
    swaps: tuple[tuple[tuple[int, int], int], ...]  # ((a, b), completion time)
    final_depth: int
    swap_count: int
    mapped_circuit: Circuit

    def to_dict(self) -> dict:
        return {
            "initial_map": list(self.initial_map),
            "gate_times": list(self.gate_times),
            "swaps": [[list(edge), t] for edge, t in self.swaps],
            "final_depth": self.final_depth,
            "swap_count": self.swap_count,
        }

    @staticmethod
    def from_dict(doc: dict, mapped_circuit: Circuit | None = None) -> "MappingSolution":
        return MappingSolution(
            initial_map=tuple(int(x) for x in doc["initial_map"]),
            gate_times=tuple(int(x) for x in doc["gate_times"]),
            swaps=tuple(
                ((int(e[0]), int(e[1])), int(t)) for e, t in doc["swaps"]
            ),
            final_depth=int(doc["final_depth"]),
            swap_count=int(doc["swap_count"]),
            mapped_circuit=mapped_circuit or Circuit(num_qubits=1, gates=()),
        )


def replay(
    initial_map: tuple[int, ...], swaps
) -> Iterator[tuple[float, tuple[int, ...]]]:
    """Walk the logical->physical map forward through time.

    Sorts the swaps by completion time once, then yields ``(t, map)`` for
    each distinct completion time ``t`` in ascending order, followed by
    ``(math.inf, final map)``.  Each map is a tuple in effect at every step
    up to and including ``t`` and after the previous yield's step: a swap
    completing at ``t`` moves its qubits from step ``t + 1`` on.
    """
    current = list(initial_map)
    ordered = sorted(swaps, key=lambda s: s[1])
    for x, ((a, b), t) in enumerate(ordered):
        if x == 0 or t != ordered[x - 1][1]:
            yield t, tuple(current)
        occupant = {p: q for q, p in enumerate(current)}
        qa, qb = occupant.get(a), occupant.get(b)
        if qa is not None:
            current[qa] = b
        if qb is not None:
            current[qb] = a
    yield math.inf, tuple(current)


def _maps_at(initial_map: tuple[int, ...], swaps, times) -> dict[int, tuple[int, ...]]:
    """The map in effect at each of ``times``, from one replay."""
    frames = replay(initial_map, swaps)
    until, current = next(frames)
    maps = {}
    for t in sorted(set(times)):
        while t > until:
            until, current = next(frames)
        maps[t] = current
    return maps


def _value(values: dict[str, int | bool], name: str) -> int | bool:
    try:
        return values[name]
    except KeyError:
        raise DecodeError(f"model is missing variable {name!r}") from None


def model_swaps(
    values: dict[str, int | bool], ctx: EncodingContext
) -> tuple[tuple[tuple[int, int], int], ...]:
    """(edge, completion time) of every true swap indicator, edge-major."""
    return tuple(
        (edge, t)
        for e, edge in enumerate(ctx.graph.edges)
        for t in range(ctx.horizon)
        if _value(values, ctx.swap_name(e, t)) is True
    )


def decode_solution(
    values: dict[str, int | bool],
    ctx: EncodingContext,
    *,
    keep_swap_opcode: bool = False,
) -> MappingSolution:
    """Turn a model value table into a validated-shape MappingSolution."""
    circuit = ctx.circuit
    initial_map = tuple(
        int(_value(values, ctx.pos_name(q, 0))) for q in range(circuit.num_qubits)
    )
    gate_times = tuple(
        int(_value(values, ctx.time_name(g))) for g in range(len(circuit.gates))
    )
    swaps = model_swaps(values, ctx)

    completions = list(gate_times) + [t for _, t in swaps]
    final_depth = 1 + max(completions) if completions else 0

    mapped_gates: list[Gate] = []

    def add(name: str, qubits: tuple[int, ...], params=()):
        mapped_gates.append(Gate(len(mapped_gates), name, qubits, params))

    events: list[tuple[int, int, object]] = []  # (time, order-class, payload)
    for g, t in zip(circuit.gates, gate_times):
        events.append((t, 0, g))
    for edge, t in swaps:
        events.append((t, 1, edge))
    maps = _maps_at(initial_map, swaps, gate_times)
    for t, kind, payload in sorted(events, key=lambda e: (e[0], e[1])):
        if kind == 0:
            g: Gate = payload
            add(g.name, tuple(maps[t][q] for q in g.qubits), g.params)
        elif keep_swap_opcode:
            add("swap", payload)
        else:
            a, b = payload
            add("cx", (a, b))
            add("cx", (b, a))
            add("cx", (a, b))

    mapped = Circuit(num_qubits=ctx.graph.num_qubits, gates=tuple(mapped_gates))
    return MappingSolution(
        initial_map=initial_map,
        gate_times=gate_times,
        swaps=swaps,
        final_depth=final_depth,
        swap_count=len(swaps),
        mapped_circuit=mapped,
    )


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
    reported totals.
    """
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

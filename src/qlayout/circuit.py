"""Circuit intermediate representation.

Contents: :class:`Gate`, :class:`Circuit`, :class:`DependencyDag`, an
OpenQASM 2.0 subset parser (:func:`parse_qasm`), the matching emitter
(:func:`emit_qasm`), dependency-DAG construction (:func:`build_dag`), the
longest-dependency-chain metric (:func:`longest_chain`) and each gate's
chains before and after it (:func:`gate_depths`, :func:`gate_tails`).

The parser covers pre-synthesized circuits only: gate statements of arity
one or two over previously declared quantum registers.  ``barrier`` and
``measure`` statements are accepted and dropped; classical registers and
``include`` lines are ignored.  Gate parameters are carried through as
verbatim strings and never interpreted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


class QasmError(ValueError):
    """Syntax or semantic error in OpenQASM input, with source position."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Gate:
    """One gate application: opcode, logical operands, verbatim parameters."""

    id: int
    name: str
    qubits: tuple[int, ...]
    params: tuple[str, ...] = ()

    def __post_init__(self):
        if not 1 <= len(self.qubits) <= 2:
            raise ValueError(f"gate {self.name!r} must act on 1 or 2 qubits")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"gate {self.name!r} has repeated qubit operands")

    @property
    def is_two_qubit(self) -> bool:
        return len(self.qubits) == 2


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over ``num_qubits`` logical qubits."""

    num_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        for i, g in enumerate(self.gates):
            if g.id != i:
                raise ValueError(f"gate ids must be 0..n-1 in order, got {g.id} at {i}")
            if max(g.qubits) >= self.num_qubits:
                raise ValueError(
                    f"gate {i} touches qubit {max(g.qubits)} but circuit has"
                    f" {self.num_qubits} qubits"
                )


def make_circuit(num_qubits: int, ops: list[tuple]) -> Circuit:
    """Build a Circuit from ``(name, qubits)`` or ``(name, qubits, params)`` tuples."""
    gates = []
    for i, op in enumerate(ops):
        name, qubits = op[0], tuple(op[1])
        params = tuple(str(p) for p in op[2]) if len(op) > 2 else ()
        gates.append(Gate(id=i, name=name, qubits=qubits, params=params))
    return Circuit(num_qubits=num_qubits, gates=tuple(gates))


@dataclass(frozen=True)
class DependencyDag:
    """Immediate-predecessor edges (i, j): gate j must execute after gate i."""

    num_gates: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)


def build_dag(circuit: Circuit) -> DependencyDag:
    """Edge (i, j) iff gates i and j share a qubit with no gate on it between."""
    edges: set[tuple[int, int]] = set()
    last_on_qubit: dict[int, int] = {}
    for g in circuit.gates:
        for q in g.qubits:
            if q in last_on_qubit:
                edges.add((last_on_qubit[q], g.id))
            last_on_qubit[q] = g.id
    return DependencyDag(num_gates=len(circuit.gates), edges=frozenset(edges))


def longest_chain(circuit: Circuit) -> int:
    """Length in gates of the longest dependency chain (0 for empty circuits).

    This is the depth of the unmapped circuit and a lower bound on any
    mapped depth.
    """
    return max(gate_depths(circuit), default=0)


def gate_depths(circuit: Circuit) -> list[int]:
    """Per-gate chain depth (1-based): earliest layer each gate can occupy."""
    chain_at_qubit = [0] * circuit.num_qubits
    depths = []
    for g in circuit.gates:
        depth = 1 + max(chain_at_qubit[q] for q in g.qubits)
        for q in g.qubits:
            chain_at_qubit[q] = depth
        depths.append(depth)
    return depths


def gate_tails(circuit: Circuit) -> list[int]:
    """Per-gate length of the longest dependency chain after it: the gates
    that must run at later steps (0 for a gate nothing depends on)."""
    chain_at_qubit = [0] * circuit.num_qubits
    tails = [0] * len(circuit.gates)
    for g in reversed(circuit.gates):
        tails[g.id] = max(chain_at_qubit[q] for q in g.qubits)
        for q in g.qubits:
            chain_at_qubit[q] = tails[g.id] + 1
    return tails


# --------------------------------------------------------------------------
# OpenQASM 2.0 subset parsing
# --------------------------------------------------------------------------

_ID = r"[a-zA-Z_][a-zA-Z0-9_]*"
_STMT_SPLIT = re.compile(r";")
_QREG_RE = re.compile(rf"^qreg\s+({_ID})\s*\[\s*(\d+)\s*\]$")
_CREG_RE = re.compile(rf"^creg\s+({_ID})\s*\[\s*(\d+)\s*\]$")
_ARG_RE = re.compile(rf"^({_ID})(?:\s*\[\s*(\d+)\s*\])?$")
_GATE_RE = re.compile(rf"^({_ID})\s*(?:\(([^)]*)\))?\s*(.*)$", re.DOTALL)

def _strip_comments(text: str) -> str:
    return re.sub(r"//[^\n]*", lambda m: " " * len(m.group(0)), text)


def parse_qasm(text: str) -> Circuit:
    """Parse an OpenQASM 2.0 subset program into a :class:`Circuit`.

    Multiple ``qreg`` declarations are flattened into one qubit index space
    in declaration order.  Raises :class:`QasmError` on malformed input,
    undeclared registers, or gates of arity above two.
    """
    clean = _strip_comments(text)
    regs: dict[str, tuple[int, int]] = {}  # name -> (base offset, size)
    cregs: set[str] = set()
    num_qubits = 0
    gates: list[Gate] = []
    saw_header = False

    pos, line, line_start = 0, 1, 0
    for match in _STMT_SPLIT.finditer(clean):
        raw = clean[pos : match.start()]
        if "\n" in raw:
            line += raw.count("\n")
            line_start = pos + raw.rindex("\n") + 1
        pos = match.end()
        col = match.start() - line_start
        stmt = raw.strip()
        if not stmt:
            continue

        if stmt.startswith("OPENQASM"):
            if not re.match(r"^OPENQASM\s+2\.0$", stmt):
                raise QasmError(f"unsupported version declaration {stmt!r}", line, col)
            saw_header = True
            continue
        if stmt.startswith('include'):
            continue

        m = _QREG_RE.match(stmt)
        if m:
            name, size = m.group(1), int(m.group(2))
            if name in regs or name in cregs:
                raise QasmError(f"register {name!r} redeclared", line, col)
            regs[name] = (num_qubits, size)
            num_qubits += size
            continue
        m = _CREG_RE.match(stmt)
        if m:
            cregs.add(m.group(1))
            continue

        m = _GATE_RE.match(stmt)
        if not m:
            raise QasmError(f"cannot parse statement {stmt!r}", line, col)
        name, params_text, args_text = m.group(1), m.group(2), m.group(3)

        if name in ("barrier", "measure"):
            continue
        if name in ("qreg", "creg", "gate", "opaque", "if", "reset"):
            raise QasmError(f"unsupported statement {stmt!r}", line, col)

        params = tuple(p.strip() for p in params_text.split(",")) if params_text else ()
        args = [a.strip() for a in args_text.split(",")] if args_text.strip() else []
        if not args:
            raise QasmError(f"gate {name!r} has no operands", line, col)
        if len(args) > 2:
            raise QasmError(
                f"gate {name!r} acts on {len(args)} qubits; only 1- and 2-qubit"
                " gates are supported (logic synthesis assumed done)",
                line,
                col,
            )

        resolved: list[int | None] = []  # None marks a whole-register operand
        for a in args:
            am = _ARG_RE.match(a)
            if not am:
                raise QasmError(f"cannot parse operand {a!r}", line, col)
            rname, idx = am.group(1), am.group(2)
            if rname not in regs:
                raise QasmError(f"undeclared register {rname!r}", line, col)
            base, size = regs[rname]
            if idx is None:
                resolved.append(None)
            else:
                if int(idx) >= size:
                    raise QasmError(
                        f"index {idx} out of range for register {rname!r}", line, col
                    )
                resolved.append(base + int(idx))

        if None in resolved:
            if len(args) == 1:
                for k in range(size):  # broadcast over the only operand's register
                    gates.append(Gate(len(gates), name, (base + k,), params))
                continue
            raise QasmError(
                "two-qubit gates require explicitly indexed operands", line, col
            )
        try:
            gates.append(Gate(len(gates), name, tuple(resolved), params))
        except ValueError as exc:
            raise QasmError(str(exc), line, col) from None

    if not saw_header:
        raise QasmError("missing OPENQASM 2.0 header", 1, 0)
    if num_qubits == 0:
        raise QasmError("no qreg declaration", 1, 0)
    return Circuit(num_qubits=num_qubits, gates=tuple(gates))


def emit_qasm(circuit: Circuit) -> str:
    """Emit the circuit as OpenQASM 2.0 over one flat register, ``q``.

    Round-trip property: ``parse_qasm(emit_qasm(c))`` equals ``c`` up to the
    flattening of register names.
    """
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    lines.append(f"qreg q[{max(circuit.num_qubits, 1)}];")
    for g in circuit.gates:
        params = f"({','.join(g.params)})" if g.params else ""
        operands = ",".join(f"q[{q}]" for q in g.qubits)
        lines.append(f"{g.name}{params} {operands};")
    return "\n".join(lines) + "\n"


def load_qasm(path) -> Circuit:
    """Parse a QASM file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_qasm(fh.read())

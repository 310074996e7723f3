"""Six-feature circuit description used to train and query the predictors.

The features: longest dependency chain (circuit depth before mapping),
circuit width, maximum per-qubit gate count, operation density (gate
occupancy of the depth x width grid), two-qubit gate count, and a
log-compressed variance of the per-qubit two-qubit-gate load.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from .circuit import Circuit, longest_chain

FEATURE_NAMES = (
    "circuit_depth",
    "circuit_width",
    "max_qubit_depth",
    "operation_density",
    "two_qubit_gate_count",
    "entanglement_variance",
)


@dataclass(frozen=True)
class FeatureVector:
    circuit_depth: int
    circuit_width: int
    max_qubit_depth: int
    operation_density: float
    two_qubit_gate_count: int
    entanglement_variance: float

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in FEATURE_NAMES}

    def to_json(self) -> str:
        out = {}
        for name in FEATURE_NAMES:
            v = getattr(self, name)
            out[name] = float(format_float(v)) if isinstance(v, float) else v
        return json.dumps(out, indent=2)


def ordered_sum(values) -> float:
    """Add floats strictly left to right, starting from 0.0.

    The builtin ``sum`` compensates float rounding since CPython 3.12, so
    its result depends on the interpreter.  Features, standardized rows
    and trained trees must not, so their float reductions go through this
    loop, which is what ``sum`` did up to 3.11.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def format_float(x: float) -> str:
    """Serialize a float with 9 significant digits."""
    return format(x, ".9g")


def max_qubit_depth(circuit: Circuit) -> int:
    """Largest number of gates touching any single qubit."""
    tally = [0] * circuit.num_qubits
    for g in circuit.gates:
        for q in g.qubits:
            tally[q] += 1
    return max(tally, default=0)


def operation_density(circuit: Circuit) -> float:
    """(single-qubit gates + 2 * two-qubit gates) / (depth * width)."""
    if not circuit.gates:
        return 0.0
    n1 = sum(1 for g in circuit.gates if not g.is_two_qubit)
    n2 = sum(1 for g in circuit.gates if g.is_two_qubit)
    return (n1 + 2 * n2) / (longest_chain(circuit) * circuit.num_qubits)


def entanglement_variance(circuit: Circuit) -> float:
    """ln(sum of squared deviations of per-qubit two-qubit-gate counts + 1) / width.

    The mean is taken over every declared qubit, idle ones included.
    """
    counts = [0] * circuit.num_qubits
    for g in circuit.gates:
        if g.is_two_qubit:
            for q in g.qubits:
                counts[q] += 1
    if not counts:
        return 0.0
    mean = sum(counts) / len(counts)
    spread = ordered_sum((c - mean) ** 2 for c in counts)
    return math.log(spread + 1.0) / circuit.num_qubits


def extract_features(circuit: Circuit) -> FeatureVector:
    return FeatureVector(
        circuit_depth=longest_chain(circuit),
        circuit_width=circuit.num_qubits,
        max_qubit_depth=max_qubit_depth(circuit),
        operation_density=operation_density(circuit),
        two_qubit_gate_count=sum(1 for g in circuit.gates if g.is_two_qubit),
        entanglement_variance=entanglement_variance(circuit),
    )

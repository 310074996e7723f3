"""Six-feature circuit description used to train and query the predictors.

The features: longest dependency chain (circuit depth before mapping),
circuit width, maximum per-qubit gate count, operation density (gate
occupancy of the depth x width grid), two-qubit gate count, and a
log-compressed variance of the per-qubit two-qubit-gate load.

This module owns the feature row.  The fields of :class:`FeatureVector`
declare each feature's name, type and column, once; ``FEATURE_NAMES``
follows from them.  The row has one text form, ints in decimal and floats
at 9 significant digits, which both the dataset CSV and ``to_json`` write,
and one parser, :func:`parse_numbers`, which reads it back.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Sequence, get_type_hints

from .circuit import Circuit, longest_chain


@dataclass(frozen=True)
class FeatureVector:
    circuit_depth: int
    circuit_width: int
    max_qubit_depth: int
    operation_density: float
    two_qubit_gate_count: int
    entanglement_variance: float

    def as_tuple(self) -> tuple[float, ...]:
        """The six features in ``FEATURE_NAMES`` order."""
        return _columns(self)

    def to_dict(self) -> dict:
        return dict(zip(FEATURE_NAMES, self.as_tuple()))

    def to_text(self) -> list[str]:
        """The row's text form: ints in decimal, floats by :func:`format_float`."""
        return [format_float(v) if isinstance(v, float) else str(v) for v in self.as_tuple()]

    def to_json(self) -> str:
        """A JSON object of the features as their text form reads back."""
        values = (convert(text) for convert, text in zip(FEATURE_TYPES, self.to_text()))
        return json.dumps(dict(zip(FEATURE_NAMES, values)), indent=2)


FEATURE_NAMES = tuple(f.name for f in fields(FeatureVector))
FEATURE_TYPES = tuple(get_type_hints(FeatureVector)[name] for name in FEATURE_NAMES)
_columns = attrgetter(*FEATURE_NAMES)


def parse_numbers(columns: Sequence[str], types: Sequence[type], texts: Sequence[str]) -> list:
    """Each text converted by its column's type, such as a dataset row by
    ``FEATURE_TYPES``; a ValueError names the first column whose text is
    not a finite number of that type."""
    values = []
    for column, convert, text in zip(columns, types, texts):
        try:
            value = convert(text)
            # an int beyond the float range makes isfinite overflow
            if math.isfinite(value):
                values.append(value)
                continue
        except (ValueError, OverflowError):
            pass
        raise ValueError(f"column {column}: {text!r} is not a finite number")
    return values


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

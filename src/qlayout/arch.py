"""Hardware coupling-graph model.

Contents: :class:`CouplingGraph` plus built-in generators (``line_graph``,
``ring_graph``, ``grid_graph``, ``qx2``), a JSON file loader
(:func:`load_graph`) and a name resolver (:func:`resolve_graph`) used by the
command line (``qx2``, ``line:5``, ``ring:5``, ``grid:2x3``, or a file path).

Each graph computes its device analysis once, on first use, in three tables:
``incident`` (edges per qubit), ``touching`` (edges sharing a qubit, per
edge) and ``components`` (component sizes).
"""

from __future__ import annotations

import json
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import cached_property


def component_sizes(n: int, pairs) -> list[int]:
    """Sizes of the connected components of the graph on nodes 0..n-1 with
    edges ``pairs``, largest first."""
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for a, b in pairs:
        root[find(a)] = find(b)
    return sorted(Counter(find(x) for x in range(n)).values(), reverse=True)


class GraphError(ValueError):
    """Invalid coupling-graph description."""


@dataclass(frozen=True)
class CouplingGraph:
    """Undirected connectivity between physical qubits.

    ``edges`` is kept sorted so that every edge has a stable index; the
    constraint encoder and solution decoder share that indexing.
    """

    name: str
    num_qubits: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.num_qubits < 1:
            raise GraphError(f"a coupling graph needs at least 1 qubit, not {self.num_qubits}")
        seen = set()
        canon = []
        for a, b in self.edges:
            if a == b:
                raise GraphError(f"self-loop edge ({a},{b})")
            if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise GraphError(f"edge ({a},{b}) out of range for {self.num_qubits} qubits")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise GraphError(f"duplicate edge ({a},{b})")
            seen.add(key)
            canon.append(key)
        object.__setattr__(self, "edges", tuple(sorted(canon)))
        if len(self.components) > 1:
            warnings.warn(f"coupling graph {self.name!r} is not connected", stacklevel=2)

    # Not fields, so equality and hashing ignore them; racing threads compute equal tuples.
    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """For each physical qubit, the indices of its edges, ascending."""
        return tuple(tuple(k for k, e in enumerate(self.edges) if p in e)
                     for p in range(self.num_qubits))

    @cached_property
    def touching(self) -> tuple[tuple[int, ...], ...]:
        """For each edge, the other edges sharing a physical qubit with it, ascending."""
        return tuple(tuple(sorted(set(self.incident[a] + self.incident[b]) - {k}))
                     for k, (a, b) in enumerate(self.edges))

    @cached_property
    def components(self) -> tuple[int, ...]:
        """Sizes of the connected components, largest first."""
        return tuple(component_sizes(self.num_qubits, self.edges))

    def has_edge(self, a: int, b: int) -> bool:
        """Whether an edge joins ``a`` and ``b``; False for a qubit off the device."""
        return (a != b and 0 <= a < self.num_qubits
                and any(b in self.edges[k] for k in self.incident[a]))


def line_graph(n: int) -> CouplingGraph:
    """Path topology on ``n >= 2`` qubits."""
    if n < 2:
        raise GraphError("line graph needs at least 2 qubits")
    return CouplingGraph(f"line:{n}", n, tuple((i, i + 1) for i in range(n - 1)))


def ring_graph(n: int) -> CouplingGraph:
    """Cycle topology on ``n >= 3`` qubits."""
    if n < 3:
        raise GraphError("ring graph needs at least 3 qubits")
    edges = tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),)
    return CouplingGraph(f"ring:{n}", n, edges)


def grid_graph(rows: int, cols: int) -> CouplingGraph:
    """rows x cols lattice with horizontal/vertical neighbor couplings."""
    if rows < 1 or cols < 1:
        raise GraphError("grid dimensions must be positive")
    edges = []
    for r in range(rows):
        for c in range(cols):
            p = r * cols + c
            if c + 1 < cols:
                edges.append((p, p + 1))
            if r + 1 < rows:
                edges.append((p, p + cols))
    return CouplingGraph(f"grid:{rows}x{cols}", rows * cols, tuple(edges))


def qx2() -> CouplingGraph:
    """5-qubit device: two triangles sharing qubit 2."""
    return CouplingGraph(
        "qx2", 5, ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4))
    )


def load_graph(path) -> CouplingGraph:
    """Load a graph file: JSON {"name", "num_qubits", "edges": [[a,b],...]},
    the qubit count and every endpoint a JSON integer."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphError(f"{path}: not valid JSON ({exc})") from None

    def integer(field: str, value) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{field} must be an integer, not {value!r}")
        return value

    try:
        name = str(doc.get("name", str(path)))
        num_qubits = integer("num_qubits", doc["num_qubits"])
        edges = tuple((integer(f"edges[{i}]", a), integer(f"edges[{i}]", b))
                      for i, (a, b) in enumerate(doc["edges"]))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # or not an object
        raise GraphError(f"{path}: bad graph schema ({exc})") from None
    return CouplingGraph(name, num_qubits, edges)


def resolve_graph(spec: str) -> CouplingGraph:
    """Resolve an architecture name or file path to a CouplingGraph."""
    s = spec.strip().lower()
    if s == "qx2":
        return qx2()
    for prefix, builder in (("line:", line_graph), ("ring:", ring_graph)):
        if s.startswith(prefix):
            return builder(int(s[len(prefix):]))
    if s.startswith("grid:"):
        rows, _, cols = s[len("grid:"):].partition("x")
        return grid_graph(int(rows), int(cols))
    return load_graph(spec)

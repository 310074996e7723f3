"""
Provably optimal layout of a circuit onto a device
==================================================

Map a small circuit onto a 5-qubit line: find the minimum achievable
schedule length first, then the minimum number of swaps at that length.
Every bound is settled by an external SMT solver over bit-vector
constraints: the solver refuted the bound one step below each reported
optimum, unless that optimum is already the floor (the longest dependency
chain for depth, zero for swaps).

Needs an SMT-LIB2 solver on PATH (``z3 -in`` by default; override with
the QLAYOUT_SOLVER environment variable).
"""

import sys

from qlayout.arch import line_graph
from qlayout.backend import SolverConfig, SolverError, check, validate_solution
from qlayout.circuit import emit_qasm, make_circuit
from qlayout.search import solve_optimal

solver = SolverConfig.resolve(timeout=120.0)
try:
    check("(set-logic QF_BV)\n(check-sat)\n", solver)
except SolverError as exc:
    sys.exit(f"no usable solver ({exc}); install z3 or set QLAYOUT_SOLVER")

# Three interactions forming a triangle of demands on three qubits: on a
# line at least one pair starts non-adjacent, so a swap is unavoidable.
circuit = make_circuit(3, [("cx", (0, 1)), ("cx", (1, 2)), ("cx", (0, 2))])
device = line_graph(5)
print(f"mapping {len(circuit.gates)} gates onto {device.name}")

result = solve_optimal(circuit, device, solver=solver)
print(f"\noptimal depth {result.optimal_depth}, "
      f"optimal swaps {result.optimal_swaps}")
print("depth-phase bounds probed:", result.depth_history)
print("swap-phase bounds probed: ", result.swap_history)
print(f"solver checks: {result.depth_checks} + {result.swap_checks}, "
      f"{sum(result.wall_time_per_check):.1f}s total")

solution = result.solution
print("\ninitial placement (logical -> physical):", solution.initial_map)
print("gate start times:", solution.gate_times)
print("swaps (edge, completion):", solution.swaps)

# The validator replays the whole schedule against the device without
# the solver; a clean report certifies the decoded layout.
report = validate_solution(circuit, device, solution)
print("independent validation:", "ok" if report.ok else report.first)

print("\nmapped circuit (swaps expanded into three CNOTs):")
print(emit_qasm(solution.mapped_circuit))

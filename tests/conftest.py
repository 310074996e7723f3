"""Shared fixtures: solver availability, the cross-check suite, solve caches.

Solver fixtures tell a missing solver from a broken one:

* ``solver_cfg`` is the installed SMT solver: the command in
  ``$QLAYOUT_SOLVER`` when that is set, else ``z3 -in``.  It skips the
  requesting test, with the reason, only when ``QLAYOUT_SOLVER`` is unset
  and ``z3`` is not on PATH.  It fails the test when the requested command
  cannot be launched, when the found solver errors on the probe script or
  on a two-check push/pop session (a solver that answers only at end of
  input fails there), and when either answer is wrong.
* ``small_solver`` is the same solver, with the same failures, but where
  none is installed it falls back to ``tests/refsolver.py``, an exact but
  slow pure-Python solver.  Only tests on instances of a few qubits use it;
  the acceptance suite (through ``suite``) needs ``solver_cfg``.

The acceptance suite reuses solver results across tests (the same instance
is solved under several predictor seedings), so results are memoized in a
session-scoped cache keyed by (circuit, device, depth seed, swap seed).
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import sys
from pathlib import Path
from typing import Optional

import pytest

from qlayout.arch import CouplingGraph, grid_graph, line_graph, qx2, ring_graph
from qlayout.augment import ChunkPlan, gate_allocation
from qlayout.backend import SOLVER_ENV_VAR, Session, SolverConfig, check
from qlayout.circuit import Circuit, longest_chain, make_circuit
from qlayout.corpus import load_bundled
from qlayout.search import SolveResult, solve_optimal

from . import oracles

# --------------------------------------------------------------------------
# Solver availability
# --------------------------------------------------------------------------

_PROBE = """(set-logic QF_BV)
(declare-const x (_ BitVec 2))
(assert (= x #b10))
(check-sat)
(get-value (x))
"""

REFERENCE_SOLVER = SolverConfig(
    command=(sys.executable, str(Path(__file__).with_name("refsolver.py"))),
    timeout=120.0,
)


# A solver that answers only at end of input fails the session probe here,
# within this budget, instead of timing out in every test that uses it.
_SESSION_PROBE_TIMEOUT = 30.0


def _probed(cfg: SolverConfig) -> SolverConfig:
    """``cfg`` once it has answered the probe script and a two-check
    push/pop session; fails the test if not."""
    try:
        result = check(_PROBE, cfg)
        probe_cfg = dataclasses.replace(cfg, timeout=_SESSION_PROBE_TIMEOUT)
        with Session(probe_cfg) as session:
            session.load(["(declare-const x (_ BitVec 2))"])
            scoped = [
                session.check([f"(assert (= x {value}))"], ["x"])
                for value in ("#b10", "#b01")
            ]
    except Exception as exc:  # noqa: BLE001 - report any launch failure
        pytest.fail(
            f"SMT solver {' '.join(cfg.command)!r} is not usable: {exc}.\n"
            "Install z3 (or set QLAYOUT_SOLVER to an SMT-LIB2 command that "
            "reads commands on stdin and answers each as it reads it) and rerun."
        )
    if not result.sat or result.values.get("x") != 2:
        pytest.fail(f"solver probe returned unexpected output: {result}")
    if [r.values for r in scoped] != [{"x": 2}, {"x": 1}]:
        pytest.fail(f"solver session probe returned unexpected output: {scoped}")
    return cfg


@pytest.fixture(scope="session")
def installed_solver() -> Optional[SolverConfig]:
    """The requested or default solver, probed; None when there is none.

    ``QLAYOUT_SOLVER`` set: that command must work.  Unset: ``z3 -in`` must
    work when ``z3`` is on PATH, and there is no solver when it is not (the
    lookup launches nothing).
    """
    cfg = SolverConfig.resolve(timeout=120.0)
    if not os.environ.get(SOLVER_ENV_VAR) and shutil.which(cfg.command[0]) is None:
        return None
    return _probed(cfg)


@pytest.fixture(scope="session")
def solver_cfg(installed_solver) -> SolverConfig:
    """The installed solver; skips where none is installed or requested."""
    if installed_solver is None:
        default = SolverConfig.resolve().command[0]
        pytest.skip(
            f"no SMT solver: {default!r} is not on PATH and {SOLVER_ENV_VAR} is"
            " unset; install z3, run tools/install-wasm-z3.sh, or set"
            f" {SOLVER_ENV_VAR} to an SMT-LIB2 command reading commands on stdin"
        )
    return installed_solver


@pytest.fixture(scope="session")
def small_solver(installed_solver) -> SolverConfig:
    """The installed solver, else the reference solver in tests/refsolver.py."""
    return installed_solver or _probed(REFERENCE_SOLVER)


# --------------------------------------------------------------------------
# Devices and the cross-check circuit suite
# --------------------------------------------------------------------------


def suite_graphs() -> dict[str, CouplingGraph]:
    return {
        "qx2": qx2(),
        "line5": line_graph(5),
        "ring5": ring_graph(5),
        "grid2x3": grid_graph(2, 3),
    }


def _chunk(name: str, budgets: tuple[int, ...], index: int, two_qubit_only=False):
    circuit = load_bundled(name)
    chunks = gate_allocation(circuit, ChunkPlan(budgets, two_qubit_only))
    return chunks[index]


def suite_circuits() -> list[tuple[str, Circuit]]:
    """Twenty small circuits: bundled algorithm fragments plus chunk cuts."""
    whole = [
        "ghz_n4", "bv_n4", "bv_n5", "wstate_n3", "teleport_n3",
        "qft_n3", "qft_n4", "qaoa_n3", "adder_n4", "ising_n4",
        "vqe_n4", "swap_ring_n4", "linear_n5",
    ]
    out: list[tuple[str, Circuit]] = [(n, load_bundled(n)) for n in whole]
    out += [
        ("qft_n4[b5#0]", _chunk("qft_n4", (5,), 0)),
        ("qft_n4[b5#1]", _chunk("qft_n4", (5,), 1)),
        ("ghz_n6[b3#0]", _chunk("ghz_n6", (3,), 0)),
        ("ghz_n6[b3#1]", _chunk("ghz_n6", (3,), 1)),
        ("fredkin_n3[cx4#0]", _chunk("fredkin_n3", (4,), 0, two_qubit_only=True)),
        ("fredkin_n3[cx4#1]", _chunk("fredkin_n3", (4,), 1, two_qubit_only=True)),
        ("toffoli_n3[b6+3#0]", _chunk("toffoli_n3", (6, 3), 0)),
    ]
    for name, circuit in out:
        assert 3 <= circuit.num_qubits <= 6, (name, circuit.num_qubits)
        assert len(circuit.gates) <= 30, (name, len(circuit.gates))
    assert len(out) == 20
    return out


class _Const:
    """Predictor stub returning a fixed value."""

    def __init__(self, value: int):
        self.value = value

    def predict(self, features) -> int:
        return self.value


class SuiteCache:
    """Memoized optimal-mapping results over the cross-check suite."""

    def __init__(self, solver: SolverConfig):
        self.solver = solver
        self.circuits = dict(suite_circuits())
        self.graphs = suite_graphs()
        self._solves: dict[tuple, SolveResult] = {}
        self._scans: dict[tuple, tuple[int, int, int]] = {}

    def instances(self):
        for cname in self.circuits:
            for aname in self.graphs:
                yield cname, aname

    def solve(self, cname: str, aname: str, depth_seed=None, swap_seed=None) -> SolveResult:
        key = (cname, aname, depth_seed, swap_seed)
        if key not in self._solves:
            self._solves[key] = solve_optimal(
                self.circuits[cname],
                self.graphs[aname],
                depth_model=None if depth_seed is None else _Const(depth_seed),
                swap_model=None if swap_seed is None else _Const(swap_seed),
                solver=self.solver,
            )
        return self._solves[key]

    def scan(self, cname: str, aname: str) -> tuple[int, int, int]:
        key = (cname, aname)
        if key not in self._scans:
            self._scans[key] = oracles.linear_scan_solve(
                self.circuits[cname], self.graphs[aname], self.solver
            )
        return self._scans[key]

    def ldc(self, cname: str) -> int:
        return longest_chain(self.circuits[cname])


@pytest.fixture(scope="session")
def suite(solver_cfg) -> SuiteCache:
    return SuiteCache(solver_cfg)


# --------------------------------------------------------------------------
# Random-circuit generation
# --------------------------------------------------------------------------

ONE_QUBIT_GATES = ("h", "x", "s", "t", "tdg", "z")
TWO_QUBIT_GATES = ("cx", "cz")


def random_circuit(
    rng: random.Random,
    max_qubits: int = 6,
    max_gates: int = 30,
    min_qubits: int = 1,
    min_gates: int = 0,
) -> Circuit:
    nq = rng.randint(min_qubits, max_qubits)
    ops = []
    for _ in range(rng.randint(min_gates, max_gates)):
        if nq >= 2 and rng.random() < 0.45:
            a, b = rng.sample(range(nq), 2)
            ops.append((rng.choice(TWO_QUBIT_GATES), (a, b)))
        elif rng.random() < 0.2:
            ops.append(("rz", (rng.randrange(nq),), (round(rng.uniform(0, 3), 4),)))
        else:
            ops.append((rng.choice(ONE_QUBIT_GATES), (rng.randrange(nq),)))
    return make_circuit(nq, ops)

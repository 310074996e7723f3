"""Every solver failure ends a solve the same way.

Each fake solver below fails one check in one way: it exits, outlives its
budget, answers ``unknown`` or an error, or answers ``sat`` with a model
that does not decode.  For each, ``solve_optimal`` raises ``SearchError``
with the cause chained and the telemetry of the checks run,
``build_corpus`` skips the sample with a warning, and ``qlayout map``
exits 3.
"""

import dataclasses
import logging
import shlex

import pytest

from qlayout import backend as be
from qlayout.arch import line_graph
from qlayout.augment import ChunkPlan, build_corpus
from qlayout.circuit import make_circuit
from qlayout.cli import main
from qlayout.search import SearchError, solve_optimal

from .test_backend import _script_solver

# One cx on line:5: the depth floor is 1, and a position has 3 bits, so a
# model can name physical qubits 5 to 7, which the device lacks.
CIRCUIT = make_circuit(2, [("cx", (0, 1))])
QASM = "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n"
DEVICE = "line:5"


def _answering(verdict: str, model: str = "cat") -> str:
    """A solver that answers every check with ``verdict`` and every value
    query by running the query line through ``model``."""
    return f"""while read -r line; do
  case "$line" in
    "(check-sat)") echo {verdict} ;;
    "(get-value ("*) echo "$line" | {model} ;;
  esac
done"""


def _model(pos1: str) -> str:
    """Every queried value #b0, except ``pos_q1_t0``: no swap, every gate at
    step 0, logical qubit 0 on physical qubit 0 and qubit 1 on ``pos1``."""
    return " -e ".join([
        "sed", "'s/^(get-value (//'", "'s/))$//'", "'s/[^ ][^ ]*/(& #b0)/g'",
        "'s/.*/(&)/'", f"'s/(pos_q1_t0 #b0)/(pos_q1_t0 {pos1})/'",
    ])


# kind: (solver script, its timeout, the chained cause, checks recorded)
FAILURES = {
    "nonzero exit": (
        'while read -r line; do [ "$line" = "(check-sat)" ] && exit 7; done',
        5.0, be.SolverExitError, 0),
    "timeout": (
        'while read -r line; do [ "$line" = "(check-sat)" ] && exec sleep 30; done',
        0.5, be.SolverTimeoutError, 0),
    "unknown": (_answering("unknown"), 5.0, be.SolverOutputError, 0),
    "error before the verdict": (
        _answering("'(error \"out of memory\")'"), 5.0, be.SolverOutputError, 0),
    "get-value error": (
        _answering("sat", "sed 's/.*/(error \"model is not available\")/'"),
        5.0, be.DecodeError, 1),
    "colliding placement": (_answering("sat", _model("#b0")), 5.0, be.DecodeError, 1),
    "off-device placement": (_answering("sat", _model("#b111")), 5.0, be.DecodeError, 1),
}


def _fake(tmp_path, kind: str) -> be.SolverConfig:
    script, timeout, _, _ = FAILURES[kind]
    return dataclasses.replace(_script_solver(tmp_path, script), timeout=timeout)


def test_the_fake_model_with_distinct_positions_solves(tmp_path):
    # the failing models differ from this one only in pos_q1_t0
    cfg = _script_solver(tmp_path, _answering("sat", _model("#b1")))
    result = solve_optimal(CIRCUIT, line_graph(5), solver=cfg)
    assert (result.optimal_depth, result.optimal_swaps) == (1, 0)
    assert result.solution.initial_map == (0, 1)
    assert be.validate_solution(CIRCUIT, line_graph(5), result.solution).ok


@pytest.mark.parametrize("kind", FAILURES)
def test_solve_optimal_raises_a_search_error(tmp_path, kind):
    _, _, cause, recorded = FAILURES[kind]
    with pytest.raises(SearchError, match="depth phase failed at bound 1 ") as info:
        solve_optimal(CIRCUIT, line_graph(5), solver=_fake(tmp_path, kind))
    assert type(info.value.__cause__) is cause
    telemetry = info.value.telemetry
    assert (telemetry["optimal_depth"], telemetry["optimal_swaps"]) == (None, None)
    assert [(c["phase"], c["bound"], c["sat"]) for c in telemetry["checks"]] == (
        [("depth", 1, True)] * recorded)


@pytest.mark.parametrize("kind", FAILURES)
def test_build_corpus_skips_the_sample(tmp_path, caplog, kind):
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING, logger="qlayout.augment"):
        depth_ds, swap_ds = build_corpus([("pair", CIRCUIT)], [ChunkPlan((1,))],
                                         line_graph(5), out, refine=False,
                                         solver=_fake(tmp_path, kind))
    assert "pair chunk 0: labeling failed (depth phase failed at bound 1 " in caplog.text
    assert (depth_ds.samples, swap_ds.samples) == ([], [])
    assert not list(out.glob("sample_*"))


@pytest.mark.parametrize("kind", FAILURES)
def test_map_exits_3(tmp_path, capsys, kind):
    circuit = tmp_path / "pair.qasm"
    circuit.write_text(QASM)
    cfg = _fake(tmp_path, kind)
    code = main(["map", str(circuit), "--arch", DEVICE, "--solver", shlex.join(cfg.command),
                 "--timeout", str(cfg.timeout), "--output", str(tmp_path / "m.qasm")])
    assert code == 3
    assert "solver error: depth phase failed at bound 1 " in capsys.readouterr().err
    assert not (tmp_path / "m.qasm").exists()

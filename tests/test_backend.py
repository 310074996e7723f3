"""Solver subprocess driver, model decoding, and the solution validator."""

import dataclasses
import math
import os
import random
import re
import stat
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from qlayout import backend
from qlayout.arch import line_graph, qx2
from qlayout.backend import (
    DEFAULT_SOLVER_COMMAND,
    SOLVER_ENV_VAR,
    CheckResult,
    DecodeError,
    MappingSolution,
    SolverConfig,
    SolverExitError,
    SolverOutputError,
    SolverTimeoutError,
    Session,
    _maps_at,
    _next_reply,
    _parse_literal,
    _VALUE_RE,
    check,
    decode_solution,
    model_swaps,
    render_circuit,
    validate_solution,
    VIOLATION_KINDS,
)
from qlayout.circuit import make_circuit
from qlayout.encode import build_context

from .oracles import maps_step_by_step

# --------------------------------------------------------------------------
# Literal and output parsing
# --------------------------------------------------------------------------


def test_parse_literal_forms():
    assert _parse_literal("#b0110") == 6
    assert _parse_literal("#x1f") == 31
    assert _parse_literal("#xAB") == 171
    assert _parse_literal("true") is True
    assert _parse_literal("false") is False


def test_value_regex_tolerates_whitespace():
    out = "sat\n((pos_q0_t0 #b010))\n(( swp_e1_t3   true ))\n((time_g0 #x0a))\n"
    found = dict(_VALUE_RE.findall(out))
    assert found == {"pos_q0_t0": "#b010", "swp_e1_t3": "true", "time_g0": "#x0a"}


def test_next_reply_waits_for_a_complete_reply():
    reply = '((error "a)b" "c""d") (|x y| #b01) (|)| |(|))'
    text = "sat\n " + reply
    for end in range(4, len(text)):             # every proper prefix of the reply
        assert _next_reply(text[:end], 3) is None, text[:end]
    assert _next_reply(text, 0) == ("sat", 3)
    assert _next_reply(text, 3) == (reply, len(text))
    assert _next_reply(text + "\nunsat\n", 3) == (reply, len(text))
    assert _next_reply("sat", 0) is None            # an atom ends at whitespace
    assert _next_reply('(echo "a) b)', 0) is None  # an unterminated string
    assert _next_reply("(a |b) c)", 0) is None       # an unterminated symbol


def test_solver_config_resolution_priority(monkeypatch):
    monkeypatch.delenv(SOLVER_ENV_VAR, raising=False)
    assert SolverConfig.resolve().command == tuple(DEFAULT_SOLVER_COMMAND.split())
    monkeypatch.setenv(SOLVER_ENV_VAR, "mysolver --model")
    assert SolverConfig.resolve().command == ("mysolver", "--model")
    assert SolverConfig.resolve("other -in").command == ("other", "-in")
    assert SolverConfig.resolve(timeout=12.0).timeout == 12.0


# --------------------------------------------------------------------------
# Subprocess checks
# --------------------------------------------------------------------------


def test_check_sat_returns_model_values(small_solver):
    script = (
        "(set-option :produce-models true)\n(set-logic QF_BV)\n"
        "(declare-const x (_ BitVec 3))\n(declare-const b Bool)\n"
        "(assert (= x #b101))\n(assert b)\n(check-sat)\n"
        "(get-value (x))\n(get-value (b))\n"
    )
    result = check(script, small_solver)
    assert result.sat
    assert result.values == {"x": 5, "b": True}
    assert result.wall_time > 0


def test_check_unsat_has_no_values(small_solver):
    script = (
        "(set-option :produce-models true)\n(set-logic QF_BV)\n"
        "(declare-const x (_ BitVec 2))\n"
        "(assert (= x #b01))\n(assert (= x #b10))\n(check-sat)\n(get-value (x))\n"
    )
    result = check(script, small_solver)
    assert not result.sat
    assert result.values is None


def _script_solver(tmp_path, body: str) -> SolverConfig:
    path = tmp_path / "fakesolver"
    path.write_text(f"#!/bin/sh\n{body}\n")
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return SolverConfig.resolve(str(path))


def test_check_raises_on_nonzero_exit(tmp_path):
    cfg = _script_solver(tmp_path, "exit 3")
    with pytest.raises(SolverExitError):
        check("(check-sat)\n", cfg)


def test_check_raises_on_missing_command():
    with pytest.raises(SolverExitError):
        check("(check-sat)\n", SolverConfig.resolve("/no/such/solver/binary"))


def test_check_raises_on_verdictless_output(tmp_path):
    cfg = _script_solver(tmp_path, "cat > /dev/null; echo hello world")
    with pytest.raises(SolverOutputError):
        check("(check-sat)\n", cfg)


def test_check_raises_on_unknown_verdict(tmp_path):
    cfg = _script_solver(tmp_path, "cat > /dev/null; echo unknown")
    with pytest.raises(SolverOutputError):
        check("(check-sat)\n", cfg)


def test_check_takes_a_final_verdict_that_only_the_end_of_output_completes(tmp_path):
    cfg = _script_solver(tmp_path, "cat > /dev/null; printf unsat")
    assert check("(check-sat)\n", cfg).sat is False


def test_check_raises_on_timeout(tmp_path):
    cfg = dataclasses.replace(_script_solver(tmp_path, "exec sleep 30"), timeout=0.3)
    with pytest.raises(SolverTimeoutError):
        check("(check-sat)\n", cfg)


def test_check_sends_a_large_script_then_ends_the_input(tmp_path):
    # the fake answers only at end of input, so check must write all 2 MB
    # and then close the solver's input
    cfg = _script_solver(tmp_path, "cat > /dev/null; echo unsat")
    lines = [f"(assert (= x{i % 7} x{i % 7}))" + " " * 20 for i in range(60_000)]
    script = "\n".join([*lines, ""])
    assert len(script) >= 2_000_000
    result = check(script + "(check-sat)\n", dataclasses.replace(cfg, timeout=60.0))
    assert (result.sat, result.values) == (False, None)


def test_check_timeout_kills_and_reaps_the_solver(tmp_path):
    pid_file = tmp_path / "pid"
    cfg = _script_solver(tmp_path, f"echo $$ > {pid_file}\ncat > /dev/null\nexec sleep 30")
    start = time.monotonic()
    with pytest.raises(SolverTimeoutError):
        check("(check-sat)\n", dataclasses.replace(cfg, timeout=0.5))
    assert time.monotonic() - start < 0.5 + 5.0
    assert _gone(int(pid_file.read_text()))


def test_check_fails_on_an_error_before_the_verdict(tmp_path):
    # a solver that rejected one assertion decided a weaker script
    cfg = _script_solver(
        tmp_path, """cat > /dev/null; echo '(error "line 4: unknown constant y")'; echo sat"""
    )
    with pytest.raises(SolverOutputError, match="unknown constant y"):
        check("(check-sat)\n", cfg)


# --------------------------------------------------------------------------
# Solver sessions
# --------------------------------------------------------------------------

# A line-driven fake solver: answers each check-sat with VERDICT and each
# get-value with every named variable at #b1.  Every line it reads is also
# appended to the file LOG.
_ECHO_MODEL = " -e ".join([
    "sed", "'s/^(get-value (//'", "'s/))$//'", "'s/[^ ][^ ]*/(& #b1)/g'", "'s/.*/(&)/'",
])
_LINE_SOLVER = """while read -r line; do
  echo "$line" >> LOG
  case "$line" in
    "(check-sat)") echo VERDICT ;;
    "(get-value ("*) echo "$line" | """ + _ECHO_MODEL + """ ;;
  esac
done"""


def _line_solver(tmp_path, verdict="sat", timeout=30.0) -> SolverConfig:
    body = _LINE_SOLVER.replace("LOG", str(tmp_path / "input.log"))
    cfg = _script_solver(tmp_path, body.replace("VERDICT", verdict))
    return dataclasses.replace(cfg, timeout=timeout)


def _gone(pid: int) -> bool:
    """True once the process has exited and been waited for."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _reaped(pid: int) -> bool:
    """True once the process has exited and been waited for, after waiting
    for every solver that a clean close left to exit."""
    backend._reap()
    return _gone(pid)


def test_value_regex_reads_a_multiline_batched_reply():
    out = "sat\n((pos_q0_t0 #b010)\n (swp_e1_t3 true)\n (time_g0 #x0a))\n"
    found = dict(_VALUE_RE.findall(out))
    assert found == {"pos_q0_t0": "#b010", "swp_e1_t3": "true", "time_g0": "#x0a"}


def test_session_sends_each_base_once_and_scopes_each_check(tmp_path):
    cfg = _line_solver(tmp_path)
    with Session(cfg) as session:
        session.load(["(declare-const x (_ BitVec 1))", "(assert (= x x))"])
        first = session.check(["(assert (= x #b1))"], ["x"])
        second = session.check(["(assert true)"], ["x"])
        session.load(["(declare-const y (_ BitVec 2))"])
        third = session.check([], ["x", "y"])
    assert [r.values for r in (first, second, third)] == [{"x": 1}, {"x": 1}, {"x": 1, "y": 1}]
    assert all(r.sat and r.wall_time > 0 for r in (first, second, third))
    assert (tmp_path / "input.log").read_text().splitlines() == [
        "(set-option :produce-models true)", "(set-logic QF_BV)",
        "(push 1)", "(declare-const x (_ BitVec 1))", "(assert (= x x))",
        "(push 1)", "(assert (= x #b1))", "(check-sat)", "(get-value (x))", "(pop 1)",
        "(push 1)", "(assert true)", "(check-sat)", "(get-value (x))", "(pop 1)",
        "(pop 1)", "(push 1)", "(declare-const y (_ BitVec 2))",
        "(push 1)", "(check-sat)", "(get-value (x y))",
    ]


def test_session_unsat_asks_for_no_values(tmp_path):
    with Session(_line_solver(tmp_path, "unsat")) as session:
        result = session.check(["(assert false)"], ["x"])
    assert (result.sat, result.values) == (False, None)
    assert "(get-value (x))" not in (tmp_path / "input.log").read_text()


def _wait_for(path, seconds=10.0) -> None:
    """Block until ``path`` exists; fail after ``seconds``."""
    deadline = time.monotonic() + seconds
    while not path.exists():
        assert time.monotonic() < deadline, f"{path.name} never appeared"
        time.sleep(0.01)


def test_session_without_load_or_check_launches_nothing(tmp_path):
    cfg = _script_solver(tmp_path, f"touch {tmp_path / 'launched'}; cat > /dev/null")
    with Session(cfg):
        pass
    assert not (tmp_path / "launched").exists()


def test_load_launches_the_solver_before_taking_a_line(tmp_path):
    # the first line waits for the solver's mark, which a solver launched
    # only after the lines were taken could never leave
    launched, pid_file = tmp_path / "launched", tmp_path / "pid"
    cfg = _script_solver(tmp_path, f"echo $$ > {pid_file}; touch {launched}; cat > /dev/null")

    def lines():
        _wait_for(launched)
        yield "(declare-const x Bool)"

    with Session(cfg) as session:
        session.load(lines())
    assert _reaped(int(pid_file.read_text()))


def test_a_load_that_raises_leaves_no_solver_running(tmp_path):
    pid_file = tmp_path / "pid"
    cfg = _script_solver(tmp_path, f"echo $$ > {pid_file}; cat > /dev/null")

    def lines():
        _wait_for(pid_file)
        yield from ["(declare-const x Bool)"] * 2000
        raise RuntimeError("encoder bug")

    with pytest.raises(RuntimeError, match="encoder bug"):
        with Session(cfg) as session:
            session.load(lines())
    assert _gone(int(pid_file.read_text()))


def test_check_wall_time_and_bytes_cover_the_load_before_it(tmp_path):
    cfg = _line_solver(tmp_path)

    def lines():
        time.sleep(0.2)           # encoding time, spent inside the load
        yield "(declare-const x Bool)"

    with Session(cfg) as session:
        session.load(lines())
        first = session.check(["(assert x)"], ["x"])
        second = session.check([], ["x"])
    assert first.wall_time >= 0.2 and second.wall_time < first.wall_time
    wire = (tmp_path / "input.log").read_text()
    assert first.bytes_sent == len(
        "(set-option :produce-models true)\n(set-logic QF_BV)\n(push 1)\n"
        "(declare-const x Bool)\n(push 1)\n(assert x)\n(check-sat)\n(get-value (x))\n")
    # the first check's closing pop goes out with the second check
    assert second.bytes_sent == len("(pop 1)\n(push 1)\n(check-sat)\n(get-value (x))\n")
    assert first.bytes_sent + second.bytes_sent == len(wire)


def test_extend_adds_to_the_outer_scope_without_a_pop(tmp_path):
    cfg = _line_solver(tmp_path)
    with Session(cfg) as session:
        session.load(["(declare-const x Bool)"])
        first = session.check(["(assert x)"], ["x"])
        session.extend(iter(["(declare-const y Bool)", "(assert (or x y))"]))
        second = session.check(["(assert y)"], ["x", "y"])
        third = session.check([], ["y"])
    assert [r.values for r in (first, second, third)] == [
        {"x": 1}, {"x": 1, "y": 1}, {"y": 1}]
    # the extension lines follow the closing pop of the check before them,
    # and the next check keeps its own push/pop scope
    assert (tmp_path / "input.log").read_text().splitlines() == [
        "(set-option :produce-models true)", "(set-logic QF_BV)",
        "(push 1)", "(declare-const x Bool)",
        "(push 1)", "(assert x)", "(check-sat)", "(get-value (x))", "(pop 1)",
        "(declare-const y Bool)", "(assert (or x y))",
        "(push 1)", "(assert y)", "(check-sat)", "(get-value (x y))", "(pop 1)",
        "(push 1)", "(check-sat)", "(get-value (y))",
    ]


def test_check_wall_time_and_bytes_cover_the_extension_before_it(tmp_path):
    cfg = _line_solver(tmp_path)

    def lines():
        time.sleep(0.2)           # encoding time, spent inside the extension
        yield "(declare-const y Bool)"

    with Session(cfg) as session:
        session.load(["(declare-const x Bool)"])
        first = session.check([], ["x"])
        session.extend(lines())
        second = session.check([], ["y"])
    assert second.wall_time >= 0.2 > first.wall_time
    assert second.bytes_sent == len(
        "(pop 1)\n(declare-const y Bool)\n(push 1)\n(check-sat)\n(get-value (y))\n")
    assert first.bytes_sent + second.bytes_sent == len((tmp_path / "input.log").read_text())


def test_an_extension_that_raises_leaves_no_solver_running(tmp_path):
    pid_file = tmp_path / "pid"
    cfg = _script_solver(tmp_path, f"echo $$ > {pid_file}; cat > /dev/null")

    def lines():
        _wait_for(pid_file)
        yield from ["(declare-const y Bool)"] * 2000
        raise RuntimeError("encoder bug")

    with pytest.raises(RuntimeError, match="encoder bug"):
        with Session(cfg) as session:
            session.load(["(declare-const x Bool)"])
            session.extend(lines())
    assert _gone(int(pid_file.read_text()))


# A base of about 2 MB, more than the solver's input and output pipes hold.
_LARGE_BASE = [f"(assert (= x{i % 7} x{i % 7}))" + " " * 20 for i in range(50_000)]


def test_streamed_load_to_a_solver_that_rejects_every_line_raises(tmp_path):
    # the fake stops reading while its output pipe is full, so a load that
    # blocked on writing the base would never return
    pid_file = tmp_path / "pid"
    cfg = _script_solver(tmp_path, f"echo $$ > {pid_file}\n"
                                   "exec sed -u 's/.*/(error \"unsupported\")/'")
    start = time.monotonic()
    with pytest.raises(SolverOutputError, match="unsupported"):
        with Session(dataclasses.replace(cfg, timeout=30.0)) as session:
            session.load(_LARGE_BASE)
            session.check(["(assert false)"], [])
    assert time.monotonic() - start < 30.0
    assert _gone(int(pid_file.read_text()))


def test_solver_exit_mid_load_is_an_exit_error(tmp_path):
    pid_file = tmp_path / "pid"
    cfg = _script_solver(tmp_path, f"""echo $$ > {pid_file}
head -n 100 > /dev/null; echo 'read enough' >&2; exit 4""")
    with pytest.raises(SolverExitError, match="exited 4.*read enough"):
        with Session(dataclasses.replace(cfg, timeout=30.0)) as session:
            session.load(_LARGE_BASE)
            session.check(["(assert false)"], [])
    assert _gone(int(pid_file.read_text()))


def test_session_fails_on_an_error_before_the_verdict(tmp_path):
    cfg = _script_solver(tmp_path, """while read -r line; do
  case "$line" in
    "(assert y)") echo '(error "line 1: unknown constant y")' ;;
    "(check-sat)") echo sat ;;
  esac
done""")
    with pytest.raises(SolverOutputError, match="unknown constant y"):
        with Session(cfg) as session:
            session.check(["(assert y)"], [])


def test_session_unknown_is_an_output_error(tmp_path):
    with pytest.raises(SolverOutputError, match="unknown"):
        with Session(_line_solver(tmp_path, "unknown")) as session:
            session.check([], [])


def test_session_output_end_without_a_verdict_is_an_exit_error(tmp_path):
    cfg = _script_solver(tmp_path, "read -r line; echo 'solver crashed' >&2; exit 5")
    with pytest.raises(SolverExitError, match="exited 5.*solver crashed"):
        with Session(cfg) as session:
            session.check([], [])


def test_session_output_end_after_a_clean_exit_is_an_output_error(tmp_path):
    cfg = _script_solver(tmp_path, "read -r line; echo 'no model here' >&2; exit 0")
    with pytest.raises(SolverOutputError, match="exited 0.*no model here"):
        with Session(cfg) as session:
            session.check([], [])


def test_session_missing_command_is_an_exit_error():
    with pytest.raises(SolverExitError, match="cannot launch"):
        with Session(SolverConfig.resolve("/no/such/solver/binary")) as session:
            session.check([], [])


def test_session_timeout_kills_a_silent_solver(tmp_path):
    pid_file = tmp_path / "pid"
    cfg = _script_solver(tmp_path, f"echo $$ > {pid_file}\nwhile read -r line; do :; done")
    cfg = dataclasses.replace(cfg, timeout=0.5)
    start = time.monotonic()
    with Session(cfg) as session:
        session.load(["(declare-const x Bool)"])
        with pytest.raises(SolverTimeoutError):
            session.check(["(assert x)"], ["x"])
        # the overrun spent the session's budget and killed the process, so
        # no later check can read a late answer to the earlier one
        with pytest.raises(SolverTimeoutError):
            session.check(["(assert x)"], ["x"])
    assert time.monotonic() - start < 0.5 + 5.0
    assert _gone(int(pid_file.read_text()))


def test_session_timeout_bounds_all_checks_together(tmp_path):
    # each check takes 0.4 s: well inside the budget alone, not twice
    pid_file = tmp_path / "pid"
    cfg = _script_solver(tmp_path, f"""echo $$ > {pid_file}
while read -r line; do
  [ "$line" = "(check-sat)" ] && sleep 0.4 && echo unsat
done""")
    start = time.monotonic()
    with Session(dataclasses.replace(cfg, timeout=0.6)) as session:
        assert not session.check(["(assert false)"], []).sat
        with pytest.raises(SolverTimeoutError):
            session.check(["(assert false)"], [])
    assert time.monotonic() - start < 0.6 + 5.0
    assert _gone(int(pid_file.read_text()))


def test_session_serves_solves_in_one_process_until_one_fails(tmp_path):
    pids = tmp_path / "pids"
    body = _LINE_SOLVER.replace("LOG", str(tmp_path / "input.log"))
    cfg = _script_solver(tmp_path, f"echo $$ >> {pids}\n" + body.replace("VERDICT", "sat"))

    def solve(name):
        with session.solve():
            session.load([f"(declare-const {name} Bool)"])
            return session.check([], [name]).values

    with Session(dataclasses.replace(cfg, timeout=30.0)) as session:
        assert solve("x") == {"x": 1} and solve("y") == {"y": 1}
        with pytest.raises(RuntimeError, match="decode failed"):
            with session.solve():
                session.load(["(declare-const z Bool)"])
                session.check([], ["z"])
                raise RuntimeError("decode failed")
        assert solve("w") == {"w": 1}
    launched = [int(pid) for pid in pids.read_text().split()]
    assert len(launched) == 2 and all(map(_reaped, launched))
    # after a clean solve the next load pops the old base; after a failed
    # one a fresh process gets the preamble again
    scopes = [line for line in (tmp_path / "input.log").read_text().splitlines()
              if line.startswith(("(set-logic", "(declare-const"))
              or line == "(pop 1)"]
    assert scopes == [
        "(set-logic QF_BV)", "(declare-const x Bool)", "(pop 1)",
        "(pop 1)", "(declare-const y Bool)", "(pop 1)",
        "(pop 1)", "(declare-const z Bool)",
        "(set-logic QF_BV)", "(declare-const w Bool)",
    ]


def _waiting() -> int:
    """How many solvers that clean closes left to exit are not yet waited for."""
    with backend._exiting_lock:
        return len(backend._exiting)


def _open_fds() -> int | None:
    """This process's open file descriptors, or None where /proc is absent."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def test_each_launch_waits_for_the_solvers_that_have_exited(tmp_path):
    pids = tmp_path / "pids"
    cfg = _script_solver(tmp_path, f"echo $$ >> {pids}; exec cat > /dev/null")
    backend._reap()
    fds = _open_fds()
    for _ in range(50):
        with Session(cfg) as session:
            session.load(["(declare-const x Bool)"])
            assert _waiting() <= 5
    assert _open_fds() == fds
    backend._reap()
    assert _waiting() == 0
    launched = [int(pid) for pid in pids.read_text().split()]
    assert len(launched) == 50 and all(map(_gone, launched))


_DEAF_SOLVER = "cat > /dev/null; exec sleep 30"   # ignores the end of its input


def test_a_solver_that_ignores_the_end_of_input_is_killed_at_its_deadline(tmp_path):
    pid_file = tmp_path / "pid"
    cfg = _script_solver(tmp_path, f"echo $$ > {pid_file}; {_DEAF_SOLVER}")
    start = time.monotonic()
    with Session(dataclasses.replace(cfg, timeout=0.5)) as session:
        session.load(["(declare-const x Bool)"])
    backend._reap()
    assert time.monotonic() - start < 0.5 + 5.0
    assert _gone(int(pid_file.read_text()))


def test_no_solver_outlives_the_interpreter(tmp_path):
    pid_file = tmp_path / "pid"
    cfg = _script_solver(tmp_path, f"echo $$ > {pid_file}; {_DEAF_SOLVER}")
    code = ("from qlayout.backend import Session, SolverConfig\n"
            f"with Session(SolverConfig({cfg.command!r}, 0.5)) as session:\n"
            "    session.load(['(declare-const x Bool)'])\n")
    src = os.path.dirname(os.path.dirname(backend.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    start = time.monotonic()
    child = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                            "-c", code], env={**os.environ, "PYTHONPATH": path},
                           capture_output=True, text=True, timeout=30)
    assert time.monotonic() - start < 0.5 + 5.0
    assert (child.returncode, child.stderr) == (0, "")
    assert _gone(int(pid_file.read_text()))


def test_sessions_closed_from_threads_are_all_waited_for(tmp_path):
    pids = tmp_path / "pids"
    cfg = _script_solver(tmp_path, f"echo $$ >> {pids}; exec cat > /dev/null")

    def sessions():
        for _ in range(20):
            with Session(cfg) as session:
                session.load(["(declare-const x Bool)"])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(2) as pool:
            for future in [pool.submit(sessions) for _ in range(2)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    backend._reap()
    assert _waiting() == 0
    launched = [int(pid) for pid in pids.read_text().split()]
    assert len(launched) == 40 and all(map(_gone, launched))


def test_session_budget_restarts_at_each_solve(tmp_path):
    # each check takes 0.4 s: two fit one budget only if it restarts
    cfg = _script_solver(tmp_path, """while read -r line; do
  [ "$line" = "(check-sat)" ] && sleep 0.4 && echo unsat
done""")
    with Session(dataclasses.replace(cfg, timeout=0.6)) as session:
        for _ in range(2):
            with session.solve():
                assert not session.check(["(assert false)"], []).sat


def test_solver_timeout_must_be_above_zero():
    for timeout in (0, -1.0, math.nan):
        with pytest.raises(ValueError, match="timeout must be above 0"):
            SolverConfig(timeout=timeout)


def test_an_empty_solver_command_is_rejected(monkeypatch):
    with pytest.raises(ValueError, match="solver command is empty"):
        SolverConfig(command=())
    with pytest.raises(ValueError, match="solver command is empty"):
        SolverConfig.resolve(" ")
    monkeypatch.setenv(SOLVER_ENV_VAR, " ")
    with pytest.raises(ValueError, match="solver command is empty"):
        SolverConfig.resolve()


def test_session_accepts_an_unbounded_budget(tmp_path):
    cfg = dataclasses.replace(_line_solver(tmp_path, "unsat"), timeout=math.inf)
    with Session(cfg) as session:
        assert not session.check(["(assert false)"], []).sat


def test_session_reads_while_it_writes_a_large_base(tmp_path):
    # the fake echoes every line back, so it blocks on a full output pipe
    # unless the session reads while it writes the 2 MB base
    cfg = _script_solver(tmp_path, "sed -u 's/^(check-sat)$/unsat/'")
    base = [f"(assert (= x{i % 7} x{i % 7}))" + " " * 20 for i in range(50_000)]
    with Session(dataclasses.replace(cfg, timeout=60.0)) as session:
        session.load(base)
        assert not session.check(["(assert false)"], []).sat
        assert not session.check(["(assert false)"], []).sat


def test_session_scopes_checks_on_the_solver(small_solver):
    with Session(small_solver) as session:
        session.load(["(declare-const x (_ BitVec 2))", "(assert (bvult x #b11))"])
        fixed = session.check(["(assert (= x #b10))"], ["x"])
        # the first check's assertion was popped; the base's still holds
        moved = session.check(["(assert (= x #b01))"], ["x"])
        capped = session.check(["(assert (= x #b11))"], ["x"])
        session.load(["(declare-const x Bool)"])   # same name, new sort
        redeclared = session.check(["(assert x)"], ["x"])
    assert (fixed.sat, fixed.values) == (True, {"x": 2})
    assert (moved.sat, moved.values) == (True, {"x": 1})
    assert (capped.sat, capped.values) == (False, None)
    assert (redeclared.sat, redeclared.values) == (True, {"x": True})


# --------------------------------------------------------------------------
# Map replay and decoding
# --------------------------------------------------------------------------


def _replay_map(initial_map, swaps, upto):
    """The map in effect at step ``upto``, read off ``_maps_at``."""
    return list(_maps_at(initial_map, swaps, [upto])[upto])


def test_replay_map_applies_completed_swaps_only():
    start = (0, 1, 2)
    swaps = (((0, 1), 2),)
    assert _replay_map(start, swaps, upto=2) == [0, 1, 2]
    assert _replay_map(start, swaps, upto=3) == [1, 0, 2]


def test_replay_map_chains_swaps_in_time_order():
    start = (0, 1)
    swaps = (((1, 2), 5), ((0, 1), 2))
    # after (0,1): q0->1, q1->0; after (1,2): q0->2
    assert _replay_map(start, swaps, upto=9) == [2, 0]


def test_replay_map_moves_occupant_into_empty_spot():
    start = (0,)
    assert _replay_map(start, (((0, 1), 2),), upto=5) == [1]


def test_swaps_completing_at_one_step_apply_in_listed_order():
    # two swaps complete at t=4 and move their qubits from t=5 on: (1,2) then
    # (0,1) gives (2, 1, 0); listed the other way round they give (0, 2, 1)
    swaps = (((1, 2), 4), ((0, 1), 2), ((0, 1), 4))
    assert _maps_at((0, 1, 2), swaps, [-1, 2, 3, 4, 5, 9]) == {
        -1: (0, 1, 2), 2: (0, 1, 2), 3: (1, 0, 2), 4: (1, 0, 2),
        5: (2, 1, 0), 9: (2, 1, 0),
    }
    flipped = (((0, 1), 4), ((0, 1), 2), ((1, 2), 4))
    assert _maps_at((0, 1, 2), flipped, [5]) == {5: (0, 2, 1)}
    assert _maps_at((0, 1), (), [0, 7]) == {0: (0, 1), 7: (0, 1)}


def _random_schedule(rng):
    nphys = rng.randint(1, 6)
    initial_map = tuple(rng.sample(range(nphys), rng.randint(0, nphys)))
    pairs = [(a, b) for a in range(nphys) for b in range(a + 1, nphys)]
    swaps = tuple((rng.choice(pairs), rng.randint(-2, 8))
                  for _ in range(rng.randint(0, 6) if pairs else 0))
    times = [rng.randint(-3, 11) for _ in range(rng.randint(0, 6))]
    return initial_map, swaps, times


def test_maps_at_matches_the_step_by_step_walk():
    # simultaneous swaps, swaps into empty spots, idle qubits, and steps
    # before the first swap or past the last one all occur
    rng = random.Random(29)
    for _ in range(2000):
        initial_map, swaps, times = _random_schedule(rng)
        assert _maps_at(initial_map, swaps, times) == maps_step_by_step(
            initial_map, swaps, times), (initial_map, swaps, times)


def _model_for(ctx, *, pos0, times, true_swaps=()):
    values = {}
    for q in range(ctx.circuit.num_qubits):
        for t in range(ctx.horizon):
            values[ctx.pos_names[q][t]] = pos0[q]
    for e in range(len(ctx.graph.edges)):
        for t in range(ctx.first_swap, ctx.horizon):   # the swaps a model has
            values[ctx.swap_names[e][t]] = (e, t) in true_swaps
    for g, t in enumerate(times):
        values[ctx.time_names[g]] = t
    return values


def test_decode_expands_swaps_and_remaps_later_gates():
    circuit = make_circuit(2, [("cx", (0, 1)), ("h", (0,))])
    graph = line_graph(3)
    ctx = build_context(circuit, graph, horizon=5, time_bits=3)
    edge01 = graph.edges.index((0, 1))
    values = _model_for(ctx, pos0=(0, 1), times=(0, 3), true_swaps={(edge01, 2)})

    sol = decode_solution(values, ctx)
    assert sol.initial_map == (0, 1)
    assert sol.gate_times == (0, 3)
    assert sol.swaps == (((0, 1), 2),)
    assert sol.final_depth == 4
    assert sol.swap_count == 1
    assert sol.mapped_circuit is None            # the decoder draws no circuit
    mapped = render_circuit(circuit, graph, sol)
    assert mapped.num_qubits == 3
    names = [(g.name, g.qubits) for g in mapped.gates]
    assert names == [
        ("cx", (0, 1)),
        ("cx", (0, 1)),
        ("cx", (1, 0)),
        ("cx", (0, 1)),
        ("h", (1,)),                 # q0 sits on phys 1 after the swap
    ]


def test_decode_keep_swap_opcode():
    circuit = make_circuit(2, [("cx", (0, 1))])
    graph = line_graph(3)
    ctx = build_context(circuit, graph, horizon=5, time_bits=3)
    edge12 = graph.edges.index((1, 2))
    values = _model_for(ctx, pos0=(0, 1), times=(0,), true_swaps={(edge12, 4)})
    mapped = render_circuit(circuit, graph, decode_solution(values, ctx), keep_swap_opcode=True)
    assert [(g.name, g.qubits) for g in mapped.gates] == [
        ("cx", (0, 1)),
        ("swap", (1, 2)),
    ]


def test_decode_orders_gate_before_swap_at_same_step():
    circuit = make_circuit(2, [("h", (0,))])
    graph = line_graph(2)
    ctx = build_context(circuit, graph, horizon=4, time_bits=2)
    values = _model_for(ctx, pos0=(0, 1), times=(3,), true_swaps={(0, 3)})
    mapped = render_circuit(circuit, graph, decode_solution(values, ctx))
    assert [g.name for g in mapped.gates] == ["h", "cx", "cx", "cx"]
    assert mapped.gates[0].qubits == (0,)   # pre-swap placement


def test_decode_missing_variable_is_an_error():
    circuit = make_circuit(2, [("cx", (0, 1))])
    ctx = build_context(circuit, line_graph(2), horizon=3, time_bits=2)
    values = _model_for(ctx, pos0=(0, 1), times=(0,))
    del values[ctx.time_names[0]]
    with pytest.raises(DecodeError):
        decode_solution(values, ctx)


@pytest.mark.parametrize("pos0", [(1, 1), (0, 3)])
def test_decode_rejects_a_placement_that_repeats_or_leaves_the_device(pos0):
    # line:3 has physical qubits 0 to 2; a 2-bit position can also name 3
    circuit = make_circuit(2, [("cx", (0, 1))])
    ctx = build_context(circuit, line_graph(3), horizon=3, time_bits=2)
    with pytest.raises(DecodeError, match=re.escape(f"placement {pos0} is not on distinct")):
        decode_solution(_model_for(ctx, pos0=pos0, times=(0,)), ctx)


def test_decode_names_a_missing_swap_value_first():
    circuit = make_circuit(2, [("cx", (0, 1))])
    ctx = build_context(circuit, line_graph(3), horizon=3, time_bits=2)
    values = _model_for(ctx, pos0=(0, 1), times=(0,))
    del values[ctx.pos_names[0][0]], values[ctx.time_names[0]], values[ctx.swap_names[1][2]]
    with pytest.raises(DecodeError, match="swp_e1_t2"):
        decode_solution(values, ctx)


def test_model_swaps_reads_true_indicators_edge_major():
    circuit = make_circuit(2, [("cx", (0, 1))])
    ctx = build_context(circuit, line_graph(3), horizon=5, time_bits=3)
    values = _model_for(ctx, pos0=(0, 1), times=(0,), true_swaps={(1, 2), (0, 4)})
    assert model_swaps(values, ctx) == (((0, 1), 4), ((1, 2), 2))
    # no swap completes before its first full window, so none is read there
    assert ctx.first_swap == 2 and ctx.swap_names[1][0] not in values
    del values[ctx.swap_names[1][2]]
    with pytest.raises(DecodeError, match="swp_e1_t2"):
        model_swaps(values, ctx)


def test_decode_empty_circuit_has_zero_depth():
    circuit = make_circuit(2, [])
    ctx = build_context(circuit, line_graph(2), horizon=1, time_bits=1)
    sol = decode_solution(_model_for(ctx, pos0=(0, 1), times=()), ctx)
    assert sol.final_depth == 0
    assert render_circuit(circuit, line_graph(2), sol).gates == ()


def test_solution_round_trips_through_dict():
    circuit = make_circuit(2, [("cx", (0, 1))])
    ctx = build_context(circuit, line_graph(3), horizon=5, time_bits=3)
    values = _model_for(ctx, pos0=(1, 2), times=(0,), true_swaps={(0, 4)})
    sol = decode_solution(values, ctx)
    assert MappingSolution.from_dict(sol.to_dict()) == sol   # neither has a circuit drawn


_SOLUTION_DOC = {"initial_map": [0, 1], "gate_times": [0, 3], "swaps": [[[1, 2], 2]],
                 "final_depth": 4, "swap_count": 1}


@pytest.mark.parametrize("name, value", [
    ("initial_map", [0, 1.5]),
    ("initial_map", [0, True]),
    ("gate_times", [0, 1.9]),
    ("gate_times", ["0", 3]),
    ("swaps", [[[1, 2.0], 2]]),
    ("swaps", [[[1, 2], "2"]]),
    ("swaps", [[[1, 2], False]]),
    ("final_depth", 2.7),
    ("final_depth", None),
    ("swap_count", False),
])
def test_solution_from_dict_accepts_only_json_integers(name, value):
    # int() would truncate 1.9 and 2.7 and read true and "0" as integers
    assert MappingSolution.from_dict(_SOLUTION_DOC).to_dict() == _SOLUTION_DOC
    with pytest.raises(ValueError, match=rf"bad solution field '{name}': .*{name} must be"):
        MappingSolution.from_dict({**_SOLUTION_DOC, name: value})


def test_render_draws_in_step_order_and_program_order_within_a_step():
    circuit = make_circuit(3, [("h", (0,)), ("rz", (2,), ("0.5",)), ("x", (1,)), ("cx", (0, 1))])
    graph = line_graph(3)
    sol = MappingSolution(initial_map=(2, 1, 0), gate_times=(1, 0, 1, 5),
                          swaps=(((1, 2), 4), ((0, 1), 2)), final_depth=6, swap_count=2)
    mapped = render_circuit(circuit, graph, sol, keep_swap_opcode=True)
    # q0 starts on 2; (0,1)@2 moves q2 to 1, then (1,2)@4 moves it to 2 and q0 to 1
    assert [(g.id, g.name, g.qubits, g.params) for g in mapped.gates] == [
        (0, "rz", (0,), ("0.5",)),
        (1, "h", (2,), ()),
        (2, "x", (1,), ()),
        (3, "swap", (0, 1), ()),
        (4, "swap", (1, 2), ()),
        (5, "cx", (1, 0), ()),
    ]


# --------------------------------------------------------------------------
# Validator
# --------------------------------------------------------------------------


def _ok_solution():
    """cx(0,1) at t=0 under the identity placement on line(2)."""
    circuit = make_circuit(2, [("cx", (0, 1))])
    graph = line_graph(2)
    mapped = make_circuit(2, [("cx", (0, 1))])
    sol = MappingSolution(
        initial_map=(0, 1),
        gate_times=(0,),
        swaps=(),
        final_depth=1,
        swap_count=0,
        mapped_circuit=mapped,
    )
    return circuit, graph, sol


def test_validator_accepts_a_correct_solution():
    circuit, graph, sol = _ok_solution()
    report = validate_solution(circuit, graph, sol)
    assert report.ok
    assert report.violations == ()
    assert report.first is None


@pytest.mark.parametrize("duration", [0, -1])
def test_validator_rejects_a_swap_duration_the_encoder_rejects(duration):
    circuit, graph, sol = _ok_solution()
    with pytest.raises(ValueError, match="swap duration must be at least 1 step"):
        validate_solution(circuit, graph, sol, duration)


def test_validator_flags_duplicate_placement():
    circuit, graph, sol = _ok_solution()
    bad = dataclasses.replace(sol, initial_map=(1, 1))
    report = validate_solution(circuit, graph, bad)
    assert not report.ok
    assert report.first.kind == "injectivity"


def test_validator_flags_out_of_range_placement():
    circuit, graph, sol = _ok_solution()
    bad = dataclasses.replace(sol, initial_map=(0, 7))
    report = validate_solution(circuit, graph, bad)
    assert report.first.kind == "injectivity"


def test_validator_flags_short_placement():
    circuit, graph, sol = _ok_solution()
    bad = dataclasses.replace(sol, initial_map=(0,))
    assert validate_solution(circuit, graph, bad).first.kind == "injectivity"


def test_validator_flags_dependency_inversion():
    circuit = make_circuit(2, [("h", (0,)), ("cx", (0, 1))])
    graph = line_graph(2)
    sol = MappingSolution(
        initial_map=(0, 1),
        gate_times=(1, 1),               # cx must strictly follow h
        swaps=(),
        final_depth=2,
        swap_count=0,
        mapped_circuit=make_circuit(2, [("h", (0,)), ("cx", (0, 1))]),
    )
    report = validate_solution(circuit, graph, sol)
    assert report.first.kind == "order"


def test_validator_flags_negative_time():
    circuit, graph, sol = _ok_solution()
    bad = dataclasses.replace(sol, gate_times=(-1,), final_depth=0)
    assert validate_solution(circuit, graph, bad).first.kind == "order"


def test_validator_flags_missing_gate_times():
    circuit, graph, sol = _ok_solution()
    bad = dataclasses.replace(sol, gate_times=())
    report = validate_solution(circuit, graph, bad)
    assert report.first.kind == "totals"
    assert len(report.violations) == 1


def test_validator_flags_swap_on_missing_edge():
    circuit, graph, sol = _ok_solution()
    bad = dataclasses.replace(
        sol, swaps=(((0, 5), 4),), swap_count=1, final_depth=5
    )
    assert validate_solution(circuit, graph, bad).first.kind == "swap_overlap"


def test_validator_flags_swap_too_early_for_its_window():
    circuit, graph, sol = _ok_solution()
    bad = dataclasses.replace(
        sol, gate_times=(4,), swaps=(((0, 1), 1),), swap_count=1, final_depth=5
    )
    assert validate_solution(circuit, graph, bad).first.kind == "swap_overlap"


def test_validator_flags_overlapping_swaps_sharing_a_qubit():
    circuit = make_circuit(2, [("cx", (0, 1))])
    graph = line_graph(3)
    sol = MappingSolution(
        initial_map=(0, 1),
        gate_times=(0,),
        swaps=(((0, 1), 4), ((1, 2), 5)),
        swap_count=2,
        final_depth=6,
        mapped_circuit=make_circuit(3, [("cx", (0, 1))]),
    )
    assert validate_solution(circuit, graph, sol).first.kind == "swap_overlap"


def test_validator_allows_disjoint_parallel_swaps():
    circuit = make_circuit(2, [("cx", (0, 1))])
    graph = line_graph(4)
    sol = MappingSolution(
        initial_map=(0, 1),
        gate_times=(0,),
        swaps=(((0, 1), 4), ((2, 3), 4)),
        swap_count=2,
        final_depth=5,
        mapped_circuit=make_circuit(4, [("cx", (0, 1))]),
    )
    assert validate_solution(circuit, graph, sol).ok


def test_validator_flags_gate_inside_swap_window():
    circuit = make_circuit(2, [("cx", (0, 1)), ("h", (0,))])
    graph = line_graph(3)
    sol = MappingSolution(
        initial_map=(0, 1),
        gate_times=(0, 3),               # h lands inside the (1,2)@4 window
        swaps=(((1, 2), 4),),
        swap_count=1,
        final_depth=5,
        mapped_circuit=make_circuit(3, [("cx", (0, 1)), ("h", (0,))]),
    )
    report = validate_solution(circuit, graph, sol)
    assert report.ok  # h sits on phys 0, untouched by the swap
    busy = dataclasses.replace(sol, gate_times=(3, 0), final_depth=5)
    # now the cx at t=3 touches phys 1 during the swap window [2,4]
    report = validate_solution(circuit, graph, busy)
    assert not report.ok
    assert {v.kind for v in report.violations} <= {"order", "swap_overlap"}
    assert any(v.kind == "swap_overlap" for v in report.violations)


def test_validator_flags_non_adjacent_interaction():
    circuit = make_circuit(2, [("cx", (0, 1))])
    graph = line_graph(3)
    sol = MappingSolution(
        initial_map=(0, 2),              # ends of the line: not an edge
        gate_times=(0,),
        swaps=(),
        swap_count=0,
        final_depth=1,
        mapped_circuit=make_circuit(3, [("cx", (0, 2))]),
    )
    assert validate_solution(circuit, graph, sol).first.kind == "adjacency"


def test_validator_adjacency_uses_the_replayed_map():
    # q0 starts away from q1 but a swap carries it next door before the cx
    circuit = make_circuit(2, [("cx", (0, 1))])
    graph = line_graph(3)
    sol = MappingSolution(
        initial_map=(0, 2),
        gate_times=(3,),
        swaps=(((0, 1), 2),),            # q0: phys 0 -> phys 1 at t=2
        swap_count=1,
        final_depth=4,
        mapped_circuit=make_circuit(3, [("cx", (1, 2))]),
    )
    assert validate_solution(circuit, graph, sol).ok


def test_validator_flags_wrong_reported_depth():
    circuit, graph, sol = _ok_solution()
    bad = dataclasses.replace(sol, final_depth=9)
    assert validate_solution(circuit, graph, bad).first.kind == "totals"


def test_validator_flags_wrong_swap_count():
    circuit, graph, sol = _ok_solution()
    bad = dataclasses.replace(sol, swap_count=2)
    assert validate_solution(circuit, graph, bad).first.kind == "totals"


def test_validator_reports_highest_priority_kind_first():
    # both a non-injective map and a wrong total: injectivity outranks totals
    circuit, graph, sol = _ok_solution()
    bad = dataclasses.replace(sol, initial_map=(0, 0), final_depth=9)
    report = validate_solution(circuit, graph, bad)
    kinds = [v.kind for v in report.violations]
    assert kinds == sorted(kinds, key=VIOLATION_KINDS.index)
    assert report.first.kind == "injectivity"


def test_validation_report_to_dict():
    circuit, graph, sol = _ok_solution()
    bad = dataclasses.replace(sol, swap_count=3)
    doc = validate_solution(circuit, graph, bad).to_dict()
    assert doc["ok"] is False
    assert doc["violations"][0]["kind"] == "totals"
    assert isinstance(doc["violations"][0]["message"], str)


def test_kind_priority_tuple_is_stable():
    assert VIOLATION_KINDS == (
        "injectivity",
        "order",
        "swap_overlap",
        "adjacency",
        "totals",
    )


def test_check_result_is_frozen():
    r = CheckResult(sat=True, values={}, wall_time=0.1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.sat = False
    assert math.isclose(r.wall_time, 0.1)

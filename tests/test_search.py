"""Bound search, grid resizing, and the two-phase optimal solve."""

import dataclasses
import math
import random
import re
import shlex
import time
import warnings

import pytest

from qlayout import backend as be
from qlayout import search
from qlayout.arch import CouplingGraph, line_graph
from qlayout.circuit import make_circuit
from qlayout.encode import bit_length
from qlayout.search import (
    BoundSearchOutcome,
    CheckRecord,
    InfeasibleError,
    SearchError,
    SolveResult,
    check_feasible,
    embeds,
    grid_shape,
    run_bound_search,
    solve_optimal,
)

from .conftest import _Const, random_circuit
from .oracles import (bound_search_two_loops, brute_force_optimum, embeds_by_permutation,
                      grid_shape_after)
from .test_backend import _ECHO_MODEL, _gone, _reaped, _script_solver

# --------------------------------------------------------------------------
# Frontier stepping on synthetic monotone probes
# --------------------------------------------------------------------------


class _ThresholdProbe:
    """Satisfiable from ``first_sat`` up; records (bound, sat) per check."""

    def __init__(self, first_sat: int):
        self.first_sat = first_sat
        self.history: list[tuple[int, bool]] = []

    def __call__(self, bound: int):
        assert len(self.history) < 50, "runaway search"
        sat = bound >= self.first_sat
        self.history.append((bound, sat))
        return sat, f"model@{bound}" if sat else None


def test_ascent_steps_by_two_then_refines_down():
    probe = _ThresholdProbe(25)
    out = run_bound_search(23, 1, probe)
    assert out.optimum == 25
    assert probe.history == [(23, False), (25, True), (24, False)]
    assert out.payload == "model@25"


def test_ascent_refinement_can_win():
    probe = _ThresholdProbe(29)
    out = run_bound_search(28, 1, probe)
    assert out.optimum == 29
    assert probe.history == [(28, False), (30, True), (29, True)]
    assert out.payload == "model@29"


def test_long_ascent():
    probe = _ThresholdProbe(31)
    out = run_bound_search(23, 1, probe)
    assert out.optimum == 31
    assert [b for b, _ in probe.history] == [23, 25, 27, 29, 31, 30]
    assert out.payload == "model@31"


def test_descent_steps_by_two_then_closes_the_gap():
    probe = _ThresholdProbe(20)
    out = run_bound_search(30, 1, probe)
    assert out.optimum == 20
    assert [b for b, _ in probe.history] == [30, 28, 26, 24, 22, 20, 18, 19]
    assert probe.history[-3:] == [(20, True), (18, False), (19, False)]
    assert out.payload == "model@20"


def test_descent_gap_closed_by_middle_sat():
    probe = _ThresholdProbe(20)
    out = run_bound_search(21, 1, probe)
    assert out.optimum == 20
    assert probe.history == [(21, True), (19, False), (20, True)]
    assert out.payload == "model@20"


def test_descent_single_step_gap_at_floor_clamp():
    probe = _ThresholdProbe(25)
    out = run_bound_search(27, 24, probe)
    assert out.optimum == 25
    assert probe.history == [(27, True), (25, True), (24, False)]
    assert out.payload == "model@25"


def test_start_at_floor_sat_means_one_check():
    probe = _ThresholdProbe(1)
    out = run_bound_search(5, 5, probe)
    assert out.optimum == 5
    assert probe.history == [(5, True)]


def test_start_below_floor_is_clamped():
    probe = _ThresholdProbe(1)
    out = run_bound_search(2, 5, probe)
    assert probe.history[0] == (5, True)
    assert out.optimum == 5


def test_descent_stops_at_floor():
    probe = _ThresholdProbe(1)
    out = run_bound_search(9, 5, probe)
    assert out.optimum == 5
    assert [b for b, _ in probe.history] == [9, 7, 5]


@pytest.mark.parametrize("start,first_sat,floor", [
    (10, 14, 0), (10, 4, 0), (7, 7, 0), (0, 3, 0), (12, 9, 8), (40, 33, 30),
])
def test_payload_always_comes_from_the_optimum(start, first_sat, floor):
    probe = _ThresholdProbe(first_sat)
    out = run_bound_search(start, floor, probe)
    assert out.optimum == max(first_sat, floor)
    assert out.payload == f"model@{out.optimum}"
    assert (out.optimum, True) in probe.history
    bounds = [b for b, _ in probe.history]
    assert len(bounds) == len(set(bounds))      # no bound probed twice
    if out.optimum > floor:
        assert (out.optimum - 1, False) in probe.history


def test_ascent_refuted_at_a_known_satisfiable_bound_raises():
    probe = _ThresholdProbe(float("inf"))       # a solver that never says sat
    with pytest.raises(SearchError, match="30 is known satisfiable"):
        run_bound_search(23, 1, probe, ceiling=30)
    assert [b for b, _ in probe.history] == [23, 25, 27, 29, 31]
    # a correct solver settles at or below the ceiling, on the same sequence
    probe = _ThresholdProbe(31)
    assert run_bound_search(23, 1, probe, ceiling=31).optimum == 31
    assert [b for b, _ in probe.history] == [23, 25, 27, 29, 31, 30]


class _TableProbe:
    """Satisfiable from ``top`` up, and below it where ``answers`` says so,
    in any order; records (bound, sat) per check."""

    def __init__(self, answers: dict[int, bool], top: float):
        self.answers, self.top = answers, top
        self.history: list[tuple[int, bool]] = []

    def __call__(self, bound: int):
        assert len(self.history) < 200, "runaway search"
        sat = bound >= self.top or self.answers.get(bound, False)
        self.history.append((bound, sat))
        return sat, f"model@{bound}" if sat else None


def _walk(search, start, floor, probe, ceiling):
    try:
        out = search(start, floor, probe, ceiling)
        result = (out.optimum, out.payload)
    except SearchError as exc:
        result = str(exc)
    return result, probe.history


def test_frontier_walk_matches_the_two_loop_search_on_random_walks():
    rng = random.Random(11)
    seen = dict.fromkeys(("below_floor", "finite_ceiling", "infinite_ceiling",
                          "error", "hidden_optimum"), 0)
    for _ in range(3000):
        floor = rng.randrange(-3, 20)
        start = floor + rng.randrange(-6, 30)
        ceiling = rng.choice((math.inf, floor + rng.randrange(-4, 40)))
        # an infinite ceiling needs a satisfiable region, or the walk never ends
        top = floor + rng.randrange(-4, 40)
        if ceiling < math.inf and rng.random() < 0.2:
            top = math.inf
        answers = {}
        if rng.random() < 0.5:          # non-monotone answers below ``top``
            p_sat = rng.random()
            answers = {b: rng.random() < p_sat for b in range(floor - 6, floor + 40)}
        walks = [_walk(search, start, floor, _TableProbe(answers, top), ceiling)
                 for search in (bound_search_two_loops, run_bound_search)]
        assert walks[0] == walks[1], (start, floor, ceiling, top, answers)
        result = walks[0][0]
        least = next((b for b in range(floor, floor + 41) if b >= top or answers.get(b)), None)
        seen["below_floor"] += start < floor
        seen["finite_ceiling"] += ceiling < math.inf
        seen["infinite_ceiling"] += ceiling == math.inf
        seen["error"] += isinstance(result, str)
        seen["hidden_optimum"] += isinstance(result, tuple) and result[0] != least
    assert min(seen.values()) > 100, seen


def _shaped_walk(rng: random.Random) -> tuple[list[CheckRecord], list[tuple[int, int]]]:
    """A random two-phase solve's check records, each on the grid shape
    :func:`grid_shape` gives it, as ``solve_optimal``'s probe does, and the
    shape the transition rule ``oracles.grid_shape_after`` gives each check."""
    floor = rng.randrange(1, 70)
    start = floor + rng.randrange(-5, 40)
    top = floor + rng.randrange(0, 60)
    p_sat = rng.random() * rng.choice((0, 1))      # non-monotone below ``top``
    checks: list[CheckRecord] = []
    oracle: list[tuple[int, int]] = []

    def probe(phase: str, bound: int, sat_from: int, depth: int):
        oracle.append(grid_shape_after(checks[-1] if checks else None,
                                       depth if phase == "depth" else None))
        sat = bound >= sat_from or rng.random() < p_sat
        checks.append(CheckRecord(phase, bound, sat, *grid_shape(checks, depth), 0.0))
        return sat, bound

    best = run_bound_search(start, floor, lambda b: probe("depth", b, top, b), top)
    swap_top = rng.randrange(0, 12)
    run_bound_search(rng.randrange(0, 16), 0,
                     lambda b: probe("swap", b, swap_top, best.optimum), swap_top)
    return checks, oracle


def test_every_check_fits_its_grid_and_no_width_exceeds_the_bounds_probed():
    rng = random.Random(14)
    seen = dict.fromkeys(("narrowed", "widened", "regrown", "one_load", "extended"), 0)
    for _ in range(3000):
        checks, oracle = _shaped_walk(rng)
        # the closed form agrees with the transition rule it replaced
        assert [(c.horizon, c.time_bits) for c in checks] == oracle, checks
        deepest = 0
        for prev, check in zip([None] + checks, checks):
            if check.phase == "depth":
                deepest = max(deepest, check.bound)
                assert check.horizon == deepest, checks
                assert check.bound < 1 << check.time_bits, checks
            else:                      # the swap phase keeps the depth's grid
                assert check.horizon == prev.horizon, checks
            assert check.time_bits <= bit_length(deepest), checks
        result = SolveResult(0, 0, checks)
        pairs = list(zip(checks, checks[1:]))
        widths = sum(a.time_bits != b.time_bits for a, b in pairs)
        grown = sum(a.time_bits == b.time_bits and a.horizon < b.horizon for a, b in pairs)
        assert result.base_loads == 1 + widths
        assert result.grid_extensions == grown
        assert result.telemetry()["grid_extensions"] == grown
        kinds = {(e["kind"], e["new"] > e["old"]) for e in result.resize_events}
        assert ("horizon", False) not in kinds     # a grid never shrinks
        seen["narrowed"] += ("time_bits", False) in kinds
        seen["widened"] += ("time_bits", True) in kinds
        seen["regrown"] += ("horizon", True) in kinds
        seen["one_load"] += result.base_loads == 1
        seen["extended"] += result.grid_extensions > 0
    assert min(seen.values()) > 100, seen


def _checks(*steps: tuple[str, int, bool]) -> list[CheckRecord]:
    """The records of a solve's (phase, bound, sat) steps, each on the shape
    ``oracles.grid_shape_after`` gives it."""
    checks: list[CheckRecord] = []
    for phase, bound, sat in steps:
        shape = grid_shape_after(checks[-1] if checks else None,
                                 bound if phase == "depth" else None)
        checks.append(CheckRecord(phase, bound, sat, *shape, wall_time=0.01))
    return checks


def _ascent(*bounds: int) -> list[CheckRecord]:
    return _checks(*(("depth", b, False) for b in bounds))


def test_a_deeper_depth_bound_grows_the_grid_to_end_at_it():
    # no padding at any bound: each step of an ascent ends the grid at its bound
    for bound in (1, 49, 50, 77):
        ascent = (bound, bound + 2, bound + 4)
        assert [grid_shape(_ascent(*ascent[:i]), b) for i, b in enumerate(ascent)] == [
            (b, bit_length(b)) for b in ascent]
    assert grid_shape(_ascent(62), 64) == (64, 7)


def test_first_grid_ends_at_the_first_bound():
    # the horizon is the bound itself; the width is the bound's own
    assert [grid_shape([], b) for b in (9, 8, 7, 1, 49, 50)] == [
        (9, 4), (8, 4), (7, 3), (1, 1), (49, 6), (50, 6)]


def test_grid_shape_narrows_only_after_a_satisfiable_depth_check():
    descent = [("depth", b, True) for b in (66, 64)]
    assert grid_shape(_checks(*descent), 62) == (66, 7)
    assert grid_shape(_checks(*descent, ("depth", 62, True)), 60) == (66, 6)
    # a refuted bound below a power of two narrows nothing
    assert grid_shape(_checks(*descent, ("depth", 62, False)), 63) == (66, 7)
    # a swap record's bound is a swap count, so it never narrows the width
    swaps = _checks(*descent, ("depth", 62, False), ("depth", 63, False), ("swap", 1, True))
    assert grid_shape(swaps, 64) == (66, 7)


def test_grid_shape_regrows_the_horizon_from_the_previous_depth_bound():
    assert grid_shape(_ascent(17), 19) == (19, 5)
    assert grid_shape(_ascent(17, 19), 21) == (21, 5)
    assert grid_shape(_ascent(55), 57) == (57, 6)
    assert grid_shape(_ascent(55, 57), 59) == (59, 6)
    # a bound below the deepest one keeps the grid
    assert grid_shape(_checks(("depth", 21, True)), 19) == (21, 5)
    assert grid_shape(_checks(("depth", 19, True), ("depth", 17, False)), 18) == (19, 5)


def test_grid_shape_widens_for_a_bound_that_needs_more_bits():
    assert grid_shape(_ascent(13), 15) == (15, 4)
    assert grid_shape(_ascent(13, 15), 17) == (17, 5)


def test_swap_phase_checks_keep_the_grid_shape():
    depth_phase = [("depth", 25, False), ("depth", 27, True), ("depth", 26, False)]
    for sat in (True, False):
        assert grid_shape(_checks(*depth_phase, ("swap", 1, sat)), 27) == (27, 5)
    # the optimum may sit on the grid's last step: no regrowth for swaps
    assert grid_shape(_checks(("depth", 65, False), ("depth", 67, True),
                              ("depth", 66, False)), 67) == (67, 7)
    # but the swap phase inherits a narrowing after a satisfiable depth check
    descent = [("depth", b, True) for b in range(30, 15, -2)]
    optimum = _checks(*descent, ("depth", 14, False), ("depth", 15, True))
    assert grid_shape(optimum, 15) == (30, 4)


# --------------------------------------------------------------------------
# Scripted solver: telemetry, shapes, and resize events without a real solver
# --------------------------------------------------------------------------

_BV_DECL = re.compile(r"\(declare-const (\S+) \(_ BitVec (\d+)\)\)")
_BOOL_DECL = re.compile(r"\(declare-const (\S+) Bool\)")


class ScriptedSolver:
    """Stands in for a solver session: returns a fixed sequence of verdicts
    and fabricates models from the loaded declarations.

    Each step is "unsat", ("sat", k) where k swap indicators are set true
    in the returned model (everything else zero/false), or an exception to
    raise.  ``scripts`` holds, per check, the loaded outer scope with its
    extensions, followed by the check's own lines.
    """

    def __init__(self, steps):
        self.steps = list(steps)
        self.scripts: list[str] = []
        self.loads = self.extends = 0
        self.loaded = ""

    # be.Session(config) returns this fake, which is its own context manager
    def __call__(self, config=None) -> "ScriptedSolver":
        return self

    def __enter__(self) -> "ScriptedSolver":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def shape(self, index: int) -> tuple[int, int]:
        """(horizon, time_bits) the script at ``index`` declared."""
        script = self.scripts[index]
        steps = {
            int(m.group(1))
            for m in re.finditer(r"pos_q0_t(\d+) ", script)
        }
        bits = {
            int(m.group(2))
            for m in _BV_DECL.finditer(script)
            if m.group(1).startswith("time_")
        }
        return len(steps), bits.pop()

    def load(self, lines) -> None:
        self.loads += 1
        self.loaded = "\n".join(lines) + "\n"

    def extend(self, lines) -> None:
        assert self.loaded, "extension before a load"
        self.extends += 1
        self.loaded += "\n".join(lines) + "\n"

    def check(self, lines, names) -> be.CheckResult:
        script = self.loaded + "\n".join(lines) + "\n"
        self.scripts.append(script)
        if not self.steps:
            raise AssertionError("scripted solver ran out of steps")
        step = self.steps.pop(0)
        if isinstance(step, Exception):
            raise step
        if step == "unsat":
            return be.CheckResult(sat=False, values=None, wall_time=0.01)
        _, n_true = step
        # the query names exactly what a decoded model reads: positions at
        # step 0, the declared swaps (none before its first full window)
        # completing before the horizon, and gate times
        horizon, _ = self.shape(len(self.scripts) - 1)
        declared = [m.group(1) for m in _BV_DECL.finditer(script)]
        declared += [m.group(1) for m in _BOOL_DECL.finditer(script)]
        wanted = [name for name in declared
                  if re.fullmatch(r"pos_q\d+_t0|time_g\d+", name)
                  or (name.startswith("swp_") and int(name.rsplit("_t", 1)[1]) < horizon)]
        assert sorted(names) == sorted(wanted)
        values: dict[str, int | bool] = {}
        for name in wanted:
            spot = re.match(r"pos_q(\d+)_t", name)
            values[name] = int(spot.group(1)) if spot else 0
        swap_names = [name for name in wanted if name.startswith("swp_")]
        for i, name in enumerate(swap_names):
            values[name] = i < n_true
        return be.CheckResult(sat=True, values=values, wall_time=0.01)


@pytest.fixture()
def scripted(monkeypatch):
    def install(steps) -> ScriptedSolver:
        fake = ScriptedSolver(steps)
        monkeypatch.setattr("qlayout.search.be.Session", fake)
        return fake

    return install


def _chain(n_gates: int, width: int = 2):
    return make_circuit(width, [("cx", (0, 1))] * n_gates)


def test_solve_reports_ascent_telemetry_and_horizon_growth(scripted):
    # chain of 9: floor 9; frontier first satisfiable at depth 25
    fake = scripted(
        ["unsat"] * 8 + [("sat", 3), "unsat"]       # 9,11,...,23 U; 25 S; 24 U
        + [("sat", 3), ("sat", 1), "unsat"]         # swap phase: 3 S, 1 S, 0 U
    )
    result = solve_optimal(_chain(9), line_graph(3))
    assert result.optimal_depth == 25
    assert result.optimal_swaps == 1
    assert result.depth_checks == 10
    assert result.swap_checks == 3
    assert result.depth_history == [
        (9, False), (11, False), (13, False), (15, False), (17, False),
        (19, False), (21, False), (23, False), (25, True), (24, False),
    ]
    assert result.swap_history == [(3, True), (1, True), (0, False)]
    assert len(result.wall_time_per_check) == 13
    assert len(fake.scripts) == 13

    # the grid ends at each deeper bound: 9 with bound 9's 4 bits, grown in
    # place to 15, reloaded at 17 with 5 bits, grown in place to 25
    assert [fake.shape(i) for i in range(13)] == [
        (9, 4), (11, 4), (13, 4), (15, 4), (17, 5), (19, 5), (21, 5), (23, 5),
    ] + [(25, 5)] * 5
    assert [(e["check_index"], e["kind"], e["old"], e["new"])
            for e in result.resize_events] == [
        (1, "horizon", 9, 11), (2, "horizon", 11, 13), (3, "horizon", 13, 15),
        (4, "horizon", 15, 17), (4, "time_bits", 4, 5), (5, "horizon", 17, 19),
        (6, "horizon", 19, 21), (7, "horizon", 21, 23), (8, "horizon", 23, 25),
    ]
    assert all(e["phase"] == "depth" for e in result.resize_events)
    # one load per gate-time width; every other growth extends in place, and
    # the swap phase keeps the optimum's shape
    assert (fake.loads, fake.extends) == (result.base_loads, result.grid_extensions) == (2, 7)

    tele = result.telemetry()
    assert tele["optimal_depth"] == 25
    assert tele["depth_checks"] + tele["swap_checks"] == len(
        tele["wall_time_per_check"]
    )
    assert (tele["base_loads"], tele["grid_extensions"]) == (2, 7)
    assert tele["checks"][5] == {"phase": "depth", "bound": 19, "sat": False,
                                 "horizon": 19, "time_bits": 5, "wall_time": 0.01,
                                 "bytes_sent": 0}
    assert [(c["phase"], c["bound"]) for c in tele["checks"][-3:]] == [
        ("swap", 3), ("swap", 1), ("swap", 0),
    ]


@pytest.mark.parametrize("chain, predicted, verdicts, swaps", [
    # a chain of 5 on line:3 is satisfiable at 5 * (1 + 3 * 3) = 50, so 48
    # is no clamp, and the descent below it keeps the first grid
    (5, 48, [("sat", 2), "unsat", "unsat",             # 48 S, 46 U, 47 U
             ("sat", 2), "unsat", "unsat"], 2),          # 2 S, 0 U, 1 U
    # a chain of 6 is satisfiable at 6 * (1 + 3 * 3) = 60, so 60 is no clamp,
    # and narrowing after the satisfiable check changes nothing
    (6, 60, [("sat", 0), "unsat", "unsat", ("sat", 0)], 0),
], ids=["descent-below-the-prediction", "optimum-at-the-prediction"])
def test_first_grid_ends_at_the_predicted_bound_and_the_base_is_sent_once(
        scripted, chain, predicted, verdicts, swaps):
    fake = scripted(verdicts)
    result = solve_optimal(_chain(chain), line_graph(3), depth_model=_Const(predicted))
    assert (result.optimal_depth, result.optimal_swaps) == (predicted, swaps)
    assert [fake.shape(i) for i in range(len(verdicts))] == [(predicted, 6)] * len(verdicts)
    assert result.resize_events == []
    assert (fake.loads, fake.extends) == (result.base_loads, result.grid_extensions) == (1, 0)


def test_bounds_below_the_next_power_of_two_load_the_base_once(scripted):
    # chain of 5: floor 5 (3 bits), and every bound probed stays below 8
    fake = scripted(["unsat", ("sat", 2), "unsat",            # 5 U, 7 S, 6 U
                     ("sat", 2), "unsat", "unsat"])           # 2 S, 0 U, 1 U
    result = solve_optimal(_chain(5), line_graph(3))
    assert result.depth_history == [(5, False), (7, True), (6, False)]
    assert (result.optimal_depth, result.optimal_swaps) == (7, 2)
    assert [fake.shape(i) for i in range(6)] == [(5, 3)] + [(7, 3)] * 5
    # bound 7 grows the grid in place; no check sends a second base
    assert [(e["check_index"], e["kind"], e["old"], e["new"])
            for e in result.resize_events] == [(1, "horizon", 5, 7)]
    assert (fake.loads, fake.extends) == (result.base_loads, result.grid_extensions) == (1, 1)


def test_gate_time_width_widens_when_a_bound_crosses_a_power_of_two(scripted):
    # chain of 3 on a line: floor 3, extent 3 at bound 3's 2 bits; ascend to 17
    fake = scripted(
        ["unsat"] * 7 + [("sat", 1), "unsat"]     # 3..15 U, 17 S, 16 U
        + [("sat", 1), ("sat", 0)]                # swaps: 1 S, 0 S
    )
    result = solve_optimal(_chain(3), line_graph(3))
    assert result.optimal_depth == 17
    assert result.optimal_swaps == 0
    assert [b for b, _ in result.depth_history] == [3, 5, 7, 9, 11, 13, 15, 17, 16]
    assert [fake.shape(i) for i in range(11)] == [
        (3, 2), (5, 3), (7, 3), (9, 4), (11, 4), (13, 4), (15, 4),
    ] + [(17, 5)] * 4
    events = [(e["check_index"], e["kind"], e["old"], e["new"])
              for e in result.resize_events]
    assert events == [
        (1, "horizon", 3, 5), (1, "time_bits", 2, 3),     # widened before 5
        (2, "horizon", 5, 7),
        (3, "horizon", 7, 9), (3, "time_bits", 3, 4),     # widened before 9
        (4, "horizon", 9, 11), (5, "horizon", 11, 13), (6, "horizon", 13, 15),
        (7, "horizon", 15, 17), (7, "time_bits", 4, 5),   # widened before 17
    ]
    # each widening sends a whole base; every other growth extends it
    assert (fake.loads, fake.extends) == (result.base_loads, result.grid_extensions) == (4, 4)
    assert result.swap_history == [(1, True), (0, True)]


def test_swap_start_is_clamped_by_the_model_count(scripted):
    # depth phase: immediately satisfiable at the floor with 2 swaps in model
    # (one-step swaps, so the one-step grid has them)
    fake = scripted([("sat", 2), ("sat", 2), "unsat", "unsat"])
    result = solve_optimal(
        _chain(1), line_graph(3), swap_model=_Const(7), swap_duration=1
    )
    assert result.optimal_depth == 1
    # predicted 7, model held 2: phase starts at 2
    assert result.swap_history == [(2, True), (0, False), (1, False)]
    assert result.optimal_swaps == 2
    assert len(fake.scripts) == 4


def test_negative_swap_prediction_clamps_to_zero(scripted):
    scripted([("sat", 2), ("sat", 0)])
    result = solve_optimal(_chain(1), line_graph(3), swap_model=_Const(-3))
    assert result.swap_history == [(0, True)]
    assert result.optimal_swaps == 0


def test_depth_prediction_below_floor_starts_at_floor(scripted):
    scripted([("sat", 0), ("sat", 0), ("sat", 0), ("sat", 0)])
    result = solve_optimal(_chain(5), line_graph(3), depth_model=_Const(2))
    assert result.depth_history[0] == (5, True)   # floor is the chain length


def test_depth_prediction_above_floor_starts_there(scripted):
    scripted([("sat", 0), ("sat", 0), ("sat", 0), ("sat", 0)])
    result = solve_optimal(_chain(5), line_graph(3), depth_model=_Const(9))
    assert [b for b, _ in result.depth_history] == [9, 7, 5]
    assert result.optimal_depth == 5


def test_depth_prediction_above_the_ceiling_starts_at_the_ceiling(scripted, monkeypatch):
    # 2 gates on line:2 fit a sequential schedule of 2 * (1 + 3 * 2) = 14
    # steps, so a prediction of 10**6 starts there, on a 14-step grid
    build_context = search.build_context

    def capped(circuit, graph, horizon, *rest):
        assert horizon <= 14, f"a {horizon}-step grid"   # fail fast, not encode it
        return build_context(circuit, graph, horizon, *rest)

    monkeypatch.setattr(search, "build_context", capped)
    fake = scripted([("sat", 0)] * 8)
    result = solve_optimal(_chain(2), line_graph(2), depth_model=_Const(10**6))
    assert result.depth_history == [(b, True) for b in range(14, 1, -2)]
    assert (result.checks[0].horizon, fake.shape(0)) == (14, (14, 4))
    assert (result.optimal_depth, result.optimal_swaps) == (2, 0)


def test_predictors_receive_the_feature_vector(scripted):
    scripted([("sat", 0), ("sat", 0)])

    class Spy:
        def __init__(self):
            self.seen = []

        def predict(self, features):
            self.seen.append(features)
            return 0

    spy_d, spy_s = Spy(), Spy()
    solve_optimal(_chain(2), line_graph(3), depth_model=spy_d, swap_model=spy_s)
    assert len(spy_d.seen) == 1 and len(spy_s.seen) == 1
    assert spy_d.seen[0].two_qubit_gate_count == 2
    assert spy_d.seen[0] == spy_s.seen[0]


def test_depth_ascent_stops_when_the_solver_refutes_every_bound(scripted):
    # 2 gates on line:2: a sequential schedule fits 2 * (1 + 3 * 2) = 14 steps
    fake = scripted(["unsat"] * 40)
    with pytest.raises(SearchError, match="14 is known satisfiable") as info:
        solve_optimal(_chain(2), line_graph(2))
    assert [c["bound"] for c in info.value.telemetry["checks"]] == [
        2, 4, 6, 8, 10, 12, 14,
    ]
    assert len(fake.scripts) == 7
    # widths 2, 3, 3, 4, 4, 4, 4 bits: three bases, four in-place growths
    assert (info.value.telemetry["base_loads"], info.value.telemetry["grid_extensions"]) == (3, 4)
    assert (fake.loads, fake.extends) == (3, 4)


def test_swap_ascent_stops_when_the_solver_refutes_every_bound(scripted):
    # the depth model holds 2 one-step swaps, so the swap bound 2 is satisfiable
    fake = scripted([("sat", 2)] + ["unsat"] * 40)
    with pytest.raises(SearchError, match="2 is known satisfiable") as info:
        solve_optimal(_chain(1), line_graph(3), swap_model=_Const(0), swap_duration=1)
    assert info.value.telemetry["depth_checks"] == 1
    assert [c["bound"] for c in info.value.telemetry["checks"][1:]] == [0, 2]
    assert len(fake.scripts) == 3


def test_circuit_without_interactions_skips_the_solver(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("solver must not run")

    monkeypatch.setattr("qlayout.search.be.check", boom)
    monkeypatch.setattr("qlayout.search.be.Session", boom)
    circuit = make_circuit(3, [("h", (0,)), ("x", (1,)), ("h", (0,)), ("rz", (2,), ("0.5",))])
    result = solve_optimal(circuit, line_graph(4))
    assert isinstance(result, SolveResult)
    assert (result.depth_checks, result.swap_checks) == (0, 0)
    assert result.optimal_depth == 2
    assert result.optimal_swaps == 0
    sol = result.solution
    assert sol.initial_map == (0, 1, 2)
    assert sol.gate_times == (0, 0, 1, 0)
    report = be.validate_solution(circuit, line_graph(4), sol)
    assert report.ok
    # drawn in step order, program order within a step: the same circuit
    assert sol.mapped_circuit.num_qubits == 4
    assert [(g.name, g.qubits) for g in sol.mapped_circuit.gates] == [
        ("h", (0,)), ("x", (1,)), ("rz", (2,)), ("h", (0,)),
    ]


def test_a_solve_draws_only_the_circuit_it_returns(scripted, monkeypatch):
    drawn, render = [], be.render_circuit

    def counting(circuit, graph, solution, **kwargs):
        drawn.append(solution)
        return render(circuit, graph, solution, **kwargs)

    monkeypatch.setattr(be, "render_circuit", counting)
    # depth 1 satisfiable with one one-step swap; swap bound 1 satisfiable, 0 refuted
    scripted([("sat", 1), ("sat", 1), "unsat"])
    circuit, graph = _chain(1), line_graph(3)
    result = solve_optimal(circuit, graph, swap_duration=1)
    assert (result.optimal_depth, result.optimal_swaps) == (1, 1)
    assert drawn == [dataclasses.replace(result.solution, mapped_circuit=None)]
    assert result.solution.mapped_circuit == render(circuit, graph, drawn[0])


@pytest.mark.parametrize("gates, duration", [
    ([("h", (0,))], -4),                        # no two-qubit gate: no check runs
    ([("cx", (0, 1))], 0),
])
def test_a_swap_duration_below_one_step_is_rejected_before_any_check(
        monkeypatch, gates, duration):
    def boom(*args, **kwargs):
        raise AssertionError("solver must not run")

    monkeypatch.setattr("qlayout.search.be.Session", boom)
    with pytest.raises(ValueError, match=f"at least 1 step, not {duration}"):
        solve_optimal(make_circuit(2, gates), line_graph(2), swap_duration=duration)


def test_wide_circuit_is_rejected():
    with pytest.raises(ValueError, match="qubits"):
        solve_optimal(make_circuit(4, [("cx", (0, 1))]), line_graph(3))


def test_edgeless_device_is_infeasible_before_any_check(tmp_path):
    # an unsat-only solver would let the depth ascent probe forever; this one
    # gives up after 20 checks, so a regression fails instead of hanging
    launched = tmp_path / "launched"
    cfg = _script_solver(tmp_path, f"""touch {launched}; n=0
while read -r line; do
  if [ "$line" = "(check-sat)" ]; then
    n=$((n + 1)); [ $n -gt 20 ] && exit 1; echo unsat
  fi
done""")
    with pytest.warns(UserWarning, match="not connected"):
        edgeless = CouplingGraph("edgeless", 2, ())
    with pytest.raises(InfeasibleError, match="edgeless"):
        solve_optimal(make_circuit(2, [("cx", (0, 1))]), edgeless, solver=cfg)
    assert not launched.exists()


@pytest.mark.parametrize("edges,gates,feasible", [
    # components of sizes 4 and 2; interacting groups of sizes 3 and 3
    (((0, 1), (1, 2), (2, 3), (4, 5)), [(0, 1), (1, 2), (3, 4), (4, 5)], False),
    # the same device; groups of sizes 2, 2 and 2
    (((0, 1), (1, 2), (2, 3), (4, 5)), [(0, 1), (2, 3), (4, 5)], True),
    # a 5-qubit group on a device whose largest component has 4 qubits
    (((0, 1), (1, 2), (2, 3)), [(0, 1), (1, 2), (2, 3), (3, 4)], False),
])
def test_feasibility_packs_interacting_groups_into_device_components(edges, gates, feasible):
    with pytest.warns(UserWarning, match="not connected"):
        graph = CouplingGraph("split", 6, edges)
    width = max(q for pair in gates for q in pair) + 1
    circuit = make_circuit(width, [("cx", pair) for pair in gates])
    if feasible:
        check_feasible(circuit, graph)
    else:
        with pytest.raises(InfeasibleError):
            check_feasible(circuit, graph)


_TRIANGLE = make_circuit(3, [("cx", (0, 1)), ("cx", (1, 2)), ("cx", (0, 2))])


def _random_device(rng: random.Random, n: int) -> CouplingGraph:
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.45]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")            # some are not connected
        return CouplingGraph("random", n, tuple(pairs))


def test_embedding_test_agrees_with_trying_every_placement():
    rng = random.Random(29)
    seen = set()
    for _ in range(400):
        graph = _random_device(rng, rng.randint(1, 6))
        circuit = random_circuit(rng, max_qubits=graph.num_qubits, max_gates=12)
        found = embeds(circuit, graph)
        assert found == embeds_by_permutation(circuit, graph), (circuit, graph.edges)
        seen.add(found)
    assert seen == {True, False}


def test_embedding_test_gives_up_past_its_step_budget(monkeypatch):
    # a triangle on a 6-ring: every degree fits, but no placement does, and
    # proving it takes more than 3 steps
    ring = CouplingGraph("ring:6", 6, tuple((i, (i + 1) % 6) for i in range(6)))
    assert embeds(_TRIANGLE, ring) is False
    monkeypatch.setattr(search, "EMBED_STEPS", 3)
    assert embeds(_TRIANGLE, ring) is None
    assert embeds(_chain(1), ring) is True


def test_the_swap_phase_starts_at_the_devices_floor(scripted, monkeypatch):
    # a triangle of interactions on line:3 needs a swap: depth 3 satisfiable
    # with one swap, and the swap phase settles at its first check
    scripted([("sat", 1), ("sat", 1)])
    result = solve_optimal(_TRIANGLE, line_graph(3))
    assert (result.optimal_depth, result.optimal_swaps, result.swap_floor) == (3, 1, 1)
    assert result.swap_history == [(1, True)]
    assert result.telemetry()["swap_floor"] == 1
    assert result.embeds is False and result.telemetry()["embeds"] is False
    # a circuit that embeds has floor zero too, but for another reason
    scripted([("sat", 0), ("sat", 0)])
    result = solve_optimal(_chain(1), line_graph(3))
    assert (result.optimal_swaps, result.swap_floor, result.embeds) == (0, 0, True)
    assert result.telemetry()["embeds"] is True
    # past the embedding test's budget the floor is zero, and bound 0 is checked
    monkeypatch.setattr(search, "EMBED_STEPS", 0)
    scripted([("sat", 1), ("sat", 1), "unsat"])
    result = solve_optimal(_TRIANGLE, line_graph(3))
    assert (result.optimal_swaps, result.swap_floor) == (1, 0)
    assert result.swap_history == [(1, True), (0, False)]
    assert result.embeds is None and result.telemetry()["embeds"] is None


def test_a_depth_model_below_the_swap_floor_is_a_search_error(scripted):
    scripted([("sat", 0)])
    with pytest.raises(SearchError, match="needs at least 1") as info:
        solve_optimal(_TRIANGLE, line_graph(3))
    assert info.value.telemetry["swap_floor"] == 1
    assert info.value.telemetry["embeds"] is False
    assert info.value.telemetry["swap_checks"] == 0


def test_solver_failure_surfaces_as_search_error(scripted):
    scripted([be.SolverExitError("boom")])
    with pytest.raises(SearchError) as info:
        solve_optimal(_chain(2), line_graph(3))
    assert "wall_time_per_check" in info.value.telemetry
    assert "depth phase failed" in str(info.value)


def test_swap_phase_failure_surfaces_as_search_error(scripted):
    # depth: satisfiable at the floor with 2 one-step swaps; swaps: 2 S, then a crash
    scripted([("sat", 2), ("sat", 2), be.SolverExitError("boom")])
    with pytest.raises(SearchError) as info:
        solve_optimal(_chain(1), line_graph(3), swap_duration=1)
    assert "swap phase failed" in str(info.value)
    assert isinstance(info.value.__cause__, be.SolverExitError)
    assert len(info.value.telemetry["wall_time_per_check"]) == 2
    assert [c["phase"] for c in info.value.telemetry["checks"]] == ["depth", "swap"]


def test_solver_death_in_the_swap_phase_is_a_search_error(tmp_path):
    # a real session: satisfiable at the floor with no swap in the model
    # and the qubits on physical qubits 0 and 1, then the solver exits on
    # the first swap-phase check
    pid_file = tmp_path / "pid"
    cfg = _script_solver(tmp_path, f"""echo $$ > {pid_file}
checks=0
while read -r line; do
  case "$line" in
    "(check-sat)") checks=$((checks + 1)); [ $checks -ge 2 ] && exit 7; echo sat ;;
    "(get-value ("*) echo "$line" | {_ECHO_MODEL} | sed 's/pos_q0_t0 #b1/pos_q0_t0 #b0/' ;;
  esac
done""")
    with pytest.raises(SearchError, match="swap phase failed") as info:
        solve_optimal(_chain(1), line_graph(3), solver=cfg)
    assert "swap phase failed at bound 0 (horizon 1, 1 time bits): " in str(info.value)
    assert isinstance(info.value.__cause__, be.SolverExitError)
    assert "exited 7" in str(info.value)
    assert len(info.value.telemetry["wall_time_per_check"]) == 1
    assert _gone(int(pid_file.read_text()))


def test_solver_timeout_bounds_the_whole_solve(tmp_path):
    # every check is refuted 0.3 s late: the ascent would run 15 checks,
    # but one second covers about three of them
    cfg = _script_solver(tmp_path, """while read -r line; do
  [ "$line" = "(check-sat)" ] && sleep 0.3 && echo unsat
done""")
    circuit = make_circuit(3, [("cx", (0, 1)), ("cx", (1, 2)), ("cx", (0, 2))])
    start = time.monotonic()
    with pytest.raises(SearchError, match="depth phase failed at bound") as info:
        solve_optimal(circuit, line_graph(3), solver=dataclasses.replace(cfg, timeout=1.0))
    assert time.monotonic() - start < 3.0
    assert isinstance(info.value.__cause__, be.SolverTimeoutError)


def test_no_solver_process_outlives_a_solve(tmp_path, small_solver):
    pid_file = tmp_path / "pid"
    cfg = _script_solver(
        tmp_path, f"echo $$ > {pid_file}; exec {shlex.join(small_solver.command)}"
    )
    result = solve_optimal(_chain(2), line_graph(2), solver=cfg)
    assert (result.optimal_depth, result.optimal_swaps) == (2, 0)
    assert _reaped(int(pid_file.read_text()))


def test_solver_exit_mid_load_is_a_search_error(tmp_path):
    pid_file = tmp_path / "pid"
    cfg = _script_solver(tmp_path, f"echo $$ > {pid_file}; head -n 20 > /dev/null; exit 6")
    with pytest.raises(SearchError, match="depth phase failed at bound 2 ") as info:
        solve_optimal(_chain(2), line_graph(3), solver=cfg)
    assert isinstance(info.value.__cause__, be.SolverExitError)
    assert "exited 6" in str(info.value)
    assert _gone(int(pid_file.read_text()))


def test_a_solver_that_cannot_launch_is_a_search_error():
    with pytest.raises(SearchError, match="depth phase failed at bound 2 ") as info:
        solve_optimal(_chain(2), line_graph(3), solver=be.SolverConfig.resolve("/no/such/solver"))
    assert isinstance(info.value.__cause__, be.SolverExitError)
    assert "cannot launch" in str(info.value.__cause__)
    assert info.value.telemetry["checks"] == []


def test_bytes_sent_per_check_add_up_to_the_solver_input(tmp_path, small_solver):
    wire = tmp_path / "wire"
    cfg = _script_solver(tmp_path, f"tee {wire} | {shlex.join(small_solver.command)}")
    result = solve_optimal(_chain(2), line_graph(2), solver=cfg)
    assert len(result.checks) > 1 and all(c.bytes_sent > 0 for c in result.checks)
    assert result.bytes_sent == sum(c.bytes_sent for c in result.checks)
    assert result.bytes_sent == len(wire.read_bytes())
    assert result.telemetry()["bytes_sent"] == result.bytes_sent


def test_outcome_dataclass_shape():
    out = BoundSearchOutcome(3, "p")
    assert (out.optimum, out.payload) == (3, "p")
    assert [f.name for f in dataclasses.fields(SolveResult)] == [
        "optimal_depth", "optimal_swaps", "checks", "solution", "embeds",
    ]


# --------------------------------------------------------------------------
# End to end against the real solver
# --------------------------------------------------------------------------


def test_solve_matches_exhaustive_oracle(small_solver):
    circuit = make_circuit(3, [("cx", (0, 1)), ("cx", (1, 2)), ("cx", (0, 2))])
    graph = line_graph(3)
    want = brute_force_optimum(circuit, graph)
    result = solve_optimal(circuit, graph, solver=small_solver)
    assert (result.optimal_depth, result.optimal_swaps) == want

    # the reported optimum carries its own witness and certificate
    assert (result.optimal_depth, True) in result.depth_history
    ldc = 3
    if result.optimal_depth > ldc:
        assert (result.optimal_depth - 1, False) in result.depth_history
    # the swap optimum is refuted one below it, or it is the floor of one
    # that the device proves: no placement puts every interacting pair on an
    # edge, as trying every placement confirms
    if result.optimal_swaps > result.swap_floor:
        assert (result.optimal_swaps - 1, False) in result.swap_history
    elif result.optimal_swaps > 0:
        assert not embeds_by_permutation(circuit, graph)
    assert result.swap_floor == 1     # a triangle of interactions does not fit a line

    sol = result.solution
    assert sol.final_depth == result.optimal_depth
    assert sol.swap_count == result.optimal_swaps
    report = be.validate_solution(circuit, graph, sol)
    assert report.ok, report.violations
    assert result.depth_checks + result.swap_checks == len(result.wall_time_per_check)


def test_a_grid_grown_in_place_reaches_the_exhaustive_optimum(small_solver):
    # the ascent probes 3, 5 and 7: bound 7 keeps bound 5's gate-time width,
    # so the session extends that grid instead of sending a second base
    circuit = make_circuit(3, [("cx", (0, 1)), ("cx", (1, 2)), ("cx", (0, 2))])
    graph = line_graph(3)
    result = solve_optimal(circuit, graph, solver=small_solver)
    assert (result.optimal_depth, result.optimal_swaps) == brute_force_optimum(circuit, graph)
    assert result.depth_history == [(3, False), (5, False), (7, True), (6, True)]
    assert [(c.horizon, c.time_bits) for c in result.checks] == (
        [(3, 2), (5, 3), (7, 3)] + [(7, 3)] * (len(result.checks) - 3))
    assert (result.base_loads, result.grid_extensions) == (2, 1)
    assert be.validate_solution(circuit, graph, result.solution).ok

"""``tools/solver_work.py``: reference-solver counts per check, and their
comparison between two runs."""

import copy
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "solver_work.py"
INSTANCES = ["bell_n2@line:2", "grover_n2@line:3"]


def _run(*args):
    subprocess.run([sys.executable, str(TOOL), *args, *INSTANCES], check=True,
                   capture_output=True, text=True, timeout=300)


def test_a_run_compared_with_itself_shows_no_change(tmp_path):
    # that two runs write the same bytes is checked by CI's "Solver-work counts repeat" step
    first, compared = tmp_path / "a.json", tmp_path / "b.json"
    _run("--output", str(first))
    side = json.loads(first.read_text())
    assert side["instances"] == INSTANCES
    for result in side["results"].values():
        assert result["checks"] and all(
            set(check) >= {"phase", "bound", "sat", "conflicts", "propagations", "clauses"}
            for check in result["checks"])
        assert result["totals"]["conflicts"] == sum(c["conflicts"] for c in result["checks"])

    _run("--compare", str(first), "--output", str(compared))
    doc = json.loads(compared.read_text())
    assert doc["base"] == doc["change"] == {key: side[key] for key in ("results", "totals")}
    assert doc["comparison"]["optima_equal"]
    assert doc["comparison"]["unmatched_checks"] == 0
    assert doc["comparison"]["more_conflicts"] == []
    assert doc["comparison"]["work_changed"] == []
    assert doc["comparison"]["bytes_changed"] == []
    assert doc["comparison"]["dropped_checks"] == []


def _side(*checks):
    return {"results": {"x@line:2": {"optimal_depth": 2, "optimal_swaps": 0,
                                     "checks": list(checks)}},
            "totals": dict.fromkeys(("bytes_sent", "conflicts", "decisions", "propagations"), 0)}


_WORK = {"conflicts": 5, "decisions": 9, "propagations": 40, "clauses": 70, "variables": 30}


def _tool():
    spec = importlib.util.spec_from_file_location("solver_work", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_compare_names_each_check_whose_bytes_sent_changed():
    tool = _tool()
    checks = [{"phase": "depth", "bound": bound, "sat": bound == 2, "horizon": 3,
               "time_bits": 2, "bytes_sent": 1000 + bound, **_WORK}
              for bound in (1, 2)]
    base = _side(*checks)
    doctored = copy.deepcopy(checks)
    doctored[1]["bytes_sent"] += 7
    result = tool.compare(base, _side(*doctored))
    assert result["bytes_changed"] == [{"instance": "x@line:2", "phase": "depth", "bound": 2,
                                        "sat": True, "horizon": 3, "time_bits": 2,
                                        "bytes_sent": [1002, 1009]}]
    assert result["more_conflicts"] == [] and result["unmatched_checks"] == 0
    assert result["work_changed"] == []
    assert tool.compare(base, base)["bytes_changed"] == []


def test_compare_names_each_check_whose_search_work_changed():
    # fewer conflicts are not more_conflicts, but they are changed work
    tool = _tool()
    checks = [{"phase": "depth", "bound": bound, "sat": bound == 2, "horizon": 3,
               "time_bits": 2, "bytes_sent": 1000, **_WORK} for bound in (1, 2)]
    base = _side(*checks)
    doctored = copy.deepcopy(checks)
    doctored[0].update(conflicts=4, variables=31)
    result = tool.compare(base, _side(*doctored))
    assert result["work_changed"] == [{"instance": "x@line:2", "phase": "depth", "bound": 1,
                                       "sat": False, "horizon": 3, "time_bits": 2,
                                       "conflicts": [5, 4], "decisions": [9, 9],
                                       "propagations": [40, 40], "clauses": [70, 70],
                                       "variables": [30, 31]}]
    assert result["more_conflicts"] == [] and result["bytes_changed"] == []
    assert tool.compare(base, base)["work_changed"] == []


def test_compare_names_each_base_check_the_change_no_longer_runs():
    checks = [{"phase": "swap", "bound": bound, "sat": bound == 1, "horizon": 3,
               "time_bits": 2, "bytes_sent": 40, **_WORK, "conflicts": 10 + bound}
              for bound in (1, 0)]
    base, change = _side(*checks), _side(checks[0])
    result = _tool().compare(base, change)
    assert result["dropped_checks"] == [{"instance": "x@line:2", "phase": "swap", "bound": 0,
                                         "sat": False, "horizon": 3, "time_bits": 2,
                                         "conflicts": 10}]
    assert result["unmatched_checks"] == 0 and result["optima_equal"]
    # a check the change adds is unmatched, not dropped
    reverse = _tool().compare(change, base)
    assert (reverse["dropped_checks"], reverse["unmatched_checks"]) == ([], 1)

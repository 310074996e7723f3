"""Command-line interface: flows, file outputs, and exit codes."""

import json
import math
import shlex
import threading

import pytest

from qlayout import backend
from qlayout.backend import MappingSolution
from qlayout.circuit import parse_qasm
from qlayout.cli import build_parser, main
from qlayout.search import CheckRecord, SolveResult
from qlayout.features import FEATURE_NAMES

from .test_backend import _script_solver
from .test_regressor import _one_split_model

BELL = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n'
GHZ4 = (
    'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[4];\n'
    "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\n"
)
TRIANGLE = (
    "OPENQASM 2.0;\nqreg q[3];\n"
    "cx q[0],q[1];\ncx q[1],q[2];\ncx q[0],q[2];\n"
)


@pytest.fixture()
def bell_path(tmp_path):
    path = tmp_path / "bell.qasm"
    path.write_text(BELL)
    return str(path)


@pytest.fixture()
def models(tmp_path):
    """A depth/swap model pair trained on a tiny constant-label table."""
    rows = [
        "3,2,3,0.5,1,0.346573590",
        "5,3,5,0.466666667,4,0.692307692",
        "2,2,2,1,2,0.8",
        "7,4,6,0.25,3,0.1",
    ]
    csv_path = tmp_path / "toy.csv"
    header = ",".join(FEATURE_NAMES + ("label", "source"))
    csv_path.write_text(
        header + "\n" + "\n".join(f"{r},4,sample_{i:04d}" for i, r in enumerate(rows)) + "\n"
    )
    out = {}
    for target in ("depth", "swaps"):
        model_path = tmp_path / f"{target}.json"
        code = main(
            ["train", str(csv_path), "--target", target, "--output", str(model_path)]
        )
        assert code == 0
        out[target] = str(model_path)
    return out


# --------------------------------------------------------------------------
# Usage and version
# --------------------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "qlayout" in capsys.readouterr().out


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 1


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 1


def test_missing_required_flag_is_a_usage_error(bell_path):
    with pytest.raises(SystemExit) as info:
        main(["map", bell_path])                   # no --arch
    assert info.value.code == 1


# --------------------------------------------------------------------------
# features / train / predict (solver-free)
# --------------------------------------------------------------------------


def test_features_prints_the_six_quantities(bell_path, capsys, tmp_path):
    out_file = tmp_path / "feat.json"
    assert main(["features", bell_path, "--output", str(out_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert tuple(doc.keys()) == FEATURE_NAMES
    assert doc["circuit_width"] == 2
    assert doc["two_qubit_gate_count"] == 1
    assert json.loads(out_file.read_text()) == doc


def test_features_missing_file_is_an_input_error(capsys):
    assert main(["features", "/no/such/file.qasm"]) == 2
    assert "error" in capsys.readouterr().err


def test_features_bad_qasm_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.qasm"
    bad.write_text("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[5];\n")
    assert main(["features", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_train_then_predict(models, bell_path, capsys):
    capsys.readouterr()
    code = main(["predict", bell_path,
                 "--depth-model", models["depth"],
                 "--swap-model", models["swaps"]])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"depth": 4, "swaps": 4}        # constant-label table


def test_predict_without_models_is_a_usage_error(bell_path):
    assert main(["predict", bell_path]) == 1


def test_train_on_empty_table_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text(",".join(FEATURE_NAMES + ("label", "source")) + "\n")
    out = tmp_path / "m.json"
    assert main(["train", str(path), "--target", "depth", "--output", str(out)]) == 2
    assert "empty dataset" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_wrong_header(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("a,b,c\n1,2,3\n")
    assert main(["train", str(path), "--target", "depth",
                 "--output", str(tmp_path / "m.json")]) == 2


@pytest.mark.parametrize("density", ["nan", "inf"])
def test_train_on_a_non_finite_feature_is_an_input_error(tmp_path, capsys, density):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(FEATURE_NAMES + ("label", "source")) + "\n"
                    "2,2,2,0.5,1,0.1,3,s0\n"
                    f"6,3,5,{density},4,0.7,9,s1\n")
    out = tmp_path / "m.json"
    assert main(["train", str(path), "--target", "depth", "--output", str(out)]) == 2
    assert f"line 3, column operation_density: '{density}'" in capsys.readouterr().err
    assert not out.exists()


def test_train_stdout_schema(tmp_path, models, capsys):
    capsys.readouterr()
    csv_path = tmp_path / "again.csv"
    header = ",".join(FEATURE_NAMES + ("label", "source"))
    csv_path.write_text(
        header + "\n" + "2,2,2,0.5,1,0.1,3,s0\n" + "6,3,5,0.9,4,0.7,9,s1\n"
    )
    out = tmp_path / "m2.json"
    assert main(["train", str(csv_path), "--target", "swaps",
                 "--output", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["samples"] == 2
    assert set(doc["importances"]) == set(FEATURE_NAMES)
    assert out.exists()


# --------------------------------------------------------------------------
# Input errors on map/validate (solver-free paths)
# --------------------------------------------------------------------------


def test_map_rejects_bad_arch_spec(bell_path):
    assert main(["map", bell_path, "--arch", "bogus:spec"]) == 2


def test_map_rejects_too_small_device(tmp_path):
    path = tmp_path / "ghz4.qasm"
    path.write_text(GHZ4)
    assert main(["map", str(path), "--arch", "line:3"]) == 2


def test_map_on_an_edgeless_device_is_infeasible(bell_path, tmp_path, capsys):
    device = tmp_path / "edgeless.json"
    device.write_text(json.dumps({"name": "edgeless", "num_qubits": 2, "edges": []}))
    with pytest.warns(UserWarning, match="not connected"):
        code = main(["map", bell_path, "--arch", str(device),
                     "--solver", "/no/such/solver"])
    assert code == 5
    assert "infeasible" in capsys.readouterr().err


def test_map_solver_launch_failure_is_a_solver_error(bell_path, capsys):
    code = main(["map", bell_path, "--arch", "line:2",
                 "--solver", "/no/such/solver"])
    assert code == 3
    assert "solver error" in capsys.readouterr().err


@pytest.mark.parametrize("in_env", [False, True])
def test_map_with_an_empty_solver_command_is_an_input_error(
        bell_path, monkeypatch, capsys, in_env):
    if in_env:
        monkeypatch.setenv("QLAYOUT_SOLVER", " ")
    solving = [] if in_env else ["--solver", " "]
    assert main(["map", bell_path, "--arch", "line:2", *solving]) == 2
    assert "solver command is empty" in capsys.readouterr().err


def test_map_with_an_explicit_empty_solver_ignores_the_environment(
        bell_path, monkeypatch, capsys):
    monkeypatch.setenv("QLAYOUT_SOLVER", "/no/such/solver")
    launched = []
    monkeypatch.setattr(backend.Session, "_start", lambda self: launched.append(self))
    assert main(["map", bell_path, "--arch", "line:2", "--solver", ""]) == 2
    assert "solver command is empty" in capsys.readouterr().err
    assert launched == []


def test_map_model_missing_values_is_a_solver_error(bell_path, tmp_path, capsys):
    # "sat" without a model is the solver's failure, not bad input
    cfg = _script_solver(tmp_path, """while read -r line; do
  case "$line" in
    "(check-sat)") echo sat ;;
    "(get-value "*) echo '(error "model is not available")' ;;
  esac
done""")
    code = main(["map", bell_path, "--arch", "line:2",
                 "--solver", " ".join(cfg.command)])
    assert code == 3
    err = capsys.readouterr().err
    # a 2-step grid has no swap, so the first value read is a position
    assert "solver error" in err and "pos_q0_t0" in err


def test_map_stops_a_solver_that_refutes_every_bound(bell_path, tmp_path, capsys):
    # 2 gates on line:2 fit a sequential schedule of 2 * (1 + 3 * 2) = 14
    # steps; this solver gives up after 20 checks, so an uncapped ascent
    # fails on its exit instead of hanging
    cfg = _script_solver(tmp_path, """n=0
while read -r line; do
  if [ "$line" = "(check-sat)" ]; then
    n=$((n + 1)); [ $n -gt 20 ] && exit 1; echo unsat
  fi
done""")
    code = main(["map", bell_path, "--arch", "line:2",
                 "--solver", " ".join(cfg.command)])
    assert code == 3
    assert "refuted bound 14, but bound 14 is known satisfiable" in capsys.readouterr().err


def test_map_exits_4_when_the_solution_fails_validation(bell_path, tmp_path, monkeypatch,
                                                         capsys):
    # the reported depth disagrees with the schedule, which ends at step 2
    wrong = MappingSolution(initial_map=(0, 1), gate_times=(0, 1), swaps=(),
                            final_depth=3, swap_count=0)
    monkeypatch.setattr("qlayout.cli.solve_optimal",
                        lambda circuit, graph, **kwargs: SolveResult(3, 0, solution=wrong))
    telemetry = tmp_path / "telemetry.json"
    code = main(["map", bell_path, "--arch", "line:2", "--telemetry", str(telemetry)])
    assert code == 4
    assert ("validation FAILED: totals: reported depth 3 but schedule ends at 2"
            in capsys.readouterr().err)
    assert json.loads(telemetry.read_text())["validation"]["ok"] is False


_SOLUTION = {"initial_map": [0, 1], "gate_times": [0, 1], "swaps": [],
             "final_depth": 2, "swap_count": 0}


@pytest.mark.parametrize("doc, field", [
    ([1, 2], "JSON list"),
    ({"solution": [1, 2]}, "JSON list"),
    ({**_SOLUTION, "swaps": [[[0], 3]]}, "'swaps'"),
    ({**_SOLUTION, "swaps": [[0, 3]]}, "'swaps'"),
    ({**_SOLUTION, "swaps": 5}, "'swaps'"),
    ({**_SOLUTION, "gate_times": ["x"]}, "'gate_times'"),
    ({"solution": {k: v for k, v in _SOLUTION.items() if k != "final_depth"}}, "'final_depth'"),
    # int() would truncate these and read false as 0, and the file validated
    ({**_SOLUTION, "gate_times": [0, 1.9], "final_depth": 2.7, "swap_count": False},
     "'gate_times'"),
], ids=["list", "wrapped-list", "short-swap", "flat-swap", "swaps-int", "bad-time",
        "no-depth", "fractional-time"])
def test_validate_rejects_a_malformed_solution(bell_path, tmp_path, capsys, doc, field):
    path = tmp_path / "solution.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", bell_path, "--arch", "line:2", "--solution", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "bad input" in err and field in err


@pytest.mark.parametrize("duration, code", [("0", 1), ("1", 0), ("3", 4)])
def test_validate_rejects_a_swap_duration_below_one_step(bell_path, tmp_path, capsys,
                                                         duration, code):
    # two swaps on one edge, completing at t=2 and t=3: disjoint only for 1-step swaps
    path = tmp_path / "solution.json"
    path.write_text(json.dumps({**_SOLUTION, "swaps": [[[0, 1], 2], [[0, 1], 3]],
                                "final_depth": 4, "swap_count": 2}))
    try:
        status = main(["validate", bell_path, "--arch", "line:2", "--solution", str(path),
                       "--swap-duration", duration])
    except SystemExit as exc:       # a usage error, raised by the parser
        status = exc.code
    assert status == code
    if code == 1:
        assert "--swap-duration: must be at least 1, not 0" in capsys.readouterr().err


def test_validate_on_a_graph_without_qubits_is_an_input_error(bell_path, tmp_path, capsys):
    device = tmp_path / "device.json"
    device.write_text(json.dumps({"num_qubits": -2, "edges": []}))
    solution = tmp_path / "solution.json"
    solution.write_text(json.dumps(_SOLUTION))
    assert main(["validate", bell_path, "--arch", str(device), "--solution", str(solution)]) == 2
    assert "at least 1 qubit" in capsys.readouterr().err


def test_graph_file_that_is_not_an_object_is_an_input_error(bell_path, tmp_path, capsys):
    device = tmp_path / "device.json"
    device.write_text("[1, 2]")
    assert main(["map", bell_path, "--arch", str(device)]) == 2
    assert "bad graph schema" in capsys.readouterr().err


def test_predict_with_a_split_outside_the_features_is_an_input_error(bell_path, tmp_path,
                                                                    capsys):
    model = tmp_path / "model.json"
    model.write_text(_one_split_model(7))
    assert main(["predict", bell_path, "--depth-model", str(model)]) == 2
    assert "bad input" in capsys.readouterr().err


def test_predict_with_a_fractional_split_feature_is_an_input_error(bell_path, tmp_path,
                                                                    capsys):
    # the model is otherwise valid: read as feature 1, 1.6 would predict
    doc = json.loads(_one_split_model(1.6))
    doc["feature_names"] = list(FEATURE_NAMES)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    assert main(["predict", bell_path, "--depth-model", str(model)]) == 2
    assert "feature must be an integer, not 1.6" in capsys.readouterr().err


@pytest.mark.parametrize("command, options", [
    ("predict", []),
    ("map", ["--arch", "line:2", "--solver", "/no/such/solver"]),
])
def test_a_model_trained_on_other_features_is_an_input_error(bell_path, tmp_path, capsys,
                                                             command, options):
    doc = json.loads(_one_split_model(7))
    doc["feature_names"] = [*FEATURE_NAMES, "extra_a", "extra_b"]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    assert main([command, bell_path, *options, "--depth-model", str(model)]) == 2
    assert f"bad input: {model}: model features" in capsys.readouterr().err


@pytest.mark.parametrize("command, options", [
    ("predict", []),
    ("map", ["--arch", "line:2", "--solver", "/no/such/solver"]),
])
@pytest.mark.parametrize("flag, target", [("--depth-model", "swaps"),
                                          ("--swap-model", "depth")])
def test_a_model_for_the_other_target_is_an_input_error(bell_path, models, capsys,
                                                        command, options, flag, target):
    capsys.readouterr()
    assert main([command, bell_path, *options, flag, models[target]]) == 2
    captured = capsys.readouterr()
    assert f"bad input: {models[target]}: a {target!r} model" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--threshold", "--large-step", "--small-step"])
def test_resize_policy_flags_are_gone(bell_path, flag):
    with pytest.raises(SystemExit) as info:
        main(["map", bell_path, "--arch", "line:2", flag, "1"])
    assert info.value.code == 1


# --------------------------------------------------------------------------
# Full flows against the real solver
# --------------------------------------------------------------------------


def test_map_validate_round_trip(bell_path, tmp_path, small_solver, capsys):
    mapped = tmp_path / "mapped.qasm"
    tele = tmp_path / "telemetry.json"
    code = main([
        "map", bell_path, "--arch", "line:2",
        "--solver", shlex.join(small_solver.command),
        "--output", str(mapped), "--telemetry", str(tele),
    ])
    out = capsys.readouterr().out
    assert code == 0
    summary = json.loads(out)
    assert summary["optimal_depth"] == 2
    assert summary["optimal_swaps"] == 0

    emitted = parse_qasm(mapped.read_text())
    assert [g.name for g in emitted.gates] == ["h", "cx"]

    doc = json.loads(tele.read_text())
    assert doc["validation"]["ok"] is True
    assert doc["solution"]["final_depth"] == 2
    assert len(doc["wall_time_per_check"]) == doc["depth_checks"] + doc["swap_checks"]
    assert len(doc["checks"]) == doc["depth_checks"] + doc["swap_checks"]
    assert doc["base_loads"] == 1          # every check on the first grid
    assert doc["grid_extensions"] == 0     # bell's floor 2 is satisfiable
    assert doc["bytes_sent"] == sum(c["bytes_sent"] for c in doc["checks"]) > 0
    assert doc["swap_floor"] == 0          # bell's one pair fits an edge

    assert main(["validate", bell_path, "--arch", "line:2",
                 "--solution", str(tele)]) == 0

    # a bare solution object (no wrapper) validates the same way
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc["solution"]))
    assert main(["validate", bell_path, "--arch", "line:2",
                 "--solution", str(bare)]) == 0


def test_validate_flags_a_tampered_solution(bell_path, tmp_path, small_solver, capsys):
    tele = tmp_path / "telemetry.json"
    assert main([
        "map", bell_path, "--arch", "line:2",
        "--solver", shlex.join(small_solver.command), "--telemetry", str(tele),
    ]) == 0
    doc = json.loads(tele.read_text())
    doc["solution"]["final_depth"] = 99
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["validate", bell_path, "--arch", "line:2",
                 "--solution", str(tampered)])
    assert code == 4
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert report["violations"][0]["kind"] == "totals"


def test_map_keep_swap_opcode_emits_swap_gates(tmp_path, small_solver, capsys):
    src = tmp_path / "triangle.qasm"
    src.write_text(TRIANGLE)
    mapped = tmp_path / "mapped.qasm"
    code = main([
        "map", str(src), "--arch", "line:3",
        "--solver", shlex.join(small_solver.command),
        "--keep-swap-opcode", "--output", str(mapped),
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["optimal_swaps"] >= 1
    assert "swap " in mapped.read_text()


def test_augment_builds_a_corpus_tree(tmp_path, small_solver, capsys):
    seed = tmp_path / "ghz4.qasm"
    seed.write_text(GHZ4)
    out_dir = tmp_path / "corpus"
    code = main([
        "augment", str(seed), "--arch", "line:5", "--out", str(out_dir),
        "--b-list", "2", "--no-refine",
        "--solver", shlex.join(small_solver.command),
    ])
    assert code == 0
    assert "labeled samples: depth=2 swaps=2" in capsys.readouterr().out
    for idx in (0, 1):
        sample = out_dir / f"sample_{idx:04d}"
        assert (sample / "original.qasm").exists()
        assert (sample / "result" / "mapped.qasm").exists()
        info = json.loads((sample / "info.json").read_text())
        assert {"depth", "swaps", "graph", "search_counts"} <= set(info)
    for csv_name in ("depth_dataset.csv", "swaps_dataset.csv"):
        lines = (out_dir / csv_name).read_text().strip().splitlines()
        assert lines[0] == ",".join(FEATURE_NAMES + ("label", "source"))
        assert len(lines) == 3


def test_augment_refuses_a_directory_with_an_earlier_corpus(bell_path, tmp_path, capsys):
    # an earlier build left sample_0000..0002; a second build would keep
    # them beside its own samples, which no dataset row names
    out = tmp_path / "corpus"
    for idx in range(3):
        (out / f"sample_{idx:04d}").mkdir(parents=True)
    solver = _script_solver(tmp_path, f"touch {tmp_path / 'launched'}; exit 9")
    code = main(["augment", bell_path, "--arch", "line:2", "--out", str(out),
                 "--b-list", "2", "--solver", shlex.join(solver.command)])
    assert code == 2
    assert "already holds sample_* entries" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == [f"sample_{i:04d}" for i in range(3)]
    assert not (tmp_path / "launched").exists()


@pytest.mark.parametrize("b_list", ["x,y", "0", "", "3,-1"])
def test_augment_rejects_bad_budget_list(tmp_path, capsys, b_list):
    seed = tmp_path / "bell.qasm"
    seed.write_text(BELL)
    try:
        status = main(["augment", str(seed), "--arch", "line:2",
                       "--out", str(tmp_path / "c"), "--b-list", b_list])
    except SystemExit as exc:       # a usage error, raised by the parser
        status = exc.code
    assert status == 1
    assert "--b-list" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("command, option, value, code", [
    ("map", "--timeout", "0", 1),
    ("map", "--timeout", "-1", 1),
    ("map", "--timeout", "nan", 1),
    ("bench", "--timeout", "0", 1),
    ("augment", "--timeout-per-sample", "0", 1),
    ("augment", "--jobs", "0", 1),
    ("augment", "--jobs", "-2", 1),
    ("bench", "--jobs", "0", 1),
    ("augment", "--kmax", "0", 1),
    ("map", "--swap-duration", "0", 1),
    ("bench", "--swap-duration", "-1", 1),
    ("augment", "--swap-duration", "0", 1),
    ("validate", "--swap-duration", "0", 1),
    ("train", "--max-depth", "-1", 1),
])
def test_a_bad_numeric_option_is_rejected_before_any_work(
        bell_path, tmp_path, models, capsys, command, option, value, code):
    solver = _script_solver(tmp_path, f"touch {tmp_path / 'launched'}; exit 9")
    out = tmp_path / "out"
    solving = ["--arch", "line:2", "--solver", shlex.join(solver.command)]
    argv = {
        "map": ["map", bell_path, *solving, "--output", str(out / "m.qasm"),
                "--telemetry", str(out / "t.json")],
        "bench": ["bench", bell_path, *solving, "--depth-model", models["depth"],
                  "--swap-model", models["swaps"], "--output", str(out / "b.csv")],
        "augment": ["augment", bell_path, *solving, "--out", str(out), "--b-list", "2"],
        "train": ["train", str(tmp_path / "toy.csv"), "--target", "depth",
                  "--output", str(out / "model.json")],
        "validate": ["validate", bell_path, "--arch", "line:2",
                     "--solution", str(out / "t.json")],
    }[command]
    capsys.readouterr()
    try:
        status = main([*argv, option, value])
    except SystemExit as exc:       # a usage error, raised by the parser
        status = exc.code
    assert status == code
    assert value in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "launched").exists()


@pytest.mark.parametrize("argv, dest", [
    (["map", "c.qasm", "--arch", "qx2", "--timeout", "inf"], "timeout"),
    (["augment", "c.qasm", "--arch", "qx2", "--out", "o", "--b-list", "2",
      "--timeout-per-sample", "inf"], "timeout_per_sample"),
])
def test_an_infinite_timeout_is_accepted(argv, dest):
    assert getattr(build_parser().parse_args(argv), dest) == math.inf


def test_bench_compares_seeded_and_unseeded(bell_path, tmp_path, models,
                                            small_solver, capsys):
    out_csv = tmp_path / "bench.csv"
    capsys.readouterr()
    code = main([
        "bench", bell_path, "--arch", "line:2",
        "--depth-model", models["depth"], "--swap-model", models["swaps"],
        "--solver", shlex.join(small_solver.command), "--output", str(out_csv),
    ])
    captured = capsys.readouterr()
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("circuit,depth,swaps,depth_checks_seeded")
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[1:3] == ["2", "0"]                  # same optimum both ways
    assert "total checks:" in captured.err


def _solver_free_bench(monkeypatch, seeded_depth: int) -> list[threading.Thread]:
    """Patch the CLI's solve: optimum (2, 0) unseeded and (seeded_depth, 0)
    with a depth model, one check each.  Returns the thread of each solve."""
    threads = []

    def solve(circuit, graph, depth_model=None, swap_model=None, **kwargs):
        threads.append(threading.current_thread())
        depth = seeded_depth if depth_model else 2
        return SolveResult(depth, 0, [CheckRecord("depth", depth, True, depth, 2, 0.5)])

    monkeypatch.setattr("qlayout.cli.solve_optimal", solve)
    return threads


def test_bench_with_two_jobs_keeps_the_input_order(tmp_path, models, monkeypatch, capsys):
    threads = _solver_free_bench(monkeypatch, seeded_depth=2)
    paths = []
    for name, text in (("bell", BELL), ("ghz4", GHZ4), ("triangle", TRIANGLE)):
        paths.append(str(tmp_path / f"{name}.qasm"))
        (tmp_path / f"{name}.qasm").write_text(text)
    code = main(["bench", *paths, "--arch", "line:4", "--jobs", "2",
                 "--depth-model", models["depth"], "--swap-model", models["swaps"]])
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == paths
    assert len(threads) == 6 and threading.main_thread() not in threads


def test_bench_exits_4_when_seeding_changes_an_optimum(bell_path, tmp_path, models,
                                                       monkeypatch, capsys):
    _solver_free_bench(monkeypatch, seeded_depth=3)
    out_csv = tmp_path / "bench.csv"
    code = main(["bench", bell_path, "--arch", "line:2", "--output", str(out_csv),
                 "--depth-model", models["depth"], "--swap-model", models["swaps"]])
    assert code == 4
    assert f"error: optima changed under seeding for {[bell_path]}" in capsys.readouterr().err
    assert out_csv.read_text().splitlines()[1].startswith(f"{bell_path},2,0,1,0,1,0,")

"""qlayout benchmark: the ``map``, ``augment`` and ``train`` workloads.

Usage, from the repository root::

    python3 qbench/run.py --workload map --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one caller.  Solves run against the
witness stand-in solver (``standin.py``), so every check is a real script
piped to a real subprocess, and every verdict matches what a correct solver
would answer.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is a ``{"report": ...}`` object with sample counts, the
deterministic per-solve counts, failures by kind and the real-solver rows.
See ``README.md`` in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import standin

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = HERE / "data"
POOL = DATA / "witnesses.txt"
WORK = ROOT / ".bench_build" / "qbench"

WORKLOADS = ("map", "augment", "train")
SETUP_REPEATS = 7
SOLVE_DEADLINE_S = 30.0
# Solves may run this long past a run's --seconds; later ones fail at once,
# so a run ends within its time limit even when every solve runs away.
GRACE_S = 60.0
CHECK_TIMEOUT_S = 60.0
TRAIN_TARGETS = ("depth", "swaps")

# ROADMAP item-1 baselines, measured at horizon = chain length + 10.
BASELINE_ENCODE_EMIT_MS = (6.0, 39.0)
BASELINE_SCRIPT_MB = (0.17, 0.98)

# The conftest solver probe.
PROBE = """(set-logic QF_BV)
(declare-const x (_ BitVec 2))
(assert (= x #b10))
(check-sat)
(get-value (x))
"""


def _require_source() -> None:
    if not (SRC / "qlayout" / "__init__.py").is_file():
        sys.stderr.write(f"qbench: no qlayout sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))


# --------------------------------------------------------------------------
# Set-up
# --------------------------------------------------------------------------


def setup(workload: str) -> tuple[dict, float]:
    """Import qlayout and load the workload's inputs; returns (inputs, parse_s)."""
    import qlayout  # noqa: F401
    from qlayout.arch import resolve_graph
    from qlayout.augment import load_dataset
    from qlayout.corpus import circuit_names, load_bundled

    import instances

    if not Path(qlayout.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"qlayout imported from {qlayout.__file__}, not {SRC}")
    parse_s = 0.0
    inputs: dict = {}
    if workload == "map":
        t0 = time.perf_counter()
        inputs["circuits"] = {c: load_bundled(c) for c in instances.MAP_CIRCUITS}
        parse_s = time.perf_counter() - t0
        inputs["graphs"] = {d: resolve_graph(d) for d in instances.MAP_DEVICES}
    elif workload == "augment":
        t0 = time.perf_counter()
        inputs["circuits"] = [(n, load_bundled(n)) for n in circuit_names()]
        parse_s = time.perf_counter() - t0
        inputs["graph"] = resolve_graph(instances.AUGMENT_DEVICE)
    else:
        inputs["tables"] = {
            t: load_dataset(DATA / f"train_{t}.csv", t) for t in TRAIN_TARGETS
        }
    return inputs, parse_s


def probe_setup(workload: str) -> None:
    """Child-process mode: time one cold set-up and print it as JSON."""
    t0 = time.perf_counter()
    _, parse_s = setup(workload)
    print(json.dumps({"setup_s": time.perf_counter() - t0, "parse_s": parse_s}))


class SetupSampler:
    """Cold set-ups timed in fresh interpreters.

    A run takes one sample between passes, builds or rounds, so its median
    spans the run rather than one moment of the host's load.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.setups: list[float] = []
        self.parses: list[float] = []

    def sample(self) -> None:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", self.workload],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        self.setups.append(doc["setup_s"])
        self.parses.append(doc["parse_s"])

    def medians(self, at_least: int) -> tuple[float, float]:
        while len(self.setups) < at_least:
            self.sample()
        return statistics.median(self.setups), statistics.median(self.parses)


# --------------------------------------------------------------------------
# Solver plumbing: stand-in launches, the per-solve deadline
# --------------------------------------------------------------------------


def standin_command(log_path: Path | None = None) -> tuple[str, ...]:
    # Import the stand-in as a module, so its compiled form is cached.
    launcher = (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); import standin;"
        " sys.exit(standin.main(sys.argv[1:]))"
    )
    log = ("--log", str(log_path)) if log_path is not None else ()
    return (sys.executable, "-S", "-E", "-s", "-c", launcher, str(POOL)) + log


def standin_config(be, log_path: Path):
    return be.SolverConfig(command=standin_command(log_path), timeout=CHECK_TIMEOUT_S)


class HostReference:
    """A fixed task, independent of qlayout, timed next to every operation.

    On shared virtual machines the speed available to a process drifts by up
    to 2x over seconds and minutes, and every operation slows with it.  The
    reference task launches the stand-in on a fixed synthetic script (about
    110 KB that no witness satisfies), so it does the same kinds of work as a
    check: a process start, parsing and sort checking.  Dividing an
    operation's time by the reference task's time next to it cancels most of
    the drift, while a change to qlayout moves only the numerator.
    """

    def __init__(self):
        lines = [
            f"(declare-const pos_q{q}_t{t} (_ BitVec 3))" for t in range(10) for q in range(30)
        ]
        for i in range(1200):
            a, b, t = f"pos_q{i % 30}_t{i % 10}", f"pos_q{(7 * i) % 30}_t{i % 10}", i % 8
            lines.append(
                f"(assert (=> (= {a} #b{t:03b}) (or (= {b} #b{7 - t:03b}) (bvult {a} #b110))))"
            )
        lines.append("(check-sat)")
        self.script = ("\n".join(lines) + "\n").encode()
        self.command = standin_command()
        self.last: float | None = None
        self.times: list[float] = []

    def measure(self) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(self.command, input=self.script, capture_output=True,
                              timeout=CHECK_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if proc.stdout != b"unsat\n":
            raise RuntimeError(f"reference task answered {proc.stdout[:200]!r}")
        self.last = wall
        self.times.append(wall)
        return wall


def read_log(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Deadline:
    """Per-solve deadline, enforced at the ``backend.check`` boundary.

    A check that would start after the deadline raises ``SolverTimeoutError``
    instead, so a runaway bound ascent ends as a counted failure.
    """

    def __init__(self, be):
        self.at: float | None = None
        self.stop_at: float | None = None
        original = be.check
        timeout_error = be.SolverTimeoutError

        def guarded(script, config=None):
            if self.at is not None and time.monotonic() > self.at:
                raise timeout_error(f"solve passed its {SOLVE_DEADLINE_S:.0f}s deadline")
            return original(script, config)

        be.check = guarded
        self._restore = (be, original)

    def start(self) -> None:
        self.at = time.monotonic() + SOLVE_DEADLINE_S
        if self.stop_at is not None:
            self.at = min(self.at, self.stop_at)

    def passed(self) -> bool:
        return time.monotonic() > self.at

    def close(self) -> None:
        be, original = self._restore
        be.check = original


# --------------------------------------------------------------------------
# Reference checks made before any timing
# --------------------------------------------------------------------------


def check_data(ref, manifest: dict) -> list[list[str]]:
    """One list of problems per data file."""
    return [
        [f"{name}: digest differs from manifest"]
        if ref.file_digest(DATA / name) != digest else []
        for name, digest in manifest["files"].items()
    ]


def check_witness(mods, ref, witness: dict, circuit, graph, cfg) -> list[str]:
    """Re-validate a witness, then ask the stand-in for a model of a
    qlayout-emitted script at the witness's (depth, swaps)."""
    be, enc = mods["backend"], mods["encode"]
    key = witness.key
    schedule = ref.schedule_from_witness(witness, graph)
    report = be.validate_solution(circuit, graph, ref.to_solution(schedule))
    if not report.ok:
        return [f"{key}: witness fails validation: {report.first.message}"]
    if ref.to_solution(schedule).final_depth != schedule.depth:
        return [f"{key}: witness depth differs from its schedule"]
    if not any(g.is_two_qubit for g in circuit.gates):
        return []
    d, s = schedule.depth, schedule.swap_count
    ctx = enc.build_context(circuit, graph, d + 10, enc.bit_length(d))
    script = enc.emit_script(
        ctx, [enc.encode_base(ctx), enc.encode_depth_bound(ctx, d), enc.encode_swap_bound(ctx, s)]
    )
    try:
        result = be.check(script, cfg)
    except be.SolverError as exc:
        return [f"{key}: stand-in failed at the optimum: {exc}"]
    if not result.sat:
        return [f"{key}: stand-in answers unsat at the optimum ({d}, {s})"]
    solution = be.decode_solution(result.values, ctx)
    if not be.validate_solution(circuit, graph, solution).ok:
        return [f"{key}: stand-in model at the optimum fails validation"]
    return []


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


class Segment:
    """What one measured stretch of a workload did."""

    def __init__(self):
        # One (key, wall s, CPU s, reference-task s) per operation; the key
        # names the work (instance, chunk or target) so repetitions pair up.
        self.samples: list[tuple[str, float, float, float]] = []
        self.attempted = 0
        self.failures: Counter = Counter()
        self.solves = 0
        self.depth_checks = 0
        self.swap_checks = 0
        self.resize_events = 0
        self.rounds = 0
        self.wall_s = 0.0
        self.extra: dict = {}

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, kind: str, n: int = 1) -> None:
        self.failures[kind] += n

    def solved(self, result) -> None:
        self.solves += 1
        self.depth_checks += result.depth_checks
        self.swap_checks += result.swap_checks
        self.resize_events += len(result.resize_events)


class Bench:
    def __init__(self, args, mods, ref, inputs, work: Path):
        self.args = args
        self.mods = mods
        self.ref = ref
        self.inputs = inputs
        self.work = work
        self.rng = random.Random(args.seed)
        self.pool = {w.key: w for w in standin.load_pool(POOL)}
        with open(DATA / "manifest.json", "r", encoding="utf-8") as fh:
            self.manifest = json.load(fh)
        self.deadline = Deadline(mods["backend"])
        self.host = HostReference()
        self.tracer = None
        self.between_units = lambda: None

    def next_unit(self) -> None:
        """Start a pass, build or round: operations follow each other again."""
        self.host.last = None
        self.between_units()

    def timed(self, seg: Segment, key: str, operation):
        """Run one operation between two reference-task timings and record it.

        The operation's reference time is the mean of the two timings; a
        failing operation is recorded too, and its exception propagates.
        """
        before = self.host.last if self.host.last is not None else self.reference()
        self.mark_op(seg)
        seg.attempted += 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            return operation()
        finally:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            after = self.reference()
            seg.samples.append((key, wall, cpu, (before + after) / 2))

    def reference(self) -> float:
        """Time the reference task, inside a span of its own when tracing."""
        if self.tracer is None:
            return self.host.measure()
        span = self.tracer.begin("bench.reference")
        try:
            return self.host.measure()
        finally:
            self.tracer.end(span)

    def mark_op(self, seg: "Segment") -> None:
        """Tag spans recorded from now on with the next operation's index."""
        if self.tracer is not None:
            self.tracer.op = seg.attempted

    # ---- map -------------------------------------------------------------

    def map_instances(self):
        from instances import map_instances

        circuits, graphs = self.inputs["circuits"], self.inputs["graphs"]
        return [(f"{c}@{d}", circuits[c], graphs[d]) for c, d in map_instances()]

    def prepare_map(self, cfg) -> list[list[str]]:
        """One list of problems per instance."""
        return [
            check_witness(self.mods, self.ref, self.pool[key], circuit, graph, cfg)
            if key in self.pool else [f"{key}: no witness in the pool"]
            for key, circuit, graph in self.map_instances()
        ]

    def run_map(self, seg: Segment, cfg, seconds: float, passes: int | None = None):
        search, be = self.mods["search"], self.mods["backend"]
        instances = self.map_instances()
        start = time.perf_counter()
        done = 0
        while (passes is None and time.perf_counter() - start < seconds) or (
            passes is not None and done < passes
        ):
            self.next_unit()
            order = list(instances)
            self.rng.shuffle(order)
            for key, circuit, graph in order:
                witness = self.pool[key]

                def solve():
                    self.deadline.start()
                    return search.solve_optimal(circuit, graph, solver=cfg)

                try:
                    result = self.timed(seg, key, solve)
                except Exception as exc:  # noqa: BLE001 - every failure is counted
                    seg.fail(f"exception:{type(exc).__name__}")
                    continue
                seg.solved(result)
                if self.deadline.passed():
                    seg.fail("deadline")
                elif (result.optimal_depth, result.optimal_swaps) != (
                    witness.depth, witness.swap_count
                ):
                    seg.fail("optimum differs from reference")
                elif not be.validate_solution(circuit, graph, result.solution).ok:
                    seg.fail("validation")
            done += 1
        seg.rounds += done
        seg.wall_s += time.perf_counter() - start
        return done

    # ---- augment ---------------------------------------------------------

    def augment_chunks(self):
        augment = self.mods["augment"]
        graph = self.inputs["graph"]
        chunks = []
        for name, circuit in self.inputs["circuits"]:
            for chunk in augment.gate_allocation(circuit, self.ref.AUGMENT_PLAN):
                if chunk.num_qubits <= graph.num_qubits:
                    chunks.append((self.ref.chunk_key(chunk), chunk))
        return chunks

    def prepare_augment(self, cfg) -> list[list[str]]:
        """One list of problems per distinct chunk."""
        graph = self.inputs["graph"]
        return [
            check_witness(self.mods, self.ref, self.pool[key], chunk, graph, cfg)
            if key in self.pool else [f"{key}: no witness in the pool"]
            for key, chunk in dict(self.augment_chunks()).items()
        ]

    def run_augment(self, seg: Segment, cfg, seconds: float, passes: int | None = None):
        augment, be = self.mods["augment"], self.mods["backend"]
        graph = self.inputs["graph"]
        chunks = self.augment_chunks()
        original = augment.label_sample

        def timed_label(chunk, graph_, **kwargs):
            key = self.ref.chunk_key(chunk)

            def label():
                self.deadline.start()
                return original(chunk, graph_, **kwargs)

            try:
                result = self.timed(seg, key, label)
            except Exception as exc:
                seg.fail(f"exception:{type(exc).__name__}")
                raise
            seg.solved(result)
            witness = self.pool.get(key)
            if self.deadline.passed():
                seg.fail("deadline")
            elif witness is None or (result.optimal_depth, result.optimal_swaps) != (
                witness.depth, witness.swap_count
            ):
                seg.fail("optimum differs from reference")
            elif not be.validate_solution(chunk, graph_, result.solution).ok:
                seg.fail("validation")
            return result

        augment.label_sample = timed_label
        start = time.perf_counter()
        done = 0
        kept = labeled = 0
        try:
            while (passes is None and time.perf_counter() - start < seconds) or (
                passes is not None and done < passes
            ):
                self.next_unit()
                out = self.work / f"corpus{done}"
                before = seg.attempted
                try:
                    depth_ds, _ = augment.build_corpus(
                        self.inputs["circuits"], [self.ref.AUGMENT_PLAN], graph, out,
                        refine=True, jobs=1, solver=cfg,
                    )
                except Exception as exc:  # noqa: BLE001 - every failure is counted
                    seg.fail(f"corpus:{type(exc).__name__}")
                    depth_ds = None
                unlabeled = len(chunks) - (seg.attempted - before)
                if unlabeled > 0:
                    seg.attempted += unlabeled
                    seg.fail("chunk never labeled", unlabeled)
                written = self.check_corpus(seg, out)
                labeled += written
                kept += len(depth_ds.samples) if depth_ds is not None else 0
                shutil.rmtree(out, ignore_errors=True)
                done += 1
        finally:
            augment.label_sample = original
        seg.rounds += done
        seg.wall_s += time.perf_counter() - start
        seg.extra["kept_ratio"] = kept / labeled if labeled else 0.0
        return done

    def check_corpus(self, seg: Segment, out: Path) -> int:
        """Compare every written ``info.json`` label with the reference."""
        written = 0
        for sample in sorted(out.glob("sample_*")):
            written += 1
            key = self.ref.qasm_key((sample / "original.qasm").read_text())
            info = json.loads((sample / "info.json").read_text())
            witness = self.pool.get(key)
            if witness is None or (info["depth"], info["swaps"]) != (
                witness.depth, witness.swap_count
            ):
                seg.fail("info.json label differs from reference")
        return written

    # ---- train -----------------------------------------------------------

    def prepare_train(self, cfg) -> list[list[str]]:
        """One list of problems per table."""
        tables = self.inputs["tables"]
        return [
            [f"train_{t}.csv: {len(tables[t].samples)} rows, expected {self.ref.TRAIN_ROWS}"]
            if len(tables[t].samples) != self.ref.TRAIN_ROWS else []
            for t in TRAIN_TARGETS
        ]

    def run_train(self, seg: Segment, cfg, seconds: float, passes: int | None = None):
        """Each round refines, fits and predicts both targets, one operation each."""
        augment, regressor = self.mods["augment"], self.mods["regressor"]
        expected = self.manifest["train"]
        tables = self.inputs["tables"]
        nodes = dict.fromkeys(TRAIN_TARGETS, 0)
        start = time.perf_counter()
        done = 0
        while (passes is None and time.perf_counter() - start < seconds) or (
            passes is not None and done < passes
        ):
            self.next_unit()
            for target in TRAIN_TARGETS:
                table, want = tables[target], expected[target]

                def train():
                    refined = augment.allknn_refine(table)
                    tree = regressor.fit(refined.rows(), refined.labels(), target=target)
                    return refined, tree, [tree.predict(row) for row in table.rows()]

                try:
                    refined, tree, predictions = self.timed(seg, target, train)
                except Exception as exc:  # noqa: BLE001 - every failure is counted
                    seg.fail(f"exception:{type(exc).__name__}")
                    continue
                nodes[target] = _tree_nodes(tree.root)
                if len(refined.samples) != want["refined_rows"]:
                    seg.fail("refined rows differ from manifest")
                elif _sha(tree.to_json()) != want["tree_sha256"]:
                    seg.fail("tree JSON differs from manifest")
                elif _sha(json.dumps(predictions)) != want["predictions_sha256"]:
                    seg.fail("predictions differ from manifest")
            done += 1
        seg.rounds += done
        seg.wall_s += time.perf_counter() - start
        seg.extra["tree_nodes"] = sum(nodes.values())
        return done


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _tree_nodes(node) -> int:
    if node.is_leaf:
        return 1
    return 1 + _tree_nodes(node.left) + _tree_nodes(node.right)


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_key(seg: Segment, raw: bool = False) -> dict[str, tuple[float, float]]:
    """Each operation key's median repetition: (wall, CPU), in
    reference-task units, or in seconds with ``raw``.

    Once the reference task has cancelled the drift, what noise is left
    makes an operation faster as often as slower, so the median of the
    repetitions is steadier than their minimum.
    """
    by_key: dict[str, list[tuple[float, float]]] = {}
    for key, wall, cpu, ref in seg.samples:
        scale = 1.0 if raw else ref
        by_key.setdefault(key, []).append((wall / scale, cpu / scale))
    return {
        key: (statistics.median(w for w, _ in reps), statistics.median(c for _, c in reps))
        for key, reps in by_key.items()
    }


def end_to_end(seg: Segment, setup_s: float) -> dict:
    typical = per_key(seg)
    walls = [w for w, _ in typical.values()]
    return {
        "setup_s": (setup_s, "s"),
        "op_ref.p50": (statistics.median(walls), "ref"),
        "op_ref.p90": (percentile(walls, 90), "ref"),
        "cpu_ref.per_op": (statistics.fmean(c for _, c in typical.values()), "ref"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def raw_seconds(seg: Segment, host: HostReference) -> dict:
    """The same statistics in seconds, for the report line."""
    typical = per_key(seg, raw=True)
    walls = [w for w, _ in typical.values()]
    return {
        "op_s.p50": statistics.median(walls),
        "op_s.p90": percentile(walls, 90),
        "host_cpu_s.per_op": statistics.fmean(c for _, c in typical.values()),
        "reference_task_s.p50": statistics.median(host.times),
        "all_samples_op_s.p50": percentile([w for _, w, _, _ in seg.samples], 50),
        "all_samples_op_s.p90": percentile([w for _, w, _, _ in seg.samples], 90),
    }


def solve_counts(seg: Segment, logs: list[dict]) -> dict:
    """Per-solve counts as exact ratios, so equal work reads the same."""
    solves = max(seg.solves, 1)
    return {
        "checks.per_solve": float(Fraction(seg.depth_checks + seg.swap_checks, solves)),
        "launches.per_solve": float(Fraction(len(logs), solves)),
        "script_mb.per_solve": float(Fraction(sum(r["bytes"] for r in logs), solves)) / 1e6,
    }


def per_layer(seg: Segment, tracer, logs: list[dict], parse_s: float,
              untraced: Segment) -> tuple[dict, dict]:
    """Per-layer metrics from one traced segment, plus baseline comparisons."""
    self_s = tracer.self_times()
    incl = tracer.inclusive_times()
    calls = tracer.call_counts()
    counters = tracer.counters
    checks = calls.get("backend.check", 0)
    solves = seg.solves

    def per(total, base):
        return total / base if base else 0.0

    standin_wall = sum(r["wall_s"] for r in logs)
    standin_cpu = sum(r["cpu_s"] for r in logs)
    counts = solve_counts(seg, logs)
    traced, plain = per_key(seg), per_key(untraced)
    common = traced.keys() & plain.keys()  # reference-task units
    traced_per_op = sum(traced[k][0] for k in common)
    untraced_per_op = sum(plain[k][0] for k in common)
    builds = calls.get("augment.build_corpus", 0)
    fits = calls.get("regressor.fit", 0)
    metrics = {
        "circuit.parse_s": (parse_s, "s"),
        "encode.context_s": (per(self_s.get("encode.context", 0.0), checks), "s/check"),
        "encode.base_s": (per(self_s.get("encode.base", 0.0), checks), "s/check"),
        "encode.bound_s": (per(self_s.get("encode.bound", 0.0), checks), "s/check"),
        "encode.emit_s": (per(self_s.get("encode.emit", 0.0), checks), "s/check"),
        "encode.script_bytes": (per(counters["script_bytes"], checks), "B/check"),
        "encode.asserts": (per(counters["asserts"], checks), "count/check"),
        "encode.base_repeat_ratio": (per(counters["base_repeats"], checks), "ratio"),
        "backend.check_s": (per(incl.get("backend.check", 0.0), checks), "s/check"),
        "backend.launch_overhead_s": (
            per(incl.get("backend.check", 0.0) - standin_wall, checks), "s/check"),
        "backend.sat_ratio": (per(counters["sat"], checks), "ratio"),
        "backend.decode_s": (per(self_s.get("backend.decode", 0.0), solves), "s/solve"),
        "backend.validate_s": (per(self_s.get("backend.validate", 0.0), solves), "s/solve"),
        "checks.per_solve": (counts["checks.per_solve"], "count/solve"),
        "launches.per_solve": (counts["launches.per_solve"], "count/solve"),
        "script_mb.per_solve": (counts["script_mb.per_solve"], "MB/solve"),
        "search.depth_checks": (per(seg.depth_checks, solves), "count/solve"),
        "search.swap_checks": (per(seg.swap_checks, solves), "count/solve"),
        "search.resize_events": (per(seg.resize_events, solves), "count/solve"),
        "search.self_s": (per(self_s.get("search.solve_optimal", 0.0), solves), "s/solve"),
        "features.extract_s": (
            per(self_s.get("features.extract", 0.0), calls.get("features.extract", 0)),
            "s/call"),
        "augment.chunk_s": (per(self_s.get("augment.chunk", 0.0), builds), "s/build"),
        "augment.label_s": (
            per(incl.get("augment.label", 0.0), calls.get("augment.label", 0)), "s/sample"),
        "augment.write_s": (per(self_s.get("augment.write", 0.0), builds), "s/build"),
        "augment.build_self_s": (
            per(self_s.get("augment.build_corpus", 0.0), builds), "s/build"),
        "augment.kept_ratio": (seg.extra.get("kept_ratio", 0.0), "ratio"),
        "augment.refine_s": (
            per(self_s.get("augment.refine", 0.0), calls.get("augment.refine", 0)), "s/call"),
        "regressor.fit_s": (per(self_s.get("regressor.fit", 0.0), fits), "s/fit"),
        "regressor.predict_s": (
            per(self_s.get("regressor.predict", 0.0), calls.get("regressor.predict", 0)),
            "s/row"),
        "regressor.tree_nodes": (seg.extra.get("tree_nodes", 0), "count"),
        "standin.cpu_s": (per(standin_cpu, len(logs)), "s/check"),
        "standin.witness_evals": (
            per(sum(r["evals"] for r in logs), len(logs)), "count/check"),
        "trace.overhead_ratio": (per(traced_per_op, untraced_per_op) - 1.0, "ratio"),
        "trace.unaccounted_ratio": (1.0 - per(tracer.covered_time(), seg.wall_s), "ratio"),
    }
    return metrics, baseline_report(tracer, seg, checks)


def baseline_report(tracer, seg: Segment, checks: int) -> dict:
    """Encode+emit ms and script MB per check, per map instance, against the
    ROADMAP item-1 ranges (taken on another machine, at a fixed horizon)."""
    labels = [key for key, _, _, _ in seg.samples]
    if not checks or not labels:
        return {}
    encode = {"encode.context", "encode.base", "encode.bound", "encode.emit"}
    children: dict = {}
    for span in tracer.spans:
        children.setdefault(span[1], []).append(span)
    per_label: dict[str, list[float]] = {}
    for span in tracer.spans:
        if span[2] not in encode or span[5] is None:
            continue
        inner = children.get(span[0], ())
        own = (span[4] - span[3]) - sum(c[4] - c[3] for c in inner)
        per_label.setdefault(labels[span[5]], [0.0, 0])[0] += own
    for span in tracer.spans:
        if span[2] == "backend.check" and span[5] is not None:
            per_label.setdefault(labels[span[5]], [0.0, 0])[1] += 1
    ms = [1000 * t / n for t, n in per_label.values() if n]
    mb = tracer.counters["script_mb_by_check"]
    return {
        "encode_emit_ms_per_check": [min(ms), max(ms)] if ms else None,
        "encode_emit_ms_baseline": list(BASELINE_ENCODE_EMIT_MS),
        "script_mb_per_check": [min(mb), max(mb)] if mb else None,
        "script_mb_baseline": list(BASELINE_SCRIPT_MB),
    }


def install_trace(bench: Bench):
    from spans import Tracer

    tracer = Tracer()
    tracer.counters["script_mb_by_check"] = []
    previous_base: list = [None]

    def after_emit(t, script):
        t.count("script_bytes", len(script))
        t.count("asserts", script.count("(assert "))
        t.counters["script_mb_by_check"].append(len(script) / 1e6)

    def after_base(t, lines):
        if previous_base[0] == lines:
            t.count("base_repeats")
        previous_base[0] = lines

    def after_check(t, result):
        if result.sat:
            t.count("sat")

    modules = {name: sys.modules[name] for name in (
        "qlayout.search", "qlayout.backend", "qlayout.augment", "qlayout.regressor")}
    tracer.install(modules, {
        "encode.emit": after_emit, "encode.base": after_base, "backend.check": after_check,
    })
    return tracer


def real_solver_rows(bench: Bench, seconds: float) -> object:
    """Map against the solver the conftest probe would use, not gated."""
    be, search = bench.mods["backend"], bench.mods["search"]
    cfg = be.SolverConfig.resolve(timeout=CHECK_TIMEOUT_S)
    try:
        probe = be.check(PROBE, cfg)
        if not probe.sat or probe.values.get("x") != 2:
            return f"unavailable: probe answered {probe}"
    except Exception as exc:  # noqa: BLE001 - any launch failure means unavailable
        return f"unavailable: {' '.join(cfg.command)!r} is not usable ({exc})"
    if bench.args.trace != 1:
        return "available; rows are written by --trace 1 runs"
    rows = []
    start = time.perf_counter()
    for key, circuit, graph in bench.map_instances():
        if time.perf_counter() - start > seconds:
            rows.append({"instance": key, "result": "not run: time budget spent"})
            continue
        t0 = time.perf_counter()
        try:
            result = search.solve_optimal(circuit, graph, solver=cfg)
        except Exception as exc:  # noqa: BLE001 - reported, not gated
            rows.append({"instance": key, "error": f"{type(exc).__name__}: {exc}"[:300]})
            continue
        witness = bench.pool[key]
        rows.append({
            "instance": key,
            "solve_s": time.perf_counter() - t0,
            "checks": result.depth_checks + result.swap_checks,
            "optimum": [result.optimal_depth, result.optimal_swaps],
            "matches_reference": [result.optimal_depth, result.optimal_swaps]
            == [witness.depth, witness.swap_count],
        })
    return rows


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_source()
    if args.setup_probe:
        probe_setup(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    sampler = SetupSampler(args.workload)
    inputs, _ = setup(args.workload)
    import reference as ref

    mods = {name: sys.modules[f"qlayout.{name}"] for name in (
        "augment", "backend", "encode", "regressor", "search")}
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(args, mods, ref, inputs, work)
        prepare = getattr(bench, f"prepare_{args.workload}")
        run = getattr(bench, f"run_{args.workload}")
        checked = check_data(ref, bench.manifest)
        checked += prepare(standin_config(mods["backend"], work / "prepare.jsonl"))
        problems = [p for item in checked for p in item]
        report: dict = {"workload": args.workload, "seed": args.seed}

        bench.deadline.stop_at = time.monotonic() + args.seconds + GRACE_S
        untraced = Segment()
        untraced_log = work / "untraced.jsonl"
        cfg = standin_config(mods["backend"], untraced_log)
        if args.trace == 0:
            bench.between_units = sampler.sample
            run(untraced, cfg, args.seconds)
            bench.between_units = lambda: None
            seg, logs = untraced, read_log(untraced_log)
            setup_s, _ = sampler.medians(SETUP_REPEATS)
            metrics = end_to_end(seg, setup_s)
            report["counts"] = solve_counts(seg, logs) if seg.solves else {}
        else:
            _, parse_s = sampler.medians(SETUP_REPEATS)
            rounds = run(untraced, cfg, args.seconds / 2)
            seg = Segment()
            traced_log = work / "traced.jsonl"
            tracer = bench.tracer = install_trace(bench)
            try:
                run(seg, standin_config(mods["backend"], traced_log), 0, passes=rounds)
            finally:
                tracer.uninstall()
            logs = read_log(traced_log)
            metrics, baselines = per_layer(seg, tracer, logs, parse_s, untraced)
            if args.workload == "map":
                report["baselines"] = baselines
            trace_dir = ROOT / ".bench_build" / "qbench-trace"
            trace_dir.mkdir(parents=True, exist_ok=True)
            trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
            tracer.counters.pop("script_mb_by_check", None)
            tracer.dump(trace_path)
            report["trace_file"] = str(trace_path.relative_to(ROOT))
            report["counts"] = solve_counts(seg, logs) if seg.solves else {}
        bench.deadline.close()
        if args.workload == "map":
            report["real_solver"] = real_solver_rows(bench, args.seconds)

        report.update(
            samples=len(seg.samples),
            keys=len(per_key(seg)),
            seconds=raw_seconds(seg, bench.host),
            rounds=seg.rounds,
            setup_repeats=len(sampler.setups),
            failures=dict(seg.failures),
            problems=problems,
            fail_ratio=seg.failed / seg.attempted if seg.attempted else 1.0,
        )
        segments = {id(untraced): untraced, id(seg): seg}.values()
        attempted = sum(s.attempted for s in segments) + len(checked)
        failed = sum(s.failed for s in segments) + sum(1 for item in checked if item)
        print(json.dumps({"report": report}))
        print(json.dumps({
            "correct": failed == 0 and attempted > 0,
            "attempted": max(attempted, 1),
            "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

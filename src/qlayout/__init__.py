"""qlayout: optimal quantum-circuit layout synthesis.

Maps logical circuits onto hardware coupling graphs with provably minimal
depth and swap count via an external bit-vector satisfiability solver,
seeded by regression-tree predictions and kept small by dynamic variable
resizing.
"""

from .arch import (
    CouplingGraph,
    GraphError,
    grid_graph,
    line_graph,
    load_graph,
    qx2,
    resolve_graph,
    ring_graph,
)
from .augment import (
    ChunkPlan,
    Dataset,
    Sample,
    allknn_refine,
    build_corpus,
    gate_allocation,
    label_sample,
    load_dataset,
    qubit_reorder,
    save_dataset,
)
from .backend import (
    CheckResult,
    MappingSolution,
    SolverConfig,
    SolverError,
    SolverExitError,
    SolverOutputError,
    SolverTimeoutError,
    ValidationReport,
    check,
    decode_solution,
    render_circuit,
    validate_solution,
)
from .circuit import (
    Circuit,
    DependencyDag,
    Gate,
    QasmError,
    build_dag,
    emit_qasm,
    load_qasm,
    longest_chain,
    make_circuit,
    parse_qasm,
)
from .encode import (
    EncodingContext,
    EncodingError,
    build_context,
    emit_script,
    encode_base,
    encode_depth_bound,
    encode_swap_bound,
)
from .features import FEATURE_NAMES, FeatureVector, extract_features
from .regressor import RegressionTree, best_split, fit
from .search import (
    BoundSearchOutcome,
    CheckRecord,
    InfeasibleError,
    SearchError,
    SolveResult,
    run_bound_search,
    solve_optimal,
)

__version__ = "0.1.0"

__all__ = [
    "CouplingGraph", "GraphError", "grid_graph", "line_graph", "load_graph",
    "qx2", "resolve_graph", "ring_graph",
    "ChunkPlan", "Dataset", "Sample", "allknn_refine", "build_corpus",
    "gate_allocation", "label_sample", "load_dataset", "qubit_reorder",
    "save_dataset",
    "CheckResult", "MappingSolution", "SolverConfig", "SolverError",
    "SolverExitError", "SolverOutputError", "SolverTimeoutError",
    "ValidationReport", "check", "decode_solution", "render_circuit", "validate_solution",
    "Circuit", "DependencyDag", "Gate", "QasmError", "build_dag", "emit_qasm",
    "load_qasm", "longest_chain", "make_circuit", "parse_qasm",
    "EncodingContext", "EncodingError", "build_context", "emit_script",
    "encode_base", "encode_depth_bound", "encode_swap_bound",
    "FEATURE_NAMES", "FeatureVector", "extract_features",
    "RegressionTree", "best_split", "fit",
    "BoundSearchOutcome", "CheckRecord", "InfeasibleError", "SearchError",
    "SolveResult", "run_bound_search", "solve_optimal",
    "__version__",
]

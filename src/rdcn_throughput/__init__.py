"""Reconfigurable-datacenter-network topology synthesis and LP throughput evaluation."""

from .demand import (
    DemandMatrix,
    IntegerResidualDecomposition,
    MatrixParseError,
    NetworkParams,
    UniformResidualClass,
    ValidationReport,
    classify_uniform_residual,
    decompose_integer_residual,
    generate,
    load_csv,
    normalize,
    save_csv,
    validate_hose,
)
from .decomposition import (
    BvnDecomposition,
    DecompositionError,
    PermutationMatching,
    RegularMultigraph,
    bvn_decompose,
    edge_color_regular,
    perfect_matching,
    random_regular_digraph,
)
from .evaluation import (
    Cell,
    HeuristicTrace,
    SweepResult,
    SweepRow,
    build_suite,
    evaluate_cell,
    sweep_degree,
    sweep_matrices,
    throughput_demand_aware,
    throughput_static,
)
from .flowlp import (
    SolverError,
    ThroughputResult,
    VerificationReport,
    export_lp,
    solve_max_throughput,
    verify_solution,
)
from .topology import (
    PeriodicSchedule,
    Topology,
    build_demand_aware_emulated,
    build_demand_aware_periodic,
    build_demand_aware_static,
    build_oblivious_equivalent,
    build_one_shot_integer,
    build_static_expander,
    synthesize_schedule,
)

__version__ = "0.1.0"

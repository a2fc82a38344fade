"""Exact-arithmetic dimension and strength analysis for cutting planes.

The toolkit answers three questions about a mixed-integer hull P using
only an optimization oracle: what is dim(P), which faces do candidate
cutting planes induce (invalid / non-supporting / supporting, with the
face dimension for supporting ones), and how much of the integrality
gap does each cut close under a fixed branch-and-bound node budget.
All arithmetic is rational, so every dimension and verdict is exact.
"""

from .analysis import (
    AnalysisError,
    CutClassification,
    DimensionBin,
    ImpactReport,
    InstanceAnalysis,
    RunRecord,
    Verdict,
    analyze_instance,
    build_histogram,
    classify_cut,
    closed_gap,
    compute_beta_true,
    impact_protocol,
    relative_dimension_bin,
)
from .config import RunConfig, load_config
from .fileio import (
    ParseError,
    parse_cuts,
    read_cuts,
    read_instance,
    write_instance,
    write_report,
)
from .hull import (
    AffineHullResult,
    EquationSystem,
    HullError,
    HullInterrupted,
    InvalidInitialEquationsError,
    affine_hull,
    face_hull,
)
from .model import (
    Inequality,
    MipInstance,
    build_instance,
    evaluate,
    normalize_cut,
    validate_instance,
)
from .mps import MpsParseError, read_instance_mps, write_instance_mps
from .oracle import (
    BruteForceOracle,
    Infeasible,
    MipOracle,
    Optimal,
    OracleError,
    OracleInconclusive,
    OracleSoundnessError,
    PointCache,
    Unbounded,
    enumerate_lattice,
    make_provider,
    oracle_maximize,
)
from .rational import rat, rat_decimal, rat_str
from .simplex import LinearProgram, LPResult, LPStatus, solve_lp
from .solver import (
    SolveOptions,
    SolveResult,
    SolveStatus,
    program_for,
    solve_lp_relaxation,
    solve_mip,
)

__version__ = "0.1.0"

__all__ = [
    "AffineHullResult",
    "AnalysisError",
    "BruteForceOracle",
    "CutClassification",
    "DimensionBin",
    "EquationSystem",
    "HullError",
    "HullInterrupted",
    "ImpactReport",
    "Inequality",
    "Infeasible",
    "InstanceAnalysis",
    "InvalidInitialEquationsError",
    "LinearProgram",
    "LPResult",
    "LPStatus",
    "MipInstance",
    "MipOracle",
    "MpsParseError",
    "Optimal",
    "OracleError",
    "OracleInconclusive",
    "OracleSoundnessError",
    "ParseError",
    "PointCache",
    "RunConfig",
    "RunRecord",
    "SolveOptions",
    "SolveResult",
    "SolveStatus",
    "Unbounded",
    "Verdict",
    "analyze_instance",
    "affine_hull",
    "build_histogram",
    "build_instance",
    "classify_cut",
    "closed_gap",
    "compute_beta_true",
    "enumerate_lattice",
    "evaluate",
    "face_hull",
    "impact_protocol",
    "load_config",
    "make_provider",
    "normalize_cut",
    "oracle_maximize",
    "parse_cuts",
    "program_for",
    "rat",
    "rat_decimal",
    "rat_str",
    "read_cuts",
    "read_instance",
    "read_instance_mps",
    "relative_dimension_bin",
    "solve_lp",
    "solve_lp_relaxation",
    "solve_mip",
    "validate_instance",
    "write_instance",
    "write_instance_mps",
    "write_report",
]

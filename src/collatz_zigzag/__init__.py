"""Exact machinery for prescribing rise/fall patterns to Collatz trajectories.

Given any finite list of run lengths, the package forges an odd integer
whose Collatz trajectory strictly rises and falls in exactly those runs.
The construction is pure integer arithmetic: a bidiagonal chain system links
the multiplier of one run to the next, a closed-form primitive kernel vector
parameterizes all solutions, and a parity-aware shift along the kernel lands
on an all-odd, all-positive solution.  Brute-force scans cross-check the
algebra, and the generalized map family behind the segment formulas is
available alongside the classic Collatz map.
"""

from .chains import (
    ChainSystem,
    SolutionCertificate,
    apply,
    kernel_primitive,
    odd_positive_lift,
    particular_solution,
    solve_odd_positive,
)
from .dynamics import (
    COLLATZ,
    DynamicsParams,
    StepResult,
    Trajectory,
    VerifyResult,
    collatz,
    decreasing_segment,
    extract_pattern,
    general_segment,
    increasing_segment,
    step,
    trajectory,
    verify_pattern,
)
from .forge import (
    InternalVerificationError,
    Witness,
    build_system,
    forge,
    minimal_witness,
    segment_boundaries,
)
from .patterns import DECREASING, FIXED, INCREASING, Pattern, PatternRLE, parse_pattern

__version__ = "0.1.0"

__all__ = [
    "COLLATZ",
    "ChainSystem",
    "DECREASING",
    "DynamicsParams",
    "FIXED",
    "INCREASING",
    "InternalVerificationError",
    "Pattern",
    "PatternRLE",
    "SolutionCertificate",
    "StepResult",
    "Trajectory",
    "VerifyResult",
    "Witness",
    "apply",
    "build_system",
    "collatz",
    "decreasing_segment",
    "extract_pattern",
    "forge",
    "general_segment",
    "increasing_segment",
    "kernel_primitive",
    "minimal_witness",
    "odd_positive_lift",
    "parse_pattern",
    "particular_solution",
    "segment_boundaries",
    "solve_odd_positive",
    "step",
    "trajectory",
    "verify_pattern",
]

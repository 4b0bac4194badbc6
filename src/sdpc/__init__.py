"""Signed-prime difference constructions.

Build pairs of integer sets whose pairwise differences are distinct
signed primes, with residue bookkeeping, admissibility tests, sieved
constellation searches and machine verification of every state.
"""

from .admissible import (
    COMPLETE_RESIDUE_SYSTEM,
    FIXED_PRIME_DIVIDES,
    InadmissibleSystemError,
    Obstruction,
    TupleSystem,
    is_admissible,
)
from .construction import (
    ALL_CERTIFIED,
    CONTAINS_PROBABLE,
    CheckResult,
    Config,
    ConstructionState,
    RunResult,
    StepPlan,
    StepRecord,
    VerifyReport,
    apply_step,
    check_bound,
    compute_K,
    coverage_prefix,
    difference_table,
    extend_pairs,
    initial_state,
    plan_step,
    run,
    signed_primes,
    verify,
)
from .modular import CrtClass, ResidueSet, crt_combine, linear_map_set, mod_inverse
from .pairs import (
    MINUS,
    PLUS,
    PrimeCompatiblePair,
    capacity_bound,
    explicit_pair,
    is_prime_compatible,
    randomized_extend_with_stats,
)
from .primes import (
    PrimalityStatus,
    is_prime,
    is_prime_exact,
    prime_factors,
    primes_in_range,
    primes_up_to,
)
from .rng import CountingRng
from .search import ConstellationTask, search_with_count, sieve_segment
from .stateio import (
    STATE_SCHEMA,
    STATE_VERSION,
    dumps_state,
    load_state,
    loads_state,
    save_state,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_CERTIFIED",
    "COMPLETE_RESIDUE_SYSTEM",
    "CONTAINS_PROBABLE",
    "CheckResult",
    "Config",
    "ConstellationTask",
    "ConstructionState",
    "CountingRng",
    "CrtClass",
    "FIXED_PRIME_DIVIDES",
    "InadmissibleSystemError",
    "MINUS",
    "Obstruction",
    "PLUS",
    "PrimalityStatus",
    "PrimeCompatiblePair",
    "ResidueSet",
    "RunResult",
    "STATE_SCHEMA",
    "STATE_VERSION",
    "StepPlan",
    "StepRecord",
    "TupleSystem",
    "VerifyReport",
    "apply_step",
    "capacity_bound",
    "check_bound",
    "compute_K",
    "coverage_prefix",
    "crt_combine",
    "difference_table",
    "dumps_state",
    "explicit_pair",
    "extend_pairs",
    "initial_state",
    "is_admissible",
    "is_prime",
    "is_prime_compatible",
    "is_prime_exact",
    "linear_map_set",
    "load_state",
    "loads_state",
    "mod_inverse",
    "plan_step",
    "prime_factors",
    "primes_in_range",
    "primes_up_to",
    "randomized_extend_with_stats",
    "run",
    "save_state",
    "search_with_count",
    "sieve_segment",
    "signed_primes",
    "verify",
]

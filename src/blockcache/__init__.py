"""Block-aware caching laboratory: instances, online algorithms, rounding,
and exact offline oracles.  The names imported here are the public API."""

from .instance import (
    Instance,
    InstanceError,
    PolicyTrace,
    RequestIndex,
    gen_beta_off,
    gen_gap_instance,
    gen_random,
)
from .submodular import (
    CoverageOracle,
    Flush,
    FlushSet,
    check_feasible,
    most_violated_constraint,
    x_from_phi,
)
from .det_online import DetResult, DualLedger, run_deterministic
from .frac_online import (
    FracResult,
    FractionalSolution,
    integrate_rate_law,
    phi_closed_form,
    run_fractional,
)
from .rounding import (
    StructuredStream,
    bicriteria_round_evict,
    bicriteria_round_fetch,
    derandomize_ensemble,
    gamma_for,
    randomized_round,
    structure_stream,
)
from .oracle import (
    OracleIntractableError,
    fractional_costs,
    fractional_costs_from_x,
    gap_fractional_solution,
    naive_lp_check,
    opt_eviction,
    opt_eviction_flushsets,
    opt_fetching,
)

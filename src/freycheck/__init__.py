"""freycheck: computational checks around a^p + 2^alpha*b^p + c^p = 0.

The package builds the Frey curve attached to a putative solution,
computes its local invariants twice (once from closed-form tables, once
with a full minimal-model reduction algorithm), evaluates a classical
regularity-based criterion for exponents, tabulates traces of Frobenius
as congruence evidence, and runs exhaustive bounded-height searches for
the equation itself and for arithmetic progressions of perfect powers.
"""

from .arith import (
    DEFAULT_FACTOR_BOUND,
    FactorizationError,
    exact_root,
    factorize,
    is_prime,
    legendre_symbol,
    mult_order,
    primes_up_to,
    valuation,
)
from .denes import DenesReport, bernoulli_mod_p, denes_criterion, denes_scan, is_regular
from .frey import (
    CurveInvariants,
    FreyParams,
    MonomialTriple,
    build_frey,
    canonical_triple,
    cartan_type,
    invariants,
    is_trivial_level,
    normalize,
    reduce_alpha,
)
from .search import (
    SIGMA_PRIMES,
    SearchSpec,
    SolutionRecord,
    classify_search_outcome,
    search_ap_powers,
    search_star,
    verify_theorem_claims,
)
from .tate import LocalData, all_local_data, global_conductor, local_data
from .traces import CongruenceReport, TraceRecord, mod_p_congruent, trace_table
from .weierstrass import WeierstrassModel

__version__ = "0.1.0"

__all__ = [
    "CongruenceReport",
    "CurveInvariants",
    "DEFAULT_FACTOR_BOUND",
    "DenesReport",
    "FactorizationError",
    "FreyParams",
    "LocalData",
    "MonomialTriple",
    "SIGMA_PRIMES",
    "SearchSpec",
    "SolutionRecord",
    "TraceRecord",
    "WeierstrassModel",
    "__version__",
    "all_local_data",
    "bernoulli_mod_p",
    "build_frey",
    "canonical_triple",
    "cartan_type",
    "classify_search_outcome",
    "denes_criterion",
    "denes_scan",
    "exact_root",
    "factorize",
    "global_conductor",
    "invariants",
    "is_prime",
    "is_regular",
    "is_trivial_level",
    "legendre_symbol",
    "local_data",
    "mod_p_congruent",
    "mult_order",
    "normalize",
    "primes_up_to",
    "reduce_alpha",
    "search_ap_powers",
    "search_star",
    "trace_table",
    "valuation",
    "verify_theorem_claims",
]

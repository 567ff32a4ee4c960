"""freycheck: computational checks around a^p + 2^alpha*b^p + c^p = 0.

The package builds the Frey curve attached to a putative solution,
computes its local invariants twice (once from closed-form tables, once
with a full minimal-model reduction algorithm), evaluates a classical
regularity-based criterion for exponents, tabulates traces of Frobenius
as congruence evidence, and runs exhaustive bounded-height searches for
the equation itself and for arithmetic progressions of perfect powers.

Importing the package runs none of its submodules: each is registered in
``sys.modules`` and runs on its first attribute access, so a command
compiles only the modules it uses.
"""

import importlib.util
import sys

__version__ = "0.1.0"

#: The names the package exports, by the submodule that defines them.
_EXPORTS = {
    "arith": (
        "DEFAULT_FACTOR_BOUND", "FactorizationError", "exact_root", "factorize",
        "is_prime", "legendre_symbol", "mult_order", "primes_up_to", "valuation",
    ),
    "denes": ("DenesReport", "bernoulli_mod_p", "denes_criterion", "denes_scan", "is_regular"),
    "frey": (
        "CurveInvariants", "FreyParams", "MonomialTriple", "build_frey", "canonical_triple",
        "cartan_type", "invariants", "is_trivial_level", "normalize",
    ),
    "search": (
        "SIGMA_PRIMES", "SearchSpec", "SolutionRecord", "classify_search_outcome",
        "search_ap_powers", "search_star", "verify_theorem_claims",
    ),
    "tate": ("LocalData", "all_local_data", "global_conductor", "local_data"),
    "traces": ("CongruenceReport", "TraceRecord", "mod_p_congruent", "trace_table"),
    "weierstrass": ("WeierstrassModel",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, "__version__"])


def _register_lazily(name: str) -> None:
    """Register ``freycheck.<name>`` without running it: its source is
    compiled and run on the module's first attribute access (the
    ``importlib.util.LazyLoader`` recipe of the importlib docs)."""
    spec = importlib.util.find_spec(__name__ + "." + name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    # Bound as an import would bind it, so ``from . import <name>`` finds
    # it here and does not load it.
    globals()[name] = module


for _name in _EXPORTS:
    _register_lazily(_name)
del _name


def __getattr__(name: str) -> object:
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))

"""Permutations induced on base-p digit blocks by integer powers.

For a prime p and exponent n, the map x -> x**n scrambles a block of l
base-p digits of the result bijectively as x runs over an arithmetic
progression p*x' + r. This package computes the block offset, builds and
inverts the induced permutations, recovers roots from exact powers, and
provides the binomial-valuation machinery behind the bijectivity argument.
"""

from .coding import (
    CodingParams,
    PermutationTable,
    PowerSpec,
    compose_decomposition,
    decode,
    encode,
    encode_via_composition,
    extended_shift,
    iter_codes,
    permutation_table,
    roots,
    shift,
)
from .errors import (
    DomainError,
    EnumerationBoundExceeded,
    InternalBijectivityViolation,
    PowerPermError,
)
from .padic import PrimeBase, valuation

# Names of the submodules that load on first use, and the names they export.
_LAZY = {
    "analysis": ("AuditResult", "CycleReport", "ScatterData", "audit_bijectivity",
                 "cycle_structure", "export_scatter"),
    "binomial": ("DIRECT_BOUND", "ValuationReport", "kummer_carries", "valuation_direct",
                 "valuation_legendre", "valuation_lemma1"),
}


def __getattr__(name: str):
    """Import analysis or binomial when it, or a name it exports, is first used.

    So neither import powerperm nor the CLI loads them (PEP 562).
    """
    import importlib

    module = name if name in _LAZY else next(
        (module for module, names in _LAZY.items() if name in names), None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f".{module}", __name__)
    return loaded if module == name else getattr(loaded, name)


__version__ = "0.1.0"

__all__ = [
    "AuditResult",
    "CodingParams",
    "CycleReport",
    "DIRECT_BOUND",
    "DomainError",
    "EnumerationBoundExceeded",
    "InternalBijectivityViolation",
    "PermutationTable",
    "PowerPermError",
    "PowerSpec",
    "PrimeBase",
    "ScatterData",
    "ValuationReport",
    "audit_bijectivity",
    "compose_decomposition",
    "cycle_structure",
    "decode",
    "encode",
    "encode_via_composition",
    "export_scatter",
    "extended_shift",
    "iter_codes",
    "kummer_carries",
    "permutation_table",
    "roots",
    "shift",
    "valuation",
    "valuation_direct",
    "valuation_legendre",
    "valuation_lemma1",
]

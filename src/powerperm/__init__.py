"""Permutations induced on base-p digit blocks by integer powers.

For a prime p and exponent n, the map x -> x**n scrambles a block of l
base-p digits of the result bijectively as x runs over an arithmetic
progression p*x' + r. This package computes the block offset, builds and
inverts the induced permutations, recovers roots from exact powers, and
provides the binomial-valuation machinery behind the bijectivity argument.
"""

from .analysis import (
    AuditResult,
    CycleReport,
    ScatterData,
    audit_bijectivity,
    cycle_structure,
    export_scatter,
)
from .binomial import (
    DIRECT_BOUND,
    ValuationReport,
    kummer_carries,
    valuation_direct,
    valuation_legendre,
    valuation_lemma1,
)
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
    reconstruct,
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
    "reconstruct",
    "roots",
    "shift",
    "valuation",
    "valuation_direct",
    "valuation_legendre",
    "valuation_lemma1",
]

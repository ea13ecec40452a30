"""Permutations induced on base-p digit blocks by integer powers.

For a prime p and exponent n, the map x -> x**n scrambles a block of l
base-p digits of the result bijectively as x runs over an arithmetic
progression p*x' + r. This package computes the block offset, builds and
inverts the induced permutations, recovers roots from exact powers, and
provides the binomial-valuation machinery behind the bijectivity argument.
"""

# Each submodule and the public names it defines. None loads until first used,
# since a fresh process pays for every module it imports.
_EXPORTS = {
    "analysis": ("AuditResult", "CycleReport", "ScatterData", "audit_bijectivity",
                 "cycle_structure", "export_scatter"),
    "binomial": ("DIRECT_BOUND", "ValuationReport", "kummer_carries", "valuation_direct",
                 "valuation_legendre", "valuation_lemma1"),
    "coding": ("CodingParams", "PermutationTable", "PowerSpec", "compose_decomposition",
               "decode", "encode", "encode_via_composition", "iter_codes", "permutation_table",
               "roots", "shift"),
    "errors": ("DomainError", "EnumerationBoundExceeded", "InternalBijectivityViolation",
               "PowerPermError"),
    "padic": ("PrimeBase", "valuation"),
}

__version__ = "0.1.0"

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    """Import a submodule when it, or a name it exports, is first used (PEP 562)."""
    import importlib

    module = name if name in _EXPORTS else next(
        (module for module, names in _EXPORTS.items() if name in names), None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f".{module}", __name__)
    return loaded if module == name else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""Records behave as the frozen dataclasses they replaced.

Construction, defaults, argument checks, equality, hashing, immutability
and repr, which messages print.
"""

from __future__ import annotations

import json
import pickle
from array import array

import pytest

from powerperm import coding
from powerperm.analysis import AuditResult, CycleReport, ScatterData
from powerperm.binomial import ValuationReport
from powerperm.coding import CodingParams, PermutationTable, PowerSpec, Root, roots
from powerperm.errors import DomainError, InternalBijectivityViolation
from powerperm.padic import PrimeBase

P3 = PrimeBase(3)
CUBE = PowerSpec(n=3, q=1, k=1)
PARAMS = CodingParams(p=P3, power=CUBE, l=2, r=1)
IMAGE = array("B", [0, 7, 2, 3, 1, 5, 6, 4, 8])
PARAMS_REPR = "CodingParams(p=PrimeBase(p=3), power=PowerSpec(n=3, q=1, k=1), l=2, r=1, j=0)"


def records():
    """(record, its exact repr, a record of the same fields built positionally)."""
    yield P3, "PrimeBase(p=3)", PrimeBase(3)
    yield CUBE, "PowerSpec(n=3, q=1, k=1)", PowerSpec(3, 1, 1)
    yield PARAMS, PARAMS_REPR, CodingParams(P3, CUBE, 2, 1, 0)
    yield (PermutationTable(params=PARAMS, image=IMAGE),
           f"PermutationTable(params={PARAMS_REPR}, image={IMAGE!r})",
           PermutationTable(PARAMS, array("B", IMAGE)))
    yield (AuditResult(PARAMS, ok=True), f"AuditResult(params={PARAMS_REPR}, ok=True, "
           "collision=None)", AuditResult(PARAMS, True, None))
    yield (AuditResult(PARAMS, ok=False, collision=(2, 6)),
           f"AuditResult(params={PARAMS_REPR}, ok=False, collision=(2, 6))",
           AuditResult(PARAMS, False, (2, 6)))
    yield (CycleReport(params=PARAMS, cycle_count=7, cycle_lengths=(1, 1, 1, 1, 1, 1, 3),
                       fixed_points=(0, 2, 3, 5, 6, 8), order=3),
           f"CycleReport(params={PARAMS_REPR}, cycle_count=7, cycle_lengths=(1, 1, 1, 1, 1, "
           "1, 3), fixed_points=(0, 2, 3, 5, 6, 8), order=3)",
           CycleReport(PARAMS, 7, (1, 1, 1, 1, 1, 1, 3), (0, 2, 3, 5, 6, 8), 3))
    yield (ScatterData(params=PARAMS, codes=IMAGE),
           f"ScatterData(params={PARAMS_REPR}, codes={IMAGE!r})",
           ScatterData(PARAMS, array("B", IMAGE)))
    yield (ValuationReport(p=P3, top=9, bottom=3, valuation=2, method="kummer"),
           "ValuationReport(p=PrimeBase(p=3), top=9, bottom=3, valuation=2, method='kummer')",
           ValuationReport(PrimeBase(3), 9, 3, 2, "kummer"))


def test_reprs_are_exact():
    for rec, text, _ in records():
        assert repr(rec) == text
    assert repr(Root(1, 11, 23, 1024)) == "Root(r=1, xprime=11, x=23, modulus=1024)"


def test_equal_fields_make_equal_records():
    for rec, _, same in records():
        assert rec == same and not rec != same
        if not isinstance(rec, (PermutationTable, ScatterData)):  # arrays do not hash
            assert hash(rec) == hash(same)
    assert hash(P3) == hash((3,))  # the tuple of the fields
    assert PARAMS == CodingParams.make(p=3, n=3, l=2, r=1)
    assert PARAMS != CodingParams.make(p=3, n=3, l=2, r=1, j=1)
    assert len({PARAMS, CodingParams.make(3, 3, 2, 1), CodingParams.make(3, 3, 2, 2)}) == 2


def test_records_of_different_classes_differ():
    table = PermutationTable(PARAMS, IMAGE)
    scatter = ScatterData(PARAMS, IMAGE)
    assert table != scatter and not table == scatter
    assert P3 != (3,) and (3,) != P3 and not P3 == (3,)
    assert PowerSpec(1, 1, 0) != (1, 1, 0)
    # Root is a plain namedtuple, and equals a tuple of its fields
    assert Root(1, 11, 23, 1024) == (1, 11, 23, 1024)


def test_records_are_immutable():
    for rec, text, _ in records():
        field = text[text.index("(") + 1:text.index("=")]
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
        with pytest.raises(AttributeError):
            delattr(rec, field)
        with pytest.raises(AttributeError):
            rec.extra = 1
        assert getattr(rec, field) is getattr(rec, field)


def test_defaults_and_keyword_construction():
    assert PARAMS.j == 0
    assert CodingParams(P3, CUBE, 2, 1, j=4).j == 4
    assert AuditResult(PARAMS, True).collision is None
    assert AuditResult(params=PARAMS, ok=False, collision=(0, 1)).collision == (0, 1)
    assert PowerSpec.from_power(12, PrimeBase(2)) == PowerSpec(n=12, q=3, k=2)
    with pytest.raises(TypeError):
        CodingParams(P3, CUBE, 2)
    with pytest.raises(TypeError):
        PowerSpec(3, 1)


def test_records_survive_pickling():
    for rec, _, _ in records():
        assert pickle.loads(pickle.dumps(rec)) == rec


def test_prime_base_checks():
    with pytest.raises(DomainError, match=r"^9 is not prime$"):
        PrimeBase(9)
    with pytest.raises(DomainError, match=r"^1 is not prime$"):
        PrimeBase(p=1)
    with pytest.raises(DomainError, match=r"^base 18446744073709551616 exceeds the "
                                          r"deterministic primality range \(< 2\*\*64\)$"):
        PrimeBase(2**64)


@pytest.mark.parametrize("args, message", [
    ((P3, CUBE, 0, 1), "block width l must be >= 1"),
    ((P3, CUBE, 2, 0), "residue r must satisfy 0 < r < 3; got 0"),
    ((P3, CUBE, 2, 3), "residue r must satisfy 0 < r < 3; got 3"),
    ((P3, CUBE, 2, 1, -1), "j must be >= 0"),
    ((P3, PowerSpec(0, 0, 0), 2, 1), "inconsistent power split PowerSpec(n=0, q=0, k=0)"),
    ((P3, PowerSpec(3, 0, 1), 2, 1), "inconsistent power split PowerSpec(n=3, q=0, k=1)"),
    ((P3, PowerSpec(3, 3, -1), 2, 1), "inconsistent power split PowerSpec(n=3, q=3, k=-1)"),
    ((P3, PowerSpec(9, 1, 1), 2, 1), "inconsistent power split PowerSpec(n=9, q=1, k=1)"),
    ((P3, PowerSpec(9, 9, 0), 2, 1), "unit part q must be coprime to the base"),
    # the checks run in this order
    ((P3, PowerSpec(9, 1, 1), 0, 0, -1), "block width l must be >= 1"),
    ((P3, PowerSpec(9, 1, 1), 2, 0, -1), "residue r must satisfy 0 < r < 3; got 0"),
])
def test_coding_params_checks(args, message):
    with pytest.raises(DomainError) as err:
        CodingParams(*args)
    assert str(err.value) == message


def test_bijectivity_violation_message_embeds_the_repr(monkeypatch):
    # the kernel yields codes with the trivial law, each code its own head
    codes = array("B", [0, 7, 2, 3, 1, 5, 6, 5, 8])

    def fake_chunks(params, law):
        yield codes

    monkeypatch.setattr(coding, "_code_chunks", fake_chunks)
    monkeypatch.setattr(coding, "block_law", lambda params: None)
    with pytest.raises(InternalBijectivityViolation) as err:
        coding.permutation_table(PARAMS)
    assert str(err.value) == f"duplicate output 5 for params {PARAMS_REPR}"


def test_root_as_dict_for_the_cli():
    found = roots(PrimeBase(2), 3, 8, 23**3)
    assert [c._asdict() for c in found] == [{"r": 1, "xprime": 11, "x": 23, "modulus": 512}]
    assert json.dumps(found[0]._asdict()) == '{"r": 1, "xprime": 11, "x": 23, "modulus": 512}'
    assert found[0]._fields == ("r", "xprime", "x", "modulus")

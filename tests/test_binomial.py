from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digit_oracle import to_digits
from powerperm import binomial
from powerperm.errors import DomainError
from powerperm.padic import PrimeBase, valuation

PRIMES = (2, 3, 5, 7)


def comb_valuation(p: int, top: int, bottom: int) -> int:
    # reference: factor p out of math.comb directly
    c = math.comb(top, bottom)
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


# ---------------------------------------------------------------- closed form


def test_prime_power_row_examples():
    assert binomial.valuation_lemma1(PrimeBase(2), 3, 4).valuation == 1
    assert binomial.valuation_lemma1(PrimeBase(3), 2, 3).valuation == 1
    assert binomial.valuation_lemma1(PrimeBase(2), 3, 1).valuation == 3


def test_prime_power_row_reports_top():
    rep = binomial.valuation_lemma1(PrimeBase(2), 3, 4)
    assert rep.top == 8
    assert rep.bottom == 4
    assert rep.method == "lemma1"


def test_prime_power_row_rejects_bad_index():
    with pytest.raises(DomainError, match=r"strictly between 0 and p\*\*k = 8"):
        binomial.valuation_lemma1(PrimeBase(2), 3, 0)
    with pytest.raises(DomainError, match=r"strictly between 0 and p\*\*k = 8"):
        binomial.valuation_lemma1(PrimeBase(2), 3, 8)
    with pytest.raises(DomainError, match=r"strictly between 0 and p\*\*k = 9"):
        binomial.valuation_lemma1(PrimeBase(3), 2, 9)
    with pytest.raises(DomainError, match="k must be >= 1"):
        binomial.valuation_lemma1(PrimeBase(3), 0, 1)


def test_prime_power_row_matches_direct_computation():
    for p in (2, 3, 5):
        base = PrimeBase(p)
        for k in range(1, 5):
            if p**k > 300:
                break
            for j in range(1, p**k):
                want = comb_valuation(p, p**k, j)
                assert binomial.valuation_lemma1(base, k, j).valuation == want, (p, k, j)


def test_prime_power_row_is_k_minus_valuation_of_index():
    base = PrimeBase(3)
    for k in range(1, 7):
        for j in range(1, 3**k, 5):
            got = binomial.valuation_lemma1(base, k, j).valuation
            assert got == k - valuation(j, base)


# ------------------------------------------------------------------- kummer


def test_kummer_examples():
    assert binomial.kummer_carries(PrimeBase(2), 8, 4).valuation == 1
    assert binomial.kummer_carries(PrimeBase(3), 9, 3).valuation == 1
    assert binomial.kummer_carries(PrimeBase(5), 10, 0).valuation == 0


def test_kummer_rejects_bottom_above_top():
    with pytest.raises(DomainError, match="bottom 8 exceeds top 4"):
        binomial.kummer_carries(PrimeBase(2), 4, 8)
    with pytest.raises(DomainError, match="bottom 1 exceeds top 0"):
        binomial.kummer_carries(PrimeBase(2), 0, 1)
    with pytest.raises(DomainError, match="bottom must be non-negative"):
        binomial.kummer_carries(PrimeBase(2), 4, -1)


def test_carries_can_exceed_digitwise_comparison_count():
    # counting positions where a digit of bottom exceeds the digit of top
    # undercounts: a borrow can ripple through equal digits.  Find a witness.
    found = None
    for top in range(2, 101):
        for bottom in range(1, top):
            carries = binomial.kummer_carries(PrimeBase(2), top, bottom).valuation
            td = to_digits(top, 2)
            bd = to_digits(bottom, 2)
            bd = bd + (0,) * (len(td) - len(bd))
            naive = sum(1 for a, b in zip(td, bd) if a < b)
            if carries > naive:
                found = (top, bottom, carries)
                break
        if found:
            break
    assert found is not None
    top, bottom, carries = found
    assert carries == comb_valuation(2, top, bottom)


def digit_loop_carries(p: int, a: int, b: int) -> int:
    # reference: add a and b one base-p digit at a time
    carries = carry = 0
    while a or b or carry:
        a, da = divmod(a, p)
        b, db = divmod(b, p)
        carry = 1 if da + db + carry >= p else 0
        carries += carry
    return carries


def test_kummer_split_matches_the_digit_loop():
    # tops past 64 bits split into halves; carries must ripple across each
    # split, so some addends are runs of p - 1 digits that end near one
    rng = random.Random(20261018)
    for p in (2, 3, 5, 7, 13, 2**61 - 1):
        base = PrimeBase(p)
        for _ in range(150):
            digits = rng.choice((20, 40, 63, 64, 65, 100, 127, 128, 129, 300, 1000))
            run = p ** rng.randint(1, digits) - 1
            a, b = rng.choice((
                (rng.randrange(p**digits), rng.randrange(p**digits)),
                (1, run),
                (run, run),
                (rng.randrange(p**digits), run),
                (p ** rng.randint(1, digits) - rng.randrange(1, p), run),
            ))
            report = binomial.kummer_carries(base, a + b, b)
            assert report.valuation == digit_loop_carries(p, a, b), (p, a, b)
            assert report == binomial.ValuationReport(base, a + b, b, report.valuation, "kummer")


# ----------------------------------------------------------------- legendre


def test_legendre_examples():
    assert binomial.valuation_legendre(PrimeBase(2), 8, 4).valuation == 1
    assert binomial.valuation_legendre(PrimeBase(3), 9, 3).valuation == 1
    assert binomial.valuation_legendre(PrimeBase(7), 6, 3).valuation == 0


def test_legendre_rejects_bottom_above_top():
    with pytest.raises(DomainError, match="bottom 5 exceeds top 2"):
        binomial.valuation_legendre(PrimeBase(3), 2, 5)


# ------------------------------------------------------------------- direct


def test_direct_examples():
    assert binomial.valuation_direct(PrimeBase(2), 8, 4).valuation == 1
    assert binomial.valuation_direct(PrimeBase(3), 9, 9).valuation == 0
    assert binomial.valuation_direct(PrimeBase(2), 10, 5).valuation == 2


def test_direct_enforces_bound():
    with pytest.raises(DomainError, match="exceeds oracle bound"):
        binomial.valuation_direct(PrimeBase(2), binomial.DIRECT_BOUND + 1, 3)
    # at the bound itself it still runs
    assert binomial.valuation_direct(PrimeBase(2), binomial.DIRECT_BOUND, 0).valuation == 0


def test_direct_rejects_bottom_above_top():
    with pytest.raises(DomainError, match="bottom 4 exceeds top 3"):
        binomial.valuation_direct(PrimeBase(2), 3, 4)


# ------------------------------------------------------------- cross checks


@settings(max_examples=300)
@given(
    p=st.sampled_from(PRIMES + (11, 13)),
    top=st.integers(0, 2000),
    data=st.data(),
)
def test_kummer_equals_legendre(p, top, data):
    bottom = data.draw(st.integers(0, top))
    base = PrimeBase(p)
    assert (
        binomial.kummer_carries(base, top, bottom).valuation
        == binomial.valuation_legendre(base, top, bottom).valuation
    )


@settings(max_examples=300)
@given(p=st.sampled_from(PRIMES), top=st.integers(0, 1000), data=st.data())
def test_digit_sum_identity(p, top, data):
    # carries in bottom + (top - bottom) equal the digit-sum excess over p - 1
    bottom = data.draw(st.integers(0, top))
    base = PrimeBase(p)

    def digit_sum(x: int) -> int:
        return sum(to_digits(x, p))

    excess = digit_sum(bottom) + digit_sum(top - bottom) - digit_sum(top)
    assert excess % (p - 1) == 0
    assert binomial.kummer_carries(base, top, bottom).valuation == excess // (p - 1)


@settings(max_examples=200)
@given(p=st.sampled_from(PRIMES), top=st.integers(0, 300), data=st.data())
def test_report_valuation_is_exact(p, top, data):
    bottom = data.draw(st.integers(0, top))
    base = PrimeBase(p)
    v = binomial.valuation_legendre(base, top, bottom).valuation
    c = math.comb(top, bottom)
    assert c % p**v == 0
    assert c % p ** (v + 1) != 0


def test_all_methods_agree_on_dense_grid():
    for p in PRIMES:
        base = PrimeBase(p)
        for top in range(0, 120):
            for bottom in range(0, top + 1):
                v = binomial.kummer_carries(base, top, bottom).valuation
                assert binomial.valuation_legendre(base, top, bottom).valuation == v
                assert binomial.valuation_direct(base, top, bottom).valuation == v

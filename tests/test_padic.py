from __future__ import annotations

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from digit_oracle import from_digits, to_digits
from powerperm import padic
from powerperm.errors import DomainError

PRIMES = (2, 3, 5, 7, 11)


# ---------------------------------------------------------------- primality


def test_validate_prime_accepts_primes():
    for p in (2, 3, 5, 97, 65537, (1 << 61) - 1):
        assert padic.PrimeBase(p).p == p


def test_validate_prime_rejects_composites_and_units():
    for bad in (0, 1, 4, 9, 100, 561, 65538):
        with pytest.raises(DomainError, match=f"^{bad} is not prime$"):
            padic.PrimeBase(bad)


def test_validate_prime_rejects_beyond_deterministic_range():
    with pytest.raises(DomainError, match="exceeds the deterministic primality range"):
        padic.PrimeBase((1 << 64) + 13)
    with pytest.raises(DomainError, match="exceeds the deterministic primality range"):
        padic.PrimeBase(1 << 64)


def test_primality_matches_trial_division_below_2000():
    def trial(n: int) -> bool:
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True

    for n in range(2000):
        try:
            padic.PrimeBase(n)
            got = True
        except DomainError:
            got = False
        assert got == trial(n), n


# ------------------------------------------------------------------- digits
# The digit route lives in tests/digit_oracle.py; these pin it down, since
# the window tests in test_coding.py and test_binomial.py compare against it.


def test_to_digits_examples():
    assert to_digits(26, 3) == (2, 2, 2)
    assert to_digits(0, 5) == ()
    assert to_digits(25, 3) == (1, 2, 2)


def test_from_digits_examples():
    assert from_digits([1, 2, 2], 3) == 25
    assert from_digits([], 7) == 0
    assert from_digits([0, 0, 1], 2) == 4
    assert from_digits(to_digits(25, 3), 3) == 25


def test_round_trip_exhaustive_small():
    # dense slice of the range; the hypothesis test below samples up to 1e6
    for p in PRIMES:
        for x in range(20000):
            ds = to_digits(x, p)
            assert all(0 <= d < p for d in ds)
            assert not ds or ds[-1] != 0
            assert from_digits(ds, p) == x


@given(x=st.integers(0, 10**6), p=st.sampled_from(PRIMES))
def test_round_trip_sampled(x, p):
    assert from_digits(to_digits(x, p), p) == x


# ---------------------------------------------------------------- valuation


def test_valuation_examples():
    assert padic.valuation(12, padic.PrimeBase(2)) == 2
    assert padic.valuation(12, padic.PrimeBase(3)) == 1
    assert padic.valuation(81, padic.PrimeBase(3)) == 4


def test_valuation_undefined_for_zero():
    with pytest.raises(DomainError, match="requires a positive integer"):
        padic.valuation(0, padic.PrimeBase(2))
    with pytest.raises(DomainError, match="requires a positive integer"):
        padic.valuation(-8, padic.PrimeBase(2))


@given(x=st.integers(1, 10**9), p=st.sampled_from(PRIMES))
def test_valuation_is_exact(x, p):
    base = padic.PrimeBase(p)
    v = padic.valuation(x, base)
    assert x % p**v == 0
    assert x % p ** (v + 1) != 0


def test_valuation_of_large_powers():
    # the doubling and halving passes must land on every exponent exactly
    for p in PRIMES:
        base = padic.PrimeBase(p)
        for v in [*range(70), 127, 128, 1000, 4097]:
            for w in (1, p - 1, p + 1, 10**30 * p + 1):
                assert padic.valuation(p**v * w, base) == v, (p, v, w)


def test_valuation_of_a_huge_power_of_three_is_quick():
    base = padic.PrimeBase(3)
    start = time.perf_counter()
    assert padic.valuation(3**200000 * 2, base) == 200000
    assert padic.valuation(3**200000 * 2 + 3, base) == 1
    assert time.perf_counter() - start < 5


# -------------------------------------------------------------- decompose
# x = p**j * (p*x' + r) with 0 < r < p: valuation finds j, and the same
# formula rebuilds x from the parts.


def split(x: int, p: int) -> tuple[int, int, int]:
    j = padic.valuation(x, padic.PrimeBase(p))
    body, residue = divmod(x // p**j, p)
    return j, body, residue


def test_decompose_examples():
    for x, p, parts in ((18, 3, (2, 0, 2)), (25, 3, (0, 8, 1)), (24, 2, (3, 1, 1))):
        j, body, residue = split(x, p)
        assert (j, body, residue) == parts
        assert p**j * (p * body + residue) == x


@given(x=st.integers(1, 10**12), p=st.sampled_from(PRIMES))
def test_decompose_reconstructs(x, p):
    j, body, residue = split(x, p)
    assert 0 < residue < p
    assert p**j * (p * body + residue) == x


"""p-adic valuations of binomial coefficients via four independent routes.

The routes share argument checks but deliberately no arithmetic: a closed
form for C(p**k, j), carry counting in base-p addition, Legendre's factorial
formula, and a brute-force oracle that factors the exact coefficient.
Agreement between them is part of the test contract.
"""

from __future__ import annotations

import math

from ._records import record
from .errors import DomainError
from .padic import PrimeBase, valuation

DIRECT_BOUND = 10_000
# Digits of the pieces that kummer_carries adds digit by digit once it splits.
_KUMMER_DIGITS = 32


class ValuationReport(record("ValuationReport", "p top bottom valuation method")):
    """p-adic valuation of C(top, bottom) together with the route that produced it.

    method names the route: "lemma1", "kummer", "legendre" or "direct".
    """

    __slots__ = ()


def _check_pair(top: int, bottom: int) -> None:
    if bottom < 0:
        raise DomainError("bottom must be non-negative")
    if bottom > top:
        raise DomainError(f"bottom {bottom} exceeds top {top}")


def valuation_lemma1(base: PrimeBase, k: int, j: int) -> ValuationReport:
    """Valuation of C(p**k, j) for 0 < j < p**k.

    If p**h is the exact power of p dividing j, then p**(k-h) is the exact
    power of p dividing C(p**k, j).
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    top = base.p**k
    if not 0 < j < top:
        raise DomainError(f"j must lie strictly between 0 and p**k = {top}")
    h = valuation(j, base)
    return ValuationReport(base, top, j, k - h, "lemma1")


def kummer_carries(base: PrimeBase, top: int, bottom: int) -> ValuationReport:
    """Count carries when adding (top - bottom) and bottom in base p.

    The carry count equals the p-adic valuation of C(top, bottom). Note a
    carry out of one position can propagate through runs of digits summing
    to p-1, so the count may exceed the number of positions where the top
    digit is smaller than the bottom digit.

    A top of at most 64 bits is added digit by digit. A larger one splits
    at p**(_KUMMER_DIGITS * 2**i) into halves, down to _KUMMER_DIGITS digits:
    the low halves' carry out, whether their sum with the carry in reaches
    the split, is the high halves' carry in. So a top of d digits costs a
    few divisions per level rather than d divisions of d digits each.
    """
    _check_pair(top, bottom)
    p = base.p
    # splits[i] = p**(_KUMMER_DIGITS * 2**i), up to the first above top
    splits = [p**_KUMMER_DIGITS] if top >> 64 else []
    while splits and splits[-1] <= top:
        splits.append(splits[-1] ** 2)

    def carries(a: int, b: int, carry: int, i: int) -> int:
        # the carries of a + b + carry, split at splits[i], ..., splits[0]
        if i >= 0:
            a_high, a_low = divmod(a, splits[i])
            b_high, b_low = divmod(b, splits[i])
            low_out = 1 if a_low + b_low + carry >= splits[i] else 0
            return carries(a_low, b_low, carry, i - 1) + carries(a_high, b_high, low_out, i - 1)
        count = 0
        while a or b or carry:
            a, da = divmod(a, p)
            b, db = divmod(b, p)
            carry = 1 if da + db + carry >= p else 0
            count += carry
        return count

    count = carries(top - bottom, bottom, 0, len(splits) - 2)
    return ValuationReport(base, top, bottom, count, "kummer")


def valuation_legendre(base: PrimeBase, top: int, bottom: int) -> ValuationReport:
    """Valuation via Legendre's formula for factorials.

    In digit-sum form v_p(m!) = (m - s_p(m)) / (p - 1), where s_p(m) is the
    sum of m's base-p digits, and the coefficient valuation is
    v_p(top!) - v_p(bottom!) - v_p((top-bottom)!).
    """
    _check_pair(top, bottom)
    p = base.p
    # squares[i] = p**(2**i), up to the largest that is at most top
    squares = [p]
    while squares[-1] ** 2 <= top:
        squares.append(squares[-1] ** 2)

    def digit_sum(m: int, i: int) -> int:
        # m < p**(2**(i+1)): split it into halves of 2**i digits each, so the
        # whole sum costs a few divisions per level rather than one per digit.
        if m < p:
            return m
        high, low = divmod(m, squares[i])
        return digit_sum(high, i - 1) + digit_sum(low, i - 1)

    def fact_val(m: int) -> int:
        return (m - digit_sum(m, len(squares) - 1)) // (p - 1)

    val = fact_val(top) - fact_val(bottom) - fact_val(top - bottom)
    return ValuationReport(base, top, bottom, val, "legendre")


def valuation_direct(base: PrimeBase, top: int, bottom: int) -> ValuationReport:
    """Brute-force oracle: compute C(top, bottom) exactly and divide out p.

    Guarded by DIRECT_BOUND on top so tests cannot accidentally request a
    gigantic coefficient.
    """
    _check_pair(top, bottom)
    if top > DIRECT_BOUND:
        raise DomainError(f"top {top} exceeds oracle bound {DIRECT_BOUND}")
    c = math.comb(top, bottom)
    val = 0
    while c % base.p == 0:
        c //= base.p
        val += 1
    return ValuationReport(base, top, bottom, val, "direct")

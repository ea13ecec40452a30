"""Exact base-p primitives: a verified prime base and valuations.

Everything here works on arbitrary-precision integers.
"""

from __future__ import annotations

from ._records import record
from .errors import DomainError

# Deterministic Miller-Rabin witness set, valid far beyond 2**64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

PRIMALITY_LIMIT = 1 << 64


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeBase(record("PrimeBase", "p")):
    """A prime base p, verified prime at construction.

    Raises DomainError if p >= 2**64 (outside the deterministic test range,
    so larger bases are rejected rather than probabilistically accepted) or
    if p is not prime.
    """

    __slots__ = ()

    def __new__(cls, p: int) -> PrimeBase:
        if p >= PRIMALITY_LIMIT:
            raise DomainError(f"base {p} exceeds the deterministic primality range (< 2**64)")
        if not _is_prime(p):
            raise DomainError(f"{p} is not prime")
        return tuple.__new__(cls, (p,))


def valuation(x: int, base: PrimeBase) -> int:
    """Largest e with p**e dividing x.

    Examples:
        >>> valuation(12, PrimeBase(2))
        2
        >>> valuation(12, PrimeBase(3))
        1
    """
    if x <= 0:
        raise DomainError("valuation requires a positive integer")
    p = base.p
    if p == 2:
        return (x & -x).bit_length() - 1
    if x % p:
        return 0
    # Divide by p, p**2, p**4, ... while they divide; the rest of the
    # valuation is then below the last exponent tried, and its binary digits
    # come from the same powers in reverse. O(log v) divisions in all.
    e, powers = 0, [p]
    while x % powers[-1] == 0:
        x //= powers[-1]
        e += 1 << (len(powers) - 1)
        powers.append(powers[-1] ** 2)
    for i in reversed(range(len(powers) - 1)):
        if x % powers[i] == 0:
            x //= powers[i]
            e += 1 << i
    return e

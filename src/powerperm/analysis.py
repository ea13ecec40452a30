"""Whole-permutation diagnostics: bijectivity audits, cycle structure, scatter data."""

from __future__ import annotations

import math
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator
from itertools import chain

from ._records import record
from .coding import (
    MAX_TABLE_ENTRIES,
    CodingParams,
    PermutationTable,
    block_collision,
    code_array,
    column_law,
)


class AuditResult(record("AuditResult", "params ok collision", defaults=(None,))):
    """Outcome of a full-range duplicate scan; collision holds the first offending pair.

    Fields: params, ok, collision (a pair (y, x) with y < x, or None).
    """

    __slots__ = ()


class CycleReport(record("CycleReport", "params cycle_count cycle_lengths fixed_points order")):
    """Cycle decomposition of a block permutation.

    cycle_lengths and fixed_points are sorted tuples of ints; order is the
    lcm of the cycle lengths.
    """

    __slots__ = ()


class ScatterPoints:
    """Read-only view of the (x', code) pairs over a code array."""

    __slots__ = ("_codes",)

    def __init__(self, codes: array) -> None:
        self._codes = codes

    def __len__(self) -> int:
        return len(self._codes)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return enumerate(self._codes)

    def __getitem__(self, xp: int) -> tuple[int, int]:
        xp = range(len(self._codes))[xp]
        return xp, self._codes[xp]


class ScatterData(record("ScatterData", "params codes")):
    """All (x', encode(x')) pairs, ready for plotting or CSV export.

    codes[x'] is the code of x'; points presents the same data as pairs.
    """

    __slots__ = ()

    @property
    def points(self) -> ScatterPoints:
        return ScatterPoints(self.codes)


def audit_bijectivity(
    params: CodingParams, max_entries: int = MAX_TABLE_ENTRIES
) -> AuditResult:
    """Enumerate every output and report the first duplicate, if any.

    The kernel's column law certifies most blocks without a per-entry scan
    (see coding.block_collision). Memory is the code array, plus one byte
    per block value where the scan runs.
    """
    collision = block_collision(params, code_array(params, max_entries))
    return AuditResult(params, ok=collision is None, collision=collision)


def cycle_structure(table: PermutationTable) -> CycleReport:
    """Cycle decomposition; order is the lcm of the cycle lengths.

    Where coding.column_law gives (span, m, A, B) with m == span, f(u +
    span * v) = sigma[u] + span * ((tops[u] + betas[u] * v) mod p**(l-h)),
    with sigma = A mod span, tops = A // span and units betas = B // span.
    So f is a skew product over the column permutation sigma. For a
    sigma-cycle (u_0 ... u_{m-1}), f**m maps column u_0 onto itself by the
    composed affine map G(v) = alpha + beta * v mod p**(l-h), and each
    t-cycle of G is one f-cycle of length m * t. G's cycle type comes in
    closed form, and fixed points come only from sigma-fixed columns, so
    this costs O(p**h) plus the size of the report; where h == l, sigma is
    f and each G has period 1. Where m < span it walks the table.
    """
    law = column_law(table.params, table.image)
    if law[1] < law[0]:
        return _walk_cycles(table)
    span, _, heads, steps = law
    size = len(table.image)
    period = size // span
    sigma = [a % span for a in heads]
    tops = [a // span for a in heads]
    betas = [b // span for b in steps]
    p = table.params.p.p
    primes = _prime_factors(p - 1)
    counts: Counter[int] = Counter()
    fixed: list[range] = []
    visited = bytearray(span)
    for u0 in range(span):
        if visited[u0]:
            continue
        alpha, beta, m, u = 0, 1, 0, u0
        while not visited[u]:
            visited[u] = 1
            alpha = (tops[u] + betas[u] * alpha) % period
            beta = beta * betas[u] % period
            u = sigma[u]
            m += 1
        for t, count in _affine_cycle_type(alpha, beta, p, period, primes).items():
            counts[m * t] += count
        if m == 1:
            # (beta - 1) * v == -alpha (mod period) holds on no v, or on one
            # class mod period // g.
            g = math.gcd(beta - 1, period)
            if alpha % g == 0:
                step = period // g
                v0 = -(alpha // g) * pow((beta - 1) // g, -1, step) % step
                fixed.append(range(u0 + span * v0, size, span * step))
    return _cycle_report(table.params, counts, chain.from_iterable(fixed))


def _cycle_report(params: CodingParams, counts: Counter, fixed: Iterable[int]) -> CycleReport:
    """The CycleReport of counts, {length: number of cycles}, and the fixed points."""
    return CycleReport(
        params=params,
        cycle_count=sum(counts.values()),
        cycle_lengths=tuple(sorted(counts.elements())),
        fixed_points=tuple(sorted(fixed)),
        order=math.lcm(*counts),
    )


def _prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m >= 1, by trial division."""
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    return out + [m] if m > 1 else out


def _affine_cycle_type(
    alpha: int, beta: int, p: int, period: int, primes: list[int]
) -> dict[int, int]:
    """{t: number of t-cycles} of G(v) = alpha + beta * v mod period.

    period is a power of the prime p, beta is a unit mod period, and primes
    holds every prime dividing p - 1. G**d(v) = beta**d * v + alpha * S_d with
    S_d = 1 + beta + ... + beta**(d-1), so G**d fixes g = gcd(beta**d - 1,
    period) points if g divides alpha * S_d, and none otherwise. ord(G)
    divides phi(period) * period, every cycle length divides ord(G), and
    Moebius inversion over its divisors (fixed points of G**t less the
    points on shorter cycles whose length divides t) counts the points on
    cycles of each exact length. At period 1 this is {1: 1}.
    """

    def fixed(d: int) -> int:
        if beta == 1:
            b, s = 0, d
        else:  # beta**d - 1 is exact mod period * (beta - 1), so S_d is too
            b = pow(beta, d, period * (beta - 1)) - 1
            s = b // (beta - 1)
        g = math.gcd(b, period)
        return g if alpha * s % g == 0 else 0

    order = period * (period - period // p)  # phi(period) * period
    divisors = [1]
    for q in (*primes, p):
        while order % q == 0 and fixed(order // q) == period:
            order //= q
        e = 0
        while order % q ** (e + 1) == 0:
            e += 1
        divisors = [d * q**i for d in divisors for i in range(e + 1)]
    points: dict[int, int] = {}
    for t in sorted(divisors):
        points[t] = fixed(t) - sum(n for d, n in points.items() if t % d == 0)
    return {t: n // t for t, n in points.items() if n}


def _walk_cycles(table: PermutationTable) -> CycleReport:
    """Cycle decomposition by following every entry of the table."""
    image = table.image
    size = len(image)
    visited = bytearray(size)
    counts: Counter[int] = Counter()
    fixed: list[int] = []
    for start in range(size):
        if visited[start]:
            continue
        length = 0
        x = start
        while not visited[x]:
            visited[x] = 1
            x = image[x]
            length += 1
        counts[length] += 1
        if length == 1:
            fixed.append(start)
    return _cycle_report(table.params, counts, fixed)


def export_scatter(
    params: CodingParams, max_entries: int = MAX_TABLE_ENTRIES
) -> ScatterData:
    """Enumerate every code once for plotting."""
    return ScatterData(params=params, codes=code_array(params, max_entries))

"""Whole-permutation diagnostics: bijectivity audits, cycle structure, scatter data."""

from __future__ import annotations

import math
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator

from ._records import record
from .coding import (MAX_TABLE_ENTRIES, CodingParams, PermutationTable, block_law,
                     check_block, code_array, law_collision, law_proves)


class AuditResult(record("AuditResult", "params ok collision", defaults=(None,))):
    """Outcome of a bijectivity audit; collision holds the first offending pair.

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
    """Prove the block a permutation from its column law, or report the first duplicate.

    The proof reads the p**h heads and steps of coding.block_law and builds
    no codes. Where the law is trivial (h = l) or fails, the result is
    coding.law_collision's on coding.code_array. Refuses p**l > max_entries either way.

    Examples:
        >>> from powerperm.coding import CodingParams
        >>> audit_bijectivity(CodingParams.make(p=2, n=3, l=20, r=1)).ok
        True
    """
    check_block(params, max_entries)
    if (law := block_law(params)) is not None and law_proves(params, *law):
        return AuditResult(params, ok=True)
    collision = law_collision(params, *code_array(params, max_entries))
    return AuditResult(params, ok=collision is None, collision=collision)


def cycle_structure(table: PermutationTable) -> CycleReport:
    """Cycle decomposition; order is the lcm of the cycle lengths.

    For odd p, or p == 2 with k == 0, the block is f = g mod p**l for the
    polynomial g(x') = ((p*x' + r)**n - c) / p**a, whose coefficients of
    degree 2 and more are divisible by p. So f mod p**j is the width-j block,
    and g' == q * r**(n-1) mod p (n mod 4 for p == 2) at every point. The
    cycles are lifted one digit at a time from the single point of width 0.
    For an m-cycle through x at width j, f**m maps the lift x + t * p**j to
    x + (a*t + b) * p**j mod p**(j+1), with a = g'**m and b read off the
    table. Where a == 1 mod p, each lift is an m-cycle if b == 0, and they
    form one (m*p)-cycle otherwise, which for j >= 1 grows by p at every
    width above (for p == 2, only where a == 1 mod 4). Otherwise the lift
    t0 = b / (1 - a) is an m-cycle, and the other lifts form (p - 1) / d
    cycles of length m * d, d the order of a. For p == 2 with k >= 1, g' is
    even and f mod 2**j is no function of x' mod 2**j, so the table is walked.

    Examples:
        >>> from powerperm.coding import CodingParams, permutation_table
        >>> report = cycle_structure(permutation_table(CodingParams.make(p=5, n=3, l=2, r=1)))
        >>> report.cycle_lengths, report.fixed_points
        ((1, 4, 20), (0,))
    """
    params, image = table.params, table.image
    p, l, (n, q, k) = params.p.p, params.l, params.power
    # n == 1 mod the exponent of the units mod p**(l+1): x**n == x, the identity
    if (n - 1) % (2 ** max(l - 1, 1) if p == 2 else (p - 1) * p**l) == 0:
        return _cycle_report(params, Counter({1: len(image)}), range(len(image)))
    if p == 2 and k:
        return _walk_cycles(table)
    unit, mod = (n % 4, 4) if p == 2 else (q * pow(params.r, n - 1, p) % p, p)
    counts: Counter[int] = Counter()
    groups, width = {1: [0]}, 1  # m -> one point of each carried m-cycle
    for j in range(l):
        wider, lifted = width * p, {}
        for m, xs in groups.items():
            ys = xs
            for _ in range(m):
                ys = [image[y] % wider for y in ys]
            a = pow(unit, m, mod)  # and f**m(x) = y = x + b * width
            if a % p == 1:
                kept = [x for x, y in zip(xs, ys) if x == y]
                moved = [x for x, y in zip(xs, ys) if x != y]
                lifted.setdefault(m, []).extend(
                    [x + t for t in range(0, wider, width) for x in kept])
                if a == 1 and j:  # growth from width 0 need not last
                    counts[m * p ** (l - j)] += len(moved)
                else:
                    lifted.setdefault(m * p, []).extend(moved)
            else:
                d, inverse = _order(a, p), pow(1 - a, -1, p)
                t0s = [(y - x) // width * inverse % p for x, y in zip(xs, ys)]
                lifted.setdefault(m, []).extend(x + t0 * width for x, t0 in zip(xs, t0s))
                if j == l - 1:  # the last lift: only the number of cycles is needed
                    counts[m * d] += len(xs) * (p - 1) // d
                else:  # one s from each orbit of s -> a * s: g**i for a primitive root g
                    g = next(c for c in range(2, p) if _order(c, p) == p - 1)
                    reps = [pow(g, i, p) for i in range((p - 1) // d)]
                    lifted.setdefault(m * d, []).extend(
                        x + (t0 + s) % p * width for x, t0 in zip(xs, t0s) for s in reps)
        groups = {m: xs for m, xs in lifted.items() if xs}
        width = wider
    counts.update({m: len(xs) for m, xs in groups.items()})
    return _cycle_report(params, +counts, groups.get(1, ()))  # + drops zero counts


def _order(a: int, p: int) -> int:
    """The order of a mod the prime p, from the primes of p - 1 by trial division."""
    d, rest, f = p - 1, p - 1, 2
    while rest > 1:
        f = f if f * f <= rest else rest  # past the square root, rest is prime
        while rest % f == 0:
            rest //= f
            if pow(a, d // f, p) == 1:
                d //= f
        f += 1
    return d


def _cycle_report(params: CodingParams, counts: Counter, fixed: Iterable[int]) -> CycleReport:
    """The CycleReport of counts, {length: number of cycles}, and the fixed points."""
    return CycleReport(
        params=params,
        cycle_count=sum(counts.values()),
        cycle_lengths=tuple(sorted(counts.elements())),
        fixed_points=tuple(sorted(fixed)),
        order=math.lcm(*counts),
    )


def _walk_cycles(table: PermutationTable) -> CycleReport:
    """Cycle decomposition by following each cycle of the table from its first entry."""
    image = table.image
    visited = bytearray(len(image))
    counts: Counter[int] = Counter()
    fixed: list[int] = []
    start = -1
    while (start := visited.find(0, start + 1)) >= 0:
        visited[start] = 1
        length, x = 1, image[start]
        while x != start:
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
    return ScatterData(params=params, codes=code_array(params, max_entries)[0])

"""Independent routes to what the package computes, kept apart from it.

The package reads digit windows with modular arithmetic; tests compare it
against base-p digits by repeated division: expand, slice, reassemble. The
cycle type of a power-map block comes from group theory here, against the
package's digit-by-digit lift. The column law is read back off a code array
here, against the law that coding.block_law computes from the head pass.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable
from itertools import repeat
from typing import Sequence

from powerperm import coding


def to_digits(x: int, p: int) -> tuple[int, ...]:
    """Base-p digits of x >= 0, least significant first; () for 0."""
    out = []
    while x:
        x, d = divmod(x, p)
        out.append(d)
    return tuple(out)


def from_digits(digits: Sequence[int], p: int) -> int:
    """Integer value of base-p digits given least significant first."""
    value = 0
    for d in reversed(digits):
        value = value * p + d
    return value


def power_map_cycles(p: int, n: int, l: int) -> dict[int, int]:
    """{cycle length: number of cycles} of a block with k = 0 and r**n == r mod p.

    Such a block is u -> u**n on the units == 1 mod p modulo p**(l+1), and
    an element of order p**e lies on a cycle of length ord_{p**e}(n). For
    odd p the group is cyclic of order p**l, with phi(p**e) elements of
    order p**e, and ord_{p**e}(n) = d * p**max(0, e - v) for d = ord_p(n) and
    v = v_p(n**d - 1), capped at l (n = 1 has n**d - 1 = 0). For p == 2 it
    is C2 x C_{2**(l-1)}: 1, 3 and 2**e elements of order 1, 2 and 2**e for
    2 <= e <= l - 1 (1 and 1 at l = 1), and ord_{2**e}(n) is found by squaring.
    """
    if p == 2:
        counts = [1, 1] if l == 1 else [1, 3, *(2**e for e in range(2, l))]
        lengths = [1]
        for e in range(1, len(counts)):
            m, x = 1, n % 2**e
            while x != 1:
                m, x = 2 * m, x * x % 2**e
            lengths.append(m)
    else:
        d = next(d for d in range(1, p) if pow(n, d, p) == 1)
        rest, v = pow(n, d, p ** (l + 1)) - 1, 0
        while v < l and rest % p ** (v + 1) == 0:
            v += 1
        counts = [1, *((p - 1) * p ** (e - 1) for e in range(1, l + 1))]
        lengths = [1, *(d * p ** max(0, e - v) for e in range(1, l + 1))]
    cycles: dict[int, int] = {}
    for count, length in zip(counts, lengths):
        cycles[length] = cycles.get(length, 0) + count // length
    return cycles


def column_law(
    params: coding.CodingParams, codes: array
) -> tuple[int, int, array, Iterable[int]]:
    """The kernel's column law read off codes: (span, m, heads, steps).

    With span = p**h for h = _kernel_width(params), heads = codes[:span] and
    steps = codes[span:2 * span] - heads mod p**l, arrays of codes'
    typecode, so that codes[u + span * v] = (heads[u] + steps[u] * v) mod
    p**l for the block's codes. Each steps[u] is m times a unit, and column
    u takes every code of the coset of heads[u] mod m = span once; for p ==
    2 with k >= 1, m = span // 2, column u takes half of the coset and
    column span - 1 - u, the column of -x, the other half. Where h reaches
    l (at l == 1, and for p == 2 with k >= 1 at l == 2), the law is
    trivial: span = m = p**l, heads = codes and steps = repeat(0, p**l),
    which allocates nothing.
    """
    p, l = params.p.p, params.l
    span, size = p ** coding._kernel_width(params), params.size()
    if span == size:
        return size, size, codes, repeat(0, size)
    heads = codes[:span]
    steps = array(codes.typecode, ((b - a) % size for a, b in zip(heads, codes[span:2 * span])))
    return span, span // 2 if p == 2 and params.power.k else span, heads, steps

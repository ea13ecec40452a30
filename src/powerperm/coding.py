"""Bijections induced on l-digit base-p blocks by the map x -> x**n.

For a prime p, exponent n = q * p**k with gcd(q, p) = 1, and any nonzero
residue r, the digits of (p*x' + r)**n at positions [shift, shift + l) run
through every l-digit value exactly once as x' runs over [0, p**l). The
shift is 1 + k, plus one more digit when p == 2 and k >= 1. Everything in
this module computes, inverts, or factors that permutation.
"""

from __future__ import annotations

import sys
from array import array
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, repeat

from ._records import record
from .errors import DomainError, EnumerationBoundExceeded, InternalBijectivityViolation
from .padic import PrimeBase, valuation

# Full-table enumeration refuses to build more than 2**TABLE_BITS entries
# unless told otherwise.
TABLE_BITS = 24
MAX_TABLE_ENTRIES = 1 << TABLE_BITS
# Codes per chunk in which the enumeration kernel hands out per-entry powers.
_HEAD_CHUNK = 1 << 12


class PowerSpec(record("PowerSpec", "n q k")):
    """Exponent n split as n = q * p**k with q coprime to the base."""

    __slots__ = ()

    @classmethod
    def from_power(cls, n: int, base: PrimeBase) -> "PowerSpec":
        if n < 1:
            raise DomainError("exponent must be a positive integer")
        k = valuation(n, base)
        return cls(n=n, q=n // base.p**k, k=k)


class CodingParams(record("CodingParams", "p power l r j")):
    """Parameters of one block permutation.

    p: prime base; power: the exponent split; l: block width in digits;
    r: residue of the argument mod p (never 0); j: exact power of p carried
    by the argument, which moves the digit window but not the induced map.
    """

    __slots__ = ()

    def __new__(
        cls, p: PrimeBase, power: PowerSpec, l: int, r: int, j: int = 0
    ) -> CodingParams:
        base = p.p
        if l < 1:
            raise DomainError("block width l must be >= 1")
        if not 0 < r < base:
            raise DomainError(f"residue r must satisfy 0 < r < {base}; got {r}")
        if j < 0:
            raise DomainError("j must be >= 0")
        if power.n < 1 or power.q < 1 or power.k < 0 or power.q * base**power.k != power.n:
            raise DomainError(f"inconsistent power split {power}")
        if power.q % base == 0:
            raise DomainError("unit part q must be coprime to the base")
        return tuple.__new__(cls, (p, power, l, r, j))

    @classmethod
    def make(cls, p: int, n: int, l: int, r: int, j: int = 0) -> "CodingParams":
        base = PrimeBase(p)
        return cls(p=base, power=PowerSpec.from_power(n, base), l=l, r=r, j=j)

    def size(self) -> int:
        return self.p.p**self.l


class PermutationTable(record("PermutationTable", "params image")):
    """Exhaustive image of one block permutation; image[x'] = encode(x').

    image is an array of the smallest unsigned typecode that holds every
    block value; callers must not mutate it. The block has len(image) entries.
    """

    __slots__ = ()

    def inverse_image(self) -> array:
        """inv with inv[image[x']] == x', in image's typecode.

        Inverts the law (A, B) of block_law, or (image, 0) where that is
        trivial, with span = len(A) and m from _column_modulus. Column U < m
        takes the code c0 + m * t, for c0 = A_U mod m, at v = (V + W * t)
        mod p**l // m, with W = (B_U // m)**-1 and V = -W * (A_U // m). So
        inv steps like the kernel, modulo p**l * span // m:
        inv(c0 + m * t) = U + span * V + span * W * t, and _runs, the
        kernel's stepper, expands it. Where m < span (p == 2 and k >= 1),
        that lands on the doubled domain x' < 2**(l+1), and x = 2*x' + 1 and
        -x share their power, so _runs folds x' >= 2**l to 2**(l+1) - 1 - x':
        its low l + 1 bits flipped.
        """
        image = self.image
        heads, steps = block_law(self.params) or (image, repeat(0))
        span, m = len(heads), _column_modulus(self.params, len(heads))
        period, inv_heads, inv_steps = len(image) // m, [0] * m, [0] * m
        for u, a, b in zip(range(m), heads, steps):
            w = pow(b // m, -1, period)
            inv_heads[a % m] = u + span * (-w * (a // m) % period)
            inv_steps[a % m] = span * w
        fold = self.params.l if m < span else 0
        return _collect(image.typecode, _runs(
            inv_heads, inv_steps, span * period, period, image.typecode, fold))


def shift(power: PowerSpec, base: PrimeBase, j: int = 0) -> int:
    """First digit position of the permuted window in x**n, x = p**j * (p*x'+r).

    Equals 1 + k, plus 1 when p == 2 and k >= 1 (squaring an odd number
    pins the twos digit, so the window starts one place later), plus n*j:
    the factor p**j puts exactly n*j zero digits below the window.
    """
    extra = 1 if (base.p == 2 and power.k >= 1) else 0
    return 1 + power.k + extra + power.n * j


def _window_moduli(params: CodingParams) -> tuple[int, int]:
    """(p**a, p**(a+l)) for the base shift a.

    No digit of the power at or above a + l reaches the window, so every
    power is reduced modulo p**(a+l) and the window is its quotient by p**a.
    """
    pa = params.p.p ** shift(params.power, params.p)
    return pa, pa * params.size()


def encode(params: CodingParams, xp: int) -> int:
    """Window digits of x**n, where x = p**j * (p*xp + r).

    The p**j factor contributes exactly n*j zero digits below the window,
    so the result equals the window of (p*xp + r)**n at the base shift and
    does not depend on j.
    """
    if not 0 <= xp < params.size():
        raise DomainError(f"x' must lie in [0, {params.size()}); got {xp}")
    pa, modulus = _window_moduli(params)
    return pow(params.p.p * xp + params.r, params.power.n, modulus) // pa


def _typecode(bound: int) -> str | None:
    """The smallest unsigned array typecode that holds every value below bound."""
    return next((c for c in "BHILQ" if bound <= 1 << 8 * array(c).itemsize), None)


def _kernel_width(params: CodingParams) -> int:
    """Digits h of the block kernel's head: x' = u + p**h * v with u < p**h.

    Any h below l with 2*h >= l - 1, or 2*h >= l + 1 for p == 2 with k >= 1,
    gives the kernel's law (see block_law). This takes the smallest h
    with 2*h >= l (l + 1 for p == 2 with k >= 1). For odd l, one digit less
    saves powers but takes p times as many lane steps on p times fewer
    lanes, and cost more: (p, n, l) = (11, 11, 5) and (7, 2, 5) built their
    tables slower. l when that reaches l, which it does at l == 1, for
    p == 2 with k >= 1 at l == 2, and when lanes of 4 * p**l do not fit in
    64 bits: that check mirrors the precondition of _runs, which steps the law.
    """
    l = params.l
    h = (l + 2) // 2 if params.p.p == 2 and params.power.k else (l + 1) // 2
    return h if h < l and _typecode(4 * params.size()) else l


def block_law(params: CodingParams) -> tuple[list[int], list[int]] | None:
    """The block's column law (A, B), from the one head pass; None where h = l.

    Write x' = u + p**h * v with u < p**h (h from _kernel_width), so that
    x = y + p**(h+1) * v with y = p*u + r. For n = q * p**k, C(n, i) has
    valuation at least max(0, k - v_p(i)), so each binomial term of degree
    2 or more in v has valuation at least k + 2*(h+1) (less 1 for p == 2
    with k >= 1), which h makes reach a + l for the shift a, whatever k is:

        code(u, v) = (A_u + B_u * v) mod p**l,

    where A_u = code(u, 0) and B_u = y**(n-1) * n * p**(h+1) / p**a mod
    p**l, both from one pow per u. It is the law's one source: _code_chunks
    expands it, law_proves proves it and PermutationTable.inverse_image inverts it.
    """
    h = _kernel_width(params)
    if h == params.l:
        return None
    p, n, r = params.p.p, params.power.n, params.r
    pa, modulus = _window_moduli(params)
    size, scale = params.size(), n * p ** (h + 1) // pa
    ys = range(r, p ** (h + 1) + r, p)
    ds = [pow(y, n - 1, modulus) for y in ys]  # p**l divides modulus: B_u's power too
    return [d * y % modulus // pa for d, y in zip(ds, ys)], [scale * d % size for d in ds]


def _code_chunks(params: CodingParams, law: tuple[list[int], list[int]] | None) -> Iterator:
    """The one enumeration kernel: every code of the block, in x' order, in chunks.

    Expands law, block_law(params): each run of p**h codes from _runs, whose
    run 0 is the heads, out before any lane is stepped. Where law is None
    every code is its own pow, handed out _HEAD_CHUNK codes at a time as
    they are computed.
    """
    size = params.size()
    if law is None:
        p, n, (pa, modulus) = params.p.p, params.power.n, _window_moduli(params)
        ys = range(params.r, p * size + params.r, p)
        for start in range(0, size, _HEAD_CHUNK):
            yield [pow(y, n, modulus) // pa for y in ys[start:start + _HEAD_CHUNK]]
        return
    heads, steps = law
    yield from _runs(heads, steps, size, size // len(heads), _typecode(size))


def _runs(
    heads: list[int], steps: list[int], modulus: int, count: int, typecode: str, fold: int = 0
) -> Iterator[array]:
    """The runs (heads[u] + t * steps[u]) mod modulus for t = 0, ..., count - 1.

    Each run is one int, the bytes of an array of _typecode(4 * modulus) with
    a lane per value: the run before it plus steps, less modulus wherever the
    sum reaches it (for a power of two, its low bits masked). It comes out as
    an array of typecode, the low bytes of each lane where the lanes are
    wider, copied by strided slices. Where fold is set, a value v with bit
    fold set comes out as 2**(fold+1) - 1 - v, and modulus must be
    2**(fold+1). Every heads[u] and steps[u] must lie below modulus, and
    4 * modulus must fit in 64 bits.
    """
    # A lane of w bits holds t = cur + step < 2 * modulus <= 2**(w-1). Adding
    # 2**(w-2) - modulus sets bit w-2 exactly where t >= modulus, with no
    # carry into the next lane.
    lane = _typecode(4 * modulus)
    span, wide, size = len(heads), array(lane).itemsize, array(typecode).itemsize
    top, low = 8 * wide - 2, 0 if sys.byteorder == "little" else wide - size
    ones, cur, step = (int.from_bytes(array(lane, values).tobytes(), sys.byteorder)
                       for values in ([1] * span, heads, steps))
    bias = ones * ((1 << top) - modulus)
    mask = ones * (modulus - 1) if modulus & (modulus - 1) == 0 else 0
    for i in range(count):
        if i:
            t = cur + step
            cur = t & mask if mask else t - (((t + bias) >> top) & ones) * modulus
        run = cur ^ ((cur >> fold) & ones) * (modulus - 1) if fold else cur
        raw = run.to_bytes(span * wide, sys.byteorder)
        if wide != size:
            narrow = bytearray(span * size)
            for b in range(size):
                narrow[b::size] = raw[low + b::wide]
            raw = narrow
        block = array(typecode)
        block.frombytes(raw)
        yield block


def _collect(typecode: str, chunks: Iterable[list[int] | array]) -> array:
    """One array of the given typecode holding every chunk, in order."""
    out = array(typecode)
    for chunk in chunks:
        out.extend(chunk)
    return out


def iter_codes(params: CodingParams) -> Iterator[int]:
    """Yield encode(x') for x' = 0, 1, ..., p**l - 1 from the kernel _code_chunks.

    Where h = l the codes come out _HEAD_CHUNK at a time, as they are
    computed; otherwise the first comes out once block_law has all p**h heads.
    """
    return chain.from_iterable(_code_chunks(params, block_law(params)))


def check_block(params: CodingParams, max_entries: int) -> None:
    """Raise EnumerationBoundExceeded when the block's p**l entries exceed max_entries.

    As p >= 2, l > max_entries.bit_length() is refused from l alone, and
    p**l, which may have millions of digits, is neither built nor printed.
    """
    wide = params.l > max_entries.bit_length()
    if wide or params.size() > max_entries:
        entries = f"{params.p.p}**{params.l}" if wide else params.size()
        raise EnumerationBoundExceeded(
            f"enumeration would need {entries} entries; bound is {max_entries}")


def code_array(
    params: CodingParams, max_entries: int = MAX_TABLE_ENTRIES
) -> tuple[array, tuple[list[int], list[int]] | None]:
    """Every code of the block in x' order, in the smallest array that holds them, and its law.

    The one collector of the block kernel _code_chunks: the law of
    block_law (None where h = l), from which law_collision proves the
    codes, and the kernel's expansion of it, stored. Raises
    EnumerationBoundExceeded when p**l > max_entries.
    """
    check_block(params, max_entries)
    law = block_law(params)
    return _collect(_typecode(params.size()) or "Q", _code_chunks(params, law)), law


def first_collision(codes: array) -> tuple[int, int] | None:
    """The first pair (y, x), y < x, with codes[y] == codes[x], or None.

    One pass, with one byte per block value; codes must lie in
    [0, len(codes)), and IndexError is raised where a code outside is met
    before any repeat.
    """
    seen = bytearray(len(codes))
    for x, z in enumerate(codes):
        if seen[z]:
            return codes.index(z), x
        seen[z] = 1
    return None


def _column_modulus(params: CodingParams, span: int) -> int:
    """m, where each step of a law of span columns is m times a unit: half
    of span for p == 2 with k >= 1 where span < p**l, as column u and its
    partner span - 1 - u, the column of -x, share a coset mod m; else span.
    """
    return span // 2 if params.p.p == 2 and params.power.k and span < params.size() else span


def law_proves(params: CodingParams, heads: Sequence, steps: Sequence | None = None) -> bool:
    """Whether the column law (heads, steps) of block_law makes the block a permutation.

    span = len(heads) and m = _column_modulus(params, span); steps None is
    the trivial law, every code its own head. In O(span): the heads below m
    are distinct mod m, the steps below m are m times a unit, and where
    m < span, column u's partner u* = span - 1 - u (x <-> -x) has
    heads[u*] = heads[u] - steps[u] and steps[u*] = -steps[u] mod p**l.

    Examples:
        >>> params = CodingParams.make(p=7, n=3, l=1, r=2)
        >>> law_proves(params, code_array(params)[0])
        True
        >>> codes = array("B", [3, 1, 4, 1, 5, 0, 2])
        >>> law_proves(params, codes), first_collision(codes)
        (False, (1, 3))
    """
    size, p, span = params.size(), params.p.p, len(heads)
    m = _column_modulus(params, span)
    seen = bytearray(m)  # heads distinct mod m mark every byte
    try:
        for a in heads if steps is None else (a % m for a in heads[:m]):
            seen[a] = 1
    except IndexError:
        return False
    return seen.find(0) < 0 and (steps is None or (
        all(b % m == 0 and b // m % p for b in steps[:m])
        and (m == span or all(a_ == (a - b) % size and b_ == -b % size for a, b, a_, b_
                              in zip(heads[:m], steps[:m], heads[::-1], steps[::-1])))))


def law_collision(params: CodingParams, codes: array, law: tuple | None) -> tuple[int, int] | None:
    """None where law_proves law, the block_law that codes expand; else first_collision."""
    return None if law_proves(params, *(law or (codes,))) else first_collision(codes)


def permutation_table(
    params: CodingParams, max_entries: int = MAX_TABLE_ENTRIES
) -> PermutationTable:
    """Build the full image and verify it is a permutation.

    Raises EnumerationBoundExceeded when p**l > max_entries, and
    InternalBijectivityViolation if a duplicate output ever appears (which
    would be an implementation bug, not a usage error).
    """
    image, law = code_array(params, max_entries)
    if (collision := law_collision(params, image, law)) is not None:
        raise InternalBijectivityViolation(
            f"duplicate output {image[collision[1]]} for params {params}"
        )
    return PermutationTable(params=params, image=image)


def _low_window_value(params: CodingParams, code: int) -> int:
    # x_u**n agrees with r**n on every digit below the shift, so x_u**n mod
    # p**(shift+l) is r**n's tail plus the code placed at the shift.
    pa, _ = _window_moduli(params)
    return pow(params.r, params.power.n, pa) + pa * code


def _decode_unit_exponent(params: CodingParams, code: int) -> int:
    # k == 0: one modular exponentiation inverts the whole map. Divide out
    # the residue to land in the subgroup 1 + pZ mod p**(l+1), whose order
    # is p**l, so the inverse of q = n modulo p**l undoes the power there.
    p, n = params.p.p, params.power.n
    big = p ** (params.l + 1)
    w = _low_window_value(params, code)
    v = w * pow(pow(params.r, n, big), -1, big) % big
    xu = params.r * pow(v, pow(params.power.q, -1, p**params.l), big) % big
    if xu % p != params.r:
        raise InternalBijectivityViolation(f"recovered unit {xu} off-coset")
    return (xu - params.r) // p


def _decode_lift(params: CodingParams, code: int) -> int:
    # p divides n: Hensel lifting with precision doubling. Where y**n == w mod
    # p**(k+t), the terms of degree >= 2 in c of (y + c*p**t)**n vanish mod
    # p**(k+t+s) for s <= t (s < t for p == 2, where C(n, 2) has valuation
    # k - 1), so the next s digits c solve one linear congruence.
    p, l, (n, q, k) = params.p.p, params.l, params.power
    two = int(p == 2)
    w = _low_window_value(params, code)
    y, t, top = params.r, 1 + two, l + 1 + two  # for p == 2, lift x == 1 mod 4
    while t < top:
        s = min(t - two, top - t)
        high = p ** (k + t + s)
        d = pow(y, n - 1, high)
        c = (w - d * y) % high // p ** (k + t) * pow(q * d, -1, p**s) % p**s
        y, t = y + c * p**t, t + s
    if y >= p ** (l + 1):  # only for p == 2: x and -x share their power
        y = p ** (l + 2) - y
    return (y - params.r) // p


def decode(params: CodingParams, code: int) -> int:
    """The unique x' with encode(params, x') == code, without building a table.

    One modular inverse exponent when p does not divide n, Hensel lifting
    with precision doubling otherwise. Bulk callers invert a whole block with
    permutation_table(params).inverse_image().

    Examples:
        >>> params = CodingParams.make(p=3, n=6, l=4, r=2)
        >>> decode(params, encode(params, 50))
        50
    """
    if not 0 <= code < params.size():
        raise DomainError(f"code must lie in [0, {params.size()}); got {code}")
    if params.power.k == 0:
        return _decode_unit_exponent(params, code)
    return _decode_lift(params, code)


class Root(namedtuple("Root", "r xprime x modulus")):
    """Every integer congruent to x modulo modulus, where x = p**j * (p*xprime + r)."""

    __slots__ = ()


def roots(
    base: PrimeBase, n: int, l: int, z: int, max_entries: int = MAX_TABLE_ENTRIES
) -> list[Root]:
    """Every class of x whose power x**n agrees with z up to the window's top digit.

    z = p**(n*j) * w with w a unit. Each residue r with r**n == w below the
    shift decodes w's window once, which fixes x modulo p**(j+l+1). For
    p == 2 and even n, x and -x share their power and the window fixes x
    only up to sign modulo 2**(j+l+2), so both classes come back, the
    decoded one first. Raises EnumerationBoundExceeded when p - 1 > max_entries.
    """
    p = base.p
    power = PowerSpec.from_power(n, base)
    v = valuation(z, base)
    if v % n:
        return []
    if p - 1 > max_entries:
        raise EnumerationBoundExceeded(
            f"enumeration would need {p - 1} entries; bound is {max_entries}")
    j = v // n
    w = z // p**v
    pa = p ** shift(power, base)
    out = []
    for r in range(1, p):
        if pow(r, n, pa) != w % pa:
            continue
        params = CodingParams(p=base, power=power, l=l, r=r, j=j)
        xp = decode(params, w // pa % params.size())
        unit = p * xp + r
        if p == 2 and power.k:
            top = 2 ** (l + 2)
            out += [Root(r, xp, 2**j * unit, 2**j * top),
                    Root(r, (top - unit - r) // p, 2**j * (top - unit), 2**j * top)]
        else:
            out.append(Root(r, xp, p**j * unit, p ** (j + l + 1)))
    return out


def compose_decomposition(params: CodingParams) -> tuple[CodingParams, CodingParams]:
    """Split the map for n = q * p**k into a q-stage and a p**k-stage.

    Returns (f_params, g_params) where f encodes with exponent q at residue
    r, g encodes with exponent p**k at residue g_params.r = r**q mod p, and
    encode(params, x') == encode(g, encode(f, x')) mod p**l for every x'.
    For odd p both stages use block width l and the identity is exact; for
    p == 2 the stages carry one extra digit (width l + 1) because the
    q-stage output is needed modulo 2**(l+2) before the final reduction.
    """
    pw = params.power
    if pw.k == 0 or pw.q == 1:
        raise DomainError(
            f"n = {pw.n} does not split into nontrivial coprime-power factors"
        )
    p = params.p.p
    mid_l = params.l + (1 if p == 2 else 0)
    f_params = CodingParams(
        p=params.p, power=PowerSpec.from_power(pw.q, params.p), l=mid_l, r=params.r
    )
    g_params = CodingParams(
        p=params.p, power=PowerSpec.from_power(p**pw.k, params.p), l=mid_l,
        r=pow(params.r, pw.q, p),
    )
    return f_params, g_params


def encode_via_composition(params: CodingParams, xp: int) -> int:
    """Evaluate the map through its two-stage decomposition."""
    f_params, g_params = compose_decomposition(params)
    return encode(g_params, encode(f_params, xp)) % params.size()

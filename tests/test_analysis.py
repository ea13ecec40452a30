from __future__ import annotations

import math
from array import array

import pytest
from digit_oracle import column_law

from powerperm import analysis, coding
from powerperm.analysis import audit_bijectivity, cycle_structure, export_scatter
from powerperm.coding import CodingParams, encode, permutation_table, shift
from powerperm.errors import EnumerationBoundExceeded


# -------------------------------------------------------------------- audit


def test_audit_passes_on_grid():
    for p in (2, 3, 5):
        for n in (1, 2, 3, 4, 6):
            for r in range(1, p):
                result = audit_bijectivity(CodingParams.make(p=p, n=n, l=3, r=r))
                assert result.ok
                assert result.collision is None


def test_audit_respects_bound():
    with pytest.raises(EnumerationBoundExceeded):
        audit_bijectivity(CodingParams.make(p=2, n=2, l=16, r=1), max_entries=1000)


def test_audit_reports_first_collision(monkeypatch):
    # force a defect: the kernel yields a sequence where value 5 appears at
    # 2 and 6, and the head pass gives the law column_law reads off it,
    # whose heads 0 and 3 share a coset mod 3
    broken = array("B", [0, 3, 5, 1, 7, 2, 5, 4, 6])

    def fake_chunks(params, law):
        yield broken

    monkeypatch.setattr(coding, "_code_chunks", fake_chunks)
    for module in (coding, analysis):
        monkeypatch.setattr(module, "block_law", lambda params: column_law(params, broken)[2:])
    result = audit_bijectivity(CodingParams.make(p=3, n=3, l=2, r=1))
    assert not result.ok
    assert result.collision == (2, 6)


# ------------------------------------------------------------------- cycles


def test_cycle_structure_of_cubing_block():
    table = permutation_table(CodingParams.make(p=3, n=3, l=2, r=1))
    report = cycle_structure(table)
    assert report.fixed_points == (0, 2, 3, 5, 6, 8)
    assert report.cycle_count == 7
    assert report.cycle_lengths == (1, 1, 1, 1, 1, 1, 3)
    assert report.order == 3
    # the one long cycle is 1 -> 7 -> 4 -> 1
    assert table.image[1] == 7
    assert table.image[7] == 4
    assert table.image[4] == 1


def test_cycle_structure_of_identity():
    table = permutation_table(CodingParams.make(p=5, n=1, l=1, r=3))
    report = cycle_structure(table)
    assert report.cycle_count == 5
    assert report.cycle_lengths == (1, 1, 1, 1, 1)
    assert report.fixed_points == (0, 1, 2, 3, 4)
    assert report.order == 1


def test_cycle_lengths_partition_the_block():
    for p, n, l, r in [(2, 2, 6, 1), (3, 6, 3, 2), (5, 3, 2, 4), (7, 2, 2, 3)]:
        table = permutation_table(CodingParams.make(p=p, n=n, l=l, r=r))
        report = cycle_structure(table)
        assert sum(report.cycle_lengths) == len(table)
        assert len(report.fixed_points) == report.cycle_lengths.count(1)


def test_order_annihilates_the_permutation():
    for p, n, l, r in [(3, 3, 2, 1), (2, 4, 5, 1), (5, 2, 2, 2)]:
        table = permutation_table(CodingParams.make(p=p, n=n, l=l, r=r))
        report = cycle_structure(table)
        for x in range(len(table)):
            y = x
            for _ in range(report.order):
                y = table.image[y]
            assert y == x
        # and no smaller positive power works unless the order is 1
        if report.order > 1:
            moved = [x for x in range(len(table)) if table.image[x] != x]
            assert moved


# ------------------------------------------------------- cycles by lifting
#
# cycle_structure lifts the cycles of every block with odd p, or p = 2 and
# k = 0, one digit at a time; each block below is pinned against the walk of
# its table.

# (p, l, n, rs)
LIFT_PINS = (
    # the sweep benchmark's shapes with such blocks, every r
    *((p, l, n, range(1, p)) for p, l, n in ((3, 12, 4), (5, 8, 3), (7, 7, 2), (3, 8, 200),
                                             (2, 16, 5), (11, 5, 11), (13, 4, 7), (5, 6, 25))),
    # n = p**k, as in (11, 5, 11) and (5, 6, 25) above: g' == 1 mod p, so
    # every cycle splits or grows, and the carried cycles grow like p**(l/2)
    (3, 14, 3, (1, 2)), (7, 7, 7, (1, 6)),
    # x**n == x mod 2**17: the identity, answered without a lift
    (2, 16, 2**15 + 1, (1,)),
    # For p = 2, g' == n mod 4 at every point. Where an m-cycle's multiplier
    # n**m is 3 mod 4 and it moves its lifts, it is one 2m-cycle at the next
    # width and need not grow further. Counting such cycles as grown gives
    # the wrong cycle type here from l = 4 on, and on 135 of the 7800 blocks
    # with p <= 13, n <= 60 (odd for p = 2), every r and p**l <= 2**12.
    *((2, l, n, (1,)) for n in (3, 7) for l in range(2, 17)),
)


def assert_lift_matches_walk(p: int, n: int, l: int, r: int) -> None:
    table = permutation_table(CodingParams.make(p=p, n=n, l=l, r=r))
    assert cycle_structure(table) == analysis._walk_cycles(table), table.params


def test_lift_matches_walk_on_pinned_blocks():
    for p, l, n, rs in LIFT_PINS:
        for r in rs:
            assert_lift_matches_walk(p, n, l, r)


def test_last_lift_counts_the_long_cycles_of_a_wide_prime():
    # At l = 1 the one lift is the last, where only the number (p - 1) / d
    # of the long cycles is taken, with d = ord(a) from the primes of p - 1:
    # here d = 2**16 / 2**i, and d = 333334 and 1000002
    for p, rs in ((65537, (1, 2, 3)), (1000003, (1, 2))):
        for r in rs:
            assert_lift_matches_walk(p, 3, 1, r)
    for p in (3, 5, 7, 11, 13, 17, 97, 101, 257):
        for a in range(1, p):
            assert analysis._order(a, p) == next(
                d for d in range(1, p) if pow(a, d, p) == 1), (a, p)


def test_identity_blocks_are_answered_without_a_lift():
    # lam, the exponent of the units mod p**(l+1), is (p - 1) * p**l, or
    # 2**max(l - 1, 1) for p = 2. Where lam divides n - 1, x**n == x there
    # and the block is the identity. The near miss n = 1 + lam // p (taken
    # where it keeps k = 0) is no identity, so it must not take the shortcut.
    for p, ls in ((2, (1, 2, 3, 12)), (3, (1, 2, 7)), (5, (1, 2, 5))):
        for l in ls:
            lam = 2 ** max(l - 1, 1) if p == 2 else (p - 1) * p**l
            for n, identity in ((1 + lam, True), (1 + lam // p, False)):
                if identity or l >= (3 if p == 2 else 2):
                    for r in range(1, p):
                        table = permutation_table(CodingParams.make(p=p, n=n, l=l, r=r))
                        report = cycle_structure(table)
                        assert report == analysis._walk_cycles(table), table.params
                        everything = tuple(range(len(table)))
                        assert (report.fixed_points == everything) == identity, table.params


def test_growth_is_for_good_from_width_one_on():
    # A cycle that grows from width j >= 1 to j + 1 grows at every width above:
    # g(x') = ((p*x' + r)**n - c) / p**a has every coefficient of degree
    # i >= 2, C(n, i) * p**i * r**(n-i) / p**a, divisible by p, so that
    # f**m(x0 + h) == f**m(x0) + (f**m)'(x0) * h (mod p * h**2).
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(1, 61, 2 if p == 2 else 1):
            params = CodingParams.make(p=p, n=n, l=1, r=1)
            a = shift(params.power, params.p)
            assert all(math.comb(n, i) * p**i % p ** (a + 1) == 0 for i in range(2, n + 1))
    # blocks in which a fixed point of width 1 with g' == 1 (mod 4 for p = 2)
    # moves its lifts, and so grows from width 1 on
    grown = 0
    for p in (2, 3, 5, 7):
        for n in range(2, 30, 2 if p == 2 else 1):
            n += p == 2
            for r in range(1, p):
                params = CodingParams.make(p=p, n=n, l=4, r=r)
                unit = n % 4 if p == 2 else params.power.q * pow(r, n - 1, p) % p
                image = permutation_table(params).image
                if unit == 1 and any(image[x] % p == x != image[x] % p**2 for x in range(p)):
                    grown += 1
                    assert_lift_matches_walk(p, n, 4, r)
    assert grown == 43


def test_growth_from_width_zero_is_not_for_good():
    # The lift starts from the one point of width 0. Growth from width j is
    # for good where p * h**2, h = p**j, falls past digit j + 1, as it does
    # for j >= 1 but not j = 0: (p, n, r) = (3, 2, 2) is one 3-cycle at l = 1
    # and three at l = 2. Counting growth from width 0 as for good gave the
    # wrong cycle type on 60 of the 7800 blocks named above.
    for l, lengths in ((1, (3,)), (2, (3, 3, 3)), (3, (9, 9, 9))):
        table = permutation_table(CodingParams.make(p=3, n=2, l=l, r=2))
        assert cycle_structure(table).cycle_lengths == lengths
        assert_lift_matches_walk(3, 2, l, 2)


# ------------------------------------------------------------------ scatter


def test_scatter_matches_quadratic_closed_form():
    data = export_scatter(CodingParams.make(p=2, n=2, l=4, r=1))
    assert tuple(data.points) == tuple((x, x * (x + 1) // 2 % 16) for x in range(16))


def test_scatter_of_identity_is_diagonal():
    data = export_scatter(CodingParams.make(p=5, n=1, l=1, r=1))
    assert tuple(data.points) == tuple((x, x) for x in range(5))


def test_scatter_outputs_are_distinct():
    data = export_scatter(CodingParams.make(p=3, n=6, l=3, r=1))
    zs = [z for _, z in data.points]
    assert sorted(zs) == list(range(27))


def test_scatter_points_index_as_pairs():
    params = CodingParams.make(p=3, n=6, l=3, r=1)
    points = export_scatter(params).points
    assert len(points) == 27
    assert points[5] == (5, encode(params, 5))
    assert points[-1] == (26, encode(params, 26))
    with pytest.raises(IndexError):
        points[27]


def test_scatter_respects_bound():
    with pytest.raises(EnumerationBoundExceeded):
        export_scatter(CodingParams.make(p=2, n=2, l=16, r=1), max_entries=4096)

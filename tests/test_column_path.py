"""inverse_image and cycle_structure from the kernel's column maps.

Both are checked for exact equality against the per-entry loops they
replace, kept here as the reference.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter

from powerperm import coding
from powerperm.analysis import CycleReport, cycle_structure
from powerperm.coding import CodingParams, PermutationTable, column_maps, permutation_table

GRID_PRIMES = (2, 3, 5, 7, 11, 13)
GRID_CAP = 2**12


def loop_inverse(table: PermutationTable) -> array:
    inv = array(table.image.typecode, [0]) * len(table.image)
    for x, z in enumerate(table.image):
        inv[z] = x
    return inv


def loop_cycles(table: PermutationTable) -> CycleReport:
    image = table.image
    visited = bytearray(len(image))
    lengths: list[int] = []
    fixed: list[int] = []
    for start in range(len(image)):
        if visited[start]:
            continue
        length, x = 0, start
        while not visited[x]:
            visited[x] = 1
            x = image[x]
            length += 1
        lengths.append(length)
        if length == 1:
            fixed.append(start)
    lengths.sort()
    return CycleReport(table.params, len(lengths), tuple(lengths), tuple(fixed),
                       math.lcm(*lengths))


def assert_matches_loops(table: PermutationTable) -> None:
    inv, want = table.inverse_image(), loop_inverse(table)
    assert inv.typecode == want.typecode, table.params
    assert inv == want, table.params
    assert cycle_structure(table) == loop_cycles(table), table.params


def test_column_path_matches_loops_on_grid():
    # every r for p in GRID_PRIMES, n <= 29 and p**l <= 2**12
    kinds: Counter[str] = Counter()
    for p in GRID_PRIMES:
        for n in range(1, 30):
            for r in range(1, p):
                l = 1
                while p**l <= GRID_CAP:
                    params = CodingParams.make(p=p, n=n, l=l, r=r)
                    table = permutation_table(params)
                    assert_matches_loops(table)
                    size = params.size()
                    if column_maps(table) is None:
                        kinds["two, k >= 1" if p == 2 and params.power.k else "h = l"] += 1
                    else:
                        kinds["columns"] += 1
                        if n == 1:
                            kinds["identity"] += 1
                            assert cycle_structure(table).fixed_points == tuple(range(size))
                        if coding._typecode(4 * size) != table.image.typecode:
                            kinds["wide lanes"] += 1
                        if pow(r, n, p) != r:
                            kinds["r**n != r"] += 1
                    l += 1
    assert kinds == {"columns": 3658, "two, k >= 1": 168, "h = l": 118,
                     "identity": 136, "wide lanes": 900, "r**n != r": 2101}


def test_column_path_on_larger_blocks():
    # lanes of 'I' under 'H' codes (2**16, 13**4), and 'I' throughout (3**11)
    for p, n, l, r in ((2, 5, 16, 1), (13, 7, 4, 6), (3, 4, 11, 2), (5, 25, 6, 3)):
        table = permutation_table(CodingParams.make(p=p, n=n, l=l, r=r))
        assert column_maps(table) is not None
        assert_matches_loops(table)


def test_column_maps_describe_the_table():
    for p, n, l, r in ((3, 4, 5, 2), (2, 7, 9, 1), (7, 14, 3, 5)):
        table = permutation_table(CodingParams.make(p=p, n=n, l=l, r=r))
        cols = column_maps(table)
        assert sorted(cols.sigma) == list(range(cols.span))
        assert all(b % p for b in cols.betas)
        for u in range(cols.span):
            for v in range(cols.period):
                z = cols.sigma[u] + cols.span * (
                    (cols.tops[u] + cols.betas[u] * v) % cols.period)
                assert table.image[u + cols.span * v] == z


def test_blocks_without_column_maps():
    # p = 2 with k >= 1: B_u has valuation h - 1; p = 3 with n = 9 at l = 2:
    # the shift 3 leaves no room for a linear step below the window
    for p, n, l in ((2, 2, 10), (2, 12, 8), (3, 9, 2)):
        table = permutation_table(CodingParams.make(p=p, n=n, l=l, r=1))
        assert column_maps(table) is None
        assert_matches_loops(table)

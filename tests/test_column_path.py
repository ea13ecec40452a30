"""inverse_image and the bijectivity check from the kernel's columns, and cycle_structure.

Each is checked for exact equality against the per-entry loop it
replaces, kept here (or as coding.first_collision) as the reference.
digit_oracle.column_law reads the column law back off a code array; on
every grid block it equals the law of coding.block_law, which the kernel
expands, the audit proves and inverse_image inverts.
"""

from __future__ import annotations

import math
import tracemalloc
from array import array
from collections import Counter
from itertools import islice

import pytest
from digit_oracle import column_law, power_map_cycles

from powerperm import analysis, coding
from powerperm.analysis import CycleReport, audit_bijectivity, cycle_structure
from powerperm.coding import (
    CodingParams,
    PermutationTable,
    code_array,
    first_collision,
    permutation_table,
)
from powerperm.errors import InternalBijectivityViolation

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


def grid():
    # every r for p in GRID_PRIMES, n <= 29 and p**l <= 2**12
    for p in GRID_PRIMES:
        for n in range(1, 30):
            for r in range(1, p):
                l = 1
                while p**l <= GRID_CAP:
                    yield CodingParams.make(p=p, n=n, l=l, r=r)
                    l += 1


def test_column_path_matches_loops_on_grid():
    kinds: Counter[str] = Counter()
    for params in grid():
        p, n, r = params.p.p, params.power.n, params.r
        table = permutation_table(params)
        assert_matches_loops(table)
        size = params.size()
        span, m, heads, steps = column_law(params, table.image)
        if span == size:
            kinds["h = l"] += 1
            assert m == size and heads == table.image and not any(steps), params
        elif m < span:
            kinds["two, k >= 1"] += 1
        else:
            kinds["columns"] += 1
            if n == 1:
                kinds["identity"] += 1
                assert cycle_structure(table).fixed_points == tuple(range(size))
            if coding._typecode(4 * size) != table.image.typecode:
                kinds["wide lanes"] += 1
            if pow(r, n, p) != r:
                kinds["r**n != r"] += 1
    # "h = l" counts the 1015 blocks at l = 1 and the 14 with p = 2, k >= 1
    # at l = 2: their law is trivial, with m == span
    assert kinds == {"columns": 2775, "two, k >= 1": 140, "h = l": 1029,
                     "identity": 101, "wide lanes": 900, "r**n != r": 1520}


def test_power_map_blocks_match_the_closed_form_on_grid():
    # With k = 0 and r**n == r mod p the block is u -> u**n on the units == 1
    # mod p, whose cycle type power_map_cycles gives in closed form.
    blocks = 0
    for params in grid():
        p, n, l, r = params.p.p, params.power.n, params.l, params.r
        if params.power.k or pow(r, n, p) != r:
            continue
        cycles = power_map_cycles(p, n, l)
        report = cycle_structure(permutation_table(params))
        assert report.cycle_lengths == tuple(sorted(Counter(cycles).elements())), params
        assert report.cycle_count == sum(cycles.values()), params
        assert report.order == math.lcm(*cycles), params
        blocks += 1
    assert blocks == 1352


def test_column_path_on_larger_blocks():
    # lanes of 'I' under 'H' codes (2**16, 13**4), and 'I' throughout (3**11)
    for p, n, l, r in ((2, 5, 16, 1), (13, 7, 4, 6), (3, 4, 11, 2), (5, 25, 6, 3)):
        table = permutation_table(CodingParams.make(p=p, n=n, l=l, r=r))
        span, m, _, _ = column_law(table.params, table.image)
        assert m == span
        assert_matches_loops(table)


def test_column_law_describes_the_table():
    # the last two have p = 2 with k >= 1, where each column covers half a coset
    for p, n, l, r in ((3, 4, 5, 2), (2, 7, 9, 1), (7, 14, 3, 5), (2, 6, 9, 1), (2, 12, 10, 1)):
        params = CodingParams.make(p=p, n=n, l=l, r=r)
        image = permutation_table(params).image
        size = len(image)
        span, m, heads, steps = column_law(params, image)
        assert span == p ** coding._kernel_width(params)
        assert m == (span // 2 if p == 2 and params.power.k else span)
        assert heads.typecode == steps.typecode == image.typecode
        assert sorted(a % m for a in heads[:m]) == list(range(m))
        assert all(b % m == 0 and b // m % p for b in steps)
        for u in range(span):
            for v in range(size // span):
                assert image[u + span * v] == (heads[u] + steps[u] * v) % size
        if m < span:
            # column span - 1 - u, the column of -x, continues column u
            for u in range(span):
                assert heads[span - 1 - u] == (heads[u] - steps[u]) % size
                assert steps[span - 1 - u] == -steps[u] % size


def test_half_coset_and_trivial_laws():
    # p = 2 with k >= 1: B_u has valuation h - 1, so m = span // 2; at l = 2
    # the sign pairing needs h = l, so the law is trivial, with one code per
    # column. p = 3 with n = 9 at l = 2 has its shift 3 past l, and columns
    # like any other block.
    for p, n, l in ((2, 2, 10), (2, 12, 8), (2, 2, 2), (3, 9, 2)):
        table = permutation_table(CodingParams.make(p=p, n=n, l=l, r=1))
        span, m, heads, steps = column_law(table.params, table.image)
        if p == 3:
            assert m == span == 3
        elif l == 2:
            assert (span, m, heads, list(steps)) == (4, 4, table.image, [0] * 4)
        else:
            assert m == span // 2 < span < len(table.image)
        assert_matches_loops(table)


# (p, n, l) whose shift 1 + k (+1) exceeds l, of 2**12 codes and more:
# 4096 to 15625. The kernel's width does not depend on k, so these
# step lanes and are certified like any other block.
HIGH_SHIFT_BLOCKS = ((2, 2**13, 12), (3, 3**8, 8), (2, 3 * 2**13, 12), (5, 5**6, 6))


def test_high_shift_blocks_match_the_loops():
    for p, n, l in HIGH_SHIFT_BLOCKS:
        for r in range(1, p):
            params = CodingParams.make(p=p, n=n, l=l, r=r)
            size = params.size()
            codes = array(code_array(params)[0].typecode,
                          [coding.encode(params, x) for x in range(size)])
            assert size >= 2**12
            assert coding.shift(params.power, params.p) > l > coding._kernel_width(params)
            table = permutation_table(params)
            assert table.image == codes
            assert audit_bijectivity(params) == analysis.AuditResult(params, True, None)
            assert first_collision(codes) is None
            kernel_codes, (heads, steps) = kernel(params)
            assert kernel_codes == codes
            assert proves(params, codes, (heads, steps))
            # the last head duplicates the first: the proof fails, and the
            # scan locates the pair
            duplicated = [*heads[:-1], heads[0]]
            twin = law_array(codes.typecode, duplicated, steps, size)
            want = (0, len(heads) - 1)
            assert coding.law_collision(params, twin, (duplicated, steps)) == want
            assert first_collision(twin) == want
            assert_matches_loops(table)


def test_sign_fold_inverse_on_larger_blocks():
    # p = 2 with k >= 1: lanes of 'I' under 'I' codes (2**16, 2**17), and of
    # 'I' under 'H' codes (2**14, where the doubled domain needs wider lanes)
    for n, l in ((6, 16), (96, 14), (2, 17)):
        table = permutation_table(CodingParams.make(p=2, n=n, l=l, r=1))
        span, m, _, _ = column_law(table.params, table.image)
        assert m == span // 2
        assert_matches_loops(table)


# ------------------------------------------- the column law as a certificate


# the kernel and its law themselves, even where a test injects codes
KERNEL, BLOCK_LAW = coding._code_chunks, coding.block_law


def kernel(params: CodingParams):
    """The law of block_law and the kernel's codes, its expansion, stored: (codes, law)."""
    law = BLOCK_LAW(params)
    return coding._collect(coding._typecode(params.size()) or "Q", KERNEL(params, law)), law


def proves(params: CodingParams, codes: array, law) -> bool:
    """Whether the law test alone proves codes, with no scan."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coding, "first_collision", lambda codes: "scanned")
        return coding.law_collision(params, codes, law) is None


def inject(monkeypatch, codes: array, law) -> None:
    """Make block_law give law and the kernel expand it to codes, whatever the params."""
    def chunks(params, law):
        yield codes.tolist()

    monkeypatch.setattr(coding, "_code_chunks", chunks)
    monkeypatch.setattr(coding, "block_law", lambda params: law)
    monkeypatch.setattr(analysis, "block_law", lambda params: law)


def test_kernel_codes_are_their_law_expanded_on_grid():
    # The proof reads the kernel's law, not its codes, so the codes must be
    # the law's expansion. The law is the one column_law reads off them, or
    # None (each code its own head) exactly where h = l, and it is block_law's,
    # from which the audit proves the block.
    for params in grid():
        codes, law = kernel(params)
        size = params.size()
        assert (law is None) == (coding._kernel_width(params) == params.l), params
        assert law == coding.block_law(params), params
        if law is not None:
            heads, steps = law
            assert codes == law_array(codes.typecode, heads, steps, size), params
            span, _, read_heads, read_steps = column_law(params, codes)
            assert (heads, steps) == (read_heads.tolist(), read_steps.tolist()), params
            assert max(heads + steps) < size and span == len(heads), params


def test_column_law_certifies_exactly_the_kernel_blocks_on_grid(monkeypatch):
    # Every block is proved by the law the kernel built it from, those with a
    # trivial law (h = l) too; the scan, patched to raise, never runs.
    def no_scan(codes):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(coding, "first_collision", no_scan)
    kinds: Counter[str] = Counter()
    for params in grid():
        codes, law = kernel(params)
        assert coding.law_collision(params, codes, law) is None, params
        assert first_collision(codes) is None, params
        two = params.p.p == 2 and params.power.k > 0
        kinds["certified" + (", two, k >= 1" if two else "")] += 1
    # the 1001 other blocks at l = 1, and the 28 with p = 2, k >= 1 (14 at
    # l = 1, 14 at l = 2), are certified by their trivial law, whose heads
    # are every code
    assert kinds == {"certified": 3776, "certified, two, k >= 1": 168}


def test_trivial_law_proves_a_wide_block_in_a_byte_per_entry(monkeypatch):
    # An l = 1 block of 65537 codes is proved by its heads alone: no scan,
    # and no array of zero steps, so the proof holds the marks only.
    params = CodingParams.make(p=65537, n=3, l=1, r=1)
    codes, law = kernel(params)
    assert coding._kernel_width(params) == params.l and law is None

    def no_scan(codes):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(coding, "first_collision", no_scan)
    assert coding.law_collision(params, *code_array(params)) is None
    tracemalloc.start()
    try:
        assert coding.law_collision(params, codes, law) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * len(codes)
    duplicated = array(codes.typecode, codes)
    duplicated[-1] = duplicated[0]
    with pytest.raises(AssertionError, match="the scan ran"):
        coding.law_collision(params, duplicated, None)


def test_trivial_law_reports_what_the_scan_reports():
    # A trivial law marks its codes as they are, so a code of p**l stops the
    # marking; the scan then reports the pair met before it, or IndexError.
    params = CodingParams.make(p=7, n=3, l=1, r=2)
    for codes, want in (([3, 3, 7, 0, 1, 2, 4], (0, 1)), ([3, 7, 3, 0, 1, 2, 4], IndexError),
                        ([0, 1, 2, 3, 4, 5, 7], IndexError)):
        codes = array("B", codes)
        assert outcome(lambda c: coding.law_collision(params, c, None), codes) == want
        assert outcome(first_collision, codes) == want


def test_table_and_audit_step_lanes_once(monkeypatch):
    # a table's only lane stepping is the kernel's own pass: the proof reads
    # its law, and a trivial law (65537, 3, 1) steps no lanes at all; an
    # audit proves the law of the head pass and steps none
    calls = []
    stepper = coding._runs

    def counting(*args):
        calls.append(args)
        return stepper(*args)

    monkeypatch.setattr(coding, "_runs", counting)
    for p, n, l, want in ((2, 6, 16, 1), (3, 4, 10, 1), (65537, 3, 1, 0)):
        params = CodingParams.make(p=p, n=n, l=l, r=1)
        for build in (permutation_table, audit_bijectivity):
            calls.clear()
            build(params)
            assert len(calls) == (want if build is permutation_table else 0), (params, build)


def test_every_whole_block_call_runs_one_head_pass(monkeypatch):
    # block_law is the only head pass, and each call runs it once, from
    # whichever module calls it
    calls = []
    for module in (coding, analysis):
        def counting(params, law=module.block_law):
            calls.append(params)
            return law(params)

        monkeypatch.setattr(module, "block_law", counting)
    for p, n, l in ((2, 6, 16), (3, 4, 10)):
        params = CodingParams.make(p=p, n=n, l=l, r=1)
        for build in (permutation_table, code_array, analysis.export_scatter,
                      lambda params: list(coding.iter_codes(params)), audit_bijectivity):
            calls.clear()
            build(params)
            assert calls == [params], (params, build)
    # a built table's inverse runs its own; on the trivial law of (65537, 3,
    # 1), outside the grid, block_law gives None and the image is inverted
    for p, n, l in ((2, 6, 16), (3, 4, 10), (65537, 3, 1)):
        table = permutation_table(CodingParams.make(p=p, n=n, l=l, r=1))
        calls.clear()
        assert table.inverse_image() == loop_inverse(table)
        assert calls == [table.params], table.params


def test_iter_codes_yields_the_heads_before_stepping(monkeypatch):
    # the first p**h codes are the law's heads, run 0 of the lane stepper;
    # only the next one steps lanes
    runs = coding._runs

    def no_lanes(*args):
        yield next(runs(*args))
        raise AssertionError("lanes were stepped")

    monkeypatch.setattr(coding, "_runs", no_lanes)
    for p, n, l in ((2, 6, 16), (3, 4, 10)):
        params = CodingParams.make(p=p, n=n, l=l, r=1)
        span = p ** coding._kernel_width(params)
        codes = coding.iter_codes(params)
        assert list(islice(codes, span)) == [coding.encode(params, x) for x in range(span)]
        with pytest.raises(AssertionError, match="lanes were stepped"):
            next(codes)


def test_audit_proves_the_head_law_without_stepping_on_grid(monkeypatch):
    # Where h < l the audit proves the law of the head pass alone: the lane
    # stepper, patched to raise, never runs, and the verdict is the scan's.
    wants = [(params, first_collision(code_array(params)[0])) for params in grid()]

    def no_lanes(*args):
        raise AssertionError("lanes were stepped")

    monkeypatch.setattr(coding, "_runs", no_lanes)
    for params, want in wants:
        assert audit_bijectivity(params) == analysis.AuditResult(params, want is None, want)


# (p, n, l, r) with k = 0 and k >= 1 for odd p and for p = 2, each certified;
# the last three have lanes wider than their codes: 'I' under 'H' codes, for
# p = 2 with k >= 1 too, and 'H' under 'B' codes
CERTIFIED = ((3, 4, 7, 2), (3, 6, 7, 1), (5, 10, 5, 3), (7, 14, 4, 5), (2, 3, 12, 1),
             (2, 6, 12, 1), (2, 12, 13, 1), (13, 7, 4, 6), (2, 6, 15, 1), (3, 4, 5, 2))


def law_array(typecode: str, heads: list[int], steps: list[int], size: int) -> array:
    # codes[u + span * v] = (heads[u] + steps[u] * v) mod size
    span = len(heads)
    return array(typecode, [(heads[x % span] + steps[x % span] * (x // span)) % size
                            for x in range(size)])


def mutants(params: CodingParams):
    """(label, codes, law): the block's codes changed in one way each.

    law is the law the codes were built from: (heads, steps) for a law
    mutant, and None, the trivial law every array obeys (each code its own
    head), for an array-only mutant, since no law of p**h columns builds it.
    """
    codes, (heads, steps) = kernel(params)
    size, typecode = len(codes), codes.typecode
    p = params.p.p
    span = len(heads)
    last = size - span  # first index of the last block
    swapped = array(typecode, codes)
    swapped[last + 1], swapped[last + 2] = swapped[last + 2], swapped[last + 1]
    yield "two entries swapped in the last block", swapped, None
    for x in (span, last + span // 2, size - 1):
        duplicated = array(typecode, codes)
        duplicated[x] = duplicated[x - 1]
        yield f"entry {x} duplicates its neighbour", duplicated, None
    high = array(typecode, codes)
    high[span // 2] = size
    yield "a head entry equal to p**l", high, None
    yield "the unmutated law, rebuilt", law_array(typecode, heads, steps, size), (heads, steps)
    # column 1 (with its partner span - 2 where p = 2, k >= 1) copies column 0
    h2, s2 = list(heads), list(steps)
    h2[1], s2[1] = heads[0], steps[0]
    if p == 2 and params.power.k:
        h2[span - 2], s2[span - 2] = heads[-1], steps[-1]
    yield "two columns on one coset", law_array(typecode, h2, s2, size), (h2, s2)
    if p == 2 and params.power.k:
        # column 1 and its partner span - 2, each pair as (A_1, B_1, A_1*, B_1*)
        a, b = heads[1], steps[1]
        for label, pair in (("a step of valuation h", (a, 2 * b, a - 2 * b, -2 * b)),
                            ("a partner step of the same sign", (a, b, a - b, b)),
                            ("a partner head off by 2**h", (a, b, a - b + span, -b))):
            h2, s2 = list(heads), list(steps)
            h2[1], s2[1], h2[span - 2], s2[span - 2] = (v % size for v in pair)
            yield f"a broken pair: {label}", law_array(typecode, h2, s2, size), (h2, s2)
    else:
        s2 = list(steps)
        s2[1] = s2[1] * p % size
        yield "a step of valuation h + 1", law_array(typecode, heads, s2, size), (heads, s2)
    yield "codes wider than the lanes", array("Q", codes), None


def outcome(check, codes):
    try:
        return check(codes)
    except IndexError:
        return IndexError


def test_column_law_agrees_with_the_scan_on_mutated_arrays():
    kinds: Counter[str] = Counter()
    for p, n, l, r in CERTIFIED:
        params = CodingParams.make(p=p, n=n, l=l, r=r)
        assert proves(params, *kernel(params)), params
        for label, codes, law in mutants(params):
            want = outcome(first_collision, codes)
            if law is not None:  # the law test decides, and the scan locates
                got = outcome(lambda c: coding.law_collision(params, c, law), codes)
                assert got == want, (params, label)
                certified = proves(params, codes, law)
                assert certified == (label == "the unmutated law, rebuilt"), (params, label)
                assert certified == (want is None), (params, label)
            kinds["collision" if isinstance(want, tuple) else str(want)] += 1
    # every broken law and every duplicate collides; swaps and widening keep a permutation
    assert kinds == {"collision": 56, "None": 30, "<class 'IndexError'>": 10}


def test_table_and_audit_report_mutants_as_the_scan_does(monkeypatch):
    for p, n, l, r in CERTIFIED:
        params = CodingParams.make(p=p, n=n, l=l, r=r)
        for label, codes, law in mutants(params):
            inject(monkeypatch, codes, law)
            want = outcome(first_collision, codes)
            if want is IndexError:
                with pytest.raises(IndexError):
                    permutation_table(params)
                with pytest.raises(IndexError):
                    audit_bijectivity(params)
                continue
            audit = audit_bijectivity(params)
            assert (audit.ok, audit.collision) == (want is None, want), (params, label)
            if want is None:
                assert permutation_table(params).image == codes
            else:
                with pytest.raises(InternalBijectivityViolation) as err:
                    permutation_table(params)
                assert str(err.value) == f"duplicate output {codes[want[1]]} for params {params}"

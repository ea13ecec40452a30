from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from array import array
from itertools import islice, product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digit_oracle import from_digits, to_digits
from powerperm import coding
from powerperm.analysis import audit_bijectivity, export_scatter
from powerperm.coding import (
    CodingParams,
    PowerSpec,
    code_array,
    compose_decomposition,
    decode,
    encode,
    encode_via_composition,
    iter_codes,
    permutation_table,
    roots,
    shift,
)
from powerperm.errors import DomainError, EnumerationBoundExceeded
from powerperm.padic import PrimeBase


def window_of_power(x: int, n: int, p: int, start: int, width: int) -> int:
    # independent oracle: expand x**n in base p and read the digit slice
    chunk = to_digits(x**n, p)[start : start + width]
    return from_digits(chunk, p)


def window_start(params: CodingParams) -> int:
    # the window's position in x**n for x = p**j * (p*x' + r)
    return shift(params.power, params.p, params.j)


# -------------------------------------------------------------- power split


def test_power_spec_examples():
    b3 = PrimeBase(3)
    assert PowerSpec.from_power(18, b3) == PowerSpec(n=18, q=2, k=2)
    assert PowerSpec.from_power(5, b3) == PowerSpec(n=5, q=5, k=0)
    assert PowerSpec.from_power(24, PrimeBase(2)) == PowerSpec(n=24, q=3, k=3)
    assert PowerSpec.from_power(7, PrimeBase(7)) == PowerSpec(n=7, q=1, k=1)


def test_power_spec_splits_n_by_its_valuation():
    for p in (2, 3, 5, 7, 2**61 - 1):
        base = PrimeBase(p)
        for n in range(1, 3001):
            power = PowerSpec.from_power(n, base)
            assert power.q * p**power.k == n and power.q % p != 0
    # O(log k) divisions, not one per factor of p
    start = time.perf_counter()
    for q, p, k in ((7, 3, 5000), (3, 2, 100000)):
        n = q * p**k
        assert PowerSpec.from_power(n, PrimeBase(p)) == PowerSpec(n=n, q=q, k=k)
    assert time.perf_counter() - start < 1


def test_power_spec_rejects_nonpositive():
    with pytest.raises(DomainError):
        PowerSpec.from_power(0, PrimeBase(3))
    with pytest.raises(DomainError):
        PowerSpec.from_power(-2, PrimeBase(3))


def test_params_validation():
    with pytest.raises(DomainError):
        CodingParams.make(p=3, n=3, l=2, r=0)
    with pytest.raises(DomainError):
        CodingParams.make(p=3, n=3, l=2, r=3)
    with pytest.raises(DomainError):
        CodingParams.make(p=3, n=3, l=0, r=1)
    with pytest.raises(DomainError):
        CodingParams.make(p=3, n=3, l=2, r=1, j=-1)
    with pytest.raises(DomainError):
        # inconsistent hand-built split
        CodingParams(p=PrimeBase(3), power=PowerSpec(n=6, q=3, k=1), l=2, r=1)
    with pytest.raises(DomainError):
        CodingParams(p=PrimeBase(3), power=PowerSpec(n=9, q=3, k=1), l=2, r=1)


def test_params_size():
    assert CodingParams.make(p=3, n=3, l=2, r=1).size() == 9
    assert CodingParams.make(p=2, n=2, l=10, r=1).size() == 1024


# -------------------------------------------------------------------- shift


def test_shift_examples():
    assert shift(PowerSpec.from_power(3, PrimeBase(3)), PrimeBase(3)) == 2
    assert shift(PowerSpec.from_power(2, PrimeBase(2)), PrimeBase(2)) == 3
    assert shift(PowerSpec.from_power(5, PrimeBase(3)), PrimeBase(3)) == 1


def test_shift_coprime_exponent_is_one():
    for p in (2, 3, 5, 7):
        base = PrimeBase(p)
        for n in range(1, 30):
            if n % p:
                assert shift(PowerSpec.from_power(n, base), base) == 1


def test_shift_two_gets_extra_digit():
    b2 = PrimeBase(2)
    assert shift(PowerSpec.from_power(4, b2), b2) == 4  # k=2: 1+2+1
    assert shift(PowerSpec.from_power(12, b2), b2) == 4  # k=2
    assert shift(PowerSpec.from_power(3, b2), b2) == 1  # k=0: no extra
    b5 = PrimeBase(5)
    assert shift(PowerSpec.from_power(25, b5), b5) == 3  # k=2, odd p: 1+2


def test_shift_with_j_examples():
    assert window_start(CodingParams.make(p=3, n=3, l=2, r=1, j=1)) == 5
    assert window_start(CodingParams.make(p=2, n=2, l=3, r=1, j=0)) == 3
    assert window_start(CodingParams.make(p=5, n=1, l=1, r=3, j=2)) == 3


# ------------------------------------------------------------------- encode


def test_encode_examples():
    assert encode(CodingParams.make(p=3, n=3, l=2, r=1), 1) == 7
    assert encode(CodingParams.make(p=3, n=3, l=2, r=2), 4) == 7
    assert encode(CodingParams.make(p=2, n=2, l=3, r=1), 5) == 7


def test_encode_rejects_out_of_range():
    params = CodingParams.make(p=3, n=3, l=2, r=1)
    with pytest.raises(DomainError):
        encode(params, -1)
    with pytest.raises(DomainError):
        encode(params, 9)


def test_encode_matches_digit_window_of_full_power():
    # the defining property: the code is the digit slice of x**n starting at
    # the (extended) shift, with x = p**j * (p*x' + r)
    cases = [
        (3, 3, 2, 1),
        (3, 3, 2, 2),
        (2, 2, 3, 1),
        (2, 4, 3, 1),
        (2, 6, 2, 1),
        (5, 10, 2, 3),
        (7, 7, 1, 4),
        (3, 5, 2, 2),
    ]
    for p, n, l, r in cases:
        for j in (0, 1, 2, 3):
            params = CodingParams.make(p=p, n=n, l=l, r=r, j=j)
            start = window_start(params)
            for xp in range(params.size()):
                x = p**j * (p * xp + r)
                assert encode(params, xp) == window_of_power(x, n, p, start, l), (
                    p,
                    n,
                    l,
                    r,
                    j,
                    xp,
                )


def test_window_slides_with_j_but_contents_do_not():
    # multiplying the argument by p**j shifts x**n up by n*j digits; the
    # window at the extended shift therefore reads the same block.  Checked
    # against the digit oracle only, not against encode itself.
    for p, n, l, r in [(3, 3, 2, 2), (2, 2, 4, 1), (5, 2, 2, 4)]:
        base = CodingParams.make(p=p, n=n, l=l, r=r)
        for xp in range(base.size()):
            want = window_of_power(
                p * xp + r, n, p, window_start(base), l
            )
            for j in (1, 2, 5):
                params = CodingParams.make(p=p, n=n, l=l, r=r, j=j)
                got = window_of_power(
                    p**j * (p * xp + r), n, p, window_start(params), l
                )
                assert got == want


def test_top_of_range_block():
    # the largest x' is an easy off-by-one to get wrong
    for p, n, l, r in [(3, 3, 2, 1), (2, 2, 3, 1), (2, 4, 4, 1), (5, 5, 2, 2)]:
        params = CodingParams.make(p=p, n=n, l=l, r=r)
        top = params.size() - 1
        z = encode(params, top)
        assert 0 <= z < params.size()
        assert decode(params, z) == top


# ------------------------------------------------------------------- tables


def test_table_example_r1():
    table = permutation_table(CodingParams.make(p=3, n=3, l=2, r=1))
    assert tuple(table.image) == (0, 7, 2, 3, 1, 5, 6, 4, 8)


def test_table_example_r2():
    table = permutation_table(CodingParams.make(p=3, n=3, l=2, r=2))
    assert tuple(table.image) == (0, 4, 2, 3, 7, 5, 6, 1, 8)


def test_table_identity_when_n_is_one():
    table = permutation_table(CodingParams.make(p=5, n=1, l=1, r=3))
    assert tuple(table.image) == (0, 1, 2, 3, 4)


def test_table_is_permutation_across_parameter_grid():
    for p in (2, 3, 5, 7):
        for n in range(1, 9):
            for r in range(1, p):
                for l in (1, 2, 3):
                    if p**l > 512:
                        continue
                    table = permutation_table(CodingParams.make(p=p, n=n, l=l, r=r))
                    assert sorted(table.image) == list(range(p**l))


def test_table_inverse_round_trip():
    table = permutation_table(CodingParams.make(p=3, n=3, l=3, r=2))
    inv = table.inverse_image()
    for x in range(len(table.image)):
        assert inv[table.image[x]] == x


def test_table_uses_smallest_typecode():
    for l, typecode in ((8, "B"), (9, "H"), (16, "H"), (17, "I")):
        table = permutation_table(CodingParams.make(p=2, n=3, l=l, r=1))
        assert table.image.typecode == typecode
        assert table.inverse_image().typecode == typecode
        params = CodingParams.make(p=2, n=3, l=l, r=1)
        assert export_scatter(params).codes.typecode == typecode


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_wide_table_stays_compact():
    # 2**22 entries at 4 bytes each plus a 1-byte scan, where a tuple of
    # Python ints needed about 211 MB. VmHWM is the child's own peak RSS in
    # KiB; ru_maxrss would carry over the forking test process's peak.
    code = (
        "from powerperm.coding import CodingParams, permutation_table\n"
        "permutation_table(CodingParams.make(p=2, n=3, l=22, r=1))\n"
        "print(next(line.split()[1] for line in open('/proc/self/status')\n"
        "           if line.startswith('VmHWM:')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 50 * 1024


def cli_peak_kib(argv: list[str]) -> tuple[int, str]:
    # Runs the CLI on argv in a child process, in under 10 s, and returns
    # VmHWM, the child's own peak RSS, and what the CLI wrote to stdout.
    code = (
        "import sys\n"
        "from powerperm.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print(next(line.split()[1] for line in open('/proc/self/status')\n"
        "           if line.startswith('VmHWM:')))\n"
        "sys.exit(rc)\n"
    )
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=120
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 10
    *lines, peak = proc.stdout.splitlines(keepends=True)
    return int(peak), "".join(lines)


def wide_table_peak_kib(fmt: str, out) -> int:
    # Writes the p=2 n=3 l=22 table to out through the CLI, and returns the
    # child's peak RSS.
    return cli_peak_kib(["table", "--p", "2", "--n", "3", "--l", "22", "--r", "1",
                         "--format", fmt, "--out", str(out)])[0]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_wide_csv_table_streams(tmp_path):
    # 2**22 rows of csv, about 60 MB of text: the kernel fills a 16 MB array
    # and the renderer writes rows as it formats them.
    out = tmp_path / "table.csv"
    assert wide_table_peak_kib("csv", out) < 60 * 1024
    params = CodingParams.make(p=2, n=3, l=22, r=1)
    last = params.size() - 1
    with open(out, "rb") as fh:
        assert fh.readline() == b"x,z\n"
        fh.seek(-64, 2)
        assert fh.read().endswith(f"\n{last},{encode(params, last)}\n".encode())


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_wide_json_table_streams(tmp_path):
    # 2**22 values of json, about 37 MB of text: the array is written a few
    # thousand values at a time, as it is for csv.
    out = tmp_path / "table.json"
    assert wide_table_peak_kib("json", out) < 60 * 1024
    params = CodingParams.make(p=2, n=3, l=22, r=1)
    last = params.size() - 1
    with open(out, "rb") as fh:
        head = b'{"p": 2, "n": 3, "l": 22, "r": 1, "j": 0, "alpha": 1, "image": [0, '
        assert fh.read(len(head)) == head
        fh.seek(-64, 2)
        assert fh.read().endswith(f", {encode(params, last)}]}}\n".encode())
    # parse_int=len keeps every parsed number a small cached int
    with open(out) as fh:
        payload = json.load(fh, parse_int=len)
    assert list(payload) == ["p", "n", "l", "r", "j", "alpha", "image"]
    assert len(payload["image"]) == params.size()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_verify_audits_wide_blocks_without_their_codes():
    # Each audit proves its block from the law of the head pass, 2**12 heads
    # and steps at l = 24, so verify never holds a 2**24-entry code array.
    peak, out = cli_peak_kib(["verify", "--p", "2", "--n", "3", "--lmax", "24"])
    assert out.endswith("l=24 r=1 j=1 size=16777216 pass\nall pass (48 tables)\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b808579597a6b4228331c3dff651355a93afca937bd1a4ebcdd02f904a553fd5")
    assert peak < 40 * 1024


def test_table_bound():
    with pytest.raises(EnumerationBoundExceeded):
        permutation_table(CodingParams.make(p=2, n=3, l=12, r=1), max_entries=1024)
    # exactly at the bound is allowed
    permutation_table(CodingParams.make(p=2, n=3, l=10, r=1), max_entries=1024)


def test_block_bound_is_decided_from_l_first():
    # past max_entries.bit_length() digits the block is refused from l
    # alone, as p**l would have millions of digits; up to it, p**l's value
    # is named as before
    params = CodingParams.make(p=3, n=3, l=3 * 10**7, r=1)
    for build in (permutation_table, audit_bijectivity, export_scatter):
        start = time.perf_counter()
        with pytest.raises(EnumerationBoundExceeded,
                           match=rf"need 3\*\*30000000 entries; bound is {2**24}$"):
            build(params)
        assert time.perf_counter() - start < 1, build
    for l, entries in ((4, "16"), (5, "2\\*\\*5")):
        with pytest.raises(EnumerationBoundExceeded, match=f"need {entries} entries; bound is 8$"):
            code_array(CodingParams.make(p=2, n=3, l=l, r=1), max_entries=8)


def test_squaring_table_closed_form():
    # p=2, n=2: the block map is x' -> x'(x'+1)/2 mod 2**l, a Coveyou-style
    # quadratic generator
    for l in range(1, 9):
        image = list(iter_codes(CodingParams.make(p=2, n=2, l=l, r=1)))
        want = [x * (x + 1) // 2 % 2**l for x in range(2**l)]
        assert image == want


# ------------------------------------------------------------ reduced power


def full_power_code(p: int, n: int, l: int, r: int, j: int, xp: int) -> int:
    # the unreduced formula: l digits of x**n at the paper's window start,
    # with n = q * p**k split here rather than by the package
    k = 0
    while n % p ** (k + 1) == 0:
        k += 1
    alpha = 1 + k + (1 if p == 2 and k >= 1 else 0)
    x = p**j * (p * xp + r)
    return (x**n // p ** (alpha + n * j)) % p**l


def test_reduced_power_matches_full_power_exhaustively():
    checked = 0
    for p in (2, 3, 5, 7):
        for n in range(1, 11):
            for r in range(1, p):
                for j in (0, 1):
                    l = 1
                    while p**l <= 2**10:
                        params = CodingParams.make(p=p, n=n, l=l, r=r, j=j)
                        want = [full_power_code(p, n, l, r, j, xp) for xp in range(p**l)]
                        assert list(iter_codes(params)) == want, (p, n, l, r, j)
                        got = [encode(params, xp) for xp in range(p**l)]
                        assert got == want, (p, n, l, r, j)
                        checked += 1
                        l += 1
    assert checked == 20 * (10 + 2 * 6 + 4 * 4 + 6 * 3)


def assert_kernel_exact(p: int, n: int, l: int, r: int, j: int) -> None:
    params = CodingParams.make(p=p, n=n, l=l, r=r, j=j)
    want = [full_power_code(p, n, l, r, j, xp) for xp in range(p**l)]
    assert list(iter_codes(params)) == want, (p, n, l, r, j)
    assert code_array(params)[0].tolist() == want, (p, n, l, r, j)


def test_kernel_with_lanes_wider_than_codes():
    # 4 * p**l needs a wider lane than p**l needs a code, so every block
    # is narrowed on its way into the code array
    for p, l in ((2, 15), (2, 16), (3, 10)):
        size = p**l
        assert coding._typecode(size) == "H"
        assert coding._typecode(4 * size) == "I"
        for n in (3, 2 * p):
            assert_kernel_exact(p, n, l, r=1, j=0)


def test_runs_match_the_naive_expansion():
    # (modulus, lane bytes, code typecode): the bias path and the mask path
    # (a power of two), with lanes as wide as the codes (B, H, I) and wider
    # (H over B, I over H, 8 bytes over I); moduli near the top of their
    # lanes leave the bias bit no slack
    cases = ((61, 1, "B"), (64, 1, "B"), (16381, 2, "H"), (2**14, 2, "H"),
             (2**30 - 35, 4, "I"), (2**30, 4, "I"), (251, 2, "B"), (256, 2, "B"),
             (65521, 4, "H"), (2**16, 4, "H"), (2**32 - 5, 8, "I"), (2**32, 8, "I"))
    for modulus, lane, typecode in cases:
        assert array(coding._typecode(4 * modulus)).itemsize == lane, modulus
        top = modulus - 1
        heads = [0, top, top, top, 1, modulus // 3, 5 % modulus]
        steps = [top, 0, top, 1, top, modulus // 2 + 1, 7 * modulus // 11]
        # the sign fold: bit fold of a value flips its low fold + 1 bits
        folds = (0, modulus.bit_length() - 2) if modulus & top == 0 else (0,)
        for fold, count in product(folds, (1, 9)):
            flip = (2 << fold) - 1
            want = [[flip - v if fold and v >> fold & 1 else v for v in
                     ((h + t * s) % modulus for h, s in zip(heads, steps))]
                    for t in range(count)]
            runs = list(coding._runs(heads, steps, modulus, count, typecode, fold))
            assert all(run.typecode == typecode for run in runs), (modulus, fold)
            assert [run.tolist() for run in runs] == want, (modulus, fold, count)


def test_kernel_where_every_code_is_its_own_power():
    # the shift 1 + k (+1) exceeds l; the kernel's width does not depend on
    # k, and it takes h = l at l = 1, and for p = 2 with k >= 1 at l = 2
    for p, n, ls in ((2, 2**12, range(1, 9)), (3, 3**6, range(1, 5))):
        for l in ls:
            for r in range(1, p):
                for j in (0, 1):
                    assert_kernel_exact(p, n, l, r, j)


def test_kernel_for_two_with_k_at_least_one():
    # the extra shift digit for p = 2 moves h and the step B
    for n in (2, 4, 6, 12, 24, 96, 1000):
        for j in (0, 1, 2):
            for l in range(1, 11):
                assert_kernel_exact(2, n, l, 1, j)


def test_kernel_is_lazy_for_huge_primes():
    # at l = 1, h = l, and at l = 2, p**l is past 2**64: either way every
    # code is its own pow, and the first codes come out before the rest of
    # the block is computed.
    for p in (2**61 - 1, 2**62 - 57):
        for l in (1, 2):
            for n in (2, 3, 5):
                start = time.perf_counter()
                params = CodingParams.make(p=p, n=n, l=l, r=p - 2, j=1)
                got = list(islice(iter_codes(params), 3))
                assert time.perf_counter() - start < 1
                assert got == [full_power_code(p, n, l, p - 2, 1, x) for x in range(3)]


def test_kernel_head_runs_past_its_chunk_cap():
    # at l = 40 the v = 0 block has 2**20 codes, far more than _HEAD_CHUNK,
    # all from block_law's one head pass; a prefix of several chunks' length
    # is still exact
    params = CodingParams.make(p=2, n=3, l=40, r=1)
    head = 3 * coding._HEAD_CHUNK + 5
    assert list(islice(iter_codes(params), head)) == [
        full_power_code(2, 3, 40, 1, 0, x) for x in range(head)
    ]


def test_window_one_digit_earlier_is_not_bijective():
    # the extra shift digit for p=2 with k>=1 is necessary: reading the
    # window one position lower duplicates outputs
    p, n, l = 2, 2, 3
    low = [((2 * x + 1) ** n // 2**2) % 2**l for x in range(2**l)]
    assert len(set(low)) < len(low)


# ------------------------------------------------------------------- decode


def test_decode_examples():
    assert decode(CodingParams.make(p=3, n=3, l=2, r=1), 7) == 1
    assert decode(CodingParams.make(p=3, n=3, l=2, r=2), 1) == 7


def test_decode_rejects_out_of_range_code():
    params = CodingParams.make(p=3, n=3, l=2, r=1)
    with pytest.raises(DomainError):
        decode(params, 9)
    with pytest.raises(DomainError):
        decode(params, -1)


DECODE_GRID = [
    (2, 2, 4, 1, 0),
    (2, 4, 3, 1, 0),  # p=2, k=2: hardest lifting case
    (2, 4, 5, 1, 0),
    (2, 6, 3, 1, 0),
    (2, 3, 4, 1, 0),  # k=0 one-shot with p=2
    (2, 12, 3, 1, 1),
    (3, 3, 2, 1, 0),
    (3, 3, 2, 2, 0),
    (3, 2, 3, 1, 0),  # k=0 with gcd(q, p-1) > 1
    (3, 6, 3, 2, 0),
    (3, 9, 2, 2, 2),
    (5, 5, 2, 2, 0),
    (5, 2, 2, 4, 0),  # k=0 with gcd(q, p-1) = 2
    (5, 10, 2, 3, 0),
    (7, 7, 1, 5, 0),
]


def test_decode_strategies_agree_exhaustively():
    # the enumeration's inverse and decode both invert every code
    for p, n, l, r, j in DECODE_GRID:
        params = CodingParams.make(p=p, n=n, l=l, r=r, j=j)
        image = list(iter_codes(params))
        inverse = permutation_table(params).inverse_image()
        for xp, z in enumerate(image):
            assert decode(params, z) == inverse[z] == xp, (p, n, l, r, xp)


def test_decode_inverts_every_code_on_a_grid():
    # Every code of every block with p <= 13, n <= 25, every r and
    # p**l <= 2**10, against the table's inverse.
    blocks = lifted = codes = 0
    for p in (2, 3, 5, 7, 11, 13):
        l_max = next(l for l in range(1, 11) if p ** (l + 1) > 2**10)
        for n in range(1, 26):
            for l in range(1, l_max + 1):
                for r in range(1, p):
                    params = CodingParams.make(p=p, n=n, l=l, r=r)
                    inverse = permutation_table(params).inverse_image()
                    for z, xp in enumerate(inverse):
                        assert decode(params, z) == xp, (p, n, l, r, z)
                    blocks += 1
                    lifted += params.power.k >= 1
                    codes += len(inverse)
    # pinned so that the grid cannot shrink unnoticed
    assert (blocks, lifted, codes) == (2500, 414, 331200)


def test_decode_builds_no_table(monkeypatch):
    # the kernel _code_chunks is the one enumeration behind every table
    def no_table(params, *args):
        raise AssertionError(f"decode built a table for {params}")

    monkeypatch.setattr(coding, "_code_chunks", no_table)
    params = CodingParams.make(p=2, n=3, l=15, r=1)  # one inverse exponent
    assert decode(params, 5) == 30185
    params = CodingParams.make(p=3, n=6, l=5, r=2)  # digit lifting
    assert decode(params, encode(params, 200)) == 200
    params = CodingParams.make(p=2, n=6, l=10, r=1)  # a 2**10 block, lifting
    assert decode(params, encode(params, 777)) == 777
    # 8 has three cube roots mod 1000003, and each decodes a 1000003-value block
    found = roots(PrimeBase(1000003), 3, 1, 8)
    assert len(found) == 3
    assert all(pow(c.x, 3, c.modulus) == 8 % c.modulus for c in found)


def test_decode_auto_uses_scalable_path_for_wide_blocks():
    # 2**40 entries cannot be tabulated; decode must still answer
    params = CodingParams.make(p=2, n=4, l=40, r=1)
    for xp in (0, 1, 2**39 + 12345, 2**40 - 1):
        assert decode(params, encode(params, xp)) == xp
    params = CodingParams.make(p=3, n=6, l=30, r=2)
    for xp in (0, 7, 3**30 - 2):
        assert decode(params, encode(params, xp)) == xp


# --------------------------------------------------------- decode exponent


def test_decode_exponent_inverts_unit_part_on_coset():
    # the subgroup 1 + pZ mod p**(l+1) has order p**l, so the inverse of q
    # modulo p**l undoes the q-th power on it
    for p, n, l in [(3, 2, 3), (5, 2, 2), (2, 3, 4), (3, 6, 2), (2, 12, 3)]:
        params = CodingParams.make(p=p, n=n, l=l, r=1)
        q = params.power.q
        s = pow(q, -1, p**l)
        m = p ** (l + 1)
        for v in range(1, m, p):
            assert pow(pow(v, q, m), s, m) == v, (p, n, l, v)


# -------------------------------------------------------------------- roots


def test_roots_hold_for_every_unit_on_a_grid():
    # For every unit below p**(l+3) and j in {0, 1}: some class contains the
    # true x, and the powers of a class agree with z on the window and below
    # it. A bound of p - 1 entries is the tightest the residue scan allows.
    queries = 0
    for p, lmax in ((2, 4), (3, 2), (5, 1), (7, 1)):
        base = PrimeBase(p)
        for n in range(1, 11):
            alpha = shift(PowerSpec.from_power(n, base), base)
            for l in range(1, lmax + 1):
                for bound in (coding.MAX_TABLE_ENTRIES, p - 1):
                    for j in (0, 1):
                        check = p ** (n * j + alpha + l)
                        for unit in range(1, p ** (l + 3)):
                            if unit % p == 0:
                                continue
                            x = p**j * unit
                            z = x**n
                            found = roots(base, n, l, z, bound)
                            assert any((x - c.x) % c.modulus == 0 for c in found), (
                                p, n, l, j, x, found)
                            for c in found:
                                assert c.x == p**j * (p * c.xprime + c.r)
                                for y in (c.x, c.x + c.modulus):  # the whole class
                                    assert pow(y, n, check) == z % check, (p, n, l, j, x, c)
                            queries += 1
    assert queries == 115_760


def test_roots_for_two_and_even_n_name_both_signs():
    base = PrimeBase(2)
    found = roots(base, 2, 8, 1001**2)
    assert found == [coding.Root(1, 11, 23, 1024), coding.Root(1, 500, 1001, 1024)]
    assert roots(base, 6, 3, (4 * 11) ** 6) == [
        coding.Root(1, 5, 44, 128), coding.Root(1, 10, 84, 128)]


def test_roots_refuse_a_residue_scan_past_the_bound():
    with pytest.raises(EnumerationBoundExceeded,
                       match="enumeration would need 4 entries; bound is 3"):
        roots(PrimeBase(5), 3, 1, 8, 3)
    assert roots(PrimeBase(5), 3, 1, 8, 4) == [coding.Root(2, 0, 2, 25)]


# -------------------------------------------------------------- composition


def test_compose_example_odd():
    params = CodingParams.make(p=3, n=6, l=2, r=2)
    f, g = compose_decomposition(params)
    assert f.power == PowerSpec(n=2, q=2, k=0)
    assert f.r == 2 and f.l == 2
    assert g.power == PowerSpec(n=3, q=1, k=1)
    assert g.r == 1
    assert g.l == 2


def test_compose_example_two():
    params = CodingParams.make(p=2, n=6, l=3, r=1)
    f, g = compose_decomposition(params)
    assert f.power.n == 3
    assert g.power.n == 2
    assert g.r == 1
    # stages carry one guard digit for p = 2
    assert f.l == 4 and g.l == 4


def test_compose_rejects_pure_powers():
    with pytest.raises(DomainError, match="n = 5 does not split"):
        compose_decomposition(CodingParams.make(p=3, n=5, l=2, r=1))  # k = 0
    with pytest.raises(DomainError, match="n = 9 does not split"):
        compose_decomposition(CodingParams.make(p=3, n=9, l=2, r=1))  # q = 1


def test_composition_reproduces_encode():
    for p in (2, 3):
        for n in (6, 12, 18):
            for r in range(1, p):
                for l in (1, 2, 3, 4):
                    params = CodingParams.make(p=p, n=n, l=l, r=r)
                    for xp in range(params.size()):
                        assert encode_via_composition(params, xp) == encode(
                            params, xp
                        ), (p, n, l, r, xp)


def test_composition_is_exact_for_odd_p():
    # no truncation needed: stage widths equal the block width
    params = CodingParams.make(p=3, n=6, l=3, r=1)
    f, g = compose_decomposition(params)
    assert f.l == g.l == 3
    for xp in range(params.size()):
        assert encode(g, encode(f, xp)) == encode(params, xp)


def test_same_width_composition_fails_for_p_two():
    # regression guard: chaining the stages at width l drops information the
    # squaring stage needs, so the guard digit is not optional
    p, n, l, r = 2, 6, 3, 1
    params = CodingParams.make(p=p, n=n, l=l, r=r)
    f = CodingParams.make(p=p, n=3, l=l, r=r)
    g = CodingParams.make(p=p, n=2, l=l, r=1)
    mismatches = [
        xp
        for xp in range(params.size())
        if encode(g, encode(f, xp)) != encode(params, xp)
    ]
    assert mismatches


# ------------------------------------------------------- algebraic backdrop


def test_unit_powers_injective_iff_exponent_coprime_to_p_minus_one():
    # for squarefree-in-p exponents, x -> x**q permutes all units of
    # Z/p**m exactly when gcd(q, p-1) == 1
    for p, m in [(3, 3), (5, 2), (7, 2)]:
        pm = p**m
        units = [x for x in range(1, pm) if x % p]
        for q in range(1, 8):
            if q % p == 0:
                continue
            images = {pow(x, q, pm) for x in units}
            if gcd(q, p - 1) == 1:
                assert len(images) == len(units), (p, m, q)
            else:
                assert len(images) < len(units), (p, m, q)


# ----------------------------------------------------------------- property


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_round_trip_property(data):
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    n = data.draw(st.integers(1, 12))
    l = data.draw(st.integers(1, 4 if p > 3 else 6))
    r = data.draw(st.integers(1, p - 1))
    j = data.draw(st.integers(0, 2))
    params = CodingParams.make(p=p, n=n, l=l, r=r, j=j)
    xp = data.draw(st.integers(0, params.size() - 1))
    z = encode(params, xp)
    assert 0 <= z < params.size()
    assert decode(params, z) == permutation_table(params).inverse_image()[z] == xp


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_decode_round_trip_at_shifts_past_the_grids(data):
    # the decode grids stop at k = 4 and a few digits; lifting has no such limit
    p = data.draw(st.sampled_from((2, 3, 5, 13, 2**61 - 1)))
    k = data.draw(st.integers(1, 2 if p > 13 else 30))
    q = data.draw(st.integers(1, 1000).filter(lambda q: q % p))
    l = data.draw(st.integers(1, 300))
    r = data.draw(st.integers(1, p - 1))
    j = data.draw(st.integers(0, 2))
    params = CodingParams.make(p=p, n=q * p**k, l=l, r=r, j=j)
    xp = data.draw(st.integers(0, params.size() - 1))
    assert decode(params, encode(params, xp)) == xp


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_window_oracle_property(data):
    p = data.draw(st.sampled_from((2, 3, 5)))
    n = data.draw(st.integers(1, 10))
    l = data.draw(st.integers(1, 5))
    r = data.draw(st.integers(1, p - 1))
    j = data.draw(st.integers(0, 3))
    params = CodingParams.make(p=p, n=n, l=l, r=r, j=j)
    xp = data.draw(st.integers(0, params.size() - 1))
    x = p**j * (p * xp + r)
    assert encode(params, xp) == window_of_power(
        x, n, p, window_start(params), l
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_reduced_power_property_for_large_exponents(data):
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    k = data.draw(st.integers(0, 4))
    n = data.draw(st.integers(1, 10**4 // p**k)) * p**k
    l = data.draw(st.integers(1, 6))
    r = data.draw(st.integers(1, p - 1))
    j = data.draw(st.integers(0, 2))
    params = CodingParams.make(p=p, n=n, l=l, r=r, j=j)
    xp = data.draw(st.integers(0, params.size() - 1))
    assert encode(params, xp) == full_power_code(p, n, l, r, j, xp)
    head = min(params.size(), 8)
    assert list(islice(iter_codes(params), head)) == [
        full_power_code(p, n, l, r, j, x) for x in range(head)
    ]

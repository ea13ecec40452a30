"""Acceptance suite: one test per shipped guarantee, one report line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines as
they pass; without -s pytest shows them only for failures.
"""

from __future__ import annotations

import functools
import hashlib
import subprocess
import sys
import time

from powerperm import analysis, binomial, coding
from powerperm.coding import CodingParams
from powerperm.padic import PrimeBase


def acceptance(number: int, label: str, budget: float | None = None):
    """Print `acceptance N (label): PASS|FAIL` and enforce the time budget."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"acceptance {number} ({label}): FAIL")
                raise
            elapsed = time.perf_counter() - start
            note = f" [{elapsed:.2f}s]" if budget else ""
            print(f"acceptance {number} ({label}): PASS{note}")
            if budget is not None:
                assert elapsed < budget, (
                    f"{label} took {elapsed:.1f}s, budget {budget}s"
                )

        return wrapper

    return deco


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "powerperm", *argv],
        capture_output=True,
        text=True,
    )


@acceptance(1, "cubing block tables")
def test_cubing_block_tables_exact():
    proc = run_cli("table", "--p", "3", "--n", "3", "--l", "2", "--r", "1")
    assert proc.returncode == 0
    assert proc.stdout == "0 7 2 3 1 5 6 4 8\n"
    proc = run_cli("table", "--p", "3", "--n", "3", "--l", "2", "--r", "2")
    assert proc.returncode == 0
    assert proc.stdout == "0 4 2 3 7 5 6 1 8\n"


@acceptance(2, "window shift values")
def test_window_shift_values():
    def s(n: int, p: int) -> int:
        base = PrimeBase(p)
        return coding.shift(coding.PowerSpec.from_power(n, base), base)

    assert s(3, 3) == 2
    assert s(2, 2) == 3
    for p in (2, 3, 5, 7, 11):
        for n in range(1, 40):
            if n % p:
                assert s(n, p) == 1, (n, p)


@acceptance(3, "wide block audits", budget=10.0)
def test_wide_block_audits():
    for p, n, l in [(2, 2, 16), (2, 3, 15)]:
        result = analysis.audit_bijectivity(CodingParams.make(p=p, n=n, l=l, r=1))
        assert result.ok, (p, n, l)
        assert result.collision is None


@acceptance(4, "exhaustive sweep", budget=120.0)
def test_exhaustive_sweep():
    checked = 0
    for p in (2, 3, 5, 7):
        size_cap = 1 << 14
        for n in range(1, 11):
            for r in range(1, p):
                for j in (0, 1, 2):
                    l = 1
                    while p**l <= size_cap:
                        params = CodingParams.make(p=p, n=n, l=l, r=r, j=j)
                        table = coding.permutation_table(params)
                        for x, z in enumerate(table.image):
                            assert coding.decode(params, z) == x
                        checked += 1
                        l += 1
    assert checked == 2340


@acceptance(5, "quadratic closed form", budget=5.0)
def test_quadratic_closed_form():
    for l in range(1, 17):
        size = 1 << l
        params = CodingParams.make(p=2, n=2, l=l, r=1)
        for x, z in enumerate(coding.iter_codes(params)):
            assert z == x * (x + 1) // 2 % size


@acceptance(6, "prime power row valuations", budget=30.0)
def test_prime_power_row_valuations():
    for p in (2, 3, 5):
        base = PrimeBase(p)
        for k in range(1, 7):
            top = p**k
            for j in range(1, top):
                v = binomial.valuation_lemma1(base, k, j).valuation
                assert binomial.kummer_carries(base, top, j).valuation == v
                assert binomial.valuation_legendre(base, top, j).valuation == v
                if top <= binomial.DIRECT_BOUND:
                    assert binomial.valuation_direct(base, top, j).valuation == v


@acceptance(7, "carry count identities", budget=30.0)
def test_carry_count_identities():
    for p in (2, 3, 5, 7):
        base = PrimeBase(p)
        digit_sum = [0] * 301
        for m in range(1, 301):
            digit_sum[m] = digit_sum[m // p] + m % p
        for top in range(0, 301):
            for bottom in range(0, top + 1):
                v = binomial.kummer_carries(base, top, bottom).valuation
                assert binomial.valuation_legendre(base, top, bottom).valuation == v
                excess = (
                    digit_sum[bottom] + digit_sum[top - bottom] - digit_sum[top]
                )
                assert excess == v * (p - 1)


@acceptance(8, "two stage composition", budget=10.0)
def test_two_stage_composition():
    for p in (2, 3):
        for n in (6, 12, 18):
            for r in range(1, p):
                l = 1
                while p**l <= 1 << 10:
                    params = CodingParams.make(p=p, n=n, l=l, r=r)
                    for x in range(params.size()):
                        assert coding.encode_via_composition(
                            params, x
                        ) == coding.encode(params, x), (p, n, l, r, x)
                    l += 1


@acceptance(9, "cube residues mod nine")
def test_cube_residues_mod_nine():
    for x in range(1, 3**5):
        if x % 3:
            assert pow(x, 3, 9) in (1, 8)


@acceptance(10, "narrower window collides")
def test_narrower_window_collides():
    window = [((2 * x + 1) ** 2 // 4) % 8 for x in range(8)]
    assert len(set(window)) < 8


@acceptance(11, "stable plot files")
def test_stable_plot_files(tmp_path):
    for p, n, l in [(2, 2, 16), (2, 3, 15)]:
        digests = []
        for run_idx in (0, 1):
            path = tmp_path / f"scatter_{n}_{l}_{run_idx}.csv"
            proc = run_cli(
                "plotdata", "--p", str(p), "--n", str(n), "--l", str(l),
                "--r", "1", "--out", str(path),
            )
            assert proc.returncode == 0
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1], (p, n, l)

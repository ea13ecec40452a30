from __future__ import annotations

import json
import re
import subprocess
import sys
import time

import pytest

from powerperm import binomial, cli
from powerperm.cli import main
from powerperm.coding import CodingParams, encode
from powerperm.padic import PrimeBase


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------------- shift


def test_shift_plain(capsys):
    code, out, err = run(capsys, "shift", "--p", "3", "--n", "3")
    assert code == 0
    assert out == "alpha=2 (q=1, k=1)\n"
    assert err == ""


def test_shift_plain_with_j(capsys):
    code, out, _ = run(capsys, "shift", "--p", "3", "--n", "3", "--j", "1")
    assert code == 0
    assert out == "alpha'=5 (q=1, k=1, j=1)\n"


def test_shift_csv(capsys):
    code, out, _ = run(capsys, "shift", "--p", "2", "--n", "2", "--format", "csv")
    assert code == 0
    assert out == "p,n,j,q,k,alpha\n2,2,0,1,1,3\n"


def test_shift_json(capsys):
    code, out, _ = run(capsys, "shift", "--p", "2", "--n", "12", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"p": 2, "n": 12, "j": 0, "q": 3, "k": 2, "alpha": 4}


def test_shift_with_j_csv_and_json(capsys):
    # n = 6 at p = 3 has k = 1, so alpha = 2 + 6*2 = 14
    code, out, _ = run(
        capsys, "shift", "--p", "3", "--n", "6", "--j", "2", "--format", "csv"
    )
    assert code == 0
    assert out == "p,n,j,q,k,alpha\n3,6,2,2,1,14\n"
    code, out, _ = run(
        capsys, "shift", "--p", "3", "--n", "6", "--j", "2", "--format", "json"
    )
    assert code == 0
    assert out == '{"p": 3, "n": 6, "j": 2, "q": 2, "k": 1, "alpha": 14}\n'


# -------------------------------------------------------------------- table


def test_table_plain_cubing(capsys):
    code, out, _ = run(
        capsys, "table", "--p", "3", "--n", "3", "--l", "2", "--r", "1"
    )
    assert code == 0
    assert out == "0 7 2 3 1 5 6 4 8\n"


def test_table_plain_other_residue(capsys):
    code, out, _ = run(
        capsys, "table", "--p", "3", "--n", "3", "--l", "2", "--r", "2"
    )
    assert code == 0
    assert out == "0 4 2 3 7 5 6 1 8\n"


def test_table_csv(capsys):
    code, out, _ = run(
        capsys, "table", "--p", "2", "--n", "2", "--l", "2", "--r", "1",
        "--format", "csv",
    )
    assert code == 0
    assert out == "x,z\n0,0\n1,1\n2,3\n3,2\n"


def test_table_json(capsys):
    code, out, _ = run(
        capsys, "table", "--p", "3", "--n", "3", "--l", "2", "--r", "1",
        "--format", "json",
    )
    payload = json.loads(out)
    assert payload["alpha"] == 2
    assert payload["image"] == [0, 7, 2, 3, 1, 5, 6, 4, 8]


def test_table_json_alpha_includes_j(capsys):
    code, out, _ = run(
        capsys, "table", "--p", "3", "--n", "3", "--l", "2", "--r", "2",
        "--j", "1", "--format", "json",
    )
    assert code == 0
    assert out == (
        '{"p": 3, "n": 3, "l": 2, "r": 2, "j": 1, "alpha": 5, '
        '"image": [0, 4, 2, 3, 7, 5, 6, 1, 8]}\n'
    )


def test_table_out_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "table.csv"
    code, out, _ = run(
        capsys, "table", "--p", "3", "--n", "3", "--l", "2", "--r", "1",
        "--format", "csv", "--out", str(path),
    )
    assert code == 0
    assert out == ""
    _, stdout_text, _ = run(
        capsys, "table", "--p", "3", "--n", "3", "--l", "2", "--r", "1",
        "--format", "csv",
    )
    assert path.read_text() == stdout_text
    assert path.read_bytes().endswith(b"\n")


def test_table_respects_entry_bound(capsys):
    code, out, err = run(
        capsys, "table", "--p", "2", "--n", "3", "--l", "12", "--r", "1",
        "--max-table-bits", "10",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_table_bits_range_is_checked_up_front(capsys):
    argv = ["table", "--p", "3", "--n", "3", "--l", "2", "--r", "1"]
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--max-table-bits", "65"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --max-table-bits: must be at most 64" in captured.err
    code, out, _ = run(capsys, *argv, "--max-table-bits", "64")
    assert code == 0
    assert out == "0 7 2 3 1 5 6 4 8\n"


# ------------------------------------------------------------ encode/decode


def test_encode_plain(capsys):
    code, out, _ = run(
        capsys, "encode", "--p", "3", "--n", "3", "--l", "2", "--r", "1",
        "--x", "1",
    )
    assert code == 0
    assert out == "7\n"


def test_decode_plain(capsys):
    code, out, _ = run(
        capsys, "decode", "--p", "3", "--n", "3", "--l", "2", "--r", "1",
        "--code", "7",
    )
    assert code == 0
    assert out == "1\n"


def test_encode_decode_csv(capsys):
    code, out, _ = run(
        capsys, "encode", "--p", "2", "--n", "2", "--l", "3", "--r", "1",
        "--x", "5", "--format", "csv",
    )
    assert code == 0
    assert out == "x,z\n5,7\n"
    code, out, _ = run(
        capsys, "decode", "--p", "2", "--n", "2", "--l", "3", "--r", "1",
        "--code", "7", "--format", "csv",
    )
    assert code == 0
    assert out == "code,x\n7,5\n"


def test_encode_decode_json(capsys):
    code, out, _ = run(
        capsys, "encode", "--p", "3", "--n", "3", "--l", "2", "--r", "1",
        "--j", "1", "--x", "4", "--format", "json",
    )
    assert code == 0
    assert out == '{"p": 3, "n": 3, "l": 2, "r": 1, "j": 1, "x": 4, "z": 1}\n'
    code, out, _ = run(
        capsys, "decode", "--p", "3", "--n", "3", "--l", "2", "--r", "1",
        "--j", "1", "--code", "1", "--format", "json",
    )
    assert code == 0
    assert out == '{"p": 3, "n": 3, "l": 2, "r": 1, "j": 1, "code": 1, "x": 4}\n'


def test_decode_past_a_small_table_bound_takes_scalable_path(capsys):
    # decode builds no table, so a 2**10-entry bound does not stop a 2**15 block
    code, out, err = run(
        capsys, "decode", "--p", "2", "--n", "3", "--l", "15", "--r", "1",
        "--code", "5", "--max-table-bits", "10",
    )
    assert (code, out, err) == (0, "30185\n", "")


def test_encode_out_of_range_is_usage_error(capsys):
    code, out, err = run(
        capsys, "encode", "--p", "3", "--n", "3", "--l", "2", "--r", "1",
        "--x", "9",
    )
    assert code == 2
    assert err.startswith("error:")


def test_encode_huge_exponent_finishes_quickly():
    # only digits below alpha + l reach the window, so n = 10**7 costs one
    # modular pow; n = 5**7 * 2**7 gives k = 7 and alpha = 1 + 7 + 1 = 9
    proc = subprocess.run(
        [sys.executable, "-m", "powerperm", "encode",
         "--p", "2", "--n", "10000000", "--l", "64", "--r", "1", "--x", "5"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0
    assert proc.stdout == f"{pow(11, 10**7, 2**73) // 2**9}\n"


def test_root_of_a_huge_power_of_two_finishes_quickly():
    # z = 2**330000 has 99,340 digits, and its valuation is one bit operation
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    z = 2**330000
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "powerperm", "root",
             "--p", "2", "--n", "2", "--l", "4", "--z", str(z)],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 0
        found = re.findall(r"^x = (\d+) \(mod (\d+)\)", proc.stdout, re.M)
        assert len(found) == 2
        for x, modulus in found:
            assert int(modulus) == 2 ** (165000 + 6)
            assert pow(int(x), 2, 2 ** (330000 + 3 + 4)) == z
    finally:
        if limited:
            sys.set_int_max_str_digits(limit)


def test_largest_64_bit_prime_finishes_quickly():
    # p = 2**64 - 59: encode and decode take a few powers mod p**5; table and
    # verify would need p**4 and p entries, and exit 2 before enumerating
    p = 2**64 - 59
    block = ["--p", str(p), "--n", "3", "--l", "4", "--r", "5"]

    def cli(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "powerperm", *argv],
                              capture_output=True, text=True, timeout=10)

    xp = p**4 - 12345
    proc = cli("encode", *block, "--x", str(xp))
    assert proc.returncode == 0, proc.stderr
    z = int(proc.stdout)
    assert 0 <= z < p**4
    proc = cli("decode", *block, "--code", str(z))
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == xp
    for argv in (("table", *block), ("verify", "--p", str(p), "--n", "3", "--lmax", "1")):
        proc = cli(*argv)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: enumeration would need")


def test_decode_with_a_huge_exponent_and_width_finishes_quickly():
    # 2**7 divides n, so decode lifts: O(log l) powers, each O(log n) products
    proc = subprocess.run(
        [sys.executable, "-m", "powerperm", "decode",
         "--p", "2", "--n", "10000000", "--l", "10000", "--r", "1", "--code", "5"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert encode(CodingParams.make(p=2, n=10**7, l=10**4, r=1), int(proc.stdout)) == 5


def test_decode_with_the_largest_64_bit_prime_dividing_n_finishes_quickly():
    # p = n = 2**64 - 59: lifting solves for digits, never tries each of p
    p = 2**64 - 59
    proc = subprocess.run(
        [sys.executable, "-m", "powerperm", "decode",
         "--p", str(p), "--n", str(p), "--l", "4", "--r", "5", "--code", "7"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert encode(CodingParams.make(p=p, n=p, l=4, r=5), int(proc.stdout)) == 7


def test_rejects_composite_base(capsys):
    code, _, err = run(
        capsys, "encode", "--p", "9", "--n", "3", "--l", "2", "--r", "1",
        "--x", "0",
    )
    assert code == 2
    assert err.startswith("error:")


def test_rejects_zero_residue(capsys):
    code, _, err = run(
        capsys, "encode", "--p", "3", "--n", "3", "--l", "2", "--r", "0",
        "--x", "0",
    )
    assert code == 2
    assert err.startswith("error:")


def test_missing_required_flag_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["table", "--p", "3", "--l", "2", "--r", "1"])
    assert excinfo.value.code == 2


def test_integer_options_refuse_values_out_of_range(capsys):
    for argv, want in (
            (["shift", "--p", "0", "--n", "3"], "argument --p: must be a positive integer"),
            (["encode", "--p", "3", "--n", "3", "--l", "2", "--r", "-1", "--x", "0"],
             "argument --r: must be non-negative")):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        out, err = capsys.readouterr()
        assert (excinfo.value.code, out) == (2, "")
        assert err.endswith(f"powerperm {argv[0]}: error: {want}\n")


# --------------------------------------------------------------------- root


def test_root_recovers_cube(capsys):
    code, out, _ = run(
        capsys, "root", "--p", "3", "--n", "3", "--l", "2", "--z", "4913"
    )
    assert code == 0
    assert out == "x = 17 (mod 27)  [x' = 5, r = 2]\n"


def test_root_recovers_square(capsys):
    code, out, _ = run(
        capsys, "root", "--p", "2", "--n", "2", "--l", "3", "--z", "81"
    )
    assert code == 0
    assert out == "x = 9 (mod 32)  [x' = 4, r = 1]\nx = 23 (mod 32)  [x' = 11, r = 1]\n"


def test_root_of_an_even_power_of_two_names_both_signs(capsys):
    # 1001**2 = 1002001; x and -x share the window, so both classes mod 2**10
    code, out, _ = run(
        capsys, "root", "--p", "2", "--n", "2", "--l", "8", "--z", "1002001"
    )
    assert code == 0
    assert out == ("x = 23 (mod 1024)  [x' = 11, r = 1]\n"
                   "x = 1001 (mod 1024)  [x' = 500, r = 1]\n")


def test_root_refuses_a_residue_scan_past_the_bound():
    for p in ("2147483647", "18446744073709551557"):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "powerperm", "root",
             "--p", p, "--n", "3", "--l", "1", "--z", "8"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert time.perf_counter() - start < 2
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (f"error: enumeration would need {int(p) - 1} entries; "
                               f"bound is {2**24}\n")


def test_root_scans_every_residue_below_the_bound(capsys):
    # 8 = 2**3, and 1000003 - 1 is divisible by 3: three cube roots mod p
    code, out, _ = run(
        capsys, "root", "--p", "1000003", "--n", "3", "--l", "1", "--z", "8"
    )
    assert code == 0
    assert out == ("x = 2 (mod 1000006000009)  [x' = 0, r = 2]\n"
                   "x = 333502001502 (mod 1000006000009)  [x' = 333501, r = 999]\n"
                   "x = 666503998505 (mod 1000006000009)  [x' = 666501, r = 999002]\n")


def test_root_with_p_divisible_argument(capsys):
    # 132651 = 51**3 and 51 = 3 * 17, so the answer carries j = 1
    code, out, _ = run(
        capsys, "root", "--p", "3", "--n", "3", "--l", "2", "--z", "132651"
    )
    assert code == 0
    assert out == "x = 51 (mod 81)  [x' = 5, r = 2]\n"


def test_root_no_preimage(capsys):
    code, out, _ = run(
        capsys, "root", "--p", "3", "--n", "3", "--l", "2", "--z", "5"
    )
    assert code == 3
    assert out == "no preimage\n"


def test_root_valuation_not_multiple_of_n(capsys):
    # z = 18 has 3-adic valuation 2, which x**3 can never produce
    code, out, _ = run(
        capsys, "root", "--p", "3", "--n", "3", "--l", "2", "--z", "18"
    )
    assert code == 3
    assert out == "no preimage\n"


def test_root_csv_empty_still_has_header(capsys):
    code, out, _ = run(
        capsys, "root", "--p", "3", "--n", "3", "--l", "2", "--z", "5",
        "--format", "csv",
    )
    assert code == 3
    assert out == "r,xprime,x,modulus\n"


def test_root_csv_lists_every_candidate(capsys):
    code, out, _ = run(
        capsys, "root", "--p", "3", "--n", "2", "--l", "2", "--z", "625",
        "--format", "csv",
    )
    assert code == 0
    assert out == "r,xprime,x,modulus\n1,8,25,27\n2,0,2,27\n"


def test_root_json(capsys):
    code, out, _ = run(
        capsys, "root", "--p", "3", "--n", "3", "--l", "2", "--z", "4913",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["candidates"] == [
        {"r": 2, "xprime": 5, "x": 17, "modulus": 27}
    ]


def test_root_even_power_lists_both_square_roots(capsys):
    # 625 = 5**4 = (5**2)**2; both square roots of the unit appear
    code, out, _ = run(
        capsys, "root", "--p", "3", "--n", "2", "--l", "2", "--z", "625",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    xs = sorted(c["x"] % 27 for c in payload["candidates"])
    assert len(xs) == 2
    for c in payload["candidates"]:
        assert pow(c["x"], 2, 27) == 625 % 27


# ------------------------------------------------------------------- verify


def test_verify_plain(capsys):
    code, out, _ = run(capsys, "verify", "--p", "3", "--n", "3", "--lmax", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    assert lines[0] == "l=1 r=1 j=0 size=3 pass"
    assert lines[-1] == "all pass (8 tables)"


def test_verify_audits_each_block_once(capsys, monkeypatch):
    # encode does not depend on j, so the j = 0 and j = 1 rows share one audit
    from powerperm import analysis

    audited = []
    real = analysis.audit_bijectivity

    def counting(params, max_entries):
        audited.append((params.l, params.r))
        return real(params, max_entries)

    monkeypatch.setattr(analysis, "audit_bijectivity", counting)
    code, out, _ = run(capsys, "verify", "--p", "5", "--n", "3", "--lmax", "2")
    assert code == 0
    assert audited == [(l, r) for l in (1, 2) for r in range(1, 5)]
    assert out.splitlines()[-1] == "all pass (16 tables)"


def test_verify_csv(capsys):
    code, out, _ = run(
        capsys, "verify", "--p", "2", "--n", "2", "--lmax", "3",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "l,r,j,size,status"
    assert len(lines) == 7
    assert all(line.endswith("pass") for line in lines[1:])


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--p", "5", "--n", "10", "--lmax", "1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert len(payload["results"]) == 8


def test_verify_reports_a_failing_block_in_every_format(capsys, monkeypatch):
    # one block of the sweep audited with a collision fails both of its rows
    from powerperm import analysis

    real = analysis.audit_bijectivity

    def one_collision(params, max_entries):
        if (params.l, params.r) == (2, 1):
            return analysis.AuditResult(params, ok=False, collision=(0, 1))
        return real(params, max_entries)

    monkeypatch.setattr(analysis, "audit_bijectivity", one_collision)
    argv = ["verify", "--p", "3", "--n", "3", "--lmax", "2"]
    code, out, _ = run(capsys, *argv)
    assert code == 3
    lines = out.splitlines()
    assert [line for line in lines if line.endswith("FAIL")] == [
        "l=2 r=1 j=0 size=9 FAIL", "l=2 r=1 j=1 size=9 FAIL"]
    assert lines[-1] == "FAILURES: 2 of 8 tables"
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 3
    assert [line.split(",")[-1] for line in out.splitlines()] == [
        "status", *["pass"] * 4, "FAIL", "FAIL", "pass", "pass"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 3
    payload = json.loads(out)
    assert payload["all_pass"] is False
    assert [row["ok"] for row in payload["results"]] == [True] * 4 + [False] * 2 + [True] * 2


# ---------------------------------------------------------------- valuation


def test_valuation_closed_form(capsys):
    code, out, _ = run(capsys, "valuation", "--p", "2", "--k", "3", "--j", "4")
    assert code == 0
    assert out == "lemma1=1 kummer=1 legendre=1 direct=1 AGREE\n"


def test_valuation_general(capsys):
    code, out, _ = run(
        capsys, "valuation", "--p", "2", "--top", "10", "--bottom", "5"
    )
    assert code == 0
    assert out == "kummer=2 legendre=2 direct=2 AGREE\n"


def test_valuation_skips_direct_beyond_bound(capsys):
    code, out, _ = run(
        capsys, "valuation", "--p", "2", "--top", "10001", "--bottom", "3"
    )
    assert code == 0
    assert out == "kummer=3 legendre=3 AGREE\n"


def test_valuation_of_a_huge_top_finishes_quickly():
    # 20,001 digits: Legendre's route sums top's digits by splitting it in
    # halves, instead of dividing all of top by each p**i
    top, bottom = 10**20000 + 12345, 12345
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        for p in (2, 3):
            proc = subprocess.run(
                [sys.executable, "-m", "powerperm", "valuation",
                 "--p", str(p), "--top", str(top), "--bottom", str(bottom)],
                capture_output=True,
                text=True,
                timeout=20,
            )
            assert proc.returncode == 0, proc.stderr
            v = binomial.kummer_carries(PrimeBase(p), top, bottom).valuation
            assert proc.stdout == f"kummer={v} legendre={v} AGREE\n"
    finally:
        if limited:
            sys.set_int_max_str_digits(limit)


def test_valuation_of_a_huge_power_finishes_quickly():
    # p**k has 300,001 digits: Kummer's route splits the addends in halves
    # instead of dividing all of them by p once per digit
    proc = subprocess.run(
        [sys.executable, "-m", "powerperm", "valuation", "--p", "3", "--k", "300000",
         "--j", "1"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "lemma1=300000 kummer=300000 legendre=300000 AGREE\n"


def test_valuation_refuses_a_huge_power_up_front():
    # 3**100000000 would take minutes to build, and 7**400000 has 1.12 * 10**6
    # bits; 2**(2**20) sits at the bound, so it is built, and has one bit too many
    for p, k in (("3", "100000000"), ("7", "400000"), ("2", str(2**20))):
        proc = subprocess.run(
            [sys.executable, "-m", "powerperm", "valuation", "--p", p, "--k", k, "--j", "1"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")


def test_valuation_refuses_a_top_past_the_bit_bound(capsys):
    # in-process, since the 315,653 digits of 2**(2**20) are more than one
    # command-line argument may hold
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        top = str(1 << 2**20)
    finally:
        if limited:
            sys.set_int_max_str_digits(limit)
    code, out, err = run(capsys, "valuation", "--p", "2", "--top", top, "--bottom", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_valuation_refuses_a_long_top_before_parsing_it(capsys):
    # A top with more significant digits than 2**(2**20) (315,653) is refused
    # with the bit check's message, without int()'s quadratic parse, which
    # took over a second for 400,000 digits (whitespace around them is
    # str.isspace()'s, bar \x1c-\x1f, as in int()); a negative one and one past
    # int()'s digit limit (10**6, set by main) get argparse's errors as before.
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        assert len(str(1 << cli._TOP_BITS)) == cli._TOP_DIGITS == 315_653
    finally:
        if limited:
            sys.set_int_max_str_digits(limit)
    bits = "error: top has more than 1048576 bits\n"
    past = "9" * 1_000_001
    for top, want in (("9" * 400_000, bits),
                      (" \t00" + "1_2" * 157_827 + "\n", bits),
                      ("\u2003" + "9" * 400_000 + "\u2003", bits),
                      ("-" + "7" * 400_000, "error: argument --top: must be non-negative\n"),
                      (past, f"error: argument --top: invalid _non_negative value: '{past}'\n")):
        start = time.perf_counter()
        try:
            code, out, err = run(capsys, "valuation", "--p", "2", "--top", top, "--bottom", "1")
        except SystemExit as exc:
            code, (out, err) = exc.code, capsys.readouterr()
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == want if want == bits else err.endswith(f"powerperm valuation: {want}")


def test_malformed_integers_are_refused_before_parsing(capsys):
    # int() took over a second to refuse 400,000 digits followed by "x"; every
    # integer option matches an ASCII text first and refuses it at once, with
    # argparse's message, which names the option's type
    bad = "9" * 400_000 + "x"
    for argv, option, kind in (
            (["valuation", "--p", "2", "--top", bad, "--bottom", "1"], "--top", "_non_negative"),
            (["shift", "--p", "3", "--n", bad], "--n", "_positive"),
            (["root", "--p", "3", "--n", "3", "--l", "2", "--z", bad], "--z", "_positive")):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert time.perf_counter() - start < 0.5
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.endswith(f"powerperm {argv[0]}: error: argument {option}: "
                            f"invalid {kind} value: '{bad}'\n")
    # digits of other scripts still reach int(): Arabic-Indic 3 and 8
    for argv, digit, other in ((["shift", "--p", "3", "--n"], "3", "\u0663"),
                               (["root", "--p", "3", "--n", "3", "--l", "1", "--z"], "8", "\u0668")):
        want = run(capsys, *argv, digit)
        assert want[0] == 0
        assert run(capsys, *argv, other) == want


def test_valuation_csv(capsys):
    code, out, _ = run(
        capsys, "valuation", "--p", "3", "--k", "2", "--j", "3",
        "--format", "csv",
    )
    assert code == 0
    assert out == (
        "p,top,bottom,method,valuation\n"
        "3,9,3,lemma1,1\n3,9,3,kummer,1\n3,9,3,legendre,1\n3,9,3,direct,1\n"
    )


def test_valuation_json(capsys):
    code, out, _ = run(
        capsys, "valuation", "--p", "2", "--top", "8", "--bottom", "4",
        "--format", "json",
    )
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["methods"] == {"kummer": 1, "legendre": 1, "direct": 1}


def test_valuation_mixed_forms_rejected(capsys):
    code, _, err = run(
        capsys, "valuation", "--p", "2", "--k", "3", "--top", "8"
    )
    assert code == 2
    assert err.startswith("error:")


def test_valuation_requires_some_form(capsys):
    code, _, err = run(capsys, "valuation", "--p", "2")
    assert code == 2
    assert err.startswith("error:")


def test_valuation_incomplete_pair_rejected(capsys):
    code, _, err = run(capsys, "valuation", "--p", "2", "--k", "3")
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(capsys, "valuation", "--p", "2", "--top", "8")
    assert code == 2
    assert err.startswith("error:")


# ----------------------------------------------------------------- plotdata


def test_plotdata_writes_csv(capsys, tmp_path):
    path = tmp_path / "scatter.csv"
    code, out, _ = run(
        capsys, "plotdata", "--p", "2", "--n", "2", "--l", "4", "--r", "1",
        "--out", str(path),
    )
    assert code == 0
    assert out == f"wrote 16 rows to {path}\n"
    lines = path.read_text().splitlines()
    assert lines[0] == "x,z"
    assert lines[1:] == [f"{x},{x * (x + 1) // 2 % 16}" for x in range(16)]


def test_plotdata_is_byte_stable(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        run(
            capsys, "plotdata", "--p", "3", "--n", "6", "--l", "4", "--r", "2",
            "--out", str(path),
        )
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_plotdata_past_the_bound_writes_no_file(capsys, tmp_path):
    path = tmp_path / "scatter.csv"
    code, out, err = run(
        capsys, "plotdata", "--p", "2", "--n", "3", "--l", "4", "--r", "1",
        "--out", str(path), "--max-table-bits", "3",
    )
    assert code == 2
    assert out == ""
    assert err == "error: enumeration would need 16 entries; bound is 8\n"
    assert not path.exists()


def test_block_commands_refuse_a_wide_block_from_l_alone(tmp_path):
    # 3**30000000 has over 14 million digits; the bound refuses it from l,
    # without building or printing it, and writes no file
    path = tmp_path / "scatter.csv"
    for command in ("table", "plotdata"):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "powerperm", command, "--p", "3", "--n", "3",
             "--l", "30000000", "--r", "1", "--out", str(path)],
            capture_output=True,
            text=True,
            timeout=5,
        )
        assert time.perf_counter() - start < 5
        assert proc.returncode == 2, command
        assert proc.stdout == ""
        assert proc.stderr == ("error: enumeration would need 3**30000000 entries; "
                               f"bound is {2**24}\n"), command
        assert len(proc.stderr.encode()) < 200
        assert not path.exists()


def test_plotdata_requires_out(capsys):
    code, _, err = run(
        capsys, "plotdata", "--p", "2", "--n", "2", "--l", "4", "--r", "1"
    )
    assert code == 2
    assert err.startswith("error:")


def test_plotdata_unwritable_path_is_clean_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "plotdata", "--p", "2", "--n", "2", "--l", "4", "--r", "1",
        "--out", str(tmp_path / "missing" / "scatter.csv"),
    )
    assert code == 2
    assert err.startswith("error:")


# --------------------------------------------------------------- subprocess


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "powerperm", "table",
         "--p", "3", "--n", "3", "--l", "2", "--r", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0 7 2 3 1 5 6 4 8\n"


def test_subprocess_exit_code_for_domain_failure():
    proc = subprocess.run(
        [sys.executable, "-m", "powerperm", "root",
         "--p", "3", "--n", "3", "--l", "2", "--z", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert proc.stdout == "no preimage\n"


def test_cli_import_loads_only_what_every_command_needs():
    # compare with the modules loaded at start-up, which site may widen
    script = """if True:
        import sys
        before = set(sys.modules)
        import powerperm.cli
        print(" ".join(sorted(set(sys.modules) - before)))
        from powerperm import audit_bijectivity, ValuationReport
        import powerperm
        print(audit_bijectivity.__module__, ValuationReport.__module__,
              powerperm.binomial.DIRECT_BOUND)
    """
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded, lazy = proc.stdout.splitlines()
    loaded = set(loaded.split())
    assert {m for m in loaded if m.startswith("powerperm")} == {
        "powerperm", "powerperm._records", "powerperm.cli", "powerperm.coding",
        "powerperm.errors", "powerperm.padic"}
    assert not loaded & {"dataclasses", "inspect", "json", "powerperm.analysis",
                         "powerperm.binomial"}
    assert lazy == "powerperm.analysis powerperm.binomial 10000"

"""Command-line front end.

Every command is a thin adapter over the library: identical inputs produce
byte-identical output. Exit codes: 0 success, 2 usage or validation error,
3 domain failure (for example no preimage for a root query). A fresh process
pays for every import, so analysis, binomial and json load only in the
commands and the format that use them.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from array import array
from collections.abc import Callable, Iterable, Iterator
from contextlib import nullcontext
from itertools import chain, islice

from . import coding
from .errors import PowerPermError
from .padic import PrimeBase

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_DOMAIN = 3
_CHUNK = 4096  # rows or values turned into text per write
# Most bits valuation takes in a top; its routes are quadratic in them (CPython's division).
_TOP_BITS = 1 << 20
# Decimal digits of 2**_TOP_BITS: a top with more has more than _TOP_BITS bits.
_TOP_DIGITS = int(_TOP_BITS * math.log10(2)) + 1
# The texts of ASCII digits int() reads: a sign and digits, single underscores
# between digits, and whitespace (str.isspace(), but not \x1c-\x1f) around them.
_INTEGER = r"[^\S\x1c-\x1f]*([+-]?)([0-9]+(?:_[0-9]+)*)[^\S\x1c-\x1f]*"


def _joined(sep: str, pieces: Iterable[str]) -> Iterator[str]:
    """sep.join(pieces), handed out a few thousand pieces at a time."""
    it, lead = iter(pieces), ""
    while batch := list(islice(it, _CHUNK)):
        yield lead + sep.join(batch)
        lead = sep


def _render(ns: argparse.Namespace, obj: dict, header: str,
            rows: Iterable[Iterable], plain: Callable[[], Iterable[str]]) -> None:
    """Write one result to --out or stdout in the format --format names.

    obj is the JSON object (an array value is written as a list), header
    and rows the CSV form, and plain yields the plain text in pieces, so
    that a large table is turned into text only once, in the format asked
    for. Every format is written as it is formatted, a few thousand values
    at a time.
    """
    with open(ns.out, "w", newline="\n") if ns.out else nullcontext(sys.stdout) as fh:
        if ns.format == "json":
            import json

            lead = "{"
            for key, value in obj.items():
                fh.write(f"{lead}{json.dumps(key)}: ")
                if isinstance(value, array):
                    fh.writelines(chain(["["], _joined(", ", map(str, value)), ["]"]))
                else:
                    fh.write(json.dumps(value))
                lead = ", "
            fh.write("}")
        elif ns.format == "csv":
            fh.writelines(_joined("\n", chain(
                [header], (",".join(map(str, row)) for row in rows))))
        else:
            fh.writelines(plain())
        # One trailing newline, LF endings, no locale formatting.
        fh.write("\n")


def _max_entries(ns: argparse.Namespace) -> int:
    return 1 << ns.max_table_bits


def _coding_params(ns: argparse.Namespace) -> coding.CodingParams:
    return coding.CodingParams.make(ns.p, ns.n, ns.l, ns.r, ns.j)


def _coding_obj(ns: argparse.Namespace, **result) -> dict:
    return {"p": ns.p, "n": ns.n, "l": ns.l, "r": ns.r, "j": ns.j, **result}


def cmd_shift(ns: argparse.Namespace) -> int:
    base = PrimeBase(ns.p)
    power = coding.PowerSpec.from_power(ns.n, base)
    alpha = coding.shift(power, base) + power.n * ns.j
    obj = {"p": ns.p, "n": ns.n, "j": ns.j, "q": power.q, "k": power.k, "alpha": alpha}
    _render(ns, obj, ",".join(obj), [obj.values()],
            lambda: [f"alpha'={alpha} (q={power.q}, k={power.k}, j={ns.j})" if ns.j
                     else f"alpha={alpha} (q={power.q}, k={power.k})"])
    return _EXIT_OK


def cmd_table(ns: argparse.Namespace) -> int:
    params = _coding_params(ns)
    image = coding.permutation_table(params, _max_entries(ns)).image
    _render(ns, _coding_obj(ns, alpha=coding.extended_shift(params), image=image),
            "x,z", enumerate(image), lambda: _joined(" ", map(str, image)))
    return _EXIT_OK


def cmd_encode(ns: argparse.Namespace) -> int:
    z = coding.encode(_coding_params(ns), ns.x)
    _render(ns, _coding_obj(ns, x=ns.x, z=z), "x,z", [(ns.x, z)], lambda: [str(z)])
    return _EXIT_OK


def cmd_decode(ns: argparse.Namespace) -> int:
    x = coding.decode(_coding_params(ns), ns.code)
    _render(ns, _coding_obj(ns, code=ns.code, x=x), "code,x", [(ns.code, x)],
            lambda: [str(x)])
    return _EXIT_OK


def cmd_root(ns: argparse.Namespace) -> int:
    roots = coding.roots(PrimeBase(ns.p), ns.n, ns.l, ns.z, _max_entries(ns))
    _render(ns, {"p": ns.p, "n": ns.n, "l": ns.l, "z": ns.z,
                 "candidates": [c._asdict() for c in roots]}, "r,xprime,x,modulus", roots,
            lambda: ["\n".join(f"x = {c.x} (mod {c.modulus})  [x' = {c.xprime}, r = {c.r}]"
                               for c in roots) or "no preimage"])
    return _EXIT_OK if roots else _EXIT_DOMAIN


def cmd_verify(ns: argparse.Namespace) -> int:
    from . import analysis

    base = PrimeBase(ns.p)
    power = coding.PowerSpec.from_power(ns.n, base)
    rows = []
    for l in range(1, ns.lmax + 1):
        for r in range(1, ns.p):
            # The block does not depend on j, so one audit serves both rows.
            params = coding.CodingParams(p=base, power=power, l=l, r=r)
            audit = analysis.audit_bijectivity(params, _max_entries(ns))
            status = "pass" if audit.ok else "FAIL"
            rows += [(l, r, j, params.size(), status) for j in (0, 1)]
    failures = sum(1 for row in rows if row[4] == "FAIL")
    tail = (f"all pass ({len(rows)} tables)" if failures == 0
            else f"FAILURES: {failures} of {len(rows)} tables")
    _render(ns, {"p": ns.p, "n": ns.n, "results": [
                {"l": l, "r": r, "j": j, "size": size, "ok": status == "pass"}
                for l, r, j, size, status in rows], "all_pass": failures == 0},
            "l,r,j,size,status", rows,
            lambda: ["\n".join([f"l={l} r={r} j={j} size={size} {status}"
                                for l, r, j, size, status in rows] + [tail])])
    return _EXIT_OK if failures == 0 else _EXIT_DOMAIN


def cmd_valuation(ns: argparse.Namespace) -> int:
    from . import binomial

    base = PrimeBase(ns.p)
    lemma_form = ns.k is not None or ns.j is not None
    general_form = ns.top is not None or ns.bottom is not None
    if lemma_form == general_form:
        raise PowerPermError("give either --k and --j, or --top and --bottom")
    if lemma_form:
        if ns.k is None or ns.j is None:
            raise PowerPermError("the closed-form query needs both --k and --j")
        # p**k has at least k * log2(p) bits, so one far past the bound is never built
        reports = ([binomial.valuation_lemma1(base, ns.k, ns.j)]
                   if ns.k <= (_TOP_BITS + 1) / math.log2(ns.p) else [])
        top, bottom = reports[0].top if reports else None, ns.j
    else:
        if ns.top is None or ns.bottom is None:
            raise PowerPermError("the general query needs both --top and --bottom")
        top, bottom, reports = ns.top, ns.bottom, []
    if top is None or top.bit_length() > _TOP_BITS:
        raise PowerPermError(f"top has more than {_TOP_BITS} bits")
    reports.append(binomial.kummer_carries(base, top, bottom))
    reports.append(binomial.valuation_legendre(base, top, bottom))
    if top <= binomial.DIRECT_BOUND:
        reports.append(binomial.valuation_direct(base, top, bottom))
    agree = len({rep.valuation for rep in reports}) == 1
    _render(ns, {"p": ns.p, "top": top, "bottom": bottom,
                 "methods": {rep.method: rep.valuation for rep in reports},
                 "agree": agree},
            "p,top,bottom,method,valuation",
            [(ns.p, top, bottom, rep.method, rep.valuation) for rep in reports],
            lambda: [" ".join([f"{rep.method}={rep.valuation}" for rep in reports]
                              + ["AGREE" if agree else "DISAGREE"])])
    return _EXIT_OK if agree else _EXIT_DOMAIN


def cmd_plotdata(ns: argparse.Namespace) -> int:
    if not ns.out:
        raise PowerPermError("plotdata requires --out")
    params = _coding_params(ns)
    coding.check_block(params, _max_entries(ns))
    with open(ns.out, "w", newline="\n") as fh:
        fh.writelines(_joined("\n", chain(["x,z"], (
            f"{x},{z}" for x, z in enumerate(coding.iter_codes(params))))))
        fh.write("\n")
    sys.stdout.write(f"wrote {params.size()} rows to {ns.out}\n")
    return _EXIT_OK


def _integer(text: str) -> int:
    # int() takes time quadratic in the digits even to refuse a long malformed
    # text, so an ASCII text is matched first; other scripts' digits reach int().
    if text.isascii() and not re.fullmatch(_INTEGER, text):
        raise ValueError(text)  # argparse names the option's type in its error
    return int(text)


def _positive(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _table_bits(text: str) -> int:
    # 2**64 entries is past any real enumeration; refusing larger values here
    # keeps 1 << bits from building a huge integer before any bound check.
    value = _positive(text)
    if value > 64:
        raise argparse.ArgumentTypeError("must be at most 64")
    return value


def _non_negative(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


@functools.wraps(_non_negative)  # argparse names the type in its errors
def _top(text: str) -> int:
    # cmd_valuation refuses any top of more significant digits than _TOP_DIGITS,
    # so 2**_TOP_BITS stands in for it, unparsed, as int() is quadratic in the
    # digits. Other texts, and those past int()'s digit limit, reach int().
    match = re.fullmatch(_INTEGER, text)
    if match:
        digits = match[2].replace("_", "")
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if len(digits.lstrip("0")) > _TOP_DIGITS and not 0 < limit < len(digits):
            if match[1] == "-":
                raise argparse.ArgumentTypeError("must be non-negative")
            return 1 << _TOP_BITS
    return _non_negative(text)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("plain", "csv", "json"),
                        default="plain", help="output format (default plain)")
    common.add_argument("--out", help="write output to this file instead of stdout")
    common.add_argument("--max-table-bits", type=_table_bits, default=coding.TABLE_BITS,
                        help="refuse enumerations beyond 2**BITS entries")
    common.add_argument("--p", type=_positive, required=True)

    parser = argparse.ArgumentParser(
        prog="powerperm",
        description="Permutations induced on base-p digit blocks by x -> x**n.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("shift", parents=[common],
                        help="digit position where the permuted window starts")
    sp.add_argument("--n", type=_positive, required=True)
    sp.add_argument("--j", type=_non_negative, default=0)
    sp.set_defaults(func=cmd_shift)

    for name, func, extra in (
        ("table", cmd_table, ()),
        ("encode", cmd_encode, ("x",)),
        ("decode", cmd_decode, ("code",)),
        ("plotdata", cmd_plotdata, ()),
    ):
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("--n", type=_positive, required=True)
        sp.add_argument("--l", type=_positive, required=True)
        sp.add_argument("--r", type=_non_negative, required=True)
        sp.add_argument("--j", type=_non_negative, default=0)
        for flag in extra:
            sp.add_argument(f"--{flag}", type=_non_negative, required=True)
        sp.set_defaults(func=func)

    sp = sub.add_parser("root", parents=[common],
                        help="recover x from an exact power x**n")
    sp.add_argument("--n", type=_positive, required=True)
    sp.add_argument("--l", type=_positive, required=True)
    sp.add_argument("--z", type=_positive, required=True)
    sp.set_defaults(func=cmd_root)

    sp = sub.add_parser("verify", parents=[common],
                        help="audit bijectivity over a parameter sweep")
    sp.add_argument("--n", type=_positive, required=True)
    sp.add_argument("--lmax", type=_positive, required=True)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("valuation", parents=[common],
                        help="p-adic valuation of a binomial coefficient")
    sp.add_argument("--k", type=_positive, default=None)
    sp.add_argument("--j", type=_positive, default=None)
    sp.add_argument("--top", type=_top, default=None)
    sp.add_argument("--bottom", type=_non_negative, default=None)
    sp.set_defaults(func=cmd_valuation)

    return parser


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(1_000_000)  # accept very large --z values
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except (PowerPermError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Independent reference answers for the benchmark.

Nothing here imports powerperm. Every answer is computed from the paper's
formulas with plain integer arithmetic, so a wrong answer in the package
cannot also be a wrong answer here:

- the window start is alpha = 1 + k, plus 1 when p == 2 and k >= 1, with
  n = q * p**k split here, not by the package;
- encode is the full-power formula: the digits of x**n at positions
  [alpha + n*j, alpha + n*j + l), with x = p**j * (p*x' + r);
- binomial valuations come from math.comb.

It also holds the expected CLI output for each subcommand and format.
"""

from __future__ import annotations

import json
import math

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3 * 10**24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_near(rng, bits: int) -> int:
    """A random prime with exactly `bits` bits."""
    while True:
        c = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        if is_prime(c):
            return c


def split(p: int, n: int) -> tuple[int, int]:
    """(q, k) with n = q * p**k and p not dividing q."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return n, k


def alpha(p: int, n: int) -> int:
    """The paper's window start for the unit argument p*x' + r."""
    _, k = split(p, n)
    return 1 + k + (1 if p == 2 and k >= 1 else 0)


def encode(p: int, n: int, l: int, r: int, j: int, xp: int) -> int:
    """Full-power formula: l digits of x**n read at alpha + n*j."""
    x = p**j * (p * xp + r)
    return (x**n // p ** (alpha(p, n) + n * j)) % p**l


def table(p: int, n: int, l: int, r: int) -> list[int]:
    """Every code of one block, by the full-power formula at j = 0."""
    a = p ** alpha(p, n)
    size = p**l
    return [((p * xp + r) ** n // a) % size for xp in range(size)]


def is_permutation(image, size: int) -> bool:
    return len(image) == size and len(set(image)) == size and (
        size == 0 or (min(image) == 0 and max(image) == size - 1))


def binom_valuation(p: int, top: int, bottom: int) -> int:
    """Exponent of p in math.comb(top, bottom)."""
    c = math.comb(top, bottom)
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


# ---------------------------------------------------------------- CLI text

def _json(obj) -> str:
    return json.dumps(obj, separators=(", ", ": "))


def cli_shift(fmt: str, p: int, n: int, j: int) -> str:
    q, k = split(p, n)
    a = alpha(p, n) + n * j
    if fmt == "json":
        return _json({"p": p, "n": n, "j": j, "q": q, "k": k, "alpha": a})
    if fmt == "csv":
        return f"p,n,j,q,k,alpha\n{p},{n},{j},{q},{k},{a}"
    if j:
        return f"alpha'={a} (q={q}, k={k}, j={j})"
    return f"alpha={a} (q={q}, k={k})"


def cli_table(fmt: str, p: int, n: int, l: int, r: int, j: int, image) -> str:
    if fmt == "json":
        return _json({"p": p, "n": n, "l": l, "r": r, "j": j,
                      "alpha": alpha(p, n) + n * j, "image": list(image)})
    if fmt == "csv":
        return "x,z\n" + "\n".join(f"{x},{z}" for x, z in enumerate(image))
    return " ".join(map(str, image))


def cli_encode(fmt: str, p: int, n: int, l: int, r: int, j: int, x: int, z: int) -> str:
    if fmt == "json":
        return _json({"p": p, "n": n, "l": l, "r": r, "j": j, "x": x, "z": z})
    if fmt == "csv":
        return f"x,z\n{x},{z}"
    return str(z)


def cli_decode(fmt: str, p: int, n: int, l: int, r: int, j: int, code: int, x: int) -> str:
    if fmt == "json":
        return _json({"p": p, "n": n, "l": l, "r": r, "j": j, "code": code, "x": x})
    if fmt == "csv":
        return f"code,x\n{code},{x}"
    return str(x)


def parse_decode(fmt: str, text: str) -> int | None:
    """The x' a decode printed, or None when the text has the wrong shape."""
    try:
        if fmt == "json":
            return int(json.loads(text)["x"])
        if fmt == "csv":
            head, row = text.split("\n")
            return int(row.split(",")[1]) if head == "code,x" else None
        return int(text)
    except (ValueError, KeyError, IndexError, TypeError):
        return None


def cli_verify(fmt: str, p: int, n: int, results) -> str:
    """results: (l, r, j, size, ok) in the CLI's loop order."""
    failures = sum(1 for rec in results if not rec[4])
    if fmt == "json":
        return _json({"p": p, "n": n, "results": [
            {"l": l, "r": r, "j": j, "size": size, "ok": ok}
            for l, r, j, size, ok in results], "all_pass": failures == 0})
    if fmt == "csv":
        return "l,r,j,size,status\n" + "\n".join(
            f"{l},{r},{j},{size},{'pass' if ok else 'FAIL'}"
            for l, r, j, size, ok in results)
    lines = [f"l={l} r={r} j={j} size={size} {'pass' if ok else 'FAIL'}"
             for l, r, j, size, ok in results]
    tail = (f"all pass ({len(results)} tables)" if failures == 0
            else f"FAILURES: {failures} of {len(results)} tables")
    return "\n".join(lines + [tail])


def cli_valuation(fmt: str, p: int, top: int, bottom: int, methods, v: int) -> str:
    """Every method is expected to report the math.comb valuation v."""
    if fmt == "json":
        return _json({"p": p, "top": top, "bottom": bottom,
                      "methods": {m: v for m in methods}, "agree": True})
    if fmt == "csv":
        return "p,top,bottom,method,valuation\n" + "\n".join(
            f"{p},{top},{bottom},{m},{v}" for m in methods)
    return " ".join(f"{m}={v}" for m in methods) + " AGREE"


def parse_root(fmt: str, text: str) -> list[tuple[int, int]] | None:
    """(x, modulus) of every congruence a root query printed.

    Returns None when the text does not have the format's shape.
    """
    try:
        if fmt == "json":
            return [(int(c["x"]), int(c["modulus"]))
                    for c in json.loads(text)["candidates"]]
        lines = text.split("\n")
        if fmt == "csv":
            if lines[0] != "r,xprime,x,modulus":
                return None
            return [(int(f[2]), int(f[3])) for f in
                    (line.split(",") for line in lines[1:])]
        if text == "no preimage":
            return []
        out = []
        for line in lines:
            head, _ = line.split("  [", 1)
            xs, mod = head.removeprefix("x = ").split(" (mod ")
            out.append((int(xs), int(mod.rstrip(")"))))
        return out
    except (ValueError, KeyError, IndexError, TypeError):
        return None


def cycle_lengths(image) -> tuple[int, ...]:
    """Sorted cycle lengths of a permutation given as its image list."""
    seen = bytearray(len(image))
    out = []
    for start in range(len(image)):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = 1
            x = image[x]
            length += 1
        out.append(length)
    return tuple(sorted(out))

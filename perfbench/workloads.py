"""The three workloads: seeded inputs, the calls into powerperm, the checks.

A workload is built from a seeded random.Random and holds one round: a
fixed list of operations. The runner repeats the round, so every run does
the same mix of work, and the oracle's answers are memoised per operation.
Each operation is one call into one layer; `layer` is its span name.

check() returns OK, FAIL, or LIMIT. LIMIT is a wrong answer of the one
kind README.md documents as a limit of the program (a `root` query at
p = 2 with even n and an argument of 2**(l+1) or more lands on the
co-root). It counts as failed like any other wrong answer.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import math
import os
import random
import resource
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from itertools import accumulate
from time import perf_counter_ns

import oracle

OK, FAIL, LIMIT = "ok", "fail", "limit"

SMALL_ODD = (3, 5, 7, 11, 13)
NARROW_BITS = 16           # narrow blocks: p**l <= 2**16
ENCODE_BITS_CAP = 1 << 17  # bits of x**n in one wide encode


@dataclass(eq=False)
class Op:
    layer: str    # span name, e.g. "coding.decode.narrow"
    fn: object    # the program's function
    args: tuple
    spec: tuple   # what the oracle needs


def _lmax(p: int, bits: int = NARROW_BITS) -> int:
    """The widest block with p**l <= 2**bits (at least 1)."""
    l = 1
    while p ** (l + 1) <= 1 << bits:
        l += 1
    return l


def _unit(rng, p: int, lo: int, hi: int) -> int:
    """An integer in [lo, hi] that p does not divide (hi >= lo >= 1)."""
    while True:
        n = rng.randint(lo, hi)
        if n % p:
            return n


def _exponent(rng, p: int, hi: int, want_k: bool, composite: bool = False) -> int:
    """n <= hi with k >= 1 when want_k (and p <= hi), else with k == 0.

    composite also asks for q > 1, so that the map has two stages.
    """
    if not want_k or p > hi:
        return _unit(rng, p, 2 if composite else 1, max(hi, 2))
    k = rng.choice([k for k in range(1, 40) if p**k * (2 if composite else 1) <= hi]
                   or [1])
    q = _unit(rng, p, 2 if composite else 1, max(hi // p**k, 2))
    return q * p**k


class _Program:
    """Builds the program's parameter objects, timing PrimeBase when traced."""

    def __init__(self, pp, tracer) -> None:
        self.pp = pp
        self.tracer = tracer

    def base(self, p: int):
        if self.tracer is None:
            return self.pp.padic.PrimeBase(p)
        return self.tracer.call("padic.prime_base", None, self.pp.padic.PrimeBase, p)

    def params(self, p: int, n: int, l: int, r: int, j: int):
        base = self.base(p)
        coding = self.pp.coding
        return coding.CodingParams(p=base, power=coding.PowerSpec.from_power(n, base),
                                   l=l, r=r, j=j)


class _Workload:
    """What the runner needs beyond `ops`, `call` and `check`."""

    TAIL = 90  # lat_tail_ms percentile; see README.md

    def extras(self, op, op_id, tracer) -> str:
        """Untimed work after each traced operation; returns its verdict."""
        return OK

    def finish_trace(self, times, rounds) -> dict:
        """Per-layer metrics the spans alone do not give."""
        return {}

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ------------------------------------------------------------------ query-mix

# Fixed shapes keep the cost of a round the same from seed to seed; the seed
# draws the primes p30 and p62, every n (within a band), r, j, x', code,
# binomial argument and the order.
# Wide slots are (p, l, k >= 1); n is at most 24, and for encodes x**n stays
# within ENCODE_BITS_CAP bits.
WIDE_DECODE_SLOTS = (
    (2, 512, False), (2, 512, True), (2, 128, True), (3, 256, False), (3, 128, True),
    (5, 512, False), (5, 64, True), (7, 256, False), (7, 128, True), (11, 128, False),
    (11, 64, True), (13, 512, False), (13, 128, True), ("p30", 32, False),
    ("p30", 64, False), ("p62", 32, False))
WIDE_ENCODE_SLOTS = (
    (2, 512, False), (2, 256, True), (2, 32, True), (3, 512, True), (5, 128, False),
    (7, 64, True), (11, 256, False), (13, 32, True), ("p30", 128, False),
    ("p30", 32, False), ("p62", 64, False), ("p62", 512, False))
# Narrow decodes build a table on a cache miss: sizes 2**13..2**16 with
# n <= 13 keep one build under 0.1 s here.
NARROW_DECODE_SHAPES = (
    (2, 16), (3, 10), (2, 15), (13, 4), (2, 14), (3, 9), (7, 5), (5, 6), (11, 4),
    (2, 16), (3, 10), (2, 13), (13, 4), (7, 5), (2, 15), (5, 6))
TINY_NARROW_SHAPES = ((2, 10), (3, 6), (5, 4), (7, 3), (2, 9), (3, 5), (2, 8), (5, 3),
                      (7, 3), (2, 10))
# Operations per round by layer.
QUERY_MIX = {"coding.decode.narrow": 150, "coding.encode.narrow": 150,
             "coding.encode.wide": 200, "coding.decode.wide": 150,
             "coding.encode_via_composition": 100, "binomial": 62}


class QueryMix(_Workload):
    """Point queries through the library: encode, decode, composition, binomial."""

    TAIL = 99

    def __init__(self, pp, rng, root, tracer=None, tiny=False) -> None:
        prog = _Program(pp, tracer)
        coding, binomial = pp.coding, pp.binomial
        big = {"p30": oracle.prime_near(rng, 30), "p62": oracle.prime_near(rng, 62)}
        count = {k: v // (8 if tiny else 1) for k, v in QUERY_MIX.items()}

        def params(p, n, l):
            return prog.params(p, n, l, rng.randrange(1, min(p, 1 << 20)), rng.randrange(3))

        def wide(slot, bits_cap=None):
            p, l, want_k = slot
            p, l = big.get(p, p), min(l, 48) if tiny else l
            hi = 24 if bits_cap is None else min(24, int(bits_cap / ((l + 1) * math.log2(p))))
            return params(p, _exponent(rng, p, hi, want_k), l)

        primes = (2,) + SMALL_ODD
        enc_narrow = [params(p, _exponent(rng, p, 32, i % 2 == 1),
                             max(1, _lmax(p) * (i // len(primes) + 1) // 4))
                      for i, p in enumerate(primes * 4)]
        enc_wide = [wide(slot, ENCODE_BITS_CAP) for slot in WIDE_ENCODE_SLOTS]
        dec_wide = [wide(slot) for slot in WIDE_DECODE_SLOTS]
        dec_narrow = [params(p, _exponent(rng, p, 12, i % 2 == 1), l) for i, (p, l) in
                      enumerate(TINY_NARROW_SHAPES if tiny else NARROW_DECODE_SHAPES)]
        compose = [params(p, _exponent(rng, p, 48, True, composite=True),
                          _lmax(p) // 2 if i % 2 else 64)
                   for i, p in enumerate((2, 3, 5, 7) * 3)]
        bases = [prog.base(p) for p in primes + tuple(big.values())]

        ops: list[Op] = []

        def point(layer, fn, prm):
            arg = rng.randrange(prm.size())
            spec = (prm.p.p, prm.power.n, prm.l, prm.r, prm.j, arg)
            ops.append(Op(layer, fn, (prm, arg), spec))

        # Every parameter set of a pool gets the same share of its calls.
        for pool, key, layer, fn in (
                (enc_narrow, "coding.encode.narrow", "coding.encode", coding.encode),
                (enc_wide, "coding.encode.wide", "coding.encode", coding.encode),
                (dec_wide, "coding.decode.wide", "coding.decode.wide", coding.decode),
                (compose, "coding.encode_via_composition", "coding.encode_via_composition",
                 coding.encode_via_composition)):
            for i in range(count[key]):
                point(layer, fn, pool[i % len(pool)])
        for i in range(count["binomial"]):
            base = bases[i % len(bases)]
            p = base.p
            k = rng.randint(1, max(1, 12 // p.bit_length()))
            j = rng.randrange(1, min(p**k, 4096))
            ops.append(Op("binomial.lemma1", binomial.valuation_lemma1, (base, k, j),
                          (p, p**k, j)))
            for layer, fn, cap in (
                    ("binomial.kummer", binomial.kummer_carries, 20_000),
                    ("binomial.legendre", binomial.valuation_legendre, 20_000),
                    ("binomial.direct", binomial.valuation_direct, binomial.DIRECT_BOUND)):
                top = int(cap * (i + rng.random()) / count["binomial"])  # stratified
                bottom = rng.randint(0, top)
                ops.append(Op(layer, fn, (base, top, bottom), (p, top, bottom)))
        for _ in range(count["coding.decode.narrow"]):
            point("coding.decode.narrow", coding.decode, dec_narrow[0])
        rng.shuffle(ops)
        # Skewed reuse: narrow decodes follow a Zipf law over 16 sets, twice the
        # size of decode's table cache, so the cache sees hits and misses. Only
        # these calls touch the cache, and their sequence of sets is fixed, so
        # every seed sees the same hits and misses.
        zipf = list(accumulate(1 / (i + 1) ** 1.1 for i in range(len(dec_narrow))))
        reuse = random.Random(0)
        for op in ops:
            if op.layer == "coding.decode.narrow":
                prm = dec_narrow[bisect.bisect(zipf, reuse.random() * zipf[-1])]
                code = op.spec[-1] % prm.size()
                op.args = (prm, code)
                op.spec = (prm.p.p, prm.power.n, prm.l, prm.r, prm.j, code)
        self.ops = ops
        self._verdicts: dict = {}

    @staticmethod
    def call(op: Op):
        return op.fn(*op.args)

    def check(self, i: int, op: Op, result) -> str:
        if op.layer.startswith("binomial."):
            key = (i,)
            value = result.valuation
        else:
            key = (i, result)
            value = result
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = OK if self._right(op, value) else FAIL
            self._verdicts[key] = verdict
        return verdict

    @staticmethod
    def _right(op: Op, value) -> bool:
        if op.layer.startswith("binomial."):
            return value == oracle.binom_valuation(*op.spec)
        p, n, l, r, j, arg = op.spec
        if op.layer.startswith("coding.decode"):
            return (isinstance(value, int) and 0 <= value < p**l
                    and oracle.encode(p, n, l, r, j, value) == arg)
        return value == oracle.encode(p, n, l, r, j, arg)


# ---------------------------------------------------------------------- sweep

SWEEP_SHAPES = (
    # (p, l, n): block sizes from 2**12 to 2**20, k = 0 and k >= 1, and three
    # sets with large n. n is fixed so that a round costs the same for every
    # seed; the seed draws r, j, the sample points and the order.
    (2, 20, 6), (3, 12, 4), (5, 8, 3), (7, 7, 2), (2, 12, 1000),
    (3, 8, 200), (2, 16, 5), (11, 5, 11), (13, 4, 7), (2, 14, 96), (5, 6, 25),
    (2, 12, 2))
TINY_SWEEP_SHAPES = ((2, 10, 3), (3, 6, 4), (2, 8, 150))
SAMPLES = 64


class Sweep(_Workload):
    """Whole-permutation work: enumerate, tabulate, invert, audit, export."""

    STEPS = ("coding.iter_codes", "coding.permutation_table", "coding.inverse_image",
             "analysis.cycle_structure", "analysis.audit_bijectivity",
             "analysis.export_scatter")

    def __init__(self, pp, rng, root, tracer=None, tiny=False) -> None:
        prog = _Program(pp, tracer)
        coding, analysis = pp.coding, pp.analysis
        self.analysis = analysis
        fns = {
            "coding.iter_codes": lambda prm: list(coding.iter_codes(prm)),
            "coding.permutation_table": coding.permutation_table,
            "analysis.audit_bijectivity": analysis.audit_bijectivity,
            "analysis.export_scatter": analysis.export_scatter,
        }
        self.sets = []
        for p, l, n in (TINY_SWEEP_SHAPES if tiny else SWEEP_SHAPES):
            r, j = rng.randrange(1, p), rng.randrange(3)
            samples = sorted(rng.sample(range(p**l), SAMPLES))
            self.sets.append((prog.params(p, n, l, r, j), samples))
        rng.shuffle(self.sets)
        self.ops = [Op(step, fns.get(step), (prm,), (s,))
                    for s, (prm, _) in enumerate(self.sets) for step in self.STEPS]
        self._expected: dict[int, dict[int, int]] = {}
        self._cycles: dict[int, tuple[int, ...]] = {}
        self._table = None
        self.peaks: dict[str, list[tuple[int, int]]] = {}  # layer -> (bytes, entries)

    def call(self, op: Op):
        if op.layer == "coding.inverse_image":
            return self._table.inverse_image()
        if op.layer == "analysis.cycle_structure":
            return self.analysis.cycle_structure(self._table)
        if op.layer == "coding.iter_codes":
            self._table = None
        result = op.fn(*op.args)
        if op.layer == "coding.permutation_table":
            self._table = result
        return result

    def _samples(self, s: int) -> dict[int, int]:
        exp = self._expected.get(s)
        if exp is None:
            prm, samples = self.sets[s]
            spec = (prm.p.p, prm.power.n, prm.l, prm.r, prm.j)
            exp = self._expected[s] = {x: oracle.encode(*spec, x) for x in samples}
        return exp

    def _image_ok(self, s: int, image) -> bool:
        size = self.sets[s][0].size()
        return (oracle.is_permutation(image, size)
                and all(image[x] == z for x, z in self._samples(s).items()))

    def check(self, i: int, op: Op, result) -> str:
        s = op.spec[0]
        prm, _ = self.sets[s]
        size = prm.size()
        layer = op.layer
        if layer == "coding.iter_codes":
            ok = self._image_ok(s, result)
        elif layer == "coding.permutation_table":
            ok = result.params == prm and self._image_ok(s, result.image)
        elif layer == "coding.inverse_image":
            image = self._table.image
            ok = len(result) == size and all(
                result[image[x]] == x and image[result[x]] == x for x in self._samples(s))
        elif layer == "analysis.cycle_structure":
            ok = self._cycles_ok(s, result)
        elif layer == "analysis.audit_bijectivity":
            ok = result.ok is True and result.collision is None and result.params == prm
        else:
            pts = result.points
            ok = len(pts) == size and all(
                pts[x] == (x, z) for x, z in self._samples(s).items())
        return OK if ok else FAIL

    def _cycles_ok(self, s: int, rep) -> bool:
        image = self._table.image
        lengths = self._cycles.get(s)
        if lengths is None:
            lengths = self._cycles[s] = oracle.cycle_lengths(image)
        return (rep.cycle_lengths == lengths and rep.cycle_count == len(lengths)
                and len(rep.fixed_points) == lengths.count(1)
                and all(image[f] == f for f in rep.fixed_points))

    def extras(self, op, op_id, tracer) -> str:
        # Peak traced allocation of a table and of scatter data, per entry, on
        # the sets up to 2**16 entries in the first traced round. tracemalloc
        # slows allocation, so this is a separate, untimed call.
        if op.layer not in ("coding.permutation_table", "analysis.export_scatter") \
                or op_id >= len(self.ops) or op.args[0].size() > 1 << 16:
            return OK
        tracemalloc.start()
        try:
            result = op.fn(*op.args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del result
        self.peaks.setdefault(op.layer, []).append((peak, op.args[0].size()))
        return OK

    def finish_trace(self, times, rounds) -> dict:
        entries = rounds * sum(prm.size() for prm, _ in self.sets)
        out = {"coding.permutation_table.entries": entries,
               "coding.iter_codes.entries_per_s":
                   entries / (sum(times.get("coding.iter_codes", ())) / 1e9 or 1)}
        for layer, peaks in self.peaks.items():
            out[f"{layer}.bytes_per_entry"] = (sum(b for b, _ in peaks)
                                               / sum(e for _, e in peaks))
        return out


# ------------------------------------------------------------------------ cli

SUBCOMMANDS = ("shift", "table", "encode", "decode", "root", "verify", "valuation",
               "plotdata")
FORMATS = ("plain", "csv", "json")
CLI_TABLE_BITS = 12  # every enumeration stays at or below 2**12 entries


class Cli(_Workload):
    """Fresh `python -m powerperm` processes, one at a time."""

    def __init__(self, pp, rng, root, tracer=None, tiny=False) -> None:
        self.cli = pp.cli
        self.root = root
        src, extra = str(root / "src"), os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + extra if extra else ""))
        self.plot_path = os.path.join("perfbench", "out", "plot.csv")
        ops = []

        def add(sub, fmt, argv, spec):
            argv = [sub, *map(str, argv), "--format", fmt]
            ops.append(Op("cli." + sub, None, tuple(argv), (sub, fmt) + spec))

        for sub in SUBCOMMANDS:
            if sub != "root":
                for fmt in FORMATS:
                    add(sub, fmt, *getattr(self, "_gen_" + sub)(rng))
        cells = [(2, True)] if tiny else [(p, even) for p in (2, 3, 5, 7)
                                          for even in (False, True)]
        for p, even in cells:
            for argv, spec in self._gen_root_pair(rng, p, even):
                add("root", rng.choice(FORMATS), argv, spec)
        for fmt in FORMATS:
            add("root", fmt, *self._gen_no_root(rng))
        rng.shuffle(ops)
        self.ops = ops
        self._expected: dict = {}
        self.probes: list[tuple[int, int]] = []

    # Each generator returns (argv after the subcommand, oracle spec).
    @staticmethod
    def _coding_args(rng):
        p = rng.choice((2,) + SMALL_ODD)
        l = rng.randint(1, _lmax(p, CLI_TABLE_BITS))
        n = _exponent(rng, p, 60, rng.random() < 0.5)
        return p, n, l, rng.randrange(1, p), rng.randrange(3)

    def _gen_shift(self, rng):
        p = rng.choice((2, 3, 5, 7, 11, 13, 1_000_003, 2_147_483_647))
        n = _exponent(rng, p, 10**6, rng.random() < 0.5)
        j = rng.randrange(4)
        return ["--p", p, "--n", n, "--j", j], (p, n, j)

    def _gen_table(self, rng):
        p, n, l, r, j = self._coding_args(rng)
        return ["--p", p, "--n", n, "--l", l, "--r", r, "--j", j], (p, n, l, r, j)

    def _gen_encode(self, rng):
        p, n, l, r, j = self._coding_args(rng)
        if rng.random() < 0.5:
            l = rng.randint(32, 64)
        x = rng.randrange(p**l)
        return (["--p", p, "--n", n, "--l", l, "--r", r, "--j", j, "--x", x],
                (p, n, l, r, j, x))

    def _gen_decode(self, rng):
        p, n, l, r, j = self._coding_args(rng)
        if rng.random() < 0.5:
            l = rng.randint(32, 64)
        code = rng.randrange(p**l)
        return (["--p", p, "--n", n, "--l", l, "--r", r, "--j", j, "--code", code],
                (p, n, l, r, j, code))

    def _gen_plotdata(self, rng):
        p, n, l, r, j = self._coding_args(rng)
        return (["--p", p, "--n", n, "--l", l, "--r", r, "--j", j, "--out",
                 self.plot_path], (p, n, l, r, j))

    @staticmethod
    def _gen_root_pair(rng, p, even):
        # Root queries cover the grid: every p, odd and even n. Each cell asks
        # for x and for p**m - x; with m at least l + 4 both powers show the
        # same window, so at p = 2 with even n a reply that names one sign
        # class is wrong for exactly one of the two.
        n = rng.choice((2, 4, 6, 8, 10) if even else (1, 3, 5, 7, 9))
        l = rng.randint(1, _lmax(p, CLI_TABLE_BITS))
        j = rng.randrange(2)
        m = l + 4 + rng.randrange(3)
        u = _unit(rng, p, 1, p**m - 1)
        return [(["--p", p, "--n", n, "--l", l, "--z", (p**j * v) ** n],
                 (p, n, l, p**j * v)) for v in (u, p**m - u)]

    @staticmethod
    def _gen_no_root(rng):
        # p * x**n with n >= 2 has a valuation that n does not divide: exit 3.
        p = rng.choice((2, 3, 5, 7))
        n = rng.randint(2, 10)
        l = rng.randint(1, _lmax(p, CLI_TABLE_BITS))
        z = p * (p ** rng.randrange(2) * _unit(rng, p, 1, p ** (l + 3))) ** n
        return ["--p", p, "--n", n, "--l", l, "--z", z], (p, n, l, None)

    def _gen_verify(self, rng):
        p = rng.choice((2,) + SMALL_ODD)
        n = _exponent(rng, p, 60, rng.random() < 0.5)
        lmax = rng.randint(1, _lmax(p, CLI_TABLE_BITS - 2))
        return ["--p", p, "--n", n, "--lmax", lmax], (p, n, lmax)

    def _gen_valuation(self, rng):
        p = rng.choice((2,) + SMALL_ODD)
        if rng.random() < 0.5:
            k = rng.randint(1, max(1, 12 // p.bit_length()))
            j = rng.randrange(1, p**k)
            return ["--p", p, "--k", k, "--j", j], (p, p**k, j, True)
        top = rng.randint(0, 20_000)
        bottom = rng.randint(0, top)
        return ["--p", p, "--top", top, "--bottom", bottom], (p, top, bottom, False)

    # ---- running
    def call(self, op: Op):
        if op.spec[0] == "plotdata":
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.root / self.plot_path)
        proc = subprocess.run([sys.executable, "-m", "powerperm", *op.args],
                              cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=120)
        return proc.returncode, proc.stdout, self._read_plot(op)

    def _read_plot(self, op: Op):
        if op.spec[0] != "plotdata":
            return None
        try:
            with open(self.root / self.plot_path, newline="") as fh:
                return fh.read()
        except OSError:
            return None

    def _probe(self, code: str) -> int:
        t0 = perf_counter_ns()
        subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env,
                       capture_output=True, timeout=120)
        return perf_counter_ns() - t0

    def extras(self, op: Op, op_id: int, tracer) -> str:
        # Bare interpreter start and import, interleaved with the calls, then the
        # same command in-process with its output captured.
        t0 = perf_counter_ns()
        bare = self._probe("pass")
        tracer.record("cli.interp_start", t0, t0 + bare, None, op_id)
        t0 = perf_counter_ns()
        imp = self._probe("import powerperm.cli")
        tracer.record("cli.import_probe", t0, t0 + imp, None, op_id)
        self.probes.append((bare, imp))
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(op.args))
        except Exception:  # an unexpected error is a failed answer, not a crash
            code = None
        tracer.record("cli.main", t0, perf_counter_ns(), None, op_id)
        return self.check(op_id % len(self.ops), op,
                          (code, out.getvalue(), self._read_plot(op)))

    def finish_trace(self, times, rounds) -> dict:
        if not self.probes:
            return {}
        bare = sorted(b for b, _ in self.probes)
        diff = sorted(i - b for b, i in self.probes)
        return {"cli.interp_start_ms": bare[len(bare) // 2] / 1e6,
                "cli.import_ms": diff[len(diff) // 2] / 1e6}

    @staticmethod
    def peak_rss_mb() -> float:
        # The children do the work; this is the largest child's peak.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    # ---- checking
    def check(self, i: int, op: Op, result) -> str:
        code, stdout, plot = result
        sub, fmt = op.spec[:2]
        if sub == "root":
            return self._check_root(op, code, stdout)
        if sub == "decode":
            expected = self._expect_decode(op, stdout)
        else:
            expected = self._expected.get(i)
            if expected is None:
                expected = self._expected[i] = self._expect(op)
        out_text, plot_text = expected
        ok = code == 0 and stdout == out_text + "\n" and plot == plot_text
        return OK if ok else FAIL

    def _expect_decode(self, op: Op, stdout: str):
        # Round trip: the printed x' must encode back to the code.
        p, n, l, r, j, code = op.spec[2:]
        x = oracle.parse_decode(op.spec[1], stdout.rstrip("\n"))
        if x is None or not 0 <= x < p**l or oracle.encode(p, n, l, r, j, x) != code:
            return (None, None)
        return oracle.cli_decode(op.spec[1], p, n, l, r, j, code, x), None

    def _expect(self, op: Op):
        sub, fmt, *spec = op.spec
        if sub == "shift":
            return oracle.cli_shift(fmt, *spec), None
        if sub == "encode":
            p, n, l, r, j, x = spec
            return oracle.cli_encode(fmt, *spec, oracle.encode(*spec)), None
        if sub == "table":
            p, n, l, r, j = spec
            image = [oracle.encode(p, n, l, r, j, x) for x in range(p**l)]
            return oracle.cli_table(fmt, *spec, image), None
        if sub == "plotdata":
            p, n, l, r, j = spec
            image = [oracle.encode(p, n, l, r, j, x) for x in range(p**l)]
            rows = "".join(f"{x},{z}\n" for x, z in enumerate(image))
            return f"wrote {p**l} rows to {self.plot_path}", "x,z\n" + rows
        if sub == "verify":
            p, n, lmax = spec
            results = []
            for l in range(1, lmax + 1):
                for r in range(1, p):
                    for j in (0, 1):
                        image = [oracle.encode(p, n, l, r, j, x) for x in range(p**l)]
                        results.append((l, r, j, p**l,
                                        oracle.is_permutation(image, p**l)))
            return oracle.cli_verify(fmt, p, n, results), None
        p, top, bottom, lemma = spec  # valuation
        methods = (["lemma1"] if lemma else []) + ["kummer", "legendre"]
        if top <= 10_000:
            methods.append("direct")
        v = oracle.binom_valuation(p, top, bottom)
        return oracle.cli_valuation(fmt, p, top, bottom, methods, v), None

    @staticmethod
    def _check_root(op: Op, code, stdout: str) -> str:
        _, fmt, p, n, l, x = op.spec
        found = oracle.parse_root(fmt, stdout.rstrip("\n"))
        if found is None:
            return FAIL
        if x is None:
            return OK if code == 3 and found == [] else FAIL
        if code != 0:
            return FAIL
        if any((x - c) % m == 0 for c, m in found):
            return OK
        if p == 2 and n % 2 == 0 and x >= 2 ** (l + 1) and any(
                (x + c) % m == 0 for c, m in found):
            return LIMIT
        return FAIL


WORKLOADS = {"query-mix": QueryMix, "sweep": Sweep, "cli": Cli}

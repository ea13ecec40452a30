#!/usr/bin/env python3
"""Benchmark for powerperm: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's src/ and nowhere else. One closed-loop client, no threads: the
next operation starts when the previous one has finished. The round of
operations built from the seed is repeated until --seconds of operation
time have been spent, ending on a whole round. Every answer is checked
against the independent oracle in oracle.py.

--trace 0 prints the end-to-end metrics. --trace 1 runs a quarter of the
time untraced, repeats the same rounds with spans around each call into a
layer, prints the per-layer metrics, and writes the spans as JSON lines to
perfbench/out/trace-<workload>-<seed>.jsonl. Its trace.overhead_ms is the
traced rounds' operation time minus the untraced rounds' time.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

from tracing import Tracer
from workloads import FAIL, LIMIT, OK, SUBCOMMANDS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 21
TAIL_LADDER = (50, 90, 99, 99.9, 99.99, 99.999)
TAIL_MIN_BEYOND = 10

# name -> (unit, better); BENCHMARK.json lists the same metrics.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "lat_p50_ms": ("ms", "lower"),
    "lat_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("ratio", "higher"),
}

PER_LAYER = {
    "padic.prime_base.calls": ("count", "lower"),
    "padic.prime_base.busy_ms": ("ms", "lower"),
    "padic.failed": ("count", "lower"),
    "coding.encode.calls": ("count", "higher"),
    "coding.encode.busy_ms": ("ms", "lower"),
    "coding.encode.p50_us": ("us", "lower"),
    "coding.decode.wide.calls": ("count", "higher"),
    "coding.decode.wide.busy_ms": ("ms", "lower"),
    "coding.decode.wide.p50_us": ("us", "lower"),
    "coding.decode.narrow.calls": ("count", "higher"),
    "coding.decode.narrow.busy_ms": ("ms", "lower"),
    "coding.decode.narrow.p50_us": ("us", "lower"),
    "coding.decode.narrow.max_ms": ("ms", "lower"),
    "coding.encode_via_composition.calls": ("count", "higher"),
    "coding.encode_via_composition.busy_ms": ("ms", "lower"),
    "coding.iter_codes.entries_per_s": ("1/s", "higher"),
    "coding.iter_codes.busy_ms": ("ms", "lower"),
    "coding.permutation_table.calls": ("count", "higher"),
    "coding.permutation_table.busy_ms": ("ms", "lower"),
    "coding.permutation_table.entries": ("count", "higher"),
    "coding.permutation_table.bytes_per_entry": ("B", "lower"),
    "coding.inverse_image.busy_ms": ("ms", "lower"),
    "coding.failed": ("count", "lower"),
    "binomial.calls": ("count", "higher"),
    "binomial.lemma1.busy_ms": ("ms", "lower"),
    "binomial.kummer.busy_ms": ("ms", "lower"),
    "binomial.legendre.busy_ms": ("ms", "lower"),
    "binomial.direct.busy_ms": ("ms", "lower"),
    "binomial.failed": ("count", "lower"),
    "analysis.audit_bijectivity.busy_ms": ("ms", "lower"),
    "analysis.cycle_structure.busy_ms": ("ms", "lower"),
    "analysis.export_scatter.busy_ms": ("ms", "lower"),
    "analysis.export_scatter.bytes_per_entry": ("B", "lower"),
    "analysis.failed": ("count", "lower"),
    "cli.interp_start_ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "cli.main.calls": ("count", "higher"),
    "cli.main.busy_ms": ("ms", "lower"),
    **{f"cli.{sub}.p50_ms": ("ms", "lower") for sub in SUBCOMMANDS},
    "cli.failed": ("count", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
}


def load_package():
    """Import powerperm and its modules afresh from the checkout's src/."""
    src = ROOT / "src"
    for name in [m for m in sys.modules if m == "powerperm" or m.startswith("powerperm.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("powerperm")
    if Path(pkg.__file__).resolve().parent != src / "powerperm":
        raise ImportError(f"powerperm imported from {pkg.__file__}, not from {src}")
    for sub in ("padic", "coding", "binomial", "analysis", "cli"):
        importlib.import_module("powerperm." + sub)
    return pkg


class Result:
    """Latencies and verdicts of one pass over whole rounds."""

    def __init__(self) -> None:
        self.lat_ns: list[int] = []
        self.round_ends: list[int] = []  # len(lat_ns) at the end of each round
        self.verdicts: Counter = Counter()
        self.failed_layers: Counter = Counter()
        self.rounds = 0
        self.shown = 0

    def end_round(self) -> None:
        self.rounds += 1
        self.round_ends.append(len(self.lat_ns))

    def round_rates(self) -> list[float]:
        """Operations per second of operation time, one figure per round."""
        rates, start = [], 0
        for end in self.round_ends:
            if end > start:
                rates.append((end - start) / (sum(self.lat_ns[start:end]) / 1e9))
            start = end
        return rates

    def add(self, op, latency, verdict, detail=None) -> None:
        self.lat_ns.append(latency)
        self.verdicts[verdict] += 1
        if verdict != OK:
            self.failed_layers[op.layer.split(".")[0]] += 1
            if verdict == FAIL and self.shown < 5:
                self.shown += 1
                print(f"failed: {op.layer} {op.args!r:.200}"
                      + (f": {detail}" if detail else ""), file=sys.stderr)


def run_pass(wl, budget_s=None, rounds=None, tracer=None, hard_s=150.0) -> Result:
    """Repeat wl.ops until budget_s of operation time (or `rounds` rounds)."""
    res = Result()
    n = len(wl.ops)
    wall0 = perf_counter()
    while True:
        for i, op in enumerate(wl.ops):
            if perf_counter() - wall0 > hard_s:
                print(f"stopped mid-round after {hard_s:.0f} s", file=sys.stderr)
                res.end_round()
                return res
            op_id = res.rounds * n + i
            error = None
            t0 = perf_counter_ns()
            if tracer is None:
                try:
                    result = wl.call(op)
                except Exception as exc:  # counted as a failed operation
                    result, error = None, exc
                t1 = perf_counter_ns()
            else:
                c0 = perf_counter_ns()
                try:
                    result = wl.call(op)
                except Exception as exc:
                    result, error = None, exc
                c1 = perf_counter_ns()
                t1 = perf_counter_ns()
                parent = tracer.record("op", t0, t1, None, op_id)
                tracer.record(op.layer, c0, c1, parent, op_id)
            if error is not None:
                res.add(op, t1 - t0, FAIL, "".join(
                    traceback.format_exception_only(type(error), error)).strip())
                continue
            detail = None
            try:
                verdict = wl.check(i, op, result)
                if tracer is not None:
                    extra = wl.extras(op, op_id, tracer)
                    verdict = max((verdict, extra), key=(OK, LIMIT, FAIL).index)
            except Exception as exc:  # a check that cannot run is a failed answer
                verdict, detail = FAIL, f"check raised {exc!r}"
            del result
            res.add(op, t1 - t0, verdict, detail)
        res.end_round()
        if rounds is not None:
            if res.rounds >= rounds:
                return res
        elif sum(res.lat_ns) >= budget_s * 1e9:
            return res


def tail(lat_sorted, q):
    """(percentile, nearest-rank index, samples beyond it) for percentile q,
    or for the highest ladder step below q that has TAIL_MIN_BEYOND samples
    beyond it when q has too few (short runs)."""
    n = len(lat_sorted)
    for step in sorted({q, *TAIL_LADDER}, reverse=True):
        idx = max(0, math.ceil(step * n / 100) - 1)
        if step <= q and (n - 1 - idx >= TAIL_MIN_BEYOND or step == TAIL_LADDER[0]):
            return step, idx, n - 1 - idx


def end_to_end(wl, res: Result, setup_s: float) -> dict:
    lat = sorted(res.lat_ns)
    q, idx, beyond = tail(lat, wl.TAIL)
    n = len(lat)
    print(f"{n} operations in {res.rounds} rounds; lat_tail_ms is p{q} "
          f"with {beyond} samples beyond it")
    return {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(res.round_rates()),
        "lat_p50_ms": statistics.median(lat) / 1e6,
        "lat_tail_ms": lat[idx] / 1e6,
        "peak_rss_mb": wl.peak_rss_mb(),
        "ok_frac": res.verdicts[OK] / n,
    }


def per_layer(wl, tracer: Tracer, traced: Result, untraced: Result) -> dict:
    times = tracer.self_times()
    out = {name: 0 for name in PER_LAYER}
    for name, vals in times.items():
        vals = sorted(vals)
        out[f"{name}.calls"] = len(vals)
        out[f"{name}.busy_ms"] = sum(vals) / 1e6
        out[f"{name}.p50_us"] = statistics.median(vals) / 1e3
        out[f"{name}.p50_ms"] = statistics.median(vals) / 1e6
        out[f"{name}.max_ms"] = vals[-1] / 1e6
    out["binomial.calls"] = sum(len(times.get(f"binomial.{m}", ()))
                                for m in ("lemma1", "kummer", "legendre", "direct"))
    for layer, count in traced.failed_layers.items():
        out[f"{layer}.failed"] = count
    out.update(wl.finish_trace(times, traced.rounds))
    out["trace.overhead_ms"] = (sum(traced.lat_ns) - sum(untraced.lat_ns)) / 1e6
    return {name: out[name] for name in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs, for the benchmark's own smoke test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "powerperm" / "__init__.py").is_file():
        print(f"error: no powerperm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)

    # Set-up: a fresh import plus the workload's inputs and parameter objects,
    # repeated; the reported figure is the median. Garbage left by the previous
    # repetition is collected first, so that no repetition pays for another.
    cls = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    setups = []
    for rep in range(SETUP_REPEATS):
        gc.collect()
        t0 = perf_counter()
        pkg = load_package()
        wl = cls(pkg, random.Random(args.seed), ROOT,
                 tracer if rep == SETUP_REPEATS - 1 else None, args.tiny)
        setups.append(perf_counter() - t0)
    setup_s = statistics.median(setups)

    if not args.trace:
        res = run_pass(wl, budget_s=args.seconds)
        metrics = end_to_end(wl, res, setup_s)
        units = END_TO_END
        passes = [res]
    else:
        untraced = run_pass(wl, budget_s=args.seconds / 4)
        traced = run_pass(wl, rounds=untraced.rounds, tracer=tracer)
        metrics = per_layer(wl, tracer, traced, untraced)
        units = PER_LAYER
        passes = [untraced, traced]
        path = out_dir / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(path)
        print(f"{len(tracer.spans)} spans in {path.relative_to(ROOT)}; "
              f"{traced.rounds} traced rounds")

    attempted = sum(len(p.lat_ns) for p in passes)
    failed = sum(len(p.lat_ns) - p.verdicts[OK] for p in passes)
    unexpected = sum(p.verdicts[FAIL] for p in passes)
    limit = sum(p.verdicts[LIMIT] for p in passes)
    print(f"failed {failed} of {attempted}: {limit} at the documented root limit "
          f"(p = 2, even n, argument >= 2**(l+1)), {unexpected} unexpected")
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

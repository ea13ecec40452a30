#!/usr/bin/env python3
"""The benchmark's own smoke test; exits 0 when every check passes.

    python3 perfbench/smoke.py

- the oracle reproduces the README's worked example without powerperm;
- each workload runs at a tiny scale, traced and untraced, and prints every
  metric BENCHMARK.json names, with its unit, in a well-formed result line;
- a wrong answer and an exception count toward `failed` and the run goes on;
- a root reply on the co-root is classified as the documented limit only
  where README.md documents it;
- with no sources next to it, run.py exits non-zero without a result.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import oracle
import run
from workloads import FAIL, LIMIT, OK, Cli, QueryMix

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def run_bench(cwd: Path, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def check_oracle() -> None:
    expect(oracle.table(3, 3, 2, 1) == [0, 7, 2, 3, 1, 5, 6, 4, 8],
           "oracle reproduces the p=3 n=3 l=2 r=1 table")
    expect(oracle.alpha(2, 2) == 3 and oracle.alpha(3, 3) == 2 and oracle.alpha(5, 3) == 1,
           "oracle window start follows the paper's formula")
    expect(oracle.binom_valuation(2, 8, 4) == 1, "oracle valuation of C(8, 4) at p=2")


def check_metrics(spec: dict) -> None:
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            name = f"{wl['name']} --trace {trace}"
            proc = run_bench(ROOT, wl["name"], trace)
            expect(proc.returncode == 0, f"{name} exits 0")
            try:
                res = json.loads(proc.stdout.strip().split("\n")[-1])
            except (ValueError, IndexError):
                expect(False, f"{name} ends with a JSON line")
                continue
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} result has exactly the four keys")
            expect(res["correct"] is True and res["attempted"] >= 1
                   and isinstance(res["failed"], int), f"{name} is correct")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            expect(got == want, f"{name} prints every {key} metric with its unit")
            if trace == 0:
                expect(all(res["metrics"][m]["value"] > 0 for m in want),
                       f"{name} end-to-end metrics are non-zero")


def check_failures_counted() -> None:
    pkg = run.load_package()
    wl = QueryMix(pkg, random.Random(1), ROOT, tiny=True)
    enc = next(i for i, op in enumerate(wl.ops) if op.layer == "coding.encode")
    dec = next(i for i, op in enumerate(wl.ops) if op.layer.startswith("coding.decode"))
    call = wl.call

    def faulty(op):
        if op is wl.ops[enc]:
            return call(op) + 1  # a wrong answer
        if op is wl.ops[dec]:
            raise RuntimeError("injected")
        return call(op)

    wl.call = faulty
    res = run.run_pass(wl, rounds=2)
    expect(len(res.lat_ns) == 2 * len(wl.ops), "a run with failures goes on to the end")
    expect(res.verdicts[FAIL] == 4 and res.verdicts[OK] == 2 * len(wl.ops) - 4,
           "a wrong answer and an exception each count as failed")

    # x = 1001 at p=2, n=2, l=8: the co-root 23 (mod 512) is the documented limit;
    # x = 21 < 2**9 must be recovered exactly, so the co-root there is a failure.
    for x, printed, verdict in ((1001, "x = 23 (mod 512)  [x' = 11, r = 1]", LIMIT),
                                (21, "x = 491 (mod 512)  [x' = 245, r = 1]", FAIL),
                                (1001, "x = 489 (mod 512)  [x' = 244, r = 1]", OK)):
        op = SimpleNamespace(spec=("root", "plain", 2, 2, 8, x))
        got = Cli._check_root(op, 0, printed + "\n")
        expect(got == verdict, f"root x={x} printing '{printed[:16]}' is {verdict}")


def check_bare_directory(spec: dict) -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, "query-mix", 0)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without sources the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_oracle()
    check_failures_counted()
    check_bare_directory(spec)
    check_metrics(spec)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

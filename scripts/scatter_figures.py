#!/usr/bin/env python3
"""Regenerate the two wide scatter datasets and print their digests.

Writes scatter_2_2_16.csv and scatter_2_3_15.csv (x,z rows) into --outdir
and prints one line per file with row count and sha256, so regenerated
artifacts can be diffed against committed ones by hash alone.
"""

from __future__ import annotations

import argparse
import hashlib
import pathlib

from powerperm.analysis import export_scatter
from powerperm.coding import CodingParams

PARAM_SETS = [(2, 2, 16, 1), (2, 3, 15, 1)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default=".", help="directory for the CSV files")
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for p, n, l, r in PARAM_SETS:
        data = export_scatter(CodingParams.make(p=p, n=n, l=l, r=r))
        path = outdir / f"scatter_{p}_{n}_{l}.csv"
        with open(path, "w", newline="\n") as fh:
            fh.write("x,z\n")
            for x, z in enumerate(data.codes):
                fh.write(f"{x},{z}\n")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{path}: {len(data.codes)} rows sha256={digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

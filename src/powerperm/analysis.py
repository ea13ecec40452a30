"""Whole-permutation diagnostics: bijectivity audits, cycle structure, scatter data."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterator

from .coding import (
    MAX_TABLE_ENTRIES,
    CodingParams,
    PermutationTable,
    code_array,
    first_collision,
)


@dataclass(frozen=True)
class AuditResult:
    """Outcome of a full-range duplicate scan; collision holds the first offending pair."""

    params: CodingParams
    ok: bool
    collision: tuple[int, int] | None = None


@dataclass(frozen=True)
class CycleReport:
    """Cycle decomposition of a block permutation."""

    params: CodingParams
    cycle_count: int
    cycle_lengths: tuple[int, ...]
    fixed_points: tuple[int, ...]
    order: int


class ScatterPoints:
    """Read-only view of the (x', code) pairs over a code array."""

    __slots__ = ("_codes",)

    def __init__(self, codes: array) -> None:
        self._codes = codes

    def __len__(self) -> int:
        return len(self._codes)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return enumerate(self._codes)

    def __getitem__(self, xp: int) -> tuple[int, int]:
        xp = range(len(self._codes))[xp]
        return xp, self._codes[xp]


@dataclass(frozen=True)
class ScatterData:
    """All (x', encode(x')) pairs, ready for plotting or CSV export.

    codes[x'] is the code of x'; points presents the same data as pairs.
    """

    params: CodingParams
    codes: array

    @property
    def points(self) -> ScatterPoints:
        return ScatterPoints(self.codes)


def audit_bijectivity(
    params: CodingParams, max_entries: int = MAX_TABLE_ENTRIES
) -> AuditResult:
    """Enumerate every output and report the first duplicate, if any.

    Memory is the code array plus one byte per block value for the scan.
    """
    collision = first_collision(code_array(params, max_entries))
    return AuditResult(params, ok=collision is None, collision=collision)


def cycle_structure(table: PermutationTable) -> CycleReport:
    """Cycle decomposition; order is the lcm of the cycle lengths."""
    image = table.image
    size = len(image)
    visited = bytearray(size)
    lengths: list[int] = []
    fixed: list[int] = []
    for start in range(size):
        if visited[start]:
            continue
        length = 0
        x = start
        while not visited[x]:
            visited[x] = 1
            x = image[x]
            length += 1
        lengths.append(length)
        if length == 1:
            fixed.append(start)
    lengths.sort()
    return CycleReport(
        params=table.params,
        cycle_count=len(lengths),
        cycle_lengths=tuple(lengths),
        fixed_points=tuple(fixed),
        order=math.lcm(*lengths),
    )


def export_scatter(
    params: CodingParams, max_entries: int = MAX_TABLE_ENTRIES
) -> ScatterData:
    """Enumerate every code once for plotting."""
    return ScatterData(params=params, codes=code_array(params, max_entries))

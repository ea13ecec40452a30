"""Base-p digits by repeated division, kept apart from the package.

The package reads digit windows with modular arithmetic; tests compare it
against this independent route: expand, slice, reassemble.
"""

from __future__ import annotations

from typing import Sequence


def to_digits(x: int, p: int) -> tuple[int, ...]:
    """Base-p digits of x >= 0, least significant first; () for 0."""
    out = []
    while x:
        x, d = divmod(x, p)
        out.append(d)
    return tuple(out)


def from_digits(digits: Sequence[int], p: int) -> int:
    """Integer value of base-p digits given least significant first."""
    value = 0
    for d in reversed(digits):
        value = value * p + d
    return value

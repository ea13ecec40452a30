from __future__ import annotations

from array import array

import pytest

from powerperm import analysis
from powerperm.analysis import audit_bijectivity, cycle_structure, export_scatter
from powerperm.coding import CodingParams, encode, permutation_table
from powerperm.errors import EnumerationBoundExceeded


# -------------------------------------------------------------------- audit


def test_audit_passes_on_grid():
    for p in (2, 3, 5):
        for n in (1, 2, 3, 4, 6):
            for r in range(1, p):
                result = audit_bijectivity(CodingParams.make(p=p, n=n, l=3, r=r))
                assert result.ok
                assert result.collision is None


def test_audit_respects_bound():
    with pytest.raises(EnumerationBoundExceeded):
        audit_bijectivity(CodingParams.make(p=2, n=2, l=16, r=1), max_entries=1000)


def test_audit_reports_first_collision(monkeypatch):
    # force a defect: replay a sequence where value 5 appears at 2 and 6
    broken = [0, 3, 5, 1, 7, 2, 5, 4, 6]

    def fake_codes(params, max_entries):
        return array("B", broken)

    monkeypatch.setattr(analysis, "code_array", fake_codes)
    result = audit_bijectivity(CodingParams.make(p=3, n=3, l=2, r=1))
    assert not result.ok
    assert result.collision == (2, 6)


# ------------------------------------------------------------------- cycles


def test_cycle_structure_of_cubing_block():
    table = permutation_table(CodingParams.make(p=3, n=3, l=2, r=1))
    report = cycle_structure(table)
    assert report.fixed_points == (0, 2, 3, 5, 6, 8)
    assert report.cycle_count == 7
    assert report.cycle_lengths == (1, 1, 1, 1, 1, 1, 3)
    assert report.order == 3
    # the one long cycle is 1 -> 7 -> 4 -> 1
    assert table.image[1] == 7
    assert table.image[7] == 4
    assert table.image[4] == 1


def test_cycle_structure_of_identity():
    table = permutation_table(CodingParams.make(p=5, n=1, l=1, r=3))
    report = cycle_structure(table)
    assert report.cycle_count == 5
    assert report.cycle_lengths == (1, 1, 1, 1, 1)
    assert report.fixed_points == (0, 1, 2, 3, 4)
    assert report.order == 1


def test_cycle_lengths_partition_the_block():
    for p, n, l, r in [(2, 2, 6, 1), (3, 6, 3, 2), (5, 3, 2, 4), (7, 2, 2, 3)]:
        table = permutation_table(CodingParams.make(p=p, n=n, l=l, r=r))
        report = cycle_structure(table)
        assert sum(report.cycle_lengths) == len(table)
        assert len(report.fixed_points) == report.cycle_lengths.count(1)


def test_order_annihilates_the_permutation():
    for p, n, l, r in [(3, 3, 2, 1), (2, 4, 5, 1), (5, 2, 2, 2)]:
        table = permutation_table(CodingParams.make(p=p, n=n, l=l, r=r))
        report = cycle_structure(table)
        for x in range(len(table)):
            y = x
            for _ in range(report.order):
                y = table.image[y]
            assert y == x
        # and no smaller positive power works unless the order is 1
        if report.order > 1:
            moved = [x for x in range(len(table)) if table.image[x] != x]
            assert moved


# ------------------------------------------------------------------ scatter


def test_scatter_matches_quadratic_closed_form():
    data = export_scatter(CodingParams.make(p=2, n=2, l=4, r=1))
    assert tuple(data.points) == tuple((x, x * (x + 1) // 2 % 16) for x in range(16))


def test_scatter_of_identity_is_diagonal():
    data = export_scatter(CodingParams.make(p=5, n=1, l=1, r=1))
    assert tuple(data.points) == tuple((x, x) for x in range(5))


def test_scatter_outputs_are_distinct():
    data = export_scatter(CodingParams.make(p=3, n=6, l=3, r=1))
    zs = [z for _, z in data.points]
    assert sorted(zs) == list(range(27))


def test_scatter_points_index_as_pairs():
    params = CodingParams.make(p=3, n=6, l=3, r=1)
    points = export_scatter(params).points
    assert len(points) == 27
    assert points[5] == (5, encode(params, 5))
    assert points[-1] == (26, encode(params, 26))
    with pytest.raises(IndexError):
        points[27]


def test_scatter_respects_bound():
    with pytest.raises(EnumerationBoundExceeded):
        export_scatter(CodingParams.make(p=2, n=2, l=16, r=1), max_entries=4096)

import time

import pytest

from debruijn_arrays.construct import (MAX_CONSTRUCT_CELLS, check_column_relation,
                                       check_diagonal_relation,
                                       construct_l_array)
from debruijn_arrays.errors import BudgetError, DomainError
from debruijn_arrays.grid import DigitGrid
from debruijn_arrays.verify import verify_l_array

# published example arrays for k = 2, 3, 4 (output of the modular formula)
GOLDEN = {
    2: [[0, 0, 1, 1],
        [0, 1, 1, 0]],
    3: [[0, 0, 0, 1, 1, 1, 2, 2, 2],
        [0, 1, 2, 1, 2, 0, 2, 0, 1],
        [0, 2, 1, 1, 0, 2, 2, 1, 0]],
    4: [[0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3],
        [0, 1, 2, 3, 1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 1, 2],
        [0, 2, 0, 2, 1, 3, 1, 3, 2, 0, 2, 0, 3, 1, 3, 1],
        [0, 3, 2, 1, 1, 0, 3, 2, 2, 1, 0, 3, 3, 2, 1, 0]],
}


@pytest.mark.parametrize("k", [2, 3, 4])
def test_golden_grids(k):
    assert [list(r) for r in construct_l_array(k).rows] == GOLDEN[k]


def test_single_entry_formula():
    # (s + r*c) mod k at r=2, s=2, c=2 for k=3 is 0 (bottom-right of the figure)
    g = construct_l_array(3)
    assert g.cell(2, 8) == (2 + 2 * 2) % 3 == 0


def test_k_below_two_rejected():
    with pytest.raises(DomainError):
        construct_l_array(1)
    with pytest.raises(DomainError):
        construct_l_array(0)


def test_oversized_grid_refused_before_building():
    # k=3000 is 2.7e10 cells, far beyond memory
    assert 64 ** 3 <= MAX_CONSTRUCT_CELLS < 3000 ** 3
    start = time.monotonic()
    with pytest.raises(BudgetError):
        construct_l_array(3000)
    assert time.monotonic() - start < 0.1


@pytest.mark.parametrize("k", range(2, 13))
def test_constructed_arrays_are_de_bruijn(k):
    report = verify_l_array(construct_l_array(k))
    assert report.valid
    assert report.positions_checked == k ** 3


@pytest.mark.parametrize("k", range(2, 13))
def test_column_relation(k):
    assert check_column_relation(construct_l_array(k))


@pytest.mark.parametrize("k", range(2, 13))
def test_diagonal_relation(k):
    assert check_diagonal_relation(construct_l_array(k))


def test_relations_detect_mutation():
    g = construct_l_array(3)
    rows = [list(r) for r in g.rows]
    rows[1][4] = (rows[1][4] + 1) % 3
    mutated = DigitGrid(3, rows)
    assert not check_column_relation(mutated)
    assert not check_diagonal_relation(mutated)


@pytest.mark.parametrize("k", [2, 3, 4, 7])
def test_serialization_roundtrip(k):
    g = construct_l_array(k)
    assert DigitGrid.from_text(g.to_text()) == g
    assert DigitGrid.from_json(g.to_json()) == g

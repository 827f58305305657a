"""Modular construction of a k-de Bruijn L-array, plus its proof identities.

The grid with (s + r*c) mod k at row r, square s, column-in-square c contains
every L filling exactly once.  Two structural identities make that work and
are exposed here as checkable relations on a constructed grid:

* column relation: for vertically adjacent digits a over b, the
  column-in-square index satisfies c = (b - a) mod k;
* diagonal relation: the d cell equals (a + c + r + 1) mod k when c != k-1,
  and (s + 1) mod k when c == k-1.
"""

from __future__ import annotations

from .errors import BudgetError, DomainError
from .grid import DigitGrid

# Cells of the largest grid construct_l_array builds: k^3 <= 2^21 admits
# k <= 128 (about 50 MB in memory), and refuses larger grids before any
# cell is made.
MAX_CONSTRUCT_CELLS = 1 << 21


def construct_l_array(k: int) -> DigitGrid:
    """Build the k x k^2 grid with entry (s + r*c) mod k at row r, column s*k + c."""
    if k < 2:
        raise DomainError(f"alphabet size must be >= 2, got {k}")
    if k ** 3 > MAX_CONSTRUCT_CELLS:
        raise BudgetError(f"the k={k} grid has {k ** 3} cells, over the "
                          f"limit of {MAX_CONSTRUCT_CELLS}")
    return DigitGrid(k, (tuple((s + r * c) % k
                               for s in range(k) for c in range(k))
                         for r in range(k)))


def check_column_relation(g: DigitGrid) -> bool:
    """Does every vertical pair (a over b) sit in column (b - a) mod k?"""
    # in row-major cells, the cell below cell i is cell i + k^2 (mod k^3),
    # and both sit in column-in-square i mod k
    k, cells = g.k, g.cells
    n, k2 = len(cells), k * k
    return all((cells[(i + k2) % n] - a) % k == i % k for i, a in enumerate(cells))


def check_diagonal_relation(g: DigitGrid) -> bool:
    """Does every d cell match its closed form in terms of (a, r, s, c)?"""
    k, cells = g.k, g.cells
    k2 = k * k
    for i, a in enumerate(cells):
        r, j = divmod(i, k2)
        s, c = divmod(j, k)
        d = cells[((r + 1) % k) * k2 + (j + 1) % k2]
        expected = (s + 1) % k if c == k - 1 else (a + c + r + 1) % k
        if d != expected:
            return False
    return True

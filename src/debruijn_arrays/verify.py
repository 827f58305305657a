"""Window-coverage verification for L-arrays, rectangular tori, and sequences.

All three are one property: every filling of a window shape occurs exactly
once among the toroidal windows of a grid.  One sliding-window check takes
the shape as cell offsets (the L is a on top, b below it, d right of b; a
sequence is a one-row torus) and reports exact defect evidence: which
fillings are missing and which are duplicated, in lexicographic order.  A
structurally malformed input raises; a well-formed grid that simply is not
de Bruijn yields a report with valid=False.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Sequence, Union

from .errors import DimensionError, DomainError
from .grid import DigitGrid

_L_WINDOW = ((0, 0), (1, 0), (1, 1))


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    missing: list = field(default_factory=list)
    duplicated: list = field(default_factory=list)
    positions_checked: int = 0

    def to_json_dict(self) -> dict:
        def flat(f):
            return list(f) if isinstance(f, tuple) else f
        return {
            "valid": self.valid,
            "missing": [flat(f) for f in self.missing],
            "duplicated": [[flat(f), c] for f, c in self.duplicated],
            "positions_checked": self.positions_checked,
        }


def _check_windows(cells: Sequence[int], R: int, C: int, k: int,
                   offsets: Sequence[tuple[int, int]],
                   shape: Callable[[tuple[int, ...]], tuple] = tuple,
                   ) -> VerifyReport:
    """Tally the window at every anchor of a row-major R x C toroidal grid.

    The window anchored at (i, j) reads cell ((i + dr) % R, (j + dc) % C)
    for each offset; it is counted under its digits read as a base-k code.
    shape turns a filling's digit tuple into the form the report lists.
    """
    w = len(offsets)
    # one rotated copy of the grid per offset, each digit pre-multiplied by
    # its place value (a k-entry table, so no new int objects per cell)
    shifted = []
    for t, (dr, dc) in enumerate(offsets):
        place = [d * k ** (w - 1 - t) for d in range(k)]
        dc %= C
        rotated: list[int] = []
        for i in range(R):
            r = (i + dr) % R
            row = cells[r * C:(r + 1) * C]
            rotated.extend(map(place.__getitem__, row[dc:] + row[:dc]))
        shifted.append(rotated)
    counts = [0] * k ** w
    for code in map(sum, zip(*shifted)):
        counts[code] += 1

    missing, duplicated = [], []
    # product() yields the fillings in code order
    for digits, n in zip(product(range(k), repeat=w), counts):
        if n == 0:
            missing.append(shape(digits))
        elif n >= 2:
            duplicated.append((shape(digits), n))
    return VerifyReport(valid=not missing and not duplicated,
                        missing=missing, duplicated=duplicated,
                        positions_checked=R * C)


def _check_sizes(k, *dims) -> None:
    """Refuse an alphabet size below 2 or a window dimension below 1; each
    must be an int, not a bool or a float."""
    if type(k) is not int or k < 2:
        raise DomainError(f"alphabet size must be an int >= 2, got {k!r}")
    for d in dims:
        if type(d) is not int or d < 1:
            raise DomainError(f"window dimensions must be ints >= 1, got {d!r}")


def verify_l_array(g: DigitGrid) -> VerifyReport:
    """Check that the k^3 L windows of g realize every filling exactly once."""
    return _check_windows(g.cells, g.k, g.k * g.k, g.k, _L_WINDOW)


def verify_torus(rows: Sequence[Sequence[int]], k: int, m: int, n: int) -> VerifyReport:
    """Check that an R x C toroidal grid is a (k, m, n)-de Bruijn torus.

    Any rectangle with R*C == k**(m*n) cells is admitted; each of the
    k**(m*n) possible m x n fillings must appear exactly once among the
    R*C sliding windows.
    """
    _check_sizes(k, m, n)
    grid = [list(row) for row in rows]
    R = len(grid)
    if R == 0:
        raise DomainError("empty grid")
    C = len(grid[0])
    for i, row in enumerate(grid):
        if len(row) != C:
            raise DomainError(f"ragged grid: row {i} has {len(row)} entries, expected {C}")
        for j, e in enumerate(row):
            if type(e) is not int or not 0 <= e < k:  # a bool is no digit
                raise DomainError(f"entry {e!r} at ({i}, {j}) not in 0..{k - 1}")
    # k^e >= 2^e: an exponent past the cell count's bit length cannot match,
    # and k^e is not built for it
    if m * n > (R * C).bit_length() or k ** (m * n) != R * C:
        raise DimensionError(f"{R}x{C} grid has {R * C} cells; a "
                             f"(k={k}, {m}x{n}) torus needs {k}^{m * n}")
    cells = [v for row in grid for v in row]
    offsets = [(di, dj) for di in range(m) for dj in range(n)]
    return _check_windows(cells, R, C, k, offsets,
                          lambda f: tuple(f[i * n:(i + 1) * n] for i in range(m)))


def verify_sequence(word: Union[str, Sequence[int]], k: int, n: int) -> VerifyReport:
    """Check that a cyclic word of length k^n contains every n-gram exactly once."""
    _check_sizes(k, n)
    # a character that is no decimal digit stays as it is, and is refused
    # below with its position
    digits = ([int(ch) if ch.isdecimal() else ch for ch in word]
              if isinstance(word, str) else list(word))
    for i, d in enumerate(digits):
        if type(d) is not int or not 0 <= d < k:  # no bools or floats
            raise DomainError(f"digit {d!r} at position {i} not in 0..{k - 1}")
    if n > len(digits).bit_length() or k ** n != len(digits):  # see verify_torus
        raise DimensionError(
            f"word length {len(digits)} != k^n = {k}^{n} for (k={k}, n={n})")
    return _check_windows(digits, 1, len(digits), k, [(0, t) for t in range(n)])

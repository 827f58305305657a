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

from .errors import DimensionError
from .grid import (DigitGrid, capped_power, check_digit_rows, check_sizes,
                   parse_word)

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


def verify_l_array(g: DigitGrid) -> VerifyReport:
    """Check that the k^3 L windows of g realize every filling exactly once."""
    return _check_windows(g.cells, g.k, g.k * g.k, g.k, _L_WINDOW)


def verify_torus(rows: Sequence[Sequence[int]], k: int, m: int, n: int) -> VerifyReport:
    """Check that an R x C toroidal grid is a (k, m, n)-de Bruijn torus.

    Any rectangle with R*C == k**(m*n) cells is admitted; each of the
    k**(m*n) possible m x n fillings must appear exactly once among the
    R*C sliding windows.
    """
    check_sizes(k, m=m, n=n)
    R, C, cells = check_digit_rows(rows, k)
    if capped_power(k, m * n, R * C) != R * C:
        raise DimensionError(f"{R}x{C} grid has {R * C} cells; a "
                             f"(k={k}, {m}x{n}) torus needs {k}^{m * n}")
    offsets = [(di, dj) for di in range(m) for dj in range(n)]
    return _check_windows(cells, R, C, k, offsets,
                          lambda f: tuple(f[i * n:(i + 1) * n] for i in range(m)))


def verify_sequence(word: Union[str, Sequence[int]], k: int, n: int) -> VerifyReport:
    """Check that a cyclic word of length k^n contains every n-gram exactly
    once; a str word is read by parse_word."""
    check_sizes(k, n=n)
    digits = (parse_word(word, k) if isinstance(word, str)
              else check_digit_rows([word], k)[2])
    if capped_power(k, n, len(digits)) != len(digits):
        raise DimensionError(
            f"word length {len(digits)} != k^n = {k}^{n} for (k={k}, n={n})")
    return _check_windows(digits, 1, len(digits), k, [(0, t) for t in range(n)])

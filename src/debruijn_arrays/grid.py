"""Toroidal k x k^2 digit grids, and the input rules every module shares:
sizes (check_sizes, capped_power), digit rows (check_digit_rows), and the
grid and word formats (format_word, parse_word).

A grid has k rows and k^2 columns, with both pairs of opposite edges glued.
A flat column index j splits as j = s*k + c: square s, column-in-square c.
A grid is stored as its k^3 cells in row-major order, the one format the
search, the orbit maps and the verifier read: cell (r, j) is
cells[r*k^2 + j].  Its rows are a view built on each read.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Iterable, Sequence

from .errors import DomainError, GridParseError


def check_sizes(k, **sizes) -> None:
    """Refuse an alphabet size k that is not an int >= 2, and each named
    size that is not an int >= 1.  A bool is an int, but no size; a float
    or a str is refused too."""
    if type(k) is not int or k < 2:
        raise DomainError(f"alphabet size k must be an int >= 2, got {k!r}")
    for name, size in sizes.items():
        if type(size) is not int or size < 1:
            raise DomainError(f"{name} must be an int >= 1, got {size!r}")


def capped_power(k: int, e: int, cap: int) -> int:
    """k**e, or cap + 1 once k**e passes cap.  k >= 2, so k**e >= 2**e: an
    exponent past cap.bit_length() passes cap, and k**e is not built."""
    return cap + 1 if e > cap.bit_length() else min(k ** e, cap + 1)


def check_digit_rows(rows: Iterable[Iterable[int]],
                     k: int) -> tuple[int, int, tuple[int, ...]]:
    """(R, C, row-major cells) of a rectangle of digits with at least one
    row.  A ragged row, or an entry that is not an int in 0..k-1 (a bool is
    an int, but it does not serialize as a digit), raises DomainError."""
    grid = [tuple(row) for row in rows]
    if not grid:
        raise DomainError("empty grid")
    C = len(grid[0])
    for r, row in enumerate(grid):
        if len(row) != C:
            raise DomainError(f"ragged grid: row {r} has {len(row)} entries, "
                              f"expected {C}")
        for j, e in enumerate(row):
            if type(e) is not int or not 0 <= e < k:
                raise DomainError(f"entry {e!r} at ({r}, {j}) not in 0..{k - 1}")
    return len(grid), C, tuple(chain.from_iterable(grid))


def format_word(digits: Iterable[int], k: int) -> str:
    """A word as text: a digit string for k <= 10, else its digits as
    decimal numbers separated by spaces."""
    check_sizes(k)
    return ("" if k <= 10 else " ").join(map(str, digits))


def parse_word(text: str, k: int) -> list[int]:
    """The digits of a word in format_word's form: a string of decimal
    digits for k <= 10, decimal numbers separated by whitespace for k > 10.
    Surrounding whitespace is ignored.  Any other character or token, or a
    digit of k or more, raises DomainError with its position."""
    check_sizes(k)
    word = text.strip()
    digits = []
    for i, tok in enumerate(word if k <= 10 else word.split()):
        d = int(tok) if tok.isascii() and tok.isdigit() else k
        if d >= k:
            raise DomainError(f"{tok!r} at position {i} is not a digit "
                              f"in 0..{k - 1}")
        digits.append(d)
    return digits


class DigitGrid:
    """Immutable toroidal k x k^2 grid of digits in {0..k-1}."""

    __slots__ = ("k", "cells")

    def __init__(self, k: int, rows: Iterable[Iterable[int]]):
        check_sizes(k)
        R, C, cells = check_digit_rows(rows, k)
        if (R, C) != (k, k * k):
            raise DomainError(f"expected {k} rows of {k * k} entries, got {R} x {C}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "cells", cells)

    def __setattr__(self, name, value):
        raise AttributeError("DigitGrid is immutable")

    @classmethod
    def _trusted(cls, k: int, cells: tuple) -> "DigitGrid":
        """Internal fast path: cells must already be a valid row-major tuple
        of k^3 digits; it is wrapped, not copied."""
        self = object.__new__(cls)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "cells", cells)
        return self

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The k rows, each a tuple of k^2 digits, rebuilt on each read."""
        k2 = self.k * self.k
        cells = self.cells
        return tuple(cells[i:i + k2] for i in range(0, len(cells), k2))

    def __eq__(self, other) -> bool:
        return (isinstance(other, DigitGrid)
                and self.k == other.k and self.cells == other.cells)

    def __hash__(self) -> int:
        return hash((self.k, self.cells))

    def __repr__(self) -> str:
        return f"DigitGrid(k={self.k}, rows={list(map(list, self.rows))})"

    def cell(self, r: int, j: int) -> int:
        """Entry at row r, flat column j (no wrapping; indices must be in range)."""
        if not 0 <= r < self.k:
            raise DomainError(f"row {r} out of range for k={self.k}")
        if not 0 <= j < self.k * self.k:
            raise DomainError(f"flat column {j} out of range for k={self.k}")
        return self.cells[r * self.k * self.k + j]

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: k on line 1, then one line per row."""
        # one format call fills a template of k lines of k^2 fields each
        row = " ".join(["{}"] * (self.k * self.k))
        return f"{self.k}\n" + "\n".join([row] * self.k).format(*self.cells) + "\n"

    def to_json(self) -> str:
        return json.dumps({"k": self.k, "rows": [list(row) for row in self.rows]},
                          separators=(", ", ": "))

    @classmethod
    def from_text(cls, text: str) -> "DigitGrid":
        k, rows = parse_grid_text(text)
        try:
            return cls(k, rows)
        except DomainError as exc:
            raise GridParseError(str(exc)) from exc

    @classmethod
    def from_json(cls, text: str) -> "DigitGrid":
        k, rows = parse_grid_json(text)
        try:
            return cls(k, rows)
        except DomainError as exc:
            raise GridParseError(str(exc)) from exc


def parse_grid_text(text: str) -> tuple[int, list[list[int]]]:
    """Parse the text grid format without shape checks: (k, rows).

    Line 1 is k; each following non-empty line is one row of space-separated
    digits.  Shape/range checking is left to the caller so torus inputs with
    R != k rows can share this parser.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise GridParseError("empty input; expected alphabet size on line 1", line=1)
    try:
        k = int(lines[0].strip())
    except ValueError:
        raise GridParseError(f"bad alphabet size {lines[0].strip()!r}", line=1) from None
    rows: list[list[int]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        row = []
        for colno, tok in enumerate(line.split()):
            try:
                row.append(int(tok))
            except ValueError:
                raise GridParseError(f"bad digit {tok!r}", line=lineno,
                                     column=colno) from None
        rows.append(row)
    if not rows:
        raise GridParseError("no rows after the alphabet-size line", line=2)
    return k, rows


def parse_grid_json(text: str) -> tuple[int, list[list[int]]]:
    """Parse the JSON grid format without shape checks: (k, rows)."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GridParseError(f"bad JSON: {exc.msg}", line=exc.lineno,
                             column=exc.colno) from None
    if not isinstance(obj, dict) or "k" not in obj or "rows" not in obj:
        raise GridParseError('expected a JSON object with "k" and "rows"')
    k, rows = obj["k"], obj["rows"]
    # JSON true/false load as bool, a subclass of int: refuse them for k;
    # the digit rule refuses them as entries
    if not isinstance(k, int) or isinstance(k, bool):
        raise GridParseError(f'"k" must be an integer, got {k!r}')
    if (not isinstance(rows, list)
            or not all(isinstance(row, list) for row in rows)):
        raise GridParseError('"rows" must be an array of arrays')
    return k, rows


def translate(g: DigitGrid, dr: int, dj: int) -> DigitGrid:
    """Cyclically shift the grid down by dr rows and right by dj columns."""
    k, k2 = g.k, g.k * g.k
    rows = g.rows
    return DigitGrid(k, (tuple(rows[(r - dr) % k][(j - dj) % k2]
                               for j in range(k2))
                         for r in range(k)))


def relabel(g: DigitGrid, perm: Sequence[int]) -> DigitGrid:
    """Apply a digit permutation entrywise; perm must be a bijection on 0..k-1."""
    if (any(type(p) is not int for p in perm)
            or sorted(perm) != list(range(g.k))):
        raise DomainError(f"{list(perm)} is not a permutation of 0..{g.k - 1}")
    return DigitGrid(g.k, (tuple(perm[e] for e in row) for row in g.rows))

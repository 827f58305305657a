"""Toroidal k x k^2 digit grids with row/square/column coordinates.

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


class DigitGrid:
    """Immutable toroidal k x k^2 grid of digits in {0..k-1}."""

    __slots__ = ("k", "cells")

    def __init__(self, k: int, rows: Iterable[Iterable[int]]):
        if k < 2:
            raise DomainError(f"alphabet size must be >= 2, got {k}")
        frozen = tuple(tuple(row) for row in rows)
        if len(frozen) != k:
            raise DomainError(f"expected {k} rows, got {len(frozen)}")
        width = k * k
        for r, row in enumerate(frozen):
            if len(row) != width:
                raise DomainError(f"row {r} has {len(row)} entries, expected {width}")
            for j, e in enumerate(row):
                if not isinstance(e, int) or not 0 <= e < k:
                    raise DomainError(f"entry {e!r} at ({r}, {j}) not in 0..{k - 1}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "cells", tuple(chain.from_iterable(frozen)))

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
    # JSON true/false load as bool, a subclass of int: refuse them for k
    # and for every entry
    if not isinstance(k, int) or isinstance(k, bool):
        raise GridParseError(f'"k" must be an integer, got {k!r}')
    if (not isinstance(rows, list)
            or not all(isinstance(row, list) for row in rows)):
        raise GridParseError('"rows" must be an array of arrays')
    for r, row in enumerate(rows):
        for j, e in enumerate(row):
            if isinstance(e, bool):
                raise GridParseError(f"entry {e!r} at ({r}, {j}) is not a digit")
    return k, [list(row) for row in rows]


def translate(g: DigitGrid, dr: int, dj: int) -> DigitGrid:
    """Cyclically shift the grid down by dr rows and right by dj columns."""
    k, k2 = g.k, g.k * g.k
    rows = g.rows
    return DigitGrid(k, (tuple(rows[(r - dr) % k][(j - dj) % k2]
                               for j in range(k2))
                         for r in range(k)))


def relabel(g: DigitGrid, perm: Sequence[int]) -> DigitGrid:
    """Apply a digit permutation entrywise; perm must be a bijection on 0..k-1."""
    if sorted(perm) != list(range(g.k)):
        raise DomainError(f"{list(perm)} is not a permutation of 0..{g.k - 1}")
    return DigitGrid(g.k, (tuple(perm[e] for e in row) for row in g.rows))

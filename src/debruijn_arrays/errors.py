"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside its documented domain (bad k, bad index, ...)."""


class DimensionError(ValueError):
    """Input dimensions make the requested check impossible (e.g. R*C != k**(m*n))."""


class BudgetError(RuntimeError):
    """The requested instance exceeds a hard enumeration/matrix budget."""


class GridParseError(ValueError):
    """Malformed grid/sequence text or JSON. Carries a line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + loc)

"""de Bruijn sequences, tori, and L-arrays: construction, verification,
exact counting, and exhaustive enumeration."""

from .construct import (check_column_relation, check_diagonal_relation,
                        construct_l_array)
from .errors import BudgetError, DimensionError, DomainError, GridParseError
from .grid import DigitGrid, relabel, translate
from .search import (SearchConfig, SearchReport, brute_filter, canonicalize,
                     enumerate_l_arrays, orbit_count)
from .sequences import (count_best, count_brute, count_formula, format_word,
                        generate_sequence, parse_word)
from .verify import VerifyReport, verify_l_array, verify_sequence, verify_torus

__all__ = [
    "BudgetError", "DigitGrid", "DimensionError", "DomainError",
    "GridParseError", "SearchConfig",
    "SearchReport", "VerifyReport", "brute_filter", "canonicalize",
    "check_column_relation", "check_diagonal_relation",
    "construct_l_array", "count_best", "count_brute", "count_formula",
    "enumerate_l_arrays", "format_word", "generate_sequence",
    "orbit_count", "parse_word", "relabel", "translate", "verify_l_array",
    "verify_sequence", "verify_torus",
]

__version__ = "0.1.0"

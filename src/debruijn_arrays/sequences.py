"""de Bruijn sequence generation and exact counting.

A (k, n)-de Bruijn sequence is a cyclic word of length k^n over {0..k-1}
containing every length-n word exactly once.  Cyclic classes of such words
correspond to Eulerian circuits of the graph on (n-1)-grams whose edges are
the n-grams, which gives both a generator (Hierholzer) and an independent
counter (BEST theorem).  The closed-form count is k!^(k^(n-1)) / k^n.

All counting is exact integer arithmetic; every division asserts a zero
remainder.
"""

from __future__ import annotations

from itertools import product
from math import factorial, inf, lgamma, log, log10

from .errors import BudgetError, DomainError
from .verify import verify_sequence

# Hard budgets for the two expensive counters.
BRUTE_MAX_WORD_LEN = 12
BRUTE_MAX_WORDS = 10 ** 6  # about 10^5 words a second: (7, 1) in, (8, 1) out
BEST_MAX_NODES = 64
# Longest word generate_sequence writes: k^n <= 2^18 digits admits (2, 18)
# and (3, 11), and refuses larger words before any table is built.
MAX_WORD_LEN = 1 << 18
# Counts are printed in decimal, and CPython converts ints of at most this
# many digits to str by default.
MAX_COUNT_DIGITS = 4300


def generate_sequence(k: int, n: int, method: str = "euler") -> str:
    """Produce a (k, n)-de Bruijn word of length k^n, deterministically.

    method="euler" walks an Eulerian circuit of the (n-1)-gram graph;
    method="greedy" repeatedly appends the largest digit whose window is
    still unused, starting from the all-zero state.  Digits >= 10 are
    rendered space-separated; below that the word is a plain digit string.
    """
    if k < 2:
        raise DomainError(f"alphabet size must be >= 2, got {k}")
    if n < 1:
        raise DomainError(f"window length must be >= 1, got {n}")
    # k >= 2, so capping the exponent keeps the test exact without building
    # a huge k^n
    if k ** min(n, MAX_WORD_LEN.bit_length()) > MAX_WORD_LEN:
        raise BudgetError(f"the (k={k}, n={n}) word has {k}^{n} digits, over "
                          f"the limit of {MAX_WORD_LEN}")
    if method == "euler":
        digits = _euler_digits(k, n)
    elif method == "greedy":
        digits = _greedy_digits(k, n)
    else:
        raise DomainError(f"unknown method {method!r}")
    return format_word(digits, k)


def format_word(digits: list[int], k: int) -> str:
    if k <= 10:
        return "".join(str(d) for d in digits)
    return " ".join(str(d) for d in digits)


def parse_word(text: str, k: int) -> list[int]:
    text = text.strip()
    if k <= 10:
        return [int(ch) for ch in text.replace(" ", "")]
    return [int(tok) for tok in text.split()]


def _euler_digits(k: int, n: int) -> list[int]:
    """Hierholzer's algorithm on the de Bruijn graph, iterative.

    Node u is an (n-1)-gram read as a base-k number; the edge on digit d
    leads to (u*k + d) mod k^(n-1), and a node entered that way ends in
    u mod k.  Edges out of each node are consumed in descending digit
    order, starting from the all-zero (n-1)-gram, so the output is fixed
    for each (k, n).
    """
    if n == 1:
        # Single node with k loops; the descending consumption order below
        # degenerates to emitting each digit once.
        return list(range(k - 1, -1, -1))
    m = k ** (n - 1)
    next_digit = [k] * m  # digits k-1 .. 0 not yet used from each node
    stack = [0]
    circuit_digits: list[int] = []
    while stack:
        u = stack[-1]
        d = next_digit[u]
        if d:
            d -= 1
            next_digit[u] = d
            stack.append((u * k + d) % m)
        else:
            stack.pop()
            if stack:
                circuit_digits.append(u % k)
    circuit_digits.reverse()
    return circuit_digits


def _greedy_digits(k: int, n: int) -> list[int]:
    """Prefer-largest greedy walk from the all-zero (n-1)-gram; windows are
    coded as base-k numbers, as in _euler_digits."""
    total = k ** n
    m = k ** (n - 1)
    used = bytearray(total)
    state = 0
    out: list[int] = []
    for _ in range(total):
        for d in range(k - 1, -1, -1):
            window = state * k + d
            if not used[window]:
                used[window] = 1
                out.append(d)
                state = window % m
                break
        else:
            raise AssertionError("greedy walk stuck; should not happen")
    return out


def count_formula(k: int, n: int) -> int:
    """Closed-form count of cyclic (k, n)-de Bruijn sequences: k!^(k^(n-1)) / k^n."""
    _check_count_args(k, n)
    numerator = factorial(k) ** (k ** (n - 1))
    q, rem = divmod(numerator, k ** n)
    if rem:
        raise AssertionError(f"count formula division inexact for (k={k}, n={n})")
    return q


def _check_count_args(k: int, n: int) -> None:
    """Refuse a (k, n) outside the domain, or whose count k!^(k^(n-1)) / k^n
    has more than MAX_COUNT_DIGITS decimal digits, judged from logarithms
    before any power is built."""
    if k < 2:
        raise DomainError(f"alphabet size must be >= 2, got {k}")
    if n < 1:
        raise DomainError(f"window length must be >= 1, got {n}")
    try:
        log10_count = (float(k) ** (n - 1) * lgamma(k + 1) / log(10)
                       - n * log10(k))
    except OverflowError:
        log10_count = inf
    if log10_count >= MAX_COUNT_DIGITS:
        raise BudgetError(f"the (k={k}, n={n}) count has over "
                          f"{MAX_COUNT_DIGITS} decimal digits")


def count_brute(k: int, n: int) -> int:
    """Count cyclic classes by testing every word of length k^n.

    Each cyclic class contributes exactly k^n distinct linear rotations
    (all rotations differ because all windows are distinct), so the raw
    pass count divides exactly by k^n.
    """
    _check_count_args(k, n)
    # k^n > n for k >= 2, so capping the exponent at the budget keeps the
    # word-length test exact without building a huge k^n
    if (k ** min(n, BRUTE_MAX_WORD_LEN) > BRUTE_MAX_WORD_LEN
            or k ** k ** n > BRUTE_MAX_WORDS):
        raise BudgetError(f"(k={k}, n={n}) exceeds the brute-force budget")
    length = k ** n
    hits = 0
    for word in product(range(k), repeat=length):
        if verify_sequence(word, k, n).valid:
            hits += 1
    q, rem = divmod(hits, length)
    if rem:
        raise AssertionError(f"brute count {hits} not divisible by {length}")
    return q


def count_best(k: int, n: int) -> int:
    """Count cyclic classes as Eulerian circuits via the BEST theorem.

    Circuits = arborescences (a Laplacian-minor determinant, exact integer
    Bareiss elimination) times (out-degree - 1)! per node.  Calibrated
    against count_brute on (2,2) and (2,3): the raw BEST value already
    counts cyclic de Bruijn classes, so no extra normalization factor.
    """
    _check_count_args(k, n)
    # refuse before the k^(n-1)-node Laplacian is built; k >= 2, so capping
    # the exponent at the budget keeps the comparison exact and cheap
    if k ** min(n - 1, BEST_MAX_NODES) > BEST_MAX_NODES:
        raise BudgetError(f"(k={k}, n={n}) needs a {k}^{n - 1}-node Laplacian, "
                          f"budget is {BEST_MAX_NODES}")
    m = k ** (n - 1)
    # out-degree Laplacian of the graph _euler_digits walks: node u's edge on
    # digit d leads to (u*k + d) mod m.  The graph is Eulerian, so any
    # principal minor counts the spanning arborescences.
    lap = [[0] * m for _ in range(m)]
    for u in range(m):
        lap[u][u] += k
        for d in range(k):
            lap[u][(u * k + d) % m] -= 1
    arbs = bareiss_determinant([row[1:] for row in lap[1:]]) if m > 1 else 1
    return arbs * factorial(k - 1) ** m


def bareiss_determinant(matrix: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free Bareiss elimination."""
    m = [row[:] for row in matrix]
    size = len(m)
    sign = 1
    prev = 1
    for col in range(size - 1):
        if m[col][col] == 0:
            for r in range(col + 1, size):
                if m[r][col] != 0:
                    m[col], m[r] = m[r], m[col]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(col + 1, size):
            for c in range(col + 1, size):
                m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = m[col][col]
    return sign * m[size - 1][size - 1]

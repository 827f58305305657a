import hashlib

import pytest

from debruijn_arrays import sequences
from debruijn_arrays.errors import BudgetError, DomainError
from debruijn_arrays.grid import format_word, parse_word
from debruijn_arrays.sequences import (bareiss_determinant, count_best,
                                       count_brute, count_formula,
                                       generate_sequence)
from debruijn_arrays.verify import verify_sequence

# brute-force ground truth, computed by enumerating all k^(k^n) words and
# dividing the pass count by k^n rotations per cyclic class
BRUTE_COUNTS = {(2, 2): 1, (2, 3): 2, (3, 2): 24}


class TestGenerate:
    CASES = [(k, n) for k in (2, 3, 4) for n in (1, 2, 3, 4) if k ** n <= 4096]

    @pytest.mark.parametrize("method", ["euler", "greedy"])
    @pytest.mark.parametrize("k,n", CASES)
    def test_all_methods_verify(self, k, n, method):
        word = generate_sequence(k, n, method)
        assert verify_sequence(parse_word(word, k), k, n).valid

    def test_deterministic(self):
        assert generate_sequence(3, 3) == generate_sequence(3, 3)
        assert generate_sequence(3, 3, "greedy") == generate_sequence(3, 3, "greedy")

    @pytest.mark.parametrize("method", ["euler", "greedy"])
    def test_exact_words(self, method):
        # the two walks write the same word for these (k, n); pinned so that
        # no change of the walks' internals alters the output
        assert generate_sequence(3, 3, method) == "222122021121020120011101000"
        word = generate_sequence(2, 16, method)
        assert len(word) == 2 ** 16
        assert hashlib.sha256(word.encode()).hexdigest() == (
            "85def81e8a9da4d54b5d4004cbcb66f2d061576b01ee74678132920a9af71518")

    def test_22_is_rotation_of_0011(self):
        # (2,2) has exactly one cyclic class, confirmed by brute force
        word = generate_sequence(2, 2, "euler")
        doubled = "00110011"
        assert word in {doubled[i:i + 4] for i in range(4)}

    def test_n1_contains_all_digits(self):
        word = generate_sequence(2, 1, "euler")
        assert sorted(word) == ["0", "1"]

    def test_greedy_prefer_largest(self):
        # prefer-largest from the all-zero state starts 1,1,... for (2,3):
        # windows 001, 011, 111 are claimed by the first greedy steps
        word = generate_sequence(2, 3, "greedy")
        assert word.startswith("11")

    @pytest.mark.parametrize("method", ["euler", "greedy"])
    @pytest.mark.parametrize("k,n", [(1, 3), (0, 2), (2, 0), (3, -1)])
    def test_domain(self, k, n, method):
        with pytest.raises(DomainError):
            generate_sequence(k, n, method)

    @pytest.mark.parametrize("method", ["euler", "greedy"])
    @pytest.mark.parametrize("k,n", [(2, 40), (2, 19), (3, 12),
                                     pytest.param(2, 10 ** 12, id="2-10^12")])
    def test_oversized_word_refused_before_the_graph(self, monkeypatch, k, n,
                                                     method):
        def refuse(*args):
            raise AssertionError("the walk must not start")
        monkeypatch.setattr(sequences, "_euler_digits", refuse)
        monkeypatch.setattr(sequences, "_greedy_digits", refuse)
        with pytest.raises(BudgetError):
            generate_sequence(k, n, method)

    @pytest.mark.parametrize("k,n", [(2, 16), (3, 2), (2, 6)])
    def test_benchmarked_words_admitted(self, k, n):
        assert len(parse_word(generate_sequence(k, n), k)) == k ** n

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            generate_sequence(2, 3, "magic")

    def test_wide_alphabet_rendering(self):
        word = generate_sequence(11, 1, "euler")
        digits = parse_word(word, 11)
        assert sorted(digits) == list(range(11))
        assert format_word(digits, 11) == word


class TestCounts:
    @pytest.mark.parametrize("k,n,expected", [
        (2, 2, 1), (2, 3, 2), (3, 2, 24), (2, 4, 16),
    ])
    def test_formula(self, k, n, expected):
        assert count_formula(k, n) == expected

    @pytest.mark.parametrize("k,n", list(BRUTE_COUNTS))
    def test_brute_matches_formula(self, k, n):
        assert count_brute(k, n) == BRUTE_COUNTS[(k, n)] == count_formula(k, n)

    @pytest.mark.parametrize("k,n", [(2, 2), (2, 3), (2, 4), (3, 2), (2, 5), (3, 3)])
    def test_best_matches_formula(self, k, n):
        assert count_best(k, n) == count_formula(k, n)

    def test_best_matches_formula_on_every_admitted_size(self):
        admitted = 0
        for k in range(2, 65):
            n = 1
            while k ** (n - 1) <= sequences.BEST_MAX_NODES:
                try:
                    best = count_best(k, n)
                except BudgetError:  # a count over MAX_COUNT_DIGITS
                    with pytest.raises(BudgetError):
                        count_formula(k, n)
                else:
                    assert best == count_formula(k, n), (k, n)
                    admitted += 1
                n += 1
        assert admitted == 131

    def test_n1_degenerates_to_factorial(self):
        # cyclic arrangements of all k digits
        from math import factorial
        for k in (2, 3, 4, 5):
            assert count_formula(k, 1) == factorial(k - 1)
            assert count_best(k, 1) == factorial(k - 1)

    def test_budget_guards(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("no word may be checked, no matrix reduced")
        monkeypatch.setattr(sequences, "verify_sequence", refuse)
        monkeypatch.setattr(sequences, "bareiss_determinant", refuse)
        with pytest.raises(BudgetError):
            count_brute(2, 4)  # 2^16 words exceeds word-length budget
        with pytest.raises(BudgetError):
            count_best(2, 8)  # 128-node Laplacian
        with pytest.raises(BudgetError):
            count_best(2, 40)  # 2^39 nodes
        with pytest.raises(BudgetError):
            count_brute(2, 10 ** 12)  # refused without building 2^(10^12)
        with pytest.raises(BudgetError):
            count_brute(8, 1)  # 8^8 words, minutes of checking

    @pytest.mark.parametrize("k,n", [
        (2, 15), (4, 7), (2, 40), (60, 2),
        pytest.param(2, 10 ** 12, id="2-10^12"),
        pytest.param(10 ** 400, 1, id="10^400-1")])
    def test_count_digit_limit(self, k, n):
        # counts over MAX_COUNT_DIGITS are refused before any power is built
        for count in (count_formula, count_best):
            with pytest.raises(BudgetError):
                count(k, n)

    @pytest.mark.parametrize("k,n", [(2, 14), (4, 6), (50, 2)])
    def test_counts_under_digit_limit_print(self, k, n):
        count = count_formula(k, n)
        assert 1000 < len(str(count)) <= sequences.MAX_COUNT_DIGITS
        if k ** (n - 1) <= sequences.BEST_MAX_NODES:
            assert count_best(k, n) == count

    def test_domain(self):
        # count_brute once raised TypeError at (-1, -1)
        for count in (count_formula, count_best, count_brute):
            for k, n in [(1, 2), (0, 1), (-1, -1), (2, 0)]:
                with pytest.raises(DomainError):
                    count(k, n)


class TestBareiss:
    def test_known_determinants(self):
        assert bareiss_determinant([[5]]) == 5
        assert bareiss_determinant([[1, 2], [3, 4]]) == -2
        assert bareiss_determinant([[2, 0, 1], [1, 3, 2], [1, 1, 1]]) == 0
        assert bareiss_determinant([[2, 0, 1], [1, 3, 2], [1, 1, 4]]) == 18
        assert bareiss_determinant([[1, 2], [2, 4]]) == 0

    def test_pivot_swap(self):
        assert bareiss_determinant([[0, 1], [1, 0]]) == -1

    def test_matches_permutation_expansion(self):
        # independent oracle: Leibniz expansion over all permutations
        from itertools import permutations
        import random
        rng = random.Random(3)
        for _ in range(20):
            size = rng.randrange(1, 5)
            m = [[rng.randrange(-5, 6) for _ in range(size)] for _ in range(size)]
            expected = 0
            for perm in permutations(range(size)):
                sign = 1
                for i in range(size):
                    for j in range(i + 1, size):
                        if perm[i] > perm[j]:
                            sign = -sign
                term = sign
                for i in range(size):
                    term *= m[i][perm[i]]
                expected += term
            assert bareiss_determinant(m) == expected

import time
from itertools import product

import pytest

from debruijn_arrays.errors import DimensionError, DomainError
from debruijn_arrays.grid import DigitGrid
from debruijn_arrays.verify import verify_l_array, verify_sequence, verify_torus

# published fixtures
L_ARRAY_2 = DigitGrid(2, [[0, 0, 1, 0],
                          [0, 1, 1, 1]])
L_ARRAY_3A = DigitGrid(3, [[0, 0, 0, 1, 1, 1, 2, 2, 2],
                           [1, 0, 0, 2, 1, 1, 0, 2, 2],
                           [1, 2, 1, 2, 0, 2, 0, 1, 0]])
L_ARRAY_3B = DigitGrid(3, [[0, 1, 1, 1, 0, 1, 2, 2, 1],
                           [0, 0, 1, 1, 2, 1, 0, 0, 2],
                           [0, 2, 0, 0, 2, 2, 1, 2, 2]])
TORUS_222 = [[0, 0, 1, 0],
             [1, 1, 1, 0],
             [0, 1, 1, 1],
             [0, 1, 0, 0]]


class TestVerifyLArray:
    @pytest.mark.parametrize("g", [L_ARRAY_2, L_ARRAY_3A, L_ARRAY_3B],
                             ids=["2-array", "3-array-a", "3-array-b"])
    def test_fixtures_valid(self, g):
        report = verify_l_array(g)
        assert report.valid
        assert report.missing == [] and report.duplicated == []
        assert report.positions_checked == g.k ** 3

    def test_all_zeros_invalid(self):
        report = verify_l_array(DigitGrid(2, [[0] * 4, [0] * 4]))
        assert not report.valid
        assert report.duplicated == [((0, 0, 0), 8)]
        assert len(report.missing) == 7

    @pytest.mark.parametrize("k", [2, 3])
    def test_all_zeros_missing_in_code_order(self, k):
        report = verify_l_array(DigitGrid(k, [[0] * (k * k)] * k))
        assert report.missing == list(product(range(k), repeat=3))[1:]
        assert report.duplicated == [((0, 0, 0), k ** 3)]

    @pytest.mark.parametrize("k", [2, 3])
    def test_window_geometry(self, k):
        # one nonzero cell at (0, 0) is the a of the L anchored there, the b
        # of the L anchored at (k-1, 0), and the d of the L anchored at
        # (k-1, k^2-1), whose window wraps both rows and columns
        for v in range(1, k):
            rows = [[0] * (k * k) for _ in range(k)]
            rows[0][0] = v
            report = verify_l_array(DigitGrid(k, rows))
            once = {(v, 0, 0), (0, v, 0), (0, 0, v)}
            assert report.duplicated == [((0, 0, 0), k ** 3 - 3)]
            assert report.missing == [f for f in product(range(k), repeat=3)
                                      if f not in once and f != (0, 0, 0)]
            assert report.positions_checked == k ** 3

    def test_double_count_invariant(self):
        # ledger sum equals k^3 and a valid grid has max count 1
        report = verify_l_array(L_ARRAY_3A)
        assert report.positions_checked == 27
        assert report.valid

    def test_idempotent(self):
        a = verify_l_array(L_ARRAY_2)
        b = verify_l_array(L_ARRAY_2)
        assert a == b


class TestVerifyTorus:
    def test_paper_torus(self):
        report = verify_torus(TORUS_222, 2, 2, 2)
        assert report.valid
        assert report.positions_checked == 16

    def test_all_zeros_invalid(self):
        report = verify_torus([[0] * 4 for _ in range(4)], 2, 2, 2)
        assert not report.valid
        assert (((0, 0), (0, 0)), 16) in report.duplicated

    def test_sequence_as_1xn_torus(self):
        report = verify_torus([[0, 0, 0, 1, 0, 1, 1, 1]], 2, 1, 3)
        assert report.valid

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            verify_torus([[0, 1], [1, 0]], 2, 2, 2)
        # k^(m*n) is not built when the exponent alone rules the size out
        for m, n in [(10 ** 9, 10 ** 9), (1, 3), (3, 1)]:
            start = time.monotonic()
            with pytest.raises(DimensionError):
                verify_torus(TORUS_222, 2, m, n)
            assert time.monotonic() - start < 1.0

    def test_malformed_rejected(self):
        with pytest.raises(DomainError):
            verify_torus([[0, 2, 1, 0]] + [[0] * 4] * 3, 2, 2, 2)
        with pytest.raises(DomainError):
            verify_torus([[0, 0], [0]], 2, 1, 2)
        for entry in (True, 1.0):
            with pytest.raises(DomainError):
                verify_torus([[0, 0, 0, 1, 0, 1, 1, entry]], 2, 1, 3)

    @pytest.mark.parametrize("k,m,n", [(2.0, 1, 3), (True, 1, 3),
                                       (2, 1.0, 3), (2, 1, 3.0)])
    def test_non_int_sizes_rejected(self, k, m, n):
        # a float k once reached the window tally and raised TypeError
        with pytest.raises(DomainError):
            verify_torus([[0, 0, 0, 1, 0, 1, 1, 1]], k, m, n)


class TestVerifySequence:
    def test_paper_word(self):
        assert verify_sequence("00010111", 2, 3).valid

    def test_other_valid_word(self):
        # all 8 cyclic windows distinct, checked by enumeration
        assert verify_sequence("00011101", 2, 3).valid

    def test_constant_word_invalid(self):
        report = verify_sequence("00000000", 2, 3)
        assert not report.valid
        assert ((0, 0, 0), 8) in report.duplicated

    def test_wrong_length(self):
        with pytest.raises(DimensionError):
            verify_sequence("0001011", 2, 3)
        # a window length of 10^9 once hung building k^n
        for k, n in [(3, 10 ** 9), (10 ** 9, 10 ** 9), (2, 4), (3, 2)]:
            start = time.monotonic()
            with pytest.raises(DimensionError):
                verify_sequence("00010111", k, n)
            assert time.monotonic() - start < 1.0

    def test_bad_digit(self):
        with pytest.raises(DomainError):
            verify_sequence("00010121", 2, 3)
        # int() would truncate 0.9 to 0 and 1.7 to 1, a valid word
        for word in ([0.9, 0, 0, 1.7, 0, 1, 1, 1], [0, 0, 0, 1, 0, 1, 1, True],
                     list("00010111")):
            with pytest.raises(DomainError):
                verify_sequence(word, 2, 3)

    @pytest.mark.parametrize("k,n", [(2.0, 3), (2, 3.0), (True, 3)])
    def test_non_int_sizes_rejected(self, k, n):
        # a float k once reached the window tally and raised TypeError
        with pytest.raises(DomainError):
            verify_sequence([0, 0, 0, 1, 0, 1, 1, 1], k, n)

    @pytest.mark.parametrize("word", ["0001011a", "0001 011", "000101\n1"])
    def test_non_digit_character_rejected(self, word):
        # int() once raised a bare ValueError for these
        with pytest.raises(DomainError, match="position"):
            verify_sequence(word, 2, 3)

    def test_accepts_int_sequences(self):
        assert verify_sequence([0, 0, 0, 1, 0, 1, 1, 1], 2, 3).valid


class TestSequenceTorusAgreement:
    def test_all_binary_length8_words(self):
        for word in product(range(2), repeat=8):
            seq = verify_sequence(word, 2, 3)
            tor = verify_torus([list(word)], 2, 1, 3)
            assert seq.valid == tor.valid

    def test_random_ternary_sample(self):
        import random
        rng = random.Random(7)
        for _ in range(50):
            word = [rng.randrange(3) for _ in range(9)]
            assert (verify_sequence(word, 3, 2).valid
                    == verify_torus([word], 3, 1, 2).valid)

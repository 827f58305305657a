import pytest
from hypothesis import given, strategies as st

from debruijn_arrays.errors import DomainError, GridParseError
from debruijn_arrays.grid import DigitGrid, parse_grid_json, relabel, translate
from debruijn_arrays.construct import construct_l_array
from debruijn_arrays.verify import verify_l_array


def grids(min_k=2, max_k=4):
    return st.integers(min_k, max_k).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(0, k - 1), min_size=k * k, max_size=k * k),
            min_size=k, max_size=k,
        ).map(lambda rows: DigitGrid(k, rows)))


class TestDigitGrid:
    def test_shape_guards(self):
        with pytest.raises(DomainError):
            DigitGrid(2, [[0, 0, 0, 0]])  # one row short
        with pytest.raises(DomainError):
            DigitGrid(2, [[0, 0, 0], [0, 0, 0]])  # rows too narrow
        with pytest.raises(DomainError):
            DigitGrid(2, [[0, 0, 0, 2], [0, 0, 0, 0]])  # digit out of range
        with pytest.raises(DomainError):
            DigitGrid(1, [[0]])

    def test_immutable(self):
        g = DigitGrid(2, [[0, 0, 1, 1], [0, 1, 1, 0]])
        with pytest.raises(AttributeError):
            g.k = 3
        assert isinstance(g.rows[0], tuple)

    def test_equality_and_hash(self):
        a = DigitGrid(2, [[0, 0, 1, 1], [0, 1, 1, 0]])
        b = DigitGrid(2, [(0, 0, 1, 1), (0, 1, 1, 0)])
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    @given(grids())
    def test_cells_and_rows_views_agree(self, g):
        k2 = g.k * g.k
        assert DigitGrid._trusted(g.k, g.cells) == DigitGrid(g.k, g.rows) == g
        assert hash(DigitGrid._trusted(g.k, g.cells)) == hash(g)
        assert hash(DigitGrid(g.k, g.rows)) == hash(g)
        assert isinstance(g.rows, tuple) and len(g.rows) == g.k
        assert all(isinstance(row, tuple) and len(row) == k2 for row in g.rows)
        assert all(g.cell(r, j) == g.rows[r][j]
                   for r in range(g.k) for j in range(k2))

    def test_cell_bounds(self):
        g = DigitGrid(2, [[0, 0, 1, 1], [0, 1, 1, 0]])
        assert g.cell(1, 3) == 0
        with pytest.raises(DomainError):
            g.cell(2, 0)
        with pytest.raises(DomainError):
            g.cell(0, 4)


class TestTransforms:
    def test_translate_identity_and_inverse(self):
        g = construct_l_array(3)
        assert translate(g, 0, 0) == g
        assert translate(translate(g, 1, 1), -1, -1) == g
        assert translate(g, 3, 9) == g  # full wraps

    def test_relabel_identity(self):
        g = construct_l_array(3)
        assert relabel(g, [0, 1, 2]) == g

    def test_relabel_complement(self):
        g = DigitGrid(2, [[0, 0, 1, 1], [0, 1, 1, 0]])
        assert relabel(g, [1, 0]) == DigitGrid(2, [[1, 1, 0, 0], [1, 0, 0, 1]])

    def test_relabel_rejects_non_bijection(self):
        g = construct_l_array(2)
        with pytest.raises(DomainError):
            relabel(g, [0, 0])

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_translates_stay_valid(self, k):
        import random
        rng = random.Random(k)
        g = construct_l_array(k)
        for _ in range(20):
            t = translate(g, rng.randrange(k), rng.randrange(k * k))
            assert verify_l_array(t).valid

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_relabelings_stay_valid(self, k):
        import random
        rng = random.Random(100 + k)
        g = construct_l_array(k)
        for _ in range(20):
            perm = list(range(k))
            rng.shuffle(perm)
            assert verify_l_array(relabel(g, perm)).valid


class TestSerialization:
    def test_text_roundtrip_golden(self):
        g = DigitGrid(2, [[0, 0, 1, 1], [0, 1, 1, 0]])
        assert g.to_text() == "2\n0 0 1 1\n0 1 1 0\n"
        assert DigitGrid.from_text(g.to_text()) == g

    def test_json_roundtrip(self):
        g = construct_l_array(3)
        assert DigitGrid.from_json(g.to_json()) == g

    @given(grids())
    def test_roundtrips_property(self, g):
        assert DigitGrid.from_text(g.to_text()) == g
        assert DigitGrid.from_json(g.to_json()) == g
        assert DigitGrid.from_text(g.to_text()).to_text() == g.to_text()

    def test_parse_errors_carry_location(self):
        with pytest.raises(GridParseError):
            DigitGrid.from_text("")
        with pytest.raises(GridParseError) as exc:
            DigitGrid.from_text("2\n0 0 x 1\n0 1 1 0\n")
        assert exc.value.line == 2
        with pytest.raises(GridParseError):
            DigitGrid.from_text("2\n0 0 1 1\n")  # truncated
        with pytest.raises(GridParseError):
            DigitGrid.from_json("{not json")
        with pytest.raises(GridParseError):
            DigitGrid.from_json('{"k": 2}')
        with pytest.raises(GridParseError):
            DigitGrid.from_json('{"k": 2, "rows": [[0,0,1,1],[0,1,1,9]]}')

    @pytest.mark.parametrize("text", [
        '{"k": 2, "rows": [[false, false, true, true], [false, true, true, false]]}',
        '{"k": 2, "rows": [[0, 0, 1, 1], [0, 1, true, 0]]}'])
    def test_json_booleans_are_not_digits(self, text):
        # bool is a subclass of int, but JSON true/false are not digits
        with pytest.raises(GridParseError):
            DigitGrid.from_json(text)

    def test_json_boolean_k_refused(self):
        with pytest.raises(GridParseError):
            parse_grid_json('{"k": true, "rows": [[0, 0], [0, 0]]}')

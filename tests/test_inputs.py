"""The input rules in grid.py, met through every public entry point: one
size check, one digit-rows check and one word format."""

import pytest
from hypothesis import given, strategies as st

from debruijn_arrays import (DigitGrid, DomainError, SearchConfig,
                             brute_filter, construct_l_array, count_best,
                             count_brute, count_formula, enumerate_l_arrays,
                             format_word, generate_sequence, parse_word,
                             verify_sequence, verify_torus)
from debruijn_arrays.cli import main
from debruijn_arrays.grid import capped_power, check_digit_rows

K2_ROWS = [[0, 0, 1, 1], [0, 1, 1, 0]]
WORD = [0, 0, 0, 1, 0, 1, 1, 1]

# each entry point, as a call taking its size arguments by name, and
# arguments it accepts
ENTRY_POINTS = {
    "DigitGrid": (lambda k: DigitGrid(k, K2_ROWS), {"k": 2}),
    "construct_l_array": (construct_l_array, {"k": 2}),
    "generate_sequence": (generate_sequence, {"k": 2, "n": 3}),
    "count_formula": (count_formula, {"k": 2, "n": 3}),
    "count_brute": (count_brute, {"k": 2, "n": 3}),
    "count_best": (count_best, {"k": 2, "n": 3}),
    "verify_sequence": (lambda k, n: verify_sequence(WORD, k, n),
                        {"k": 2, "n": 3}),
    "verify_torus": (lambda k, m, n: verify_torus([WORD], k, m, n),
                     {"k": 2, "m": 1, "n": 3}),
    "SearchConfig": (lambda k, limit: SearchConfig(k=k, limit=limit),
                     {"k": 2, "limit": 1}),
    "enumerate_l_arrays": (
        lambda workers: enumerate_l_arrays(SearchConfig(k=2), workers=workers),
        {"workers": 1}),
    "brute_filter": (brute_filter, {"k": 2}),
    "format_word": (lambda k: format_word(WORD, k), {"k": 2}),
    "parse_word": (lambda k: parse_word("00010111", k), {"k": 2}),
}
BAD_SIZES = [True, 2.0, "3", 0]


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_point_accepts_its_good_sizes(name):
    call, good = ENTRY_POINTS[name]
    call(**good)


@pytest.mark.parametrize("bad", BAD_SIZES, ids=repr)
@pytest.mark.parametrize("name,arg", [(name, arg)
                                      for name, (_, good) in ENTRY_POINTS.items()
                                      for arg in good])
def test_bad_size_is_a_domain_error_naming_it(name, arg, bad):
    call, good = ENTRY_POINTS[name]
    with pytest.raises(DomainError, match=f"{arg} must be"):
        call(**{**good, arg: bad})


@pytest.mark.parametrize("budget", [True, "1", 0, -1.0, float("nan"),
                                    float("inf"), 10 ** 400],
                         ids=lambda budget: repr(budget)[:12])
def test_time_budget_must_be_a_positive_finite_number(budget):
    with pytest.raises(DomainError, match="time_budget"):
        SearchConfig(k=3, time_budget=budget)


# (argv before the size, argv after it) for each size option of the CLI
CLI_SIZES = {
    "construct --k": (["construct", "--k"], []),
    "sequence --k": (["sequence", "--k"], ["--n", "3"]),
    "sequence --n": (["sequence", "--k", "2", "--n"], []),
    "count --k": (["count", "--k"], ["--n", "3"]),
    "count --n": (["count", "--k", "2", "--n"], []),
    "verify --k": (["verify", "--k"], ["--shape", "sequence", "3"]),
    "verify sequence N": (["verify", "--k", "2", "--shape", "sequence"], []),
    "verify torus M": (["verify", "--k", "2", "--shape", "torus"], ["3"]),
    "enumerate --k": (["enumerate", "--k"], []),
    "enumerate --limit": (["enumerate", "--k", "2", "--limit"], []),
    "enumerate --workers": (["enumerate", "--k", "2", "--workers"], []),
}


@pytest.mark.parametrize("bad", ["True", "2.5", "0"])
@pytest.mark.parametrize("option", CLI_SIZES)
def test_cli_bad_size_exits_2(tmp_path, capsys, option, bad):
    before, after = CLI_SIZES[option]
    argv = before + [bad] + after
    if argv[0] == "verify":
        (tmp_path / "w.txt").write_text("00010111\n")
        argv.append(str(tmp_path / "w.txt"))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses a non-number
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "Traceback" not in captured.err


def test_capped_power():
    assert capped_power(3, 4, 81) == 81
    assert capped_power(3, 4, 80) == 81
    assert capped_power(2, 10 ** 12, 100) == 101


def test_digit_rows():
    assert check_digit_rows(K2_ROWS, 2) == (2, 4, (0, 0, 1, 1, 0, 1, 1, 0))
    for rows in ([], [[0, 1], [0]], [[0, 1.0]], [[0, True]], [[0, 2]]):
        with pytest.raises(DomainError):
            check_digit_rows(rows, 2)


@pytest.mark.parametrize("k,n", [(2, 3), (3, 2), (11, 2), (16, 1)])
def test_generated_word_verifies(k, n):
    # a k > 10 word is written space-separated, and verify_sequence reads it
    assert verify_sequence(generate_sequence(k, n), k, n).valid


@given(st.integers(2, 40).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k - 1)))))
def test_parse_word_reads_what_format_word_writes(case):
    k, digits = case
    assert parse_word(format_word(digits, k), k) == digits


@pytest.mark.parametrize("text,k,position", [
    ("0x01", 2, 1), ("0012", 2, 3), ("0 1", 2, 1), ("¹", 2, 0),
    ("10 x 3", 11, 1), ("10 11", 11, 1), ("10 +3", 11, 1)])
def test_parse_word_names_the_bad_position(text, k, position):
    with pytest.raises(DomainError, match=f"position {position} "):
        parse_word(text, k)


def test_parse_word_ignores_surrounding_whitespace():
    assert parse_word(" 0101\n", 2) == [0, 1, 0, 1]
    assert parse_word("\n10  0\t3 \n", 11) == [10, 0, 3]


def test_cli_sequence_word_round_trip(tmp_path, capsys):
    # a k = 11 word goes through `sequence` and back through `verify`;
    # at k <= 10 a word with spaces is refused
    assert main(["sequence", "--k", "11", "--n", "2"]) == 0
    path = tmp_path / "w.txt"
    path.write_text(capsys.readouterr().out)
    assert main(["verify", "--k", "11", "--shape", "sequence", "2",
                 str(path)]) == 0
    path.write_text("0 0 0 1 0 1 1 1\n")
    assert main(["verify", "--k", "2", "--shape", "sequence", "3",
                 str(path)]) == 2
    assert "position 1" in capsys.readouterr().err

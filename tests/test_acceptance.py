"""Acceptance suite: one test per headline claim, named so that `pytest -v`
prints one pass/fail line per criterion, plus the k=4 truncated-run demo."""

import json
import random
import time

import pytest

from debruijn_arrays.cli import main as cli_main
from debruijn_arrays.construct import (check_column_relation,
                                       check_diagonal_relation,
                                       construct_l_array)
from debruijn_arrays.grid import DigitGrid, relabel, translate
from debruijn_arrays.search import (SearchConfig, brute_filter,
                                    enumerate_l_arrays, orbit_count)
from debruijn_arrays.sequences import (count_best, count_brute, count_formula,
                                       generate_sequence)
from debruijn_arrays.verify import (verify_l_array, verify_sequence,
                                    verify_torus)

FIXTURE_2 = DigitGrid(2, [[0, 0, 1, 0], [0, 1, 1, 1]])
FIXTURE_2B = DigitGrid(2, [[0, 0, 1, 1], [0, 1, 1, 0]])
FIXTURE_3A = DigitGrid(3, [[0, 0, 0, 1, 1, 1, 2, 2, 2],
                           [1, 0, 0, 2, 1, 1, 0, 2, 2],
                           [1, 2, 1, 2, 0, 2, 0, 1, 0]])
FIXTURE_3B = DigitGrid(3, [[0, 1, 1, 1, 0, 1, 2, 2, 1],
                           [0, 0, 1, 1, 2, 1, 0, 0, 2],
                           [0, 2, 0, 0, 2, 2, 1, 2, 2]])
TORUS_222 = [[0, 0, 1, 0],
             [1, 1, 1, 0],
             [0, 1, 1, 1],
             [0, 1, 0, 0]]

GOLDEN = {
    2: [[0, 0, 1, 1],
        [0, 1, 1, 0]],
    3: [[0, 0, 0, 1, 1, 1, 2, 2, 2],
        [0, 1, 2, 1, 2, 0, 2, 0, 1],
        [0, 2, 1, 1, 0, 2, 2, 1, 0]],
    4: [[0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3],
        [0, 1, 2, 3, 1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 1, 2],
        [0, 2, 0, 2, 1, 3, 1, 3, 2, 0, 2, 0, 3, 1, 3, 1],
        [0, 3, 2, 1, 1, 0, 3, 2, 2, 1, 0, 3, 3, 2, 1, 0]],
}


def test_criterion_01_construction_valid_for_k_2_through_12():
    start = time.monotonic()
    for k in range(2, 13):
        assert verify_l_array(construct_l_array(k)).valid
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"construction suite took {elapsed:.2f}s (limit 5s)"


def test_criterion_02_golden_grids_k_2_3_4():
    for k, rows in GOLDEN.items():
        assert construct_l_array(k) == DigitGrid(k, rows)


def test_criterion_03_fixtures_verify_and_no_mutation_survives():
    assert verify_l_array(FIXTURE_2).valid
    assert verify_l_array(FIXTURE_3A).valid
    assert verify_l_array(FIXTURE_3B).valid
    assert verify_torus(TORUS_222, k=2, m=2, n=2).valid
    survivors = []
    for g in (FIXTURE_2, FIXTURE_3A, FIXTURE_3B):
        k2 = g.k * g.k
        for r in range(g.k):
            for j in range(k2):
                for alt in range(g.k):
                    if alt == g.rows[r][j]:
                        continue
                    rows = [list(row) for row in g.rows]
                    rows[r][j] = alt
                    if verify_l_array(DigitGrid(g.k, rows)).valid:
                        survivors.append((g.k, r, j, alt))
    # finding report: every single-cell mutation must break the property
    assert survivors == [], f"mutations that still verify: {survivors}"


def test_criterion_04_column_and_diagonal_relations_k_2_through_12():
    for k in range(2, 13):
        g = construct_l_array(k)
        assert check_column_relation(g)
        assert check_diagonal_relation(g)


def test_criterion_05_k2_enumeration_matches_brute_force():
    start = time.monotonic()
    sols, report = enumerate_l_arrays(SearchConfig(k=2))
    brute_sols, _ = brute_filter(2)
    elapsed = time.monotonic() - start
    assert sols == brute_sols
    assert report.complete and report.raw_count == 16
    assert FIXTURE_2 in set(sols) and FIXTURE_2B in set(sols)
    # "precisely two" under the translations quotient; the source text's
    # equivalence ("up to rotation") is interpretation-dependent, so the raw
    # count (16) and the orbit count (2) are both reported
    assert orbit_count(sols, "translations") == 2
    assert elapsed < 1.0, f"k=2 enumeration took {elapsed:.2f}s (limit 1s)"


@pytest.mark.slow
def test_criterion_06_k3_enumeration_complete_and_deterministic():
    start = time.monotonic()
    sols1, rep1 = enumerate_l_arrays(SearchConfig(k=3), workers=1)
    elapsed1 = time.monotonic() - start
    assert rep1.complete
    assert elapsed1 < 300.0, f"k=3 single-worker run took {elapsed1:.1f}s"
    present = set(sols1)
    assert FIXTURE_3A in present and FIXTURE_3B in present
    assert rep1.raw_count >= 24  # "dozens more solutions"
    assert rep1.raw_count == 198288
    assert orbit_count(sols1, "translations") == 7344

    sols2, rep2 = enumerate_l_arrays(SearchConfig(k=3), workers=2)
    assert rep2.complete
    assert sols2 == sols1
    assert rep2.raw_count == rep1.raw_count
    assert rep2.nodes_visited == rep1.nodes_visited


def test_criterion_07_sequence_counts_agree():
    start = time.monotonic()
    for k, n, expected in [(2, 2, 1), (2, 3, 2), (3, 2, 24)]:
        assert count_formula(k, n) == count_brute(k, n) == count_best(k, n) == expected
    assert count_formula(2, 4) == count_best(2, 4) == 16
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"counting took {elapsed:.2f}s (limit 10s)"


def test_criterion_08_sequence_generation_both_methods():
    for k in (2, 3, 4):
        for n in range(1, 5):
            if k ** n > 4096:
                continue
            for method in ("euler", "greedy"):
                word = generate_sequence(k, n, method=method)
                assert verify_sequence(word, k, n).valid, (k, n, method)
    assert verify_sequence("00010111", 2, 3).valid


def test_criterion_09_closure_under_translations_and_relabelings():
    rng = random.Random(20240824)
    for k in range(2, 7):
        g = construct_l_array(k)
        for _ in range(100):
            t = translate(g, rng.randrange(k), rng.randrange(k * k))
            assert verify_l_array(t).valid
        for _ in range(100):
            perm = list(range(k))
            rng.shuffle(perm)
            assert verify_l_array(relabel(g, perm)).valid


def test_criterion_10_serialization_roundtrips_and_cli_exit_codes(tmp_path, capsys):
    emitted = [construct_l_array(k) for k in range(2, 7)]
    emitted.extend(enumerate_l_arrays(SearchConfig(k=2))[0])
    for g in emitted:
        assert DigitGrid.from_text(g.to_text()).to_text() == g.to_text()
        assert DigitGrid.from_json(g.to_json()).to_json() == g.to_json()

    valid = tmp_path / "valid.txt"
    valid.write_text(construct_l_array(2).to_text())
    invalid = tmp_path / "invalid.txt"
    invalid.write_text("2\n0 0 0 0\n0 0 0 0\n")
    malformed = tmp_path / "malformed.txt"
    malformed.write_text("2\n0 0 x 0\n0 1 1 1\n")
    truncated = tmp_path / "truncated.txt"
    truncated.write_text("2\n0 0 1 1\n")

    matrix = [
        (["construct", "--k", "3"], 0),
        (["construct", "--k", "1"], 2),
        (["verify", "--k", "2", "--shape", "l-array", str(valid)], 0),
        (["verify", "--k", "2", "--shape", "l-array", str(invalid)], 1),
        (["verify", "--k", "2", "--shape", "l-array", str(malformed)], 2),
        (["verify", "--k", "2", "--shape", "l-array", str(truncated)], 2),
        (["sequence", "--k", "2", "--n", "3"], 0),
        (["count", "--k", "2", "--n", "3", "--method", "all"], 0),
        (["count", "--k", "2", "--n", "5", "--method", "brute"], 2),
        (["enumerate", "--k", "2"], 0),
        (["enumerate", "--k", "3", "--limit", "1"], 3),
    ]
    for argv, expected in matrix:
        code = cli_main(argv)
        capsys.readouterr()
        assert code == expected, f"{argv} -> {code}, expected {expected}"


@pytest.mark.slow
def test_k4_truncated_run_demo():
    """Completing k=4 is out of reach (a 4^64 assignment space); a 60 s
    budget must still emit at least one verified solution and an honest
    complete=false report."""
    sols, report = enumerate_l_arrays(SearchConfig(k=4, time_budget=60.0))
    assert report.complete is False
    assert report.elapsed <= 90.0
    assert len(sols) >= 1
    assert report.raw_count == len(sols)
    for g in sols[:50]:
        assert verify_l_array(g).valid
    # the report serializes to the documented shape
    d = report.to_json_dict()
    assert set(d) == {"raw_count", "orbit_count", "nodes_visited",
                      "complete", "elapsed"}
    assert d["complete"] is False
    json.dumps(d)

import concurrent.futures
import os
import random
import time
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from debruijn_arrays import search
from debruijn_arrays.construct import construct_l_array
from debruijn_arrays.errors import BudgetError, DomainError
from debruijn_arrays.grid import DigitGrid, relabel, translate
from debruijn_arrays.search import (SearchConfig, brute_filter, canonicalize,
                                    enumerate_l_arrays, orbit_count)
from debruijn_arrays.verify import verify_l_array

PAPER_2A = DigitGrid(2, [[0, 0, 1, 0], [0, 1, 1, 1]])
PAPER_2B = DigitGrid(2, [[0, 0, 1, 1], [0, 1, 1, 0]])
PAPER_3A = DigitGrid(3, [[0, 0, 0, 1, 1, 1, 2, 2, 2],
                         [1, 0, 0, 2, 1, 1, 0, 2, 2],
                         [1, 2, 1, 2, 0, 2, 0, 1, 0]])
PAPER_3B = DigitGrid(3, [[0, 1, 1, 1, 0, 1, 2, 2, 1],
                         [0, 0, 1, 1, 2, 1, 0, 0, 2],
                         [0, 2, 0, 0, 2, 2, 1, 2, 2]])

# Frozen k=2 ground truth, from the exhaustive 256-grid brute filter.
K2_RAW = 16
K2_TRANSLATION_ORBITS = 2

# Frozen k=3 ground truth.  The raw count comes from the normal-form search
# plus orbit expansion and was cross-checked against a direct (no symmetry
# reduction) row-major backtracking search of the subtree with the first
# three cells fixed to zero.  Translations act freely, so the translation
# orbit count is exactly K3_RAW / 27; the combined translation+relabel
# action has stabilizers (1250 > 198288 / 162 = 1224).
K3_RAW = 198288
K3_TRANSLATION_ORBITS = 7344
K3_FULL_ORBITS = 1250
K3_DIRECT_SHARD_000 = 5994


def group_images(g, symmetry):
    """Every image of g under the group, built with translate and relabel."""
    k = g.k
    if symmetry == "none":
        return [g]
    perms = [None]
    if symmetry == "translations+relabel":
        perms = list(permutations(range(k)))
    images = []
    for dr in range(k):
        for dj in range(k * k):
            moved = translate(g, dr, dj)
            images.extend(moved if p is None else relabel(moved, p)
                          for p in perms)
    return images


def tie_heavy_rows(k):
    """Rows of a k x k^2 grid with many tied translations: a random grid, a
    constant one, all rows equal, or rows periodic with a period that
    divides k^2."""
    k2 = k * k
    digit = st.integers(0, k - 1)
    row = st.lists(digit, min_size=k2, max_size=k2)
    periodic_row = st.sampled_from(
        [d for d in range(1, k2 + 1) if k2 % d == 0]).flatmap(
        lambda d: st.lists(digit, min_size=d, max_size=d).map(
            lambda block: block * (k2 // d)))
    return st.one_of(st.lists(row, min_size=k, max_size=k),
                     digit.map(lambda v: [[v] * k2] * k),
                     row.map(lambda r: [r] * k),
                     st.lists(periodic_row, min_size=k, max_size=k))


class CountingCells(tuple):
    """A flat grid that counts the cells read from it."""
    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


def construction_orbit(k):
    """The construction's orbit under translations and zero-fixing
    relabelings, sorted like a complete run's output."""
    g = construct_l_array(k)
    return sorted({relabel(translate(g, dr, dj), p)
                   for dr in range(k) for dj in range(k * k)
                   for p in permutations(range(k)) if p[0] == 0},
                  key=lambda h: h.rows)


def clashes(k, state):
    """True when the cells a column-major state fills repeat an L filling,
    or hold an adjacent horizontal or vertical pair value over k times."""
    k2 = k * k
    cell = {(i % k, i // k): d for i, d in enumerate(state)}
    seen = [[], [], []]
    for r in range(k):
        for j in range(k2):
            below, right = ((r + 1) % k, j), (r, (j + 1) % k2)
            shapes = ([(r, j), below, ((r + 1) % k, (j + 1) % k2)],
                      [(r, j), right], [(r, j), below])
            for kind, cells in zip(seen, shapes):
                if all(c in cell for c in cells):
                    kind.append(tuple(cell[c] for c in cells))
    windows, horizontal, vertical = seen
    return (len(set(windows)) < len(windows)
            or any(pairs.count(v) > k for pairs in (horizontal, vertical)
                   for v in pairs))


@pytest.fixture(scope="module")
def k2_enumerated():
    return enumerate_l_arrays(SearchConfig(k=2))


@pytest.fixture(scope="module")
def k2_brute():
    return brute_filter(2)


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            SearchConfig(k=1)
        with pytest.raises(DomainError):
            SearchConfig(k=2, symmetry="mirror")
        with pytest.raises(DomainError):
            SearchConfig(k=2, limit=0)
        with pytest.raises(DomainError):
            SearchConfig(k=2, time_budget=-1)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"),
                                        float("-inf")])
    def test_non_finite_budget_rejected(self, budget):
        with pytest.raises(DomainError):
            SearchConfig(k=4, limit=1, time_budget=budget)


class TestK2:
    def test_oracle_equivalence(self, k2_enumerated, k2_brute):
        sols, report = k2_enumerated
        brute_sols, brute_report = k2_brute
        assert sols == brute_sols
        assert report.raw_count == brute_report.raw_count == K2_RAW
        assert report.complete

    def test_paper_arrays_present(self, k2_enumerated):
        sols, _ = k2_enumerated
        present = set(sols)
        assert PAPER_2A in present
        assert PAPER_2B in present

    def test_all_emitted_valid(self, k2_brute):
        sols, _ = k2_brute
        assert all(verify_l_array(g).valid for g in sols)

    def test_raw_count_multiple_of_translation_group(self, k2_brute):
        sols, report = k2_brute
        # translations act freely: 2 * 4 = 8 divides the raw count
        assert report.raw_count % 8 == 0

    def test_translation_orbits(self, k2_enumerated):
        sols, _ = k2_enumerated
        assert orbit_count(sols, "translations") == K2_TRANSLATION_ORBITS

    def test_paper_arrays_in_distinct_orbits(self):
        assert (canonicalize(PAPER_2A, "translations")
                != canonicalize(PAPER_2B, "translations"))

    def test_ordered_lexicographically(self, k2_enumerated):
        sols, _ = k2_enumerated
        keys = [g.rows for g in sols]
        assert keys == sorted(keys)

    def test_pruning_beats_unpruned_tree(self, k2_enumerated):
        _, report = k2_enumerated
        # unpruned depth-first assignment visits sum_{d=1..8} 2^d = 510 nodes
        assert 0 < report.nodes_visited < 510


class TestLimitsAndBudgets:
    def test_limit_truncates(self):
        sols, report = enumerate_l_arrays(SearchConfig(k=3, limit=2))
        assert len(sols) == 2
        assert report.raw_count == 2
        assert not report.complete
        assert report.orbit_count is None
        assert all(verify_l_array(g).valid for g in sols)

    def test_limit_emits_the_first_orbit_sorted(self, k2_enumerated):
        # limit 8 is one orbit at k=2 (2*4 translations, 1 relabeling): the
        # run stops at the first normal form and emits its whole orbit
        full, _ = k2_enumerated
        sols, report = enumerate_l_arrays(SearchConfig(k=2, limit=8))
        assert len(sols) == report.raw_count == 8
        assert set(sols) == {translate(sols[0], dr, dj)
                             for dr in range(2) for dj in range(4)}
        assert [g.rows for g in sols] == sorted(g.rows for g in sols)
        assert set(sols) <= set(full)
        assert not report.complete and report.orbit_count is None

    def test_k5_limited_run_finds_a_grid(self):
        sols, report = enumerate_l_arrays(
            SearchConfig(k=5, limit=1, time_budget=5.0))
        assert len(sols) == report.raw_count == 1
        assert verify_l_array(sols[0]).valid
        assert not report.complete

    def test_generous_limit_is_complete(self, k2_enumerated):
        full, _ = k2_enumerated
        sols, report = enumerate_l_arrays(SearchConfig(k=2, limit=1000))
        assert sols == full
        assert report.complete

    def test_tiny_time_budget_partial(self):
        sols, report = enumerate_l_arrays(SearchConfig(k=4, time_budget=2.0))
        assert not report.complete
        assert report.elapsed < 10
        assert all(verify_l_array(g).valid for g in sols)
        # the search runs to the deadline; the run then emits the
        # construction's orbit (4^3 translations x 3! relabelings)
        assert len(sols) == report.raw_count == 64 * 6

    @pytest.mark.parametrize("k", [8, 10])
    def test_orbit_too_large_refused_before_search(self, k):
        start = time.monotonic()
        with pytest.raises(BudgetError):
            enumerate_l_arrays(SearchConfig(k=k, time_budget=30.0))
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("k,symmetry", [(7, "none"), (7, "translations"),
                                            (6, "translations+relabel")])
    def test_largest_admitted_orbits_reach_the_search(self, monkeypatch, k,
                                                      symmetry):
        class Searched(Exception):
            pass

        def searched(*args, **kwargs):
            raise Searched
        monkeypatch.setattr(search, "_run_shards", searched)
        with pytest.raises(Searched):
            enumerate_l_arrays(SearchConfig(k=k, symmetry=symmetry,
                                            time_budget=1.0))

    def test_shard_past_its_deadline_does_no_work(self):
        assert search._search_shard(
            3, (), None, time.monotonic() - 1.0) == ([], 0, False)

    def test_deep_search_is_iterative(self):
        # k=10 places 1 000 cells, beyond the default recursion limit
        _, _, finished = search._search_shard(
            10, (), None, time.monotonic() + 1.0)
        assert not finished
        start = time.monotonic()
        with pytest.raises(BudgetError):
            enumerate_l_arrays(SearchConfig(k=10, limit=1, time_budget=1.0))
        assert time.monotonic() - start < 1.0

    def test_limited_run_too_large_refused_before_tables(self):
        # at k=64 the kernel's 3k^3-entry tables would take seconds to build;
        # the orbit size guard refuses a limited run before building them
        start = time.monotonic()
        with pytest.raises(BudgetError):
            enumerate_l_arrays(SearchConfig(k=64, limit=1, time_budget=0.3))
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_cut_run_emits_the_construction_orbit(self, k, workers):
        orbit = construction_orbit(k)
        assert len(orbit) == k ** 3 * factorial(k - 1)
        sols, report = enumerate_l_arrays(
            SearchConfig(k=k, time_budget=0.1), workers=workers)
        assert not report.complete and report.orbit_count is None
        assert sols == orbit and report.raw_count == len(orbit)
        reps, _ = enumerate_l_arrays(
            SearchConfig(k=k, symmetry="translations", time_budget=0.1),
            workers=workers)
        flats = [h.cells for h in orbit]
        assert reps == [DigitGrid._trusted(k, f) for f in
                        search._orbit_reps(k, flats, "translations")]

    def test_deadline_before_sharding_emits_construction_orbit(
            self, monkeypatch):
        passes = []

        def recorded(*args):
            passes.append(shard_prefixes(*args))
            return passes[-1]
        shard_prefixes = search._shard_prefixes
        monkeypatch.setattr(search, "_shard_prefixes", recorded)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers run
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            None)  # no shards
        sols, report = enumerate_l_arrays(
            SearchConfig(k=3, time_budget=1e-9), workers=2)
        assert passes == [([], 0, False)]  # the prefix pass was cut
        assert not report.complete and report.orbit_count is None
        assert sols == construction_orbit(3)

    def test_brute_filter_budget(self):
        with pytest.raises(BudgetError):
            brute_filter(3)


class TestSymmetry:
    def test_canonicalize_orbit_constant(self):
        g = PAPER_2A
        rng = random.Random(0)
        base = canonicalize(g, "translations")
        for _ in range(10):
            moved = translate(g, rng.randrange(2), rng.randrange(4))
            assert canonicalize(moved, "translations") == base

    def test_canonicalize_none_is_identity(self):
        assert canonicalize(PAPER_3A, "none") == PAPER_3A

    def test_orbit_count_none_equals_raw(self, k2_enumerated):
        sols, report = k2_enumerated
        assert orbit_count(sols, "none") == report.raw_count

    def test_closure_under_symmetry(self, k2_brute):
        sols, _ = k2_brute
        pool = set(sols)
        rng = random.Random(42)
        for _ in range(100):
            g = translate(rng.choice(sols), rng.randrange(2), rng.randrange(4))
            assert relabel(g, rng.choice([(0, 1), (1, 0)])) in pool

    @pytest.mark.parametrize("symmetry", ["none", "translations",
                                          "translations+relabel"])
    def test_canonicalize_is_least_group_image(self, k2_brute, symmetry):
        # reference: the least image over the whole group, built grid by grid
        rng = random.Random(5)
        samples = list(k2_brute[0])
        samples += [DigitGrid(2, [[rng.randrange(2) for _ in range(4)]
                                  for _ in range(2)]) for _ in range(10)]
        for g in (PAPER_3A, PAPER_3B):
            samples.append(g)
            rows = [list(row) for row in g.rows]
            rows[rng.randrange(3)][rng.randrange(9)] += 1
            samples.append(DigitGrid(3, [[v % 3 for v in row] for row in rows]))
        for g in samples:
            expected = min(group_images(g, symmetry), key=lambda h: h.rows)
            assert canonicalize(g, symmetry) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([3, 4]).flatmap(
               lambda k: tie_heavy_rows(k).map(lambda rows: DigitGrid(k, rows))),
           st.sampled_from(["translations", "translations+relabel"]))
    def test_canonicalize_is_least_image_of_any_grid(self, g, symmetry):
        # tied translations leave several candidate maps to the end
        expected = min(group_images(g, symmetry), key=lambda h: h.rows)
        assert canonicalize(g, symmetry) == expected

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_translation_reduction_reads_few_cells(self, k):
        # the images of a valid grid differ early, so the cell-by-cell filter
        # reads about 2k^3 cells, against k^6 to build and compare all k^3
        # images
        maps = search._translation_maps(k)
        g = construct_l_array(k)
        for perm in (range(k), range(k - 1, -1, -1)):
            flat = CountingCells(perm[v] for v in g.cells)
            search._translation_canonical(flat, maps)
            assert flat.reads <= 3 * k ** 3

    @pytest.mark.parametrize("k", [3, 6])
    def test_relabel_reduction_builds_one_image_per_translation(
            self, monkeypatch, k):
        built = []
        first_occurrence = search._first_occurrence

        def counted(seq):
            built.append(seq)
            return first_occurrence(seq)
        monkeypatch.setattr(search, "_first_occurrence", counted)
        flat = construct_l_array(k).cells
        reps = search._orbit_reps(k, [flat], "translations+relabel")
        assert len(reps) == 1 and len(built) == k ** 3

    def test_canonicalize_unknown_symmetry(self):
        with pytest.raises(DomainError):
            canonicalize(PAPER_2A, "mirror")

    def test_quotient_run_matches_post_hoc(self, k2_enumerated):
        raw, _ = k2_enumerated
        reps, report = enumerate_l_arrays(SearchConfig(k=2, symmetry="translations"))
        assert report.raw_count == K2_RAW
        assert report.orbit_count == K2_TRANSLATION_ORBITS == len(reps)
        expected = sorted({canonicalize(g, "translations") for g in raw},
                          key=lambda g: g.rows)
        assert reps == expected


class TestDeterminismAndSharding:
    def test_single_vs_multi_worker(self, k2_enumerated):
        base, base_report = k2_enumerated
        sols, report = enumerate_l_arrays(SearchConfig(k=2), workers=2)
        assert sols == base
        assert report.raw_count == base_report.raw_count
        assert report.complete

    def test_rerun_identical(self):
        a = enumerate_l_arrays(SearchConfig(k=2))
        b = enumerate_l_arrays(SearchConfig(k=2))
        assert a[0] == b[0]
        assert a[1].raw_count == b[1].raw_count
        assert a[1].nodes_visited == b[1].nodes_visited

    @pytest.mark.parametrize("workers", [2, 3])
    def test_node_count_independent_of_workers(self, monkeypatch,
                                               k2_enumerated, workers):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)  # no cap below 3
        _, report = enumerate_l_arrays(SearchConfig(k=2), workers=workers)
        assert report.nodes_visited == k2_enumerated[1].nodes_visited

    def test_workers_capped_at_cpu_count(self, monkeypatch, k2_enumerated):
        # an inline pool records the processes asked for and starts none
        asked = []

        class InlinePool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = concurrent.futures.Future()
                fut.set_result(fn(*args))
                return fut
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        sols, report = enumerate_l_arrays(SearchConfig(k=2), workers=10_000)
        assert asked == [2]
        assert sols == k2_enumerated[0]
        assert report.nodes_visited == k2_enumerated[1].nodes_visited

    def test_shard_states_are_kernel_states(self):
        # the kernel run to depth 7: 25 states, each a consistent partial
        # normal form, where enumerating normal-form prefixes gave 41, 16 of
        # them clashing at once
        states, nodes, finished = search._shard_prefixes(3, 2)
        assert finished and len(states) == 25 and nodes > 0
        assert states == sorted(set(states))
        assert {len(s) for s in states} == {7}
        assert not any(clashes(3, s) for s in states)
        assert search._shard_prefixes(3, 1) == ([()], 0, True)

    def test_shards_cover_the_search_once(self):
        # shards started from the states find every k=2 normal form once,
        # and the node count does not change
        whole, nodes, _ = search._search_shard(2, (), None, None)
        for depth in range(1, 9):
            states, prefix_nodes, _ = search._search_shard(
                2, (), None, None, depth)
            assert not any(clashes(2, s) for s in states)
            found, shard_nodes = [], 0
            for s in states:
                sols, n, done = search._search_shard(2, s, None, None)
                assert done
                found += sols
                shard_nodes += n
            assert found == whole
            assert prefix_nodes + shard_nodes == nodes

    def test_limited_run_node_count_independent_of_workers(self):
        # a limited run is one shard: extra workers do no extra search
        cfg = SearchConfig(k=3, limit=5)
        one, report1 = enumerate_l_arrays(cfg, workers=1)
        two, report2 = enumerate_l_arrays(cfg, workers=2)
        assert one == two
        assert report1.nodes_visited == report2.nodes_visited


@pytest.fixture(scope="module")
def k2_by_symmetry():
    return {sym: enumerate_l_arrays(SearchConfig(k=2, symmetry=sym))[0]
            for sym in search.SYMMETRIES}


class TestLimitProperties:
    RAW_TOTAL = {2: K2_RAW, 3: K3_RAW}

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(1, 600),
           st.sampled_from(search.SYMMETRIES), st.sampled_from([1, 2]))
    def test_limited_run_contract(self, k2_by_symmetry, k, limit, symmetry,
                                  workers):
        sols, report = enumerate_l_arrays(
            SearchConfig(k=k, symmetry=symmetry, limit=limit), workers=workers)
        raw_total = self.RAW_TOTAL[k]
        assert 0 < len(sols) <= limit
        keys = [g.rows for g in sols]
        assert keys == sorted(set(keys))
        assert all(verify_l_array(g).valid for g in sols)
        assert report.raw_count == min(limit, raw_total)
        # the search is exhausted before it reaches enough normal forms
        # exactly when the limit exceeds every raw grid
        assert report.complete == (raw_total < limit)
        if k == 2:
            full = k2_by_symmetry[symmetry]
            assert set(sols) <= set(full)
            if report.complete:
                assert sols == full


@pytest.fixture(scope="module")
def k3_enumerated():
    return enumerate_l_arrays(SearchConfig(k=3))


@pytest.mark.slow
class TestK3:
    """Full k=3 enumeration; seconds of search per run."""

    def test_complete_and_fixture_membership(self, k3_enumerated):
        sols, report = k3_enumerated
        assert report.complete
        assert report.raw_count == len(sols) == K3_RAW
        present = set(sols)
        assert len(present) == K3_RAW
        assert PAPER_3A in present
        assert PAPER_3B in present

    def test_direct_search_shard_agreement(self, k3_enumerated):
        # a direct search with cells 0..2 fixed to zero found exactly this
        # many solutions; the orbit expansion must reproduce them all
        sols, _ = k3_enumerated
        shard = sum(1 for g in sols
                    if g.rows[0][0] == g.rows[0][1] == g.rows[0][2] == 0)
        assert shard == K3_DIRECT_SHARD_000

    def test_three_workers_match_one(self, monkeypatch, k3_enumerated):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)  # no cap below 3
        sols, report = enumerate_l_arrays(SearchConfig(k=3), workers=3)
        assert report.complete
        assert report.nodes_visited == k3_enumerated[1].nodes_visited == 2_439_815
        assert sols == k3_enumerated[0]

    def test_orbit_counts(self, k3_enumerated):
        sols, _ = k3_enumerated
        assert orbit_count(sols, "translations") == K3_TRANSLATION_ORBITS
        assert orbit_count(sols, "translations+relabel") == K3_FULL_ORBITS

    def test_sample_validity(self, k3_enumerated):
        sols, _ = k3_enumerated
        rng = random.Random(7)
        for g in rng.sample(sols, 200):
            assert verify_l_array(g).valid

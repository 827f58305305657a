"""Exhaustive enumeration of k-de Bruijn L-arrays by pruned backtracking.

One iterative kernel assigns cells in a given order.  For each position it
knows the ledger entries that close there: the L windows whose last cell it
is, each filling claimed at most once, and the adjacent horizontal and
vertical pairs, each pair value claimed at most k times (every pair value
combines with exactly k third digits, so a valid array holds it exactly k
times).  A clash prunes the branch on the spot.

Complete enumerations exploit three symmetries of the solution set.
Translations act freely (a translation-invariant grid would repeat a
filling) and so do digit relabelings (every digit occurs in a valid array),
and the all-zeros L filling occurs at exactly one anchor.  Searching only
normal forms - (0,0,0) pinned at anchor (0,0), nonzero digits first
appearing in ascending order along the columns - and expanding each hit by
all k*k^2 translations and (k-1)! zero-fixing relabelings therefore recovers
every raw solution exactly once, at roughly 1/(k^3 * (k-1)!) of the search
cost.  Normal forms are searched in column-major order, where every cell
from the second column on closes windows.  The third symmetry is
sigma(G)[(c - r) mod k][c] = G[r][c], which turns each window's filling
(a, b, d) into (b, a, d) and so maps normal forms to normal forms: the
search keeps only the lex-leader of each pair {G, nf(sigma(G))}, checked
column by column, and a finished search adds each leader's partner before
expansion.  A run whose search the deadline cuts emits one orbit, that of
the closed-form construction (construct_l_array), the one solution known
without searching; a finished search whose expansion overruns the deadline
stops at the next orbit boundary, having emitted at least one.  Every grid
that seeds an expansion is verified first; one that fails raises
InconsistencyError.

Every run expands each hit by the part of that group its symmetry leaves
(all of it, the relabelings, or the identity), then makes one reduction: a
sort, or a sort of the distinct orbit representatives.  canonicalize and
orbit_count share that reduction, the one place that refuses an unknown
symmetry; orbit_count also refuses grids of mixed alphabet sizes.

A run bounded by a solution limit takes the same path: its search stops
after enough leaders to cover the limit, each a whole orbit, and it emits
the first `limit` grids of their sorted output.  A search that finishes
before it finds that many leaders adds their partners, as a complete run
does.

The normal-form search can be sharded on states the kernel reached, found
by running it to a fixed depth; shards are independent and merged in state
order, so the output and the node count are identical for any worker count.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from itertools import permutations, product
from operator import itemgetter
from typing import Iterable, Optional

from .construct import construct_l_array
from .errors import BudgetError, DomainError, InconsistencyError
from .grid import DigitGrid, check_sizes
from .verify import verify_l_array

SYMMETRIES = ("none", "translations", "translations+relabel")
# Cells that a run may build or read for one orbit: k^3 * (k-1)!
# grids of k^3 cells when it expands the orbit.  The quotients are charged
# the cells of every image of every grid they reduce: k^6 * (k-1)! under
# translations, k^6 * k! under translations+relabel.  The reduction filters
# translations cell by cell and reads far fewer, so for them the charge is a
# conservative bound.  Admits k <= 7 (84.7 M) and k <= 6 with relabel
# (33.6 M); refuses k >= 8 (1.32 G) and k = 7 with relabel (593 M).
MAX_ORBIT_CELLS = 100_000_000


@dataclass(frozen=True)
class SearchConfig:
    k: int
    symmetry: str = "none"
    limit: Optional[int] = None
    time_budget: Optional[float] = None  # seconds

    def __post_init__(self):
        limit = {} if self.limit is None else {"limit": self.limit}
        check_sizes(self.k, **limit)
        if self.symmetry not in SYMMETRIES:
            raise DomainError(f"unknown symmetry {self.symmetry!r}")
        # bool is a subclass of int, but no duration; an int past the
        # float range cannot be added to a clock reading
        if self.time_budget is not None and (
                type(self.time_budget) not in (int, float)
                or not 0 < self.time_budget <= sys.float_info.max):
            raise DomainError(f"time_budget must be a positive finite number, "
                              f"got {self.time_budget!r}")


@dataclass
class SearchReport:
    raw_count: int
    orbit_count: Optional[int]
    nodes_visited: int
    complete: bool
    elapsed: float

    def to_json_dict(self) -> dict:
        return {
            "raw_count": self.raw_count,
            "orbit_count": self.orbit_count,
            "nodes_visited": self.nodes_visited,
            "complete": self.complete,
            "elapsed": round(self.elapsed, 6),
        }


def _closing_checks(k: int, order: list[int]) -> list[list[tuple[int, ...]]]:
    """For each position of `order` (flat cell indices), the ledger entries
    that become known once that position is assigned.

    Each entry (base, x, wx, y, wy, w) names the ledger slot
    base + vals[x]*wx + vals[y]*wy + digit*w, where digit is the value of
    the position's own cell and x, y are cells placed earlier.  The ledger
    holds k^3 window slots with room 1, then k^2 horizontal-pair slots and
    k^2 vertical-pair slots with room k each: every adjacent pair value
    combines with exactly k third digits, so it occurs exactly k times.
    """
    k2, k3 = k * k, k ** 3
    pos = [0] * len(order)
    for i, cell in enumerate(order):
        pos[cell] = i
    checks: list[list[tuple[int, ...]]] = [[] for _ in order]
    for r in range(k):
        for j in range(k2):
            a = r * k2 + j
            b = ((r + 1) % k) * k2 + j
            d = ((r + 1) % k) * k2 + (j + 1) % k2
            right = r * k2 + (j + 1) % k2
            for base, cells, weights in ((0, (a, b, d), (k2, k, 1)),
                                         (k3, (a, right), (k, 1)),
                                         (k3 + k2, (a, b), (k, 1))):
                last = max(cells, key=pos.__getitem__)
                known = [(c, w) for c, w in zip(cells, weights) if c != last]
                if len(known) == 1:  # a pair: pad with a zero-weight term
                    known.append((known[0][0], 0))
                (x, wx), (y, wy) = known
                checks[pos[last]].append(
                    (base, x, wx, y, wy, weights[cells.index(last)]))
    return checks


def _sigma_map(k: int) -> tuple[int, ...]:
    """Cell map of sigma, the symmetry the search breaks by a lex-leader
    check: for every column-major position p (cell (p mod k, p div k)), the
    row-major index of the cell whose digit the image holds there.

    sigma is followed by a one-row translation that brings its (0,0,0) L
    back to anchor (0,0): H[r][c] = G[(c + 1 - r) mod k][c].  H keeps a
    column's cells in that column, so its normal form is its
    first-occurrence relabeling and its first columns depend only on the
    grid's first columns.  sigma is an involution, so a leader and its
    partner are the whole of their class; a second map would need the
    partners to come from the group the maps generate.
    """
    k2 = k * k
    return tuple(((c + 1 - r) % k) * k2 + c
                 for c in range(k2) for r in range(k))


def _sigma_form(k: int, flat: tuple[int, ...],
                sigma: tuple[int, ...]) -> tuple[int, ...]:
    """nf(sigma(flat)), given sigma's _sigma_map: the image's digits in
    column-major order relabeled by first occurrence, stored row-major."""
    form = _first_occurrence(tuple(flat[s] for s in sigma))
    return tuple(form[c * k + r] for r in range(k) for c in range(k * k))


def _search_shard(k: int,
                  prefix: tuple[int, ...],
                  limit: Optional[int],
                  deadline: Optional[float],
                  stop: Optional[int] = None,
                  ) -> tuple[list[tuple[int, ...]], int, bool]:
    """Exhaust one shard of the normal-form search: the subtree below
    `prefix`, a state this kernel reached, given as the digits of positions
    0..len(prefix)-1 of the column-major cell order.

    Each position tries its digit range in ascending order.  The prefix
    pins each of its positions to the one-digit range [digit, digit + 1),
    and the shard ends when the search backtracks into it.  Returns (the
    lex-leader normal forms below, as row-major flat digit tuples, nodes
    visited, finished); finished is False when a limit of leaders or the
    deadline cut the shard short.  A shard whose deadline has already passed returns at
    once, unfinished, so shards queued behind a cut one do no work.  A node
    is one digit tried at one position; the pinned positions count none.
    Given a `stop` position, the search ends there and returns the states
    it reaches, as prefixes (digits in cell order), instead of normal forms.

    The search keeps only lex-leaders: each time a column is complete, the
    digit that completed it is rejected when the normal form of the grid's
    image under sigma (_sigma_map) is smaller than the grid in column-major
    order over the columns placed so far.  Of each pair {G, nf(sigma(G))}
    it finds the smaller, once, or G alone when the two are equal; the
    caller adds the partners.  The check reads only the prefix, so states,
    shards and node counts obey it alike.
    """
    if deadline is not None and time.monotonic() > deadline:
        return [], 0, False
    k2 = k * k
    n = k * k2
    end = n if stop is None else stop
    order = [(i % k) * k2 + i // k for i in range(n)]
    checks = _closing_checks(k, order)
    sigma = _sigma_map(k)
    # per column, the digit labels of sigma's image while its normal form
    # ties the grid on every column before it, None once it is larger
    labels: list[Optional[dict[int, int]]] = [{}] + [None] * k2
    room = [1] * k ** 3 + [k] * (2 * k2)
    vals = [0] * n  # row-major, like the solutions
    # each position tries the digits from lo up to below cap; a normal form
    # pins the (0,0,0) L at anchor (0,0): cells (0,0), (1,0) and (1,1), at
    # column-major positions 0, 1 and k+1, and the prefix its own positions
    lo = [0] * (n + 1)
    cap = [k] * n
    for p in (0, 1, k + 1):
        cap[p] = 1
    for p, digit in enumerate(prefix):
        lo[p], cap[p] = digit, digit + 1
    # largest digit before each position: a normal form's next new digit
    # is at most one more
    maxu = [0] * (n + 1)
    nxt = lo[:]  # per position, the next digit to try
    held: list[list[int]] = [[]] * n  # per position, the slots its digit took
    start = len(prefix)
    nodes = -start  # each pinned position tries its one digit
    col_end = [i % k == k - 1 for i in range(n)]

    def leads(i: int, digit: int) -> bool:
        """Whether sigma's image is not smaller than the grid once digit
        completes position i's column; records its labels while tied."""
        vals[order[i]] = digit
        col = i // k
        seen = labels[col]
        if seen is not None:
            seen = seen.copy()
            for p in range(i + 1 - k, i + 1):
                h = seen.setdefault(vals[sigma[p]], len(seen))
                g = vals[order[p]]
                if h != g:
                    if h < g:
                        return False
                    seen = None  # the image is larger, whatever follows
                    break
        labels[col + 1] = seen
        return True

    solutions: list[tuple[int, ...]] = []
    since_check = 0
    i = 0
    while True:
        if i < end:
            for digit in range(nxt[i], min(cap[i], maxu[i] + 2)):
                nodes += 1
                taken = []
                for base, x, wx, y, wy, w in checks[i]:
                    slot = base + vals[x] * wx + vals[y] * wy + digit * w
                    if not room[slot]:
                        for s in taken:
                            room[s] += 1
                        break
                    room[slot] -= 1
                    taken.append(slot)
                else:  # every slot had room
                    if not col_end[i] or leads(i, digit):
                        break
                    for s in taken:
                        room[s] += 1
            else:  # no digit fits here
                taken = None
            if taken is not None:
                vals[order[i]] = digit
                held[i] = taken
                nxt[i] = digit + 1
                maxu[i + 1] = max(maxu[i], digit)
                i += 1
                nxt[i] = lo[i]
                if deadline is not None:
                    since_check += 1
                    if since_check >= 16384:
                        since_check = 0
                        if time.monotonic() > deadline:
                            return solutions, nodes, False
                continue
        elif stop is not None:
            solutions.append(tuple(vals[c] for c in order[:stop]))
        else:
            solutions.append(tuple(vals))
            if limit is not None and len(solutions) >= limit:
                return solutions, nodes, False
        i -= 1
        if i < start:
            return solutions, nodes, True
        for s in held[i]:
            room[s] += 1


def _translation_maps(k: int) -> list[tuple[int, ...]]:
    """Flat-index source maps for every (dr, dj) translation."""
    k2 = k * k
    maps = []
    for dr in range(k):
        for dj in range(k2):
            maps.append(tuple(((r - dr) % k) * k2 + (j - dj) % k2
                              for r in range(k) for j in range(k2)))
    return maps


def _expand_orbit(k: int, flat: tuple[int, ...],
                  maps: list[tuple[int, ...]],
                  perms: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The images of one solution under every relabeling in perms followed
    by every translation in maps; distinct, since both actions are free."""
    # a map has k^3 >= 8 entries, so each getter returns a tuple
    getters = [itemgetter(*mp) for mp in maps]
    out = []
    for perm in perms:
        relabeled = tuple(map(perm.__getitem__, flat))
        out.extend([get(relabeled) for get in getters])
    return out


def _translation_canonical(flat: tuple[int, ...],
                           maps: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Least translated image of flat, found cell by cell: at each position
    keep only the maps whose image holds the least digit there, until one
    map is left; maps still tied when the positions run out give equal
    images."""
    cands = maps
    for p in range(len(flat)):
        if len(cands) == 1:
            break
        here = [flat[mp[p]] for mp in cands]
        least = min(here)
        cands = [mp for mp, v in zip(cands, here) if v == least]
    return tuple(flat[i] for i in cands[0])


def _first_occurrence(seq: tuple[int, ...]) -> tuple[int, ...]:
    """Least relabeling of seq: its first digit becomes 0, the next new
    digit 1, and so on."""
    labels: dict[int, int] = {}
    return tuple(labels.setdefault(v, len(labels)) for v in seq)


def _relabel_canonical(flat: tuple[int, ...],
                       maps: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Least image of flat under every translation and digit relabeling:
    the least first-occurrence form of its translated images."""
    return min(_first_occurrence(tuple(flat[i] for i in mp)) for mp in maps)


def _orbit_reps(k: int, flats: Iterable[tuple[int, ...]],
                symmetry: str) -> list[tuple[int, ...]]:
    """Distinct canonical orbit representatives, as sorted flat tuples;
    under none, flats must already be distinct.

    Reduces under translations first; the relabel stage then only touches
    one representative per translation orbit, which keeps the combined
    quotient tractable for six-digit-figure raw sets.
    """
    if symmetry not in SYMMETRIES:
        raise DomainError(f"unknown symmetry {symmetry!r}")
    if symmetry == "none":
        return sorted(flats)
    maps = _translation_maps(k)
    tcanon = {_translation_canonical(f, maps) for f in flats}
    if symmetry == "translations":
        return sorted(tcanon)
    return sorted({_relabel_canonical(f, maps) for f in tcanon})


def _shard_prefixes(k: int, workers: int, deadline: Optional[float] = None,
                    ) -> tuple[list[tuple[int, ...]], int, bool]:
    """States the normal-form kernel reaches, one position deeper at a time
    until every worker has several shards: (states in cell order, nodes of
    the tree above them, finished).  A single worker gets the one empty
    prefix."""
    states: list[tuple[int, ...]] = [()]
    nodes, finished, depth = 0, True, 0
    while (workers > 1 and finished and len(states) < 8 * workers
           and depth < k ** 3):
        depth += 1
        # each pass starts at the root, so its nodes are the whole tree above
        # its states and replace the shallower pass's
        states, nodes, finished = _search_shard(k, (), None, deadline, depth)
    return states, nodes, finished


def _run_shards(k: int, workers, limit, deadline):
    prefixes, nodes, finished = _shard_prefixes(k, workers, deadline)
    sols: list[tuple[int, ...]] = []
    if not finished:  # the deadline cut the prefix pass: no shard starts
        return sols, nodes, False
    if len(prefixes) == 1:
        results = [_search_shard(k, pre, limit, deadline) for pre in prefixes]
    else:
        # imported here, so that runs without a pool do not load it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_search_shard, k, pre, limit, deadline)
                       for pre in prefixes]
            results = [fut.result() for fut in futures]
    for s, n, done in results:
        sols.extend(s)
        nodes += n
        finished = finished and done
    return sols, nodes, finished


def enumerate_l_arrays(cfg: SearchConfig,
                       workers: int = 1) -> tuple[list[DigitGrid], SearchReport]:
    """Enumerate every k-de Bruijn L-array (up to the configured quotient).

    Returns the ordered solution list and a report.  With symmetry != none
    the list holds one canonical representative per orbit.  Output is
    identical for any worker count.

    Every run goes through the normal-form search plus orbit expansion.  A
    run bounded by a solution limit searches in one shard and stops after
    ceil(limit / (k^3 * (k-1)!)) lex-leaders, enough orbits to hold the
    limit; it emits the first `limit` grids (or representatives) of their
    sorted output.  A run is complete when its search finished and the
    limit cut no grid.  Raises BudgetError before searching when a run
    would have to build or read more than MAX_ORBIT_CELLS cells per orbit,
    and InconsistencyError when a grid it would expand fails verification.
    Starts at most os.cpu_count() processes, whatever `workers` asks.
    """
    check_sizes(cfg.k, workers=workers)
    workers = min(workers, os.cpu_count() or 1)
    start = time.monotonic()
    deadline = start + cfg.time_budget if cfg.time_budget is not None else None
    k = cfg.k
    relabels = k if cfg.symmetry == "translations+relabel" else k - 1
    # k^6 * relabels!, multiplied out only until it passes the limit, so a
    # huge k is refused at once
    orbit_cells = k ** 6
    for f in range(2, relabels + 1):
        if orbit_cells > MAX_ORBIT_CELLS:
            break
        orbit_cells *= f
    if orbit_cells > MAX_ORBIT_CELLS:
        raise BudgetError(
            f"one orbit at k={k} under symmetry {cfg.symmetry!r} costs at "
            f"least {orbit_cells} cells, over the limit of {MAX_ORBIT_CELLS}")
    maps = _translation_maps(k)
    perms = [p for p in permutations(range(k)) if p[0] == 0]
    orbit = len(maps) * len(perms)
    # the part of the group the symmetry does not fold (index 0: identity)
    expand_maps = maps if cfg.symmetry == "none" else maps[:1]
    expand_perms = perms if cfg.symmetry != "translations+relabel" else perms[:1]
    forms = None
    if cfg.limit is not None:
        # one shard, so the first orbits found do not depend on the workers
        forms, workers = -(-cfg.limit // orbit), 1
    leaders, nodes, complete = _run_shards(k, workers, forms, deadline)
    if complete:
        # every normal form: each leader and its partner, when distinct
        sigma = _sigma_map(k)
        canon_flats = []
        for flat in leaders:
            canon_flats.append(flat)
            partner = _sigma_form(k, flat, sigma)
            if partner != flat:
                canon_flats.append(partner)
    elif len(leaders) == forms:
        # the limit cut the search: each leader is a whole orbit, enough
        canon_flats = leaders
    else:
        # the deadline cut the search: emit the construction's orbit; any
        # member seeds the same orbit and the same quotient representatives
        # as its normal form
        canon_flats = [construct_l_array(k).cells]
    seeds: list[tuple[int, ...]] = []
    kept = 0
    for flat in canon_flats:
        # the budget covers expansion too: after the deadline a finished
        # search stops at an orbit boundary, having emitted at least one
        if kept and deadline is not None and time.monotonic() > deadline:
            complete = False
            break
        if not verify_l_array(DigitGrid._trusted(k, flat)).valid:
            raise InconsistencyError(
                f"a grid to emit at k={k} fails verification: {flat}")
        kept += 1
        seeds.extend(_expand_orbit(k, flat, expand_maps, expand_perms))
    raw_count = kept * orbit
    out_flats = _orbit_reps(k, seeds, cfg.symmetry)
    if cfg.limit is not None:
        # the limit cuts the output: raw grids, or representatives under a
        # quotient
        complete = complete and len(out_flats) <= cfg.limit
        if not complete:
            raw_count = min(cfg.limit, raw_count)
        out_flats = out_flats[:cfg.limit]
    orbits = len(out_flats) if complete else None

    grids = [DigitGrid._trusted(k, f) for f in out_flats]
    report = SearchReport(raw_count=raw_count, orbit_count=orbits,
                          nodes_visited=nodes, complete=complete,
                          elapsed=time.monotonic() - start)
    return grids, report


def brute_filter(k: int) -> tuple[list[DigitGrid], SearchReport]:
    """Ground-truth oracle: test every possible k x k^2 grid.

    Only k=2 (2^8 = 256 grids) is within budget; k=3 would be 3^27 grids.
    """
    check_sizes(k)
    if k != 2:
        raise BudgetError(f"brute filter supports k=2 only (k={k} is 3^27+ grids)")
    start = time.monotonic()
    solutions = []
    tried = 0
    for flat in product(range(k), repeat=k ** 3):
        tried += 1
        g = DigitGrid._trusted(k, flat)
        if verify_l_array(g).valid:
            solutions.append(g)
    report = SearchReport(raw_count=len(solutions), orbit_count=len(solutions),
                          nodes_visited=tried, complete=True,
                          elapsed=time.monotonic() - start)
    return solutions, report


def canonicalize(g: DigitGrid, symmetry: str) -> DigitGrid:
    """Lexicographically least grid in the orbit of g under the chosen group."""
    return DigitGrid._trusted(g.k, _orbit_reps(g.k, [g.cells], symmetry)[0])


def orbit_count(solutions: Iterable[DigitGrid], symmetry: str) -> int:
    """Number of distinct orbits in a complete raw solution set of one k."""
    sols = list(solutions)
    ks = {g.k for g in sols}
    if len(ks) > 1:
        raise DomainError(f"solutions mix alphabet sizes {sorted(ks)}")
    # no grids have no orbits, whatever their k
    return len(_orbit_reps(min(ks, default=2), {g.cells for g in sols},
                           symmetry))


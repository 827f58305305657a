"""Exhaustive enumeration of k-de Bruijn L-arrays by pruned backtracking.

Cells are assigned in row-major order.  The moment the last-assigned cell of
an L window is placed, the window's filling is claimed in a k^3-entry ledger;
a second claim of the same filling prunes the branch on the spot.  Branching
digits ascend, so the direct search streams solutions in lexicographic order
of their serialized form.

Complete enumerations additionally exploit two free group actions on the
solution set.  Translations act freely (a translation-invariant grid would
repeat a filling) and so do digit relabelings (every digit occurs in a valid
array), and the all-zeros L filling occurs at exactly one anchor.  Searching
only normal forms - (0,0,0) pinned at anchor (0,0), nonzero digits first
appearing in ascending order - and expanding each hit by all k*k^2
translations and (k-1)! zero-fixing relabelings therefore recovers every raw
solution exactly once, at roughly 1/(k^3 * (k-1)!) of the search cost.

The search can be sharded on assignments to a prefix of the first row; shards
are independent and merged in prefix order, so the output is identical for
any worker count.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterable, Optional

from .construct import construct_l_array
from .errors import BudgetError, DomainError, IncompleteSearchError
from .grid import DigitGrid
from .verify import verify_l_array

SYMMETRIES = ("none", "translations", "translations+relabel")


@dataclass(frozen=True)
class SearchConfig:
    k: int
    symmetry: str = "none"
    limit: Optional[int] = None
    time_budget: Optional[float] = None  # seconds
    count_only: bool = False

    def __post_init__(self):
        if self.k < 2:
            raise DomainError(f"alphabet size must be >= 2, got {self.k}")
        if self.symmetry not in SYMMETRIES:
            raise DomainError(f"unknown symmetry {self.symmetry!r}")
        if self.limit is not None and self.limit <= 0:
            raise DomainError("limit must be positive")
        if self.time_budget is not None and self.time_budget <= 0:
            raise DomainError("time budget must be positive")


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


def _completion_plan(k: int) -> list[list[tuple[int, int, int]]]:
    """For each flat cell index p (row-major), the L windows whose three cells
    all become known once p is assigned, as (a, b, d) flat cell indices."""
    k2 = k * k
    ncells = k * k2
    plan: list[list[tuple[int, int, int]]] = [[] for _ in range(ncells)]
    for r in range(k):
        for j in range(k2):
            a = r * k2 + j
            b = ((r + 1) % k) * k2 + j
            d = ((r + 1) % k) * k2 + (j + 1) % k2
            plan[max(a, b, d)].append((a, b, d))
    return plan


def _guide_target(k: int) -> tuple[int, ...]:
    """The closed-form construction, mapped into search normal form.

    Branch ordering only: trying this known solution's digit first at every
    cell steers the depth-first walk straight to one full solution before any
    backtracking, so even a tightly time-budgeted run emits verified
    solutions.  The explored set is unchanged - ordering is not pruning.
    """
    g = construct_l_array(k)
    # the construction's (0,0,0)-filled L sits at anchor (k-1, 0); one row
    # shift moves it to anchor (0, 0), where normal forms pin it
    rows = g.rows[-1:] + g.rows[:-1]
    flat = [v for row in rows for v in row]
    perm: dict[int, int] = {}
    for v in flat:
        if v not in perm:
            perm[v] = len(perm)
    return tuple(perm[v] for v in flat)


def _search_shard(k: int,
                  prefix: tuple[int, ...],
                  limit: Optional[int],
                  deadline: Optional[float],
                  canonical: bool = False,
                  target: Optional[tuple[int, ...]] = None,
                  shared: int = 0,
                  ) -> tuple[list[tuple[int, ...]], int, bool]:
    """Exhaust one shard (cells 0..len(prefix)-1 fixed).

    Returns (solutions as flat digit tuples, nodes visited, finished);
    finished is False when a limit or deadline cut the shard short.  The
    first `shared` prefix cells are not counted as nodes: another shard
    with the same leading cells has counted them already.
    """
    k2 = k * k
    ncells = k * k2
    plan = _completion_plan(k)
    # cells forced to 0 in canonical mode: the cells of the (0,0,0) L
    pinned = {0, k2, k2 + 1} if canonical else ()
    vals = [0] * ncells
    used = bytearray(k ** 3)
    # Each horizontal pair value (b, d) combines with exactly k distinct top
    # digits, so it appears exactly k times among the grid's k^3 adjacent
    # pairs.  For rows >= 1 the window ledger enforces this bound at the same
    # depth, but the windows over row 0's pairs only close in the last row;
    # counting row 0's pairs directly prunes hopeless first rows on the spot.
    rowpairs = bytearray(k2)
    nodes = 0
    maxused = 0

    # Claim windows completed inside the prefix; a clash kills the shard.
    for p, digit in enumerate(prefix):
        if p in pinned and digit != 0:
            return [], nodes, True
        if canonical and digit > maxused + 1:
            return [], nodes, True
        maxused = max(maxused, digit)
        vals[p] = digit
        if p >= shared:
            nodes += 1
        if 0 < p < k2:
            pc = vals[p - 1] * k + digit
            if rowpairs[pc] >= k:
                return [], nodes, True
            rowpairs[pc] += 1
            if p == k2 - 1:
                wc = digit * k + vals[0]
                if rowpairs[wc] >= k:
                    return [], nodes, True
                rowpairs[wc] += 1
        for a, b, d in plan[p]:
            code = (vals[a] * k + vals[b]) * k + vals[d]
            if used[code]:
                return [], nodes, True
            used[code] = 1

    solutions: list[tuple[int, ...]] = []
    interrupted = False
    check_every = 16384
    since_check = 0
    # per-cell digit order: the guide target's digit first, rest ascending
    orders = None
    if target is not None:
        orders = [(t,) + tuple(d for d in range(k) if d != t)
                  for t in target]
    # a cell is the a of at most one L, the b of at most one, the d of at
    # most one, so at most 3 windows complete per cell
    assert all(len(cell) <= 3 for cell in plan)

    def dfs(p: int, maxu: int) -> bool:
        """Returns False when a limit or deadline interrupted the search."""
        nonlocal nodes, interrupted, since_check
        if p == ncells:
            solutions.append(tuple(vals))
            return not (limit is not None and len(solutions) >= limit)
        if deadline is not None:
            since_check += 1
            if since_check >= check_every:
                since_check = 0
                if time.monotonic() > deadline:
                    interrupted = True
                    return False
        if p in pinned:
            top = 1
        elif canonical:
            top = min(k, maxu + 2)
        else:
            top = k
        ent = plan[p]
        ne = len(ent)
        if ne:
            a0, b0, d0 = ent[0]
            if ne > 1:
                a1, b1, d1 = ent[1]
            if ne > 2:
                a2, b2, d2 = ent[2]
        for digit in (orders[p] if orders is not None else range(top)):
            if digit >= top:
                continue
            nodes += 1
            vals[p] = digit
            nmaxu = maxu if digit <= maxu else digit
            if ne == 0:
                # cells completing no window: all of row 0, plus column 0 of
                # middle rows; only row 0 gets the adjacent-pair bound
                if p == 0 or p >= k2:
                    if not dfs(p + 1, nmaxu):
                        return False
                    continue
                pc = vals[p - 1] * k + digit
                if p != k2 - 1:
                    if rowpairs[pc] >= k:
                        continue
                    rowpairs[pc] += 1
                    deeper = dfs(p + 1, nmaxu)
                    rowpairs[pc] -= 1
                else:
                    wc = digit * k + vals[0]
                    if pc == wc:
                        if rowpairs[pc] + 2 > k:
                            continue
                        rowpairs[pc] += 2
                        deeper = dfs(p + 1, nmaxu)
                        rowpairs[pc] -= 2
                    else:
                        if rowpairs[pc] >= k or rowpairs[wc] >= k:
                            continue
                        rowpairs[pc] += 1
                        rowpairs[wc] += 1
                        deeper = dfs(p + 1, nmaxu)
                        rowpairs[pc] -= 1
                        rowpairs[wc] -= 1
                if not deeper:
                    return False
                continue
            c0 = (vals[a0] * k + vals[b0]) * k + vals[d0]
            if used[c0]:
                continue
            if ne == 1:
                used[c0] = 1
                deeper = dfs(p + 1, nmaxu)
                used[c0] = 0
            else:
                c1 = (vals[a1] * k + vals[b1]) * k + vals[d1]
                if c1 == c0 or used[c1]:
                    continue
                if ne == 2:
                    used[c0] = used[c1] = 1
                    deeper = dfs(p + 1, nmaxu)
                    used[c0] = used[c1] = 0
                else:
                    c2 = (vals[a2] * k + vals[b2]) * k + vals[d2]
                    if c2 == c0 or c2 == c1 or used[c2]:
                        continue
                    used[c0] = used[c1] = used[c2] = 1
                    deeper = dfs(p + 1, nmaxu)
                    used[c0] = used[c1] = used[c2] = 0
            if not deeper:
                return False
        return True

    finished = dfs(len(prefix), maxused)
    return solutions, nodes, finished and not interrupted


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
                  zero_fixing_perms: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """All k*k^2*(k-1)! raw solutions generated by one canonical solution."""
    out = []
    for perm in zero_fixing_perms:
        relabeled = tuple(perm[v] for v in flat)
        for mp in maps:
            out.append(tuple(relabeled[i] for i in mp))
    return out


def _zero_fixing_perms(k: int) -> list[tuple[int, ...]]:
    return [p for p in permutations(range(k)) if p[0] == 0]


def _translation_canonical(flat: tuple[int, ...],
                           maps: list[tuple[int, ...]]) -> tuple[int, ...]:
    return min(tuple(flat[i] for i in mp) for mp in maps)


def _relabel_canonical(flat: tuple[int, ...], maps: list[tuple[int, ...]],
                       perms: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Least image of flat under every translation and digit relabeling."""
    return min(_translation_canonical(tuple(perm[v] for v in flat), maps)
               for perm in perms)


def _orbit_reps(k: int, flats: Iterable[tuple[int, ...]],
                symmetry: str) -> list[tuple[int, ...]]:
    """Distinct canonical orbit representatives, as sorted flat tuples.

    Reduces under translations first; the relabel stage then only touches
    one representative per translation orbit, which keeps the combined
    quotient tractable for six-digit-figure raw sets.
    """
    flats = set(flats)
    if symmetry == "none":
        return sorted(flats)
    maps = _translation_maps(k)
    tcanon = {_translation_canonical(f, maps) for f in flats}
    if symmetry == "translations":
        return sorted(tcanon)
    perms = list(permutations(range(k)))
    return sorted({_relabel_canonical(f, maps, perms) for f in tcanon})


def _to_grid(k: int, flat: tuple[int, ...]) -> DigitGrid:
    k2 = k * k
    return DigitGrid._trusted(k, tuple(flat[r * k2:(r + 1) * k2]
                                       for r in range(k)))


def _shard_prefixes(k: int, workers: int, canonical: bool) -> list[tuple[int, ...]]:
    """Prefixes over the first row, long enough to feed every worker."""
    if workers <= 1:
        return [()]
    depth = 1
    while k ** depth < 4 * workers and depth < k * k:
        depth += 1
    if not canonical:
        return [tuple(p) for p in product(range(k), repeat=depth)]
    # cell 0 is pinned to 0; remaining digits obey the first-occurrence cap
    prefixes = []
    for rest in product(range(k), repeat=depth - 1):
        mu = 0
        for d in rest:
            if d > mu + 1:
                break
            mu = max(mu, d)
        else:
            prefixes.append((0,) + rest)
    return prefixes or [()]


def _run_shards(k: int, prefixes, limit, deadline, canonical, workers,
                target=None):
    sols: list[tuple[int, ...]] = []
    nodes = 0
    finished = True
    if target is not None:
        # visit the shard holding the guide target first so budgeted runs
        # reach a solution before the budget can expire (stable, so the
        # remaining shard order - and hence the merged output - is unchanged)
        prefixes = sorted(prefixes,
                          key=lambda pre: pre != tuple(target[:len(pre)]))
    # count each prefix-tree node once: a shard skips the leading cells it
    # shares with a shard earlier in the list
    seen = {()}
    shared = []
    for pre in prefixes:
        shared.append(max(i for i in range(len(pre) + 1) if pre[:i] in seen))
        seen.update(pre[:i] for i in range(1, len(pre) + 1))
    if len(prefixes) == 1 or workers <= 1:
        for pre, sh in zip(prefixes, shared):
            s, n, done = _search_shard(k, pre, limit, deadline, canonical,
                                       target, sh)
            sols.extend(s)
            nodes += n
            finished = finished and done
            if limit is not None and len(sols) >= limit:
                break
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_search_shard, k, pre, limit, deadline,
                                   canonical, target, sh)
                       for pre, sh in zip(prefixes, shared)]
            for fut in futures:
                s, n, done = fut.result()
                nodes += n
                finished = finished and done
                sols.extend(s)
    return sols, nodes, finished


def enumerate_l_arrays(cfg: SearchConfig,
                       workers: int = 1) -> tuple[list[DigitGrid], SearchReport]:
    """Enumerate every k-de Bruijn L-array (up to the configured quotient).

    Returns the ordered solution list and a report.  With symmetry != none
    the list holds one canonical representative per orbit.  Output is
    identical for any worker count.

    Complete runs go through the normal-form search plus orbit expansion;
    runs bounded by a solution limit fall back to the direct lexicographic
    stream so the first solutions appear without exhausting the space.
    """
    start = time.monotonic()
    deadline = start + cfg.time_budget if cfg.time_budget is not None else None
    k = cfg.k
    use_canonical = cfg.limit is None
    prefixes = _shard_prefixes(k, workers, use_canonical)

    raw_count: int
    out_flats: list[tuple[int, ...]]
    if use_canonical:
        canon_flats, nodes, complete = _run_shards(
            k, prefixes, None, deadline, True, workers,
            target=_guide_target(k))
        maps = _translation_maps(k)
        perms = _zero_fixing_perms(k)
        raw_count = len(canon_flats) * len(maps) * len(perms)
        if cfg.symmetry == "none":
            out_flats = []
            if not cfg.count_only:
                for flat in canon_flats:
                    out_flats.extend(_expand_orbit(k, flat, maps, perms))
                out_flats.sort()
        else:
            seeds = canon_flats
            if cfg.symmetry == "translations":
                # relabel images seed distinct translation orbits
                seeds = [tuple(perm[v] for v in f)
                         for f in canon_flats for perm in perms]
            out_flats = _orbit_reps(k, seeds, cfg.symmetry)
    else:
        raw, nodes, finished = _run_shards(
            k, prefixes, cfg.limit, deadline, False, workers)
        raw.sort()
        if len(raw) > cfg.limit:
            raw = raw[:cfg.limit]
        complete = finished and len(raw) < cfg.limit
        raw_count = len(raw)
        out_flats = (raw if cfg.symmetry == "none"
                     else _orbit_reps(k, raw, cfg.symmetry))
    orbits = None
    if complete:
        orbits = raw_count if cfg.symmetry == "none" else len(out_flats)

    grids = [] if cfg.count_only else [_to_grid(k, f) for f in out_flats]
    report = SearchReport(raw_count=raw_count, orbit_count=orbits,
                          nodes_visited=nodes, complete=complete,
                          elapsed=time.monotonic() - start)
    return grids, report


def brute_filter(k: int) -> tuple[list[DigitGrid], SearchReport]:
    """Ground-truth oracle: test every possible k x k^2 grid.

    Only k=2 (2^8 = 256 grids) is within budget; k=3 would be 3^27 grids.
    """
    if k != 2:
        raise BudgetError(f"brute filter supports k=2 only (k={k} is 3^27+ grids)")
    start = time.monotonic()
    k2 = k * k
    solutions = []
    tried = 0
    for flat in product(range(k), repeat=k * k2):
        tried += 1
        g = DigitGrid(k, (flat[r * k2:(r + 1) * k2] for r in range(k)))
        if verify_l_array(g).valid:
            solutions.append(g)
    report = SearchReport(raw_count=len(solutions), orbit_count=len(solutions),
                          nodes_visited=tried, complete=True,
                          elapsed=time.monotonic() - start)
    return solutions, report


def canonicalize(g: DigitGrid, symmetry: str) -> DigitGrid:
    """Lexicographically least grid in the orbit of g under the chosen group."""
    if symmetry == "none":
        return g
    if symmetry not in SYMMETRIES:
        raise DomainError(f"unknown symmetry {symmetry!r}")
    k = g.k
    flat = tuple(v for row in g.rows for v in row)
    maps = _translation_maps(k)
    if symmetry == "translations":
        best = _translation_canonical(flat, maps)
    else:
        best = _relabel_canonical(flat, maps, list(permutations(range(k))))
    return _to_grid(k, best)


def orbit_count(solutions: Iterable[DigitGrid], symmetry: str,
                complete: bool = True) -> int:
    """Number of distinct orbits in a complete raw solution set."""
    if not complete:
        raise IncompleteSearchError(
            "orbit counting needs a complete solution set; this one was truncated")
    sols = list(solutions)
    if not sols:
        return 0
    flats = [tuple(v for row in g.rows for v in row) for g in sols]
    return len(_orbit_reps(sols[0].k, flats, symmetry))


def default_workers() -> int:
    """Worker count from DEBRUIJN_ARRAYS_WORKERS, defaulting to 1."""
    try:
        return max(1, int(os.environ.get("DEBRUIJN_ARRAYS_WORKERS", "1")))
    except ValueError:
        return 1

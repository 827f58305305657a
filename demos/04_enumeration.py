"""Exhaustively enumerating k-de Bruijn L-arrays, with symmetry quotients.

The search assigns grid cells one at a time and prunes the moment any L
filling repeats.  Complete runs are accelerated by searching only normal
forms under the free translation and digit-relabeling actions, column by
column, then expanding each normal form back to its full orbit, so the
output is exactly the set a naive search would produce.

For k=2 the result is checked against a literal filter over all 256 grids.
For k=3 this demo shows the first solutions of the first orbit the search
finds, as a solution limit selects them; for k=4 it shows a time-budgeted
partial run that still emits verified solutions plus an honest
complete=False report.
"""

import json

from debruijn_arrays import (SearchConfig, brute_filter, enumerate_l_arrays,
                             orbit_count, verify_l_array)


def main() -> None:
    # k=2: complete enumeration, cross-checked against brute force.
    sols, report = enumerate_l_arrays(SearchConfig(k=2))
    brute, _ = brute_filter(2)
    assert sols == brute
    print(f"k=2: {report.raw_count} L-arrays "
          f"({report.nodes_visited} search nodes, brute force agrees)")
    print(f"  orbits under translations: {orbit_count(sols, 'translations')}")
    print(f"  orbits under translations+relabel: "
          f"{orbit_count(sols, 'translations+relabel')}")
    print("  the two translation classes:")
    reps, _ = enumerate_l_arrays(SearchConfig(k=2, symmetry="translations"))
    for g in reps:
        print("    " + " | ".join(" ".join(map(str, row)) for row in g.rows))

    # k=3: just the first few solutions of the first orbit found.
    sols, report = enumerate_l_arrays(SearchConfig(k=3, limit=3))
    print(f"\nk=3: first {len(sols)} solutions "
          f"(complete={report.complete}); all verify:",
          all(verify_l_array(g).valid for g in sols))
    print(sols[0].to_text())

    # k=4: the space is far too large to exhaust; a run cut by its time
    # budget emits the closed-form construction's orbit, clearly flagged as
    # a partial result.
    sols, report = enumerate_l_arrays(SearchConfig(k=4, time_budget=20.0))
    print(f"k=4 with a 20 s budget: {len(sols)} verified solutions, report:")
    print(json.dumps(report.to_json_dict(), indent=2))
    assert all(verify_l_array(g).valid for g in sols)


if __name__ == "__main__":
    main()

"""Regenerate the orbits-k3 fixture: the 1 250 full-orbit k=3 representatives.

Usage, from the repository root:

    python3 perfbench/make_fixture.py

It runs the public normal-form search with symmetry "translations+relabel"
and writes one grid per block in the CLI's text format, blank-line separated,
to perfbench/fixtures/k3_full_orbit_reps.txt.  The benchmark's orbits-k3
set-up expands these back to the 198 288 raw grids.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "k3_full_orbit_reps.txt"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from debruijn_arrays import SearchConfig, enumerate_l_arrays

    reps, report = enumerate_l_arrays(
        SearchConfig(k=3, symmetry="translations+relabel"))
    if not report.complete or len(reps) != 1250:
        print(f"error: expected 1250 complete reps, got {len(reps)} "
              f"(complete={report.complete})", file=sys.stderr)
        return 1
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text("\n".join(g.to_text() for g in reps), encoding="utf-8")
    print(f"wrote {len(reps)} reps to {FIXTURE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads: set-up, one timed round, and the checks on its outputs.

Each workload is a closed loop from one benchmark process: one operation at a
time, one client.  A round is the workload's fixed list of operations; a run
repeats rounds until its time is up.  Every round's outputs are checked
against ground truth after the round's timer stops, and any mismatch counts
as a failed operation.

CLI operations run as children of the benchmark process (see proc.py).  The
traced run instead calls `cli.main(argv)` in-process, so spans can be
recorded; its untraced twin runs the very same in-process calls for the
overhead ratio.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import permutations
from math import factorial
from pathlib import Path
from statistics import median

from proc import MEMORY_CAP_MB, ChildResult, run_cli

from debruijn_arrays import cli, grid, search, verify

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "fixtures" / "k3_full_orbit_reps.txt"

# Ground truth for k=3 (the paper's exhaustive counts).
K3_RAW = 198_288
K3_TRANSLATION_ORBITS = 7_344
K3_FULL_ORBITS = 1_250
# sha256 of `enumerate --k 3` stdout; identical for every worker count.
ENUM_K3_SHA256 = "5d0c90dd0c5fe5d5d62486174a65390ff81199901a74f8dc5fb806f99b23616e"
ENUM_TIMEOUT_S = 60.0

BUDGET_S = 2.0
BUDGET_KS = (4, 5, 6)
# Known defects of the budgeted path, probed once per run under the memory
# cap: k=10 overflows the recursive DFS, k=9 expands ~29 M grids.
DEFECT_PROBES = ((9, 1.0), (10, 1.0))
CHILD_TIMEOUT_S = 30.0

CLOSED_FORM_KS = (2, 3, 4, 5, 7, 8, 12, 16, 24, 32, 48, 64)
# One mutant per size each round; the seed picks the cell and the new digit.
MUTANT_KS = (5, 16, 48)
SEQ_K, SEQ_N = 2, 16

CANON_SAMPLE = 1000
VERIFY_SAMPLE = 100


def plain_call(name, fn, *args, **kwargs):
    """Stand-in for Tracer.call when nothing is traced."""
    return fn(*args, **kwargs)


def cli_in_process(argv: list, stdin_text: str = "", call=plain_call):
    """Run cli.main(argv) in this process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = call("cli.main", cli.main, [str(a) for a in argv])
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def child_executor(run, timeout_s: float):
    """execute(argv, stdin) for a round's operations, each a CLI child;
    returns (exit code, stdout, stderr, wall, first stdout byte)."""
    def execute(argv, stdin=""):
        res = run_cli(run.root, argv, stdin.encode(), timeout_s=timeout_s)
        run.child(res)
        return (res.exit_code, res.stdout.decode("utf-8", "replace"),
                res.stderr.decode("utf-8", "replace"), res.wall_s, res.first_byte_s)
    return execute


def inproc_executor(call):
    """execute(argv, stdin) for the traced run: cli.main in this process."""
    def execute(argv, stdin=""):
        t = time.perf_counter()
        code, out, err = cli_in_process(argv, stdin, call)
        return code, out, err, time.perf_counter() - t, None
    return execute


def last_json_line(text: str):
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def grid_blocks(stdout: str) -> list[str]:
    """Split `enumerate` text output into one text block per grid."""
    return [b.strip() for b in stdout.split("\n\n") if b.strip()]


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Run:
    """One benchmark run: its seed, operation tally and metric samples."""

    def __init__(self, root: Path, seed: int, rng):
        self.root = root
        self.seed = seed
        self.rng = rng
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.notes: list[str] = []
        self.rss_mb = 0.0

    def op(self, ok: bool, what: str):
        self.ops(1, int(not ok), what)

    def ops(self, n: int, bad: int, what: str):
        """n operations, of which bad failed."""
        self.attempted += n
        self.failed += bad
        if bad and len(self.failures) < 20:
            self.failures.append(what)

    def sample(self, name: str, value: float):
        self.samples.setdefault(name, []).append(value)

    def child(self, res: ChildResult):
        self.rss_mb = max(self.rss_mb, res.max_rss_mb)

    def verify_sample(self, blocks: list[str], n: int) -> bool:
        """A seeded sample of grid text blocks must parse and verify."""
        for block in self.rng.sample(blocks, min(n, len(blocks))):
            try:
                g = grid.DigitGrid.from_text(block)
            except ValueError:
                return False
            if not verify.verify_l_array(g).valid:
                return False
        return True


class Workload:
    name = ""

    def setup(self, run: Run):
        """Work done before the first timed operation; returns the state."""
        return None

    def round(self, run: Run, state):
        """One timed round of operations, then its checks; returns its wall."""
        raise NotImplementedError

    def finish(self, run: Run, state):
        """Untimed work after the last round (defect probes)."""

    def metrics(self, run: Run) -> dict:
        """End-to-end metric name -> samples (or one value)."""
        raise NotImplementedError

    def inproc_round(self, run: Run, state, call):
        """The traced run's operations, in-process; returns its wall and a
        callable that checks their outputs (run after tracing stops)."""
        raise NotImplementedError

    def trace_extras(self, run: Run, state, tracer):
        """Traced-only work that has no untraced twin (the shard replay)."""


# -- enum-k3 ----------------------------------------------------------------

class EnumK3(Workload):
    name = "enum-k3"

    def setup(self, run):
        parallel = (os.cpu_count() or 1) >= 2
        if not parallel:
            run.notes.append("nproc < 2: enum_par_s and parallel_efficiency "
                             "left out rather than oversubscribe")
        return {"parallel": parallel}

    def _ops(self, workers, execute):
        return [(w, execute(["enumerate", "--k", 3, "--workers", w])) for w in workers]

    def _check(self, run, calls):
        for w, (code, out, err, _, _) in calls:
            report = last_json_line(err)
            ok = (code == 0 and report is not None
                  and report.get("raw_count") == K3_RAW
                  and report.get("complete") is True
                  and hashlib.sha256(out.encode()).hexdigest() == ENUM_K3_SHA256)
            if ok:
                ok = run.verify_sample(grid_blocks(out), VERIFY_SAMPLE)
            run.op(ok, f"enumerate --k 3 --workers {w}: exit {code} {err.strip()[-80:]}")
            if report is not None:
                run.sample(f"nodes workers={w}", report.get("nodes_visited", 0))

    def round(self, run, state):
        workers = (1, 2) if state["parallel"] else (1,)
        t0 = time.perf_counter()
        calls = self._ops(workers, child_executor(run, ENUM_TIMEOUT_S))
        wall = time.perf_counter() - t0

        _, (_, _, _, serial_s, first) = calls[0]
        run.sample("enum_s", serial_s)
        run.sample("first_grid_s", first or serial_s)
        run.sample("grids_per_s", K3_RAW / serial_s)
        if len(calls) > 1:
            par_s = calls[1][1][3]
            run.sample("enum_par_s", par_s)
            run.sample("parallel_efficiency", serial_s / (2 * par_s))
        self._check(run, calls)
        return wall

    def metrics(self, run):
        s = run.samples
        return {"first_output_s": s["first_grid_s"],
                "items_per_s": s["grids_per_s"],
                "peak_rss_mb": run.rss_mb}

    def inproc_round(self, run, state, call):
        t0 = time.perf_counter()
        calls = self._ops((1,), inproc_executor(call))
        wall = time.perf_counter() - t0
        return wall, lambda: self._check(run, calls)

    def trace_extras(self, run, state, tracer):
        # Replay the workers=2 shards serially, so per-shard work shows
        # without pool noise.
        try:
            prefixes = search._shard_prefixes(3, 2, True)
            target = search._guide_target(3)
        except AttributeError as exc:
            tracer.missing.append(f"shard replay: {exc}")
            return

        def replay():
            for pre in prefixes:
                _, nodes, _ = search._search_shard(3, pre, None, None, True, target)
                tracer.counts["search.replay_shards"] += 1
                tracer.counts["search.replay_nodes"] += nodes
        tracer.call("bench.shard_replay", replay)


# -- orbits-k3 --------------------------------------------------------------

def _translation_maps(k: int) -> list[tuple[int, ...]]:
    k2 = k * k
    return [tuple(((r - dr) % k) * k2 + (j - dj) % k2
                  for r in range(k) for j in range(k2))
            for dr in range(k) for dj in range(k2)]


def load_k3_raw(rng):
    """Expand the fixture's 1 250 reps into the shuffled raw k=3 set."""
    reps, flats = set(), set()
    maps = _translation_maps(3)
    perms = list(permutations(range(3)))
    for block in grid_blocks(FIXTURE.read_text(encoding="utf-8")):
        k, rows = grid.parse_grid_text(block)
        rep = grid.DigitGrid(k, rows)
        reps.add(rep.rows)
        flat = [v for row in rep.rows for v in row]
        for perm in perms:
            relabeled = [perm[v] for v in flat]
            for mp in maps:
                flats.add(tuple(relabeled[i] for i in mp))
    if len(reps) != K3_FULL_ORBITS or len(flats) != K3_RAW:
        raise RuntimeError(f"fixture expands to {len(reps)} reps and "
                           f"{len(flats)} grids, expected {K3_FULL_ORBITS} "
                           f"and {K3_RAW}")
    grids = [grid.DigitGrid(3, (f[0:9], f[9:18], f[18:27])) for f in sorted(flats)]
    rng.shuffle(grids)
    return {"grids": grids, "reps": reps}


class OrbitsK3(Workload):
    name = "orbits-k3"

    def setup(self, run):
        return load_k3_raw(run.rng)

    def _pass(self, run, state, call):
        grids = state["grids"]
        sample = run.rng.sample(grids, CANON_SAMPLE)
        t0 = time.perf_counter()
        translations = call("bench.orbit_count", search.orbit_count,
                            grids, "translations")
        t1 = time.perf_counter()
        full = call("bench.orbit_count", search.orbit_count,
                    grids, "translations+relabel")
        t2 = time.perf_counter()
        canon = [search.canonicalize(g, "translations+relabel") for g in sample]
        t3 = time.perf_counter()
        windows = invalid = 0
        for g in grids:
            report = verify.verify_l_array(g)
            windows += report.positions_checked
            invalid += not report.valid
        t4 = time.perf_counter()

        run.op(translations == K3_TRANSLATION_ORBITS,
               f"orbit_count translations = {translations}")
        run.op(full == K3_FULL_ORBITS, f"orbit_count translations+relabel = {full}")
        bad = sum(c.rows not in state["reps"] for c in canon)
        run.ops(len(canon), bad, f"{bad} canonical forms are not fixture reps")
        if windows != 27 * len(grids):
            invalid = max(invalid, 1)
        run.ops(len(grids), invalid,
                f"verify_l_array: {invalid} invalid, {windows} windows")
        return t4 - t0, t1 - t0, t2 - t0, t3 - t2, windows / (t4 - t3)

    def round(self, run, state):
        wall, first, orbit_s, canon_s, wps = self._pass(run, state, plain_call)
        run.sample("first_result_s", first)
        run.sample("orbit_count_s", orbit_s)
        run.sample("canonicalize_s", canon_s)
        run.sample("verify_windows_per_s", wps)
        run.rss_mb = self_rss_mb()
        return wall

    def metrics(self, run):
        s = run.samples
        return {"first_output_s": s["first_result_s"],
                "items_per_s": s["verify_windows_per_s"],
                "peak_rss_mb": run.rss_mb}

    def inproc_round(self, run, state, call):
        return self._pass(run, state, call)[0], lambda: None


# -- budgeted ---------------------------------------------------------------

class Budgeted(Workload):
    name = "budgeted"

    def _ops(self, execute):
        return [(k, execute(["enumerate", "--k", k, "--time-budget", BUDGET_S]))
                for k in BUDGET_KS]

    def _check(self, run, calls):
        """Check each K's output; returns the grids each emitted."""
        emitted = []
        for k, (code, out, err, _, _) in calls:
            report = last_json_line(err)
            blocks = grid_blocks(out)
            orbit = k ** 3 * factorial(k - 1)
            ok = (code == 3 and report is not None and report.get("complete") is False
                  and len(blocks) >= orbit and len(blocks) % orbit == 0
                  and len(set(blocks)) == len(blocks))
            if ok:
                ok = run.verify_sample(blocks, 20)
            run.op(ok, f"enumerate --k {k} --time-budget {BUDGET_S}: exit {code}, "
                       f"{len(blocks)} grids")
            emitted.append(len(blocks))
        return emitted

    def round(self, run, state):
        t0 = time.perf_counter()
        calls = self._ops(child_executor(run, CHILD_TIMEOUT_S))
        wall = time.perf_counter() - t0
        emitted = self._check(run, calls)
        walls = [c[3] for _, c in calls]
        for k, n, w in zip(BUDGET_KS, emitted, walls):
            run.sample(f"grids k={k}", n)
            run.sample(f"wall k={k}", w)
        run.sample("first_grid_s", max(c[4] or c[3] for _, c in calls))
        run.sample("budget_ratio", max(walls) / BUDGET_S)
        run.sample("grids_per_s", sum(emitted) / sum(walls))
        return wall

    def finish(self, run, state):
        for k, budget in DEFECT_PROBES:
            res = run_cli(run.root, ["enumerate", "--k", k, "--time-budget", budget],
                          timeout_s=CHILD_TIMEOUT_S)
            over = res.max_rss_mb > MEMORY_CAP_MB
            outcome = ("ok" if res.exit_code == 3 else
                       f"failed: exit {res.exit_code}, {res.cause()}")
            run.notes.append(
                f"defect probe enumerate --k {k} --time-budget {budget}: {outcome} "
                f"after {res.wall_s:.2f} s, max RSS {res.max_rss_mb:.0f} MB "
                f"(cap {MEMORY_CAP_MB} MB{', EXCEEDED' if over else ''})")

    def metrics(self, run):
        s = run.samples
        return {"first_output_s": s["first_grid_s"],
                "items_per_s": s["grids_per_s"],
                "peak_rss_mb": run.rss_mb}

    def inproc_round(self, run, state, call):
        t0 = time.perf_counter()
        calls = self._ops(inproc_executor(call))
        wall = time.perf_counter() - t0
        return wall, lambda: self._check(run, calls)


# -- closed-forms -----------------------------------------------------------

def construct_text(k: int) -> str:
    """The (s + r*c) mod k grid in the CLI's text format, from the formula."""
    rows = [" ".join(str((s + r * c) % k) for s in range(k) for c in range(k))
            for r in range(k)]
    return f"{k}\n" + "\n".join(rows) + "\n"


def l_defects(rows: list[list[int]], k: int):
    """(missing, duplicated) L fillings of a k x k^2 grid, counted directly."""
    k2 = k * k
    seen: dict[tuple, int] = {}
    for r in range(k):
        top, below = rows[r], rows[(r + 1) % k]
        for j in range(k2):
            f = (top[j], below[j], below[(j + 1) % k2])
            seen[f] = seen.get(f, 0) + 1
    missing = {(a, b, d) for a in range(k) for b in range(k) for d in range(k)
               if (a, b, d) not in seen}
    duplicated = {(f, c) for f, c in seen.items() if c >= 2}
    return missing, duplicated


def de_bruijn_word_ok(word: str, k: int, n: int) -> bool:
    """Every length-n window of the cyclic word occurs once (independent check)."""
    if len(word) != k ** n or set(word) - set("0123456789"[:k]):
        return False
    ext = word + word[:n - 1]
    return len({ext[i:i + n] for i in range(len(word))}) == len(word)


class ClosedForms(Workload):
    name = "closed-forms"

    def setup(self, run):
        return {"texts": {k: construct_text(k) for k in CLOSED_FORM_KS},
                "windows": 0, "verify_ops": [], "walls": {}, "first_bytes": {}}

    def _mutants(self, run, state):
        """Seeded single-cell mutants: (k, text, expected missing, duplicated)."""
        out = []
        for k in MUTANT_KS:
            lines = state["texts"][k].splitlines()
            rows = [[int(t) for t in line.split()] for line in lines[1:]]
            r, j = run.rng.randrange(k), run.rng.randrange(k * k)
            rows[r][j] = (rows[r][j] + run.rng.randrange(1, k)) % k
            text = f"{k}\n" + "\n".join(" ".join(map(str, row)) for row in rows) + "\n"
            out.append((k, text) + l_defects(rows, k))
        return out

    def _ops(self, run, state, mutants, execute):
        """The round's operations; execute(argv, stdin) -> (code, out, err, wall, first)."""
        calls = []
        for k in CLOSED_FORM_KS:
            c = execute(["construct", "--k", k], "")
            calls.append(("construct", k, c))
            calls.append(("verify", k, execute(["verify", "--k", k, "--shape", "l-array"],
                                               c[1])))
        for k, text, _, _ in mutants:
            calls.append(("mutant", k, execute(["verify", "--k", k, "--shape", "l-array"],
                                               text)))
        words = {}
        for method in ("euler", "greedy"):
            s = execute(["sequence", "--k", SEQ_K, "--n", SEQ_N, "--method", method], "")
            words[method] = s[1]
            calls.append(("sequence", method, s))
            calls.append(("verify-seq", method,
                          execute(["verify", "--k", SEQ_K, "--shape", "sequence", SEQ_N],
                                  s[1])))
        torus = f"{SEQ_K}\n" + " ".join(words["euler"].strip()) + "\n"
        calls.append(("verify-torus", "euler",
                      execute(["verify", "--k", SEQ_K, "--shape", "torus", 1, SEQ_N],
                              torus)))
        for k, n in ((3, 2), (2, 6)):
            calls.append(("count", (k, n),
                          execute(["count", "--k", k, "--n", n, "--method", "all"], "")))
        return calls

    def _check(self, run, state, mutants, calls):
        """Check every call; returns (windows verified, the verify calls)."""
        windows, verify_ops = 0, []
        mutant_iter = iter(mutants)
        expected_counts = {(3, 2): "24", (2, 6): "67108864"}
        for kind, arg, (code, out, err, wall, _) in calls:
            report = last_json_line(out) if kind.startswith(("verify", "mutant")) else None
            if report is not None:
                windows += report.get("positions_checked", 0)
                verify_ops.append((kind, arg))
            if kind == "construct":
                ok = code == 0 and out == state["texts"][arg]
            elif kind == "verify":
                ok = (code == 0 and report is not None and report["valid"] is True
                      and report["positions_checked"] == arg ** 3
                      and not report["missing"] and not report["duplicated"])
            elif kind == "mutant":
                _, _, missing, duplicated = next(mutant_iter)
                ok = (code == 1 and report is not None and report["valid"] is False
                      and missing and duplicated
                      and {tuple(f) for f in report["missing"]} == missing
                      and {(tuple(f), c) for f, c in report["duplicated"]} == duplicated)
            elif kind == "sequence":
                ok = code == 0 and de_bruijn_word_ok(out.strip(), SEQ_K, SEQ_N)
            elif kind in ("verify-seq", "verify-torus"):
                ok = (code == 0 and report is not None and report["valid"] is True
                      and report["positions_checked"] == SEQ_K ** SEQ_N)
            else:
                ok = code == 0 and out.strip() == expected_counts[arg]
            run.op(bool(ok), f"{kind} {arg}: exit {code} {err.strip()[-80:]}")
        return windows, verify_ops

    def round(self, run, state):
        mutants = self._mutants(run, state)
        t0 = time.perf_counter()
        calls = self._ops(run, state, mutants, child_executor(run, CHILD_TIMEOUT_S))
        wall = time.perf_counter() - t0
        for kind, arg, (_, _, _, call_s, first) in calls:
            state["walls"].setdefault((kind, arg), []).append(call_s)
            state["first_bytes"].setdefault((kind, arg), []).append(first or call_s)
        # the same calls verify the same windows every round
        state["windows"], state["verify_ops"] = self._check(run, state, mutants, calls)
        return wall

    def metrics(self, run):
        s = run.samples
        return {"first_output_s": s["first_byte_per_call_s"],
                "items_per_s": s["verify_windows_per_s"],
                "peak_rss_mb": run.rss_mb}

    def finish(self, run, state):
        # Per-operation medians over the rounds, so one slow call does not
        # move the run's figure.  Windows a round verifies / seconds its
        # verify calls take:
        verify_s = sum(median(state["walls"][op]) for op in state["verify_ops"])
        run.sample("verify_windows_per_s", state["windows"] / verify_s)
        # The mean first-byte time of a call.  A median pooled over all calls
        # would fall in the gap between the ~50 ms calls and the slower ones
        # and jump with small shifts; this weighs every operation once.
        per_op = [median(v) for v in state["first_bytes"].values()]
        run.sample("first_byte_per_call_s", sum(per_op) / len(per_op))

    def inproc_round(self, run, state, call):
        mutants = self._mutants(run, state)
        t0 = time.perf_counter()
        calls = self._ops(run, state, mutants, inproc_executor(call))
        wall = time.perf_counter() - t0
        return wall, lambda: self._check(run, state, mutants, calls)


WORKLOADS = {w.name: w for w in (EnumK3(), OrbitsK3(), Budgeted(), ClosedForms())}


def summary(values) -> str:
    """Median, the highest percentile with >= 10 samples beyond it, and n."""
    vals = sorted(values)
    n = len(vals)
    text = f"median {median(vals):.6g}"
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            text += f", p{q} {vals[min(n - 1, int(n * q / 100))]:.6g}"
            break
    return text + f" (n={n})"

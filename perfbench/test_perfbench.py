"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

test_exact_search_counts_repeat runs the k=3 search three times (~35 s).
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from proc import run_child  # noqa: E402
from tracing import Tracer, install, layer_metrics  # noqa: E402

from debruijn_arrays import DigitGrid, verify_l_array  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_exact_search_counts_repeat():
    """search.nodes and search.normal_forms are exact and repeat run to run."""
    seen = []
    for _ in range(2):
        tracer = Tracer()
        install(tracer)
        try:
            code, _, _ = workloads.cli_in_process(
                ["enumerate", "--k", 3, "--workers", 1], call=tracer.call)
            workloads.EnumK3().trace_extras(None, None, tracer)
        finally:
            tracer.restore()
        assert code == 0
        layers = layer_metrics(tracer, 1.0)
        seen.append((layers["search.nodes"][0], layers["search.normal_forms"][0]))
        # the workers=2 shards sum to one more node than workers=1; recorded
        # as it stands, not gated
        print("workers=2 replay nodes:", tracer.counts["search.replay_nodes"])
    assert seen == [(51_193_772, 3_672)] * 2


def test_fixture_expands_to_the_raw_k3_set():
    state = workloads.load_k3_raw(random.Random(0))
    assert len(state["grids"]) == workloads.K3_RAW
    assert len(state["reps"]) == workloads.K3_FULL_ORBITS


def test_mutant_expectation_matches_library_verifier():
    rng = random.Random(5)
    for k in (2, 3, 5, 8):
        text = workloads.construct_text(k)
        rows = [[int(t) for t in line.split()] for line in text.splitlines()[1:]]
        assert workloads.l_defects(rows, k) == (set(), set())
        r, j = rng.randrange(k), rng.randrange(k * k)
        rows[r][j] = (rows[r][j] + 1) % k
        missing, duplicated = workloads.l_defects(rows, k)
        report = verify_l_array(DigitGrid(k, rows))
        assert missing and duplicated
        assert set(report.missing) == missing
        assert set(report.duplicated) == duplicated


def test_child_timeout_and_memory_cap():
    res = run_child([sys.executable, "-c", "import time; time.sleep(30)"],
                    ROOT, {}, timeout_s=0.5)
    assert res.timed_out and res.wall_s < 5 and res.cause() == "timeout"
    res = run_child([sys.executable, "-c", "bytearray(2 << 30)"], ROOT, {})
    assert res.exit_code == 1 and res.cause() == "MemoryError"


def test_result_line_has_every_end_to_end_metric():
    proc = run_bench(ROOT, "--workload", "closed-forms", "--seed", "3",
                     "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_bare_directory_fails_without_a_result():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench(bare, "--workload", "closed-forms", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)

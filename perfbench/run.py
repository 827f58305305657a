"""The repository's benchmark: one workload per run, or all four.

Run from the repository root:

    python3 perfbench/run.py --workload all               # every workload, every metric
    python3 perfbench/run.py --workload enum-k3 --seed 1 --seconds 20 --trace 0

Workloads: enum-k3, orbits-k3, budgeted, closed-forms (see README.md).
With --trace 0 the end-to-end metrics are measured with nothing traced; with
--trace 1 the workload's operations run in-process, twice plain and once with
spans around each layer, and the per-layer metrics are reported.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("enum-k3", "orbits-k3", "budgeted", "closed-forms")
# A run starts no new round once this many seconds have gone, so it ends
# well inside the 180 s a run may take.
RUN_CAP_S = 120.0
# Set-ups measured per run; the orbits-k3 set-up costs seconds, not ms.
SETUP_REPEATS = {"orbits-k3": 3}
SETUP_REPEATS_DEFAULT = 15

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "first_output_s": "s",
                    "items_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", choices=NAMES, default=None,
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def env_stamp() -> str:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"env git={sha} python={platform.python_version()} "
            f"nproc={os.cpu_count()} loadavg={load}")


def detail_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.startswith("wall"):
        return "s"
    if name.startswith(("grids", "nodes")):
        return "count"
    return "ratio"


def value_of(samples) -> float:
    return median(samples) if isinstance(samples, list) else samples


def measure_setup(name: str, seed: int, n: int) -> list[float]:
    """Launch-to-ready times of n fresh workload processes that only set up."""
    from proc import cli_env, run_child
    times = []
    for _ in range(n):
        res = run_child([sys.executable, str(HERE / "run.py"), "--setup-probe", name,
                         "--seed", str(seed)], ROOT, cli_env(ROOT), timeout_s=60.0)
        if res.exit_code != 0 or res.first_byte_s is None:
            raise RuntimeError(f"set-up probe failed: {res.cause()}: "
                               f"{res.stderr.decode('utf-8', 'replace')[-400:]}")
        times.append(res.first_byte_s)
    return times


def run_untraced(w, run, seconds: float) -> dict:
    from workloads import summary
    n_setup = SETUP_REPEATS.get(w.name, SETUP_REPEATS_DEFAULT)
    setup_times = measure_setup(w.name, run.seed, 1)
    state = w.setup(run)
    walls = []
    t_start = time.perf_counter()
    while True:
        walls.append(w.round(run, state))
        elapsed = time.perf_counter() - t_start
        done = elapsed >= seconds or elapsed + walls[-1] > RUN_CAP_S
        # The set-up probes are spread over the run, between rounds, so a
        # shared host that runs slower for a few seconds moves them no more
        # than it moves the rounds.
        due = n_setup if done else min(n_setup - 1, round(n_setup * elapsed / seconds))
        setup_times += measure_setup(w.name, run.seed, due - len(setup_times))
        if done:
            break
    w.finish(run, state)
    metrics = {"setup_s": setup_times, "wall_s": walls, **w.metrics(run)}
    for name, samples in metrics.items():
        unit = END_TO_END_UNITS[name]
        shown = summary(samples) if isinstance(samples, list) else f"{samples:.6g}"
        print(f"{w.name}  {name:<24} {unit:<6} {shown}")
    for name, samples in sorted(run.samples.items()):
        print(f"{w.name}  {name:<24} {detail_unit(name):<6} {summary(samples)}")
    return {name: {"value": value_of(samples), "unit": END_TO_END_UNITS[name]}
            for name, samples in metrics.items()}


def run_traced(w, run) -> dict:
    from tracing import Tracer, install, layer_metrics
    from workloads import plain_call

    # Two plain passes; the first only warms the process, so the measured
    # plain pass and the traced pass both start from the same warm state.
    for _ in range(2):
        t0 = time.perf_counter()
        state = w.setup(run)
        setup_s = time.perf_counter() - t0
        wall, check = w.inproc_round(run, state, plain_call)
        plain = setup_s + wall
        check()
        del state

    tracer = Tracer()
    install(tracer)
    try:
        t0 = time.perf_counter()
        state = tracer.call("bench.setup", w.setup, run)
        setup_s = time.perf_counter() - t0
        wall, check = w.inproc_round(run, state, tracer.call)
        traced = setup_s + wall
        w.trace_extras(run, state, tracer)
    finally:
        tracer.restore()
    check()
    layers = layer_metrics(tracer, traced / plain)
    out = HERE / "out" / f"trace-{w.name}-seed{run.seed}.json"
    tracer.write(out, {"workload": w.name, "seed": run.seed,
                       "plain_s": plain, "traced_s": traced,
                       "replay_shards": tracer.counts["search.replay_shards"],
                       "replay_nodes": tracer.counts["search.replay_nodes"]})
    for name, (value, unit) in layers.items():
        note = "" if value else "   (not reached by this workload)"
        print(f"{w.name}  {name:<28} {unit:<6} {value:.6g}{note}")
    for name in ("search.replay_shards", "search.replay_nodes"):
        if tracer.counts[name]:
            print(f"{w.name}  {name} (workers=2 shards, not gated) "
                  f"{tracer.counts[name]:.0f}")
    for name in tracer.missing:
        print(f"{w.name}  missing trace target: {name}")
    print(f"{w.name}  spans written to {out.relative_to(ROOT)}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}


def run_all(args) -> int:
    """Run every workload in its own process and print everything."""
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "debruijn_arrays" / "cli.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from workloads import Run

    if args.setup_probe:
        workloads.WORKLOADS[args.setup_probe].setup(
            Run(ROOT, args.seed, random.Random(args.seed)))
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)

    w = workloads.WORKLOADS[args.workload]
    run = Run(ROOT, args.seed, random.Random(args.seed))
    print(env_stamp(), f"workload={w.name} seed={args.seed} trace={args.trace}",
          flush=True)
    if args.trace:
        metrics = run_traced(w, run)
    else:
        metrics = run_untraced(w, run, args.seconds)
    for note in run.notes:
        print(f"{w.name}  note: {note}")
    print(f"{w.name}  {'error_rate':<24} {'ratio':<6} {run.failed / run.attempted:.6g} "
          f"({run.failed}/{run.attempted})")
    for failure in run.failures:
        print(f"{w.name}  FAILED: {failure}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

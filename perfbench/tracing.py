"""Bench-side spans around calls into the library's modules.

Nothing is traced inside the library.  In a traced run the benchmark swaps
selected module functions and `DigitGrid` methods for wrappers that record a
span (name, start, end, parent) and the counts the call returns, then puts
the originals back.  A function is replaced in every `debruijn_arrays`
module that binds it by name, since e.g. `cli.py` imports
`enumerate_l_arrays` directly.  A target that a refactor removed is listed
as missing; the metrics that need it read 0 and the run goes on.

Spans live in flat arrays, so a million leaf calls cost a few tens of MB.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from statistics import mean


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.last_closed = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name; returns fn's result."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start[i] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()
            self.last_closed = i

    def _wrapper(self, name, fn, on_result):
        call = self.call

        def traced(*args, **kwargs):
            result = call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(result, args)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- installing wrappers -------------------------------------------------

    def wrap_function(self, module: str, attr: str, name: str, on_result=None):
        fn = getattr(sys.modules.get(module), attr, None)
        if fn is None:
            self.missing.append(f"{module}.{attr}")
            return
        traced = self._wrapper(name, fn, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "debruijn_arrays":
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, fn))

    def wrap_method(self, cls, attr: str, name: str, on_result=None):
        raw = cls.__dict__.get(attr)
        if raw is None:
            self.missing.append(f"{cls.__module__}.{cls.__name__}.{attr}")
            return
        if isinstance(raw, classmethod):
            traced = classmethod(self._wrapper(name, raw.__func__, on_result))
        else:
            traced = self._wrapper(name, raw, on_result)
        setattr(cls, attr, traced)
        self._undo.append((cls, attr, raw))

    def restore(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.name_of[i]]
            d = self.end[i] - self.start[i]
            calls[name] += 1
            total[name] += d
            own[name] += d - child[i]
        return {name: (calls[name], total[name], own[name]) for name in calls}

    def write(self, path: Path, extra: dict):
        """Per-name totals, plus every span of names called at most 5 000
        times (the per-grid leaf calls are kept as totals only)."""
        totals = self.totals()
        keep = {self._ids[name] for name, (c, _, _) in totals.items() if c <= 5000}
        t0 = self.start[0] if len(self.start) else 0.0
        spans = [{"id": i, "name": self.names[self.name_of[i]],
                  "parent": self.parent[i],
                  "start": self.start[i] - t0, "end": self.end[i] - t0}
                 for i in range(len(self.start)) if self.name_of[i] in keep]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            **extra,
            "missing": self.missing,
            "totals": {name: {"calls": c, "total_s": t, "self_s": s}
                       for name, (c, t, s) in sorted(totals.items())},
            "spans": spans,
        }, indent=1), encoding="utf-8")


# -- what the benchmark traces ----------------------------------------------

def install(tracer: Tracer):
    """Wrap the layer boundaries named in the README's layer table."""
    import debruijn_arrays.cli  # noqa: F401  (so its by-name imports get wrapped)
    from debruijn_arrays.grid import DigitGrid

    counts = tracer.counts

    def run_shards(result, args):
        counts["search.nodes"] += result[1]
        if len(args) > 4 and args[4]:
            counts["search.normal_forms"] += len(result[0])

    def expanded(result, args):
        counts["search.expanded_grids"] += len(result)

    def text_out(result, args):
        counts["grid.bytes_out"] += len(result)

    def verified(kind):
        def hook(result, args):
            i = tracer.last_closed
            p = tracer.parent[i]
            if p >= 0 and tracer.names[tracer.name_of[p]].startswith("sequences."):
                return  # count_brute's own per-word checks are counting work
            counts[f"verify.{kind}_windows"] += result.positions_checked
            counts[f"verify.{kind}_s"] += tracer.end[i] - tracer.start[i]
            counts["verify.invalid_reports"] += not result.valid
        return hook

    s, g, v = "debruijn_arrays.search", "debruijn_arrays.grid", "debruijn_arrays.verify"
    tracer.wrap_function(s, "enumerate_l_arrays", "search.enumerate_l_arrays")
    tracer.wrap_function(s, "_run_shards", "search.run_shards", run_shards)
    tracer.wrap_function(s, "_search_shard", "search.search_shard")
    tracer.wrap_function(s, "_expand_orbit", "search.expand_orbit", expanded)
    tracer.wrap_function(s, "_orbit_reps", "search.orbit_reps")
    tracer.wrap_function(s, "canonicalize", "search.canonicalize")
    tracer.wrap_method(DigitGrid, "__init__", "grid.validate")
    tracer.wrap_method(DigitGrid, "_trusted", "grid.materialize")
    tracer.wrap_method(DigitGrid, "to_text", "grid.to_text", text_out)
    tracer.wrap_function(g, "parse_grid_text", "grid.parse")
    tracer.wrap_function(g, "parse_grid_json", "grid.parse")
    tracer.wrap_function(v, "verify_l_array", "verify.l", verified("l"))
    tracer.wrap_function(v, "verify_sequence", "verify.seq", verified("seq"))
    tracer.wrap_function(v, "verify_torus", "verify.torus", verified("torus"))
    q = "debruijn_arrays.sequences"
    tracer.wrap_function(q, "generate_sequence", "sequences.generate")
    for counter in ("count_formula", "count_best", "count_brute"):
        tracer.wrap_function(q, counter, "sequences.count")
    tracer.wrap_function("debruijn_arrays.construct", "construct_l_array", "construct")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit); 0 where this
    workload never reached the layer."""
    tot = tracer.totals()
    c = tracer.counts

    def total(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    replay = _replay_shard_times(tracer)
    return {
        "search.nodes": (c["search.nodes"], "count"),
        "search.normal_forms": (c["search.normal_forms"], "count"),
        "search.nodes_per_normal_form": (
            _ratio(c["search.nodes"], c["search.normal_forms"]), "count"),
        "search.dfs_s": (total("search.run_shards"), "s"),
        "search.nodes_per_s": (
            _ratio(c["search.nodes"], total("search.run_shards")), "1/s"),
        "search.expand_s": (total("search.expand_orbit"), "s"),
        "search.expanded_grids": (c["search.expanded_grids"], "count"),
        "search.enumerate_self_s": (own("search.enumerate_l_arrays"), "s"),
        "search.shard_max_over_mean": (
            _ratio(max(replay), mean(replay)) if replay else 0.0, "ratio"),
        "search.reduce_s": (total("search.orbit_reps"), "s"),
        "search.canonicalize_s": (total("search.canonicalize"), "s"),
        "grid.materialize_s": (total("grid.materialize"), "s"),
        "grid.grids_built": (calls("grid.materialize"), "count"),
        "grid.to_text_s": (total("grid.to_text"), "s"),
        "grid.bytes_out": (c["grid.bytes_out"], "bytes"),
        "grid.parse_s": (total("grid.parse"), "s"),
        "grid.validate_s": (total("grid.validate"), "s"),
        "verify.l_windows_per_s": (_ratio(c["verify.l_windows"], c["verify.l_s"]), "1/s"),
        "verify.seq_windows_per_s": (
            _ratio(c["verify.seq_windows"], c["verify.seq_s"]), "1/s"),
        "verify.torus_windows_per_s": (
            _ratio(c["verify.torus_windows"], c["verify.torus_s"]), "1/s"),
        "verify.invalid_reports": (c["verify.invalid_reports"], "count"),
        "sequences.generate_s": (total("sequences.generate"), "s"),
        "sequences.count_s": (total("sequences.count"), "s"),
        "construct.s": (total("construct"), "s"),
        "cli.self_s": (own("cli.main"), "s"),
        "trace.overhead": (overhead, "ratio"),
    }


def _replay_shard_times(tracer: Tracer) -> list[float]:
    """Durations of the search_shard spans opened directly by the shard replay."""
    ids = tracer._ids
    replay, shard = ids.get("bench.shard_replay"), ids.get("search.search_shard")
    if replay is None or shard is None:
        return []
    return [tracer.end[i] - tracer.start[i] for i in range(len(tracer.start))
            if tracer.name_of[i] == shard and tracer.parent[i] >= 0
            and tracer.name_of[tracer.parent[i]] == replay]

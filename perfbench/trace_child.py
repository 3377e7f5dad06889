"""Run one consensuslab CLI invocation in-process and record spans.

Usage: python3 trace_child.py SPANS_NPZ [--only NAME,...] -- CLI_ARGS...

Every public function of the measured modules is wrapped with a span
recorder, in every module that holds a binding to it: `from .core import
canonicalize` copies the name into `rules`, so patching `core` alone would
miss the calls made from `rules`. A span is (name, start, end, parent).
Spans stay in memory and are written to SPANS_NPZ when the CLI returns;
the benchmark computes self times from them. `--only` restricts wrapping to
the named spans. Pool workers inherit the wrappers but their spans are
lost, so trial-level layers are traced at `--workers 1`.

`drift` is not wrapped: its calculators are closed-form, and none of the
benchmark's workloads calls them.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import sys
import time

MODULES = ("core", "sampler", "rules", "dominance", "coalescing", "harness", "cli")


def _partitions(n: int) -> int:
    """Number of integer partitions of n: the configurations of n nodes."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


# Counters taken at a span boundary: name -> f(counters, args, kwargs, result).
def _count_canonicalize(counters, args, kwargs, result):
    counters["canonicalize.len"] = counters.get("canonicalize.len", 0) + len(args[0])


def _count_configs(counters, args, kwargs, result):
    counters["dominance.configs"] = counters.get("dominance.configs", 0) + len(result)


def _count_pairs(counters, args, kwargs, result):
    counters["dominance.pairs_checked"] = counters.get("dominance.pairs_checked", 0) + result.pairs_checked
    counters["dominance.pairs_total"] = counters.get("dominance.pairs_total", 0) + _partitions(result.n) ** 2


PROBES = {
    "core.canonicalize": _count_canonicalize,
    "dominance.enumerate_configurations": _count_configs,
    "dominance.check_dominance": _count_pairs,
}


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array.array("i")
        self.parents = array.array("q")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack)
        counters, probe, clock = self.counters, PROBES.get(name), time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if probe is not None:
                probe(counters, args, kwargs, result)
            return result

        return span

    def save(self, path: str) -> None:
        import numpy as np

        keys = sorted(self.counters)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int64),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            counter_keys=np.array(keys, dtype=str),
            counter_values=np.array([self.counters[k] for k in keys], dtype=np.int64),
        )


def instrument(rec: SpanRecorder, only: set[str] | None):
    """Wrap the measured functions in every consensuslab module; return cli."""
    mods = {short: importlib.import_module(f"consensuslab.{short}") for short in MODULES}
    wrapped = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            if only is None or name in only:
                wrapped[obj] = rec.wrap(name, obj)
    for modname, mod in list(sys.modules.items()):
        if modname == "consensuslab" or modname.startswith("consensuslab."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
    graph = mods["coalescing"].Graph
    if only is None or "coalescing.neighbor_map_row" in only:
        graph.neighbor_map_row = rec.wrap("coalescing.neighbor_map_row", graph.neighbor_map_row)
    return mods["cli"]


def main(argv: list[str]) -> int:
    if "--" not in argv or len(argv) < 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 1
    sep = argv.index("--")
    path, opts, cli_args = argv[0], argv[1:sep], argv[sep + 1:]
    only = set(opts[1].split(",")) if opts[:1] == ["--only"] else None
    rec = SpanRecorder()
    cli = instrument(rec, only)
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        rec.save(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""consensuslab benchmark: end-to-end metrics per workload, or a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every invocation is a fresh `python -m consensuslab.cli` process with `src`
on PYTHONPATH, run one at a time, and its output is checked. With
`--trace 0` the workload is repeated for S seconds and the end-to-end
metrics of BENCHMARK.json are taken over the repetitions (see measure).
With `--trace 1` the workload runs once plain and once under
trace_child.py, repeatedly for S seconds, and the per-layer metrics of the
median pass are reported. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata

from workloads import WORKLOADS, Invocation, Output, Workload, digest, reference_digest, variant_of

HERE = os.path.dirname(os.path.abspath(__file__))
TRACE_CHILD = os.path.join(HERE, "trace_child.py")
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench")

SETUP_RUNS = 7  # fewest timed `--help` invocations per run, after one warm-up
RUN_LIMIT_S = 170.0  # no invocation starts after this, none runs past it


class ProgramMissing(RuntimeError):
    pass


@dataclass
class Measured:
    wall_s: float
    cpu_s: float
    rss_mb: float
    output: Output


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(cmd: list[str], env: dict, stdout_path: str, timeout: float) -> tuple[int, float, float, float]:
    """Run cmd to completion; return (exit code, wall s, cpu s, peak RSS MB).

    CPU and RSS come from wait4 on the child, which covers the child and
    every descendant it reaped (the pool workers), and nothing else.
    """
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, start_new_session=True)
    timer = None
    if math.isfinite(timeout):
        timer = threading.Timer(max(timeout, 0.0), _kill_group, (proc.pid,))
        timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        if timer is not None:
            timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


class Runner:
    """Runs CLI invocations one at a time and counts the ones that fail."""

    def __init__(self, work_dir: str, deadline: float = float("inf")):
        self.work_dir = work_dir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        self.env = env
        self._seq = 0

    def _run(self, cmd: list[str], inv: Invocation) -> Measured:
        for path in inv.out_files:
            if os.path.exists(path):
                os.remove(path)
        self._seq += 1
        stdout_path = os.path.join(self.work_dir, f"out{self._seq}")
        rc, wall, cpu, rss = spawn(cmd, self.env, stdout_path, self.deadline - time.monotonic())
        with open(stdout_path, "rb") as fh:
            stdout = fh.read()
        files = {}
        for path in inv.out_files:
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    files[path] = fh.read()
        out = Output(rc, stdout, files)
        problems = inv.verify(out)
        self.attempted += 1
        if problems:
            self.failed += 1
            with open(stdout_path + ".err", errors="replace") as fh:
                tail = fh.read()[-400:]
            print(f"FAIL {' '.join(inv.argv)}: {'; '.join(problems)}\n{tail}", file=sys.stderr)
        return Measured(wall, cpu, rss, out)

    def cli(self, inv: Invocation) -> Measured:
        return self._run([sys.executable, "-m", "consensuslab.cli", *inv.argv], inv)

    def traced(self, inv: Invocation, spans_path: str, only: tuple[str, ...] = ()) -> Measured:
        if os.path.exists(spans_path):
            os.remove(spans_path)
        opts = ["--only", ",".join(only)] if only else []
        return self._run([sys.executable, TRACE_CHILD, spans_path, *opts, "--", *inv.argv], inv)

    def setup_time(self) -> float:
        """Wall time of a CLI invocation that imports everything and does no work."""
        path = os.path.join(self.work_dir, "help")
        rc, wall, _, _ = spawn([sys.executable, "-m", "consensuslab.cli", "--help"], self.env, path,
                               self.deadline - time.monotonic())
        if rc != 0:
            raise ProgramMissing(f"`consensuslab.cli --help` exited with {rc}")
        return wall


def remove_work_dir(work_dir: str) -> None:
    """Delete one run's scratch directory, and the scratch root once empty."""
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)
    except OSError:
        pass


def run_workload(runner: Runner, invocations: list[Invocation]) -> list[Measured]:
    return [runner.cli(inv) for inv in invocations]


def repeat_for(seconds: float, runner: Runner, once) -> list:
    """Call once() at least once, and again while the next call should end
    within `seconds` of the first and before the runner's deadline."""
    results, start = [], time.monotonic()
    while True:
        t0 = time.monotonic()
        results.append(once())
        now = time.monotonic()
        last = now - t0
        if now + last - start > seconds or now + last > runner.deadline:
            return results


# ---------------------------------------------------------------------------
# end-to-end run


def measure(workload: Workload, variant: int, seconds: float, runner: Runner) -> tuple[dict, dict]:
    """End-to-end metrics over repetitions of the workload.

    The shared 2-core machine runs the same work up to 2x slower for
    seconds to minutes at a time, so a repetition's time depends on when it
    ran. wall_s and cpu_s are means over the run's repetitions, which were
    steadier from run to run than medians or minima (see NOTES.md).
    setup_s is the median of samples spread over the run, so that they see
    the same machine as the repetitions.
    """
    runner.setup_time()  # warm-up: byte-compiles the package, fills the file cache
    setup: list[float] = []

    def once() -> list[Measured]:
        setup.append(runner.setup_time())
        return run_workload(runner, workload.build(variant, runner.work_dir))

    reps = repeat_for(seconds, runner, once)
    while len(setup) < SETUP_RUNS:
        setup.append(runner.setup_time())
    walls = [sum(m.wall_s for m in rep) for rep in reps]
    metrics = {
        "wall_s": statistics.mean(walls),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.mean(sum(m.cpu_s for m in rep) for rep in reps),
        "peak_rss_mb": statistics.median(max(m.rss_mb for m in rep) for rep in reps),
    }
    digests = {digest([m.output for m in rep]) for rep in reps}
    ref = reference_digest(workload, variant)
    info = {
        "repetitions": len(reps),
        "invocations_per_repetition": len(reps[0]),
        "repetition_wall_s": walls,
        "setup_samples_s": setup,
        "output_sha256": sorted(digests),
        "reference_sha256": ref,
        "output_identical": None if ref is None else digests == {ref},
    }
    return metrics, info


# ---------------------------------------------------------------------------
# traced run

# Spans whose call counts and self times are reported.
CALLS = (
    "core.canonicalize", "core.majorizes", "rules.process_function", "rules.step_rule",
    "rules.step_two_choices", "rules.step_two_choices_reference", "rules.step_ac",
    "sampler.sample_multinomial", "coalescing.duality_check", "coalescing.neighbor_map_row",
    "coalescing.run_voter_with_maps", "harness.simulate_to_stop",
)
SELF = CALLS + (
    "rules.plurality_enumeration_alpha", "dominance.enumerate_configurations",
    "dominance.check_dominance",
    "dominance.empirical_time_dominance", "coalescing.draw_map_table",
    "coalescing.run_coalescence", "harness.write_jsonl", "harness.write_csv_summary", "cli.main",
)


def load_spans(path: str) -> tuple[dict[str, list[float]], dict[str, int]]:
    """Per span name [calls, inclusive s, self s], and the boundary counters."""
    import numpy as np

    if not os.path.exists(path):  # the traced process died; its invocation counts as failed
        return {}, {}
    with np.load(path) as z:
        names, ids, parents = z["names"], z["name_ids"], z["parents"]
        dur = z["ends"] - z["starts"]
        counters = dict(zip(z["counter_keys"].tolist(), z["counter_values"].tolist()))
    nested = parents >= 0
    child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
    k = len(names)
    calls = np.bincount(ids, minlength=k)
    incl = np.bincount(ids, weights=dur, minlength=k)
    self_s = np.bincount(ids, weights=dur - child, minlength=k)
    table = {str(n): [int(calls[i]), float(incl[i]), float(self_s[i])] for i, n in enumerate(names)}
    return table, counters


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def trace_pass(workload: Workload, variant: int, runner: Runner) -> tuple[dict, list]:
    """Per-layer metrics of one pass, and each invocation's largest self time."""
    invs = (workload.trace_build or workload.build)(variant, runner.work_dir)
    untraced = sum(m.wall_s for m in run_workload(runner, invs))
    spans: dict[str, list[float]] = {}
    counters: dict[str, int] = {}
    traced = 0.0
    largest = []
    for i, inv in enumerate(invs):
        path = os.path.join(runner.work_dir, f"spans{i}.npz")
        traced += runner.traced(inv, path).wall_s
        table, counts = load_spans(path)
        top = max(table, key=lambda name: table[name][2], default=None)
        largest.append([" ".join(inv.argv[:3]), top])
        for name, row in table.items():
            spans[name] = [a + b for a, b in zip(spans.get(name, [0, 0.0, 0.0]), row)]
        for key, value in counts.items():
            counters[key] = counters.get(key, 0) + value

    def get(name: str, col: int) -> float:
        return spans.get(name, [0, 0.0, 0.0])[col]

    m: dict[str, float] = {}
    for name in CALLS:
        m[f"{name}.calls"] = get(name, 0)
    for name in SELF:
        m[f"{name}.self_s"] = get(name, 2)
    m["core.canonicalize.mean_len"] = _ratio(counters.get("canonicalize.len", 0), get("core.canonicalize", 0))
    m["rules.round_us"] = 1e6 * _ratio(get("rules.step_rule", 1), get("rules.step_rule", 0))
    m["rules.two_choices_pernode_frac"] = _ratio(
        get("rules.step_two_choices_reference", 0), get("rules.step_two_choices", 0))
    m["dominance.configs"] = counters.get("dominance.configs", 0)
    m["dominance.pair_hit_ratio"] = _ratio(
        counters.get("dominance.pairs_checked", 0), counters.get("dominance.pairs_total", 0))

    # Spans are lost inside pool workers: time run_experiment at the
    # workload's own --workers with nothing else wrapped.
    run_exp = 0.0
    if workload.pool_workers:
        path = os.path.join(runner.work_dir, "pool.npz")
        for inv in workload.build(variant, runner.work_dir):
            runner.traced(inv, path, only=("harness.run_experiment",))
            run_exp += load_spans(path)[0].get("harness.run_experiment", [0, 0.0])[1]
    m["harness.run_experiment.wall_s"] = run_exp
    m["harness.pool_efficiency"] = _ratio(get("harness.simulate_to_stop", 1), workload.pool_workers * run_exp)

    total_self = sum(row[2] for row in spans.values())
    listed_self = sum(m[f"{name}.self_s"] for name in SELF)
    m["trace.wall_s"] = traced
    m["trace.untraced_wall_s"] = untraced
    m["trace.overhead_frac"] = _ratio(traced, untraced) - 1.0
    m["trace.other_self_s"] = total_self - listed_self
    # interpreter start, imports and the recorder's own work outside spans
    m["trace.residue_s"] = traced - total_self
    return m, largest


def trace(workload: Workload, variant: int, seconds: float, runner: Runner) -> tuple[dict, dict]:
    """Per-layer metrics of the pass with the median traced wall time.

    One pass supplies every metric, so its self times and residue still sum
    to its wall time.
    """
    passes = repeat_for(seconds, runner, lambda: trace_pass(workload, variant, runner))
    metrics, largest = sorted(passes, key=lambda p: p[0]["trace.wall_s"])[(len(passes) - 1) // 2]
    return metrics, {"passes": len(passes), "largest_self_s_by_invocation": largest}


# ---------------------------------------------------------------------------
# provenance and output


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def provenance() -> dict:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "consensuslab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "bit_generator": "PCG64",  # consensuslab.sampler.RngStream
        "nproc": nproc,
        "scaling": f"claims stop at --workers 2: this machine has {nproc} cores",
        "git_sha": _git_sha(),
        "src_sha256": h.hexdigest(),
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "consensuslab", "cli.py")):
        print(f"error: no consensuslab sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    workload, variant = WORKLOADS[args.workload], variant_of(args.seed)
    work_dir = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    runner = Runner(work_dir, deadline=time.monotonic() + RUN_LIMIT_S)
    load_start = os.getloadavg()[0]
    try:
        if args.trace:
            values, info = trace(workload, variant, args.seconds, runner)
            wanted = spec["per_layer"]
        else:
            values, info = measure(workload, variant, args.seconds, runner)
            wanted = spec["end_to_end"]
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        remove_work_dir(work_dir)

    failed_frac = runner.failed / runner.attempted
    print(f"workload {workload.name}  seed {args.seed}  input variant {variant}")
    for m in wanted:
        print(f"  {m['name']:<44} {values[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<44} {failed_frac:>14.6g} ({runner.failed}/{runner.attempted} invocations)")
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "variant": variant,
        "trace": args.trace,
        "failed_frac": failed_frac,
        "load_avg_1m": [load_start, os.getloadavg()[0]],
        **info,
        "provenance": provenance(),
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

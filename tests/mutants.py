"""Mutation harness: plant one known bug at a time and check that the tests
named for it turn red.

Run from the repository root (pytest does not collect this file, whose
name does not match test_*.py):

    python tests/mutants.py

For each mutant it copies src/ and tests/ into a temporary directory,
applies one string replacement to one source file, runs the mutant's tests
there with pytest and lists the tests that failed. A baseline run of every
named test on the unmodified copy comes first; then two mutants run at a
time. It exits 1 if the baseline
is red, if a replacement does not match its file exactly once, or if any
mutant stays green.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PER_RUN_TIMEOUT_S = 240
JOBS = 2


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/consensuslab
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "canonical-ascending",
        "core.py",
        "out = arr[::-1][:positive]",
        "out = arr[len(arr) - positive :]",
        (
            "tests/test_core.py::test_canonicalize_sorts_and_drops_zeros",
            "tests/test_core.py::test_canonicalize_matches_python_oracle_on_random_inputs",
            "tests/test_rules.py::test_every_producer_returns_canonical_counts",
        ),
    ),
    Mutant(
        "canonical-writable",
        "core.py",
        "    out.flags.writeable = False\n",
        "",
        (
            "tests/test_core.py::test_canonicalize_matches_python_oracle_on_random_inputs",
            "tests/test_rules.py::test_every_producer_returns_canonical_counts",
        ),
    ),
    Mutant(
        "canonical-check-unordered",
        "core.py",
        "if c[-1] <= 0 or (c[:-1] < c[1:]).any():",
        "if c[-1] <= 0:",  # unsorted counts pass the entry points
        ("tests/test_rules.py::test_entry_points_reject_non_canonical_counts",),
    ),
    Mutant(
        "pvals-any-order",
        "core.py",
        'arr = np.asarray(probs, dtype=float, order="C")',
        "arr = np.asarray(probs, dtype=float)",  # a row sum rounds by memory layout
        ("tests/test_core.py::test_multinomial_pvals_rows_ignore_memory_layout",),
    ),
    Mutant(
        "seed-wraps",
        "sampler.py",
        "        if not 0 <= self.seed < 2**64:\n",
        "        if False:\n",  # a seed past 64 bits runs as some other seed
        (
            "tests/test_sampler.py::test_rng_stream_rejects_seeds_outside_64_bits",
            "tests/test_cli.py::test_usage_errors_exit_one",
        ),
    ),
    Mutant(
        "run-until-no-peak",
        "rules.py",
        "            if c[0] > peak[0]:\n                peak[0] = c[0]\n",
        "",  # a lone row's peak stays at the round it became lone
        (
            "tests/test_rules.py::test_run_block_replays_a_per_row_loop[voter-stops]",
            "tests/test_rules.py::test_run_until_matches_stepper_loop",
            "tests/test_harness.py::test_max_support_peak_covers_unrecorded_rounds",
        ),
    ),
    Mutant(
        "run-until-strict-kappa",
        "rules.py",
        "if least <= kappa or",
        "if least < kappa or",  # no row stops at exactly kappa colours
        (
            "tests/test_rules.py::test_run_until_matches_stepper_loop",
            "tests/test_rules.py::test_every_producer_returns_canonical_counts",
            "tests/test_harness.py::test_simulate_to_stop_reaches_consensus",
        ),
    ),
    Mutant(
        "three-majority-alpha-sign",
        "rules.py",
        "alpha = x + 1\n    alpha -= sq",
        "alpha = 1 - x\n    alpha += sq",  # still sums to 1: only the values are wrong
        (
            "tests/test_rules.py::test_three_majority_closed_form_matches_enumeration",
            "tests/test_rules.py::test_three_majority_exact_value",
            "tests/test_acceptance.py::test_01_three_majority_exact_leading_probability",
        ),
    ),
    Mutant(
        "two-choices-landing-by-counts",
        "rules.py",
        "gen.multinomial(left.sum(axis=-1), q / s)",
        "gen.multinomial(left.sum(axis=-1), counts / n)",
        (
            "tests/test_rules.py::test_two_choices_modes_agree_in_distribution",
            "tests/test_rules.py::test_two_choices_empirical_mean_matches_formula",
        ),
    ),
    Mutant(
        "two-choices-block-pooled-leave-rate",
        "rules.py",
        "s = q.sum(axis=-1, keepdims=True)",
        "s = q.sum()",  # the same on a row; a block's rows all leave at the block's rate
        ("tests/test_rules.py::test_step_takes_two_choices_rows_of_a_padded_block",),
    ),
    Mutant(
        "two-choices-refill-uncounted",
        "rules.py",
        "k += (c_new == 0) - (c_old == 1)",
        "k -= c_old == 1",  # a label emptied and refilled in one round stays lost
        ("tests/test_rules.py::test_two_choices_driver_invariants",),
    ),
    Mutant(
        "two-choices-movers-land-by-counts",
        "rules.py",
        "label[x % bound < counts[label]][:need]",
        "label[:need]",  # every candidate accepted: landing by c_L, not c_L^2
        (
            "tests/test_rules.py::test_two_choices_driver_one_round_law",
            "tests/test_rules.py::test_two_choices_driver_one_round_law_with_many_movers",
        ),
    ),
    Mutant(
        "two-choices-movers-past-the-cap",
        "rules.py",
        "while t < max_rounds and k > kappa",
        "while t <= max_rounds and k > kappa",  # a censored run takes one round too many
        (
            "tests/test_rules.py::test_two_choices_driver_one_round_law",
            "tests/test_rules.py::test_two_choices_driver_one_round_law_with_many_movers",
            "tests/test_rules.py::test_two_choices_driver_invariants[k2-kappa1]",
            "tests/test_rules.py::test_run_block_runs_two_choices_rows_one_after_another[censored]",
        ),
    ),
    Mutant(
        "two-choices-movers-before-landings",
        "rules.py",
        "        landed = _landings(m, labels, counts, n, peak, sumsq, gen).tolist()\n"
        "        movers = set()\n"
        "        while len(movers) < m:  # the distinct values of uniform draws\n"
        "            movers.update(gen.integers(0, n, size=m - len(movers)).tolist())\n",
        # the two draws are independent, so the law is the same: only the
        # fixed-seed output can tell
        "        movers = set()\n"
        "        while len(movers) < m:  # the distinct values of uniform draws\n"
        "            movers.update(gen.integers(0, n, size=m - len(movers)).tolist())\n"
        "        landed = _landings(m, labels, counts, n, peak, sumsq, gen).tolist()\n",
        ("tests/test_golden.py::test_fixed_seed_outputs_match_the_golden_manifest",),
    ),
    Mutant(
        "two-choices-movers-ignore-above",
        "rules.py",
        "k > kappa and peak <= above and sumsq",
        "k > kappa and sumsq",  # a lower-bound trial runs past its first exceedance
        ("tests/test_rules.py::test_run_until_stops_at_the_first_support_above",),
    ),
    Mutant(
        "reference-voter-excludes-self",
        "rules.py",
        "idx = gen.integers(0, n, size=(h, n))",
        # a node samples among the other n - 1 nodes only
        "idx = gen.integers(0, n - 1, size=(h, n))\n    idx += idx >= np.arange(n)",
        (
            "tests/test_rules.py::test_step_reference_agrees_in_distribution[voter]",
            "tests/test_rules.py::test_step_reference_matches_exact_ac_law[voter]",
        ),
    ),
    Mutant(
        "reference-tie-break-lowest-label",
        "rules.py",
        "gen.random((h, n))",
        "1.0 / (1 + s)",  # the tied colour with the lowest label always wins
        (
            "tests/test_rules.py::test_step_reference_agrees_in_distribution[hmaj:3]",
            "tests/test_rules.py::test_step_reference_agrees_in_distribution[hmaj:4]",
        ),
    ),
    Mutant(
        "block-stop-counts-zero-columns",
        "rules.py",
        "k = (counts > 0).sum(axis=1)",
        "k = (counts >= 0).sum(axis=1)",  # a padded zero counts as a colour
        (
            "tests/test_rules.py::test_run_block_replays_a_per_row_loop[voter-stops]",
            "tests/test_harness.py::test_max_support_peak_covers_unrecorded_rounds",
        ),
    ),
    Mutant(
        "block-peak-misses-stop-round",
        "rules.py",
        "np.maximum(peak, counts.max(axis=1), out=peak)",
        "np.maximum(peak, np.where(k <= kappa, peak, counts.max(axis=1)), out=peak)",
        (
            "tests/test_rules.py::test_run_block_replays_a_per_row_loop[voter-stops]",
            "tests/test_harness.py::test_max_support_peak_covers_unrecorded_rounds",
        ),
    ),
    Mutant(
        "block-steps-stopped-rows",
        "rules.py",
        "keep = ~done",
        "keep = done | ~done",  # a stopped row stays in the block and is stepped on
        (
            "tests/test_rules.py::test_run_block_replays_a_per_row_loop[hmaj:3-stops]",
            "tests/test_harness.py::test_run_experiment_blocks_are_worker_count_invariant",
        ),
    ),
    Mutant(
        "block-two-choices-rows-from-first-start",
        "rules.py",
        "    for c in starts:\n        t, peak = 0, int(c[0])\n",
        # every 2-Choices row runs from the block's first start
        "    for c in [starts[0]] * len(starts):\n        t, peak = 0, int(c[0])\n",
        (
            "tests/test_rules.py::test_run_block_runs_two_choices_rows_one_after_another[stops]",
            "tests/test_rules.py::test_run_block_runs_two_choices_rows_one_after_another[censored]",
        ),
    ),
    Mutant(
        "lone-row-ascending",
        "rules.py",
        "c = canonical_counts(_step(rule, counts[0], n, gen))",
        # a lone row kept ascending, not canonical
        "c = canonical_counts(_step(rule, counts[0], n, gen))[::-1]",
        (
            "tests/test_rules.py::test_run_block_replays_a_per_row_loop[voter-stops]",
            "tests/test_rules.py::test_run_block_replays_a_per_row_loop[hmaj:3-stops]",
            "tests/test_rules.py::test_run_until_matches_stepper_loop",
        ),
    ),
    Mutant(
        "two-choices-peak-restarts-after-movers",
        "rules.py",
        "out += _rounds(rule, [c], t, [peak], n, stop, above, rng.gen)",
        "out += _rounds(rule, [c], t, [int(c[0])], n, stop, above, rng.gen)",
        ("tests/test_rules.py::test_two_choices_peak_spans_the_mover_rounds",),
    ),
    Mutant(
        "block-rows-two-choices-as-ac",
        "rules.py",
        "    if not rule.is_ac:\n        return 1\n",
        "",  # 2-Choices trials share a block's stream, 64 to a block
        (
            "tests/test_harness.py::test_two_choices_records_come_from_one_stream_per_trial",
            "tests/test_harness.py::test_run_trials_lays_out_blocks_and_streams",
        ),
    ),
    Mutant(
        "block-rows-ignore-above",
        "rules.py",
        "done = (k <= kappa) | (peak > above)",
        "done = k <= kappa",  # a lockstep row runs past its first support above the ceiling
        (
            "tests/test_rules.py::test_run_block_stops_at_the_first_support_above[voter-5]",
            "tests/test_rules.py::test_run_block_stops_at_the_first_support_above[hmaj:3-5]",
        ),
    ),
    Mutant(
        "block-row-check-skipped",
        "rules.py",
        "multinomial_pvals(_alpha(rule, counts / n), rows=counts.ndim == 2)",
        # a block's rows draw from an unchecked alpha
        "(multinomial_pvals(_alpha(rule, counts / n)) if counts.ndim == 1"
        " else _alpha(rule, counts / n))",
        (
            "tests/test_rules.py::test_run_block_rejects_a_bad_alpha[nan]",
            "tests/test_rules.py::test_run_block_rejects_a_bad_alpha[below-slack]",
            "tests/test_rules.py::test_run_block_rejects_a_bad_alpha[mass-0.9]",
        ),
    ),
    Mutant(
        "time-dominance-one-sample-radius",
        "dominance.py",
        "return two_sample_critical_value(trials) if epsilon is None else epsilon",
        # the DKW radius of one empirical CDF, applied to the gap between two
        "return math.sqrt(math.log(2.0 / 0.05) / (2.0 * trials)) if epsilon is None else epsilon",
        ("tests/test_dominance.py::test_empirical_time_dominance_fails_equal_laws_at_rate_delta",),
    ),
    Mutant(
        "lifted-replay-forward-order",
        "coalescing.py",
        "window = np.take_along_axis(window[length:], window[:-length], axis=1)",
        "window = np.take_along_axis(window[:-length], window[length:], axis=1)",
        (
            "tests/test_coalescing.py::test_lifted_voter_replay_matches_per_tau_oracle",
            "tests/test_coalescing.py::test_duality_identity_small_graphs",
        ),
    ),
    Mutant(
        "plurality-tie-weight-one",
        "rules.py",
        "Fraction(math.factorial(h), t + u + 1)",
        "Fraction(math.factorial(h))",  # every tied colour takes the whole share
        (
            "tests/test_rules.py::test_plurality_alpha_equals_the_enumeration_loop[4]",
            "tests/test_rules.py::test_h_majority_alpha_matches_per_node_simulation",
        ),
    ),
    Mutant(
        "plurality-float-tie-weight",
        "rules.py",
        "Fraction(math.factorial(h), t + u + 1)",
        "math.factorial(h) / (t + u + 1)",  # a Fraction times a float is a float
        (
            "tests/test_rules.py::test_process_function_exact_keeps_python_int_fractions",
            "tests/test_rules.py::test_plurality_alpha_equals_the_enumeration_loop[4]",
        ),
    ),
    Mutant(
        "plurality-others-above-winner",
        "rules.py",
        "for c in range(min(m, r) + 1):",
        "for c in range(r + 1):",  # a colour counted as losing may out-sample the winner
        (
            "tests/test_rules.py::test_plurality_alpha_equals_the_enumeration_loop[4]",
            "tests/test_dominance.py::test_check_dominance_report_is_bit_stable",
        ),
    ),
    Mutant(
        "three-majority-blas-dot",
        "rules.py",
        'sq = np.expand_dims(np.einsum("...i,...i->...", x, x), -1)',
        # the 1-d path through OpenBLAS, whose kernel the CPU picks
        'sq = x.dot(x) if x.ndim == 1 else np.expand_dims(np.einsum("...i,...i->...", x, x), -1)',
        ("tests/test_dominance.py::test_check_dominance_report_is_the_same_under_every_blas_kernel",),
    ),
    Mutant(
        "exact-alpha-int64-fractions",
        "rules.py",
        "counts = c.tolist()",
        "counts = list(c)",  # numpy int64 elements
        ("tests/test_rules.py::test_process_function_exact_keeps_python_int_fractions",),
    ),
    Mutant(
        "biased-off-by-one",
        "harness.py",
        "canonicalize([c2 + bias, c2]",
        "canonicalize([c2 + bias - 1, c2]",
        (
            "tests/test_harness.py::test_biased_start_has_the_gap_it_spells",
            "tests/test_harness.py::test_biased_start_exists_exactly_where_a_partition_has_the_gap",
        ),
    ),
    Mutant(
        "lower-bound-ell-from-smallest",
        "harness.py",
        "n, ell = int(initial.sum()), int(initial[0])",
        "n, ell = int(initial.sum()), int(initial[-1])",
        ("tests/test_harness.py::test_lower_bound_window_comes_from_the_start",),
    ),
    Mutant(
        "init-ignores-extra-fields",
        "harness.py",
        "if len(fields) != _INIT_FIELDS[kind]:",
        "if len(fields) < _INIT_FIELDS[kind]:",  # ncolor:7 runs as ncolor
        (
            "tests/test_harness.py::test_initial_condition_validation",
            "tests/test_cli.py::test_usage_errors_exit_one",
        ),
    ),
    Mutant(
        "blocks-stream-by-first-trial",
        "harness.py",
        'stop, rng.child("block", b))',
        'stop, rng.child("block", first))',  # block b's stream keyed by its first trial
        ("tests/test_harness.py::test_run_trials_lays_out_blocks_and_streams",),
    ),
    Mutant(
        "fork-results-wrong-stride",
        "harness.py",
        "chunks[w::workers] = value",
        "chunks[w * len(value) : (w + 1) * len(value)] = value",  # worker w's jobs as a run
        (
            "tests/test_harness.py::test_run_puts_worker_results_in_job_order",
            "tests/test_harness.py::test_run_experiment_blocks_are_worker_count_invariant",
        ),
    ),
    Mutant(
        "fork-error-read-as-empty",
        "harness.py",
        "            raise value\n",
        "            value = [[] for _ in jobs[w::workers]]\n",  # a failed worker's jobs give no trials
        ("tests/test_harness.py::test_run_raises_a_workers_exception",),
    ),
    Mutant(
        "lower-bound-vacuous-window-strict",
        "harness.py",
        "if lp < n and t0 >= 1:",
        "if lp <= n and t0 >= 1:",  # ell_prime == n still draws
        ("tests/test_harness.py::test_lower_bound_window_nothing_can_exceed",),
    ),
    Mutant(
        "walks-placed-with-replacement",
        "coalescing.py",
        "g.random_neighbors(np.arange(x), gen)",
        "g.random_neighbors(gen.integers(0, g.n, size=x), gen)",  # two walks may share a node
        (
            "tests/test_coalescing.py::test_empirical_drift_matches_occupancy_oracle",
            "tests/test_coalescing.py::test_walk_count_chain_matches_direct_estimate",
            "tests/test_coalescing.py::test_walk_count_chain_starts_walks_on_distinct_nodes",
        ),
    ),
    Mutant(
        "validate-bound-censored-as-finished",
        "drift.py",
        "times.append(t if x <= k else None)",
        "times.append(t)",  # a trial cut at max_rounds counts as finishing there
        ("tests/test_drift.py::test_validate_bound_fails_a_censored_chain",),
    ),
    Mutant(
        "validate-bound-rounds-domain-ends",
        "drift.py",
        "np.linspace(math.ceil(lo), math.floor(hi), 5).round()",
        # the grid's ends rounded: round(2.4) = 2 samples h outside [2.4, x_max]
        "np.clip(np.linspace(lo, hi, 5).round(), k + 1, x0)",
        ("tests/test_drift.py::test_validate_bound_samples_integer_states_inside_the_domain",),
    ),
    Mutant(
        "drift-integral-outside-domain",
        "drift.py",
        "if not h.x_min <= lo <= hi <= h.x_max:",
        "if not lo <= hi:",  # 1/h integrated wherever the closed form evaluates
        (
            "tests/test_drift.py::test_generalized_bound_integrates_only_inside_the_domain",
            "tests/test_cli.py::test_drift_bound_generalized_stays_inside_the_domain",
        ),
    ),
    Mutant(
        "drift-generalized-head-at-x-min",
        "drift.py",
        "lo = 1.0 if k_prime == 0 else k_prime",
        "lo = max(1.0, h.x_min) if k_prime == 0 else k_prime",  # 1/h(x_min) for 1/h(1)
        (
            "tests/test_drift.py::test_generalized_zero_floor_reads_h_at_one",
            "tests/test_cli.py::test_drift_bound_generalized_stays_inside_the_domain",
        ),
    ),
    Mutant(
        "complete-graph-self-loops",
        "coalescing.py",
        "return np.where(r >= nodes, r + 1, r)",
        "return np.where(r > nodes, r + 1, r)",
        ("tests/test_coalescing.py::test_complete_graph_neighbor_map_excludes_self",),
    ),
    Mutant(
        "cli-threaded-blas",
        "cli.py",
        'os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")\n',
        "",  # numpy's OpenBLAS starts its worker thread per extra core again
        ("tests/test_cli.py::test_cli_runs_blas_on_one_thread",),
    ),
    Mutant(
        "cli-eager-import",
        "cli.py",
        "from . import __version__\n",
        "from . import __version__, harness\n",  # --help loads numpy, duality the harness
        ("tests/test_cli.py::test_cli_loads_only_what_its_subcommand_runs",),
    ),
    Mutant(
        "cli-openssl",
        "cli.py",
        '    sys.modules.setdefault("_hashlib", None)\n',
        "    pass\n",  # numpy.random's hashlib maps OpenSSL's libcrypto again
        (
            "tests/test_cli.py::test_cli_draws_without_openssl",
            "tests/test_cli.py::test_cli_loads_only_what_its_subcommand_runs[duality]",
        ),
    ),
    Mutant(
        "coupling-counts-below-ell",
        "harness.py",
        "(idx < lp).all(axis=0)",
        "(idx < initial[0]).all(axis=0)",  # P counts samples below ell, not ell'
        ("tests/test_harness.py::test_coupled_process_dominates_a_color_that_grows",),
    ),
    Mutant(
        "sampler-eager-hashlib",
        "sampler.py",
        "from dataclasses import dataclass, field\n",
        "import hashlib\nfrom dataclasses import dataclass, field\n",  # OpenSSL for exact checks
        (
            "tests/test_cli.py::test_cli_loads_only_what_its_subcommand_runs[dominance-check]",
            "tests/test_cli.py::test_cli_loads_only_what_its_subcommand_runs[drift-bound]",
        ),
    ),
)


def _copy_tree(dest: str) -> None:
    for part in ("src", "tests"):
        shutil.copytree(
            os.path.join(ROOT, part),
            os.path.join(dest, part),
            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"),
        )


def _run_pytest(tree: str, tests) -> tuple[int, list[str], float]:
    """(exit code, failed test ids, seconds) of pytest on `tests` in `tree`."""
    # one BLAS thread per child: numpy's OpenBLAS would start an idle worker
    # per extra core in each of the JOBS children; a value already set wins
    env = {"OPENBLAS_NUM_THREADS": "1", **os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    cmd = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=PER_RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return -1, ["(timed out)"], time.perf_counter() - start
    failed = re.findall(r"^FAILED (\S+)", proc.stdout, flags=re.MULTILINE)
    return proc.returncode, failed, time.perf_counter() - start


def _apply(tree: str, mutant: Mutant) -> None:
    path = os.path.join(tree, "src", "consensuslab", mutant.path)
    with open(path) as fh:
        text = fh.read()
    hits = text.count(mutant.old)
    if hits != 1:
        raise ValueError(f"{mutant.name}: replacement matches {mutant.path} {hits} times")
    with open(path, "w") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def run_mutant(mutant: Mutant) -> tuple[bool, str]:
    """(killed, report line) for one mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tree:
        _copy_tree(tree)
        try:
            _apply(tree, mutant)
        except ValueError as exc:
            return False, f"ERROR    {exc}"
        code, failed, secs = _run_pytest(tree, mutant.tests)
    if code == 0:
        return False, f"SURVIVED {mutant.name} ({secs:.1f} s): all {len(mutant.tests)} tests green"
    red = ", ".join(t.split("::")[-1] for t in failed) or f"pytest exit {code}"
    return True, f"killed   {mutant.name} ({secs:.1f} s): {red}"


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-baseline-") as tree:
        _copy_tree(tree)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        code, failed, secs = _run_pytest(tree, tests)
    if code != 0:
        print(f"baseline red ({secs:.1f} s): {', '.join(failed) or f'pytest exit {code}'}")
        return 1
    print(f"baseline green: {len(tests)} tests in {secs:.1f} s")

    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = list(pool.map(run_mutant, MUTANTS))
    for _, line in results:
        print(line)
    survivors = sum(1 for killed, _ in results if not killed)
    print(f"{len(results) - survivors}/{len(results)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

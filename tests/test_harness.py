import csv
import json
import math
import os
import pickle
import time

import pytest

from consensuslab import harness
from consensuslab.core import StopCondition, canonicalize
from consensuslab.dominance import enumerate_configurations
from consensuslab.harness import (
    CouplingViolation,
    ExperimentSpec,
    initial_counts,
    run_coupled_dominating_process,
    run_experiment,
    run_lower_bound_experiment,
    run_trials,
    run_two_phase_check,
    slow_start_window,
    write_csv_summary,
    write_jsonl,
)
from consensuslab.rules import (
    block_rows,
    h_majority_rule,
    run_block,
    two_choices_rule,
    voter_rule,
)
from consensuslab.sampler import RngStream

from block_replay import replay_block


def test_initial_conditions_build():
    assert initial_counts("ncolor", 5).tolist() == [1, 1, 1, 1, 1]
    assert initial_counts("balanced:4", 12).tolist() == [3, 3, 3, 3]
    c = initial_counts("explicit:4,3,1", 8)
    assert c.tolist() == [4, 3, 1]
    b = initial_counts("biased:3:2", 9)
    assert b.sum() == 9
    assert b[0] - b[-1] >= 2
    # case and surrounding space are ignored
    assert initial_counts(" ncolor ", 3).tolist() == [1, 1, 1]
    assert initial_counts("BALANCED:4", 8).tolist() == [2, 2, 2, 2]


def test_initial_condition_validation():
    # non-divisible balanced splits spread the remainder
    assert initial_counts("balanced:5", 12).tolist() == [3, 3, 2, 2, 2]
    with pytest.raises(ValueError, match="need 1 <= k <= n"):
        initial_counts("balanced:13", 12)  # more colors than nodes
    with pytest.raises(ValueError, match="expected n = 8"):
        initial_counts("explicit:4,3", 8)  # mass mismatch
    with pytest.raises(ValueError, match="n must be >= 1"):
        initial_counts("ncolor", 0)
    # a spelling with a missing, extra or non-integer field is not a start
    for text in ("weird", "biased:3", "ncolor:7", "balanced:x", "balanced:4:1", "explicit:",
                 "explicit:3,,1"):
        with pytest.raises(ValueError, match="init: cannot parse"):
            initial_counts(text, 8)
    # the spec builds its start once, so a bad one fails before any trial
    with pytest.raises(ValueError, match="need 1 <= k <= n"):
        ExperimentSpec(rules=(voter_rule(),), n=10, initial="balanced:20",
                       stop=StopCondition(), trials=1, seed=0)
    with pytest.raises(ValueError, match="at least one rule"):
        ExperimentSpec(rules=(), n=10, initial="ncolor", stop=StopCondition(), trials=1, seed=0)


def test_biased_start_has_the_gap_it_spells():
    # c2 = ceil((n - bias)/k), c1 = c2 + bias, the other k - 2 colours even
    assert initial_counts("biased:4:8", 100).tolist() == [31, 23, 23, 23]
    assert initial_counts("biased:10:40", 1000).tolist() == [136] + [96] * 9
    assert initial_counts("biased:3:2", 9).tolist() == [5, 3, 1]
    assert initial_counts("biased:5:3", 20).tolist() == [7, 4, 3, 3, 3]
    assert initial_counts("biased:5:2", 20).tolist() == [6, 4, 4, 3, 3]
    assert initial_counts("biased:2:0", 4).tolist() == [2, 2]
    # no 2-part start of 4 has gap 1, nor a 3-part one gap 0
    for text, n in (("biased:2:1", 4), ("biased:3:0", 4), ("biased:3:-4", 10),
                    ("biased:1:0", 4), ("biased:2:9", 8)):
        with pytest.raises(ValueError, match="^biased: "):
            initial_counts(text, n)


def test_biased_start_exists_exactly_where_a_partition_has_the_gap():
    for n in range(1, 31):
        gaps = {(len(c), int(c[0] - c[1])) for c in enumerate_configurations(n) if len(c) > 1}
        for k in range(n + 2):
            for bias in range(-1, n + 1):
                text = f"biased:{k}:{bias}"
                if (k, bias) in gaps:
                    c = initial_counts(text, n)
                    assert (c.sum(), len(c), c[0] - c[1]) == (n, k, bias), text
                else:
                    with pytest.raises(ValueError, match="^biased: "):
                        initial_counts(text, n)


def _run_trials(spec):
    """run_trials on the spec's one Voter rule, on simulate's stream for it."""
    c0 = initial_counts(spec.initial, spec.n)
    rng = RngStream(spec.seed, ("sim", "voter"))
    return run_trials(voter_rule(), c0, spec.trials, spec.stop, rng)


def test_simulate_to_stop_reaches_consensus():
    spec = ExperimentSpec(
        rules=(voter_rule(),),
        n=32,
        initial="ncolor",
        stop=StopCondition(kappa=1, max_rounds=200),  # longest run 73 rounds
        trials=1,
        seed=5,
    )
    (t, peak), = _run_trials(spec)
    assert t is not None and t >= 1
    assert peak == 32  # consensus: one colour holds every node


def test_simulate_to_stop_peak_counts_round_zero():
    # a start already at kappa colours stops before any round is drawn
    spec = ExperimentSpec(
        rules=(voter_rule(),),
        n=32,
        initial="explicit:20,12",
        stop=StopCondition(kappa=2, max_rounds=10),
        trials=1,
        seed=5,
    )
    assert _run_trials(spec) == [(0, 20)]


def test_simulate_to_stop_censors():
    spec = ExperimentSpec(
        rules=(voter_rule(),),
        n=64,
        initial="ncolor",
        stop=StopCondition(kappa=1, max_rounds=2),
        trials=1,
        seed=5,
    )
    (t, _), = _run_trials(spec)
    assert t is None


def test_max_support_peak_covers_unrecorded_rounds():
    # Voter from 4 balanced colors often peaks above both its start and its
    # stop; the summary record must report that peak, not max(start, stop)
    spec = ExperimentSpec(
        rules=(voter_rule(),),
        n=200,
        initial="balanced:4",
        stop=StopCondition(kappa=2, max_rounds=1_000),  # longest run 295 rounds
        trials=50,
        seed=0,
    )
    records = run_experiment(spec)
    assert len(records) == 50
    # the 50 trials are one block: replay it row by row on its stream, for
    # the largest support of round 0 and of every round after it
    starts = [initial_counts(spec.initial, spec.n)] * 50
    rng = RngStream(spec.seed, ("sim", "voter", "block", 0))
    replayed = replay_block(voter_rule(), starts, spec.stop, rng)
    interior_peaks = 0
    for rec, (_, _, rounds) in zip(records, replayed):
        supports = [counts[0] for counts in rounds]
        assert len(supports) == rec["stop_time"] + 1
        assert rec["max_support_peak"] == max(supports)
        interior_peaks += max(supports) > max(supports[0], supports[-1])
    assert interior_peaks > 0


def test_run_experiment_record_shape():
    spec = ExperimentSpec(
        rules=(voter_rule(), h_majority_rule(3)),
        n=32,
        initial="ncolor",
        stop=StopCondition(kappa=1, max_rounds=300),  # longest run 55 rounds
        trials=3,
        seed=1,
    )
    records = run_experiment(spec, workers=1)
    assert len(records) == 6
    rec = records[0]
    for key in ("rule", "n", "kappa", "seed", "trial", "stop_time", "censored"):
        assert key in rec


def test_run_experiment_worker_count_invariance():
    spec = ExperimentSpec(
        rules=(voter_rule(),),
        n=32,
        initial="ncolor",
        stop=StopCondition(kappa=1, max_rounds=350),  # longest run 197 rounds
        trials=8,
        seed=2,
    )
    serial = run_experiment(spec, workers=1)
    parallel = run_experiment(spec, workers=4)
    assert serial == parallel
    # all-censored runs would be equal too: every trial must have stopped
    assert len(serial) == 8
    assert all(r["stop_time"] is not None for r in serial)


def test_run_experiment_starts_no_pool_for_one_job(monkeypatch):
    # 64 AC trials of 32 nodes are one block, so one job: no worker forks at
    # any worker count
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a worker forked"))
    spec = ExperimentSpec(
        rules=(voter_rule(),),
        n=32,
        initial="ncolor",
        stop=StopCondition(kappa=1, max_rounds=1_000),
        trials=block_rows(voter_rule(), 32),
        seed=3,
    )
    records = run_experiment(spec, workers=4)
    assert [r["trial"] for r in records] == list(range(64))


def _assert_no_child_left():
    # every worker was reaped: this process has no child to wait for
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _scripted_stops(job):
    # job j stands for a block of j % 3 trials, each (j, i); the job named
    # "raise" fails in its worker, "exit" ends its worker with status 7,
    # "sleep" runs for a minute
    if job == "raise":
        raise ValueError("scripted failure")
    if job == "exit":
        os._exit(7)
    if job == "sleep":
        time.sleep(60)
    return [(job, i) for i in range(job % 3)]


@pytest.mark.parametrize("workers", [2, 3, 4, 9])
def test_run_puts_worker_results_in_job_order(monkeypatch, workers):
    monkeypatch.setattr(harness, "_stops", _scripted_stops)
    jobs = list(range(9))
    assert harness._run(jobs, workers) == [(j, i) for j in jobs for i in range(j % 3)]
    _assert_no_child_left()


def test_run_runs_no_job_in_the_calling_process(monkeypatch):
    # each of the 3 workers runs 2 of the 6 jobs; the caller runs none
    monkeypatch.setattr(harness, "_stops", lambda job: [(os.getpid(), job)])
    out = harness._run(list(range(6)), 3)
    assert [job for _, job in out] == list(range(6))
    pids = {pid for pid, _ in out}
    assert len(pids) == 3 and os.getpid() not in pids
    _assert_no_child_left()


@pytest.mark.parametrize("failing", [0, 1])
def test_run_raises_a_workers_exception(monkeypatch, failing):
    # the parent reads worker 0 first: a failure there leaves worker 1 to be
    # stopped, a failure in worker 1 comes after worker 0's results
    monkeypatch.setattr(harness, "_stops", _scripted_stops)
    jobs = [2, 4, 5, 7]
    jobs[failing] = "raise"
    with pytest.raises(ValueError, match="^scripted failure$") as info:
        harness._run(jobs, 2)
    assert info.type is ValueError
    _assert_no_child_left()


def test_run_names_a_worker_that_ends_without_a_result(monkeypatch):
    monkeypatch.setattr(harness, "_stops", _scripted_stops)
    with pytest.raises(RuntimeError, match=r"worker 1 ended without a result \(wait status 1792\)"):
        harness._run([1, "exit", 2], 2)
    _assert_no_child_left()


def test_run_stops_its_workers_when_interrupted(monkeypatch):
    # worker 0's result arrives, then the parent is interrupted while
    # worker 1 still runs: it must stop and reap worker 1, not wait for it
    monkeypatch.setattr(harness, "_stops", _scripted_stops)

    def interrupt(data):
        raise KeyboardInterrupt

    monkeypatch.setattr(pickle, "loads", interrupt)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        harness._run([1, "sleep"], 2)
    assert time.monotonic() - start < 30
    _assert_no_child_left()


def test_run_experiment_blocks_are_worker_count_invariant():
    # 130 trials of 16 nodes fall into blocks of 64, 64 and 2 per AC rule,
    # next to 130 one-trial 2-Choices blocks
    spec = ExperimentSpec(
        rules=(voter_rule(), h_majority_rule(3), two_choices_rule()),
        n=16,
        initial="ncolor",
        stop=StopCondition(kappa=1, max_rounds=2_000),
        trials=130,
        seed=4,
    )
    serial = run_experiment(spec, workers=1)
    assert [(r["rule"], r["trial"]) for r in serial] == [
        (rule, trial) for rule in ("voter", "hmaj:3", "2choices") for trial in range(130)
    ]
    assert all(r["stop_time"] is not None and r["max_support_peak"] == 16 for r in serial)
    for workers in (2, 4):
        assert run_experiment(spec, workers=workers) == serial


def test_two_choices_records_come_from_one_stream_per_trial():
    # a 2-Choices block holds one trial: record i runs on stream
    # ("sim", "2choices", "block", i) through the driver's own rounds
    spec = ExperimentSpec(
        rules=(two_choices_rule(),),
        n=24,
        initial="ncolor",
        stop=StopCondition(kappa=1, max_rounds=10**4),
        trials=5,
        seed=6,
    )
    c0 = initial_counts(spec.initial, spec.n)
    records = run_experiment(spec)
    assert [r["trial"] for r in records] == list(range(5))
    for i, rec in enumerate(records):
        rng = RngStream(spec.seed, ("sim", "2choices", "block", i))
        (t, _, peak), = run_block(two_choices_rule(), [c0], spec.stop, rng)
        assert (rec["stop_time"], rec["max_support_peak"]) == (t, peak)
    assert len({r["stop_time"] for r in records}) > 1  # the trials draw independently


def test_run_trials_lays_out_blocks_and_streams():
    # 130 Voter trials of 16 nodes are blocks of 64, 64 and 2, block b on
    # rng.child("block", b); a 2-Choices block holds one trial
    stop, rng = StopCondition(kappa=1, max_rounds=2_000), RngStream(15, ("layout",))
    c0 = initial_counts("ncolor", 16)
    expected = [
        (t, peak)
        for b, size in enumerate((64, 64, 2))
        for t, _, peak in run_block(voter_rule(), [c0] * size, stop, rng.child("block", b))
    ]
    assert run_trials(voter_rule(), c0, 130, stop, rng) == expected
    assert len(set(expected)) > 1  # the trials draw independently
    expected = [
        (t, peak)
        for b in range(3)
        for t, _, peak in run_block(two_choices_rule(), [c0], stop, rng.child("block", b))
    ]
    assert run_trials(two_choices_rule(), c0, 3, stop, rng) == expected


def test_slow_start_window_derived_quantities():
    ell_prime, t0 = slow_start_window(1000, 1, 4.0)
    assert ell_prime == max(2, math.ceil(4.0 * math.log(1000)))
    assert t0 == math.floor(1000 / (4.0 * ell_prime))
    # t0 divides by gamma, and ceil(gamma ln n) and int(t0) need finite floats
    for gamma in (0.0, -1.0, math.nan, math.inf, 1e308, 1e-310):
        with pytest.raises(ValueError, match="gamma"):
            slow_start_window(1000, 1, gamma)


@pytest.mark.parametrize(
    "init", ["ncolor", "biased:10:40"], ids=["ncolor", "biased"]
)
def test_lower_bound_window_comes_from_the_start(init):
    initial = initial_counts(init, 1000)
    out = run_lower_bound_experiment(initial, 1.0, trials=2, rng=RngStream(8))
    assert out["n"] == int(initial.sum()) == 1000
    assert out["ell"] == int(initial.max())
    assert (out["ell_prime"], out["t0"]) == slow_start_window(1000, int(initial.max()), 1.0)
    assert out["t0"] >= 1


@pytest.mark.parametrize(
    "init, n, gamma, window",
    [
        # ell_prime = max(2 * 5, ceil(0.1 ln 10)) = 10 = n: no support can pass it
        ("balanced:2", 10, 0.1, (10, 10)),
        # ell_prime = ceil(13 ln 1000) = 90 < n, t0 = floor(1000 / 1170) = 0: no round
        ("ncolor", 1000, 13.0, (90, 0)),
    ],
    ids=["ell-prime-at-n", "t0-zero"],
)
def test_lower_bound_window_nothing_can_exceed(monkeypatch, init, n, gamma, window):
    # every trial reports None without drawing a round
    def no_round(*args):
        raise AssertionError("a round was drawn")

    monkeypatch.setattr(harness, "run_trials", no_round)
    out = run_lower_bound_experiment(initial_counts(init, n), gamma, 3, RngStream(0))
    assert (out["ell_prime"], out["t0"]) == window
    assert out["first_exceedance_times"] == [None, None, None]
    assert out["exceedance_fraction"] == 0.0


def test_run_lower_bound_experiment_reports_fraction():
    initial = canonicalize([2] + [1] * 498)
    out = run_lower_bound_experiment(initial, 4.0, trials=5, rng=RngStream(3))
    assert out["trials"] == 5
    assert 0.0 <= out["exceedance_fraction"] <= 1.0
    assert len(out["first_exceedance_times"]) == 5


def test_coupled_process_dominates_tracked_color():
    initial = canonicalize([2] + [1] * 498)
    lp, t0 = slow_start_window(500, 2, 4.0)
    for seed in range(5):
        pairs = run_coupled_dominating_process(
            initial, 4.0, rounds=t0, rng=RngStream(seed, ("cpl",))
        )
        assert pairs[0] == (2, 2)
        for c_col, p_val in pairs:
            if c_col > lp:
                break
            assert c_col <= p_val


def test_coupled_process_monotone_dominating_side():
    initial = canonicalize([1] * 300)
    pairs = run_coupled_dominating_process(initial, 4.0, rounds=10, rng=RngStream(1))
    ps = [p for _, p in pairs]
    assert ps == sorted(ps)


def test_two_phase_check_runs():
    out = run_two_phase_check(256, trials=3, seed=4)
    assert len(out["rows"]) == 3
    for row in out["rows"]:
        assert row["phase1_hmaj:3"] is not None
        assert row["phase2_hmaj:3"] is not None
        assert row["phase1_voter"] is not None
    assert 0.0 <= out["hmaj_not_slower_fraction"] <= 1.0
    assert out["voter_phase1_mean"] > 0


def test_two_phase_check_starts_phase_two_from_phase_one(monkeypatch):
    calls = []
    real = harness.run_block

    def recording(rule, starts, stop, rng):
        out = real(rule, starts, stop, rng)
        calls.append((rule.label(), stop.kappa, rng.stream_id, starts, [c for _, c, _ in out]))
        return out

    monkeypatch.setattr(harness, "run_block", recording)
    out = run_two_phase_check(256, trials=3, seed=4)
    voter, (rule1, kappa1, stream1, _, ends), (rule2, kappa2, stream2, starts2, _) = calls
    assert (rule1, kappa1, rule2, kappa2, voter[:2]) == ("hmaj:3", 4, "hmaj:3", 1, ("voter", 4))
    # phase 2 continues every phase-1 row, in order, on the same stream
    assert stream1 == stream2 != voter[2]
    assert [c.tolist() for c in starts2] == [c.tolist() for c in ends]
    assert [r["total_hmaj:3"] for r in out["rows"]] == [
        r["phase1_hmaj:3"] + r["phase2_hmaj:3"] for r in out["rows"]
    ]


def test_two_phase_check_rejects_small_n():
    with pytest.raises(ValueError):
        run_two_phase_check(100, trials=1)


def test_write_jsonl_and_csv(tmp_path):
    records = [
        {"rule": "voter", "stop_time": 10, "censored": False, "trial": 0},
        {"rule": "voter", "stop_time": 14, "censored": False, "trial": 1},
        {"rule": "hmaj:3", "stop_time": 6, "censored": False, "trial": 0},
    ]
    jpath = tmp_path / "out.jsonl"
    cpath = tmp_path / "summary.csv"
    write_jsonl(records, str(jpath))
    lines = jpath.read_text().strip().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0])["rule"] == "voter"
    write_csv_summary(records, str(cpath))
    with open(cpath) as fh:
        rows = list(csv.DictReader(fh))
    by_rule = {r["rule"]: r for r in rows}
    assert float(by_rule["voter"]["mean"]) == 12.0
    assert float(by_rule["hmaj:3"]["mean"]) == 6.0

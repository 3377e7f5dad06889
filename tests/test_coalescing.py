import re

import numpy as np
import pytest

from consensuslab import coalescing
from consensuslab.coalescing import (
    CouplingViolation,
    Graph,
    complete_graph,
    coalescence_time_stats,
    cycle_graph,
    draw_map_table,
    duality_check,
    graph_from_edge_list,
    run_coalescence,
    walk_count_chain,
)
from consensuslab.drift import step_moments
from consensuslab.sampler import RngStream


def expected_distinct_after_step(n: int, x: int) -> float:
    """Exact E[X_{t+1} | X_t = x] for complete-graph neighbor-only moves.

    Occupancy computation: each node v is missed by a walk at u != v with
    probability 1 - 1/(n-1), so P(v unoccupied) = (1-1/(n-1))^(x - [v occupied]).
    """
    q = 1.0 - 1.0 / (n - 1)
    # occupied nodes cannot be hit by their own walk
    occupied = x * (1.0 - q ** (x - 1))
    free = (n - x) * (1.0 - q**x)
    return occupied + free


def test_complete_graph_neighbor_map_excludes_self():
    g = complete_graph(8)
    for t in range(50):
        row = g.neighbor_map_row(RngStream(0, (t,)))
        assert row.shape == (8,)
        assert np.all(row != np.arange(8))
        assert np.all((0 <= row) & (row < 8))


def test_cycle_graph_neighbor_map_moves_to_adjacent():
    n = 10
    g = cycle_graph(n)
    for t in range(50):
        row = g.neighbor_map_row(RngStream(1, (t,)))
        diffs = (row - np.arange(n)) % n
        assert np.all(np.isin(diffs, [1, n - 1]))


def test_graph_from_edge_list():
    text = "3 3\n0 1\n1 2\n2 0\n"
    g = graph_from_edge_list(text)
    assert g.n == 3
    assert sorted(g.adjacency[0].tolist()) == [1, 2]
    assert sorted(g.adjacency[1].tolist()) == [0, 2]


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 2\n0 1\n1 -1\n", "line 3: endpoint"),  # -1 would wrap to node 2
        ("3 2\n0 1\n1 3\n", "line 3: endpoint"),
        ("", "empty file"),
        ("\n  \n", "empty file"),
        ("3 3\n0 1\n1 2\n", "line 1: header says 3 edges, file has 2"),
        ("3 1\n0 1\n1 2\n", "line 1: header says 1 edges, file has 2"),
        ("3\n0 1\n", "line 1: want two integers"),
        ("3 2\n0 1\n\n1 x\n", "line 4: want two integers"),
        ("3 3\n0 0\n0 1\n1 2\n", "line 2: self-loop '0 0'"),
        ("3 3\n0 1\n1 2\n0 1\n", "line 4: duplicate edge '0 1'"),
        ("3 3\n0 1\n1 2\n2 1\n", "line 4: duplicate edge '2 1'"),
    ],
    ids=["negative", "past-n", "empty", "blank", "short", "long", "header", "not-int",
         "self-loop", "duplicate", "duplicate-reversed"],
)
def test_graph_from_edge_list_rejects_malformed_files(text, message):
    with pytest.raises(ValueError, match=message):
        graph_from_edge_list(text)


def test_graph_rejects_isolated_vertex():
    with pytest.raises(ValueError):
        graph_from_edge_list("3 1\n0 1\n")


def test_run_coalescence_counts_never_increase():
    g = complete_graph(32)
    maps = draw_map_table(g, 100, RngStream(5))
    counts = run_coalescence(maps).tolist()
    assert counts[0] == 32
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] >= 1


def run_voter_with_maps(maps: np.ndarray, tau: int) -> int:
    """The literal per-tau oracle of `coalescing._voter_counts_all_horizons`:
    the opinion count after tau Voter rounds run through the reversed maps.
    Every node starts with its own color; round r pulls through map row
    Y_{tau-r}."""
    if tau > len(maps):
        raise ValueError("tau exceeds available map rounds")
    opinions = np.arange(maps.shape[1])
    for r in range(1, tau + 1):
        opinions = opinions[maps[tau - r]]
    return int(np.unique(opinions).size)


def test_voter_with_maps_tau_zero_keeps_all_opinions():
    g = complete_graph(16)
    maps = draw_map_table(g, 10, RngStream(2))
    assert run_voter_with_maps(maps, 0) == 16


# unequal degrees: 4, 2, 2, 1, 2, 1
IRREGULAR = "6 6\n0 1\n0 2\n0 3\n0 4\n1 2\n4 5\n"


def test_lifted_voter_replay_matches_per_tau_oracle():
    # powers of two and their neighbours add a level, use the top bit alone, or both
    for g in (complete_graph(9), cycle_graph(7), graph_from_edge_list(IRREGULAR)):
        for t_max in (0, 1, 2, 3, 7, 8, 9, 64):
            maps = draw_map_table(g, t_max, RngStream(20, (g.n, t_max)))
            lifted = coalescing._voter_counts_all_horizons(maps).tolist()
            assert lifted == [run_voter_with_maps(maps, tau) for tau in range(t_max + 1)]


def _forward_voter_counts(maps):
    """The wrong composition order: round r pulls through Y_{r-1}, Y_0 first."""
    counts = []
    for tau in range(len(maps) + 1):
        opinions = np.arange(maps.shape[1])
        for row in maps[:tau]:
            opinions = opinions[row]
        counts.append(np.unique(opinions).size)
    return np.array(counts)


def test_duality_check_fails_on_forward_order_replay(monkeypatch):
    g, t_max = complete_graph(16), 30
    maps = draw_map_table(g, t_max, RngStream(21))
    forward, walks = _forward_voter_counts(maps), run_coalescence(maps)
    differ = np.flatnonzero(forward != walks)
    assert differ.size > 1  # so the message must name the first of several
    tau = differ[0]
    message = f"tau={tau}: voter has {forward[tau]} opinions, walks number {walks[tau]}"
    monkeypatch.setattr(coalescing, "_voter_counts_all_horizons", _forward_voter_counts)
    with pytest.raises(CouplingViolation, match=f"^{re.escape(message)}$"):
        duality_check(g, t_max, RngStream(21))


def test_draw_map_table_matches_row_by_row_draws():
    for g in (graph_from_edge_list(IRREGULAR), complete_graph(7)):
        for t_max in (0, 1, 5, 33):
            rng = RngStream(22, (g.n, t_max))
            rows = [g.neighbor_map_row(rng) for _ in range(t_max)]
            table = draw_map_table(g, t_max, RngStream(22, (g.n, t_max)))
            assert table.shape == (t_max, g.n)
            assert np.array_equal(table, np.array(rows, dtype=np.int64).reshape(t_max, g.n))


def test_duality_identity_small_graphs():
    for g, t_max in ((complete_graph(16), 60), (cycle_graph(12), 120)):
        for seed in range(10):
            duality_check(g, t_max, RngStream(seed, ("dual", g.n)))


def test_duality_identity_on_explicit_graph():
    g = graph_from_edge_list("4 4\n0 1\n1 2\n2 3\n3 0\n")
    duality_check(g, 50, RngStream(3))


def test_expected_distinct_after_step_tiny_case():
    # n=3, x=2: the walks collide only when both jump to the third node,
    # probability 1/4, so E[distinct] = 2 - 1/4
    assert np.isclose(expected_distinct_after_step(3, 2), 1.75)


def test_expected_distinct_after_step_single_walk():
    assert np.isclose(expected_distinct_after_step(10, 1), 1.0)


def test_empirical_drift_matches_occupancy_oracle():
    chain = walk_count_chain(50)
    for x in (2, 10, 25, 50):
        mean, sigma = step_moments(chain, x, 4000, RngStream(4, (x,)).gen)
        oracle = expected_distinct_after_step(50, x)
        assert abs(mean - oracle) <= 4 * sigma + 1e-9


def test_walk_count_chain_matches_direct_estimate():
    n, x = 40, 15
    chain = walk_count_chain(n)
    gen = RngStream(6).gen
    vals = np.array([chain(x, gen) for _ in range(4000)])
    oracle = expected_distinct_after_step(n, x)
    assert abs(vals.mean() - oracle) <= 4 * vals.std(ddof=1) / np.sqrt(len(vals)) + 1e-9


def test_walk_count_chain_starts_walks_on_distinct_nodes():
    # on K_2 two walks on distinct nodes swap places, so the count stays 2;
    # walks placed with replacement would share a node half the time. The
    # occupancy tests cannot see that placement at n = 40 or 50: it moves
    # E[X_{t+1}] by about x^2 q^x / (2n (n-2)^2), under 0.004
    chain, gen = walk_count_chain(2), RngStream(7).gen
    assert [chain(2, gen) for _ in range(200)] == [2.0] * 200


def test_walk_count_chain_rejects_counts_outside_one_to_n():
    chain, gen = walk_count_chain(10), RngStream(8).gen
    assert chain(1, gen) == 1.0
    for x in (0, 11, -3):
        with pytest.raises(ValueError, match="need 1 <= x <= n = 10"):
            chain(x, gen)


def test_coalescence_time_stats_small():
    g = complete_graph(30)
    times = coalescence_time_stats(g, k=1, trials=50, rng=RngStream(10))
    assert None not in times
    assert all(t >= 1 for t in times)
    # complete-graph meeting times scale like n; 20n is a generous ceiling
    assert np.mean(times) <= 20 * g.n


def test_coalescence_time_stats_on_cycles():
    # an odd cycle is not bipartite, so all walks meet; on an even cycle
    # walks at odd distance never do, so k = 1 is always censored
    odd = coalescence_time_stats(cycle_graph(9), k=1, trials=20, rng=RngStream(12))
    assert None not in odd
    assert all(1 <= t < 10**4 for t in odd)
    even = coalescence_time_stats(cycle_graph(8), k=1, trials=5, rng=RngStream(12), max_rounds=500)
    assert even.count(None) == 5
    # from 8 walks, neighbor moves keep the two parity classes apart
    assert None not in coalescence_time_stats(cycle_graph(8), k=2, trials=5, rng=RngStream(13))


def test_coalescence_time_stats_censors_unreachable_k_without_stepping(monkeypatch):
    # walks in different components, or on opposite sides of a bipartite
    # one, never meet; at the default max_rounds of 10**6 each such trial
    # would run for about 20 s, so none may take a step
    square_and_triangle = graph_from_edge_list("7 7\n0 1\n1 2\n2 3\n3 0\n4 5\n5 6\n6 4\n")
    two_triangles = graph_from_edge_list("6 6\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n")

    def no_step(self, nodes, gen):
        raise AssertionError("stepped a trial that cannot finish")

    monkeypatch.setattr(Graph, "random_neighbors", no_step)
    for g, k in ((cycle_graph(8), 1), (complete_graph(2), 1), (two_triangles, 1), (square_and_triangle, 2)):
        assert coalescence_time_stats(g, k, trials=3, rng=RngStream(14)) == [None] * 3
    monkeypatch.undo()
    # one walk class per triangle, two on the square: these k are reachable
    for g, k in ((two_triangles, 2), (square_and_triangle, 3)):
        assert None not in coalescence_time_stats(g, k, trials=3, rng=RngStream(14))


def test_explicit_graph_random_neighbors_match_adjacency():
    g = graph_from_edge_list("4 4\n0 1\n0 2\n0 3\n1 2\n")
    nodes = np.repeat(np.arange(4), 2000)
    picks = g.random_neighbors(nodes, np.random.default_rng(0))
    for u in range(4):
        got = np.bincount(picks[nodes == u], minlength=4)
        assert set(np.flatnonzero(got)) == set(g.adjacency[u].tolist())


def test_coalescence_time_stats_k_equals_n_is_zero():
    g = complete_graph(10)
    assert coalescence_time_stats(g, k=10, trials=5, rng=RngStream(11)) == [0] * 5


def test_coalescence_time_stats_validates_k():
    g = complete_graph(10)
    with pytest.raises(ValueError):
        coalescence_time_stats(g, k=0, trials=5, rng=RngStream(0))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(n=1, adjacency=None)
    with pytest.raises(ValueError):
        cycle_graph(2)

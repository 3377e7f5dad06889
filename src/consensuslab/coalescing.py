"""Coalescing random walks and the time-reversal coupling with Voter.

One walk starts on each node; each round every walk moves to a uniformly
random neighbor, and walks meeting on a node merge. Running Voter backwards
through the same neighbor-choice maps yields, round for round, exactly as
many opinions as there are surviving walks: the duality identity checked
here. Walks never stay put (neighbor-only moves), unlike the self-inclusive
AC Voter of the rules module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import CouplingViolation
from .sampler import RngStream


@dataclass
class Graph:
    """Complete graph (adjacency None) or explicit symmetric adjacency."""

    n: int
    adjacency: Optional[list[np.ndarray]] = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("graph needs at least 2 nodes")
        if self.adjacency is not None:
            if len(self.adjacency) != self.n:
                raise ValueError("adjacency length must equal n")
            for u, nbrs in enumerate(self.adjacency):
                if len(nbrs) == 0:
                    raise ValueError(f"node {u} has degree 0")
            # flat CSR form: the neighbors of u are targets[offsets[u]:offsets[u+1]]
            self._targets = np.concatenate(self.adjacency)
            self._offsets = np.concatenate(([0], np.cumsum([len(a) for a in self.adjacency])))

    @property
    def is_complete(self) -> bool:
        return self.adjacency is None

    def random_neighbors(self, nodes: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        """One independent uniform neighbor of each entry of `nodes`."""
        if self.is_complete:
            r = gen.integers(0, self.n - 1, size=nodes.size)
            return np.where(r >= nodes, r + 1, r)
        start = self._offsets[nodes]
        return self._targets[start + gen.integers(0, self._offsets[nodes + 1] - start)]

    def neighbor_map_row(self, rng: RngStream) -> np.ndarray:
        """One round of uniform neighbor choices Y(u) for all nodes."""
        return self.random_neighbors(np.arange(self.n), rng.gen)


def complete_graph(n: int) -> Graph:
    return Graph(n)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 nodes")
    adj = [np.array([(u - 1) % n, (u + 1) % n]) for u in range(n)]
    return Graph(n, adj)


def graph_from_edge_list(text: str) -> Graph:
    """Parse "n m" header plus m lines "u v" (0-indexed, undirected); blank
    lines are skipped. A malformed file, a self-loop (a walk would stay put)
    or an edge given twice raises ValueError naming its line."""
    rows = []  # (line number, its two integers)
    for i, ln in enumerate(text.splitlines(), 1):
        if ln.strip():
            try:
                a, b = map(int, ln.split())
            except ValueError:  # not two integers
                raise ValueError(f"edge list line {i}: want two integers, got {ln.strip()!r}") from None
            rows.append((i, a, b))
    if not rows:
        raise ValueError("edge list: empty file, want an 'n m' header")
    (head, n, m), edges = rows[0], rows[1:]
    if len(edges) != m:
        raise ValueError(f"edge list line {head}: header says {m} edges, file has {len(edges)}")
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for i, u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge list line {i}: endpoint of '{u} {v}' not in 0..{n - 1}")
        if u == v:
            raise ValueError(f"edge list line {i}: self-loop '{u} {v}'")
        if v in nbrs[u]:
            raise ValueError(f"edge list line {i}: duplicate edge '{u} {v}'")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(n, [np.array(sorted(s)) for s in nbrs])


def draw_map_table(g: Graph, t_max: int, rng: RngStream) -> np.ndarray:
    """All t_max rounds of neighbor choices in one draw: a (t_max, n) int64
    array whose entry [t, u] is the neighbor u chose in round t.

    Same stream as t_max successive `neighbor_map_row` calls: the neighbor
    draw takes one bounded integer per entry, in order.
    """
    nodes = np.tile(np.arange(g.n), t_max)
    return g.random_neighbors(nodes, rng.gen).reshape(t_max, g.n)


def _distinct_per_row(a: np.ndarray) -> np.ndarray:
    """Number of distinct values in each row of a 2-d int array."""
    s = np.sort(a, axis=1)
    return 1 + np.count_nonzero(s[:, 1:] != s[:, :-1], axis=1)


def run_coalescence(maps: np.ndarray) -> np.ndarray:
    """Walk count at every t in 0..t_max of walks run through the (t_max, n)
    map table: X_t = Y_{t-1}(X_{t-1})."""
    pos = np.empty((len(maps) + 1, maps.shape[1]), dtype=np.int64)
    pos[0] = np.arange(maps.shape[1])
    for t, row in enumerate(maps):
        pos[t + 1] = row[pos[t]]
    return _distinct_per_row(pos)


def _voter_counts_all_horizons(maps: np.ndarray) -> np.ndarray:
    """Opinion count after tau Voter rounds run through the reversed maps,
    for every tau in 0..t_max at once. Every node starts with its own color;
    round r of horizon tau pulls through map row Y_{tau-r}.

    Binary lifting: horizon tau pulls through one window of 2^j rounds per
    set bit j of tau, lowest bit first, so the windows run from round tau-1
    down to round 0. Row s of `window` pulls through rounds s..s+2^j-1
    (latest first); two adjacent windows compose into the next level's.
    """
    t_max = len(maps)
    taus = np.arange(t_max + 1)
    opinions = np.tile(np.arange(maps.shape[1]), (t_max + 1, 1))
    window = maps
    length = 1
    while length <= t_max:
        rows = taus[(taus & length) != 0]
        end = rows & ~(length - 1)  # the windows of the lower bits are pulled already
        opinions[rows] = np.take_along_axis(opinions[rows], window[end - length], axis=1)
        if 2 * length <= t_max:
            window = np.take_along_axis(window[length:], window[:-length], axis=1)
        length *= 2
    return _distinct_per_row(opinions)


def duality_check(g: Graph, t_max: int, rng: RngStream) -> None:
    """Check the exact duality on one map table drawn on g: voter opinions
    == walk count at every tau, else raise CouplingViolation."""
    maps = draw_map_table(g, t_max, rng)
    walks = run_coalescence(maps)
    voter = _voter_counts_all_horizons(maps)
    bad = np.flatnonzero(voter != walks)
    if bad.size:
        tau = int(bad[0])
        raise CouplingViolation(
            f"tau={tau}: voter has {voter[tau]} opinions, walks number {walks[tau]}"
        )


def _walk_classes(g: Graph) -> int:
    """Classes of walks that never meet: per connected component, 2 if it is
    bipartite (each move flips every walk's side), else 1."""
    if g.is_complete:
        return 2 if g.n == 2 else 1
    side, classes = [-1] * g.n, 0
    for root in range(g.n):
        if side[root] < 0:
            side[root], stack, bipartite = 0, [root], True
            while stack:
                u = stack.pop()
                for v in g.adjacency[u].tolist():
                    if side[v] < 0:
                        side[v] = 1 - side[u]
                        stack.append(v)
                    bipartite = bipartite and side[v] != side[u]
            classes += 2 if bipartite else 1
    return classes


def coalescence_time_stats(
    g: Graph, k: int, trials: int, rng: RngStream, max_rounds: int = 10**6
) -> list[Optional[int]]:
    """Per trial, the first round at which the walk count is <= k, or None
    for a trial censored at max_rounds. Trial j draws from rng.child(j)."""
    if not 1 <= k <= g.n:
        raise ValueError("need 1 <= k <= n")
    if k < _walk_classes(g):  # no trial can finish: report all censored unrun
        return [None] * trials
    times: list[Optional[int]] = []
    for trial in range(trials):
        gen = rng.child(trial).gen
        pos = np.arange(g.n)
        t = 0
        while pos.size > k and t < max_rounds:
            pos = np.unique(g.random_neighbors(pos, gen))  # meeting walks merge
            t += 1
        times.append(t if pos.size <= k else None)
    return times


def walk_count_chain(n: int):
    """The walk-count chain on the complete graph, as a drift.validate_bound
    chain: step(x, gen) puts x walks on nodes 0..x-1, moves each once and
    counts the distinct positions. K_n maps any x-set of nodes onto any
    other, so this is the law of the next count from any x distinct nodes.
    """
    g = complete_graph(n)

    def step(x: float, gen: np.random.Generator) -> float:
        x = int(round(x))
        if not 1 <= x <= n:
            raise ValueError(f"need 1 <= x <= n = {n}, got x = {x}")
        return float(np.unique(g.random_neighbors(np.arange(x), gen)).size)

    return step

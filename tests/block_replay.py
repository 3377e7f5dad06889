"""rules.run_block as a literal loop over rows: the oracle of its draws.

Not a test module (pytest does not collect it); the block tests import it.
"""

import numpy as np

from consensuslab import rules
from consensuslab.core import multinomial_pvals


def _colors(row):
    """A padded row's canonical counts, as a tuple."""
    return tuple(sorted((x for x in row if x), reverse=True))


def replay_block(rule, starts, stop, rng):
    """Replay run_block round by round: the live rows in order, one
    gen.multinomial per row on that row's pvals, and the same trimming.
    numpy's 2-d multinomial draws its rows in this order from the same
    generator, so the replay repeats a block's draws exactly. A lone live
    row (one start, or a block's last) is drawn 1-d on its current row
    and then canonicalized: sorted non-increasing, zeros dropped.

    Returns, per start, (t, c_t, rounds): t and c_t as run_block gives
    them (c_t as a tuple) and the canonical counts of every round the row
    ran, round 0 included.
    """
    gen, n = rng.gen, int(starts[0].sum())
    width = max(len(c) for c in starts)
    rows = [c.tolist() + [0] * (width - len(c)) for c in starts]
    rounds = [[_colors(row)] for row in rows]
    stopped_at = [None] * len(starts)
    live = list(range(len(starts)))
    t = 0
    while True:
        for r in list(live):
            last = rounds[r][-1]
            if len(last) <= stop.kappa or (stop.above is not None and last[0] > stop.above):
                stopped_at[r] = t
                live.remove(r)
        if t == stop.max_rounds or not live:
            break
        t += 1
        if len(live) == 1:
            (r,) = live
            alpha = rules._alpha(rule, np.array(rows[r]) / n)
            rows[r] = list(_colors(gen.multinomial(n, multinomial_pvals(alpha))))
            rounds[r].append(tuple(rows[r]))
            continue
        widest = max(len(rounds[r][-1]) for r in live)
        if 4 * widest <= 3 * width:
            for r in live:
                rows[r] = sorted(rows[r], reverse=True)[:widest]
            width = widest
        alpha = rules._alpha(rule, np.array([rows[r] for r in live]) / n)
        for r, pvals in zip(live, multinomial_pvals(alpha, rows=True)):
            rows[r] = gen.multinomial(n, pvals).tolist()
            rounds[r].append(_colors(rows[r]))
    return [(stopped_at[r], rounds[r][-1], rounds[r]) for r in range(len(starts))]

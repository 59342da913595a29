"""The split scan: per-level bins, prefix sums and one float32 tie rule.

A tree codes each feature as integer levels once (`tree.grow_tree`): an
ordered column by its sorted distinct values, the cause by its registry
codes. `best_cut` scans one feature over a whole frontier, every node of a
depth at once: one `bincount` over (node, level) keys, the levels of each
node put in scan order, a cumulative sum along them and one row-wise argmax.

There are two scan orders. An ordered feature scans its levels in code
order, so a cut is a threshold. The cause scans the levels present in a node
in float32 order of their rate D/d, ties by code; prefixes of that order are
the optimal cuts of a categorical feature (Breiman et al., 1984), and the
order differs from node to node. A node's bins sum its points in the order
given and an absent level adds +0.0, so a node scans the same sums whatever
frontier it is in.

Reductions are compared at float32 so that tie-breaks do not hinge on the
last bits of a cumulative sum. One tie rule serves both orders: among cuts
at the float32 maximum, the lexicographically smallest sorted left set of
levels wins. In code order that is the first cut, the smallest threshold.
"""

from __future__ import annotations

import numpy as np

# (node, level) cells that one frontier scan holds at once; a frontier whose
# table would be larger is scanned in blocks of nodes
_SCAN_CELLS = 1 << 18


def _cut_reductions(sL, DL, dL, s_tot, d_tot, v_tot):
    """Deviance reduction of cuts from the left sums of each cut and the
    totals of its block: the sums of the terms D*log(D/d), of the responses D
    and of the volumes d. Each side is fitted at its own rate."""
    sR, DR, dR = s_tot - sL, d_tot - DL, v_tot - dL
    with np.errstate(divide="ignore", invalid="ignore"):
        parent = 2.0 * (s_tot - np.where(d_tot > 0, d_tot * np.log(d_tot / v_tot), 0.0))
        dev_left = 2.0 * (sL - np.where(DL > 0, DL * np.log(DL / dL), 0.0))
        dev_right = 2.0 * (sR - np.where(DR > 0, DR * np.log(DR / dR), 0.0))
    return parent - dev_left - dev_right


def best_cut(codes, node_of, n_nodes, slogs, deaths, vols, n_levels, min_bucket, by_rate=False):
    """Best cut of one feature at every node of a frontier.

    The frontier's points come grouped by node, nodes in ascending order:
    node_of[i] in [0, n_nodes) is point i's node, codes[i] its level in
    [0, n_levels), slogs[i] its term D*log(D/d). Levels are scanned in code
    order, or with by_rate in rate order. Returns (left, right, reduction):
    left and right are (n_nodes, n_levels) masks of the levels present that
    the cut sends to each child. A node without a cut that leaves min_bucket
    points on each side has reduction -inf and an empty left mask.
    """
    step = max(1, _SCAN_CELLS // n_levels)
    firsts = np.arange(0, n_nodes, step)
    bounds = np.append(np.searchsorted(node_of, firsts), node_of.size)
    blocks = [
        _block_cut(codes[a:b], node_of[a:b] - first, min(step, n_nodes - first),
                   slogs[a:b], deaths[a:b], vols[a:b], n_levels, min_bucket, by_rate)
        for first, a, b in zip(firsts, bounds[:-1], bounds[1:])
    ]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _block_cut(codes, node_of, n_nodes, slogs, deaths, vols, n_levels, min_bucket, by_rate):
    """`best_cut` over a (nodes, levels) table held at once."""
    keys = node_of * n_levels + codes
    counts, s, D, d = (
        np.bincount(keys, weights=w, minlength=n_nodes * n_levels).reshape(n_nodes, n_levels)
        for w in (None, slogs, deaths, vols)
    )
    present = counts > 0
    rank = np.arange(n_levels)  # each level's position in scan order
    if by_rate:
        # levels present first, by float32 rate; the stable sort keeps ties in code order
        with np.errstate(divide="ignore", invalid="ignore"):
            order = np.lexsort(((D / d).astype(np.float32), ~present), axis=1)
        counts, s, D, d = (np.take_along_axis(x, order, axis=1) for x in (counts, s, D, d))
        rank = np.empty_like(order)
        np.put_along_axis(rank, order, np.arange(n_levels), axis=1)
    left_n = counts.cumsum(axis=1)
    total_n = left_n[:, -1:]
    # a cut after a level present, before another one, min_bucket on each side
    ok = (counts > 0) & (left_n < total_n) & (left_n >= min_bucket) & (total_n - left_n >= min_bucket)
    cells = np.flatnonzero(ok)
    rows = cells // n_levels
    cs, cD, cd = (x.cumsum(axis=1) for x in (s, D, d))
    red = np.full(ok.shape, -np.inf)
    red.ravel()[cells] = _cut_reductions(
        cs.ravel()[cells], cD.ravel()[cells], cd.ravel()[cells],
        cs[rows, -1], cD[rows, -1], cd[rows, -1],
    )
    red32 = red.astype(np.float32)
    # the first float32 maximum of a row is its smallest threshold
    cut = red32.argmax(axis=1)
    if by_rate:
        # rate order: of the tied cuts, the smallest sorted left set wins
        tied = ok & (red32 == red32.max(axis=1, keepdims=True))
        for k in np.flatnonzero(tied.sum(axis=1) > 1):
            cut[k] = min(np.flatnonzero(tied[k]), key=lambda j: sorted(order[k, : j + 1].tolist()))
    reduction = red[np.arange(n_nodes), cut]
    cut[reduction == -np.inf] = -1
    left = present & (rank <= cut[:, None])
    return left, present & ~left, reduction

"""The split scans: per-level bins, prefix sums and one float32 tie rule.

A tree codes each feature as integer levels once (`tree.grow_tree`): an
ordered column by its sorted distinct values, the cause by its registry
codes. A scan bins points by level, puts the levels present in scan order
and scores the cut after every level from prefix sums over the bins.

Two scans share that arithmetic. `best_cut` scans one ordered feature over
a whole frontier, every node of a depth at once: one `bincount` over
(node, level) keys, a cumulative sum along the levels of each node and one
row-wise argmax. `scan_levels` scans one node's points; the tree uses it for
the cause, whose levels go in rate order, which differs from node to node.
A node's bins sum its points in the order given and an absent level adds
+0.0, so both scans see the same sums for the same node.

Reductions are compared at float32 so that tie-breaks do not hinge on the
last bits of a cumulative sum. One tie rule serves both kinds of feature:
among cuts at the float32 maximum, the lexicographically smallest sorted left
set of levels wins. In code order that is the first cut, the smallest
threshold.
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


def prefix_reductions(cs, cD, cd):
    """Deviance reduction of every cut of a block, from its cumulative sums.

    cs, cD, cd are the running sums of the terms D*log(D/d), of the
    responses D and of the volumes d over the block's bins. Entry j is the
    reduction from splitting the block into its first j + 1 bins and the
    rest, each side fitted at its own rate, so the result has one entry fewer
    than the sums.
    """
    return _cut_reductions(cs[:-1], cD[:-1], cd[:-1], cs[-1], cD[-1], cd[-1])


def scan_levels(codes, slogs, deaths, vols, n_levels, min_bucket, by_rate=False):
    """Best cut of a node's points over the levels of one feature.

    codes holds each point's level in [0, n_levels) and slogs its term
    D*log(D/d) (0 where D = 0). The levels present are scanned in code
    order, or with by_rate in float32 order of their rate D/d, ties by code.
    Returns (order, cut, reduction): order is the levels present in scan
    order, and the cut sends order[:cut + 1] left. Returns None when no cut
    leaves min_bucket points on each side.
    """
    counts = np.bincount(codes, minlength=n_levels)
    order = np.flatnonzero(counts)
    if order.size < 2:
        return None
    sums = [np.bincount(codes, weights=w, minlength=n_levels)[order] for w in (slogs, deaths, vols)]
    if by_rate:
        perm = np.lexsort((order, (sums[1] / sums[2]).astype(np.float32)))
        order, sums = order[perm], [s[perm] for s in sums]
    red = prefix_reductions(*(np.cumsum(s) for s in sums))
    left_n = np.cumsum(counts[order])[:-1]
    ok = (left_n >= min_bucket) & (codes.size - left_n >= min_bucket)
    if not ok.any():
        return None
    red32 = red.astype(np.float32)
    tied = np.flatnonzero(ok & (red32 == red32[ok].max()))
    # The left sets are nested: a later cut's sorted left set is the smaller
    # one iff it adds a level below the largest level of the earlier set.
    cut, later = tied[0], tied[1:]
    while later.size:
        added_min = np.minimum.accumulate(order[cut + 1:])
        smaller = later[added_min[later - cut - 1] < order[: cut + 1].max()]
        if smaller.size == 0:
            break
        cut, later = smaller[0], smaller[1:]
    return order, int(cut), float(red[cut])


def best_cut(codes, node_of, n_nodes, slogs, deaths, vols, n_levels, min_bucket):
    """Best threshold cut of one ordered feature at every node of a frontier.

    The frontier's points come grouped by node, nodes in ascending order:
    node_of[i] in [0, n_nodes) is point i's node, codes[i] its level in
    [0, n_levels), slogs[i] its term D*log(D/d). Returns (left, right,
    reduction), one entry per node: the cut sends levels <= left to the left
    child and levels >= right, the next level present, to the right. A node
    without a cut that leaves min_bucket points on each side has left -1 and
    reduction -inf.
    """
    step = max(1, _SCAN_CELLS // n_levels)
    firsts = np.arange(0, n_nodes, step)
    bounds = np.append(np.searchsorted(node_of, firsts), node_of.size)
    blocks = [
        _block_cut(codes[a:b], node_of[a:b] - first, min(step, n_nodes - first),
                   slogs[a:b], deaths[a:b], vols[a:b], n_levels, min_bucket)
        for first, a, b in zip(firsts, bounds[:-1], bounds[1:])
    ]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _block_cut(codes, node_of, n_nodes, slogs, deaths, vols, n_levels, min_bucket):
    """`best_cut` over a (nodes, levels) table held at once."""
    keys = node_of * n_levels + codes
    size = n_nodes * n_levels
    counts = np.bincount(keys, minlength=size).reshape(n_nodes, n_levels)
    cs, cD, cd = (
        np.bincount(keys, weights=w, minlength=size).reshape(n_nodes, n_levels).cumsum(axis=1)
        for w in (slogs, deaths, vols)
    )
    left_n = counts.cumsum(axis=1)
    total_n = left_n[:, -1:]
    # a cut after a level present, before another one, min_bucket on each side
    present = counts > 0
    ok = present & (left_n < total_n) & (left_n >= min_bucket) & (total_n - left_n >= min_bucket)
    cells = np.flatnonzero(ok)
    rows = cells // n_levels
    red = np.full(size, -np.inf)
    red[cells] = _cut_reductions(
        cs.ravel()[cells], cD.ravel()[cells], cd.ravel()[cells],
        cs[rows, -1], cD[rows, -1], cd[rows, -1],
    )
    red = red.reshape(n_nodes, n_levels)
    # the first float32 maximum of a row is its smallest threshold
    left = red.astype(np.float32).argmax(axis=1)
    reduction = red[np.arange(n_nodes), left]
    right = (present & (np.arange(n_levels) > left[:, None])).argmax(axis=1)
    left[reduction == -np.inf] = -1
    return left, right, reduction

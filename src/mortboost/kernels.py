"""The split scan: one routine over the levels of a feature, for every feature.

A tree codes each feature as integer levels once (`tree.grow_tree`): an
ordered column by its sorted distinct values, the cause by its registry
codes. At a node, `scan_levels` bins the node's points by level, puts the
levels present in scan order (code order for an ordered feature, rate order
for the cause) and scores the cut after every level from prefix sums over
the bins. A scan costs O(points + levels) per node and feature, so a
continuous feature with n distinct values pays O(n) at every node.

Reductions are compared at float32 so that tie-breaks do not hinge on the
last bits of a cumulative sum. One tie rule serves both kinds of feature:
among cuts at the float32 maximum, the lexicographically smallest sorted left
set of levels wins. In code order that is the first cut, the smallest
threshold.
"""

from __future__ import annotations

import numpy as np


def prefix_reductions(cs, cD, cd):
    """Deviance reduction of every cut of a block, from its cumulative sums.

    cs, cD, cd are the running sums of the terms D*log(D/d), of the
    responses D and of the volumes d over the block's bins. Entry j is the
    reduction from splitting the block into its first j + 1 bins and the
    rest, each side fitted at its own rate, so the result has one entry fewer
    than the sums.
    """
    s_tot, d_tot, v_tot = cs[-1], cD[-1], cd[-1]
    parent = 2.0 * (s_tot - (d_tot * np.log(d_tot / v_tot) if d_tot > 0 else 0.0))

    sL, DL, dL = cs[:-1], cD[:-1], cd[:-1]
    sR, DR, dR = s_tot - sL, d_tot - DL, v_tot - dL
    with np.errstate(divide="ignore", invalid="ignore"):
        dev_left = 2.0 * (sL - np.where(DL > 0, DL * np.log(DL / dL), 0.0))
        dev_right = 2.0 * (sR - np.where(DR > 0, DR * np.log(DR / dR), 0.0))
    return parent - dev_left - dev_right


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


def best_cut(codes, slogs, deaths, vols, n_levels, min_bucket):
    """`scan_levels` in code order: the best threshold of an ordered feature."""
    return scan_levels(codes, slogs, deaths, vols, n_levels, min_bucket)

"""The split scan: per-level bins, prefix sums and one float32 tie rule.

A tree codes each feature as integer levels once (`tree.grow_tree`): an
ordered column by its sorted distinct values, the cause by its registry
codes. `best_cut` scans one feature over a whole frontier, every node of a
depth at once: one `bincount` per sum over (node, level) keys, the levels of
each node put in scan order, a cumulative sum along them and one row-wise
argmax.

A node's bins are the count of its points at each level and their sums of
D*log(D/d), of D and of d. A node binned from its points sums them in the
order given, and an absent level adds +0.0. A node may instead derive its
bins from its parent's, less those of its sibling (histogram subtraction;
Ke et al., NeurIPS 2017), so that a split bins only one child. Counts are
exact, but a derived sum may differ from the direct one in its last bits.
Where a derived sum is not finite, or a derived volume keeps less than half
its bits, `best_cut` reports the scan unsafe, and the caller bins the
frontier directly.

There are two scan orders. An ordered feature scans its levels in code
order, so a cut is a threshold. The cause scans the levels present in a node
in float32 order of their rate D/d, ties by code; prefixes of that order are
the optimal cuts of a categorical feature (Breiman et al., 1984), and the
order differs from node to node.

Reductions are compared at float32 so that tie-breaks do not hinge on the
last bits of a cumulative sum, direct or derived. One tie rule serves both
orders: among cuts at the float32 maximum, the lexicographically smallest
sorted left set of levels wins. In code order that is the first cut, the
smallest threshold.
"""

from __future__ import annotations

import numpy as np

# (node, level) cells that one scan step holds at once; a frontier whose
# table would be larger is scanned in blocks of nodes
_SCAN_CELLS = 1 << 18

# a derived volume bin at most this fraction of its parent's has lost at least
# half its bits to cancellation
_CANCELLED = 2.0**-26


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


def best_cut(codes, node_of, n_nodes, slogs, deaths, vols, n_levels, min_bucket, by_rate=False,
             parents=None):
    """Best cut of one feature at every node of a frontier.

    Points are binned by node: node_of[i] in [0, n_nodes) is point i's node,
    codes[i] its level in [0, n_levels), slogs[i] its term D*log(D/d); each
    node's points come in ascending order. A node's bins are a (4, n_levels)
    table of its count, slog, D and d sums. With parents, the (4, k,
    n_levels) bins of k parents, the last k nodes have no points here: node
    n_nodes - k + i derives its bins as parent i's less those of its sibling,
    node i. Levels are scanned in code order, or with by_rate in rate order.

    Returns (left, right, reduction, bins, unsafe). left and right are
    (n_nodes, n_levels) masks of the levels present that the cut sends to
    each child. A node without a cut that leaves min_bucket points on each
    side has reduction -inf and an empty left mask. bins, (4, n_nodes,
    n_levels), are the bins scanned. unsafe is True when a derived bin is not
    finite or a derived volume has lost half its bits; the scan is then not
    to be used.
    """
    keys = node_of * n_levels + codes
    bins = np.empty((4, n_nodes, n_levels))
    for table, w in zip(bins, (None, slogs, deaths, vols)):
        table.ravel()[:] = np.bincount(keys, weights=w, minlength=n_nodes * n_levels)
    unsafe = False
    if parents is not None:
        k = parents.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):
            derived = np.subtract(parents, bins[:, :k], out=bins[:, n_nodes - k:])
            # a derived parent can leave last-bit residues at levels its child
            # lacks, where a binned child has +0.0
            absent = derived[0] == 0
            np.copyto(derived[1:], 0.0, where=absent)
            # a sum that overflows only errs on the safe side; a NaN or an
            # infinite volume fails the comparison
            unsafe = not (np.isfinite(derived[1:3].sum())
                          and ((derived[3] > parents[3] * _CANCELLED) | absent).all())
        if unsafe:
            return None, None, None, bins, True
    step = max(1, _SCAN_CELLS // n_levels)
    blocks = [_block_cut(*bins[:, a:a + step], min_bucket, by_rate) for a in range(0, n_nodes, step)]
    left, right, reduction = (np.concatenate(parts) for parts in zip(*blocks))
    return left, right, reduction, bins, unsafe


def _block_cut(counts, s, D, d, min_bucket, by_rate):
    """`best_cut` over a block of nodes of its bins."""
    n_nodes, n_levels = counts.shape
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

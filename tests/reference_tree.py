"""Per-node reference implementation of tree growth, kept as the oracle that
the level-wise `mortboost.tree.grow_tree` must match byte for byte in
`to_text()`.

It grows depth first, left child first, and scans one node at a time: per
feature, one `scan_levels` call over the node's observed points, in code
order for an ordered feature and in rate order for the cause. This is how
the package grew trees before it scanned a whole depth at once.
"""

import numpy as np

from mortboost.kernels import _cut_reductions
from mortboost.tree import (
    _NOISE_FLOOR,
    PoissonTree,
    SplitRule,
    TreeConfig,
    WorkingData,
    _features,
    _node,
    _slog_terms,
)


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
    cs, cD, cd = (np.cumsum(s) for s in sums)
    red = _cut_reductions(cs[:-1], cD[:-1], cd[:-1], cs[-1], cD[-1], cd[-1])
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


def _best_split(features, idx_obs, slog, deaths, volume, min_bucket: int):
    """Best split of a node's observed points over all features, as
    (rule, reduction, right_codes), or None. Selection is at float32, and
    earlier features win ties."""
    s, D, d = slog[idx_obs], deaths[idx_obs], volume[idx_obs]
    best = None
    for name, codes, n_levels, values in features:
        hit = scan_levels(
            codes[idx_obs], s, D, d, n_levels, min_bucket, by_rate=values is None
        )
        if hit is not None and (best is None or np.float32(hit[2]) > np.float32(best[2])):
            best, best_feature = hit, (name, values)
    if best is None:
        return None
    (order, cut, reduction), (name, values) = best, best_feature
    if values is None:
        left, right = sorted(order[: cut + 1].tolist()), sorted(order[cut + 1:].tolist())
        return SplitRule(name, left_codes=tuple(left)), reduction, tuple(right)
    threshold = (values[order[cut]] + values[order[cut + 1]]) / 2.0
    return SplitRule(name, threshold=float(threshold)), reduction, ()


def grow_tree(data: WorkingData, cfg: TreeConfig = TreeConfig()) -> PoissonTree:
    """Grow the SBS Poisson tree depth first, one node scan at a time."""
    if data.n == 0:
        raise ValueError("empty working data")
    obs_mask = ~np.isnan(data.deaths)
    if not obs_mask.any():
        raise ValueError("no observed responses in working data")
    slog = _slog_terms(data.deaths, data.volume)
    features = _features(data)

    root_obs = np.flatnonzero(obs_mask)
    root = _node(root_obs, data.deaths, data.volume, slog)
    threshold = max(cfg.cp * root.deviance, _NOISE_FLOOR * (root.deviance + 1.0))
    threshold32 = np.float32(threshold)

    # depth first, left child first: (node, its points, its observed points, depth)
    stack = [(root, np.arange(data.n), root_obs, 0)]
    while stack:
        node, idx, idx_obs, depth = stack.pop()
        if depth >= cfg.max_depth or idx_obs.size < 2 * cfg.min_bucket:
            continue
        found = _best_split(features, idx_obs, slog, data.deaths, data.volume, cfg.min_bucket)
        if found is None or found[1] <= 0.0 or np.float32(found[1]) < threshold32:
            continue
        node.rule, node.reduction, node.right_codes = found
        if node.rule.is_categorical:
            go_left = np.isin(data.cause[idx], node.rule.left_codes)
        else:
            col = data.ordered_names.index(node.rule.feature)
            go_left = data.ordered[idx, col] <= node.rule.threshold
        children = []
        for side in (idx[go_left], idx[~go_left]):
            side_obs = side[obs_mask[side]]
            children.append((_node(side_obs, data.deaths, data.volume, slog), side, side_obs, depth + 1))
        node.left, node.right = children[0][0], children[1][0]
        stack += reversed(children)
    return PoissonTree(root, data.ordered_names, data.cause_labels, root.deviance, cfg)

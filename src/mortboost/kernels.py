"""The split scan: deviance reduction of every prefix cut of a sorted block.

Reductions are compared at float32 so that tie-breaks do not hinge on the
last bits of a cumulative sum.
"""

from __future__ import annotations

import numpy as np


def prefix_reductions(cs, cD, cd):
    """Deviance reduction of every cut of a block, from its cumulative sums.

    cs, cD, cd are the running sums of the per-point terms D*log(D/d), of
    the responses D and of the volumes d. Entry j is the reduction from
    splitting the block into its first j + 1 points and the rest, each side
    fitted at its own rate, so the result has one entry fewer than the sums.
    """
    s_tot, d_tot, v_tot = cs[-1], cD[-1], cd[-1]
    parent = 2.0 * (s_tot - (d_tot * np.log(d_tot / v_tot) if d_tot > 0 else 0.0))

    sL, DL, dL = cs[:-1], cD[:-1], cd[:-1]
    sR, DR, dR = s_tot - sL, d_tot - DL, v_tot - dL
    with np.errstate(divide="ignore", invalid="ignore"):
        dev_left = 2.0 * (sL - np.where(DL > 0, DL * np.log(DL / dL), 0.0))
        dev_right = 2.0 * (sR - np.where(DR > 0, DR * np.log(DR / dR), 0.0))
    return parent - dev_left - dev_right


def best_cut(values, slogs, deaths, vols, min_bucket):
    """Best midpoint cut of a block sorted ascending by `values`.

    slogs holds the per-point terms D*log(D/d) (0 where D = 0). Returns
    (cut_index, reduction) where the cut separates index <= cut_index from
    the rest, or (-1, 0.0) when no admissible cut exists. The first cut
    attaining the float32 maximum wins, i.e. the smallest threshold.
    """
    n = values.shape[0]
    if n < 2 or n < 2 * min_bucket:
        return (-1, 0.0)
    red = prefix_reductions(np.cumsum(slogs), np.cumsum(deaths), np.cumsum(vols))

    left_n = np.arange(1, n)
    ok = (left_n >= min_bucket) & (n - left_n >= min_bucket) & (values[:-1] != values[1:])
    if not ok.any():
        return (-1, 0.0)
    red32 = np.where(ok, red, -np.inf).astype(np.float32)
    best = int(np.argmax(red32))
    if not ok[best]:
        return (-1, 0.0)
    return (best, float(red[best]))

import itertools

import numpy as np
import pytest

from mortboost import kernels
from reference_tree import scan_levels


def slog_terms(deaths, vols):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(deaths > 0, deaths * np.log(deaths / vols), 0.0)


def frontier_cuts(codes, node_of, n_nodes, deaths, vols, n_levels, min_bucket, by_rate=False):
    """(left set, right set, reduction) of each node from one frontier scan;
    (None, None, -inf) for a node without an admissible cut."""
    codes = np.asarray(codes)
    deaths = np.asarray(deaths, dtype=np.float64)
    vols = np.asarray(vols, dtype=np.float64)
    left, right, red, *_ = kernels.best_cut(
        codes, node_of, n_nodes, slog_terms(deaths, vols), deaths, vols, n_levels, min_bucket,
        by_rate,
    )
    return [
        (None, None, -np.inf) if r == -np.inf
        else (np.flatnonzero(a).tolist(), np.flatnonzero(b).tolist(), float(r))
        for a, b, r in zip(left, right, red)
    ]


def scan(codes, deaths, vols, min_bucket=1, by_rate=False, n_levels=None):
    """best_cut over a frontier of one node, as (left set, right set,
    reduction), or None without an admissible cut."""
    codes = np.asarray(codes)
    n_levels = int(codes.max()) + 1 if n_levels is None else n_levels
    node_of = np.zeros(codes.size, dtype=np.intp)
    hit = frontier_cuts(codes, node_of, 1, deaths, vols, n_levels, min_bucket, by_rate)[0]
    return None if hit[0] is None else hit


def per_node_cuts(codes, node_of, n_nodes, deaths, vols, n_levels, min_bucket, by_rate=False):
    """(left set, right set, reduction) of each node from its own scan."""
    slogs = slog_terms(deaths, vols)
    out = []
    for k in range(n_nodes):
        at = node_of == k
        hit = scan_levels(codes[at], slogs[at], deaths[at], vols[at], n_levels, min_bucket, by_rate)
        if hit is None:
            out.append((None, None, -np.inf))
        else:
            order, cut, red = hit
            out.append((sorted(order[: cut + 1].tolist()), sorted(order[cut + 1:].tolist()), red))
    return out


def scan_order(codes, deaths, vols, n_levels, by_rate):
    """The levels present in scan order, by definition: code order, or
    float32 rate order with ties by code."""
    codes = np.asarray(codes)
    order = np.flatnonzero(np.bincount(codes, minlength=n_levels))
    if not by_rate:
        return order
    D, d = (np.bincount(codes, weights=w, minlength=n_levels) for w in (deaths, vols))
    return np.array(sorted(order, key=lambda c: (np.float32(D[c] / d[c]), c)))


def reductions32(codes, deaths, vols, order):
    """float32 reduction of every cut of the levels in `order`."""
    codes = np.asarray(codes)
    deaths = np.asarray(deaths, dtype=np.float64)
    vols = np.asarray(vols, dtype=np.float64)
    sums = [np.bincount(codes, weights=w, minlength=order.max() + 1)[order]
            for w in (slog_terms(deaths, vols), deaths, vols)]
    cs, cD, cd = (np.cumsum(s) for s in sums)
    return kernels._cut_reductions(cs[:-1], cD[:-1], cd[:-1], cs[-1], cD[-1], cd[-1]).astype(np.float32)


@pytest.mark.parametrize("by_rate", [False, True])
def test_python_scan_basics(by_rate):
    codes, deaths, vols = np.array([0, 1]), np.array([0.0, 2.0]), np.array([1.0, 1.0])
    left, right, red = scan(codes, deaths, vols, by_rate=by_rate)
    assert (left, right) == ([0], [1])
    assert red == pytest.approx(2 * (2 * np.log(2) - 1) + 2, abs=1e-12)
    # no admissible cut: a single point, a min_bucket too large, a single level
    assert scan(codes[:1], deaths[:1], vols[:1], by_rate=by_rate, n_levels=2) is None
    assert scan(codes, deaths, vols, min_bucket=2, by_rate=by_rate) is None
    assert scan([1, 1], deaths, vols, by_rate=by_rate) is None


def test_frontier_scans_each_node_alone():
    # node 0 skips levels 1, 3 and 4; node 1 has one level; node 2 has three
    # points, under 2 * min_bucket; node 3's two cuts tie at zero
    codes = np.array([0, 2, 5, 2, 5, 3, 3, 3, 1, 4, 0, 1, 1, 2, 2, 3, 3])
    node_of = np.repeat(np.arange(4), [5, 3, 3, 6])
    deaths = np.array([1.0, 4.0, 0.0, 3.0, 2.0, 1.0, 2.0, 3.0, 5.0, 0.0, 1.0] + [0.0] * 6)
    vols = np.array([2.0, 1.0, 1.0, 3.0, 2.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.0] + [1.0] * 6)
    want = per_node_cuts(codes, node_of, 4, deaths, vols, 6, 2)
    assert [w[0] for w in want] == [[0, 2], None, None, [1]]
    assert want[0][1] == [5]  # the next level present, past the absent 3 and 4
    assert want[3] == ([1], [2, 3], 0.0)  # of tied cuts the first wins
    assert frontier_cuts(codes, node_of, 4, deaths, vols, 6, 2) == want
    # at min_bucket 1, node 2 splits too
    got = frontier_cuts(codes, node_of, 4, deaths, vols, 6, 1)
    assert got == per_node_cuts(codes, node_of, 4, deaths, vols, 6, 1)
    assert got[2][0] is not None


def random_frontier(rng):
    n_nodes = int(rng.integers(1, 9))
    sizes = rng.integers(1, 12, size=n_nodes)
    node_of = np.repeat(np.arange(n_nodes), sizes)
    n_levels = int(rng.integers(1, 9))
    codes = rng.integers(0, n_levels, size=node_of.size)
    deaths = rng.integers(0, 4, size=node_of.size).astype(np.float64)
    deaths[rng.random(node_of.size) < 0.2] = 0.0
    vols = rng.integers(1, 5, size=node_of.size) / 2.0
    return codes, node_of, n_nodes, deaths, vols, n_levels, int(rng.integers(1, 4))


@pytest.mark.parametrize("by_rate", [False, True])
def test_frontier_matches_per_node_scans(rng, monkeypatch, by_rate):
    # bit for bit, in one (nodes, levels) table and in blocks of a few nodes;
    # small integer responses and volumes make exact rate ties common
    for _ in range(200):
        case = random_frontier(rng)
        want = per_node_cuts(*case, by_rate)
        assert frontier_cuts(*case, by_rate) == want
        monkeypatch.setattr(kernels, "_SCAN_CELLS", int(rng.integers(1, 20)))
        assert frontier_cuts(*case, by_rate) == want
        monkeypatch.undo()


@pytest.mark.parametrize("by_rate", [False, True])
def test_points_of_a_level_are_pooled(by_rate):
    # two points on level 3 scan like one point with their summed response
    # and volume; absent levels are skipped
    pooled = scan([3, 0, 3, 5], [1.0, 0.0, 2.0, 6.0], [1.0, 2.0, 1.0, 2.0], by_rate=by_rate, n_levels=7)
    single = scan([3, 0, 5], [3.0, 0.0, 6.0], [2.0, 2.0, 2.0], by_rate=by_rate, n_levels=7)
    assert pooled[:2] == single[:2] == ([0], [3, 5])
    assert pooled[2] == pytest.approx(single[2], rel=1e-12)


def test_min_bucket_counts_points_not_levels():
    codes, deaths, vols = [0, 1, 1, 2, 2], [9.0, 1.0, 1.0, 1.0, 2.0], [1.0] * 5
    # code order: the best cut {0} | {1, 2} leaves one point left; min_bucket
    # 2 forces {0, 1} | {2}
    assert scan(codes, deaths, vols)[:2] == ([0], [1, 2])
    assert scan(codes, deaths, vols, min_bucket=2)[:2] == ([0, 1], [2])
    # rate order 1, 2, 0: the best cut {1, 2} | {0} leaves one point right;
    # min_bucket 2 forces {1} | {0, 2}
    assert scan(codes, deaths, vols, by_rate=True)[:2] == ([1, 2], [0])
    assert scan(codes, deaths, vols, min_bucket=2, by_rate=True)[:2] == ([1], [0, 2])


def test_rate_order():
    # rates 3, 1, 1.2: the levels are scanned as 1, 2, 0 and the best cut
    # separates the highest rate, which no threshold can do
    codes, deaths, vols = [0, 1, 2], [30.0, 10.0, 12.0], [10.0, 10.0, 10.0]
    assert scan_order(codes, deaths, vols, 3, by_rate=True).tolist() == [1, 2, 0]
    left, right, red = scan(codes, deaths, vols, by_rate=True)
    assert (left, right) == ([1, 2], [0])
    assert red > scan(codes, deaths, vols)[2] > 0
    # level 0's rate exceeds level 1's, but not at float32, so the levels scan
    # in code order 0, 1, 2; min_bucket 2 leaves only the first cut
    codes, vols = [0, 0, 1, 1, 2], [1.0] * 5
    deaths = [1.0 + 1e-9, 1.0 + 1e-9, 1.0, 1.0, 3.0]
    assert scan_order(codes, deaths, vols, 3, by_rate=True).tolist() == [0, 1, 2]
    assert scan(codes, deaths, vols, min_bucket=2, by_rate=True)[:2] == ([0], [1, 2])


def test_lexicographic_tie_rule():
    # rates 2, 1, 4 scan as levels 1, 0, 2. Cuts {1} | {0, 2} and {0, 1} | {2}
    # tie at float32; the sorted left set (0, 1) is smaller than (1,)
    codes, deaths, vols = [0, 1, 2], [4.0, 4.0, 4.0], [2.0, 4.0, 1.0]
    order = scan_order(codes, deaths, vols, 3, by_rate=True)
    assert order.tolist() == [1, 0, 2]
    red32 = reductions32(codes, deaths, vols, order)
    assert red32[0] == red32[1] == red32.max()
    assert scan(codes, deaths, vols, by_rate=True)[:2] == ([0, 1], [2])
    # in code order the first tied cut wins: the smallest threshold
    assert scan([0, 1, 2, 3], [0.0] * 4, [1.0] * 4) == ([0], [1, 2, 3], 0.0)


def cases(rng):
    """Random small scans, plus every relabelling and some scalings of the
    tie in test_lexicographic_tie_rule. That tie is exact: the children of
    both cuts sum to 8 log(8/3) in D log(D/d)."""
    for _ in range(300):
        k = int(rng.integers(2, 7))
        codes = rng.integers(0, k, size=int(rng.integers(2, 12)))
        deaths = rng.integers(0, 4, size=codes.size).astype(np.float64)
        vols = rng.integers(1, 4, size=codes.size).astype(np.float64)
        yield codes, deaths, vols, int(rng.integers(1, 3)), k
    for labels in itertools.permutations(range(3)):
        for scale in (1.0, 0.5, 3.0):
            yield np.array(labels), np.full(3, 4.0 * scale), np.array([2.0, 4.0, 1.0]) * scale, 1, 3


def test_tie_rule_matches_its_definition(rng):
    # among cuts at the float32 maximum, the smallest sorted left set wins
    decided_by_the_rule = 0
    for codes, deaths, vols, min_bucket, k in cases(rng):
        for by_rate in (False, True):
            got = scan(codes, deaths, vols, min_bucket, by_rate, n_levels=k)
            order = scan_order(codes, deaths, vols, k, by_rate)
            left_n = np.cumsum(np.bincount(codes, minlength=k)[order])[:-1]
            ok = (left_n >= min_bucket) & (codes.size - left_n >= min_bucket)
            if not ok.any():
                assert got is None
                continue
            red32 = reductions32(codes, deaths, vols, order)
            tied = np.flatnonzero(ok & (red32 == red32[ok].max()))
            left_sets = [sorted(order[: j + 1].tolist()) for j in tied]
            assert got[0] == min(left_sets)
            if not by_rate:
                assert got[0] == left_sets[0]
            decided_by_the_rule += got[0] != left_sets[0]
    assert decided_by_the_rule > 0


def bins_of(codes, node_of, n_nodes, deaths, vols, n_levels):
    """The (count, slog, D, d) bins of a frontier, (4, nodes, levels)."""
    deaths, vols = np.asarray(deaths, dtype=np.float64), np.asarray(vols, dtype=np.float64)
    return kernels.best_cut(
        np.asarray(codes), np.asarray(node_of), n_nodes, slog_terms(deaths, vols), deaths, vols,
        n_levels, 1,
    )[3]


@pytest.mark.parametrize("by_rate", [False, True])
def test_derived_bins_scan_as_binned_ones(rng, by_rate):
    # each parent of a random frontier splits its points at random; the child
    # with fewer points is binned, its sibling derives. Responses of 0 or of
    # the volume make every term D*log(D/d) zero, so that every sum is exact
    # and a derived bin equals the binned one bit for bit
    for _ in range(200):
        codes, node_of, n_parents, _, vols, n_levels, min_bucket = random_frontier(rng)
        deaths = np.where(rng.random(vols.size) < 0.5, vols, 0.0)
        parents = bins_of(codes, node_of, n_parents, deaths, vols, n_levels)
        right = rng.random(codes.size) < 0.5
        n_right = np.bincount(node_of, weights=right, minlength=n_parents)
        n_left = np.bincount(node_of, minlength=n_parents) - n_right
        smaller = np.where((n_right < n_left)[node_of], right, ~right)  # ties: the left child
        if not smaller.any():
            continue  # a growth bins at least one point
        child = node_of + np.where(smaller, 0, n_parents)  # smaller children first
        order = np.argsort(child, kind="stable")
        slogs = slog_terms(deaths, vols)
        args = (2 * n_parents, slogs[order], deaths[order], vols[order], n_levels, min_bucket, by_rate)
        direct = kernels.best_cut(codes[order], child[order], *args)
        first = smaller[order]
        args = (2 * n_parents, slogs[order][first], deaths[order][first], vols[order][first],
                n_levels, min_bucket, by_rate)
        derived = kernels.best_cut(codes[order][first], child[order][first], *args, parents=parents)
        assert derived[4] is False
        for got, want in zip(derived[:4], direct[:4]):
            assert np.array_equal(got, want)


def test_derived_bins_that_are_not_finite_or_cancel_are_unsafe():
    # one parent with points at levels 0 and 1; node 0 holds its level-0
    # point of volume 1, node 1 derives the rest
    def derive(vols):
        parents = bins_of([0, 0, 1], [0, 0, 0], 1, [1.0, 1.0, 2.0], vols, 2)
        return kernels.best_cut(np.array([0]), np.array([0]), 2, np.zeros(1), np.array([1.0]),
                                np.array([1.0]), 2, 1, parents=parents)

    assert derive([1.0, 2.0 ** -20, 1.0])[4] is False
    # a derived volume of at most 2**-26 of its parent's bin, here 2**-30 of
    # 1 + 2**-30, may keep fewer than half its bits
    assert derive([1.0, 2.0 ** -30, 1.0])[4] is True
    # a parent's sum that is not finite, whatever the sibling's
    parents = bins_of([0, 0, 1], [0, 0, 0], 1, [1.0, 1.0, 2.0], [1.0, 1.0, 1.0], 2)
    for k, value in itertools.product((1, 2, 3), (np.inf, -np.inf, np.nan)):
        if k > 1 and value == -np.inf:
            continue  # responses and volumes are not negative
        bad = parents.copy()
        bad[k, 0, 0] = value
        got = kernels.best_cut(np.array([0]), np.array([0]), 2, np.zeros(1), np.array([1.0]),
                               np.array([1.0]), 2, 1, parents=bad)
        assert got[4] is True and got[0] is None, (k, value)

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tree
from mortboost import kernels
from mortboost import tree as tree_module
from mortboost import PoissonTree, SplitRule, TreeConfig, WorkingData, grow_tree
from conftest import random_working_data
from oracle import assert_same_structure, oracle_grow


def make_data(values, deaths, volume=None, name="x"):
    values = np.asarray(values, dtype=np.float64)
    deaths = np.asarray(deaths, dtype=np.float64)
    volume = np.ones_like(deaths) if volume is None else np.asarray(volume, dtype=np.float64)
    return WorkingData((name,), values[:, None], volume, deaths)


def continuous_data(rng):
    """All-distinct feature values: every point is a level of its own."""
    data = random_working_data(rng, n_ordered=2, with_cause=False)
    ordered = rng.uniform(-1.0, 1.0, size=data.ordered.shape)
    return WorkingData(data.ordered_names, ordered, data.volume, data.deaths)


def cause_data_with_missing(rng):
    """A cause feature, and about a quarter of the responses missing."""
    data = random_working_data(rng, n_ordered=2, with_cause=True, max_points=12)
    missing = rng.random(data.n) < 0.25
    missing[0] = False
    deaths = np.where(missing, np.nan, data.deaths)
    return WorkingData(
        data.ordered_names, data.ordered, data.volume, deaths, data.cause, data.cause_labels
    )


ORACLE_DATA = {
    "integer": lambda rng: random_working_data(rng, n_ordered=2, with_cause=False),
    "continuous": continuous_data,
    "cause-missing": cause_data_with_missing,
}


# one depth of growth at any positive reduction: the root's rule and
# reduction are the best admissible split of the whole dataset
ROOT_SPLIT = TreeConfig(cp=0.0, min_bucket=1, max_depth=1)


class TestBestSplit:
    def test_two_point_split_saturates_children(self):
        data = make_data([1.0, 2.0], [0.0, 2.0])
        root = grow_tree(data, ROOT_SPLIT).root
        assert root.rule.threshold == 1.5
        assert root.deviance == pytest.approx(2 * (2 * math.log(2) - 1) + 2, abs=1e-12)
        assert root.reduction == pytest.approx(root.deviance, abs=1e-12)

    def test_homogeneous_node_has_no_positive_reduction(self):
        data = make_data([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 2.0, 2.0])
        root = grow_tree(data, ROOT_SPLIT).root
        assert root.rule is None or root.reduction <= 1e-12

    def test_matches_exhaustive_enumeration(self, rng):
        from oracle import NOISE_FLOOR, oracle_best_split

        for _ in range(50):
            data = random_working_data(rng, n_ordered=2, with_cause=True)
            obs = [i for i in range(data.n) if not math.isnan(data.deaths[i])]
            want = oracle_best_split(data, obs, min_bucket=1)
            root = grow_tree(data, ROOT_SPLIT).root
            if root.rule is None:
                # no cut, or one below the noise floor that growth refuses
                floor = np.float32(NOISE_FLOOR * (root.deviance + 1.0))
                assert want is None or want.reduction <= 0.0 or np.float32(want.reduction) < floor
                continue
            assert root.rule.feature == want.feature
            assert root.reduction == pytest.approx(want.reduction, abs=1e-10)

    def test_missing_responses_leave_the_root_alone(self):
        # a missing response is no point of the root's deviance, mean or split
        base = grow_tree(make_data([1.0, 2.0], [0.0, 2.0]), ROOT_SPLIT).root
        root = grow_tree(make_data([1.0, 2.0, 3.0], [0.0, 2.0, np.nan], [1.0, 1.0, 5.0]), ROOT_SPLIT).root
        assert (root.deviance, root.mu, root.reduction) == (base.deviance, base.mu, base.reduction)
        assert root.rule.threshold == base.rule.threshold


class TestGrowTree:
    def test_homogeneous_data_root_only(self):
        data = make_data([1.0, 2.0, 3.0, 4.0], [3.0, 3.0, 3.0, 3.0])
        tree = grow_tree(data, TreeConfig(cp=0.0, min_bucket=1, max_depth=10))
        assert tree.n_splits == 0
        assert tree.root.mu == pytest.approx(3.0)

    def test_cp_zero_saturates_leaves(self, rng):
        n = 8
        data = make_data(np.arange(n, dtype=float), rng.poisson(3.0, size=n).astype(float))
        tree = grow_tree(data, TreeConfig(cp=0.0, min_bucket=1, max_depth=30))
        for leaf in tree.leaves():
            assert leaf.deviance <= 1e-9

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            grow_tree(make_data([], []))

    @pytest.mark.parametrize(
        "cp, kind",
        [
            pytest.param(cp, kind, id=str(cp) if kind == "integer" else f"{cp}-{kind}")
            for kind in ORACLE_DATA
            for cp in (0.0, 0.1)
        ],
    )
    def test_structure_matches_recursive_oracle(self, cp, kind):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            data = ORACLE_DATA[kind](rng)
            cfg = TreeConfig(cp=cp, min_bucket=1, max_depth=30)
            tree = grow_tree(data, cfg)
            oracle_root, oracle_dev = oracle_grow(data, cp, 1, 30)
            assert_same_structure(tree, oracle_root, oracle_dev)

    def test_leaf_and_global_calibration(self, rng):
        for _ in range(20):
            data = random_working_data(rng, n_ordered=2, with_cause=True, max_points=40)
            tree = grow_tree(data, TreeConfig(cp=0.01, min_bucket=2, max_depth=10))
            for leaf in tree.leaves():
                assert leaf.sum_deaths == pytest.approx(leaf.mu * leaf.sum_volume, rel=1e-9, abs=1e-12)
            obs = ~np.isnan(data.deaths)
            mu = tree.predict(data.ordered, data.cause)
            assert (mu[obs] * data.volume[obs]).sum() == pytest.approx(
                data.deaths[obs].sum(), rel=1e-9
            )

    def test_leaf_deviance_sum_monotone_in_cp(self, rng):
        data = random_working_data(rng, n_ordered=2, with_cause=False, max_points=60)
        devs = []
        for cp in (0.1, 0.01, 0.001):
            tree = grow_tree(data, TreeConfig(cp=cp, min_bucket=2, max_depth=30))
            devs.append(sum(leaf.deviance for leaf in tree.leaves()))
        assert devs[0] >= devs[1] - 1e-12
        assert devs[1] >= devs[2] - 1e-12

    def test_determinism_bit_identical(self, rng):
        data = random_working_data(rng, n_ordered=3, with_cause=True, max_points=60)
        t1 = grow_tree(data, TreeConfig(cp=0.01, min_bucket=2))
        t2 = grow_tree(data, TreeConfig(cp=0.01, min_bucket=2))
        assert t1.to_text() == t2.to_text()

    def test_offset_scaling_rescales_mu(self, rng):
        data = random_working_data(rng, n_ordered=2, with_cause=False, max_points=30)
        cfg = TreeConfig(cp=0.02, min_bucket=2)
        t1 = grow_tree(data, cfg)
        scaled = WorkingData(
            data.ordered_names, data.ordered, data.volume * 4.0, data.deaths
        )
        t2 = grow_tree(scaled, cfg)
        assert [type(n.rule) for n in t1.nodes()] == [type(n.rule) for n in t2.nodes()]
        assert t1.split_features() == t2.split_features()
        mu1 = t1.predict(data.ordered)
        mu2 = t2.predict(data.ordered)
        assert mu2 == pytest.approx(mu1 / 4.0, rel=1e-12)

    def test_missing_responses_do_not_change_the_tree(self, rng):
        data = random_working_data(rng, n_ordered=2, with_cause=False, max_points=40)
        cfg = TreeConfig(cp=0.01, min_bucket=2)
        base = grow_tree(data, cfg)
        extra_rows = 5
        ordered = np.vstack([data.ordered, rng.integers(0, 12, size=(extra_rows, 2))])
        volume = np.concatenate([data.volume, np.full(extra_rows, 2.0)])
        deaths = np.concatenate([data.deaths, np.full(extra_rows, np.nan)])
        with_missing = grow_tree(
            WorkingData(data.ordered_names, ordered, volume, deaths), cfg
        )
        assert base.to_text() == with_missing.to_text()
        # missing points are still routed at prediction time
        mu = with_missing.predict(ordered)
        assert mu.shape == (data.n + extra_rows,)


# values whose midpoint is not below the larger one: it rounds up to it, or
# it overflows to inf
@pytest.mark.parametrize(
    "lo, hi", [(math.nextafter(1.0, 0.0), 1.0), (1e308, 1.5e308)], ids=["adjacent", "overflow"]
)
class TestSplitIsTheScannedPartition:
    @staticmethod
    def data(lo, hi):
        return make_data([lo] * 5 + [hi] * 5, [0.0] * 5 + [10.0] * 5)

    def test_best_split_threshold_sends_the_left_levels_left(self, lo, hi):
        root = grow_tree(self.data(lo, hi), ROOT_SPLIT).root
        assert lo <= root.rule.threshold < hi
        # both children are saturated: the split removes the root's deviance at mu = 5
        assert root.mu == 5.0
        assert root.reduction == pytest.approx(root.deviance)

    def test_growth_gives_two_non_empty_children(self, lo, hi):
        data = self.data(lo, hi)
        tree = grow_tree(data, TreeConfig(cp=0.0, min_bucket=1))
        assert tree.n_splits == 1
        assert (tree.root.left.n_obs, tree.root.right.n_obs) == (5, 5)
        assert (tree.root.left.mu, tree.root.right.mu) == (0.0, 10.0)
        want = [0.0] * 5 + [10.0] * 5
        assert tree.predict(data.ordered).tolist() == want
        assert PoissonTree.from_text(tree.to_text()).predict(data.ordered).tolist() == want


class TestPredict:
    def test_root_only_tree(self):
        data = make_data([1.0, 2.0], [25.0, 25.0], volume=[25.0, 25.0])
        tree = grow_tree(data, TreeConfig(cp=1.0, min_bucket=1))
        assert tree.n_splits == 0
        assert np.all(tree.predict(np.array([[0.0], [9.9]])) == 1.0)

    def test_threshold_routing(self):
        data = WorkingData(
            ("year",),
            np.array([[1916.0], [1917.0], [1918.0], [1919.0]]),
            np.array([10.0, 10.0, 10.0, 10.0]),
            np.array([9.0, 9.0, 14.0, 14.0]),
        )
        tree = grow_tree(data, TreeConfig(cp=0.0, min_bucket=1, max_depth=1))
        assert tree.root.rule.feature == "year"
        assert tree.root.rule.threshold == 1917.5
        assert tree.predict(np.array([[1918.0], [1916.0]])) == pytest.approx([1.4, 0.9])

    def test_training_points_get_their_leaf_mu(self, rng):
        data = random_working_data(rng, n_ordered=2, with_cause=True, max_points=30)
        tree = grow_tree(data, TreeConfig(cp=0.01, min_bucket=2))
        mu = tree.predict(data.ordered, data.cause)

        # independently recompute leaf memberships by walking the rules
        def leaf_of(i):
            node = tree.root
            while node.rule is not None:
                if node.rule.is_categorical:
                    go_left = int(data.cause[i]) in node.rule.left_codes
                else:
                    col = data.ordered_names.index(node.rule.feature)
                    go_left = data.ordered[i, col] <= node.rule.threshold
                node = node.left if go_left else node.right
            return node

        for i in range(data.n):
            assert mu[i] == leaf_of(i).mu

    def test_unseen_cause_level_majority_volume(self):
        data = WorkingData(
            ("x",),
            np.zeros((4, 1)),
            np.array([1.0, 1.0, 3.0, 3.0]),
            np.array([0.0, 0.0, 6.0, 6.0]),
            cause=np.array([0, 0, 1, 1]),
            cause_labels=("a", "b", "c"),
        )
        tree = grow_tree(data, TreeConfig(cp=0.0, min_bucket=1, max_depth=1))
        assert tree.root.rule.is_categorical
        mu = tree.predict(np.array([[0.5]]), np.array([2]))
        # right child holds volume 6 > 2: unseen level routes there
        assert mu[0] == pytest.approx(2.0)


class TestSerialization:
    def test_round_trip_predictions(self, rng):
        for _ in range(10):
            data = random_working_data(rng, n_ordered=2, with_cause=True, max_points=40)
            tree = grow_tree(data, TreeConfig(cp=0.005, min_bucket=1))
            back = PoissonTree.from_text(tree.to_text())
            assert back.to_text() == tree.to_text()
            got = back.predict(data.ordered, data.cause)
            want = tree.predict(data.ordered, data.cause)
            assert np.array_equal(got, want)

    def test_round_trip_deep_trees(self, rng):
        # saturated growth produces deep, jagged structures
        for _ in range(5):
            data = random_working_data(rng, n_ordered=3, with_cause=True, max_points=200, max_levels=6)
            tree = grow_tree(data, TreeConfig(cp=0.0, min_bucket=1, max_depth=30))
            back = PoissonTree.from_text(tree.to_text())
            probe = random_working_data(rng, n_ordered=3, with_cause=True, max_points=200, max_levels=6)
            assert np.array_equal(
                back.predict(probe.ordered, probe.cause),
                tree.predict(probe.ordered, probe.cause),
            )

    def test_reject_garbage(self):
        head = "mortboost-tree v1\nordered: age\nroot_deviance: 1.0\nconfig: cp=0.0 min_bucket=1 max_depth=30\n"
        split = "0 age<=1.5 4 2.0 4.0 0.5 1.0\n"
        leaf = "1 leaf 2 1.0 2.0 0.5 0.5\n"
        garbage = [
            "not a tree\n",
            "mortboost-tree v1\nordered: age\n",  # ends after the feature list
            head + split + leaf,  # the split's right child is missing
        ]
        for text in garbage:
            with pytest.raises(ValueError):
                PoissonTree.from_text(text)
        assert PoissonTree.from_text(head + split + leaf + leaf).n_splits == 1

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            SplitRule("x", threshold=1.0, left_codes=(0,))
        with pytest.raises(ValueError):
            SplitRule("x")


@st.composite
def growth_cases(draw):
    """Working data with tied feature values, tied responses and missing
    responses, with or without a cause column, and a growth config. Volumes
    are small halves, or spread over 121 binades, where the bins that a child
    derives from its parent's can cancel, or near 1e300."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 120))
    n_ordered = draw(st.integers(1, 3))
    n_values = draw(st.integers(1, 10))
    scale = draw(st.sampled_from([1.0, 0.5, 1e-3]))
    ordered = rng.integers(0, n_values, size=(n, n_ordered)) * scale
    volumes = draw(st.sampled_from(["halves", "binades", "huge"]))
    if volumes == "halves":
        volume = rng.integers(1, 5, size=n) / 2.0
    elif volumes == "binades":
        volume = 2.0 ** rng.integers(-60, 61, size=n)
    else:
        volume = rng.integers(1, 5, size=n) * 0.5e300
    if volumes != "halves" or draw(st.booleans()):
        deaths = rng.integers(0, 3, size=n).astype(np.float64)
    else:
        deaths = rng.poisson(2.0 * volume).astype(np.float64)
    deaths[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = np.nan
    deaths[rng.integers(n)] = float(rng.integers(0, 3))
    cause = labels = None
    if draw(st.booleans()):
        k = draw(st.integers(1, 6))
        cause = rng.integers(0, k, size=n)
        labels = tuple(f"cause {i + 1}" for i in range(k))
    names = tuple(f"f{j}" for j in range(n_ordered))
    cfg = TreeConfig(
        cp=draw(st.sampled_from([0.0, 1e-4, 1e-3, 1e-2])),
        min_bucket=draw(st.integers(1, 5)),
        max_depth=draw(st.integers(1, 30)),
    )
    return WorkingData(names, ordered, volume, deaths, cause=cause, cause_labels=labels), cfg


@given(case=growth_cases())
@settings(max_examples=400, deadline=None)
def test_level_wise_growth_matches_the_per_node_reference(case):
    data, cfg = case
    assert grow_tree(data, cfg).to_text() == reference_tree.grow_tree(data, cfg).to_text()


def spy_on_fallbacks(monkeypatch):
    """The list of `best_cut` calls whose derived bins failed the check."""
    unsafe, scan = [], kernels.best_cut

    def best_cut(*args, **kwargs):
        result = scan(*args, **kwargs)
        if result[4]:
            unsafe.append(args[2])
        return result

    monkeypatch.setattr(tree_module.kernels, "best_cut", best_cut)
    monkeypatch.setattr(tree_module, "_scan_cause", best_cut)
    return unsafe


def test_a_derived_volume_that_cancels_is_binned_directly(monkeypatch):
    # the root splits on a; its right child derives its cause-0 volume as
    # (1 + 3e-16) - 1, which rounds to 2.2e-16 and would scan cause 0's rate
    # above cause 1's
    cause_data = WorkingData(
        ("a",), [[0.0], [0.0], [1.0], [1.0]], [1.0, 1.0, 3e-16, 2.6e-16], [0.0, 0.0, 1.0, 1.0],
        cause=[0, 2, 0, 1], cause_labels=("x", "y", "z"),
    )
    cfg = TreeConfig(cp=0.0, min_bucket=1)
    want = reference_tree.grow_tree(cause_data, cfg).to_text()
    assert "\n1 cause:{0}/{1} 2 " in want
    unsafe = spy_on_fallbacks(monkeypatch)
    assert grow_tree(cause_data, cfg).to_text() == want
    assert unsafe
    # without the check, the derived bins would split the causes the other way
    monkeypatch.setattr(kernels, "_CANCELLED", 0.0)
    assert "\n1 cause:{1}/{0} 2 " in grow_tree(cause_data, cfg).to_text()


def test_a_volume_near_the_float_limit_cancels_its_sibling(monkeypatch):
    # the root's left child splits into the 1e308 point and three points of
    # volume 1; their node would derive its level-0 volume of feature a as
    # (1e308 + 3) - 1e308, which rounds to 0
    data = WorkingData(
        ("a", "b"), [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
        [1.0, 1.0, 1e308, 1.0, 1.0], [2.0, 2.0, 1.0, 2.0, 1.0],
    )
    cfg = TreeConfig(cp=0.0, min_bucket=1)
    unsafe = spy_on_fallbacks(monkeypatch)
    tree = grow_tree(data, cfg)
    assert unsafe
    assert tree.n_splits == 2
    assert tree.to_text() == reference_tree.grow_tree(data, cfg).to_text()


def test_no_reference_cycles(rng):
    # nothing is left for the cyclic collector, so a tree's working arrays
    # are freed when growth returns, not when the collector next runs
    data = random_working_data(rng, n_ordered=3, with_cause=True, max_points=200)
    cfg = TreeConfig(cp=0.0, min_bucket=1)
    tree = grow_tree(data, cfg)
    text = tree.to_text()
    calls = {
        "grow_tree": lambda: grow_tree(data, cfg),
        "to_text": tree.to_text,
        "from_text": lambda: PoissonTree.from_text(text),
    }
    for call in calls.values():
        call()  # warm-up
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            call()
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_config_validation():
    with pytest.raises(ValueError):
        TreeConfig(cp=-0.1)
    with pytest.raises(ValueError):
        TreeConfig(min_bucket=0)
    with pytest.raises(ValueError):
        TreeConfig(max_depth=0)


@pytest.mark.parametrize("cp", [math.nan, math.inf])
def test_non_finite_cp_is_rejected(cp):
    with pytest.raises(ValueError, match=f"^cp must be finite and >= 0, got {cp}$"):
        TreeConfig(cp=cp)


def test_names_and_labels_fit_the_tree_text():
    # an ordered name is a whitespace-separated token before '<='; a cause
    # label sits between '|'s on one line
    for name in ("", "a b", "a\tb", "a<=b"):
        with pytest.raises(ValueError, match="ordered feature name"):
            WorkingData((name,), np.zeros((2, 1)), np.ones(2), np.ones(2))
    for label in ("a|b", "a\nb", "a\rb", "a\x1cb", "a\x85b", "a\u2028b", "a\n"):
        with pytest.raises(ValueError, match="cause label"):
            WorkingData(("x",), np.zeros((2, 1)), np.ones(2), np.ones(2),
                        cause=np.array([0, 1]), cause_labels=("c", label))
    # names and labels that pass grow trees whose text reads back
    data = WorkingData(("x:1",), np.array([[0.0], [1.0], [0.0], [1.0]]), np.ones(4),
                       np.array([0.0, 5.0, 1.0, 6.0]), cause=np.array([0, 1, 1, 0]),
                       cause_labels=("a b", "<= c: {0}"))
    text = grow_tree(data, TreeConfig(cp=0.0, min_bucket=1)).to_text()
    assert PoissonTree.from_text(text).to_text() == text


def test_working_data_validation():
    with pytest.raises(ValueError, match="volume"):
        WorkingData(("x",), np.zeros((2, 1)), np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="negative"):
        WorkingData(("x",), np.zeros((2, 1)), np.array([1.0, 1.0]), np.array([-1.0, 1.0]))
    with pytest.raises(ValueError, match="cause_labels"):
        WorkingData(
            ("x",), np.zeros((2, 1)), np.ones(2), np.ones(2), cause=np.array([0, 1])
        )

"""Standardized-binary-split Poisson regression trees with multiplicative offsets.

A working point is (response D, features, volume d); the tree fits a factor
mu per leaf so that D ~ Poisson(mu * d), splitting wherever the Poisson
deviance reduction clears the cost-complexity threshold. Missing responses
(NaN) contribute nothing to the loss but are still routed for prediction.

Growth codes every feature as integer levels once per tree, an ordered
column by its sorted distinct values and the cause by its registry codes,
and grows one depth at a time over a frontier: the children of the last
depth's splits, with their observed points. Each feature scans the whole
frontier in one call, `kernels.best_cut`: an ordered feature in code order,
the cause in rate order, at float32 with one tie rule; earlier features win
ties. Of a split's two children only the one with fewer points is binned;
the other derives its bins from its parent's, kept from the depth before.
Growth routes an accepted split's points by the scan's level masks, and a
rule is built only for such a split.

A node's split depends only on its own points. Its bin counts are exact,
but a derived node's float sums may differ from the sums of its points in
the last bits, and selection is at float32, so growth is checked against
depth-first growth node by node (`tests/reference_tree.py`) rather than
equal to it by construction: trees are byte-identical on every recorded
benchmark seed and in the per-node oracle property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels

_NOISE_FLOOR = 1e-9  # absolute deviance-reduction floor, scaled by root deviance


@dataclass(frozen=True)
class TreeConfig:
    """Growth controls: cp is a fraction of the root deviance."""

    cp: float = 2e-3
    min_bucket: int = 10
    max_depth: int = 30

    def __post_init__(self):
        if not (math.isfinite(self.cp) and self.cp >= 0):
            raise ValueError(f"cp must be finite and >= 0, got {self.cp}")
        if self.min_bucket < 1:
            raise ValueError(f"min_bucket must be >= 1, got {self.min_bucket}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")


@dataclass(frozen=True)
class WorkingData:
    """Parallel arrays of working points over ordered features plus an
    optional categorical cause column (integer codes into cause_labels)."""

    ordered_names: tuple[str, ...]
    ordered: np.ndarray  # (n, m) float64
    volume: np.ndarray  # (n,) float64, > 0
    deaths: np.ndarray  # (n,) float64, NaN = missing response
    cause: np.ndarray | None = None  # (n,) int64 codes
    cause_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        ordered = np.ascontiguousarray(np.asarray(self.ordered, dtype=np.float64))
        for name in self.ordered_names:
            # the tree text separates names by whitespace and rules by '<='
            if not name or "<=" in name or any(ch.isspace() for ch in name):
                raise ValueError(f"ordered feature name {name!r} is empty, holds whitespace or '<='")
        if ordered.ndim != 2 or ordered.shape[1] != len(self.ordered_names):
            raise ValueError(
                f"ordered matrix has shape {ordered.shape}, expected (n, {len(self.ordered_names)})"
            )
        n = ordered.shape[0]
        volume = np.ascontiguousarray(np.asarray(self.volume, dtype=np.float64))
        deaths = np.ascontiguousarray(np.asarray(self.deaths, dtype=np.float64))
        if volume.shape != (n,) or deaths.shape != (n,):
            raise ValueError("volume/deaths length does not match the feature matrix")
        if np.any(volume <= 0):
            raise ValueError("working-point volume must be > 0")
        obs = ~np.isnan(deaths)
        if np.any(deaths[obs] < 0):
            raise ValueError("negative response")
        object.__setattr__(self, "ordered", ordered)
        object.__setattr__(self, "volume", volume)
        object.__setattr__(self, "deaths", deaths)
        if self.cause is not None:
            if self.cause_labels is None:
                raise ValueError("cause codes given without cause_labels")
            cause = np.ascontiguousarray(np.asarray(self.cause, dtype=np.int64))
            if cause.shape != (n,):
                raise ValueError("cause length does not match the feature matrix")
            if np.any(cause < 0) or np.any(cause >= len(self.cause_labels)):
                raise ValueError("cause code outside the label registry")
            for lab in self.cause_labels:
                # the tree text holds the labels on one line, separated by '|'
                if "|" in lab or len((lab + ".").splitlines()) > 1:
                    raise ValueError(f"cause label {lab!r} holds '|' or a line break")
            object.__setattr__(self, "cause", cause)
            object.__setattr__(self, "cause_labels", tuple(self.cause_labels))

    @property
    def n(self) -> int:
        return self.ordered.shape[0]


@dataclass(frozen=True)
class SplitRule:
    """Ordered threshold (value <= threshold goes left) or cause left-set."""

    feature: str
    threshold: float | None = None
    left_codes: tuple[int, ...] | None = None

    def __post_init__(self):
        if (self.threshold is None) == (self.left_codes is None):
            raise ValueError("rule must have exactly one of threshold / left_codes")

    @property
    def is_categorical(self) -> bool:
        return self.left_codes is not None


@dataclass
class Node:
    n_obs: int
    sum_deaths: float
    sum_volume: float
    mu: float
    deviance: float
    rule: SplitRule | None = None
    left: "Node | None" = None
    right: "Node | None" = None
    right_codes: tuple[int, ...] = ()
    reduction: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.rule is None


def _node(idx_obs: np.ndarray, deaths, volume, slog) -> Node:
    """A leaf over observed points, fitted at its own mu = sum D / sum d."""
    sD = float(deaths[idx_obs].sum())
    sd = float(volume[idx_obs].sum())
    ss = float(slog[idx_obs].sum())
    deviance = 2.0 * (ss - sD * math.log(sD / sd)) if sD > 0 else 2.0 * ss
    return Node(n_obs=int(idx_obs.size), sum_deaths=sD, sum_volume=sd, mu=sD / sd, deviance=deviance)


def _slog_terms(deaths: np.ndarray, volume: np.ndarray) -> np.ndarray:
    """Per-point D*log(D/d), 0 for zero or missing responses."""
    out = np.zeros_like(volume)
    pos = np.nan_to_num(deaths, nan=0.0) > 0
    out[pos] = deaths[pos] * np.log(deaths[pos] / volume[pos])
    return out


def _features(data: WorkingData) -> list[tuple]:
    """Every feature coded as levels, as (name, codes, n_levels, values):
    codes[i] is point i's level, and values holds an ordered feature's sorted
    distinct values. The cause has no values; its levels are its codes."""
    features = []
    for j, name in enumerate(data.ordered_names):
        values, codes = np.unique(data.ordered[:, j], return_inverse=True)
        features.append((name, codes, values.size, values))
    if data.cause is not None:
        features.append(("cause", data.cause, len(data.cause_labels), None))
    return features


# the cause's scan, under its own name so that its time can be told apart
_scan_cause = kernels.best_cut


def _scans(features, node_obs, slog, deaths, volume, min_bucket, parents):
    """Each feature's `kernels.best_cut` over a frontier, or None as soon as a
    feature's derived bins fail the kernel's check. The list parents is
    emptied as the features are scanned, so that each feature's parent rows
    are freed once used."""
    binned = len(node_obs) - (0 if parents is None else parents[0].shape[1])
    points = np.concatenate(node_obs[:binned])
    s, D, d = slog[points], deaths[points], volume[points]
    node_of = np.repeat(np.arange(binned), [idx.size for idx in node_obs[:binned]])
    scans = []
    for _, codes, n_levels, values in features:
        scans.append((kernels.best_cut if values is not None else _scan_cause)(
            codes[points], node_of, len(node_obs), s, D, d, n_levels, min_bucket,
            by_rate=values is None, parents=None if parents is None else parents.pop(0),
        ))
        if scans[-1][4]:
            return None
    return scans


def _best_split(features, node_obs, slog, deaths, volume, min_bucket: int, parents=None):
    """Best split of each node of a frontier, as (feature, reduction, scans):
    feature[k] indexes node k's best feature (-1: no admissible cut), scans[j]
    is feature j's `kernels.best_cut` result. node_obs holds each node's
    observed points, ascending. With parents, parents[j] the (4, k, levels)
    bins of k parents for feature j, the last k nodes derive their bins from
    their parents' and those of their siblings, the first k nodes; should a
    derived bin fail the kernel's check, the frontier is scanned again with
    every node binned. Selection is at float32; earlier features win."""
    args = features, node_obs, slog, deaths, volume, min_bucket
    scans = _scans(*args, parents) or _scans(*args, None)
    feature, reduction = np.full(len(node_obs), -1), np.full(len(node_obs), -np.inf)
    for j, scan in enumerate(scans):
        red = scan[2]
        better = red.astype(np.float32) > reduction.astype(np.float32)
        feature[better], reduction[better] = j, red[better]
    return feature, reduction, scans


def _rule(feature, left, right) -> tuple[SplitRule, tuple[int, ...]]:
    """A cut's (rule, right_codes) from the scan's masks of the levels that go
    left and right. An ordered threshold lies midway between the largest left
    value lo and the smallest right value hi, or at lo where the midpoint
    rounds up to hi or overflows, so that exactly the left levels are <= it."""
    name, _, _, values = feature
    left, right = np.flatnonzero(left), np.flatnonzero(right)
    if values is None:
        return SplitRule(name, left_codes=tuple(left.tolist())), tuple(right.tolist())
    lo, hi = float(values[left[-1]]), float(values[right[0]])
    mid = (lo + hi) / 2.0
    return SplitRule(name, threshold=mid if mid < hi else lo), ()


def _node_from_row(parts: list[str]) -> Node:
    """A node from the fields of one tree-text line; its children come later."""
    node = Node(
        n_obs=int(parts[2]),
        sum_deaths=float(parts[3]),
        sum_volume=float(parts[4]),
        mu=float(parts[5]),
        deviance=float(parts[6]),
    )
    rule_tok = parts[1]
    if rule_tok == "leaf":
        return node
    if "<=" in rule_tok:
        feat, th = rule_tok.split("<=", 1)
        node.rule = SplitRule(feat, threshold=float(th))
    else:
        feat, sets = rule_tok.split(":", 1)
        left_s, right_s = sets.split("/", 1)
        parse_set = lambda s: tuple(int(c) for c in s.strip("{}").split(",") if c != "")
        node.rule = SplitRule(feat, left_codes=parse_set(left_s))
        node.right_codes = parse_set(right_s)
    return node


@dataclass
class PoissonTree:
    """Fitted tree plus the metadata needed for prediction and round-trips."""

    root: Node
    ordered_names: tuple[str, ...]
    cause_labels: tuple[str, ...] | None
    root_deviance: float
    config: TreeConfig

    def nodes(self):
        return (node for node, _ in self._walk())

    def _walk(self):
        """(node, depth) in preorder, left child first."""
        stack = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            if not node.is_leaf:
                stack += [(node.right, depth + 1), (node.left, depth + 1)]

    def leaves(self):
        return [n for n in self.nodes() if n.is_leaf]

    @property
    def n_splits(self) -> int:
        return sum(1 for n in self.nodes() if not n.is_leaf)

    def split_features(self) -> list[str]:
        return [n.rule.feature for n in self.nodes() if not n.is_leaf]

    def _route(self, node: Node, ordered: np.ndarray, cause, idx, out):
        if node.is_leaf:
            out[idx] = node.mu
            return
        rule = node.rule
        if rule.is_categorical:
            codes = cause[idx]
            go_left = np.isin(codes, rule.left_codes)
            known = go_left | np.isin(codes, node.right_codes)
            # a level unseen at this split goes to the larger-volume child
            go_left = np.where(known, go_left, node.left.sum_volume >= node.right.sum_volume)
        else:
            col = self.ordered_names.index(rule.feature)
            go_left = ordered[idx, col] <= rule.threshold
        self._route(node.left, ordered, cause, idx[go_left], out)
        self._route(node.right, ordered, cause, idx[~go_left], out)

    def predict(self, ordered, cause=None):
        """Rate factors mu for rows of an ordered-feature matrix (+ cause codes)."""
        ordered = np.atleast_2d(np.asarray(ordered, dtype=np.float64))
        if ordered.shape[1] != len(self.ordered_names):
            raise ValueError(
                f"expected {len(self.ordered_names)} ordered feature columns, got {ordered.shape[1]}"
            )
        if (cause is None) != (self.cause_labels is None):
            raise ValueError("cause codes must be supplied iff the tree was grown with a cause feature")
        if cause is not None:
            cause = np.asarray(cause, dtype=np.int64)
        out = np.empty(ordered.shape[0])
        self._route(self.root, ordered, cause, np.arange(ordered.shape[0]), out)
        return out

    # --- text serialization -------------------------------------------------

    def to_text(self) -> str:
        lines = ["mortboost-tree v1"]
        lines.append("ordered: " + " ".join(self.ordered_names))
        if self.cause_labels is not None:
            lines.append("causes: " + "|".join(self.cause_labels))
        lines.append(f"root_deviance: {self.root_deviance!r}")
        lines.append(
            f"config: cp={self.config.cp!r} min_bucket={self.config.min_bucket} "
            f"max_depth={self.config.max_depth}"
        )
        lines.append("# depth rule n sum_deaths sum_volume mu deviance")

        for node, depth in self._walk():
            if node.is_leaf:
                rule = "leaf"
            elif node.rule.is_categorical:
                left = ",".join(str(c) for c in node.rule.left_codes)
                right = ",".join(str(c) for c in node.right_codes)
                rule = f"{node.rule.feature}:{{{left}}}/{{{right}}}"
            else:
                rule = f"{node.rule.feature}<={node.rule.threshold!r}"
            lines.append(
                f"{depth} {rule} {node.n_obs} {node.sum_deaths!r} {node.sum_volume!r} "
                f"{node.mu!r} {node.deviance!r}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PoissonTree":
        lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
        if not lines or lines[0].strip() != "mortboost-tree v1":
            raise ValueError("not a mortboost tree file")

        def header(pos: int, key: str) -> str:
            if pos >= len(lines) or not lines[pos].startswith(key):
                raise ValueError(f"missing {key.strip()} line")
            return lines[pos][len(key):]

        ordered_names = tuple(header(1, "ordered: ").split())
        pos = 2
        cause_labels = None
        if pos < len(lines) and lines[pos].startswith("causes: "):
            cause_labels = tuple(lines[pos][len("causes: "):].split("|"))
            pos += 1
        root_deviance = float(header(pos, "root_deviance: "))
        pos += 1
        cfg_parts = dict(kv.split("=") for kv in header(pos, "config: ").split())
        try:
            config = TreeConfig(
                cp=float(cfg_parts["cp"]),
                min_bucket=int(cfg_parts["min_bucket"]),
                max_depth=int(cfg_parts["max_depth"]),
            )
        except KeyError as exc:
            raise ValueError(f"config line lacks {exc}") from None
        pos += 1
        rows = []
        for ln in lines[pos:]:
            parts = ln.split()
            if len(parts) != 7:
                raise ValueError(f"malformed node line: {ln!r}")
            rows.append(parts)

        it = iter(rows)
        root = None
        # preorder: each split leaves two slots, filled left then right
        slots = [(None, 0)]  # (parent waiting for a child, the child's depth)
        while slots:
            parent, depth = slots.pop()
            parts = next(it, None)
            if parts is None:
                raise ValueError("tree file ends before every split has two children")
            if int(parts[0]) != depth:
                raise ValueError(f"node depth {int(parts[0])} where {depth} expected")
            node = _node_from_row(parts)
            if parent is None:
                root = node
            elif parent.left is None:
                parent.left = node
            else:
                parent.right = node
            if not node.is_leaf:
                slots += [(node, depth + 1), (node, depth + 1)]
        if next(it, None) is not None:
            raise ValueError("trailing node lines after the tree")
        return cls(root, ordered_names, cause_labels, root_deviance, config)


def grow_tree(data: WorkingData, cfg: TreeConfig = TreeConfig()) -> PoissonTree:
    """Grow the SBS Poisson tree: accept a node's best split while its
    deviance reduction clears max(cp * root deviance, noise floor).

    Every feature is coded as levels once, and the tree grows one depth at a
    time: each depth's splits come from one frontier selection
    (`_best_split`). The children of a split are scanned unless both have
    fewer than 2 * min_bucket observed points. Only the child with fewer
    points is binned; the other derives its bins from its parent's, kept
    from the depth that scanned it."""
    if data.n == 0:
        raise ValueError("empty working data")
    root_obs = np.flatnonzero(~np.isnan(data.deaths))
    if root_obs.size == 0:
        raise ValueError("no observed responses in working data")
    slog = _slog_terms(data.deaths, data.volume)
    features = _features(data)

    root = _node(root_obs, data.deaths, data.volume, slog)
    threshold32 = np.float32(max(cfg.cp * root.deviance, _NOISE_FLOOR * (root.deviance + 1.0)))

    # (node, its observed points) for the nodes of one depth: the children of
    # the last depth's splits, the binned ones first
    frontier = [(root, root_obs)] if root_obs.size >= 2 * cfg.min_bucket else []
    parents = None
    for _ in range(cfg.max_depth):
        if not frontier:
            break
        found, reduction, scans = _best_split(
            features, [f[1] for f in frontier], slog, data.deaths, data.volume, cfg.min_bucket,
            parents,
        )
        smaller, larger, split = [], [], []
        for k in np.flatnonzero((reduction > 0.0) & (reduction.astype(np.float32) >= threshold32)):
            (node, idx), feature, (left, right, *_) = frontier[k], features[found[k]], scans[found[k]]
            node.rule, node.right_codes = _rule(feature, left[k], right[k])
            node.reduction = float(reduction[k])
            go_left = left[k][feature[1][idx]]  # the scan's left levels
            children = [(_node(side, data.deaths, data.volume, slog), side)
                        for side in (idx[go_left], idx[~go_left])]
            node.left, node.right = children[0][0], children[1][0]
            small, large = sorted(children, key=lambda c: c[1].size)
            if large[1].size >= 2 * cfg.min_bucket:
                smaller.append(small)
                larger.append(large)
                split.append(k)
        frontier = smaller + larger
        split = np.array(split, dtype=np.intp)
        parents = [scan[3][:, split] for scan in scans]
        del scans  # free this depth's tables before the next depth bins; parents keeps rows
    return PoissonTree(root, data.ordered_names, data.cause_labels, root.deviance, cfg)

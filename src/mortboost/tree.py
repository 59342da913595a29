"""Standardized-binary-split Poisson regression trees with multiplicative offsets.

A working point is (response D, features, volume d); the tree fits a factor
mu per leaf so that D ~ Poisson(mu * d), splitting wherever the Poisson
deviance reduction clears the cost-complexity threshold. Missing responses
(NaN) contribute nothing to the loss but are still routed for prediction.
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
        if self.cp < 0:
            raise ValueError(f"cp must be >= 0, got {self.cp}")
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
            if any("|" in lab for lab in self.cause_labels):
                raise ValueError("cause labels must not contain '|'")
            object.__setattr__(self, "cause", cause)
            object.__setattr__(self, "cause_labels", tuple(self.cause_labels))

    @property
    def n(self) -> int:
        return self.ordered.shape[0]

    @property
    def feature_names(self) -> tuple[str, ...]:
        if self.cause is not None:
            return self.ordered_names + ("cause",)
        return self.ordered_names


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


def poisson_deviance(deaths, volume, rate_factor: float) -> float:
    """Poisson deviance 2*sum[D log(D/(mu d)) - (D - mu d)] of a point set.

    Uses the convention 0*log(0) = 0; NaN responses contribute nothing.
    Returns inf when rate_factor is 0 but some response is positive.
    """
    D = np.asarray(deaths, dtype=np.float64).ravel()
    d = np.asarray(volume, dtype=np.float64).ravel()
    obs = ~np.isnan(D)
    D, d = D[obs], d[obs]
    mu = float(rate_factor)
    if mu < 0:
        raise ValueError(f"rate_factor must be >= 0, got {mu}")
    if mu == 0.0:
        return math.inf if np.any(D > 0) else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(D > 0, D * np.log(D / (mu * d)), 0.0) - (D - mu * d)
    return float(2.0 * terms.sum())


def _node_deviance(sum_slog: float, sum_deaths: float, sum_volume: float) -> float:
    # deviance at the node's own mu = sum_deaths / sum_volume
    if sum_deaths <= 0:
        return 2.0 * sum_slog
    return 2.0 * (sum_slog - sum_deaths * math.log(sum_deaths / sum_volume))


def _slog_terms(deaths: np.ndarray, volume: np.ndarray) -> np.ndarray:
    """Per-point D*log(D/d), 0 for zero or missing responses."""
    out = np.zeros_like(volume)
    pos = np.nan_to_num(deaths, nan=0.0) > 0
    out[pos] = deaths[pos] * np.log(deaths[pos] / volume[pos])
    return out


@dataclass(frozen=True)
class _Candidate:
    rule: SplitRule
    reduction: float
    # selection happens on the float32 value; ties fall back to scan order /
    # lexicographically smaller left set, then feature order (caller)
    reduction32: np.float32


def _scan_ordered(values, slog, deaths, volume, min_bucket, feature) -> _Candidate | None:
    order = np.argsort(values, kind="stable")
    v = values[order]
    cut, red = kernels.best_cut(v, slog[order], deaths[order], volume[order], int(min_bucket))
    if cut < 0:
        return None
    threshold = (v[cut] + v[cut + 1]) / 2.0
    rule = SplitRule(feature, threshold=float(threshold))
    return _Candidate(rule, red, np.float32(red))


def _scan_cause(codes, slog, deaths, volume, min_bucket, n_codes) -> _Candidate | None:
    counts = np.bincount(codes, minlength=n_codes)
    sum_D = np.bincount(codes, weights=deaths, minlength=n_codes)
    sum_d = np.bincount(codes, weights=volume, minlength=n_codes)
    sum_s = np.bincount(codes, weights=slog, minlength=n_codes)
    present = np.nonzero(counts > 0)[0]
    if present.size < 2:
        return None
    # scan prefixes of the empirical-rate ordering (optimal for a single
    # Poisson split); rate compared at float32, ties by code
    rate32 = (sum_D[present] / sum_d[present]).astype(np.float32)
    order = present[np.lexsort((present, rate32))]
    red = kernels.prefix_reductions(
        np.cumsum(sum_s[order]), np.cumsum(sum_D[order]), np.cumsum(sum_d[order])
    )
    c_n = np.cumsum(counts[order])
    ok = (c_n[:-1] >= min_bucket) & (c_n[-1] - c_n[:-1] >= min_bucket)
    if not ok.any():
        return None
    red32 = red.astype(np.float32)
    tied = np.nonzero(ok & (red32 == red32[ok].max()))[0]
    # cut j puts the first j + 1 bins left; float32 ties go to the
    # lexicographically smaller left set
    lefts = {int(j): tuple(sorted(int(c) for c in order[: j + 1])) for j in tied}
    j = min(lefts, key=lefts.get)
    return _Candidate(SplitRule("cause", left_codes=lefts[j]), float(red[j]), red32[j])


def _best_split(data: WorkingData, idx_obs: np.ndarray, slog: np.ndarray, min_bucket: int) -> _Candidate | None:
    """Best split over all features; earlier features win float32 ties."""
    D = data.deaths[idx_obs]
    d = data.volume[idx_obs]
    s = slog[idx_obs]
    best: _Candidate | None = None
    for j, name in enumerate(data.ordered_names):
        cand = _scan_ordered(data.ordered[idx_obs, j], s, D, d, min_bucket, name)
        if cand is not None and (best is None or cand.reduction32 > best.reduction32):
            best = cand
    if data.cause is not None:
        cand = _scan_cause(data.cause[idx_obs], s, D, d, min_bucket, len(data.cause_labels))
        if cand is not None and (best is None or cand.reduction32 > best.reduction32):
            best = cand
    return best


def best_split(data: WorkingData, feature: str, min_bucket: int = 1) -> tuple[SplitRule, float] | None:
    """Best admissible split of the whole dataset on one feature, or None."""
    obs = np.nonzero(~np.isnan(data.deaths))[0]
    slog = np.zeros(data.n)
    slog[obs] = _slog_terms(data.deaths[obs], data.volume[obs])
    D, d, s = data.deaths[obs], data.volume[obs], slog[obs]
    if feature == "cause":
        if data.cause is None:
            raise ValueError("data has no cause feature")
        cand = _scan_cause(data.cause[obs], s, D, d, min_bucket, len(data.cause_labels))
    elif feature in data.ordered_names:
        j = data.ordered_names.index(feature)
        cand = _scan_ordered(data.ordered[obs, j], s, D, d, min_bucket, feature)
    else:
        raise ValueError(f"unknown feature {feature!r}")
    if cand is None:
        return None
    return cand.rule, cand.reduction


@dataclass
class PoissonTree:
    """Fitted tree plus the metadata needed for prediction and round-trips."""

    root: Node
    ordered_names: tuple[str, ...]
    cause_labels: tuple[str, ...] | None
    root_deviance: float
    config: TreeConfig

    def nodes(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)

    def leaves(self):
        return [n for n in self.nodes() if n.is_leaf]

    @property
    def n_leaves(self) -> int:
        return len(self.leaves())

    @property
    def n_splits(self) -> int:
        return sum(1 for n in self.nodes() if not n.is_leaf)

    def split_features(self) -> list[str]:
        return [n.rule.feature for n in self.nodes() if not n.is_leaf]

    def reductions(self) -> list[float]:
        """Accepted deviance reductions, largest first (the growth 'story')."""
        return sorted((n.reduction for n in self.nodes() if not n.is_leaf), reverse=True)

    @property
    def total_leaf_deviance(self) -> float:
        return float(sum(n.deviance for n in self.leaves()))

    def _route(self, node: Node, ordered: np.ndarray, cause, idx, out, flags):
        if node.is_leaf:
            out[idx] = node.mu
            return
        rule = node.rule
        if rule.is_categorical:
            codes = cause[idx]
            go_left = np.isin(codes, rule.left_codes)
            known = go_left | np.isin(codes, node.right_codes)
            if not known.all():
                # unseen level: majority-volume routing
                left_wins = node.left.sum_volume >= node.right.sum_volume
                for c in sorted(set(int(c) for c in codes[~known])):
                    flags.append(
                        f"cause code {c} unseen at a '{rule.feature}' split: routed to the "
                        f"{'left' if left_wins else 'right'} (larger-volume) child"
                    )
                go_left = np.where(known, go_left, left_wins)
        else:
            col = self.ordered_names.index(rule.feature)
            go_left = ordered[idx, col] <= rule.threshold
        self._route(node.left, ordered, cause, idx[go_left], out, flags)
        self._route(node.right, ordered, cause, idx[~go_left], out, flags)

    def predict(self, ordered, cause=None, return_flags: bool = False):
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
        flags: list[str] = []
        self._route(self.root, ordered, cause, np.arange(ordered.shape[0]), out, flags)
        if return_flags:
            return out, flags
        return out

    def predict_one(self, ordered_values, cause_code: int | None = None) -> float:
        cause = None if cause_code is None else np.array([cause_code])
        return float(self.predict(np.asarray(ordered_values, dtype=np.float64)[None, :], cause)[0])

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

        def emit(node: Node, depth: int):
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
            if not node.is_leaf:
                emit(node.left, depth + 1)
                emit(node.right, depth + 1)

        emit(self.root, 0)
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

        def build(expected_depth: int) -> Node:
            parts = next(it, None)
            if parts is None:
                raise ValueError("tree file ends before every split has two children")
            depth = int(parts[0])
            if depth != expected_depth:
                raise ValueError(f"node depth {depth} where {expected_depth} expected")
            rule_tok = parts[1]
            node = Node(
                n_obs=int(parts[2]),
                sum_deaths=float(parts[3]),
                sum_volume=float(parts[4]),
                mu=float(parts[5]),
                deviance=float(parts[6]),
            )
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
            node.left = build(expected_depth + 1)
            node.right = build(expected_depth + 1)
            return node

        root = build(0)
        if next(it, None) is not None:
            raise ValueError("trailing node lines after the tree")
        return cls(root, ordered_names, cause_labels, root_deviance, config)


def grow_tree(data: WorkingData, cfg: TreeConfig = TreeConfig()) -> PoissonTree:
    """Grow the SBS Poisson tree: recursively accept the best split while its
    deviance reduction clears max(cp * root deviance, noise floor)."""
    if data.n == 0:
        raise ValueError("empty working data")
    obs_mask = ~np.isnan(data.deaths)
    if not obs_mask.any():
        raise ValueError("no observed responses in working data")
    slog = np.zeros(data.n)
    slog[obs_mask] = _slog_terms(data.deaths[obs_mask], data.volume[obs_mask])

    def stats(idx_obs: np.ndarray) -> Node:
        sD = float(data.deaths[idx_obs].sum())
        sd = float(data.volume[idx_obs].sum())
        ss = float(slog[idx_obs].sum())
        mu = sD / sd
        return Node(
            n_obs=int(idx_obs.size),
            sum_deaths=sD,
            sum_volume=sd,
            mu=mu,
            deviance=_node_deviance(ss, sD, sd),
        )

    all_idx = np.arange(data.n)
    root_obs = all_idx[obs_mask]
    if float(data.volume[root_obs].sum()) <= 0:
        raise ValueError("total volume must be positive")
    root_deviance = stats(root_obs).deviance
    threshold = max(cfg.cp * root_deviance, _NOISE_FLOOR * (root_deviance + 1.0))
    threshold32 = np.float32(threshold)

    def build(idx: np.ndarray, depth: int) -> Node:
        idx_obs = idx[obs_mask[idx]]
        node = stats(idx_obs)
        if depth >= cfg.max_depth or idx_obs.size < 2 * cfg.min_bucket:
            return node
        cand = _best_split(data, idx_obs, slog, cfg.min_bucket)
        if cand is None or cand.reduction <= 0.0 or cand.reduction32 < threshold32:
            return node
        rule = cand.rule
        if rule.is_categorical:
            codes = data.cause[idx]
            seen = np.unique(data.cause[idx_obs])
            node.right_codes = tuple(int(c) for c in seen if int(c) not in rule.left_codes)
            go_left = np.isin(codes, rule.left_codes)
        else:
            col = data.ordered_names.index(rule.feature)
            go_left = data.ordered[idx, col] <= rule.threshold
        node.rule = rule
        node.reduction = cand.reduction
        node.left = build(idx[go_left], depth + 1)
        node.right = build(idx[~go_left], depth + 1)
        return node

    root = build(all_idx, 0)
    return PoissonTree(root, data.ordered_names, data.cause_labels, root_deviance, cfg)

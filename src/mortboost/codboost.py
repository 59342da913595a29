"""Cause-of-death decomposition by one-step tree boosting.

Starting from a prior conditional cause probability theta0 (uniform 1/K by
default), the working volume theta0 * q * E per (feature, cause) cell turns
the tree's fitted factor mu into boosted probabilities theta_tree = mu *
theta0. Pearson residuals against the all-cause counts diagnose the result.
The tree is grown over (gender, age bucket, year, cause) without a cohort
feature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grids import GENDERS, BucketedRates, float_fields, frozen, grid_csv
from .hmd import CauseDeathTable
from .tree import PoissonTree, TreeConfig, WorkingData, grow_tree

COD_FEATURES = ("gender", "bucket", "year")


@dataclass(frozen=True)
class ThetaSurface:
    """Conditional cause probabilities per (gender, age bucket, year, cause)."""

    values: np.ndarray  # (2, I, T, K) in [0, 1]

    def __post_init__(self):
        values = frozen(self.values, np.float64, "theta")
        if values.ndim != 4 or values.shape[0] != len(GENDERS):
            raise ValueError(f"theta must have shape (2, I, T, K), got {values.shape}")
        if np.any(values < 0) or np.any(values > 1):
            raise ValueError("theta values must lie in [0, 1]")
        object.__setattr__(self, "values", values)

    @property
    def n_causes(self) -> int:
        return self.values.shape[3]

    def cause_sums(self) -> np.ndarray:
        return self.values.sum(axis=3)


def init_theta(
    n_causes: int,
    n_buckets: int,
    n_years: int,
    mode: str = "uniform",
    cod: CauseDeathTable | None = None,
) -> ThetaSurface:
    """Feature-independent prior: uniform 1/K, or global observed frequencies."""
    if n_causes < 1:
        raise ValueError(f"need at least one cause, got {n_causes}")
    shape = (len(GENDERS), n_buckets, n_years, n_causes)
    if mode == "uniform":
        return ThetaSurface(np.full(shape, 1.0 / n_causes))
    if mode == "empirical":
        if cod is None:
            raise ValueError("empirical initialization needs the cause-of-death table")
        if cod.n_causes != n_causes:
            raise ValueError("cause count mismatch")
        per_cause = cod.counts.sum(axis=(0, 1, 2)).astype(np.float64)
        total = per_cause.sum()
        if total <= 0:
            raise ValueError("no observed deaths to take frequencies from")
        freq = per_cause / total
        return ThetaSurface(np.broadcast_to(freq, shape).copy())
    raise ValueError(f"unknown theta initialization mode {mode!r}")


def grid_features(shape: tuple[int, ...], year_min: int) -> tuple[np.ndarray, np.ndarray]:
    """(size, 3) matrix of (gender, 1-based bucket, year) rows and the cause
    codes of every cell of a (2, I, T, K) grid, in storage order."""
    g, b, t, k = np.indices(shape, dtype=np.float64).reshape(4, -1)
    return np.column_stack([g, b + 1, t + year_min]), k.astype(np.int64)


@dataclass(frozen=True)
class CodWorkingData:
    """Working points over (gender, bucket, year) x cause, plus grid metadata."""

    data: WorkingData
    n_buckets: int
    year_min: int
    n_years: int
    available: np.ndarray  # (2, I, T, K): response present (not MISSING)
    dropped: tuple[tuple[str, int, int, str], ...]


def make_cod_working_data(
    cod: CauseDeathTable, qtilde: BucketedRates, theta0: ThetaSurface
) -> CodWorkingData:
    """Volumes d = theta0 * q * E per (feature, cause); MISSING responses kept.

    The condensed rates must come from the same bucket scheme and years as
    the cause table (aggregate_rates does the Remark-style condensation).
    """
    if qtilde.bucketing.n_buckets != cod.n_buckets:
        raise ValueError(
            f"bucket mismatch: rates have {qtilde.bucketing.n_buckets}, table has {cod.n_buckets}"
        )
    if (qtilde.year_min, qtilde.year_max) != (cod.year_min, cod.year_max):
        raise ValueError(
            f"year mismatch: rates cover {qtilde.year_min}..{qtilde.year_max}, "
            f"table covers {cod.year_min}..{cod.year_max}"
        )
    K = cod.n_causes
    if theta0.values.shape != (len(GENDERS), cod.n_buckets, cod.n_years, K):
        raise ValueError("theta0 shape does not match the cause table")
    volume = theta0.values * qtilde.rate[..., None] * qtilde.exposure[..., None]
    observed_positive = (~cod.missing) & (cod.counts > 0)
    for zero, what in ((theta0.values == 0, "theta0 = 0"), (volume == 0, "zero working volume")):
        bad = np.argwhere(zero & observed_positive)
        if bad.size:
            raise ValueError(
                "{} with observed deaths at ({}, bucket {}, {}, {})".format(what, *cod.cell(*bad[0]))
            )
    response = np.where(cod.missing, np.nan, cod.counts.astype(np.float64))

    ordered, cause = grid_features(volume.shape, cod.year_min)
    keep = volume > 0
    flat_keep = keep.ravel()
    data = WorkingData(
        ordered_names=COD_FEATURES,
        ordered=ordered[flat_keep],
        volume=volume[keep],
        deaths=response[keep],
        cause=cause[flat_keep],
        cause_labels=cod.causes,
    )
    return CodWorkingData(
        data=data,
        n_buckets=cod.n_buckets,
        year_min=cod.year_min,
        n_years=cod.n_years,
        available=~cod.missing,
        dropped=tuple(cod.cell(*i) for i in np.argwhere(~keep)),
    )


def estimate_theta_tree(
    working: CodWorkingData, theta0: ThetaSurface, cfg: TreeConfig = TreeConfig()
) -> tuple[ThetaSurface, ThetaSurface, PoissonTree]:
    """Grow the tree over features x causes; return (raw, normalized, tree).

    raw = clamp(mu * theta0, 0, 1) is the direct product estimate; the
    normalized variant divides by the per-feature sum of raw over causes with
    available data, making those sum to 1 (within float accumulation).
    """
    tree = grow_tree(working.data, cfg)
    shape = theta0.values.shape
    if shape[1:3] != (working.n_buckets, working.n_years):
        raise ValueError("theta0 shape does not match the working data grid")
    mu = tree.predict(*grid_features(shape, working.year_min)).reshape(shape)
    raw = np.clip(mu * theta0.values, 0.0, 1.0)
    denom = (raw * working.available).sum(axis=3)
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = np.where(denom[..., None] > 0, raw / np.where(denom[..., None] > 0, denom[..., None], 1.0), 0.0)
    return ThetaSurface(raw), ThetaSurface(np.clip(norm, 0.0, 1.0)), tree


@dataclass(frozen=True)
class ResidualGrid:
    """Pearson residuals per (gender, bucket, year, cause); finite everywhere."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", frozen(self.values, np.float64, "residuals"))
        if not np.all(np.isfinite(self.values)):
            raise ValueError("residuals must be finite")


def pearson_residuals(
    cod: CauseDeathTable,
    theta: ThetaSurface,
    all_cause: np.ndarray | None = None,
) -> ResidualGrid:
    """(D_xk - theta * D_x) / sqrt(theta * D_x); 0 where the denominator is 0
    or the cell is MISSING. Without an all-cause grid, D_x is the sum over
    available causes."""
    if theta.values.shape != cod.counts.shape:
        raise ValueError("theta shape does not match the cause table")
    if all_cause is None:
        D_x = cod.all_cause_counts().astype(np.float64)
    else:
        D_x = np.asarray(all_cause, dtype=np.float64)
        if D_x.shape != cod.counts.shape[:3]:
            raise ValueError("all-cause grid shape does not match the cause table")
    expected = theta.values * D_x[..., None]
    valid = (expected > 0) & ~cod.missing
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.where(valid, (cod.counts - expected) / np.sqrt(np.where(valid, expected, 1.0)), 0.0)
    return ResidualGrid(delta)


def smooth_series(values, window: int = 5) -> np.ndarray:
    """Centered moving average along the last axis, with shrinking windows at
    the edges; the window must be odd so that it is centered.

    Presentation-only smoothing for exported series; raw values are always
    exported alongside.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be an odd integer >= 1, got {window}")
    # contiguous series keep numpy's pairwise summation inside each window
    y = np.ascontiguousarray(values, dtype=np.float64)
    if window == 1:
        return y.copy()  # a mean over one value would turn -0.0 into 0.0
    n, half = y.shape[-1], window // 2
    out = np.empty_like(y)
    if n > 2 * half:
        out[..., half : n - half] = sliding_window_view(y, window, axis=-1).mean(axis=-1)
    for i in (*range(min(half, n)), *range(max(half, n - half), n)):
        out[..., i] = y[..., max(0, i - half) : i + half + 1].mean(axis=-1)
    return out


def theta_to_csv(
    cod: CauseDeathTable,
    raw: ThetaSurface,
    norm: ThetaSurface,
    smooth_window: int | None = None,
) -> str:
    """Columns gender,age_group,year,cause,theta_raw,theta_norm[,theta_raw_smooth].

    Smoothing (when requested) runs over years within each (gender, bucket,
    cause) series.
    """
    header = "gender,age_group,year,cause,theta_raw,theta_norm"
    columns = [float_fields(raw.values), float_fields(norm.values)]
    if smooth_window is not None:
        header += ",theta_raw_smooth"
        by_year = smooth_series(np.moveaxis(raw.values, 2, -1), smooth_window)
        columns.append(float_fields(np.moveaxis(by_year, -1, 2)))
    return grid_csv(header, cod.axes(), *columns)


def residuals_to_csv(cod: CauseDeathTable, residuals: ResidualGrid) -> str:
    """Columns gender,age_group,year,cause,delta."""
    return grid_csv("gender,age_group,year,cause,delta", cod.axes(), float_fields(residuals.values))

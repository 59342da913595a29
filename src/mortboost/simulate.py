"""Deterministic Poisson sampling of death counts, the generative side of the
model: D ~ Poisson(q * E) per cell, and D_k ~ Poisson(theta_k * q * E) per
cause on the bucketed grid.

Every cell (and cause) draws from its own counter blocks of a Philox stream
keyed by (seed, domain), so draws are independent by construction,
order-independent, and bit-reproducible for a given seed regardless of how
the cells are traversed. Each draw depends only on (seed, domain, index,
mean), never on the draws of other cells.

The stream. The key is (seed mod 2**64, domain). Cell `index` owns the
counter blocks (b, 0, index, 0) for b = 1, 2, ...; Philox4x64-10 (Salmon et
al., SC'11) turns a block into four 64-bit words. The cell's n-th double
(from 0) is word n mod 4 of block n // 4 + 1, as (word >> 11) * 2**-53.
This is the stream of numpy's ``Philox(key, counter=index << 128)``.

The draw is numpy's `random_poisson` on that stream. A mean of 0 draws 0 and
uses no doubles. A mean in (0, 10) counts the doubles whose running product
stays above exp(-mean) (multiplication). A mean of 10 or more uses PTRS, the
transformed rejection of Hoermann (1993, Insurance: Math. Econ. 12), with
numpy's constants and two doubles (U, V) per attempt. The cells are computed
as arrays, a block of `_DRAW_CELLS` cells at a time, one counter block per
live cell per round; a round keeps only the cells still rejecting.

The libm rule. numpy's C sampler calls the C library's log and exp; numpy's
SIMD `np.log` and `np.exp` can differ from them in the last bit. The
comparisons are made with `np.log` and `np.exp`, and one whose two sides lie
within `_LIBM_MARGIN` times the sum of the magnitudes of its terms is decided
again with `math.log` and `math.exp`, which are the C library's.

So the draws equal ``Generator(Philox(key, counter=index << 128)).poisson(mean)``
(tests/reference_sampler.py keeps that per-cell loop as the oracle), but
they are defined here: numpy's NEP 19 lets `Generator.poisson`'s stream
change between numpy versions, and these draws do not follow such a change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codboost import ThetaSurface
from .grids import (
    GENDERS,
    MAX_GRID_CELLS,
    AgeBucketing,
    FeatureSpace,
    MortalityTable,
    RateSurface,
    aggregate_rates,
)
from .hmd import CauseDeathTable, ParseError, generic_causes, parse_range, read_key_values

_MASK64 = (1 << 64) - 1
_DOMAIN_DEATHS = 0
_DOMAIN_CAUSES = 1

# Philox4x64-10 (Salmon et al., SC'11): each of the 10 rounds multiplies
# counter words 0 and 2 by the two multipliers and xors in the round key,
# which grows by the two Weyl increments per round. The constants are numpy
# arrays, which numpy combines with an array faster than Python ints.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_KEY_STEPS = np.arange(10, dtype=np.uint64)[:, None, None] * np.array(
    [[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64
)
_U11 = np.array(11, dtype=np.uint64)
_U32 = np.array(32, dtype=np.uint64)
_LO32 = np.array(0xFFFFFFFF, dtype=np.uint64)
_PHILOX_M_LO = _PHILOX_M & _LO32
_PHILOX_M_HI = _PHILOX_M >> _U32

# numpy's bounds on a Poisson mean, and the log-gamma series of its sampler
POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)
_LOGGAM_A = (
    8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
    -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
    6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
    -1.39243221690590e00,
)
_LG2PI = 1.8378770664093453

# a comparison whose two sides lie within this share of the sum of the
# magnitudes of its terms is decided again with libm's log and exp
_LIBM_MARGIN = 1e-12

# cells that one step of _draw_poisson draws at once: a block's Philox words,
# PTRS attempts and running products, about 256 bytes a cell, are the
# call's working set; a draw depends on its own cell only, so the block
# size cannot change a draw
_DRAW_CELLS = 1 << 14


def _philox_words(keys: np.ndarray, block: int, index: np.ndarray):
    """Philox4x64-10 of the counters (block, 0, index[j], 0) under keys, the
    (10, 2, 1) round keys: the words (c0, c2) and (c1, c3), each (2, n).

    The rounds multiply the pair x = (c0, c2), so both multiplies of a round
    are one operation; y = (c1, c3).
    """
    x = np.empty((2, index.size), dtype=np.uint64)
    x[0] = block
    x[1] = index
    y = np.zeros_like(x)
    for key in keys:
        # hi: the high words of the 128-bit products M * x, from 32-bit halves
        x_lo = x & _LO32
        x_hi = x >> _U32
        t = _PHILOX_M_LO * x_lo
        u = _PHILOX_M_HI * x_lo + (t >> _U32)
        v = _PHILOX_M_LO * x_hi + (u & _LO32)
        hi = _PHILOX_M_HI * x_hi + (u >> _U32) + (v >> _U32)
        x, y = hi[::-1] ^ y ^ key, (_PHILOX_M * x)[::-1]
    return x, y


def _round_keys(seed: int, domain: int) -> np.ndarray:
    """The (10, 2, 1) Philox round keys of (seed mod 2**64, domain)."""
    return np.array([[seed & _MASK64], [domain]], dtype=np.uint64) + _PHILOX_KEY_STEPS


def _doubles(words: np.ndarray) -> np.ndarray:
    """numpy's next_double: the top 53 bits of a word over 2**53."""
    return (words >> _U11).astype(np.float64) * (1.0 / 9007199254740992.0)


def _libm_log(x: np.ndarray) -> np.ndarray:
    """The C library's log of each element, log(0) = -inf as in C; called
    for the near ties of the libm rule only."""
    return np.array([math.log(v) if v else -math.inf for v in x.tolist()], dtype=np.float64)


def _libm_exp(x: np.ndarray) -> np.ndarray:
    """The C library's exp of each element, for the near ties only."""
    return np.array([math.exp(v) for v in x.tolist()], dtype=np.float64)


def _loggam(x: np.ndarray, log) -> np.ndarray:
    """numpy's random_loggam, log Gamma(x) for x >= 1, with the given log."""
    small = x < 7.0
    n = np.where(small, np.trunc(7.0 - x), 0.0)
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM_A[9]
    for a in _LOGGAM_A[8::-1]:
        gl0 = gl0 * x2 + a
    gl = gl0 / x0 + 0.5 * _LG2PI + (x0 - 0.5) * log(x0) - x0
    if small.any():
        for j in range(1, 7):
            gl = np.where(n >= j, gl - log(x0 - j), gl)
    return np.where((x == 1.0) | (x == 2.0), 0.0, gl)


def _ptrs_sides(lam, k, us, V, hat, log):
    """The two sides of PTRS's final acceptance test, log(V * alpha / (a /
    us**2 + b)) <= log(lam**k e**-lam / k!), and the sum of the magnitudes of
    their terms. hat is the cells' (a, b, 1 / alpha); every log is the given
    one."""
    a, b, invalpha = hat
    log_v, log_invalpha, log_hat = log(V), log(invalpha), log(a / (us * us) + b)
    k_loglam = k.astype(np.float64) * log(lam)
    x = (k + 1).astype(np.float64)  # k + 1 in int64, as the C code
    lhs = log_v + log_invalpha - log_hat
    rhs = -lam + k_loglam - _loggam(x, log)
    # log Gamma(x)'s terms are at most 45 x + 32 for x < 2**63
    scale = (np.abs(log_v) + np.abs(log_invalpha) + np.abs(log_hat)
             + lam + np.abs(k_loglam) + 45.0 * x + 32.0)
    return lhs, rhs, scale


def _ptrs_accepts(lam, k, us, V, hat) -> np.ndarray:
    """PTRS's final acceptance test, decided as libm's log decides it."""
    lhs, rhs, scale = _ptrs_sides(lam, k, us, V, hat, np.log)
    accept = lhs <= rhs
    near = np.abs(lhs - rhs) <= _LIBM_MARGIN * scale
    if near.any():
        near_hat = tuple(h[near] for h in hat)
        lhs, rhs, _ = _ptrs_sides(lam[near], k[near], us[near], V[near], near_hat, _libm_log)
        accept[near] = lhs <= rhs
    return accept


def _ptrs(keys, index: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """numpy's random_poisson_ptrs for means >= 10: Hoermann's transformed
    rejection, two doubles (U, V) per attempt, two attempts per block."""
    b = 0.931 + 2.53 * np.sqrt(lam)
    a = -0.059 + 0.02483 * b
    invalpha = 1.1239 + 1.1328 / (b - 3.4)
    vr = 0.9277 - 3.6224 / (b - 2)
    out = np.empty(lam.size, dtype=np.int64)
    live = np.arange(lam.size)
    block = 1
    while live.size:
        x, y = _philox_words(keys, block, index)
        # (2, m): words 0 and 2 are the two attempts' U, words 1 and 3 their V
        U, V = _doubles(x) - 0.5, _doubles(y)
        us = 0.5 - np.abs(U)
        # us = 0 gives -inf, and a value past the int64 range casts to
        # INT64_MIN, as in C: both are rejected as k < 0
        k = np.floor((2 * a / us + b) * U + lam + 0.43).astype(np.int64)
        accept = (us >= 0.07) & (V <= vr)
        test = ~accept & (k >= 0) & ~((us < 0.013) & (V > us))
        test[1] &= ~accept[0]
        if test.any():
            attempt, cell = np.nonzero(test)
            accept[attempt, cell] = _ptrs_accepts(
                lam[cell], k[attempt, cell], us[attempt, cell], V[attempt, cell],
                (a[cell], b[cell], invalpha[cell]),
            )
        done = accept.any(axis=0)
        out[live[done]] = np.where(accept[0], k[0], k[1])[done]
        keep = ~done
        live, index, lam = live[keep], index[keep], lam[keep]
        a, b, invalpha, vr = a[keep], b[keep], invalpha[keep], vr[keep]
        block += 1
    return out


def _mult(keys, index: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """numpy's random_poisson_mult for 0 < mean < 10: the number of
    doubles whose running product stays above exp(-mean), four per block."""
    enlam = np.exp(-lam)
    out = np.empty(lam.size, dtype=np.int64)
    live = np.arange(lam.size)
    prod = np.ones(lam.size)
    count = np.zeros(lam.size, dtype=np.int64)
    block = 1
    while live.size:
        x, y = _philox_words(keys, block, index)
        # the running products after each word, multiplied in the C order
        p = np.empty((5, live.size))
        p[0], p[1::2], p[2::2] = prod, _doubles(x), _doubles(y)
        p = np.multiply.accumulate(p)[1:]
        near = (np.abs(p - enlam) <= _LIBM_MARGIN * enlam).any(axis=0)
        if near.any():
            enlam[near] = _libm_exp(-lam[near])
        going = p > enlam  # true, then false once the product falls
        count += going.sum(axis=0)
        done = ~going[3]
        out[live[done]] = count[done]
        keep = ~done
        live, index, lam, enlam, prod, count = (
            live[keep], index[keep], lam[keep], enlam[keep], p[3][keep], count[keep]
        )
        block += 1
    return out


def _draw_poisson(seed: int, domain: int, indices, means) -> np.ndarray:
    """One Poisson draw per cell: means[j] from the (seed, domain, indices[j])
    counter blocks. Raises numpy's ValueError for the first mean it rejects,
    before any draw. The cells are drawn _DRAW_CELLS at a time, so a call's
    working set is one block's, whatever the number of cells."""
    index = np.asarray(indices, dtype=np.uint64)
    lam = np.asarray(means, dtype=np.float64)
    bad = ~(lam >= 0) | (lam > POISSON_LAM_MAX)
    if bad.any():
        first = lam[np.argmax(bad)]
        raise ValueError("lam < 0 or lam is NaN" if not first >= 0 else "lam value too large")
    keys = _round_keys(seed, domain)
    out = np.zeros(lam.size, dtype=np.int64)
    # IEEE results without warnings, as in C: log(0) = -inf, x / 0 = inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, lam.size, _DRAW_CELLS):
            block = slice(start, start + _DRAW_CELLS)
            # views: a block's draws are written into out in place
            block_index, block_lam, block_out = index[block], lam[block], out[block]
            for cells, sampler in ((block_lam >= 10, _ptrs), ((block_lam > 0) & (block_lam < 10), _mult)):
                cells = np.flatnonzero(cells)
                if cells.size:
                    block_out[cells] = sampler(keys, block_index[cells], block_lam[cells])
    return out


@dataclass(frozen=True)
class SimSpec:
    """True rates, exposures and (optionally) cause probabilities plus a seed."""

    q: RateSurface
    exposure: np.ndarray  # (2, A, T)
    seed: int
    theta: ThetaSurface | None = None
    bucketing: AgeBucketing | None = None

    def __post_init__(self):
        exposure = np.asarray(self.exposure, dtype=np.float64)
        if exposure.shape != self.q.space.shape:
            raise ValueError(f"exposure shape {exposure.shape} != space shape {self.q.space.shape}")
        if not np.all(np.isfinite(exposure)):
            raise ValueError("exposure must be finite")
        if np.any(exposure < 0):
            raise ValueError("negative exposure")
        space = self.q.space
        _check_poisson_limit(
            "q * exposure", self.q.rate * exposure, lambda *i: "{}, {}, {}".format(*space.cell(*i))
        )
        object.__setattr__(self, "exposure", exposure)
        if self.theta is not None:
            if self.bucketing is None:
                raise ValueError("theta requires a bucketing for the condensed grid")
            sums = self.theta.cause_sums()
            if np.any(np.abs(sums - 1.0) > 1e-8):
                raise ValueError("theta must sum to 1 over causes for every feature")
            expected = (
                len(GENDERS),
                self.bucketing.n_buckets,
                self.q.space.n_years,
                self.theta.n_causes,
            )
            if self.theta.values.shape != expected:
                raise ValueError(f"theta shape {self.theta.values.shape} != {expected}")
            _check_poisson_limit(
                "theta * q * exposure", self.cause_means(),
                lambda g, b, t, k: f"{GENDERS[g]}, ages {self.bucketing.label(b)}, "
                f"{t + space.year_min}, {generic_causes(self.theta.n_causes)[k]}",
            )

    def cause_means(self) -> np.ndarray:
        """(2, I, T, K) cause means theta_k * q * E on the bucketed grid."""
        zero_table = MortalityTable(self.q.space, self.exposure, np.zeros(self.q.space.shape, dtype=np.int64))
        condensed = aggregate_rates(self.q, zero_table, self.bucketing)
        return self.theta.values * (condensed.rate * condensed.exposure)[..., None]


def _check_poisson_limit(name: str, means: np.ndarray, cell) -> None:
    """Reject the first mean above numpy's Poisson limit, naming its cell
    by cell(*index)."""
    over = np.argwhere(means > POISSON_LAM_MAX)
    if over.size:
        i = tuple(over[0].tolist())
        raise ValueError(
            f"mean {name} {float(means[i])!r} at ({cell(*i)}) is above numpy's Poisson limit {POISSON_LAM_MAX!r}"
        )


def sample_deaths(spec: SimSpec) -> MortalityTable:
    """Independent Poisson draws D ~ Pois(q * E) per grid cell."""
    space = spec.q.space
    means = (spec.q.rate * spec.exposure).ravel()
    deaths = _draw_poisson(spec.seed, _DOMAIN_DEATHS, np.arange(means.size), means)
    return MortalityTable(space, spec.exposure, deaths.reshape(space.shape))


def sample_cause_deaths(spec: SimSpec) -> tuple[CauseDeathTable, np.ndarray]:
    """Cause-level draws D_k ~ Pois(theta_k * q * E) on the bucketed grid.

    Returns the cause table, its causes labelled "cause 1" .. "cause K", and
    the implied all-cause grid (the cause sum, which by Poisson additivity
    has the aggregated q * E mean).
    """
    if spec.theta is None:
        raise ValueError("spec has no cause probabilities")
    space = spec.q.space
    means = spec.cause_means()
    # cause k of cell c draws from counter block c * K + k, the flat index
    flat = means.ravel()
    counts = _draw_poisson(spec.seed, _DOMAIN_CAUSES, np.arange(flat.size), flat)
    counts = counts.reshape(means.shape)
    table = CauseDeathTable(
        causes=generic_causes(spec.theta.n_causes),
        n_buckets=spec.bucketing.n_buckets,
        year_min=space.year_min,
        year_max=space.year_max,
        counts=counts,
        missing=np.zeros(means.shape, dtype=bool),
        bucketing=spec.bucketing,
    )
    return table, counts.sum(axis=3)


# --- config-file loading -----------------------------------------------------

_SPEC_DEFAULTS = {
    "exposure": 1e5,
    "base_rate": 5e-5,
    "age_slope": 0.085,
    "year_drift": 0.0,
    "male_factor": 1.0,
}
_SPEC_KEYS = {"ages", "years", "seed", "causes", "buckets", *_SPEC_DEFAULTS}


def load_sim_spec(source: str | Path) -> SimSpec:
    """Build a SimSpec from key = value lines: a Path is read, a str is the text.

    Required keys: ages=A:B, years=T0:T1, seed. Optional: exposure,
    base_rate, age_slope, year_drift, male_factor, causes (with buckets).
    The rate surface is log-linear in age and calendar year:
    q = base_rate * exp(age_slope*a + year_drift*(t - t_min)) * male_factor^[male].
    A malformed or non-finite value, an unknown key, and a grid above
    MAX_GRID_CELLS cells raise ParseError with the line at fault (the wider
    of the ages and years ranges, or the causes).
    """
    text = source.read_text() if isinstance(source, Path) else source
    entries = read_key_values(text)
    for key, (_, line) in entries.items():
        if key not in _SPEC_KEYS:
            raise ParseError(f"unknown key {key!r}", line)
    for required in ("ages", "years", "seed"):
        if required not in entries:
            raise ValueError(f"simulation spec needs the {required!r} key")

    def get(key, convert=float, *args):
        if key not in entries:
            return _SPEC_DEFAULTS[key]
        value, line = entries[key]
        try:
            converted = convert(value, *args)
        except ValueError as exc:
            raise ParseError(str(exc), line) from None
        if convert is float and not math.isfinite(converted):
            raise ParseError(f"{key} must be finite, got {value!r}", line)
        return converted

    age_min, age_max = get("ages", parse_range, "ages")
    year_min, year_max = get("years", parse_range, "years")
    space = FeatureSpace(age_min, age_max, year_min, year_max)
    if space.size > MAX_GRID_CELLS:
        wider = "ages" if space.n_ages > space.n_years else "years"
        message = f"a grid of {space.size} cells is above the limit of {MAX_GRID_CELLS}"
        raise ParseError(message, entries[wider][1])
    seed = get("seed", int)

    ages = space.ages().astype(np.float64)
    years = space.years().astype(np.float64)
    # a rate that overflows is capped at 1 like any other rate above 1; a
    # zero base rate times an overflow (NaN) is rejected by RateSurface
    with np.errstate(over="ignore", invalid="ignore"):
        base = get("base_rate") * np.exp(
            get("age_slope") * ages[:, None] + get("year_drift") * (years[None, :] - year_min)
        )
        rate = np.stack([base, base * get("male_factor")])
    rate = np.minimum(rate, 1.0)
    exposure = np.full(space.shape, get("exposure"))

    theta = None
    bucketing = None
    if "causes" in entries:
        K = get("causes", int)
        if K < 1:
            raise ParseError(f"causes must be >= 1, got {K}", entries["causes"][1])
        if "buckets" not in entries:
            raise ValueError("causes given without a buckets partition spec")
        bucketing = get("buckets", AgeBucketing.from_spec, age_min, age_max)
        shape = (len(GENDERS), bucketing.n_buckets, space.n_years, K)
        if math.prod(shape) > MAX_GRID_CELLS:
            message = f"a cause grid of {math.prod(shape)} cells is above the limit of {MAX_GRID_CELLS}"
            raise ParseError(message, entries["causes"][1])
        theta = ThetaSurface(np.full(shape, 1.0 / K))
    return SimSpec(
        q=RateSurface(space, rate),
        exposure=exposure,
        seed=seed,
        theta=theta,
        bucketing=bucketing,
    )

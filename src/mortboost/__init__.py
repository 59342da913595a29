"""Poisson mortality modeling with one-step regression-tree boosting.

Fits Lee-Carter and Renshaw-Haberman surfaces by Poisson maximum likelihood,
back-tests them with a standardized-binary-split Poisson regression tree, and
decomposes mortality by cause of death with Pearson-residual diagnostics.
"""

from .backtest import BacktestResult, backtest, make_working_data
from .codboost import (
    ResidualGrid,
    ThetaSurface,
    estimate_theta_tree,
    init_theta,
    make_cod_working_data,
    pearson_residuals,
)
from .grids import (
    GENDERS,
    AgeBucketing,
    BucketedRates,
    FeatureSpace,
    MortalityTable,
    RateSurface,
    aggregate_rates,
    crude_rates,
)
from .hmd import (
    DEFAULT_CAUSES,
    CauseDeathTable,
    HmdGrid,
    ParseError,
    clip_to_space,
    parse_cod_csv,
    parse_hmd_1x1,
    write_cod_csv,
    write_hmd_1x1,
)
from .leecarter import FitConfig, LCParams, fit_lc
from .renshawhaberman import RHParams, fit_rh
from .simulate import SimSpec, load_sim_spec, sample_cause_deaths, sample_deaths
from .tree import PoissonTree, SplitRule, TreeConfig, WorkingData, grow_tree

__version__ = "0.1.0"

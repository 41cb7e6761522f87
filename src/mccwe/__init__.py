"""Market-clearing combinatorial Walrasian equilibria for indivisible goods.

Exact-rational mechanisms, configuration-LP equilibrium checks, and
brute-force oracles at desk scale.
"""

from .errors import (
    BadParams,
    CertificateError,
    EmptyPool,
    MarketError,
    NotIdenticalBudgets,
    NotMCCWE,
    NotSingleMinded,
    NotSuperadditive,
    NotUniformBudgetAdditive,
    ParseError,
    SizeLimit,
)
from .market import (
    Allocation,
    Instance,
    Outcome,
    Partition,
    UNALLOCATED,
    allocation,
    full_surplus_outcome,
    induced_partition,
    priced_blocks,
    revenue,
    singleton_partition,
    social_welfare,
)
from .valuations import (
    Additive,
    BudgetAdditive,
    CappedCardinalityAdditive,
    SingleMinded,
    SuperadditiveExplicit,
    Valuation,
    demand_query,
    relative_demand_query,
)
from .equilibria import CWE, MCCWE, WE, VerifyReport, Violation, demand_correspondence, verify
from .configlp import ConfigLPSolution, fractional_opt, supporting_prices
from .oracle import (
    OracleBudget,
    best_mccwe,
    best_single_minded_item_pricing,
    optimal_integral,
    optimal_over_partition,
)
from .mechanisms import (
    MechanismTrace,
    bundle_efficient_full_surplus,
    identical_budget_cleanup,
    log_bundling_mechanism,
    replay_trace,
    single_minded_mccwe,
    superadditive_mccwe,
    uniform_budget_additive_mccwe,
)
from .instances import SplitMix64, built_in, generate
from .instances import parse_instance, parse_outcome, write_instance, write_outcome

__all__ = [name for name in dir() if not name.startswith("_")]

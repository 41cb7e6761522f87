"""Constructive mechanisms returning priced, market-clearing outcomes.

Each mechanism returns a bundle-priced Outcome whose prices are the owners'
values (full surplus), so revenue equals welfare wherever that postcondition
is part of the contract.  Values are queried and compared as integers in
the market's units (values times `Instance.scale`); only the reported trace
welfare is a Fraction.  All argmax ties break deterministically: larger
value or gap first, then lower agent index, then the numerically smaller
item mask.  A super-additive merge follows `equilibria.verify`'s first
violation: largest gap, then lowest agent, then fewest blocks, then the
smallest block-set mask.

Traces: pass a MechanismTrace to record every allocation edit; replaying a
trace from the mechanism's starting allocation reproduces its output
exactly (see replay_trace).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import oracle as oracle_mod
from .bits import bits_of, full_mask
from .equilibria import MCCWE, verify
from .errors import (
    BadParams,
    CertificateError,
    NotIdenticalBudgets,
    NotSingleMinded,
    NotSuperadditive,
    NotUniformBudgetAdditive,
)
from .market import (
    Allocation,
    Instance,
    Outcome,
    Partition,
    allocation,
    check_fits,
    full_surplus_outcome,
    induced_partition,
)
from .valuations import (
    BudgetAdditive,
    SingleMinded,
    _INT,
    _check_kinds,
    is_superadditive_family,
    relative_demand_query,
)


@dataclass(frozen=True)
class TraceStep:
    phase: str
    agent: int | None  # None means the items return to the open pool
    items: int
    welfare_before: Fraction
    welfare_after: Fraction


@dataclass
class MechanismTrace:
    mechanism: str = ""
    steps: list[TraceStep] = field(default_factory=list)


class _State:
    """Mutable allocation under construction from the Allocation `start`,
    recording into a trace labelled `mechanism`; the trace is checked
    first."""

    def __init__(self, instance, start: Allocation, trace, mechanism: str):
        _check_kinds((trace,), {MechanismTrace, type(None)}, "a trace must be a MechanismTrace")
        if trace is not None:
            _check_kinds((trace.steps,), {list}, "a trace's steps must be a list")
            trace.mechanism = mechanism
        check_fits(instance, start, Allocation)
        self.bundles, self.x0 = list(start.bundles), start.x0
        self.instance = instance
        self.trace = trace

    def welfare(self) -> int:
        return sum(self.instance.scaled_value(i, b) for i, b in enumerate(self.bundles))

    def give(self, phase: str, agent: int | None, items: int) -> None:
        """Move `items` (from wherever they sit) to `agent`, or to the pool."""
        before = self.welfare() if self.trace is not None else None
        self.x0 &= ~items
        for j in range(len(self.bundles)):
            self.bundles[j] &= ~items
        if agent is None:
            self.x0 |= items
        else:
            self.bundles[agent] |= items
        if self.trace is not None:
            scale = self.instance.scale
            after = self.welfare()
            self.trace.steps.append(
                TraceStep(phase, agent, items, Fraction(before, scale), Fraction(after, scale))
            )

    def allocation(self) -> Allocation:
        return Allocation(self.instance.m, self.x0, tuple(self.bundles))


def replay_trace(instance: Instance, start: Allocation, trace: MechanismTrace) -> Allocation:
    """Re-apply a trace's moves; the result equals the mechanism's output.
    BadParams unless the steps are a list of TraceSteps, on a step whose
    items are not an int mask or whose agent is neither None nor one of the
    market's agents."""
    _check_kinds((trace,), {MechanismTrace}, "a trace must be a MechanismTrace")
    _check_kinds((trace.steps,), {list}, "a trace's steps must be a list")
    _check_kinds(trace.steps, {TraceStep}, "trace steps must be TraceSteps")
    state = _State(instance, start, None, trace.mechanism)
    for step in trace.steps:
        agent = () if step.agent is None else (step.agent,)
        _check_kinds((step.items, *agent), _INT, "trace steps need int item masks and agents")
        if agent and not 0 <= step.agent < instance.n:
            raise BadParams(f"trace agent {step.agent} is not in the market")
        state.give(step.phase, step.agent, step.items)
    return state.allocation()


def _require_superadditive(instance: Instance) -> None:
    check_fits(instance)
    for i, v in enumerate(instance.agents):
        if not is_superadditive_family(v):
            raise NotSuperadditive(f"agent {i} is not super-additive")


def bundle_efficient_full_surplus(
    instance: Instance, partition: Partition, trace: MechanismTrace | None = None
) -> Outcome:
    """Optimal whole-block assignment priced at full surplus.

    With super-additive agents a bundle-efficient allocation supports its
    own full-surplus prices, so revenue equals welfare.
    """
    return _sell_blocks(instance, partition, trace, "fullsurplus")


def _sell_blocks(instance, partition, trace, mechanism: str) -> Outcome:
    _require_superadditive(instance)
    state = _State(instance, allocation(instance.m, [0] * instance.n), trace, mechanism)
    owners, _value = oracle_mod.optimal_over_partition(instance, partition)
    for block, owner in zip(partition.blocks, owners):
        state.give("assign", owner, block)
    return full_surplus_outcome(instance, state.allocation())


def log_bundling_mechanism(
    instance: Instance, trace: MechanismTrace | None = None
) -> Outcome:
    """Group items into ceil(log2 m) near-equal contiguous blocks, then sell
    them bundle-efficiently at full surplus."""
    check_fits(instance)
    m = instance.m
    k = max(1, (m - 1).bit_length())
    base, extra = divmod(m, k)
    blocks, start = [], 0
    for idx in range(k):
        size = base + (1 if idx < extra else 0)
        blocks.append(((1 << size) - 1) << start)
        start += size
    return _sell_blocks(instance, Partition(m, tuple(blocks)), trace, "logbundle")


def superadditive_mccwe(
    instance: Instance, trace: MechanismTrace | None = None
) -> Outcome:
    """Density-greedy bundling for super-additive agents.

    Phase 1 repeatedly hands the highest value-per-item set to its agent
    until no items remain, then a single winner takes everything if that
    beats the running welfare.  Relative demand is an argmax over the pool's
    subsets under one fixed order (`relative_demand_query`), and the pool
    only shrinks, so an agent's answer stands until a grant takes one of
    its items, and only then is the agent asked again.  Phase 2 prices the
    allocation at full surplus and runs `verify` in MC-CWE mode (phase 1
    leaves nothing unsold, so that is the CWE buyer check).  It returns the
    first outcome that verifies; otherwise the first violation's agent
    takes the union of the blocks in its better bundle set, over the
    allocation's induced partition, so ties go to the largest gap, then the
    lowest agent, then the fewest blocks, then the smallest block-set mask.
    More than n*n merges raise CertificateError.  Past 20 blocks `verify`'s
    value table raises SizeLimit.
    """
    _require_superadditive(instance)
    m, n = instance.m, instance.n
    state = _State(instance, allocation(m, [0] * n), trace, "superadditive")

    pool = full_mask(m)
    answers = [(-1, None)] * n  # each agent's last answer; -1 makes every agent ask first
    while pool:
        best = None
        for i, v in enumerate(instance.agents):
            if answers[i][0] & ~pool:
                answers[i] = relative_demand_query(v, pool)
            found, density = answers[i]
            if best is None or density > best[0]:
                best = (density, i, found)
        _density, agent, found = best
        state.give("density", agent, found)
        pool &= ~found

    whole = [instance.scaled_value(i, full_mask(m)) for i in range(n)]
    top = max(range(n), key=lambda i: (whole[i], -i))
    if whole[top] > state.welfare():
        state.give("winner_take_all", top, full_mask(m))

    merges = 0
    while True:
        outcome = full_surplus_outcome(instance, state.allocation())
        report = verify(instance, outcome, MCCWE)
        if report.ok:
            return outcome
        merges += 1
        if merges > n * n:
            raise CertificateError("merge phase exceeded its halting bound")
        first = report.violations[0]
        blocks = induced_partition(outcome.allocation)[0].blocks
        state.give("merge", first.agent, sum(blocks[j] for j in bits_of(first.better_bundle)))


def single_minded_mccwe(
    instance: Instance, trace: MechanismTrace | None = None
) -> Outcome:
    """Greedy small-set winners, then large bidders buy out whoever blocks
    them, all at full-surplus prices.

    Small means |desired|^2 <= m (exact integer arithmetic, no roots).
    Leftover items join the lowest-index nonempty bundle; when nobody has a
    small set, the highest-value bidder simply takes everything.
    """
    check_fits(instance)
    for i, v in enumerate(instance.agents):
        if not isinstance(v, SingleMinded):
            raise NotSingleMinded(f"agent {i} is not single-minded")
    m, n = instance.m, instance.n
    desired = [v.desired for v in instance.agents]
    values = [instance.scaled_value(i, desired[i]) for i in range(n)]
    state = _State(instance, allocation(m, [0] * n), trace, "singleminded")

    small = [i for i in range(n) if desired[i].bit_count() ** 2 <= m]
    taken = 0
    for i in sorted(small, key=lambda i: (-values[i], i)):
        if desired[i] & taken == 0:
            state.give("greedy", i, desired[i])
            taken |= desired[i]

    if taken:
        leftovers = full_mask(m) & ~taken
        if leftovers:
            lowest = next(j for j in range(n) if state.bundles[j])
            state.give("leftover", lowest, leftovers)
    else:
        top = max(range(n), key=lambda i: (values[i], -i))
        state.give("winner_take_all", top, full_mask(m))

    for i in sorted((i for i in range(n) if i not in small), key=lambda i: (-values[i], i)):
        blockers = [j for j in range(n) if state.bundles[j] & desired[i]]
        if blockers and values[i] > sum(values[j] for j in blockers):
            union = 0
            for j in blockers:
                union |= state.bundles[j]
            state.give("transfer", i, union)

    return full_surplus_outcome(instance, state.allocation())


def _uniform_market(instance: Instance):
    """A uniform budget-additive market's facts in the market's units:
    (budgets, shared, interest, top) are each agent's budget, each item's
    shared value (0 when nobody values it), the agents valuing it (lowest
    index first) and the largest-budget one of them (lowest index on ties,
    None if nobody).  Raises NotUniformBudgetAdditive unless every agent is
    budget-additive and no two value an item differently."""
    check_fits(instance)
    agents = instance.agents
    if not all(isinstance(v, BudgetAdditive) for v in agents):
        raise NotUniformBudgetAdditive("agents must share per-item values")
    factors = [instance.scale // v.scale for v in agents]
    budgets = [v.scaled_budget[0] * f for v, f in zip(agents, factors)]
    shared, interest, top = [], [], []
    for values in zip(*([x * f for x in v.scaled_items] for v, f in zip(agents, factors))):
        wanted = [i for i, x in enumerate(values) if x > 0]
        if len(seen := {values[i] for i in wanted}) > 1:
            raise NotUniformBudgetAdditive("agents must share per-item values")
        shared.append(max(seen, default=0))
        interest.append(wanted)
        top.append(max(wanted, key=budgets.__getitem__, default=None))
    return budgets, shared, interest, top


def _interested_prepass(state: _State, interest, phase: str) -> None:
    """Put every item in the hands of someone who values it.

    Items held by a zero-value agent (or sitting unallocated while someone
    wants them) move to the lowest-index interested agent; items nobody
    values end up unallocated.  Welfare never decreases.
    """
    holders = {j: i for i, b in enumerate(state.bundles) for j in bits_of(b)}
    for j, wanted in enumerate(interest):
        target = wanted[0] if wanted else None  # nobody values j: the pool
        holder = holders.get(j)
        if holder != target and holder not in wanted:
            state.give(phase, target, 1 << j)


def uniform_budget_additive_mccwe(
    instance: Instance, x: Allocation, trace: MechanismTrace | None = None
) -> Outcome:
    """Budget-ordered rebalance of a given allocation.

    Processing agents from the smallest budget up, while anyone values an
    agent's bundle strictly more than its owner does, the owner's cheapest
    item wanted by a strictly-larger budget moves to the largest-budget
    agent interested in it.  Afterwards every bundle is worth most to its
    owner, which makes full-surplus prices market-clearing.  When every
    agent's budget is at least each of its positive item values, the final
    welfare is at least half the input's; without that it can be less.
    """
    budgets, shared, interest, top = _uniform_market(instance)
    n = instance.n
    state = _State(instance, x, trace, "uniform_budget_additive")
    _interested_prepass(state, interest, "reassign")

    moves = 0
    for i in sorted(range(n), key=lambda i: (budgets[i], i)):
        while True:
            bundle = state.bundles[i]
            own = instance.scaled_value(i, bundle)
            if all(
                instance.scaled_value(other, bundle) <= own for other in range(n) if other != i
            ):
                break
            # an envier has the larger budget and values an item of the bundle
            movable = [
                j for j in bits_of(bundle) if top[j] is not None and budgets[top[j]] > budgets[i]
            ]
            if not movable:
                raise CertificateError("an envied bundle always holds a movable item")
            j = min(movable, key=lambda j: (shared[j], j))
            moves += 1
            if moves > n * instance.m:
                raise CertificateError("rebalance exceeded its move bound")
            state.give("move", top[j], 1 << j)

    return full_surplus_outcome(instance, state.allocation())


def identical_budget_cleanup(
    instance: Instance, x: Allocation, trace: MechanismTrace | None = None
) -> Outcome:
    """Hand every item to someone who values it; with identical budgets the
    result supports full-surplus prices with no welfare loss."""
    budgets, _shared, interest, _top = _uniform_market(instance)
    if len(set(budgets)) > 1:
        raise NotIdenticalBudgets("agents' budgets differ")
    state = _State(instance, x, trace, "identical_budget_cleanup")
    _interested_prepass(state, interest, "cleanup")
    return full_surplus_outcome(instance, state.allocation())

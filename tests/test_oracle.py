"""Oracles: optima, budget caps, item-pricing bounds, the subset DP checked
against the assignment-walk reference and against the unpruned fold, and
best_mccwe against brute force."""

import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from mccwe import (
    Additive,
    BadParams,
    BudgetAdditive,
    CappedCardinalityAdditive,
    CertificateError,
    Instance,
    MarketError,
    NotSingleMinded,
    Partition,
    SingleMinded,
    SizeLimit,
    SuperadditiveExplicit,
    allocation,
    fractional_opt,
    induced_partition,
    singleton_partition,
    social_welfare,
)
from mccwe.bits import bits_of, mask_of
from mccwe.equilibria import MCCWE, verify
from mccwe import configlp, market, oracle
from mccwe.instances import SplitMix64, built_in, generate, parse_instance, write_instance
from mccwe.market import UNALLOCATED, _check_assignment, _undominated, block_tables
from mccwe.oracle import (
    OracleBudget,
    _single_minded_optimum,
    best_mccwe,
    best_single_minded_item_pricing,
    optimal_integral,
    optimal_over_partition,
)
from mccwe.valuations import value_table
import oracle_reference
from oracle_reference import _assignments
from test_valuations import _tie_heavy_valuations
from value_reference import reduced_value

F = Fraction

FAMILIES = ("random_superadditive", "random_single_minded", "random_uniform_budget_additive")

# Every (m, n) with (n+1)^m <= 1024, m <= 8 and n <= 6: each assignment walk stays
# small, and so does building a random super-additive table.
SHAPES = tuple((m, n) for n in range(1, 7) for m in range(1, 9) if (n + 1) ** m <= 1024)


def _leaf_walk(partition, agents):
    """First strict maximum of the (n+1)^k assignment walk over the blocks'
    Fraction reduced values: (sets, rest, welfare)."""
    tables = [
        [reduced_value(v, partition, mask) for mask in range(1 << len(partition.blocks))]
        for v in agents
    ]
    best = None
    for welfare, sets, rest in _assignments(len(partition.blocks), tables):
        if best is None or welfare > best[2]:
            best = (tuple(sets), rest, welfare)
    return best


def reference_integral(inst):
    sets, rest, welfare = _leaf_walk(singleton_partition(inst.m), inst.agents)
    return allocation(inst.m, sets, rest), welfare


def reference_over_partition(inst, partition):
    sets, _rest, welfare = _leaf_walk(partition, inst.agents)
    owners = [UNALLOCATED] * len(partition.blocks)
    for i, block_set in enumerate(sets):
        for j in bits_of(block_set):
            owners[j] = i
    return tuple(owners), welfare


def random_partition(m, rng):
    """A partition of m items into at most m blocks, labels drawn from rng."""
    blocks = {}
    for j in range(m):
        label = rng.next_u64() % m
        blocks[label] = blocks.get(label, 0) | 1 << j
    return Partition(m, tuple(blocks.values()))


def assert_matches_reference(inst, partition):
    x, welfare = optimal_integral(inst)
    x_ref, welfare_ref = reference_integral(inst)
    assert (x, str(welfare)) == (x_ref, str(welfare_ref))
    owners, value = optimal_over_partition(inst, partition)
    owners_ref, value_ref = reference_over_partition(inst, partition)
    assert (owners, str(value)) == (owners_ref, str(value_ref))
    return x


def test_single_agent_gets_everything():
    inst = Instance(3, (Additive((F(1), F(2), F(3))),))
    x, welfare = optimal_integral(inst)
    assert x.bundles == (0b111,)
    assert welfare == 6


def test_fig1a_optimal_integral():
    x, welfare = optimal_integral(built_in("fig1a", eps=F(1, 10)))
    assert welfare == F(79, 10)


def test_fig1b_optimal_integral():
    _x, welfare = optimal_integral(built_in("fig1b"))
    assert welfare == 7


def test_single_minded_fast_path_matches_enumeration():
    for seed in range(40):
        inst = generate("random_single_minded", 5, 3, seed)
        x_slow, w_slow = reference_integral(inst)
        x_fast, w_fast = _single_minded_optimum(inst, OracleBudget())
        assert w_fast == w_slow
        assert x_fast == x_slow


def test_single_minded_search_matches_the_dp_on_seeded_markets():
    # Zero and fractional values and repeated desired sets make many welfare
    # ties, which the search must break by the DP's digits.
    values = (F(0), F(0), F(1, 2), F(1), F(3, 2), F(2), F(5, 3))
    mismatches = []
    for seed in range(4200):
        rng = SplitMix64(seed)
        m, n = rng.randint(1, 7), rng.randint(1, 5)
        pool = [rng.randint(1, (1 << m) - 1) for _ in range(rng.randint(1, n))]
        agents = tuple(
            SingleMinded(pool[rng.randint(0, len(pool) - 1)], values[rng.randint(0, 6)])
            for _ in range(n)
        )
        inst = Instance(m, agents)
        # the DP first: the search keeps its answer in the memo the DP reads
        sets, dp_welfare = market._optimum(inst, singleton_partition(m))
        x, welfare = _single_minded_optimum(inst, OracleBudget())
        if (x.bundles, welfare) != (sets, F(dp_welfare, inst.scale)):
            mismatches.append(seed)
    assert mismatches == []


def test_optimal_integral_charges_the_smaller_search_on_single_minded_markets(monkeypatch):
    # min(2^n, (n+1)^m), with the DP on ties.  SizeLimit exactly where
    # choosing the search by the budget left raised it: when both searches
    # exceed what is left.
    searches = []
    winner_sets = oracle._single_minded_optimum

    def counted(inst, budget):
        searches.append(inst)
        return winner_sets(inst, budget)

    monkeypatch.setattr(oracle, "_single_minded_optimum", counted)
    for m, n in itertools.product(range(1, 5), range(1, 6)):
        dp, search = (n + 1) ** m, 1 << n
        for used in (0, 3):
            for left in sorted({0, 1, search - 1, search, dp - 1, dp}):
                inst = generate("random_single_minded", m, n, m * 10 + n)
                budget = OracleBudget(limit=used + left, used=used)
                if dp > left and search > left:
                    with pytest.raises(SizeLimit):
                        optimal_integral(inst, budget)
                    assert budget.used == used
                    continue
                searches.clear()
                x, welfare = optimal_integral(inst, budget)
                assert budget.used == used + min(dp, search)
                assert len(searches) == (dp > search)
                assert (x, welfare) == reference_integral(inst)


def test_budget_abort():
    inst = generate("random_single_minded", 6, 3, 1)
    with pytest.raises(SizeLimit):
        optimal_over_partition(inst, singleton_partition(6), OracleBudget(limit=10))


def test_optimal_over_partition_singletons_equals_integral():
    for seed in range(15):
        inst = generate("random_uniform_budget_additive", 4, 3, seed + 50)
        _x, w = optimal_integral(inst)
        owners, w_blocks = optimal_over_partition(inst, singleton_partition(4))
        assert w_blocks == w
        bundles = [0] * inst.n
        for j, owner in enumerate(owners):
            if owner != UNALLOCATED:
                bundles[owner] |= 1 << j
        x = allocation(4, bundles)
        assert social_welfare(inst, x) == w


def test_optimal_over_partition_fig1a_pair():
    inst = built_in("fig1a", eps=F(1, 10))
    p = Partition(4, (mask_of([0, 1]), mask_of([2]), mask_of([3])))
    _owners, value = optimal_over_partition(inst, p)
    assert value == 7


def test_best_mccwe_single_agent():
    inst = Instance(2, (Additive((F(2), F(3))),))
    out, welfare = best_mccwe(inst)
    assert welfare == 5
    assert out.allocation.bundles == (0b11,)


def test_best_mccwe_fig1a():
    out, welfare = best_mccwe(built_in("fig1a", eps=F(1, 10)))
    assert welfare == 7
    assert social_welfare(built_in("fig1a"), out.allocation) == 7


def test_best_mccwe_charges_the_dp_and_one_walk():
    # fig1a's optimum is not supportable, so the walk runs to its end
    budget = OracleBudget(limit=2 * 6**4)
    _out, welfare = best_mccwe(built_in("fig1a"), budget)
    assert welfare == 7
    assert budget.used == budget.limit


def test_best_mccwe_charges_its_walk_only_when_the_walk_starts(monkeypatch):
    # fig1a with 50 agents who value nothing: optimal_integral's 56^4 states
    # fit the default budget, the optimum is not supportable, and the
    # walk's 56^4 more do not fit, so SizeLimit comes before any walk probe.
    market = built_in("fig1a")
    padded = Instance(market.m, market.agents + (Additive((0,) * market.m),) * 50)
    calls, supported = [], oracle._supported
    monkeypatch.setattr(oracle, "_supported", lambda inst, x: calls.append(x) or supported(inst, x))
    budget = OracleBudget()
    with pytest.raises(SizeLimit):
        best_mccwe(padded, budget)
    assert budget.used == 56**4
    assert len(calls) == 1


@pytest.mark.parametrize("family", FAMILIES)
def test_best_mccwe_answers_a_supportable_optimum_at_optimal_integrals_charge(family):
    # Each of these optima is supportable, so the first probe answers and
    # the charge is optimal_integral's: 5^10 for the DP, 2^4 for the
    # single-minded winner-set search.
    for seed in (1, 2, 3):
        inst = generate(family, 10, 4, seed)
        budget = OracleBudget()
        outcome, welfare = best_mccwe(inst, budget)
        assert welfare == optimal_integral(inst)[1]
        assert verify(inst, outcome, MCCWE).ok
        assert budget.used == (16 if family == "random_single_minded" else 5**10)


def test_best_mccwe_on_bundling_necessity_charges_the_winner_set_search():
    # 6^16 assignments, 2^5 winner sets, and a supportable optimum
    budget = OracleBudget()
    assert best_mccwe(built_in("bundling_necessity", m=16), budget)[1] == 16
    assert budget.used == 32


def test_best_mccwe_raises_when_the_walk_finds_nothing(monkeypatch):
    # The walk always finds the grand bundle at an agent of largest v(full)
    # supportable, so a walk without any supported candidate is a bug.
    monkeypatch.setattr(oracle, "_supported", lambda instance, x: None)
    with pytest.raises(CertificateError):
        best_mccwe(built_in("fig1a"))


def test_best_mccwe_never_exceeds_integral_optimum():
    for seed in range(10):
        inst = generate("random_uniform_budget_additive", 4, 3, seed + 500)
        _x, opt = optimal_integral(inst)
        _out, best = best_mccwe(inst)
        assert best <= opt


def test_item_pricing_trivial_and_second_price():
    one = Instance(2, (SingleMinded(0b11, F(5)),))
    assert best_single_minded_item_pricing(one) == 5
    duel = Instance(1, (SingleMinded(1, F(3)), SingleMinded(1, F(5))))
    assert best_single_minded_item_pricing(duel) == 5


def test_item_pricing_bundling_necessity():
    inst = built_in("bundling_necessity", m=16)
    assert best_single_minded_item_pricing(inst) == 9 == reference_item_pricing(inst)[0]


def test_item_pricing_rejects_other_families():
    with pytest.raises(NotSingleMinded):
        best_single_minded_item_pricing(Instance(1, (Additive((F(1),)),)))


def _solve_square(rows, rhs):
    """Gaussian elimination; None when the system is singular."""
    n = len(rhs)
    aug = [list(row) + [r] for row, r in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = F(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [aug[r][k] - f * aug[col][k] for k in range(n + 1)]
    return [aug[r][-1] for r in range(n)]


def feasible_vertex(rows, width):
    """A vertex of {p >= 0 : every (coeffs, relation, rhs) row holds}, or
    None when the region is empty.  The region lies in p >= 0, so it has a
    vertex whenever it is nonempty: a basic solution, where k rows are tight
    on k positive coordinates and every other coordinate is 0."""
    for k in range(min(len(rows), width) + 1):
        for tight in itertools.combinations(rows, k):
            for basic in itertools.combinations(range(width), k):
                values = _solve_square(
                    [[coeffs[j] for j in basic] for coeffs, _rel, _rhs in tight],
                    [rhs for _coeffs, _rel, rhs in tight],
                )
                if values is None or any(p < 0 for p in values):
                    continue
                point = [F(0)] * width
                for j, p in zip(basic, values):
                    point[j] = p
                lhs = [sum(c * p for c, p in zip(coeffs, point)) for coeffs, _rel, _rhs in rows]
                if all(
                    total <= rhs if rel == "<=" else total >= rhs
                    for total, (_coeffs, rel, rhs) in zip(lhs, rows)
                ):
                    return point
    return None


def reference_item_pricing(inst):
    """The item-pricing bound from the plain <=/>= price system: winners
    afford their sets (p(D_w) <= v_w), losers cannot profit (p(D_l) >= v_l).
    Items wanted by the same agents share one price variable, their sum.
    Returns the bound and the number of winner families found infeasible."""
    n = inst.n
    desired = [v.desired for v in inst.agents]
    values = [v.value_if_served for v in inst.agents]
    classes = sorted(
        {tuple(d >> j & 1 for d in desired) for j in range(inst.m)} - {(0,) * n}
    )
    best = F(0)
    rejected = 0
    for winners in range(1 << n):
        members = [i for i in range(n) if winners >> i & 1]
        if any(desired[i] & desired[k] for i, k in itertools.combinations(members, 2)):
            continue
        welfare = sum((values[i] for i in members), F(0))
        if welfare <= best:
            continue
        rows = [
            (
                tuple(F(c[i]) for c in classes),
                "<=" if winners >> i & 1 else ">=",
                values[i],
            )
            for i in range(n)
        ]
        if feasible_vertex(rows, len(classes)) is None:
            rejected += 1
        else:
            best = welfare
    return best, rejected


@pytest.mark.parametrize(
    "least_m, ms, least_n", [(1, 6, 1), (2, 7, 2)], ids=["m1-6_n1-5", "m2-8_n2-6"]
)
def test_item_pricing_matches_the_inequality_system(least_m, ms, least_n):
    rejected = 0
    for seed in range(300):
        m, n = least_m + seed % ms, least_n + seed // ms % 5
        inst = generate("random_single_minded", m, n, seed)
        bound, infeasible = reference_item_pricing(inst)
        assert best_single_minded_item_pricing(inst) == bound
        rejected += infeasible
    assert rejected >= 100  # both LP answers are exercised


def test_nonuniform_example_bundling_hurts():
    inst = built_in("nonuniform_identical_budget", eps=F(1, 8))
    _x, opt = optimal_integral(inst)
    assert opt == F(33, 8)
    _out, best_bundled = best_mccwe(inst)
    # unbundled support is impossible at the optimum; the search settles lower
    assert best_bundled == 4


@pytest.mark.parametrize("family", FAMILIES)
def test_dp_matches_leaf_walk(family):
    for seed in range(500):
        m, n = SHAPES[seed % len(SHAPES)]
        inst = generate(family, m, n, seed)
        assert_matches_reference(inst, random_partition(m, SplitMix64(seed)))


def zero_agents(m, rng):
    """One worthless agent of each family over m items: zero values, a zero
    budget, cap 0, a zero served value and an all-zero table."""
    values = tuple(F(rng.randint(0, 3)) for _ in range(m))
    return (
        Additive((F(0),) * m),
        BudgetAdditive(F(0), values),
        CappedCardinalityAdditive(values, 0),
        SingleMinded(rng.randint(1, (1 << m) - 1), F(0)),
        SuperadditiveExplicit((F(0),) * (1 << m)),
    )


def test_dp_matches_leaf_walk_on_ties():
    rng = SplitMix64(7)
    tied = 0
    for seed in range(200):
        m, n = SHAPES[seed % len(SHAPES)]
        identical = generate("random_uniform_budget_additive", m, n, seed, identical_budgets=True)
        assert_matches_reference(identical, random_partition(m, rng))
        family = FAMILIES[seed % len(FAMILIES)]
        clones = Instance(m, generate(family, m, 1, seed).agents * n)
        assert_matches_reference(clones, random_partition(m, rng))
        single = generate(family, m, 1, seed + 1000)
        assert_matches_reference(single, random_partition(m, rng))
        # a worthless agent 0 takes what nobody else values, where the
        # reference walk ties with "unallocated"
        worthless = zero_agents(m, rng)[seed % 5]
        mixed = Instance(m, (worthless,) + generate(family, m, n, seed).agents[1:])
        x = assert_matches_reference(mixed, random_partition(m, rng))
        tied += n > 1 and x.bundles[0] != 0
    assert tied >= 30, tied
    for m, n in SHAPES:
        for zeros in (
            Instance(m, (Additive((F(0),) * m),) * n),
            Instance(m, tuple(zero_agents(m, rng)[i % 5] for i in range(n))),
        ):
            assert_matches_reference(zeros, random_partition(m, rng))
            x, welfare = optimal_integral(zeros)
            assert x.bundles == ((1 << m) - 1,) + (0,) * (n - 1) and welfare == 0


def test_single_agent_sweep_above_table_cap(monkeypatch):
    # a lone agent takes everything without tables; two agents need them.
    # Every block table is built through `market.block_tables`, so the LP
    # behind best_mccwe's answer counts too: for a lone agent it is the
    # one-block program over the whole market.
    built = []

    def counted(v, partition, scale):
        built.append(len(partition.blocks))
        return value_table(v, partition, scale)

    monkeypatch.setattr("mccwe.market.value_table", counted)
    for seed in range(120):
        family = FAMILIES[seed % len(FAMILIES)]
        m = 2 + seed % 7
        inst = generate(family, m, 1, seed, identical_budgets=family == FAMILIES[2])
        assert optimal_integral(inst) == reference_integral(inst)
        partition = random_partition(m, SplitMix64(seed))
        assert optimal_over_partition(inst, partition) == reference_over_partition(inst, partition)
        assert built == []
        assert best_mccwe(inst)[1] == reference_integral(inst)[1]
        assert built == [1]
        built.clear()
    inst = generate("random_superadditive", 3, 2, 1)
    assert optimal_integral(inst) == reference_integral(inst)
    assert built == [3, 3]


def test_budget_fields_must_be_nonnegative_ints():
    # Before, a negative `used` lifted the limit, so fig1a's optimum ran
    # under limit=10, and a None limit or a str `used` leaked TypeError
    # from `charge`.
    fig1a = built_in("fig1a")
    with pytest.raises(SizeLimit):
        optimal_integral(fig1a, OracleBudget(limit=10))
    for limit, used, message in (
        (10, -10**9, "must be >= 0"),
        (-1, 0, "must be >= 0"),
        (None, 0, "must be ints, got NoneType"),
        (10, "0", "must be ints, got str"),
        (True, 0, "must be ints, got bool"),
        (10, 0.0, "must be ints, got float"),
    ):
        with pytest.raises(BadParams, match=message):
            OracleBudget(limit=limit, used=used)
    assert OracleBudget(limit=0).used == 0


def test_block_table_cap_is_checked_before_any_table_is_built(monkeypatch):
    def no_tables(v, partition, scale):
        raise AssertionError(f"built a table over {len(partition.blocks)} blocks")

    monkeypatch.setattr("mccwe.market.value_table", no_tables)
    inst = Instance(21, (Additive((F(1),) * 21),) * 2)
    budget = OracleBudget()
    with pytest.raises(SizeLimit, match="remaining budget"):
        optimal_over_partition(inst, singleton_partition(21), budget)
    assert budget.used == 0
    # a lone agent over as many blocks takes them all in closed form
    lone = Instance(21, inst.agents[:1])
    assert optimal_over_partition(lone, singleton_partition(21)) == ((0,) * 21, 21)


def test_block_tables_are_built_once_per_partition_and_cannot_change():
    inst = built_in("fig1a")
    partition = Partition(4, (0b0011, 0b0100, 0b1000))
    tables = block_tables(inst, partition)
    assert block_tables(inst, partition) is tables
    assert list(inst.block_tables) == [partition.blocks]
    assert tables == tuple(
        tuple(value_table(v, partition, inst.scale)) for v in inst.agents
    )
    assert isinstance(tables, tuple) and all(isinstance(t, tuple) for t in tables)
    with pytest.raises(TypeError):
        tables[0][1] = 0
    with pytest.raises(TypeError):
        tables[0] = ()


def test_tables_read_off_the_singleton_tables_match_value_table(monkeypatch):
    # Once the singleton tables are kept, a coarser partition's tables are
    # read off them, with no value_table call; a fresh market builds them
    # with value_table.  Every family, alone and mixed, at mixed scales.
    def no_tables(v, partition, scale):
        raise AssertionError("built a table where the singleton tables were kept")

    projected = 0
    for seed in range(3):
        rng = SplitMix64(seed)
        for m in range(1, 6):
            agents = list(_tie_heavy_valuations(m, rng))
            markets = [Instance(m, (v,)) for v in agents[:: 1 + len(agents) // 12]]
            for _ in range(6):
                n = rng.randint(2, 5)
                picks = (rng.randint(0, len(agents) - 1) for _ in range(n))
                markets.append(Instance(m, tuple(agents[i] for i in picks)))
            for inst in markets:
                partitions = [random_partition(m, rng) for _ in range(3)]
                expected = [
                    tuple(tuple(value_table(v, p, inst.scale)) for v in inst.agents)
                    for p in partitions
                ]
                block_tables(inst, singleton_partition(m))
                with monkeypatch.context() as patched:
                    patched.setattr("mccwe.market.value_table", no_tables)
                    assert [block_tables(inst, p) for p in partitions] == expected
                fresh = copy.deepcopy(inst)
                assert [block_tables(fresh, p) for p in partitions] == expected
                projected += len(partitions)
    assert projected > 300


def test_optimum_is_computed_once_per_partition(monkeypatch):
    runs = []
    real = market._winner_determination

    def counted(k, tables, middle):
        runs.append(k)
        return real(k, tables, middle)

    monkeypatch.setattr(market, "_winner_determination", counted)
    inst = built_in("fig1a")
    first = market._optimum(inst, singleton_partition(4))
    assert market._optimum(inst, singleton_partition(4)) is first
    assert inst.optima == {singleton_partition(4).blocks: first}
    assert optimal_integral(inst) == (allocation(4, first[0]), F(first[1], inst.scale))
    assert runs == [4]
    # the DP reads the block tables the configuration LP reads
    assert fractional_opt(inst, singleton_partition(4)).value == 8
    assert list(inst.block_tables) == [singleton_partition(4).blocks]


def test_copies_of_a_market_start_empty_memos():
    inst = built_in("fig1a")
    best_mccwe(inst)
    assert inst.block_tables and inst.optima and inst.config_lps
    for copied in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst)):
        assert copied == inst and copied.scale == inst.scale
        assert copied.block_tables == copied.optima == copied.config_lps == {}
        assert best_mccwe(copied)[1] == 7
    assert parse_instance(write_instance(inst)).optima == {}


def test_assignment_check_rejects_bad_reconstructions():
    # two units, agent 0 keyed by its set mask, agent 1 by nothing
    keys = [[0, 1, 2, 3], [0, 0, 0, 0]]
    _check_assignment(0b11, (0b01, 0b10), keys, 1)
    with pytest.raises(CertificateError, match="overlaps"):
        _check_assignment(0b11, (0b01, 0b11), keys, 1)
    with pytest.raises(CertificateError, match="cover"):
        _check_assignment(0b11, (0b01, 0b00), keys, 1)
    with pytest.raises(CertificateError, match="DP maximum"):
        _check_assignment(0b11, (0b01, 0b10), keys, 3)
    assert issubclass(CertificateError, MarketError)


def owner_vectors(k, n):
    """(sets, rest) for every owner vector of k units in itertools.product
    order: unit 0 most significant, digit n meaning "unallocated"."""
    for digits in itertools.product(range(n + 1), repeat=k):
        sets = [0] * (n + 1)
        for j, d in enumerate(digits):
            sets[d] |= 1 << j
        yield tuple(sets[:n]), sets[n]


def test_assignments_follow_owner_vector_order():
    for k, n in ((1, 1), (2, 3), (3, 2)):
        tables = [[F(0)] * (1 << k)] * n
        walked = [(tuple(sets), rest) for _w, sets, rest in _assignments(k, tables)]
        assert walked == list(owner_vectors(k, n))


def test_the_walk_yields_the_reference_walk_above_its_floor():
    # Below every welfare (-1) the floor lets the walk yield every
    # assignment in the plain odometer's order; with a floor F, exactly
    # those whose welfare beats F.
    markets = [built_in("fig1a", eps=F(1, 10))]
    markets.append(built_in("nonuniform_identical_budget", eps=F(1, 8)))
    markets += [
        generate(family, m, n, seed)
        for family in FAMILIES
        for m, n in ((3, 2), (4, 3))
        for seed in range(3)
    ]
    for inst in markets:
        tables = block_tables(inst, singleton_partition(inst.m))
        walk = [(w, tuple(sets), rest) for w, sets, rest in _assignments(inst.m, tables)]
        welfares = sorted({w for w, _sets, _rest in walk})
        for floor in [-1, welfares[0] - 1] + welfares[:: max(1, len(welfares) // 5)]:
            walked = oracle._assignments(inst.m, tables, [floor])
            expected = [leaf for leaf in walk if leaf[0] > floor]
            assert [(w, tuple(sets), rest) for w, sets, rest in walked] == expected


def _monotone_table(rng, k):
    """A random monotone integer table over k units: each set is worth its
    best one-unit-smaller subset plus 0 to 3."""
    table = [0] * (1 << k)
    for s in range(1, 1 << k):
        table[s] = max(table[s ^ 1 << j] for j in bits_of(s)) + rng.randint(0, 3)
    return table


def test_the_walk_applies_a_floor_raised_between_yields():
    # The caller may raise the floor between yields, as best_mccwe does
    # when a probe succeeds.  Each yield must be the plain odometer's next
    # leaf that beats the floor in force at that moment, and once the walk
    # ends no such leaf may be left.
    rng = random.Random(2014)
    skipped = 0
    for n, k in itertools.product(range(1, 6), range(1, 7)):
        for _ in range(2):
            tables = [_monotone_table(rng, k) for _ in range(n)]
            floor = [-1]
            reference = _assignments(k, tables)
            for welfare, sets, rest in oracle._assignments(k, tables, floor):
                for leaf in reference:
                    if leaf[0] > floor[0]:
                        break
                    skipped += 1
                else:
                    pytest.fail("the walk yields past the odometer's last leaf")
                assert (welfare, tuple(sets), rest) == (leaf[0], tuple(leaf[1]), leaf[2])
                if rng.random() < 0.2:
                    raised = welfare - rng.randint(0, 8)
                    floor[0] = max(floor[0], raised)
            assert all(w <= floor[0] for w, _s, _r in reference)
    assert skipped > 50_000


@pytest.mark.parametrize(
    "name, eps, yields, reads",
    [
        pytest.param("fig1a", F(1, 10), 6, 945, id="fig1a-eps0-10"),
        pytest.param(
            "nonuniform_identical_budget", F(1, 8), 3, 75, id="nonuniform_identical_budget-eps1-3"
        ),
    ],
)
def test_best_mccwe_walks_only_what_can_beat_its_best(monkeypatch, name, eps, yields, reads):
    # The owner-vector walk over fig1a's 6^4 = 1296 and the nonuniform
    # market's 4^3 = 64 assignments yields only those that beat its floor
    # at the time: max_i v_i(M) - 1 at first, then the best supportable
    # welfare.  On fig1a a walk that starts with no floor yields 10.
    # Bounding each child from its parent's reads, it reads the tables 945
    # and 75 times, where a walk that sums every table at every prefix it
    # enters read 2825 and 147.
    walk = oracle._assignments
    count = [0, 0]  # yields, table reads

    class Counted(tuple):
        def __getitem__(self, index):
            count[1] += 1
            return tuple.__getitem__(self, index)

    def counted(k, tables, floor):
        for leaf in walk(k, tuple(map(Counted, tables)), floor):
            count[0] += 1
            yield leaf

    monkeypatch.setattr(oracle, "_assignments", counted)
    inst = built_in(name, eps=eps)
    assert best_mccwe(inst) == oracle_reference.best_mccwe(copy.deepcopy(inst))
    assert count == [yields, reads]


# The walk's first floor is W_g - 1, W_g = max_i v_i(M).  Here the optimum
# x = (0, 0, 1) is not supportable, and the best MC-CWE, (0, 1, 1), has
# welfare W_g = 4, agent 1's v(M).  A floor of W_g would skip it, and the
# grand bundle to agent 1, (1, 1, 1), comes after it in owner-vector order.
FLOOR_MARKET = Instance(3, (SingleMinded(0b111, F(1)), CappedCardinalityAdditive((0, 4, 4), 1)))


def floor_markets():
    """Every built-in, some at more than one parameter, the three random
    families at m <= 6 and n <= 4 over seeded draws, and seeded markets of
    budget-additive, capped and single-minded agents at m 2-6 and n 2-4,
    a few of which walk."""
    markets = [FLOOR_MARKET]
    markets += [built_in("fig1a", eps=F(1, d)) for d in (2, 3, 10, 100)]
    markets += [built_in("nonuniform_identical_budget", eps=F(1, d)) for d in (2, 3, 8, 20)]
    markets += [built_in("fig1b"), built_in("revenue_example")]
    markets += [built_in("revenue_example", big=big) for big in (2, 5)]
    markets += [built_in("bundling_necessity"), built_in("bundling_necessity", m=4)]
    markets += [
        built_in("partition_reduction", weights=weights)
        for weights in ([1, 1, 2], [3, 1, 1, 2, 3], [2, 2, 3])
    ]
    markets += [
        generate(family, m, n, seed)
        for family in FAMILIES
        for m in range(1, 7)
        for n in range(1, 5)
        for seed in range(2)
    ]
    rng = SplitMix64(38)
    for draw in range(2500):
        m, n = 2 + draw % 5, rng.randint(2, 4)
        markets.append(Instance(m, tuple(dp_agent(rng.randint(1, 3), m, rng) for _ in range(n))))
    return markets


def test_best_mccwe_walks_above_the_grand_bundles_floor(monkeypatch):
    # The walk starts at floor max_i v_i(M) - 1 in the market's units, and
    # best_mccwe answers as the reference, which walks with no floor: the
    # same outcome, prices and welfare.
    floors = []
    walk = oracle._assignments

    def recorded(k, tables, floor):
        floors.append(floor[0])
        return walk(k, tables, floor)

    monkeypatch.setattr(oracle, "_assignments", recorded)
    walked = 0
    for inst in floor_markets():
        floors.clear()
        out, welfare = best_mccwe(inst)
        assert (out, welfare) == oracle_reference.best_mccwe(copy.deepcopy(inst))
        full = (1 << inst.m) - 1
        if floors:
            grand = max(inst.scaled_value(i, full) for i in range(inst.n))
            assert floors == [grand - 1]
            walked += 1
    assert walked >= 12, walked
    # the floor market's answer is at W_g, before the grand bundle
    out, welfare = best_mccwe(FLOOR_MARKET)
    assert (out.allocation.bundles, welfare) == ((0b001, 0b110), 4)
    assert oracle.optimal_integral(FLOOR_MARKET)[0].bundles == (0b011, 0b100)


@pytest.mark.parametrize("name", ["fig1a", "nonuniform_identical_budget"])
def test_best_mccwe_prices_x_and_each_supported_candidate_once(monkeypatch, name):
    # The walk compares each candidate's LP value with its welfare in
    # integers, and builds and prices only a candidate whose LP peaks there.
    results = []
    supporting = configlp.supporting_prices

    def counted(instance, x):
        results.append(False)
        outcome = supporting(instance, x)
        results[-1] = True
        return outcome

    monkeypatch.setattr(configlp, "supporting_prices", counted)
    walked = 0
    for j in range(1, 100, 3):
        results.clear()
        inst = built_in(name, eps=F(j, 100))
        out, welfare = best_mccwe(inst)
        assert (out, welfare) == oracle_reference.best_mccwe(copy.deepcopy(inst))
        # once for x, which answers or not, then only calls that answer
        assert results[1:] == [True] * (len(results) - 1)
        walked += not results[0]
    assert walked >= 10, walked


def brute_force_best_mccwe(inst, lp_cache):
    """The first supportable allocation in owner-vector order at the top
    supportable welfare, with its prices read off the configuration-LP
    block duals."""
    m, n = inst.m, inst.n
    best = None
    for sets, rest in owner_vectors(m, n):
        x = allocation(m, sets, rest)
        welfare = social_welfare(inst, x)
        if best is not None and welfare <= best[1]:
            continue
        partition, owners = induced_partition(x)
        if partition not in lp_cache:
            lp_cache[partition] = fractional_opt(inst, partition)
        if lp_cache[partition].value == welfare:
            best = (x, welfare, lp_cache[partition].dual_q, owners)
    x, welfare, dual_q, owners = best
    prices = [F(0)] * n
    for price, owner in zip(dual_q, owners):
        if owner != UNALLOCATED:
            prices[owner] = price
    return x, tuple(prices), welfare


def test_best_mccwe_matches_brute_force():
    markets = [
        generate(family, m, n, seed)
        for seed in range(12)
        for family in FAMILIES
        for m, n in SHAPES
        if (n + 1) ** m <= 256 and (seed + m + n) % 4 == 0
    ]
    markets += [built_in("fig1a", eps=F(1, d)) for d in (3, 10)]
    markets += [built_in("nonuniform_identical_budget", eps=F(1, d)) for d in (2, 3, 8, 20)]
    markets.append(built_in("partition_reduction", weights=[3, 1, 1, 2, 3]))
    # a split optimum that no price supports, beside a supportable one of
    # equal welfare later in the order
    for values in ((3, 3, 1), (3, 2, 3)):
        markets.append(
            Instance(3, (SingleMinded(0b111, F(3)), BudgetAdditive(F(4), tuple(map(F, values)))))
        )
    reached = {"optimum": 0, "top level": 0, "rescan": 0}
    for inst in markets:
        out, welfare = best_mccwe(inst)
        x, prices, expected = brute_force_best_mccwe(inst, {})
        assert (out.allocation, out.prices, out.x0_price, welfare) == (x, prices, 0, expected)
        x_opt, top = optimal_integral(inst)
        if welfare < top:
            reached["rescan"] += 1
        else:
            reached["optimum" if x == x_opt else "top level"] += 1
    assert min(reached.values()) > 0, reached


def sweep_markets():
    """fig1a and nonuniform_identical_budget at eps = j/100 for j = 1, 4, ...,
    97, fig1b, revenue_example at R = 2, 5 and 100, and the random families,
    identical budgets too, at m 2-6 and n 2-4 over 40 seeds."""
    markets = [
        built_in(name, eps=F(j, 100))
        for j in range(1, 100, 3)
        for name in ("fig1a", "nonuniform_identical_budget")
    ]
    markets.append(built_in("fig1b"))
    markets += [built_in("revenue_example", big=big) for big in (2, 5, 100)]
    families = [(family, False) for family in FAMILIES]
    families.append(("random_uniform_budget_additive", True))
    markets += [
        generate(family, m, n, seed, identical_budgets=identical)
        for family, identical in families
        for m in range(2, 7)
        for n in range(2, 5)
        for seed in range(40)
    ]
    return markets


def test_best_mccwe_matches_the_reference_without_its_prefilter(monkeypatch):
    # The block DP refuses a candidate only where its LP would, and the walk
    # skips only assignments that cannot beat the best so far: the same
    # outcome, prices and welfare, with fewer LP probes.
    probes = {"library": 0, "reference": 0}

    def counting(side, supported):
        def counted(instance, x):
            probes[side] += 1
            return supported(instance, x)

        return counted

    monkeypatch.setattr(oracle, "_supported", counting("library", oracle._supported))
    monkeypatch.setattr(
        oracle_reference, "_supported", counting("reference", oracle_reference._supported)
    )
    markets = [
        generate(family, m, n, seed)
        for family in FAMILIES
        for m in range(1, 7)
        for n in range(1, 4)
        for seed in range(12)
    ]
    markets += [built_in("fig1a", eps=F(1, d)) for d in (2, 3, 10, 100)]
    markets += [built_in("nonuniform_identical_budget", eps=F(1, d)) for d in (2, 3, 8, 20)]
    markets += [built_in("fig1b"), built_in("revenue_example")]
    markets.append(built_in("partition_reduction", weights=[3, 1, 1, 2, 3]))
    # Mixed markets whose best MC-CWE lies under a prefix that is worth no
    # more than the best so far until the unassigned units are counted.
    markets.append(
        Instance(
            4,
            (
                SingleMinded(0b1010, F(2)),
                BudgetAdditive(F(2), (F(5), F(3), F(0), F(1))),
                CappedCardinalityAdditive((F(2), F(0), F(0), F(2)), 1),
            ),
        )
    )
    markets.append(
        Instance(
            4,
            (
                SingleMinded(0b1110, F(2)),
                CappedCardinalityAdditive((F(0), F(4), F(5), F(3)), 1),
                Additive((F(2), F(0), F(0), F(0))),
            ),
        )
    )
    walked = {"listed": 0, "sweep": 0}
    for group, insts in (("listed", markets), ("sweep", sweep_markets())):
        for inst in insts:
            out, welfare = best_mccwe(inst)
            assert (out, welfare) == oracle_reference.best_mccwe(copy.deepcopy(inst))
            assert verify(inst, out, MCCWE).ok
            walked[group] += (out.allocation, welfare) != optimal_integral(inst)
    assert walked["listed"] >= 5 and walked["sweep"] >= 40, walked
    assert probes["library"] < probes["reference"], probes


def dp_agent(kind, m, rng):
    """One agent over m items of family `kind` (0 additive, 1 budget-additive,
    2 capped, 3 single-minded, 4 super-additive), with small int values, so
    that units which add nothing, and ties, are common."""
    values = tuple(rng.randint(0, 4) for _ in range(m))
    if kind == 0:
        return Additive(values)
    if kind == 1:
        return BudgetAdditive(rng.randint(0, 3 * m), values)
    if kind == 2:
        return CappedCardinalityAdditive(values, rng.randint(0, m))
    if kind == 3:
        return SingleMinded(rng.randint(1, (1 << m) - 1), rng.randint(0, 9))
    return generate("random_superadditive", m, 1, rng.randint(0, 10**6)).agents[0]


def dp_markets():
    """Seeded markets past the leaf walk's reach, at every m in 7-10 and n
    in 3-6: each of the five families alone, the three random families,
    mixed families, clones, a worthless agent among the others, and additive
    agents that value every item, of whom nothing is dominated."""
    rng = SplitMix64(27)
    markets = []
    for seed in range(32):
        m, n = 7 + seed % 4, 3 + seed // 4 % 4
        kind = seed % 5
        markets.append(Instance(m, tuple(dp_agent(kind, m, rng) for _ in range(n))))
        family = FAMILIES[seed % 3]
        identical = family == FAMILIES[2] and seed % 2 == 0
        markets.append(generate(family, m, n, seed, identical_budgets=identical))
        mixed = [dp_agent(rng.randint(0, 4), m, rng) for _ in range(n)]
        markets.append(Instance(m, tuple(mixed)))
        markets.append(Instance(m, (dp_agent(kind, m, rng),) * n))
        mixed[rng.randint(0, n - 1)] = zero_agents(m, rng)[kind]
        markets.append(Instance(m, tuple(mixed)))
        additive = (Additive(tuple(rng.randint(1, 4) for _ in range(m))) for _ in range(n))
        markets.append(Instance(m, tuple(additive)))
    return markets


def dp_cases():
    """(k, tables) for each of `dp_markets` over its singletons and over a
    seeded coarser partition."""
    rng = SplitMix64(28)
    cases = []
    for inst in dp_markets():
        for partition in (singleton_partition(inst.m), random_partition(inst.m, rng)):
            if len(partition.blocks) > 1:
                cases.append((len(partition.blocks), block_tables(inst, partition)))
    return cases


DP_CASES = dp_cases()


def _library_fold(k, tables, masks=_undominated):
    """The library's DP with each middle agent folded over masks(table)."""
    return market._winner_determination(k, tables, [masks(table) for table in tables[1:-1]])


def test_the_pruned_fold_answers_as_the_unpruned_one():
    # The same sets and welfare as folding every bundle, n 3^k subset
    # pairs, wherever the leaf walk cannot reach.
    pruned = unpruned = 0
    for k, tables in DP_CASES:
        assert _library_fold(k, tables) == oracle_reference._winner_determination(k, tables)
        kept = sum(len(_undominated(table)) for table in tables[1:-1])
        if kept < (len(tables) - 2) * ((1 << k) - 1):
            pruned += 1
        else:
            unpruned += 1
    assert len(DP_CASES) >= 350 and pruned >= 250 and unpruned >= 60, (pruned, unpruned)


def test_folding_every_bundle_changes_no_answer():
    def every(table):
        return list(range(1, len(table)))

    for k, tables in DP_CASES[::3]:
        assert _library_fold(k, tables, every) == oracle_reference._winner_determination(k, tables)


@pytest.mark.parametrize("drop", ["first", "last"])
def test_a_filter_that_drops_an_undominated_bundle_is_caught(drop):
    kept = slice(1, None) if drop == "first" else slice(None, -1)
    caught = sum(
        _library_fold(k, tables, lambda table: _undominated(table)[kept])
        != oracle_reference._winner_determination(k, tables)
        for k, tables in DP_CASES
    )
    assert caught >= 40, caught


def test_the_fold_filters_the_middle_agents_only(monkeypatch):
    # Agents 1..n-2, once each per DP: the first agent starts the fold and
    # the last is scanned over every bundle, for the full set only.
    filtered = []
    monkeypatch.setattr(
        market, "_undominated", lambda table: filtered.append(table) or _undominated(table)
    )
    for n in range(2, 7):
        inst = generate("random_uniform_budget_additive", 5, n, n)
        tables = block_tables(inst, singleton_partition(5))
        filtered.clear()
        optimal_integral(inst)
        assert filtered == list(tables[1:-1])

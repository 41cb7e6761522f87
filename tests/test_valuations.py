"""Valuation families, the integer value layer, demand queries, classification."""

import itertools
import random
import tracemalloc
from fractions import Fraction
from typing import get_args

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mccwe import (
    Additive,
    Allocation,
    BadParams,
    BudgetAdditive,
    CappedCardinalityAdditive,
    Instance,
    OracleBudget,
    Outcome,
    Partition,
    SingleMinded,
    SuperadditiveExplicit,
    WE,
    allocation,
    demand_query,
    optimal_integral,
    relative_demand_query,
    singleton_partition,
    verify,
)
from mccwe import bits
from mccwe.bits import mask_of
from mccwe.equilibria import demand_correspondence
from mccwe.errors import EmptyPool, SizeLimit
from mccwe.instances import SplitMix64, generate
from mccwe.valuations import (
    Valuation,
    demand_utilities,
    is_superadditive_family,
    value_table,
)
from value_reference import (
    fraction_value,
    identical_budgets,
    item_table,
    monotone,
    per_size_relative_demand,
    reduced_value,
    shared_item_values,
    splits_superadditive,
    subadditive,
    subset_sums,
    subset_unions,
    utility,
    valid_table,
)

F = Fraction


def test_subset_tables_match_the_per_mask_loops():
    rng = random.Random("subset-tables")
    for length in range(13):
        for _ in range(4):
            values = [rng.randint(-10**20, 10**20) for _ in range(length)]
            masks = [rng.getrandbits(rng.choice((3, 12, 70))) for _ in range(length)]
            assert bits.subset_sums(values) == subset_sums(values)
            assert bits.subset_unions(masks) == subset_unions(masks)
    assert bits.subset_sums(()) == [0] and bits.subset_unions(()) == [0]


def test_budget_additive_never_exceeds_budget():
    v = BudgetAdditive(F(3), (F(2), F(2), F(2)))
    for mask in range(8):
        assert v.value(mask) <= 3


def test_additive_equals_budget_additive_with_sentinel_budget():
    values = (F(1), F(5), F(2))
    add = Additive(values)
    ba = BudgetAdditive(F(10**9), values)
    for mask in range(8):
        assert add.value(mask) == ba.value(mask)


def test_capped_cardinality_takes_top_values():
    v = CappedCardinalityAdditive((F(99), F(100), F(100)), 2)
    assert v.value(0b111) == 200
    assert v.value(0b011) == 199
    assert v.value(0b001) == 99


def test_superadditive_table_constructor_rejects_submodular():
    # v({0}) = v({1}) = 2 but v({0,1}) = 3 < 4: submodular, must fail.
    with pytest.raises(BadParams):
        SuperadditiveExplicit((F(0), F(2), F(2), F(3)))
    # and accepts a genuinely super-additive table
    SuperadditiveExplicit((F(0), F(2), F(2), F(5)))
    with pytest.raises(BadParams):
        SuperadditiveExplicit((F(1), F(2)))  # not normalized
    with pytest.raises(BadParams):
        SuperadditiveExplicit((F(0), F(2), F(3), F(1)))  # not monotone


def _is_valid_table(table):
    """Normalized, nonnegative, monotone and super-additive, by brute force."""
    size = len(table)
    subsets = [(s, t) for t in range(size) for s in range(size) if s & t == s]
    return (
        table[0] == 0
        and all(v >= 0 for v in table)
        and all(table[s] <= table[t] for s, t in subsets)
        and all(table[s] + table[t ^ s] <= table[t] for s, t in subsets)
    )


def test_superadditive_table_constructor_matches_brute_force():
    counts = {"accepted": 0, "rejected": 0, "not monotone": 0}
    for seed in range(400):
        rng = SplitMix64(seed)
        m = rng.randint(0, 4)
        size = 1 << m
        # additive base plus bumps, closed under super-additivity...
        base = [rng.randint(0, 3) for _ in range(m)]
        table = [F(sum(base[j] for j in range(m) if mask >> j & 1)) for mask in range(size)]
        for mask in sorted(range(size), key=int.bit_count):
            table[mask] += rng.randint(0, 1)
            for sub in range(1, mask):
                if sub & mask == sub:
                    table[mask] = max(table[mask], table[sub] + table[mask ^ sub])
        table[0] = F(0)
        # ...then most tables take a random nudge that may break any rule
        for _ in range(rng.randint(0, 2)):
            table[rng.randint(0, size - 1)] += rng.randint(-3, 2)
        expected = _is_valid_table(table)
        try:
            SuperadditiveExplicit(tuple(table))
            accepted = True
        except BadParams:
            accepted = False
        assert accepted == expected, table
        counts["accepted" if accepted else "rejected"] += 1
        if table[0] == 0 and min(table) >= 0 and not accepted:
            counts["not monotone"] += any(
                table[t] > table[t | 1 << j] for t in range(size) for j in range(m)
            )
    assert min(counts.values()) >= 20, counts


def test_superadditive_table_constructor_checks_splits_of_every_size():
    # Tables v(S) = f(|S|) on four items.  f = (0, 1, 3, 4, 5) holds on every
    # split with a one-item side and fails only on 2 + 2: 3 + 3 > 5.
    sizes = [mask.bit_count() for mask in range(16)]
    only_two_two = 0
    for f in itertools.product(range(6), repeat=4):
        f = (0,) + f
        table = tuple(F(f[size]) for size in sizes)
        try:
            SuperadditiveExplicit(table)
            accepted = True
        except BadParams:
            accepted = False
        assert accepted == _is_valid_table(table), f
        one_item_splits_hold = all(f[1] + f[k] <= f[k + 1] for k in range(4))
        only_two_two += one_item_splits_hold and not accepted
    assert only_two_two > 0


def test_single_minded_requires_nonempty_desired_set():
    with pytest.raises(BadParams):
        SingleMinded(0, F(1))


def test_valuation_data_must_be_exact_rationals():
    # A float would be scaled by its binary denominator (0.1 by 2^55), and a
    # bool would count as 0 or 1.
    families = (
        lambda x: Additive((x, F(2))),
        lambda x: SingleMinded(0b11, x),
        lambda x: SuperadditiveExplicit((0, F(1), F(1), x)),
        lambda x: BudgetAdditive(x, (F(1), F(2))),
        lambda x: CappedCardinalityAdditive((F(1), x), 1),
    )
    for build in families:
        assert build(3).value(0b11) == build(F(3)).value(0b11)
        for bad in (0.1, 3.0, True):
            with pytest.raises(BadParams, match="exact rationals"):
                build(bad)
    # The data itself must be a tuple or a list.  Before, the exactness check
    # consumed a generator and left Additive with no items (the first query
    # raised IndexError), and None or a bare number raised TypeError.
    for build in (
        Additive,
        SuperadditiveExplicit,
        lambda data: BudgetAdditive(F(2), data),
        lambda data: CappedCardinalityAdditive(data, 1),
    ):
        for data in (lambda: (x for x in (F(0), F(1))), lambda: None, lambda: F(1)):
            with pytest.raises(BadParams, match="must be a tuple or a list"):
                build(data())


def test_integer_parameters_must_be_ints():
    # Before: a float cap raised TypeError on the first query and cap=True
    # acted as 1; desired=True acted as item 0, desired=0.5 raised TypeError
    # inside Instance, and desired=-1 built a bidder nobody could serve;
    # Instance(2.0, ...) raised TypeError later and Instance(True, ...) had m = 1.
    for call in (
        lambda: CappedCardinalityAdditive((F(1), F(2)), 1.5),
        lambda: CappedCardinalityAdditive((F(1), F(2)), True),
        lambda: SingleMinded(True, F(1)),
        lambda: SingleMinded(0.5, F(1)),
        lambda: SingleMinded(-1, F(1)),
        lambda: Instance(2.0, (Additive((F(1), F(2))),)),
        lambda: Instance(True, (Additive((F(1),)),)),
    ):
        with pytest.raises(BadParams):
            call()
    assert CappedCardinalityAdditive((F(1), F(2)), 1).value(0b11) == 2
    assert Instance(1, (SingleMinded(1, F(1)),)).m == 1


def test_constructors_check_exactness_before_comparing_data():
    # Before: a str budget raised TypeError from `budget < 0`, and a str
    # v(empty) failed the normalization test before the exactness check.
    for call, message in (
        (lambda: BudgetAdditive("1", (F(1),)), "exact rationals"),
        (lambda: BudgetAdditive(F(-1), (F(1),)), "negative value"),
        (lambda: SuperadditiveExplicit(("0", F(1))), "exact rationals"),
        (lambda: SuperadditiveExplicit((F(1), F(1))), "not normalized"),
        (lambda: SuperadditiveExplicit((F(1, 2), F(1))), "not normalized"),
    ):
        with pytest.raises(BadParams, match=message):
            call()


def test_entry_points_reject_inexact_prices_and_non_int_masks_and_counts():
    # Before: floats and bools slipped into masks, counts and the seed, and
    # inexact prices, as TypeError or AttributeError or, for n=True, as a
    # one-agent market.  A value query trusted its mask: a negative one read
    # an explicit table from its end, one past the items raised IndexError,
    # 1.5 raised TypeError, and True answered for item 0.
    v, items = Additive((F(1),)), singleton_partition(1)
    pair, table = Additive((1, 2)), SuperadditiveExplicit((0, 1, 1, 3))
    for call in (
        lambda: pair.value(0b100),
        lambda: pair.value(-1),
        lambda: pair.value(1.5),
        lambda: pair.value(True),
        lambda: table.value(-1),
        lambda: table.value(-3),
        lambda: SingleMinded(1, 3).value(-2),
        lambda: generate("random_single_minded", 2.0, 2, 1),
        lambda: generate("random_single_minded", 2, True, 1),
        lambda: generate("random_single_minded", 2, 2, 1.5),
        lambda: demand_query(v, items, [0.5]),
        lambda: demand_query(v, items, ["1"]),
        lambda: demand_correspondence(v, items, [0.5]),
        lambda: relative_demand_query(v, 1.0),
        lambda: relative_demand_query(v, True),
        lambda: Partition(2, (1, 2.0)),
        lambda: allocation(2, (1, 2.0)),
        lambda: Allocation(2, 0, (1, 2.0)),
        lambda: Allocation(2, 0.0, (1, 2)),
        lambda: Allocation(2.0, 0, (1, 2)),
        lambda: Partition(True, (1,)),
    ):
        with pytest.raises(BadParams):
            call()
    assert demand_query(v, items, [F(1, 2)]) == 1
    assert relative_demand_query(v, 1) == (1, F(1))
    assert generate("random_single_minded", 2, 2, 1).n == 2
    assert (pair.value(0b11), table.value(0b11), SingleMinded(1, 3).value(0b110)) == (3, 3, 0)

def test_demand_query_prefers_small_maximizers_at_zero_prices():
    v = Additive((F(0), F(2), F(2)))
    p = singleton_partition(3)
    # max utility 4; smallest maximizer is {1,2}, not the full set
    assert demand_query(v, p, [F(0)] * 3) == 0b110


def test_demand_query_capacity_two_tie_breaks_to_first_block():
    R = F(100)
    v = CappedCardinalityAdditive((R - 1, R, R), 2)
    p = Partition(3, (mask_of([0]), mask_of([1, 2])))
    # both {block0} and {block1} give utility 98; lowest mask wins
    assert demand_query(v, p, [F(1), F(102)]) == 0b01


def test_demand_queries_need_one_price_per_block():
    v = Additive((F(1), F(1)))
    p = singleton_partition(2)
    for prices in ([F(1)], [F(1), F(1), F(1)]):
        with pytest.raises(BadParams, match="prices for 2 blocks"):
            demand_query(v, p, prices)
        with pytest.raises(BadParams, match="prices for 2 blocks"):
            demand_correspondence(v, p, prices)


def test_demand_queries_need_a_partition_of_the_valuations_items():
    cases = (
        (Additive((F(1), F(1))), 3),
        (Additive((F(1), F(1))), 1),
        (BudgetAdditive(F(2), (F(1), F(1))), 3),
        (CappedCardinalityAdditive((F(1), F(1)), 1), 3),
        (SuperadditiveExplicit((F(0), F(1), F(1), F(3))), 1),
        (SingleMinded(0b11, F(3)), 1),
    )
    for v, m in cases:
        with pytest.raises(BadParams, match=f"partition's {m} items"):
            demand_query(v, singleton_partition(m), [F(1)] * m)
        with pytest.raises(BadParams, match=f"partition's {m} items"):
            value_table(v, Partition(m, ((1 << m) - 1,)), v.scale)
    # a single-minded agent fits any market that holds its desired set
    assert demand_query(SingleMinded(0b11, F(3)), singleton_partition(3), [F(1)] * 3) == 0b11


def test_demand_query_empty_when_everything_overpriced():
    v = BudgetAdditive(F(9, 10), (F(0), F(0), F(2), F(0)))  # caps at 9/10 < 2
    p = singleton_partition(4)
    assert demand_query(v, p, [F(1), F(4), F(2), F(2)]) == 0


def test_relative_demand_single_minded():
    v = SingleMinded(mask_of([1, 2]), F(5))
    best, density = relative_demand_query(v, mask_of([0, 1, 2, 3]))
    assert best == mask_of([1, 2])
    assert density == F(5, 2)
    # desired set unavailable: zero density, first singleton of the pool
    best, density = relative_demand_query(v, mask_of([1, 3]))
    assert best == mask_of([1])
    assert density == 0


def test_relative_demand_prefers_density_over_size():
    v = Additive((F(3), F(1)))
    best, density = relative_demand_query(v, 0b11)
    assert best == 0b01
    assert density == 3


def test_relative_demand_empty_pool():
    with pytest.raises(EmptyPool):
        relative_demand_query(Additive((F(1),)), 0)


def test_relative_demand_additive_families_answer_at_any_pool_size():
    # Before: pools over 24 items raised SizeLimit.  The best item answers,
    # the lowest on ties, wherever the pool's items sit.
    v = Additive((F(0),) * 30 + (F(3),))
    assert relative_demand_query(v, 1 << 30) == (1 << 30, F(3))
    assert relative_demand_query(Additive((F(1),) * 25), (1 << 25) - 1) == (1, F(1))
    values = tuple(F(j % 7, 2) for j in range(256))  # the top value, 3, first at item 6
    pool = (1 << 256) - 1
    for v in (Additive(values), CappedCardinalityAdditive(values, 200)):
        assert relative_demand_query(v, pool) == (1 << 6, F(3))
        assert relative_demand_query(v, pool & ~(1 << 6)) == (1 << 13, F(3))
    # binding a budget or a cap lowers the best item's density, no set beats it
    assert relative_demand_query(BudgetAdditive(F(5, 2), values), pool) == (1 << 5, F(5, 2))
    assert relative_demand_query(CappedCardinalityAdditive(values, 0), pool) == (1, F(0))


def test_relative_demand_single_minded_closed_form_needs_no_item_cap():
    # Before: pools over 24 items raised SizeLimit before the closed form.
    desired = mask_of([3, 40, 63])
    v = SingleMinded(desired, F(6))
    pool = (1 << 64) - 1
    assert relative_demand_query(v, pool) == (desired, F(2))
    assert relative_demand_query(v, pool & ~(1 << 40)) == (1, F(0))
    assert relative_demand_query(Additive((F(1),) * 64), pool) == (1, F(1))

def test_relative_demand_density_identity():
    v = BudgetAdditive(F(4), (F(3), F(2), F(2)))
    best, density = relative_demand_query(v, 0b111)
    assert density == v.value(best) / best.bit_count()


def _tie_heavy_valuations(m, rng):
    """Every family on m items: all-zero and equal values, every desired
    set, every cap, and budgets from 0 up past the additive mass; values
    are drawn whole and, for a second copy of most, as fractions."""
    zero, equal = (F(0),) * m, (F(1),) * m
    drawn = tuple(F(rng.randint(0, 3)) for _ in range(m))
    thirds = (F(1, 3),) * m
    split = tuple(F(rng.randint(0, 3), rng.randint(1, 4)) for _ in range(m))
    yield from (Additive(zero), Additive(equal), Additive(drawn), Additive(split))
    for desired in range(1, 1 << m):
        yield SingleMinded(desired, F(rng.randint(0, 2)))
        yield SingleMinded(desired, F(rng.randint(0, 2), rng.randint(1, 3)))
    yield SuperadditiveExplicit((F(0),) * (1 << m))
    yield SuperadditiveExplicit(tuple(F(s.bit_count()) for s in range(1 << m)))
    yield SuperadditiveExplicit(tuple(F(s.bit_count() ** 2, 6) for s in range(1 << m)))
    yield from generate("random_superadditive", m, 2, rng.randint(0, 10**6)).agents
    yield fractional_superadditive(m, rng)
    for budget in range(m + 2):
        yield from (BudgetAdditive(F(budget), equal), BudgetAdditive(F(budget), drawn))
        yield from (BudgetAdditive(F(budget, 3), thirds), BudgetAdditive(F(budget, 2), split))
    for cap in range(m + 1):
        yield from (CappedCardinalityAdditive(equal, cap), CappedCardinalityAdditive(drawn, cap))
        yield from (
            CappedCardinalityAdditive(thirds, cap),
            CappedCardinalityAdditive(split, cap),
        )


def fractional_superadditive(m, rng):
    """A super-additive table with fractional entries of mixed denominators:
    fractional item values and bumps, closed under super-additivity."""
    table = [F(0)] * (1 << m)
    base = [F(rng.randint(0, 4), rng.randint(1, 4)) for _ in range(m)]
    for mask in sorted(range(1, 1 << m), key=int.bit_count):
        low = mask & -mask
        table[mask] = table[mask ^ low] + base[low.bit_length() - 1]
        table[mask] += F(rng.randint(0, 2), rng.randint(1, 5))
        sub = (mask - 1) & mask
        while sub:
            table[mask] = max(table[mask], table[sub] + table[mask ^ sub])
            sub = (sub - 1) & mask
    return SuperadditiveExplicit(tuple(table))


def test_relative_demand_matches_brute_force_on_every_pool():
    pools = tied = 0
    for seed in range(4):
        rng = SplitMix64(seed)
        for m in range(1, 6):
            for v in _tie_heavy_valuations(m, rng):
                for pool in range(1, 1 << m):
                    # the reference: min of (-v(S)/|S|, |S|, S) over nonempty S
                    # in the pool, v from the valuation's Fraction data
                    keys = sorted(
                        (-fraction_value(v, s) / s.bit_count(), s.bit_count(), s)
                        for s in range(1, pool + 1)
                        if s & pool == s
                    )
                    neg_density, _size, best = keys[0]
                    assert relative_demand_query(v, pool) == (best, -neg_density), (v, pool)
                    pools += 1
                    tied += len(keys) > 1 and keys[1][0] == neg_density
    assert pools > 10_000 and tied > pools // 2


def _additive_family_valuation(family, m, seed, rng):
    """One valuation of `family` on m items, tie-heavy: values 0 to 4, as
    ints for even seeds and halves or thirds for odd ones.  The binding
    budget is below the additive mass, the slack one at or above it, and
    the cap runs through 0..m as the seed grows."""
    values = tuple(
        rng.randint(0, 4) if seed % 2 == 0 else F(rng.randint(0, 4), rng.randint(2, 3))
        for _ in range(m)
    )
    mass = sum(values)
    if family == "additive":
        return Additive(values)
    if family == "budget_binding":
        return BudgetAdditive(F(rng.randint(0, max(0, int(mass) - 1))), values)
    if family == "budget_slack":
        return BudgetAdditive(mass + rng.randint(0, 3), values)
    return CappedCardinalityAdditive(values, seed // 7 % (m + 1))


@pytest.mark.parametrize("family", ["additive", "budget_binding", "budget_slack", "capped"])
def test_relative_demand_closed_form_matches_the_per_size_walk(family):
    caps, tied = set(), 0
    for seed in range(500):
        rng = SplitMix64(seed)
        m = 6 + seed % 7
        v = _additive_family_valuation(family, m, seed, rng)
        # the whole market on half the seeds, a seeded nonempty pool on the
        # rest; seed % 4 crosses both with int and fractional values
        pool = (1 << m) - 1 if seed % 4 < 2 else rng.randint(1, (1 << m) - 1)
        assert relative_demand_query(v, pool) == per_size_relative_demand(v, pool), (v, pool)
        singles = [v.scaled_value(1 << j) for j in bits.bits_of(pool)]
        tied += singles.count(max(singles)) > 1
        if family == "capped":
            caps.add((m, v.cap))
    assert tied > 100
    if family == "capped":
        assert caps == {(m, cap) for m in range(6, 13) for cap in range(m + 1)}


def test_relative_demand_walks_only_explicit_tables(monkeypatch):
    # The closed forms read one value per pool item, and the answer's once
    # more; only an explicit table reads every nonempty subset of the pool.
    calls = []
    for family in (Additive, BudgetAdditive, CappedCardinalityAdditive, SuperadditiveExplicit):
        original = family.scaled_value
        monkeypatch.setattr(
            family, "scaled_value", lambda v, mask, f=original: calls.append(mask) or f(v, mask)
        )
    pool = 0b1011011011  # 7 items
    for v, reads in (
        (Additive((1,) * 10), 8),
        (BudgetAdditive(3, (1,) * 10), 8),
        (CappedCardinalityAdditive((1,) * 10, 2), 8),
        (SuperadditiveExplicit(tuple(s.bit_count() for s in range(1 << 10))), (1 << 7) - 1),
    ):
        calls.clear()
        relative_demand_query(v, pool)
        assert len(calls) == reads, type(v).__name__


def test_classify_single_minded_is_superadditive():
    inst = Instance(3, (SingleMinded(0b011, F(4)), SingleMinded(0b100, F(1))))
    for v in inst.agents:
        table = item_table(v, 3)
        assert is_superadditive_family(v) and splits_superadditive(table)
        assert monotone(table) and table[0] == 0
    assert shared_item_values(inst) is None


def test_classify_uniform_budget_additive_flags():
    shared = (F(1), F(4))
    agents = (
        BudgetAdditive(F(3), shared),
        BudgetAdditive(F(3), (F(0), F(4))),
    )
    inst = Instance(2, agents)
    assert shared_item_values(inst) == [F(1), F(4)]
    assert identical_budgets(inst)
    assert all(subadditive(item_table(v, 2)) for v in agents)
    agents = (BudgetAdditive(F(3), shared), BudgetAdditive(F(2), (F(0), F(3))))
    inst = Instance(2, agents)
    assert shared_item_values(inst) is None
    assert not identical_budgets(inst)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_demand_query_dominates_every_bundle_set(data):
    m = data.draw(st.integers(1, 4))
    values = tuple(F(x) for x in data.draw(st.lists(st.integers(0, 6), min_size=m, max_size=m)))
    budget = F(data.draw(st.integers(0, 12)))
    v = BudgetAdditive(budget, values)
    p = singleton_partition(m)
    prices = [F(x) for x in data.draw(st.lists(st.integers(0, 5), min_size=m, max_size=m))]
    best = demand_query(v, p, prices)
    table = value_table(v, p, v.scale)

    def util(mask):
        return F(table[mask], v.scale) - sum(prices[j] for j in range(m) if mask >> j & 1)

    best_util = util(best)
    assert all(util(mask) <= best_util for mask in range(1 << m))

    # the shared routine against the pointwise reference, on coarser blocks too
    labels = data.draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    groups = [mask_of(j for j in range(m) if labels[j] == label) for label in range(m)]
    coarse = Partition(m, tuple(b for b in groups if b))
    for part in (p, coarse):
        k = len(part.blocks)
        utils, scale = demand_utilities(v, part, prices[:k])
        assert scale == v.scale  # whole prices add no denominator
        assert utils == [utility(v, part, mask, prices[:k]) * scale for mask in range(1 << k)]
        assert demand_query(v, part, prices[:k]) in demand_correspondence(v, part, prices[:k])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_structural_superadditivity_matches_enumeration(data):
    m = data.draw(st.integers(1, 4))
    family = data.draw(st.sampled_from(["ba", "cap"]))
    values = tuple(F(x) for x in data.draw(st.lists(st.integers(0, 5), min_size=m, max_size=m)))
    if family == "ba":
        v = BudgetAdditive(F(data.draw(st.integers(0, 15))), values)
    else:
        v = CappedCardinalityAdditive(values, data.draw(st.integers(0, m)))
    assert is_superadditive_family(v) == splits_superadditive(item_table(v, m))


def _rationals(data, m):
    """m nonnegative rationals, zero among them often."""
    return tuple(
        F(data.draw(st.integers(0, 4)), data.draw(st.integers(1, 3))) for _ in range(m)
    )


def _pairwise_table(data, m):
    """Item values plus nonnegative pair bonuses: normalized, super-additive."""
    items, bonus = _rationals(data, m), _rationals(data, m * m)
    table = []
    for s in range(1 << m):
        held = [j for j in range(m) if s >> j & 1]
        pairs = sum((bonus[j * m + k] for j, k in itertools.combinations(held, 2)), F(0))
        table.append(sum((items[j] for j in held), F(0)) + pairs)
    return tuple(table)


# One generator per valuation family, every datum allowed to be zero (zero
# values, a zero budget, cap 0, a zero served value, an all-zero table).
FAMILY_DRAWS = {
    Additive: lambda data, m: Additive(_rationals(data, m)),
    BudgetAdditive: lambda data, m: BudgetAdditive(_rationals(data, 1)[0], _rationals(data, m)),
    CappedCardinalityAdditive: lambda data, m: CappedCardinalityAdditive(
        _rationals(data, m), data.draw(st.integers(0, m))
    ),
    SingleMinded: lambda data, m: SingleMinded(
        data.draw(st.integers(1, (1 << m) - 1)), _rationals(data, 1)[0]
    ),
    SuperadditiveExplicit: lambda data, m: SuperadditiveExplicit(_pairwise_table(data, m)),
}


@pytest.mark.parametrize("family", get_args(Valuation), ids=lambda family: family.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_family_is_normalized_and_monotone(family, data):
    # the oracles' winner-determination DP assigns every unit on this contract
    m = data.draw(st.integers(1, 4))
    v = FAMILY_DRAWS[family](data, m)
    assert v.value(0) == 0
    for s in range(1 << m):
        for j in range(m):
            assert v.value(s) <= v.value(s | 1 << j)


def test_value_table_matches_pointwise_queries():
    v = CappedCardinalityAdditive((F(3), F(1), F(2)), 2)
    table = value_table(v, singleton_partition(3), v.scale)
    assert table == [v.value(mask) for mask in range(8)]

    # every family with fractional values, on the singleton partition, a
    # merged-block one and one block, at the valuation's scale and at a
    # market's larger one: each entry is the Fraction reduced value times it
    rng = SplitMix64(5)
    families = set()
    for seed in range(60):
        m = 1 + seed % 6
        agents = []
        for family in ("random_superadditive", "random_single_minded",
                       "random_uniform_budget_additive"):
            agents += generate(family, m, 2, seed).agents
        values = tuple(F(rng.next_u64() % 5, 1 + rng.next_u64() % 3) for _ in range(m))
        agents += [
            Additive(values),
            BudgetAdditive(F(rng.next_u64() % 8, 1 + rng.next_u64() % 4), values),
            CappedCardinalityAdditive(values, 1 + seed % 3),
            SingleMinded(1 + rng.next_u64() % ((1 << m) - 1), F(1 + rng.next_u64() % 7, 6)),
            fractional_superadditive(m, rng),
        ]
        labels = [rng.next_u64() % m for _ in range(m)]
        groups = [mask_of(j for j in range(m) if labels[j] == label) for label in range(m)]
        coarse = Partition(m, tuple(b for b in groups if b))
        one_block = Partition(m, ((1 << m) - 1,))
        market_scale = Instance(m, tuple(agents)).scale * 7
        for agent in agents:
            if agent.scale > 1:
                families.add(type(agent).__name__)
            for part in (singleton_partition(m), coarse, one_block):
                k = len(part.blocks)
                expected = [reduced_value(agent, part, mask) for mask in range(1 << k)]
                for scale in (agent.scale, market_scale):
                    assert value_table(agent, part, scale) == [x * scale for x in expected]
    assert len(families) == 5, families
    with pytest.raises(BadParams, match="not a multiple"):
        value_table(Additive((F(1, 2),)), singleton_partition(1), 3)


def test_relative_demand_rejects_pools_outside_the_valuations_items():
    cases = (
        (Additive((F(1), F(1))), 0b100),
        (SuperadditiveExplicit((F(0), F(1))), 0b10),
        (BudgetAdditive(F(1), (F(1),)), 0b11),
        (CappedCardinalityAdditive((F(1),), 1), 0b10),
        (Additive((F(1), F(1))), -1),
        (SingleMinded(0b1, F(1)), -2),
    )
    for v, pool in cases:
        with pytest.raises(BadParams, match="not over"):
            relative_demand_query(v, pool)
    # a single-minded agent's pool may hold any items
    assert relative_demand_query(SingleMinded(0b1, F(1)), 0b110) == (0b10, 0)


def test_integer_superadditivity_check_matches_the_fraction_splits():
    verdicts = {True: 0, False: 0}
    for seed in range(240):
        rng = SplitMix64(seed)
        m = rng.randint(1, 5)
        table = list(fractional_superadditive(m, rng).table)
        # most tables take a fractional nudge that may break any rule
        for _ in range(rng.randint(0, 2)):
            table[rng.randint(0, (1 << m) - 1)] += F(rng.randint(-3, 2), rng.randint(1, 4))
        try:
            SuperadditiveExplicit(tuple(table))
            accepted = True
        except BadParams:
            accepted = False
        assert accepted == valid_table(table), table
        verdicts[accepted] += 1
    assert min(verdicts.values()) >= 40, verdicts


def test_no_table_is_built_past_twenty_blocks():
    # value_table holds the one table size rule, so every caller that needs
    # a table over 21 blocks raises before a single entry exists.  Before,
    # only demand queries and the verifier had the 20-block cap; the oracle
    # under a budget of 10^12 (3^21 states fit) built both agents' tables.
    v = Additive((1,) * 21)
    market = Instance(21, (v, v))
    singletons = singleton_partition(21)
    outcome = Outcome(allocation(21, [(1 << 21) - 1, 0]), item_prices=(0,) * 21)
    for call in (
        lambda: value_table(v, singletons, 1),
        lambda: demand_query(v, singletons, (0,) * 21),
        lambda: verify(market, outcome, WE),
        lambda: optimal_integral(market, OracleBudget(limit=10**12)),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimit, match="21 blocks exceeds the 20-block table cap"):
                call()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

"""Built-in markets, random families, and serialization round-trips."""

import io
import json
import re
import tracemalloc
from fractions import Fraction

import pytest

from mccwe import (
    Additive,
    BadParams,
    BudgetAdditive,
    CappedCardinalityAdditive,
    Instance,
    Outcome,
    ParseError,
    SingleMinded,
    SuperadditiveExplicit,
    allocation,
)
from mccwe.bits import bits_of
from mccwe.cli import main
from mccwe.errors import SizeLimit
from mccwe.instances import (
    BUILTINS,
    FAMILIES,
    SplitMix64,
    built_in,
    generate,
    parse_allocation,
    parse_instance,
    parse_outcome,
    parse_rational,
    write_instance,
    write_outcome,
)
from mccwe.oracle import optimal_integral
from value_reference import (
    fraction_instance,
    fraction_rational,
    identical_budgets,
    item_table,
    shared_item_values,
    splits_superadditive,
)

F = Fraction


def test_fig1a_classification():
    inst = built_in("fig1a", eps=F(1, 10))
    assert shared_item_values(inst) is not None
    assert not identical_budgets(inst)


def test_fig1b_classification():
    inst = built_in("fig1b")
    assert shared_item_values(inst) is not None
    assert identical_budgets(inst)


def test_nonuniform_example_not_uniform():
    inst = built_in("nonuniform_identical_budget")
    assert shared_item_values(inst) is None
    assert identical_budgets(inst)


def test_bundling_necessity_combinatorics():
    inst = built_in("bundling_necessity", m=16)
    assert inst.n == 5
    smalls = [v.desired for v in inst.agents[:-1]]
    for s in smalls:
        assert s.bit_count() == 4
    for i in range(4):
        for j in range(i + 1, 4):
            assert (smalls[i] & smalls[j]).bit_count() == 1
    for item in range(16):
        assert sum(1 for s in smalls if s >> item & 1) <= 2
    assert inst.agents[-1].desired == (1 << 16) - 1
    assert inst.agents[-1].value_if_served == 16


def test_bundling_necessity_rejects_non_squares():
    with pytest.raises(BadParams):
        built_in("bundling_necessity", m=12)
    with pytest.raises(BadParams):
        built_in("bundling_necessity", m=1)
    for m in (0, -4):
        with pytest.raises(BadParams, match="perfect square at least 4"):
            built_in("bundling_necessity", m=m)


def test_eps_validation():
    with pytest.raises(BadParams):
        built_in("fig1a", eps=F(1))
    with pytest.raises(BadParams):
        built_in("nonuniform_identical_budget", eps=F(0))


def test_partition_reduction_balanced_split():
    inst = built_in("partition_reduction", weights=(1, 1, 2))
    _x, welfare = optimal_integral(inst)
    assert welfare == 4  # balanced split exists: {2} vs {0,1}
    lopsided = built_in("partition_reduction", weights=(1, 1, 6))
    _x, welfare = optimal_integral(lopsided)
    assert welfare < 8


def test_generator_determinism():
    a = generate("random_single_minded", 4, 3, seed=1)
    b = generate("random_single_minded", 4, 3, seed=1)
    assert a == b
    c = generate("random_single_minded", 4, 3, seed=2)
    assert a != c


@pytest.mark.parametrize("family", FAMILIES)
def test_the_seed_is_a_64_bit_state(family):
    generate(family, 3, 2, seed=(1 << 64) - 1)
    for seed in (-1, 1 << 64, -(1 << 64)):
        with pytest.raises(BadParams, match=r"the seed must be in \[0, 2\^64\)"):
            generate(family, 3, 2, seed=seed)


def test_splitmix64_takes_only_a_64_bit_int_seed():
    # Before, a str seed leaked TypeError, and -1 and 2^64 silently masked to
    # the streams of 2^64 - 1 and 0.
    assert SplitMix64((1 << 64) - 1).next_u64() == SplitMix64((1 << 64) - 1).next_u64()
    assert SplitMix64(0).state == 0
    for seed, message in (
        (True, "^the seed must be an int, got bool$"),
        ("a", "^the seed must be an int, got str$"),
        (-1, r"^the seed must be in \[0, 2\^64\), got -1$"),
        (1 << 64, rf"^the seed must be in \[0, 2\^64\), got {1 << 64}$"),
    ):
        with pytest.raises(BadParams, match=message):
            SplitMix64(seed)


def test_randint_takes_only_ordered_int_bounds():
    # Before, randint(1, 0) leaked ZeroDivisionError, randint(5, 1) drew
    # from 3..5, randint(1, 2.5) returned a float and a bool passed as an int.
    rng = SplitMix64(2014)
    bounds = ((0, 0), (0, 1), (1, 10), (-5, 5), (3, 3), (0, (1 << 64) - 1), (-(1 << 70), 1 << 70))
    draws = [rng.randint(lo, hi) for lo, hi in bounds]
    assert draws == [0, 1, 4, -5, 3, 4283057755417690474, -1170328258129202884061]
    for lo, hi, message in (
        (1, 0, "^randint needs lo <= hi, got 1 > 0$"),
        (5, 1, "^randint needs lo <= hi, got 5 > 1$"),
        (1, 2.5, "^randint bounds must be ints, got float$"),
        (True, 3, "^randint bounds must be ints, got bool$"),
        (0, F(3), "^randint bounds must be ints, got Fraction$"),
    ):
        state = rng.state
        with pytest.raises(BadParams, match=message):
            rng.randint(lo, hi)
        assert rng.state == state  # a refused call draws nothing


def test_an_instance_keeps_a_copy_of_its_metadata():
    # Before, the caller's dict was kept, so a Fraction put in after the
    # check made write_instance leak TypeError.
    meta = {"a": 1, "b": [2]}
    inst = Instance(1, (Additive((F(1),)),), metadata=meta)
    meta["b"].append(F(1, 2))
    meta["c"] = F(1, 2)
    assert inst.metadata == {"a": 1, "b": [2]}
    assert json.loads(write_instance(inst))["metadata"] == {"a": 1, "b": [2]}


def test_random_superadditive_really_is():
    for seed in range(30):
        inst = generate("random_superadditive", 5, 3, seed)
        assert all(splits_superadditive(item_table(v, 5)) for v in inst.agents)


def test_random_families_build_int_data():
    # Before, every datum was a Fraction that the valuation scaled straight
    # back to an int; the markets and their documents are the same.
    data = {
        "random_superadditive": lambda v: v.table,
        "random_single_minded": lambda v: (v.value_if_served,),
        "random_uniform_budget_additive": lambda v: (v.budget, *v.item_values),
    }
    markets = [generate(family, 4, 3, seed) for family in data for seed in range(5)]
    markets += [
        generate("random_uniform_budget_additive", 4, 3, seed, identical_budgets=True)
        for seed in range(5)
    ]
    for inst in markets:
        read = data[inst.name]
        assert {type(x) for v in inst.agents for x in read(v)} == {int}
        assert parse_instance(write_instance(inst)) == inst


def test_random_uniform_flags():
    inst = generate("random_uniform_budget_additive", 4, 3, 9, identical_budgets=True)
    assert shared_item_values(inst) is not None
    assert identical_budgets(inst)


def test_family_names_dispatch():
    assert BUILTINS["fig1b"]() == built_in("fig1b")
    assert "random_single_minded" in FAMILIES
    assert generate("random_single_minded", 3, 2, 4) == generate("random_single_minded", 3, 2, 4)
    with pytest.raises(BadParams):
        built_in("mystery")
    with pytest.raises(BadParams):
        generate("mystery", 3, 2, 4)
    # Before: an unhashable name leaked TypeError, and any truthy flag
    # counted as True.
    for name in (["fig1a"], {}):
        with pytest.raises(BadParams, match="unknown built-in instance"):
            built_in(name)
    with pytest.raises(BadParams, match="identical_budgets must be a bool"):
        generate("random_uniform_budget_additive", 3, 2, 4, identical_budgets=5)


def test_instance_round_trips():
    corpus = [
        built_in("fig1a", eps=F(1, 10)),
        built_in("fig1b"),
        built_in("revenue_example", big=F(100)),
        built_in("bundling_necessity", m=16),
        built_in("nonuniform_identical_budget", eps=F(1, 8)),
        built_in("partition_reduction", weights=(1, 1, 2)),
        Instance(  # every family's writer, on fractional data
            2,
            (
                Additive((F(1, 2), F(3))),
                SingleMinded(0b10, F(7, 3)),
                SuperadditiveExplicit((0, F(1, 2), F(1, 3), F(5, 4))),
                BudgetAdditive(F(3, 2), (F(1, 4), 2)),
                CappedCardinalityAdditive((F(2, 5), F(1, 7)), 1),
            ),
            name="five families",
        ),
    ]
    for inst in corpus:
        assert parse_instance(write_instance(inst)) == inst


def test_random_instance_round_trips():
    for seed in range(60):
        for family, m, n in (
            ("random_superadditive", 4, 2),
            ("random_single_minded", 5, 3),
            ("random_uniform_budget_additive", 4, 3),
        ):
            inst = generate(family, m, n, seed)
            assert parse_instance(write_instance(inst)) == inst


def test_declared_uniform_values_are_ignored_and_no_longer_written():
    # Earlier versions wrote the shared item values of uniform budget-additive
    # markets under "uniform_item_values"; the agents' own values decide now.
    for name, declared in (
        ("fig1a", ["1", "4", "2", "2"]),
        ("fig1a", ["9", "9", "9", "9"]),
        ("nonuniform_identical_budget", ["2", "2", "2"]),
    ):
        text = write_instance(built_in(name))
        assert "uniform_item_values" not in text
        doc = json.loads(text)
        doc["uniform_item_values"] = declared
        inst = parse_instance(json.dumps(doc))
        assert inst == parse_instance(text)
        assert (shared_item_values(inst) is not None) == (name == "fig1a")


def test_outcome_round_trip():
    x = allocation(3, [0b001, 0b110])
    for out in (
        Outcome(x, prices=(F(1), F(51, 2))),
        Outcome(x, item_prices=(F(1), F(2), F(2))),
        Outcome(allocation(3, [0b001, 0b010]), prices=(F(1), F(1)), x0_price=F(0)),
    ):
        assert parse_outcome(write_outcome(out), 3) == out


def test_outcome_prices_are_exact_and_round_trip():
    # An inexact price crashed `verify` outside the error taxonomy, and an x0
    # price on an empty x0 was dropped by `write_outcome`.
    x = allocation(2, [0b01])  # x0 = {1}
    for bad in (0.5, "1", True):
        for build in (
            lambda p: Outcome(x, prices=(p,)),
            lambda p: Outcome(x, prices=(F(1),), x0_price=p),
            lambda p: Outcome(x, item_prices=(F(1), p)),
        ):
            with pytest.raises(BadParams, match="exact rationals"):
                build(bad)
    whole = allocation(2, [0b11])
    with pytest.raises(BadParams, match="empty x0"):
        Outcome(whole, prices=(F(1),), x0_price=F(5))
    with pytest.raises(BadParams, match="no x0 price"):
        Outcome(x, item_prices=(F(1), F(0)), x0_price=F(1))
    for out in (
        Outcome(x, prices=(1,), x0_price=F(1, 3)),
        Outcome(whole, prices=(F(1),)),
        Outcome(x, item_prices=(F(1), 0)),
    ):
        assert parse_outcome(write_outcome(out), 2) == out
    doc = json.loads(write_outcome(Outcome(whole, prices=(F(1),))))
    doc["prices"]["x0"] = "5"
    with pytest.raises(ParseError, match="empty x0"):
        parse_outcome(json.dumps(doc), 2)


def test_built_in_parameters_must_be_exact():
    # Before, a float became its binary rational (eps = 0.1 stored as
    # 3602879701896397/36028797018963968) and a string weight leaked ValueError.
    for call in (
        lambda: built_in("fig1a", eps=0.1),
        lambda: built_in("nonuniform_identical_budget", eps=0.125),
        lambda: built_in("revenue_example", big=100.0),
        lambda: built_in("partition_reduction", weights=["a"]),
        lambda: built_in("partition_reduction", weights=[1, 0.5, 0.5]),
        lambda: built_in("bundling_necessity", m=16.0),
    ):
        with pytest.raises(BadParams):
            call()
    assert built_in("fig1a", eps=F(1, 10)).metadata["eps"] == "1/10"
    assert built_in("revenue_example", big=100) == built_in("revenue_example")
    assert built_in("partition_reduction", weights=(1, 1)).metadata == {"B": "1"}


def test_built_in_reports_unknown_missing_and_non_list_parameters():
    # Each of these leaked TypeError before.
    for name, params, message in (
        ("fig1a", {"foo": 1}, "unexpected keyword argument 'foo'"),
        ("fig1b", {"eps": F(1, 10)}, "unexpected keyword argument 'eps'"),
        ("partition_reduction", {}, "missing a required argument: 'weights'"),
        ("partition_reduction", {"weights": 5}, "weights must be a list"),
    ):
        with pytest.raises(BadParams, match=message):
            built_in(name, **params)


def test_parse_allocation_accepts_outcome_documents():
    x = allocation(3, [0b001, 0b110])
    text = write_outcome(Outcome(x, prices=(F(0), F(0))))
    assert parse_allocation(text, 3) == x


def test_parse_rational_errors():
    assert parse_rational("3/4", "f") == F(3, 4)
    assert parse_rational("-2", "f") == -2
    with pytest.raises(ParseError):
        parse_rational("1/0", "f")
    with pytest.raises(ParseError):
        parse_rational("0.5", "f")
    with pytest.raises(ParseError):
        parse_rational("x", "f")


def test_parse_rational_takes_only_ascii_digits_and_no_trailing_newline():
    # Before: `$` matched before a final newline and `\d` took any Unicode
    # digit, so "3\n" read as 3 and "\u0663/\u0664" (Arabic-Indic) as 3/4.
    for text in ("3\n", "1/2\n", "\u0663/\u0664", "\uff13", "3/\u0664", " 3"):
        with pytest.raises(ParseError, match="expected a rational"):
            parse_rational(text, "f")
    assert parse_rational("-0012/04", "f") == F(-3)

def test_parse_instance_errors_name_location():
    good = write_instance(built_in("fig1b"))
    with pytest.raises(ParseError, match="format"):
        parse_instance(good.replace('"format": 1', '"format": 2'))
    with pytest.raises(ParseError, match="agents"):
        parse_instance(good.replace('"budget": "2"', '"budget": "1/0"'))
    with pytest.raises(ParseError, match="line"):
        parse_instance(good[:-3])


def test_a_repeated_key_is_a_parse_error():
    # Before, JSON kept the last of a repeated key silently: {"m": 3, "m": 1}
    # read as one item.
    good = write_instance(built_in("fig1b"))
    assert good.count('"m": 7') == 1
    with pytest.raises(ParseError, match=r"^instance: repeated key 'm'$"):
        parse_instance(good.replace('"m": 7', '"m": 7, "m": 7'))
    with pytest.raises(ParseError, match=r"^instance: repeated key 'budget'$"):
        parse_instance(good.replace('"budget": "2"', '"budget": "2", "budget": "5"', 1))
    x = allocation(2, [0b01, 0b10])
    text = write_outcome(Outcome(x, prices=(F(1), F(1))))
    with pytest.raises(ParseError, match=r"^outcome: repeated key 'x0'$"):
        parse_outcome(text.replace('"x0": []', '"x0": [], "x0": []'), 2)
    alloc = '{"format": 1, "x0": [], "x": [[0], [1]], "x": [[0, 1], []]}'
    with pytest.raises(ParseError, match=r"^allocation: repeated key 'x'$"):
        parse_allocation(alloc, 2)
    assert parse_allocation(alloc.replace(', "x": [[0, 1], []]', ""), 2) == x


def test_the_format_version_is_the_int_one():
    # Before, true, 1.0 and 1e0 passed the version check, as each equals 1.
    good = write_instance(built_in("fig1b"))
    assert parse_instance(good) == built_in("fig1b")
    for version in ("true", "1.0", "1e0", '"1"', "null"):
        with pytest.raises(ParseError, match="^instance: missing or unsupported format version$"):
            parse_instance(good.replace('"format": 1', f'"format": {version}'))
    x = allocation(1, [0b1])
    text = write_outcome(Outcome(x, prices=(F(1),)))
    with pytest.raises(ParseError, match="^outcome: missing or unsupported format version$"):
        parse_outcome(text.replace('"format": 1', '"format": true'), 1)


def test_parse_outcome_price_arity_mismatch():
    x = allocation(2, [0b01, 0b10])
    text = write_outcome(Outcome(x, prices=(F(1), F(1))))
    broken = text.replace('"agents": [\n      "1",\n      "1"\n    ]', '"agents": ["1"]')
    assert broken != text
    with pytest.raises(ParseError, match="bundle"):
        parse_outcome(broken, 2)


def test_parse_rational_rejects_more_digits_than_int_converts():
    with pytest.raises(ParseError, match="f:"):
        parse_rational("7" * 5000, "f")
    with pytest.raises(ParseError, match="f:"):
        parse_rational("1/" + "7" * 5000, "f")
    with pytest.raises(ParseError, match="instance"):
        parse_instance('{"format": 1, "m": ' + "7" * 5000 + "}")


def test_single_minded_index_is_bounded_before_the_mask_is_built():
    doc = {
        "format": 1,
        "m": 3,
        "agents": [{"family": "single_minded", "desired": [10**8], "value": "1"}],
    }
    text = json.dumps(doc)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=r"agents\[0\]\.desired"):
            parse_instance(text)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_deeply_nested_json_is_a_parse_error():
    deep = "[" * 100_000 + "]" * 100_000
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_instance(deep)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_outcome('{"format": 1, "allocation": ' + deep + "}", 3)


def test_json_booleans_are_not_integers():
    base = {
        "format": 1,
        "m": 2,
        "agents": [{"family": "single_minded", "desired": [1], "value": "1"}],
    }
    assert parse_instance(json.dumps(base)).m == 2
    for field, value in (("m", True), ("desired", [True]), ("value", True)):
        doc = json.loads(json.dumps(base))
        if field == "m":
            doc["m"] = value
        else:
            doc["agents"][0][field] = value
        with pytest.raises(ParseError):
            parse_instance(json.dumps(doc))
    capped = {"family": "capped_additive", "cap": True, "item_values": ["1", "2"]}
    with pytest.raises(ParseError, match="cap"):
        parse_instance(json.dumps(dict(base, agents=[capped])))
    outcome = {"format": 1, "allocation": {"x0": [False], "x": [[1]]}, "prices": {"agents": ["0"]}}
    with pytest.raises(ParseError, match="allocation.x0"):
        parse_outcome(json.dumps(outcome), 2)


def test_item_count_is_bounded_before_masks_are_built():
    doc = {
        "format": 1,
        "m": 1 << 24,
        "agents": [{"family": "single_minded", "desired": [(1 << 24) - 1], "value": "1"}],
    }
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="m must lie in"):
            parse_instance(json.dumps(doc))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(BadParams):
        generate("random_single_minded", 1 << 24, 2, 0)
    with pytest.raises(BadParams):
        built_in("bundling_necessity", m=65 * 65)
    with pytest.raises(BadParams, match="at most 4096 items"):
        built_in("partition_reduction", weights=[1] * 4097)


def test_instance_name_must_be_a_string():
    doc = json.loads(write_instance(built_in("fig1b")))
    doc["name"] = ["fig1b"]
    with pytest.raises(ParseError, match="name"):
        parse_instance(json.dumps(doc))


def test_instance_name_and_metadata_follow_one_rule():
    # Before, the library built these markets and write_instance wrote files
    # that parse_instance rejected.
    agents = (Additive((F(1),)),)
    for field, value, message in (
        ("name", 5, "name must be a string"),
        ("metadata", [1], "metadata must be an object"),
    ):
        with pytest.raises(BadParams, match=message):
            Instance(1, agents, **{field: value})
        doc = json.loads(write_instance(Instance(1, agents)))
        doc[field] = value
        with pytest.raises(ParseError, match=f"^instance: {message}$"):
            parse_instance(json.dumps(doc))
    # Metadata JSON cannot write (a Fraction: write_instance raised
    # TypeError) or read back as it was (an int key came back as "1"), or
    # that only Python's JSON writes and reads: NaN and Infinity.  Before,
    # parse_instance took both (json reads one shared NaN object, so the
    # round trip compared it equal to itself) and write_instance wrote them
    # back, and Instance took float("inf").
    nonfinite = [{"a": [float(x)]} for x in ("nan", "inf", "-inf")]
    for metadata in ({"a": F(1, 2)}, {1: "a"}, {"a": (1, 2)}, *nonfinite):
        with pytest.raises(BadParams, match="^metadata must be JSON, with string keys$"):
            Instance(1, agents, metadata=metadata)
    doc = json.loads(write_instance(Instance(1, agents)))
    for token in ("NaN", "Infinity", "-Infinity"):
        text = json.dumps(dict(doc, metadata={"a": ["TOKEN"]})).replace('"TOKEN"', token)
        with pytest.raises(ParseError, match="^instance: metadata must be JSON, with string keys$"):
            parse_instance(text)
    inst = Instance(1, agents, name="one", metadata={"items": ["a"]})
    back = parse_instance(write_instance(inst))
    assert (back, back.name, back.metadata) == (inst, "one", {"items": ["a"]})


def test_a_repeated_item_index_is_a_parse_error():
    # Before, the duplicate merged silently: [0, 0, 2] read as {0, 2}.
    desired = {"family": "single_minded", "desired": [0, 0, 2], "value": "1"}
    with pytest.raises(ParseError, match=r"^agents\[0\]\.desired: lists an item twice$"):
        parse_instance(json.dumps({"format": 1, "m": 3, "agents": [desired]}))
    for body, where in (
        ({"x0": [], "x": [[0, 0, 1], [2]]}, "allocation.x[0]"),
        ({"x0": [], "x": [[0, 1], [2, 2]]}, "allocation.x[1]"),
        ({"x0": [1, 1], "x": [[0], [2]]}, "allocation.x0"),
    ):
        with pytest.raises(ParseError, match=f"^{re.escape(where)}: lists an item twice$"):
            parse_allocation(body, 3)
    assert parse_allocation({"x0": [], "x": [[1, 0], [2]]}, 3).bundles == (0b011, 0b100)


def test_an_explicit_table_is_bounded_before_it_is_scaled():
    # Before, every entry was scaled into a new table (583 KiB for a list
    # of 2^16 ints) before the length and the 12-item cap were checked.
    half = F(1, 2)
    for table, error, message in (
        ([0] * (1 << 16), SizeLimit, "validated only up to 12 items"),
        ((0,) * ((1 << 16) - 1) + (half,), SizeLimit, "validated only up to 12 items"),
        ([half] * ((1 << 16) + 1), BadParams, "table length must be a power of two"),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(error, match=message):
                SuperadditiveExplicit(table)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10
    # A table both badly sized and holding a negative or inexact entry now
    # names its length (it named the entry before).
    for table in ((0, -1, 2), (0, 0.5, 1)):
        with pytest.raises(BadParams, match="^table length must be a power of two$"):
            SuperadditiveExplicit(table)


def test_empty_explicit_table_is_a_parse_error():
    with pytest.raises(BadParams, match="power of two"):
        SuperadditiveExplicit(())
    doc = {"format": 1, "m": 1, "agents": [{"family": "superadditive_explicit", "table": []}]}
    with pytest.raises(ParseError, match="power of two"):
        parse_instance(json.dumps(doc))


NUMBER_FORMS = ("3", "-0", "6/2", "3/4", "-0012/04", 3, -7, 0)


def test_parse_rational_loads_whole_numbers_as_ints():
    # A Fraction was built for every number before, whole or not.
    assert type(parse_rational("3", "f")) is int
    for text in NUMBER_FORMS:
        value = parse_rational(text, "f")
        assert value == fraction_rational(text)
        assert type(value) is (Fraction if "/" in str(text) else int)


def _scaled(v) -> dict:
    """A valuation's scale and its scaled_* fields."""
    return {key: x for key, x in vars(v).items() if key == "scale" or key.startswith("scaled_")}


def _assert_readers_agree(text: str) -> Instance:
    """The integer reader and the Fraction one read `text` alike."""
    ours, ref = parse_instance(text), fraction_instance(text)
    assert ours.agents == ref.agents and ours == ref
    assert ours.scale == ref.scale and type(ours.scale) is int
    for v, w in zip(ours.agents, ref.agents):
        scaled = _scaled(v)
        assert type(v) is type(w) and scaled == _scaled(w)
        assert type(scaled.pop("scale")) is int
        assert all(type(x) is int for xs in scaled.values() for x in xs)
    assert write_instance(ours) == write_instance(ref)
    return ours


def test_every_number_form_reads_as_the_fraction_reader_reads_it():
    forms = ["3", "-0", "6/2", "3/4", "0012/04", 3, 0]  # valuation data is nonnegative
    values = [fraction_rational(text) for text in forms]

    def spell(mask, x):  # the additive table's entries, in three spellings
        if mask % 3 == 0 and x.denominator == 1:
            return int(x)
        return str(x) if mask % 3 == 1 else f"{2 * x.numerator}/{2 * x.denominator}"

    table = [spell(mask, sum((values[j] for j in bits_of(mask)), F(0))) for mask in range(128)]
    agents = [
        {"family": "additive", "item_values": forms},
        {"family": "budget_additive", "budget": "6/2", "item_values": forms},
        {"family": "budget_additive", "budget": 5, "item_values": forms[::-1]},
        {"family": "capped_additive", "cap": 2, "item_values": forms},
        {"family": "single_minded", "desired": [0, 3], "value": "-0"},
        {"family": "single_minded", "desired": [6], "value": "3/4"},
        {"family": "single_minded", "desired": [1, 2], "value": 4},
        {"family": "superadditive_explicit", "table": table},
    ]
    text = json.dumps({"format": 1, "m": 7, "agents": agents})
    inst = _assert_readers_agree(text)
    assert inst.scale == 4
    assert [type(x) for x in inst.agents[0].item_values] == [int, int, F, F, F, int, int]


def test_built_in_and_seeded_markets_read_as_the_fraction_reader_reads_them():
    params = {"partition_reduction": {"weights": (1, F(1, 2), 2, F(3, 2))}}
    for name in BUILTINS:
        text = write_instance(built_in(name, **params.get(name, {})))
        assert write_instance(_assert_readers_agree(text)) == text
    for seed in range(200):
        for family, m, n in (
            ("random_superadditive", 1 + seed % 5, 1 + seed % 3),
            ("random_single_minded", 1 + seed % 8, 1 + seed % 5),
            ("random_uniform_budget_additive", 1 + seed % 8, 1 + seed % 5),
        ):
            identical = seed % 2 == 1 and family == "random_uniform_budget_additive"
            text = write_instance(generate(family, m, n, seed, identical_budgets=identical))
            assert write_instance(_assert_readers_agree(text)) == text


try:
    int("7" * 5000)
except ValueError as exc:
    _DIGIT_LIMIT = str(exc)  # Python's own text, which ParseError repeats

_RATIONAL = "expected a rational like '3' or '3/4', got "


@pytest.mark.parametrize(
    "bad, reason",
    [
        ("1/0", "zero denominator"),
        (True, _RATIONAL + "True"),
        (0.5, _RATIONAL + "0.5"),
        (" 3", _RATIONAL + "' 3'"),
        ("7" * 5000, _DIGIT_LIMIT),
    ],
    ids=["zero-denominator", "true", "float", "space", "5000-digits"],
)
def test_a_bad_entry_deep_in_a_list_is_named_by_its_location(tmp_path, capsys, bad, reason):
    # The library message and the CLI's exit code 2 and error line, as the
    # reader that built a Fraction and a location per entry gave them.
    def at_17(values):
        return values[:17] + [bad] + values[18:]

    def market(m, last):
        agents = [{"family": "additive", "item_values": ["1"] * m}] * 2 + [last]
        return json.dumps({"format": 1, "m": m, "agents": agents})

    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    ones = ["1"] * 20
    for text in (
        market(5, {"family": "superadditive_explicit", "table": at_17(["0"] * 32)}),
        market(20, {"family": "additive", "item_values": at_17(ones)}),
        market(20, {"family": "budget_additive", "budget": "3", "item_values": at_17(ones)}),
    ):
        message = f"agents[2][17]: {reason}"
        with pytest.raises(ParseError) as caught:
            parse_instance(text)
        assert str(caught.value) == message
        inst.write_text(text)
        assert main(["oracle", "-i", str(inst)], out=io.StringIO()) == 2
        assert capsys.readouterr().err == f"error=ParseError {message}\n"

    agents = [{"family": "additive", "item_values": ["1"]}] * 20
    inst.write_text(json.dumps({"format": 1, "m": 1, "agents": agents}))
    x = {"x0": [], "x": [[0]] + [[]] * 19}
    text = json.dumps({"format": 1, "allocation": x, "prices": {"agents": at_17(["0"] * 20)}})
    message = f"prices.agents[17]: {reason}"
    with pytest.raises(ParseError) as caught:
        parse_outcome(text, 1)
    assert str(caught.value) == message
    out.write_text(text)
    argv = ["verify", "-i", str(inst), "-a", str(out), "--mode", "mccwe"]
    assert main(argv, out=io.StringIO()) == 2
    assert capsys.readouterr().err == f"error=ParseError {message}\n"


@pytest.mark.parametrize("family", ["random_superadditive", "random_single_minded"])
def test_generate_rejects_identical_budgets_for_a_family_without_budgets(family):
    with pytest.raises(BadParams, match="takes no identical budgets"):
        generate(family, 4, 2, 0, identical_budgets=True)

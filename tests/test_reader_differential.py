"""The batched whole-number reader and the int-only scaler against the
per-entry paths they bypass: `value_reference.regex_rat_list`, one pattern
match per entry, and `value_reference.general_scale`, an LCM and one
product per datum."""

import random
import re
from fractions import Fraction as F

import pytest

from mccwe import (
    Additive,
    BadParams,
    BudgetAdditive,
    CappedCardinalityAdditive,
    ParseError,
    SingleMinded,
    SuperadditiveExplicit,
)
from mccwe.bits import subset_sums
from mccwe.instances import _digit_strings, _rat_list, parse_rational
from value_reference import general_scale, regex_rat_list, regex_rational

PLAIN = ("0", "7", "42", "1000", "123456789012345678901234567890")
ODD = (
    # leading zeros, a signed zero, "p/q" and the empty string
    "007", "-0", "3/4", "6/2", "",
    # what int() takes but the format does not
    " 3", "3\n", "+3", "1_000",
    # Arabic-Indic, fullwidth and superscript digits
    "\u0663", "\uff13", "\u00b2", "1\u0663",
    # JSON kinds other than a string
    True, False, 2.0, 5, -3, 0, ["1"], [], {"a": 1},
    # past int()'s digit limit
    "7" * 5000, "0" * 4999 + "1",
)


def _read(reader, values):
    """What a list reader gives: its values and their types, or its error."""
    try:
        parsed = reader(values, "where")
    except ParseError as exc:
        return "error", str(exc)
    return parsed, [type(x) for x in parsed]


def _lists(seeds):
    """Seeded lists, from all plain digit strings to mostly odd forms."""
    for seed in seeds:
        rng = random.Random(seed)
        odd_share = rng.choice((0.0, 0.0, 0.05, 0.3, 1.0))
        yield [
            rng.choice(ODD) if rng.random() < odd_share else rng.choice(PLAIN)
            for _ in range(rng.randint(0, 12))
        ]


def test_the_batched_reader_reads_every_list_as_the_regex_reader_does():
    for values in _lists(range(3000)):
        assert _read(_rat_list, values) == _read(regex_rat_list, values), values
    for form in PLAIN + ODD:
        for values in ([form], [form] * 3, ["1", form], [form, "1"]):
            assert _read(_rat_list, values) == _read(regex_rat_list, values), values


def test_a_single_rational_reads_as_the_regex_reader_reads_it():
    for form in PLAIN + ODD:
        try:
            expected = regex_rational(form)
        except ValueError as exc:
            with pytest.raises(ParseError) as caught:
                parse_rational(form, "f")
            assert str(caught.value) == f"f: {exc}"
        else:
            value = parse_rational(form, "f")
            assert (value, type(value)) == (expected, type(expected))


def test_the_batch_path_takes_only_lists_of_ascii_digit_strings():
    # The batch path's guard against a per-entry pattern: Arabic-Indic '3'
    # passes isdigit() and int() reads it as 3, and an empty entry joins to
    # nothing.
    def reference(values):
        return bool(values) and all(
            type(v) is str and re.fullmatch("[0-9]+", v) for v in values
        )

    for values in _lists(range(3000)):
        assert _digit_strings(values) == reference(values), values
    for values in (["\u0663"], ["1", "\u0663"], [""], ["", "1"], ["1", ""], ["1", True]):
        assert not _digit_strings(values), values
    assert _digit_strings(["0", "007", "7" * 5000])


def _whole(x):
    """A whole Fraction as an int, so data can be int-only."""
    return x.numerator if x.denominator == 1 else x


def _data(rng, size, spelling):
    values = [F(rng.randint(0, 20), rng.choice((1, 1, 2, 3, 6))) for _ in range(size)]
    if spelling == "int":
        return tuple(rng.randint(0, 20) for _ in range(size))
    if spelling == "fraction":
        return tuple(values)
    if spelling == "whole-fraction":
        return tuple(F(x.numerator) for x in values)  # Fraction(3, 1) and its kin
    return tuple(_whole(x) if rng.random() < 0.5 else x for x in values)  # mixed


def test_scaling_matches_the_general_formula():
    for seed in range(400):
        rng = random.Random(seed)
        spelling = ("int", "fraction", "whole-fraction", "mixed")[seed % 4]
        items, extra = _data(rng, 3, spelling), _data(rng, 1, spelling)
        cases = (
            (Additive(items), (items,), ("scaled_items",)),
            (
                BudgetAdditive(extra[0], items),
                (extra, items),
                ("scaled_budget", "scaled_items"),
            ),
            (CappedCardinalityAdditive(items, 2), (items,), ("scaled_items",)),
            (SingleMinded(0b101, extra[0]), (extra,), ("scaled_served",)),
        )
        table = subset_sums(list(items))  # additive, so super-additive
        if spelling == "int":
            table = [int(x) for x in table]
        cases += ((SuperadditiveExplicit(tuple(table)), (table,), ("scaled_table",)),)
        for v, data, fields in cases:
            scale, units = general_scale(*data)
            assert (v.scale, tuple(getattr(v, name) for name in fields)) == (scale, units)
            assert type(v.scale) is int
            assert all(type(x) is int for name in fields for x in getattr(v, name))
    assert Additive((F(3, 1), 2)).scale == 1
    assert Additive([1, 2]).scaled_items == (1, 2)


def test_the_int_path_takes_no_bool_and_keeps_the_negative_check():
    class Count(int):
        pass

    for build in (
        lambda x: Additive((2, x)),
        lambda x: SingleMinded(0b1, x),
        lambda x: BudgetAdditive(3, (1, x)),
        lambda x: BudgetAdditive(x, (1, 2)),
        lambda x: CappedCardinalityAdditive((x,), 1),
        lambda x: SuperadditiveExplicit((0, x)),
    ):
        for bad, kind in ((True, "bool"), (False, "bool"), (Count(1), "Count")):
            rule = f"^valuation data must be exact rationals, got {kind}$"
            with pytest.raises(BadParams, match=rule):
                build(bad)
        with pytest.raises(BadParams, match="^negative value in valuation data$"):
            build(-1)

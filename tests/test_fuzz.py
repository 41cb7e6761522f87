"""Mutated documents: the parsers raise only ParseError, the CLI exits 0, 1 or 2.

Each example writes a valid instance (m <= 6) and a valid outcome for it,
then applies a few mutations anywhere in either JSON tree: a value changes
type, a key or list entry is dropped, an integer turns big or negative, or a
value becomes a 100,000-deep nested array.  `solve` runs every mechanism
with the outcome document as its input allocation.
"""

import copy
import io
import json
import os
import tempfile
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mccwe import ParseError, SizeLimit, full_surplus_outcome
from mccwe.cli import _MECHANISMS, main
from mccwe.equilibria import MODES
from mccwe.instances import (
    FAMILIES,
    SplitMix64,
    built_in,
    generate,
    parse_instance,
    parse_outcome,
    write_instance,
    write_outcome,
)
from mccwe.market import Allocation, Outcome

DEPTH = 100_000
NESTED = "@nested@"  # a string no valid document holds; becomes the deep array

OTHER_TYPES = (None, True, False, 0, 1.5, "x", "1/0", [], {}, [1], {"a": 1})
INTEGERS = (-1, -(2**63), 2**31, 2**64, 10**30, 4097)

SMALL_BUILTINS = (
    lambda: built_in("fig1a", eps=Fraction(1, 10)),
    lambda: built_in("revenue_example", big=Fraction(10)),
    lambda: built_in("nonuniform_identical_budget"),
    lambda: built_in("partition_reduction", weights=(1, 1, 2)),
)


@st.composite
def documents(draw):
    """A valid (instance, outcome) pair of JSON trees."""
    if draw(st.booleans()):
        inst = SMALL_BUILTINS[draw(st.integers(0, len(SMALL_BUILTINS) - 1))]()
    else:
        family = draw(st.sampled_from(FAMILIES))
        m, n = draw(st.integers(1, 6)), draw(st.integers(1, 4))
        inst = generate(family, m, n, draw(st.integers(0, 10**6)))
    rng = SplitMix64(draw(st.integers(0, 10**6)))
    bundles = [0] * inst.n
    x0 = 0
    for j in range(inst.m):
        owner = rng.randint(0, inst.n)
        if owner == inst.n:
            x0 |= 1 << j
        else:
            bundles[owner] |= 1 << j
    x = Allocation(inst.m, x0, tuple(bundles))
    if draw(st.booleans()):
        outcome = full_surplus_outcome(inst, x)
    else:
        outcome = Outcome(x, item_prices=tuple(Fraction(rng.randint(0, 9)) for _ in range(inst.m)))
    return json.loads(write_instance(inst)), json.loads(write_outcome(outcome))


def _slots(tree):
    """Every (container, key) that holds a value, depth first."""
    found = []
    stack = [tree]
    while stack:
        node = stack.pop()
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in keys:
            found.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return found


def mutate(draw, tree):
    slots = _slots(tree)
    if not slots:
        return
    node, key = slots[draw(st.integers(0, len(slots) - 1))]
    kind = draw(st.sampled_from(("type", "drop", "integer", "nest")))
    if kind == "drop":
        del node[key]
    elif kind == "type":
        # a fresh copy, since a later mutation may edit inside it
        node[key] = copy.deepcopy(draw(st.sampled_from(OTHER_TYPES)))
    elif kind == "integer":
        node[key] = draw(st.sampled_from(INTEGERS))
    else:
        node[key] = NESTED


def render(tree):
    return json.dumps(tree).replace(json.dumps(NESTED), "[" * DEPTH + "]" * DEPTH)


def _parse_or_reject(parse, *args):
    try:
        parse(*args)
    except ParseError:
        pass
    except SizeLimit as exc:
        assert "explicit tables" in str(exc)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mutated_documents_raise_only_parse_errors(data):
    inst_doc, out_doc = data.draw(documents())
    m = inst_doc["m"]
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        mutate(data.draw, inst_doc if data.draw(st.booleans()) else out_doc)
    inst_text, out_text = render(inst_doc), render(out_doc)
    _parse_or_reject(parse_instance, inst_text)
    _parse_or_reject(parse_outcome, out_text, m)

    with tempfile.TemporaryDirectory() as tmp:
        inst_path = os.path.join(tmp, "instance.json")
        out_path = os.path.join(tmp, "outcome.json")
        with open(inst_path, "w", encoding="utf-8") as handle:
            handle.write(inst_text)
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(out_text)
        mode = data.draw(st.sampled_from(MODES), label="mode")
        for argv in (
            ["verify", "-i", inst_path, "-a", out_path, "--mode", mode],
            ["oracle", "-i", inst_path],
            ["gap", "-i", inst_path],
        ):
            assert main(argv, out=io.StringIO()) in (0, 1, 2), argv
        solved_path = os.path.join(tmp, "solved.json")
        for mechanism in _MECHANISMS:
            argv = ["solve", mechanism, "-i", inst_path, "--alloc", out_path, "-o", solved_path]
            assert main(argv, out=io.StringIO()) in (0, 2), argv

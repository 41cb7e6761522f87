"""Built-in benchmark markets, seeded random families, and the file format.

Instance and outcome documents are UTF-8 JSON with a top-level
``"format": 1``.  A rational is a JSON integer or a string "p" or "p/q".
Whole numbers (a JSON integer or "p") load as `int`, "p/q" as `Fraction`;
the writer writes "p" or "p/q", and every rational round-trips exactly.
Random families draw from SplitMix64 (the well-known 64-bit mix by Steele,
Lea and Flood) with plain modulo mapping, so streams are reproducible from
the seed alone, across platforms and implementations.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import re
from fractions import Fraction

from .bits import items_of, mask_of, subset_sums
from .errors import BadParams, ParseError
from .market import _KIND_RULES, Allocation, Instance, Outcome, check_fits
from .valuations import (
    Additive,
    BudgetAdditive,
    CappedCardinalityAdditive,
    SingleMinded,
    SuperadditiveExplicit,
    MAX_ITEMS,
    _EXACT,
    _INT,
    _SEQUENCES,
    _check_items,
    _check_kinds,
)

_ZERO = Fraction(0)
_STR = frozenset({str})
FORMAT_VERSION = 1

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 stream; randint maps the raw draw by modulo.  The seed is
    the 64-bit state: BadParams unless it is an int in [0, 2^64)."""

    def __init__(self, seed: int):
        _check_kinds((seed,), _INT, "the seed must be an int")
        if not 0 <= seed <= _MASK64:
            raise BadParams(f"the seed must be in [0, 2^64), got {seed}")
        self.state = seed

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """A draw from lo..hi; BadParams unless both are ints and lo <= hi."""
        _check_kinds((lo, hi), _INT, "randint bounds must be ints")
        if hi < lo:
            raise BadParams(f"randint needs lo <= hi, got {lo} > {hi}")
        return lo + self.next_u64() % (hi - lo + 1)


# ---------------------------------------------------------------------------
# built-in instances


def fig1a(eps: Fraction = Fraction(1, 10)) -> Instance:
    """Four items, five uniform budget-additive bidders; bundling costs welfare."""
    _check_kinds((eps,), _EXACT, "eps must be an exact rational")
    if not 0 < eps < 1:
        raise BadParams("eps must lie strictly between 0 and 1")
    shared = (Fraction(1), Fraction(4), Fraction(2), Fraction(2))

    def bidder(budget, interested):
        values = tuple(shared[j] if j in interested else _ZERO for j in range(4))
        return BudgetAdditive(Fraction(budget), values)

    agents = (
        bidder(3, {0, 1}),
        bidder(4, {1, 2, 3}),
        bidder(1 - eps, {2}),
        bidder(2, {2, 3}),
        bidder(1 - eps, {3}),
    )
    return Instance(
        4,
        agents,
        name="fig1a",
        metadata={
            "items": ["a1", "a2", "a3", "a4"],
            "agents": ["c1", "c2", "c3", "c4", "c5"],
            "eps": str(eps),
        },
    )


def fig1b() -> Instance:
    """Seven items, four identical-budget bidders; no item-pricing equilibrium."""
    shared = tuple(Fraction(v) for v in (1, 1, 1, 1, 1, 1, 2))
    names = ["alpha1", "alpha2", "a1", "a2", "b1", "b2", "beta"]
    interest = {
        "c1": {0, 2, 4},
        "c2": {1, 3, 5},
        "d1": {2, 4, 6},
        "d2": {3, 5, 6},
    }
    agents = tuple(
        BudgetAdditive(
            Fraction(2),
            tuple(shared[j] if j in wants else _ZERO for j in range(7)),
        )
        for wants in interest.values()
    )
    return Instance(
        7,
        agents,
        name="fig1b",
        metadata={"items": names, "agents": list(interest)},
    )


def revenue_example(big: Fraction = Fraction(100)) -> Instance:
    """A single-minded bidder against a capacity-two bidder; bundle prices
    extract linearly more revenue than any item-price equilibrium."""
    _check_kinds((big,), _EXACT, "the large value must be an exact rational")
    if big < 2:
        raise BadParams("the large value must be at least 2")
    agents = (
        SingleMinded(1 << 0, Fraction(1)),
        CappedCardinalityAdditive((big - 1, big, big), 2),
    )
    return Instance(
        3,
        agents,
        name="revenue_example",
        metadata={"items": ["a1", "a2", "a3"], "agents": ["p1", "p2"], "R": str(big)},
    )


def bundling_necessity(m: int = 16) -> Instance:
    """t = sqrt(m) small bidders with pairwise once-overlapping t-sets, plus
    one bidder wanting everything; item prices cannot clear it well.

    Small set i holds the shared item o_{ij} for every j != i plus one
    private item; dummies pad the market to m items and are valued only
    through the big bidder's whole-market set.
    """
    _check_kinds((m,), _INT, "the item count must be an int")
    t = math.isqrt(m) if m >= 4 else 0
    if t * t != m or t < 2:
        raise BadParams("m must be a perfect square at least 4")
    _check_items(m)
    pairs = [(i, j) for i in range(t) for j in range(i + 1, t)]
    shared_index = {pair: idx for idx, pair in enumerate(pairs)}
    private_base = len(pairs)
    names = [f"o{i}{j}" for i, j in pairs]
    names += [f"q{i}" for i in range(t)]
    names += [f"pad{i}" for i in range(m - private_base - t)]

    agents = []
    for i in range(t):
        items = [shared_index[(min(i, j), max(i, j))] for j in range(t) if j != i]
        items.append(private_base + i)
        agents.append(SingleMinded(mask_of(items), Fraction(1 + 2 * t)))
    agents.append(SingleMinded(mask_of(range(m)), Fraction(m)))
    return Instance(
        m,
        tuple(agents),
        name=f"bundling_necessity_{m}",
        metadata={"items": names, "agents": [f"s{i}" for i in range(t)] + ["big"]},
    )


def nonuniform_identical_budget(eps: Fraction = Fraction(1, 8)) -> Instance:
    """Identical budgets but non-uniform values; bundling loses welfare."""
    _check_kinds((eps,), _EXACT, "eps must be an exact rational")
    if not 0 < eps < 1:
        raise BadParams("eps must lie strictly between 0 and 1")
    two = Fraction(2)
    agents = (
        BudgetAdditive(two, (Fraction(2), Fraction(1), Fraction(1))),
        BudgetAdditive(two, (_ZERO, Fraction(2), Fraction(2))),
        BudgetAdditive(two, (4 * eps, _ZERO, eps)),
    )
    return Instance(
        3,
        agents,
        name="nonuniform_identical_budget",
        metadata={"agents": ["c1", "c2", "c3"], "eps": str(eps)},
    )


def partition_reduction(weights) -> Instance:
    """Two equal-budget bidders over items weighted a_j with sum 2B; the
    optimum hits 2B exactly when the weights split evenly."""
    _check_kinds((weights,), _SEQUENCES, "weights must be a list or a tuple")
    values = tuple(weights)
    _check_kinds(values, _EXACT, "weights must be exact rationals")
    if not values or any(a <= 0 for a in values):
        raise BadParams("weights must be positive")
    budget = sum(values, _ZERO) / 2
    agents = (BudgetAdditive(budget, values), BudgetAdditive(budget, values))
    return Instance(
        len(values), agents, name="partition_reduction", metadata={"B": str(budget)}
    )


BUILTINS = {
    "fig1a": fig1a,
    "fig1b": fig1b,
    "revenue_example": revenue_example,
    "bundling_necessity": bundling_necessity,
    "nonuniform_identical_budget": nonuniform_identical_budget,
    "partition_reduction": partition_reduction,
}


# Only the makers' signatures are looked up, and each one once.
_signature = functools.cache(inspect.signature)


def _bound_call(maker, what: str, *args, **params) -> Instance:
    """maker(*args, **params); BadParams naming `what` when the maker does
    not take a given parameter or misses a required one."""
    try:
        _signature(maker).bind(*args, **params)
    except TypeError as exc:
        raise BadParams(f"{what}: {exc}") from None
    return maker(*args, **params)


def built_in(name: str, **params) -> Instance:
    if type(name) is not str or name not in BUILTINS:
        raise BadParams(f"unknown built-in instance {name!r}")
    return _bound_call(BUILTINS[name], f"built-in instance {name!r}", **params)


# ---------------------------------------------------------------------------
# random families


def _random_superadditive(m: int, n: int, rng: SplitMix64) -> Instance:
    agents = []
    for _ in range(n):
        table = subset_sums([rng.randint(0, 4) for _ in range(m)])
        for _ in range(rng.randint(1, 2)):
            bump_set = rng.randint(1, (1 << m) - 1)
            bump = rng.randint(1, 10)
            if table[bump_set] < bump:
                table[bump_set] = bump
        # close under super-additivity: by rising popcount, any split may lift
        order = sorted(range(1 << m), key=lambda s: s.bit_count())
        for mask in order:
            sub = (mask - 1) & mask
            while sub:
                other = mask ^ sub
                if sub < other:  # each split once
                    lifted = table[sub] + table[other]
                    if lifted > table[mask]:
                        table[mask] = lifted
                sub = (sub - 1) & mask
        agents.append(SuperadditiveExplicit(tuple(table)))
    return Instance(m, tuple(agents), name="random_superadditive")


def _random_single_minded(m: int, n: int, rng: SplitMix64) -> Instance:
    agents = tuple(
        SingleMinded(rng.randint(1, (1 << m) - 1), rng.randint(1, 10))
        for _ in range(n)
    )
    return Instance(m, agents, name="random_single_minded")


def _random_uniform_budget_additive(
    m: int, n: int, rng: SplitMix64, identical_budgets: bool
) -> Instance:
    # Budgets never fall below an agent's largest interesting item: single
    # items never overflow anyone, which is what the half-welfare guarantee
    # of the budget rebalance needs.
    shared = [rng.randint(1, 8) for _ in range(m)]
    common = max(shared) + rng.randint(0, 4)
    agents = []
    for _ in range(n):
        wants = rng.randint(1, (1 << m) - 1)
        if identical_budgets:
            budget = common
        else:
            floor = max(shared[j] for j in range(m) if wants >> j & 1)
            budget = floor + rng.randint(0, 8)
        values = tuple(shared[j] if wants >> j & 1 else 0 for j in range(m))
        agents.append(BudgetAdditive(budget, values))
    return Instance(m, tuple(agents), name="random_uniform_budget_additive")


FAMILIES = (
    "random_superadditive",
    "random_single_minded",
    "random_uniform_budget_additive",
)


def generate(
    family: str, m: int, n: int, seed: int = 0, identical_budgets: bool = False
) -> Instance:
    """Seeded random instance; identical seeds give identical markets.

    The seed is SplitMix64's 64-bit state, so it must lie in [0, 2^64).
    Only random_uniform_budget_additive takes identical budgets."""
    _check_kinds((m, n, seed), _INT, "m, n and the seed must be ints")
    _check_kinds((identical_budgets,), {bool}, "identical_budgets must be a bool")
    rng = SplitMix64(seed)
    if identical_budgets and family != "random_uniform_budget_additive":
        raise BadParams(f"{family!r} takes no identical budgets")
    _check_items(m)
    if n < 1:
        raise BadParams("need at least one agent")
    if family == "random_superadditive":
        if m > 10:
            raise BadParams("explicit random tables capped at 10 items")
        return _random_superadditive(m, n, rng)
    if family == "random_single_minded":
        return _random_single_minded(m, n, rng)
    if family == "random_uniform_budget_additive":
        return _random_uniform_budget_additive(m, n, rng, identical_budgets)
    raise BadParams(f"unknown random family {family!r}")


# ---------------------------------------------------------------------------
# serialization

_RAT_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _rational(text) -> int | Fraction:
    """`parse_rational` without the location: ValueError carries the message."""
    if type(text) is str and text.isascii() and text.isdigit():
        return int(text)  # ValueError past int()'s digit limit
    if isinstance(text, str) and (match := _RAT_RE.fullmatch(text)):
        num, den = match.groups()
        if den is None:
            return int(num)  # ValueError past int()'s digit limit
        num, den = int(num), int(den)
        if den == 0:
            raise ValueError("zero denominator")
        return Fraction(num, den)
    if isinstance(text, int) and not isinstance(text, bool):
        return int(text)
    raise ValueError(f"expected a rational like '3' or '3/4', got {text!r}")


def parse_rational(text, where: str) -> int | Fraction:
    """The exact rational that a JSON integer or a string "p" or "p/q" writes.

    p and q are ASCII digits, p with an optional leading minus.  A JSON
    integer or "p" loads as an `int` (a plain digit string straight through
    int(), before any pattern match), "p/q" as a `Fraction` (equal to the
    `int`, and hashing alike, when q divides p).  Anything else, a zero q,
    or more digits than int() converts raises ParseError, its message
    prefixed with `where`.
    """
    try:
        return _rational(text)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _want(obj, key, kind, where):
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    value = obj[key]
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise ParseError(f"{where}: field {key!r} has the wrong type")
    return value


def _digit_strings(values) -> bool:
    """Whether a nonempty list holds only nonempty ASCII digit strings, in C."""
    if not (all(values) and _STR.issuperset(map(type, values))):
        return False
    text = "".join(values)
    return text.isascii() and text.isdigit()


def _rat_list(values, where):
    """A JSON list's rationals (see `parse_rational`): plain digit strings as
    ints in one batched pass, any other list (or an entry past int()'s digit
    limit) entry by entry, a bad entry's ParseError naming `where[index]`."""
    if not isinstance(values, list):
        raise ParseError(f"{where}: expected a list")
    if _digit_strings(values):
        try:
            return tuple(map(int, values))
        except ValueError:  # past int()'s digit limit: the loop names the entry
            pass
    parsed = []
    try:
        for v in values:
            parsed.append(_rational(v))
    except ValueError as exc:  # the location is built only for the bad entry
        raise ParseError(f"{where}[{len(parsed)}]: {exc}") from exc
    return tuple(parsed)


def _agent_from_json(obj, where, m):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    family = _want(obj, "family", str, where)
    try:
        if family == "additive":
            return Additive(_rat_list(_want(obj, "item_values", list, where), where))
        if family == "single_minded":
            desired = _items_field(_want(obj, "desired", None, where), f"{where}.desired", m)
            return SingleMinded(
                desired, parse_rational(_want(obj, "value", None, where), where)
            )
        if family == "superadditive_explicit":
            return SuperadditiveExplicit(
                _rat_list(_want(obj, "table", list, where), where)
            )
        if family == "budget_additive":
            return BudgetAdditive(
                parse_rational(_want(obj, "budget", None, where), where),
                _rat_list(_want(obj, "item_values", list, where), where),
            )
        if family == "capped_additive":
            return CappedCardinalityAdditive(
                _rat_list(_want(obj, "item_values", list, where), where),
                _want(obj, "cap", int, where),
            )
    except BadParams as exc:
        raise ParseError(f"{where}: {exc}") from exc
    raise ParseError(f"{where}: unknown valuation family {family!r}")


def write_instance(instance: Instance) -> str:
    check_fits(instance)
    doc = {
        "format": FORMAT_VERSION,
        "name": instance.name,
        "m": instance.m,
        "agents": [v.to_json() for v in instance.agents],
    }
    if instance.metadata is not None:
        doc["metadata"] = instance.metadata
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _load_json(text: str, what: str) -> dict:
    """The document's top-level object.  ParseError on bad JSON, on an object
    that repeats a key (JSON keeps the last value silently), and on a
    format version other than the int 1: true, and a 1 written with a point
    or an exponent, are refused."""
    _check_kinds((text,), {str}, f"{what}: a document must be a string")

    def unique_keys(pairs):
        doc = dict(pairs)
        if len(doc) < len(pairs):
            seen = set()
            for key, _value in pairs:
                if key in seen:
                    raise ParseError(f"{what}: repeated key {key!r}")
                seen.add(key)
        return doc

    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what}: line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal longer than int() will convert
        raise ParseError(f"{what}: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{what}: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{what}: top level must be an object")
    version = doc.get("format")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"{what}: missing or unsupported format version")
    return doc


def parse_instance(text: str) -> Instance:
    doc = _load_json(text, "instance")
    m = _want(doc, "m", int, "instance")
    if not 1 <= m <= MAX_ITEMS:  # before any item mask is built
        raise ParseError(f"instance: m must lie in 1..{MAX_ITEMS}")
    raw_agents = _want(doc, "agents", list, "instance")
    agents = tuple(
        _agent_from_json(a, f"agents[{i}]", m) for i, a in enumerate(raw_agents)
    )
    try:
        return Instance(m, agents, name=doc.get("name", ""), metadata=doc.get("metadata"))
    except BadParams as exc:
        raise ParseError(f"instance: {exc}") from exc


def _items_field(values, where, m):
    ints = isinstance(values, list) and _INT.issuperset(map(type, values))
    if not (ints and 0 <= min(values, default=0) and max(values, default=0) < m):
        raise ParseError(f"{where}: expected a list of item indices below {m}")
    mask = mask_of(values)
    if mask.bit_count() != len(values):
        raise ParseError(f"{where}: lists an item twice")
    return mask


def write_allocation(x: Allocation) -> dict:
    _check_kinds((x,), {Allocation}, _KIND_RULES[Allocation])
    return {"x0": items_of(x.x0), "x": [items_of(b) for b in x.bundles]}


def parse_allocation(text_or_doc, m: int) -> Allocation:
    """Accepts an allocation document or a whole outcome document."""
    _check_items(m)
    if isinstance(text_or_doc, str):
        doc = _load_json(text_or_doc, "allocation")
    else:
        _check_kinds((text_or_doc,), {dict}, "an allocation must be a string or a dict")
        doc = text_or_doc
    body = doc.get("allocation", doc)
    if not isinstance(body, dict):
        raise ParseError("allocation: expected an object")
    x0 = _items_field(_want(body, "x0", list, "allocation"), "allocation.x0", m)
    raw = _want(body, "x", list, "allocation")
    bundles = tuple(
        _items_field(b, f"allocation.x[{i}]", m) for i, b in enumerate(raw)
    )
    try:
        return Allocation(m, x0, bundles)
    except BadParams as exc:
        raise ParseError(f"allocation: {exc}") from exc


def write_outcome(outcome: Outcome) -> str:
    _check_kinds((outcome,), {Outcome}, _KIND_RULES[Outcome])
    doc = {"format": FORMAT_VERSION, "allocation": write_allocation(outcome.allocation)}
    if outcome.prices is not None:
        prices = {"agents": [str(p) for p in outcome.prices]}
        if outcome.allocation.x0:
            prices["x0"] = str(outcome.x0_price)
        doc["prices"] = prices
    else:
        doc["prices"] = {"items": [str(p) for p in outcome.item_prices]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_outcome(text: str, m: int) -> Outcome:
    """An outcome over the m items of the instance it prices."""
    _check_items(m)
    doc = _load_json(text, "outcome")
    x = parse_allocation(doc, m)
    prices = _want(doc, "prices", dict, "outcome")
    try:
        if "items" in prices:
            return Outcome(x, item_prices=_rat_list(prices["items"], "prices.items"))
        agents = _rat_list(_want(prices, "agents", list, "prices"), "prices.agents")
        if len(agents) != x.n:
            raise ParseError(
                f"prices.agents lists {len(agents)} prices for {x.n} bundles"
            )
        x0_price = parse_rational(prices.get("x0", "0"), "prices.x0")
        return Outcome(x, prices=agents, x0_price=x0_price)
    except BadParams as exc:
        raise ParseError(f"outcome: {exc}") from exc

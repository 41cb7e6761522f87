"""Source hygiene that a grep cannot check: every name a module or a test
file imports is used, each size bound is raised in the one place that
holds it, each search charges its budget once, every digit test takes
ASCII digits only, and no module dispatches on a valuation family."""

import ast
from pathlib import Path
from typing import get_args

import pytest

from mccwe.valuations import Valuation

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "mccwe"


def unused_imports(source: str) -> list[str]:
    """The names a module's imports bind but its code never reads.

    `from __future__` imports are directives, not names.  A name counts as
    read wherever it appears in the code, annotations included.
    """
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "from .bits import bits_of, items_of as listed\n"
        "def f(x: listed) -> int:\n"
        "    return json.dumps(x)\n"
    )
    assert unused_imports(source) == ["bits_of", "os"]


# The package's __init__ imports names only to export them.
@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name,
)
def test_every_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def sites(source: str, hit) -> list[str]:
    """The qualified name of the function (or class) whose own body holds
    each node that `hit` accepts, in source order, one per node."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + (child.name,))
                continue
            if hit(child):
                found.append(".".join(scope))
            walk(child, scope)

    walk(ast.parse(source), ())
    return found


def _raises_size_limit(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "SizeLimit"


def size_limit_raisers(source: str) -> set[str]:
    """The qualified names of the functions whose own bodies raise SizeLimit."""
    return set(sites(source, _raises_size_limit))


def test_the_check_sees_where_size_limit_is_raised():
    source = (
        "class Table:\n"
        "    def __post_init__(self):\n"
        "        if self.k > 20:\n"
        "            raise SizeLimit('cap')\n"
        "def build(k):\n"
        "    def inner():\n"
        "        raise SizeLimit\n"
        "    raise BadParams('k')\n"
    )
    assert size_limit_raisers(source) == {"Table.__post_init__", "build.inner"}


# One rule per size bound: the table size, the explicit-table validation,
# the configuration LP's width (checked before it builds a table), the
# oracles' budget and the digits of the numbers the CLI prints.
SIZE_RULES = {
    "cli.py": {"_check_digits"},
    "configlp.py": {"_program"},
    "oracle.py": {"OracleBudget.charge"},
    "valuations.py": {"value_table", "SuperadditiveExplicit.__post_init__"},
}


def test_size_limit_is_raised_only_where_a_size_rule_lives():
    raisers = {
        path.name: size_limit_raisers(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: found for name, found in raisers.items() if found} == SIZE_RULES


def _charges(node) -> bool:
    """Whether node calls a method named `charge`."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "charge"
    )


def chargers(source: str) -> list[str]:
    """Where the source calls `.charge(`, one entry per call, in source order."""
    return sites(source, _charges)


def test_the_check_sees_where_a_budget_is_charged():
    source = (
        "def search(instance, budget):\n"
        "    budget.charge(2 ** instance.n)\n"
        "    def walk():\n"
        "        _allowance(budget).charge(1)\n"
        "    budget.charge(1)\n"
        "    return charge, budget.used\n"
        "class Budget:\n"
        "    def charge(self, states):\n"
        "        self.used += states\n"
    )
    assert chargers(source) == ["search", "search.walk", "search"]


# One charge per search: optimal_integral's (n+1)^m, or the winner-set
# search's 2^n in its place, which also pays for best_mccwe's first probe;
# the block DP's (n+1)^k; best_mccwe's walk, charged when it starts; and the
# item-pricing bound's 2^n.  A second copy of a charge fails here.
CHARGE_RULES = {
    "oracle.py": [
        "optimal_integral",
        "_single_minded_optimum",
        "optimal_over_partition",
        "best_mccwe",
        "best_single_minded_item_pricing",
    ],
}


def test_each_search_charges_its_budget_in_one_place():
    found = {
        path.name: chargers(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: calls for name, calls in found.items() if calls} == CHARGE_RULES


def _method_call(node, name: str) -> bool:
    """Whether node calls a method `name` with no arguments."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == name
        and not node.args
    )


def unpaired_isdigit(source: str) -> list[int]:
    """The lines of the `.isdigit()` calls that an `and` does not join to an
    `.isascii()` call on the same receiver.

    `str.isdigit` alone takes Arabic-Indic, fullwidth and superscript
    digits, and int() reads the first two as numbers.
    """
    tree = ast.parse(source)
    paired = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            ascii_receivers = {
                ast.dump(call.func.value) for call in node.values if _method_call(call, "isascii")
            }
            paired.update(
                id(call)
                for call in node.values
                if _method_call(call, "isdigit") and ast.dump(call.func.value) in ascii_receivers
            )
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if _method_call(node, "isdigit") and id(node) not in paired
    )


def test_the_check_sees_an_isdigit_without_isascii():
    source = (
        "def f(a, b):\n"
        "    ok = a.isascii() and a.isdigit()\n"
        "    bare = a.isdigit()\n"
        "    other = b.isascii() and a.isdigit()\n"
        "    either = a.isascii() or a.isdigit()\n"
        "    return type(b) is str and b.isdigit() and b.isascii()\n"
    )
    assert unpaired_isdigit(source) == [3, 4, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_digit_test_takes_ascii_digits_only(path):
    assert unpaired_isdigit(path.read_text(encoding="utf-8")) == []


def defined_functions(source: str) -> set[str]:
    return {
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def called_names(source: str) -> set[str]:
    return {
        node.func.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def _defining_and_calling(function: str) -> tuple[list[str], list[str]]:
    """The modules that define `function`, and those that call it by name."""
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    defining = [name for name, text in sources.items() if function in defined_functions(text)]
    calling = [name for name, text in sources.items() if function in called_names(text)]
    return defining, calling


def test_one_dominance_filter_serves_the_lp_and_the_dp():
    # `market._undominated` prunes both the configuration LP's columns and
    # the bundles winner determination folds, through one scan per table
    # that both read (`market._undominated_masks`).
    assert _defining_and_calling("_undominated") == (["market.py"], ["market.py"])
    assert _defining_and_calling("_undominated_masks") == (
        ["market.py"],
        ["configlp.py", "market.py"],
    )


def test_one_pivot_loop_serves_both_lps():
    # `lp.simplex` is the one LP entry point: the configuration LP and the
    # item-pricing LP hand it closures, and no module pivots on its own.
    assert _defining_and_calling("simplex") == (["lp.py"], ["configlp.py", "oracle.py"])


def _calls(node, name: str) -> bool:
    """Whether node calls `name` by its bare name."""
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name


def callers(source: str, name: str) -> set[str]:
    """The qualified names of the functions whose own bodies call `name`."""
    return set(sites(source, lambda node: _calls(node, name)))


def test_the_check_sees_who_calls_a_function():
    source = (
        "def build(v):\n"
        "    return [table(v, p) for p in parts]\n"
        "class Market:\n"
        "    def tables(self):\n"
        "        def inner():\n"
        "            return table(self, 1)\n"
        "        return inner\n"
        "def reads(table):\n"
        "    return table\n"
    )
    assert callers(source, "table") == {"build", "Market.tables.inner"}


def test_one_value_table_layer_builds_every_table():
    # Tables are built where a market's tables are kept (`block_tables`,
    # which also reads coarser tables off the singleton ones), and where
    # one table is priced at a time: the verifier's utilities and the
    # demand query's.  A new table builder elsewhere goes through these.
    found = {
        f"{path.stem}.{function}"
        for path in sorted(SRC.glob("*.py"))
        for function in callers(path.read_text(encoding="utf-8"), "value_table")
    }
    assert found == {
        "market.block_tables",
        "equilibria.verify",
        "valuations.demand_utilities",
    }


FAMILIES = {family.__name__ for family in get_args(Valuation)}


def _tests_a_family(node) -> bool:
    """Whether node is an isinstance call whose class, or one in its tuple,
    is a valuation family."""
    if not _calls(node, "isinstance") or len(node.args) != 2:
        return False
    kinds = node.args[1]
    names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
    return any(isinstance(name, ast.Name) and name.id in FAMILIES for name in names)


def family_checks(source: str) -> list[str]:
    """Where the source calls isinstance on a valuation family, one entry
    per call."""
    return sites(source, _tests_a_family)


def test_the_check_sees_an_isinstance_on_a_family():
    source = (
        "def f(v):\n"
        "    return isinstance(v, SingleMinded)\n"
        "class Agent:\n"
        "    def g(self, v):\n"
        "        if isinstance(v, (int, BudgetAdditive)) or isinstance(v, dict):\n"
        "            return isinstance(v, Additive)\n"
        "def h(v):\n"
        "    return isinstance(v, Partition), SingleMinded\n"
    )
    assert family_checks(source) == ["f", "Agent.g", "Agent.g"]


def test_only_membership_checks_test_a_family():
    # Each family answers for itself in its class (its table, relative
    # demand, super-additivity and file fields), so no module dispatches on
    # one.  What is left asks whether a whole market is of one family, which
    # a mechanism or an oracle needs before it may run.
    found = [
        f"{path.stem}.{function}"
        for path in sorted(SRC.glob("*.py"))
        for function in family_checks(path.read_text(encoding="utf-8"))
    ]
    assert found == [
        "mechanisms.single_minded_mccwe",
        "mechanisms._uniform_market",
        "oracle.optimal_integral",
        "oracle.best_single_minded_item_pricing",
    ]

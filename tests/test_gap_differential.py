"""`gap`'s best_mccwe line against the search that it skips.

Where the singleton configuration LP is integral, `gap` prints the integral
optimum as best_mccwe without running `best_mccwe`.  On every built-in, the
markets of the benchmark's gap workload at seeds 1 and 2, and seeded
markets of the three random families, `best_mccwe` itself must return that
value wherever the LP is integral, with an outcome that passes
`verify --mode mccwe`.  Everywhere, `gap`'s report must equal the one
composed from `fractional_opt`, `optimal_integral` and `best_mccwe`.
"""

import io
import random
from fractions import Fraction

import pytest

from mccwe import cli, singleton_partition
from mccwe.configlp import fractional_opt
from mccwe.equilibria import MCCWE, verify
from mccwe.instances import FAMILIES, built_in, generate, parse_instance, write_instance
from mccwe.oracle import best_mccwe, optimal_integral
from test_configlp import _gap_workload

F = Fraction


def _composed(inst):
    """gap's report as the three library calls compose it, and whether the
    singleton LP is integral; on an integral LP, best_mccwe returns the
    integral optimum with an outcome that verifies."""
    frac = fractional_opt(inst, singleton_partition(inst.m)).value
    integral = optimal_integral(inst)[1]
    outcome, best = best_mccwe(inst)
    if frac == integral:
        assert best == integral, inst.name
        assert verify(inst, outcome, MCCWE).ok, inst.name
    report = f"instance={inst.name}\nfractional={frac}\nintegral={integral}\nbest_mccwe={best}\n"
    return report, frac == integral


def _gap(path):
    out = io.StringIO()
    assert cli.main(["gap", "-i", str(path)], out=out) == 0
    return out.getvalue()


def _integral_count(paths):
    """How many of the markets at `paths` have an integral singleton LP;
    each one's gap report is checked against the composed calls."""
    integral = 0
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            report, walrasian = _composed(parse_instance(handle.read()))
        assert _gap(path) == report, path
        integral += walrasian
    return integral


def _markets():
    rng = random.Random("gap-differential")
    markets = [
        built_in("fig1a"),
        built_in("fig1a", eps=F(37, 100)),
        built_in("fig1b"),
        built_in("revenue_example"),
        built_in("revenue_example", big=F(5, 2)),
        built_in("bundling_necessity", m=4),
        built_in("nonuniform_identical_budget"),
        built_in("nonuniform_identical_budget", eps=F(3, 100)),
        built_in("partition_reduction", weights=[1, 1, 2]),
        built_in("partition_reduction", weights=[3, 1, 4, 1, 5]),
    ]
    for family in FAMILIES:
        for _ in range(15):
            m, n, seed = rng.randint(2, 6), rng.randint(1, 4), rng.getrandbits(32)
            identical = family == "random_uniform_budget_additive" and rng.random() < 0.3
            markets.append(generate(family, m, n, seed, identical))
    return markets


def test_gap_reports_the_search_on_built_in_and_random_markets(tmp_path):
    paths = []
    for idx, inst in enumerate(_markets()):
        paths.append(tmp_path / f"m{idx:02d}.json")
        paths[-1].write_text(write_instance(inst), encoding="utf-8")
    integral = _integral_count(paths)
    # both branches of the verb run: fig1a's LP, for one, is fractional
    assert 0 < integral < len(paths)


@pytest.mark.parametrize("seed, integral", [(1, 161), (2, 163)])
def test_gap_workload_reports_the_search(seed, integral, tmp_path, monkeypatch):
    requests = _gap_workload(seed, tmp_path, monkeypatch)
    assert _integral_count([argv[-1] for argv in requests]) == integral

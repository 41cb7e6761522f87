"""Acceptance suite: every criterion checked exactly, one line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
All comparisons are exact rational equalities or inequalities; the only
tolerances here are the stated wall-clock buckets.
"""

import io
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from mccwe import (
    NotMCCWE,
    Outcome,
    allocation,
    revenue,
    singleton_partition,
    social_welfare,
)
from mccwe.cli import main as cli_main
from mccwe.configlp import fractional_opt, supporting_prices
from mccwe.equilibria import MCCWE, WE, verify
from mccwe.instances import (
    SplitMix64,
    built_in,
    generate,
    parse_instance,
    parse_outcome,
    write_instance,
    write_outcome,
)
from mccwe.market import Allocation, Partition, induced_partition
from mccwe.mechanisms import (
    MechanismTrace,
    bundle_efficient_full_surplus,
    identical_budget_cleanup,
    single_minded_mccwe,
    superadditive_mccwe,
    uniform_budget_additive_mccwe,
)
from mccwe.oracle import (
    best_mccwe,
    best_single_minded_item_pricing,
    optimal_integral,
    optimal_over_partition,
)

F = Fraction


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL ({label})")
        raise
    print(f"ACCEPTANCE {number}: PASS ({label})")


def _random_sizes(seed, m_hi, n_hi):
    rng = SplitMix64(seed * 0x9E3779B9 + 17)
    return rng.randint(2, m_hi), rng.randint(2, n_hi)


def test_criterion_1_fig1a_gap_row():
    with criterion(1, "fig1a fractional 8 / integral 79/10 / best supportable 7"):
        start = time.monotonic()
        inst = built_in("fig1a", eps=F(1, 10))
        assert fractional_opt(inst, singleton_partition(4)).value == 8
        _x, opt = optimal_integral(inst)
        assert opt == F(79, 10)
        out, best = best_mccwe(inst)
        assert best == 7
        assert verify(inst, out, MCCWE).ok
        ratio = best / opt
        assert ratio == F(70, 79)
        assert F(7, 8) < ratio < 1  # above 7/8, which the gap approaches as eps -> 0
        assert time.monotonic() - start < 10.0


def test_criterion_2_fig1b_no_walrasian_but_lossless_cleanup():
    with criterion(2, "fig1b: no item-price equilibrium, lossless cleanup at 7"):
        inst = built_in("fig1b")
        frac = fractional_opt(inst, singleton_partition(7)).value
        assert frac == 8
        x_opt, opt = optimal_integral(inst)
        assert opt == 7
        # no Walrasian equilibrium: the item LP beats the optimum's welfare
        assert frac > social_welfare(inst, x_opt)
        out = identical_budget_cleanup(inst, x_opt)
        assert social_welfare(inst, out.allocation) == 7
        assert verify(inst, out, MCCWE).ok


def test_criterion_3_revenue_example_linear_in_R():
    with criterion(3, "bundle revenue R+3 vs item-price revenue 5"):
        for R in (F(10), F(100), F(1000)):
            inst = built_in("revenue_example", big=R)
            x = allocation(3, [0b001, 0b110])
            we_outcome = Outcome(x, item_prices=(F(1), F(2), F(2)))
            assert verify(inst, we_outcome, WE).ok
            assert revenue(inst, we_outcome) == 5
            mc_outcome = Outcome(x, prices=(F(1), R + 2))
            assert verify(inst, mc_outcome, MCCWE).ok
            assert revenue(inst, mc_outcome) == R + 3


def test_criterion_4_bundling_necessity_m16():
    with criterion(4, "bundling-necessity market: opt 16, item pricing 9"):
        inst = built_in("bundling_necessity", m=16)
        _x, opt = optimal_integral(inst)
        assert opt == 16
        assert best_single_minded_item_pricing(inst) == 9 == 1 + 2 * 4
        for mechanism in (superadditive_mccwe, single_minded_mccwe):
            out = mechanism(inst)
            assert verify(inst, out, MCCWE).ok
            assert social_welfare(inst, out.allocation) == 16
            assert revenue(inst, out) == 16


def test_criterion_5_nonuniform_pair_bundling():
    with criterion(5, "non-uniform identical budgets: 17/4, 33/8, pairs at most 4"):
        inst = built_in("nonuniform_identical_budget", eps=F(1, 8))
        assert fractional_opt(inst, singleton_partition(3)).value == F(17, 4)
        _x, opt = optimal_integral(inst)
        assert opt == F(33, 8)
        for pair in ((0b011, 0b100), (0b101, 0b010), (0b110, 0b001)):
            _owners, value = optimal_over_partition(inst, Partition(3, pair))
            assert value <= 4


def test_criterion_6_budget_rebalance_property_suite():
    with criterion(6, "500 seeded rebalances: half welfare, owner-max, full surplus"):
        for seed in range(500):
            m, n = _random_sizes(seed, 7, 4)
            inst = generate("random_uniform_budget_additive", m, n, seed)
            x, input_welfare = optimal_integral(inst)
            out = uniform_budget_additive_mccwe(inst, x)
            w = social_welfare(inst, out.allocation)
            assert verify(inst, out, MCCWE).ok
            assert 2 * w >= input_welfare
            assert revenue(inst, out) == w
            for i, bundle in enumerate(out.allocation.bundles):
                if bundle:
                    own = inst.agents[i].value(bundle)
                    assert all(v.value(bundle) <= own for v in inst.agents)
            # the input is the optimum (>= 3/4 of it trivially), so the
            # half-welfare step certifies the 8/3 end-to-end composition
            assert 8 * w >= 3 * input_welfare


def test_criterion_7_superadditive_no_gap():
    with criterion(7, "200 super-additive markets: supportable optimum, full surplus"):
        for seed in range(200):
            m, n = _random_sizes(seed, 6, 4)
            inst = generate("random_superadditive", min(m, 6), n, seed)
            x_opt, opt = optimal_integral(inst)
            _out, best = best_mccwe(inst)
            assert best == opt
            partition, _owners = induced_partition(x_opt)
            out = bundle_efficient_full_surplus(inst, partition)
            assert verify(inst, out, MCCWE).ok
            assert revenue(inst, out) == opt


def test_criterion_8_characterization_roundtrip():
    with criterion(8, "200 random allocations: support test matches priced verify"):
        families = ("random_superadditive", "random_single_minded", "random_uniform_budget_additive")
        checked = 0
        seed = 0
        while checked < 200:
            family = families[checked % 3]
            m, n = _random_sizes(seed + 1000, 5, 4)
            inst = generate(family, min(m, 5), n, seed)
            rng = SplitMix64(seed * 613 + 7)
            bundles = [0] * inst.n
            x0 = 0
            for j in range(inst.m):
                digit = rng.randint(0, inst.n)
                if digit == inst.n:
                    x0 |= 1 << j
                else:
                    bundles[digit] |= 1 << j
            x = Allocation(inst.m, x0, tuple(bundles))
            partition, _owners = induced_partition(x)
            if fractional_opt(inst, partition).value == social_welfare(inst, x):
                assert verify(inst, supporting_prices(inst, x), MCCWE).ok
            else:
                with pytest.raises(NotMCCWE) as err:
                    supporting_prices(inst, x)
                assert err.value.gap > 0
            checked += 1
            seed += 1


def test_criterion_9_sqrt_m_envelope():
    with criterion(9, "opt within 2*sqrt(m) of both greedy mechanisms"):
        def within_envelope(opt, welfare, m):
            # opt <= 2*sqrt(m)*welfare, squared to stay in the rationals
            return opt * opt <= 4 * m * welfare * welfare

        inst = built_in("bundling_necessity", m=16)
        _x, opt = optimal_integral(inst)
        for mechanism in (superadditive_mccwe, single_minded_mccwe):
            out = mechanism(inst)
            assert within_envelope(opt, social_welfare(inst, out.allocation), 16)

        for seed in range(200):
            m, n = _random_sizes(seed + 2000, 6, 4)
            sa = generate("random_superadditive", min(m, 6), n, seed)
            _x, opt = optimal_integral(sa)
            trace = MechanismTrace()
            out = superadditive_mccwe(sa, trace)
            assert within_envelope(opt, social_welfare(sa, out.allocation), sa.m)
            merges = sum(1 for step in trace.steps if step.phase == "merge")
            assert merges <= sa.n**2

            sm = generate("random_single_minded", m, n, seed)
            _x, opt = optimal_integral(sm)
            for mechanism in (superadditive_mccwe, single_minded_mccwe):
                out = mechanism(sm)
                assert within_envelope(opt, social_welfare(sm, out.allocation), sm.m)


def test_criterion_10_determinism_and_roundtrip(tmp_path):
    with criterion(10, "byte-identical reruns; parse/write identity"):
        corpus = [
            built_in("fig1a", eps=F(1, 10)),
            built_in("fig1b"),
            built_in("revenue_example", big=F(100)),
            built_in("bundling_necessity", m=16),
            built_in("nonuniform_identical_budget", eps=F(1, 8)),
            built_in("partition_reduction", weights=(1, 1, 2)),
        ]
        for inst in corpus:
            assert parse_instance(write_instance(inst)) == inst
        for seed in range(334):
            for family in (
                "random_superadditive",
                "random_single_minded",
                "random_uniform_budget_additive",
            ):
                m = 4 if family == "random_superadditive" else 5
                inst = generate(family, m, 3, seed)
                assert parse_instance(write_instance(inst)) == inst

        # outcome files round-trip too
        inst = built_in("revenue_example", big=F(100))
        x = allocation(3, [0b001, 0b110])
        out = Outcome(x, prices=(F(1), F(102)))
        assert parse_outcome(write_outcome(out), 3) == out

        # CLI byte-determinism on solve / verify / gap
        inst_path = tmp_path / "fig1a.json"
        out_path_1 = tmp_path / "a.json"
        out_path_2 = tmp_path / "b.json"

        def run(argv):
            sink = io.StringIO()
            code = cli_main(argv, out=sink)
            return code, sink.getvalue()

        assert run(["gen", "fig1a", "--eps", "1/10", "-o", str(inst_path)])[0] == 0
        gap_a = run(["gap", "-i", str(inst_path)])
        gap_b = run(["gap", "-i", str(inst_path)])
        assert gap_a == gap_b
        run(["solve", "uba", "-i", str(inst_path), "-o", str(out_path_1)])
        first_bytes = out_path_1.read_bytes()
        run(["solve", "uba", "-i", str(inst_path), "-o", str(out_path_2)])
        assert out_path_2.read_bytes() == first_bytes
        verify_a = run(["verify", "-i", str(inst_path), "-a", str(out_path_1), "--mode", "mccwe"])
        verify_b = run(["verify", "-i", str(inst_path), "-a", str(out_path_1), "--mode", "mccwe"])
        assert verify_a == verify_b
        assert verify_a[0] == 0

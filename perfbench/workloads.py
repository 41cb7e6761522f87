"""The benchmark's workloads: which markets each sends, through which verbs,
and how each market's output is checked.

A workload is a fixed list of markets made from the seed.  Every market is
written to disk during set-up by the program's own ``gen`` verb (plus an
allocation file where the verb takes ``--alloc``), so the program only ever
receives generated files.  A request is one market: its verb calls run in
order and are timed together.

Market shapes cycle in a fixed order and the seed draws only the values
(family seeds, eps, weights, allocations).  That keeps the cost mix of a
round the same for every seed, so run-to-run spread comes from the values,
not from how many heavy markets a seed happened to draw.  A workload's list
holds `rounds` rounds of `round_size` markets, each round a whole number of
cycles.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

UBA = "random_uniform_budget_additive"
SUPERADDITIVE = "random_superadditive"
SINGLE_MINDED = "random_single_minded"


@dataclass(frozen=True)
class Market:
    kind: str  # shape label, named when the market fails its check
    instance: str  # instance file path
    gen: tuple[str, ...]  # `gen` verb argv that writes the instance, minus -o
    requests: tuple[tuple[str, ...], ...]  # verb argv lists, sent in order
    outcome: str | None = None  # outcome file the `solve` request writes
    alloc_path: str | None = None
    alloc: str | None = None  # allocation document written during set-up


def _random_gen(family, m, n, rng, identical_budgets=False):
    argv = ("gen", family, "--m", str(m), "--n", str(n), "--seed", str(rng.getrandbits(32)))
    return argv + ("--identical-budgets",) if identical_budgets else argv


def _allocation_doc(rng: random.Random, m: int, n: int) -> str:
    """A seeded allocation: each item goes to a random agent or stays unsold."""
    x0, bundles = [], [[] for _ in range(n)]
    for item in range(m):
        owner = rng.randint(0, n)
        (x0 if owner == n else bundles[owner]).append(item)
    doc = {"format": 1, "allocation": {"x0": x0, "x": bundles}}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _solve_and_verify(kind, workdir, idx, gen, mechanism, alloc=None):
    base = os.path.join(workdir, f"m{idx:03d}")
    inst, out = base + ".json", base + ".out.json"
    solve = ("solve", mechanism, "-i", inst, "-o", out)
    alloc_path = None
    if alloc is not None:
        alloc_path = base + ".alloc.json"
        solve += ("--alloc", alloc_path)
    verify = ("verify", "-i", inst, "-a", out, "--mode", "mccwe")
    return Market(kind, inst, gen, (solve, verify), out, alloc_path, alloc)


def _check_exit_codes(results) -> str | None:
    for argv, code, _report in results:
        if code != 0:
            return f"`{' '.join(argv)}` exited {code}"
    return None


def check_verified(results) -> str | None:
    """Every call exits 0 and the last one, `verify`, reports ok=true."""
    error = _check_exit_codes(results)
    if error is None and "ok=true" not in results[-1][2].splitlines():
        error = "verify did not report ok=true"
    return error


def check_gap(results) -> str | None:
    """`gap` exits 0 and reports fractional >= integral >= best_mccwe."""
    error = _check_exit_codes(results)
    if error is not None:
        return error
    fields = dict(line.split("=", 1) for line in results[0][2].splitlines() if "=" in line)
    try:
        frac, integral, best = (
            Fraction(fields[key]) for key in ("fractional", "integral", "best_mccwe")
        )
    except (KeyError, ValueError):
        return "gap report lacks a fractional, integral or best_mccwe value"
    if not frac >= integral >= best:
        return f"gap report breaks fractional >= integral >= best_mccwe: {fields}"
    return None


class Welfare:
    """`solve uba` from the brute-force optimum, then `verify --mode mccwe`.

    Five (m, n) shapes.  (5, 4) and (6, 3) cost about the same, so the
    latencies form four groups of 20, 40, 20 and 20%: the median falls
    inside the second group and p90 inside the last, not on a boundary
    between two groups.
    """

    name = "welfare"
    shapes = ((5, 3), (5, 4), (6, 3), (6, 4), (7, 4))
    round_size, rounds = 40, 3
    check = staticmethod(check_verified)

    def markets(self, seed: int, workdir: str) -> list[Market]:
        rng = random.Random(f"welfare/{seed}")
        markets = []
        for idx in range(self.round_size * self.rounds):
            m, n = self.shapes[idx % len(self.shapes)]
            gen = _random_gen(UBA, m, n, rng)
            markets.append(_solve_and_verify(f"uba_m{m}n{n}", workdir, idx, gen, "uba"))
        return markets


class Gap:
    """The `gap` verb on the paper's markets plus the three random families.

    Each cycle holds fig1a and nonuniform_identical_budget at seeded eps, a
    partition reduction whose weight count rotates through 5, 6 and 7, and
    the three random families at m = 6 with n alternating between 2 and 3.
    """

    name = "gap"
    round_size, rounds = 72, 3  # a round: every (weight count, n) pairing twice
    check = staticmethod(check_gap)

    def markets(self, seed: int, workdir: str) -> list[Market]:
        rng = random.Random(f"gap/{seed}")
        gens = []
        for cycle in range(self.round_size * self.rounds // 6):
            for family in ("fig1a", "nonuniform_identical_budget"):
                eps = Fraction(rng.randint(1, 99), 100)
                gens.append((family, ("gen", family, "--eps", str(eps))))
            size = 5 + cycle % 3
            weights = ",".join(str(rng.randint(1, 9)) for _ in range(size))
            gens.append((f"partition_{size}", ("gen", "partition_reduction", "--a", weights)))
            for offset, family in enumerate((SUPERADDITIVE, SINGLE_MINDED, UBA)):
                n = 2 + (cycle + offset) % 2
                gens.append((f"{family}_n{n}", _random_gen(family, 6, n, rng)))
        markets = []
        for idx, (kind, gen) in enumerate(gens):
            inst = os.path.join(workdir, f"m{idx:03d}.json")
            markets.append(Market(kind, inst, gen, (("gap", "-i", inst),)))
        return markets


class Mechanisms:
    """`solve` with each constructive mechanism, then `verify --mode mccwe`.

    Ten slots per cycle, weighted so that the three cheap mechanisms
    (singleminded, uba, cleanup) fill the lowest 30% of latencies,
    superadditive on random_superadditive the next 10%, logbundle on it the
    next 30% and superadditive on single-minded markets the top 30%: the
    median and p90 then fall inside a group of like markets instead of on
    the boundary between two.
    """

    name = "mechanisms"
    round_size, rounds = 60, 1
    check = staticmethod(check_verified)
    slots = ("superadditive_sm", "singleminded", "superadditive", "logbundle", "uba",
             "superadditive_sm", "cleanup", "logbundle", "logbundle", "superadditive_sm")

    def markets(self, seed: int, workdir: str) -> list[Market]:
        rng = random.Random(f"mechanisms/{seed}")
        markets = []
        for idx in range(self.round_size * self.rounds):
            kind = mechanism = self.slots[idx % len(self.slots)]
            alloc = None
            if kind == "superadditive_sm":
                mechanism = "superadditive"
                gen = _random_gen(SINGLE_MINDED, 12, 8, rng)
            elif kind == "singleminded":
                gen = _random_gen(SINGLE_MINDED, 20, 12, rng)
            elif kind in ("superadditive", "logbundle"):
                gen = _random_gen(SUPERADDITIVE, 7, 6, rng)
            else:
                gen = _random_gen(UBA, 16, 8, rng, identical_budgets=kind == "cleanup")
                alloc = _allocation_doc(rng, 16, 8)
            markets.append(_solve_and_verify(kind, workdir, idx, gen, mechanism, alloc))
        return markets


WORKLOADS = {w.name: w for w in (Welfare(), Gap(), Mechanisms())}

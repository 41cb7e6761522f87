"""The explicit-table check against the split loop it replaced.

`SuperadditiveExplicit` checks super-additivity on the synergy w, the table
less its additive part: (1) the step w[S + j] >= w[S] for every S and item
j above S's top item, and (2) only for the sets S with w[S] > 0, every
split with a nonempty T below S's top item.  `value_reference.valid_table`
walks every split.  Both see seeded tables at m = 0..8 from every family of
super-additive tables the tests build, each as built and after
single-entry nudges, and must give the same verdict and the same message.
Some tables must fail (1) alone and some (2) alone, so each is needed, and
every table with negative synergy must fail (1), which is how the check
does without a separate w >= 0 test.
"""

from fractions import Fraction

from mccwe import BadParams, SuperadditiveExplicit
from mccwe.bits import subset_sums
from mccwe.instances import SplitMix64, generate
from test_valuations import fractional_superadditive
from value_reference import valid_table

F = Fraction


def reference_message(table) -> str | None:
    """The message of the first rule the table breaks, in the constructor's
    order, or None for a valid table."""
    if min(table) < 0:
        return "negative value in valuation data"
    if table[0] != 0:
        return "table is not normalized: v(empty) != 0"
    return None if valid_table(table) else "table is not super-additive"


def failed_conditions(table) -> set[str]:
    """Which of the step check (1) and the synergy splits (2) a normalized
    nonnegative table breaks, each checked in full, plus "negative" when
    some w[S] < 0; all compare sums, so the unscaled table serves."""
    m = len(table).bit_length() - 1
    w = [t - a for t, a in zip(table, subset_sums([table[1 << j] for j in range(m)]))]
    failed = {"negative"} if min(w) < 0 else set()
    for s in range(len(w)):
        top = s.bit_length() - 1
        if any(w[s | 1 << j] < w[s] for j in range(top + 1, m)):
            failed.add("step")
        if w[s] > 0 and any(w[s] + w[t] > w[s | t] for t in range(1, 1 << top) if not t & s):
            failed.add("split")
    return failed


def seeded_tables(m: int, rng: SplitMix64):
    """(table, scale) for every family of tables at m items: scale is the
    unit one nudge step adds."""
    if m:
        for v in generate("random_superadditive", m, 3, rng.randint(0, 10**6)).agents:
            yield v.table, 1
    v = fractional_superadditive(m, rng)
    yield v.table, v.scale
    yield tuple(subset_sums([rng.randint(0, 4) for _ in range(m)])), 1
    yield tuple(s.bit_count() ** 2 for s in range(1 << m)), 1
    yield tuple(3 ** s.bit_count() - 1 for s in range(1 << m)), 1


def test_synergy_check_matches_every_split():
    verdicts = {True: 0, False: 0}
    alone = {"step": 0, "split": 0}  # rejections by one condition only
    negative = 0  # rejections with negative synergy, which (1) must make
    for m in range(9):
        for seed in range(6):
            rng = SplitMix64(1000 * m + seed)
            for table, scale in seeded_tables(m, rng):
                cases = [table]
                for _ in range(4):  # one entry moved by 1..5 units either way
                    nudged = list(table)
                    step = rng.randint(1, 5) * (1 if rng.randint(0, 1) else -1)
                    nudged[rng.randint(0, len(table) - 1)] += step if scale == 1 else F(step, scale)
                    cases.append(tuple(nudged))
                for case in cases:
                    expected = reference_message(case)
                    try:
                        SuperadditiveExplicit(case)
                        message = None
                    except BadParams as exc:
                        message = str(exc)
                    assert message == expected, case
                    verdicts[message is None] += 1
                    if expected == "table is not super-additive":
                        failed = failed_conditions(case)
                        checks = failed - {"negative"}
                        assert checks, case  # (1) and (2) cover every split
                        assert "negative" not in failed or "step" in checks, case
                        negative += "negative" in failed
                        if len(checks) == 1:
                            alone[checks.pop()] += 1
    assert min(verdicts.values()) >= 300, verdicts
    assert min(alone.values()) >= 1 and negative >= 1, (alone, negative)

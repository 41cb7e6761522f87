"""The super-additive mechanism's density phase, which keeps each agent's
relative-demand answer until a grant takes one of its items, against
`mechanism_reference.density_grants`, which asks every agent again after
every grant.  Relative demand is an argmax over the pool's subsets under
one fixed order and the pool only shrinks, so an answer that keeps its
items stays the argmax; the tests require the same grants, in order, on
seeded markets of every family, alone and mixed, with tied values."""

import mechanism_reference as reference
from mccwe import Additive, Instance, mechanisms
from mccwe.instances import FAMILIES, SplitMix64, generate
from mccwe.mechanisms import MechanismTrace
from mccwe.valuations import is_superadditive_family
from test_valuations import _tie_heavy_valuations


def _markets():
    for seed in range(4):
        rng = SplitMix64(seed)
        for m in range(1, 6):
            agents = [v for v in _tie_heavy_valuations(m, rng) if is_superadditive_family(v)]
            yield from (Instance(m, (v, v)) for v in agents[:: 1 + len(agents) // 20])
            for _ in range(20):
                picks = [rng.randint(0, len(agents) - 1) for _ in range(rng.randint(1, 5))]
                yield Instance(m, tuple(agents[i] for i in picks))
        for family in FAMILIES:
            yield generate(family, 6, 4, seed)
        for m, n in ((32, 3), (64, 5)):
            agents = (Additive(tuple(rng.randint(0, 3) for _ in range(m))) for _ in range(n))
            yield Instance(m, tuple(agents))


def test_kept_answers_grant_what_asking_again_grants(monkeypatch):
    asked = [0]
    query = mechanisms.relative_demand_query

    def counted(v, pool):
        asked[0] += 1
        return query(v, pool)

    monkeypatch.setattr(mechanisms, "relative_demand_query", counted)
    markets = asked_again = 0
    for inst in _markets():
        if not all(map(is_superadditive_family, inst.agents)):
            continue
        trace = MechanismTrace()
        mechanisms.superadditive_mccwe(inst, trace)
        density = [(s.agent, s.items) for s in trace.steps if s.phase == "density"]
        expected = reference.density_grants(inst)
        assert density == expected, inst
        markets += 1
        asked_again += inst.n * len(expected)
    assert markets > 400 and asked[0] < asked_again

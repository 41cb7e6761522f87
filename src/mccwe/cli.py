"""Command-line surface: gen / solve / verify / oracle / gap / bench.

Reports are line-oriented ``key=value`` pairs (plus an optional JSON report
for verify) and are byte-identical across runs for fixed inputs.  All
numbers print exactly as "p/q"; the only decimal renderings are the
6-place approximations next to bench ratios, computed by integer
arithmetic.

Exit codes: 0 success (and, for verify, a passing report); 1 a verification
that ran but failed; 2 parse, size, or parameter errors; 3 a result that
failed its own re-check (`CertificateError`), which is a bug, not bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from math import isqrt, lcm

from . import configlp, mechanisms, oracle
from .bits import items_of
from .equilibria import MODES, verify
from .errors import BadParams, CertificateError, MarketError, ParseError, SizeLimit
from .instances import (
    BUILTINS,
    FAMILIES,
    _bound_call,
    built_in,
    generate,
    parse_allocation,
    parse_instance,
    parse_outcome,
    parse_rational,
    write_instance,
    write_outcome,
)
from .market import (
    Instance,
    induced_partition,
    revenue,
    singleton_partition,
    social_welfare,
)

# name -> (call on (market, input allocation, trace), takes an input allocation).
# Each call looks its mechanism up when it runs, so a rebound one is the one called.
_MECHANISMS = {
    "superadditive": (lambda inst, x, trace: mechanisms.superadditive_mccwe(inst, trace), False),
    "singleminded": (lambda inst, x, trace: mechanisms.single_minded_mccwe(inst, trace), False),
    "uba": (
        lambda inst, x, trace: mechanisms.uniform_budget_additive_mccwe(inst, x, trace),
        True,
    ),
    "logbundle": (lambda inst, x, trace: mechanisms.log_bundling_mechanism(inst, trace), False),
    "cleanup": (lambda inst, x, trace: mechanisms.identical_budget_cleanup(inst, x, trace), True),
    "fullsurplus": (
        lambda inst, x, trace: mechanisms.bundle_efficient_full_surplus(
            inst, induced_partition(x)[0], trace
        ),
        True,
    ),
}

# The mechanism `bench` runs on each random family, in FAMILIES' order.
_BENCHED = dict(zip(FAMILIES, ("superadditive", "singleminded", "uba")))


def _decimal6(value: Fraction) -> str:
    """Six-place decimal rendering by integer arithmetic (display only)."""
    scaled = (value.numerator * 10**6 + value.denominator // 2) // value.denominator
    whole, frac = divmod(scaled, 10**6)
    return f"{whole}.{frac:06d}"


def _read(path: str) -> str:
    """The file's text; ParseError, naming the file, when it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _digits_past_limit(inst: Instance, prices=(), lp_items: int = 0) -> int:
    """The interpreter's int-to-string digit limit when a number that a verb
    prints about the market, or about an outcome of it at these prices,
    could have more digits than `str` converts; else 0, as when there is no
    limit.  Each welfare, price, revenue and buyer's gap is a multiple of
    1/U, U the LCM of the market's scale and the prices' denominators, and
    at most the market's total value sum_i v_i(M) plus P, the prices'
    absolute sum: a welfare, or a price a mechanism sets, is at most the
    total value, a given price or the revenue at most P, and a gap, one
    utility v(S) - p(S) less another, at most v_i(M) + P.

    `lp_items` > 0 also covers the value of a singleton configuration LP
    over that many item rows: at most the total value, and a multiple of
    1/(scale |det B|), B a basis.  Each column of B is a slack or an agent
    row's 1 plus its bundle's item rows.  Expand along the basic slacks;
    then, in each agent row left, subtracting one of the agent's columns
    from its others leaves the row a single 1.  So |det B| is the
    determinant of a matrix over at most `lp_items` item rows with entries
    in {-1, 0, 1}, at most lp_items^(lp_items/2) (Hadamard).  No numerator
    or denominator printed thus exceeds max(U, U (total + P)) times that
    bound."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # no limit before 3.10.7
    if not limit:
        return 0
    unit = lcm(inst.scale, *(p.denominator for p in prices))
    items = (1 << inst.m) - 1
    total = sum(inst.scaled_value(i, items) for i in range(inst.n)) * (unit // inst.scale)
    paid = sum(abs(p.numerator) * (unit // p.denominator) for p in prices)
    top = max(unit, total + paid) * isqrt(lp_items**lp_items)
    return limit if top.bit_length() > 3 * limit and top >= 10**limit else 0  # 2^(3k) < 10^k


def _check_digits(path: str, inst: Instance, prices=(), lp_items: int = 0) -> None:
    """SizeLimit, naming the file, when `_digits_past_limit`: run once per
    verb, before any work."""
    limit = _digits_past_limit(inst, prices, lp_items)
    if limit:
        raise SizeLimit(
            f"{path}: its numbers could print past the {limit}-digit int-to-string limit"
        )


def _load_instance(path: str) -> Instance:
    return parse_instance(_read(path))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="mccwe",
        description="market-clearing bundle equilibria: generate, solve, verify, bound",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write an instance file")
    gen.add_argument("family", choices=tuple(BUILTINS) + FAMILIES)
    gen.add_argument("--m", type=int)
    gen.add_argument("--n", type=int)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--eps", help="rational like 1/10")
    gen.add_argument("--bigR", help="rational like 100")
    gen.add_argument("--identical-budgets", action="store_true")
    gen.add_argument("--a", help="comma-separated weights for partition_reduction")
    gen.add_argument("-o", "--output", required=True)

    solve = sub.add_parser("solve", help="run a mechanism, write its outcome")
    solve.add_argument("mechanism", choices=tuple(_MECHANISMS))
    solve.add_argument("-i", "--instance", required=True)
    solve.add_argument("--alloc", help="input allocation (defaults to the brute-force optimum)")
    solve.add_argument("-o", "--output", required=True)
    solve.add_argument("--trace")

    ver = sub.add_parser("verify", help="check an outcome file in a given mode")
    ver.add_argument("-i", "--instance", required=True)
    ver.add_argument("-a", "--outcome", required=True)
    ver.add_argument("--mode", choices=MODES, required=True)
    ver.add_argument("--json", action="store_true")

    orc = sub.add_parser("oracle", help="brute-force bounds")
    orc.add_argument("-i", "--instance", required=True)
    orc.add_argument("--best-mccwe", action="store_true")
    orc.add_argument("--item-pricing", action="store_true")

    gap = sub.add_parser("gap", help="fractional vs integral vs best supportable welfare")
    gap.add_argument("-i", "--instance", required=True)

    bench = sub.add_parser("bench", help="sweep a random family, report ratios")
    bench.add_argument("--family", choices=FAMILIES, required=True)
    bench.add_argument("--trials", type=int, required=True)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--m", type=int, required=True)
    bench.add_argument("--n", type=int, required=True)
    return parser


def _cmd_gen(args, out) -> int:
    # Each flag given fills the parameter of its name.  The family's maker
    # rejects one it does not take, and its signature holds the defaults.
    params = {
        "m": args.m,
        "n": args.n,
        "seed": args.seed,
        "identical_budgets": args.identical_budgets or None,
        "eps": None if args.eps is None else parse_rational(args.eps, "--eps"),
        "big": None if args.bigR is None else parse_rational(args.bigR, "--bigR"),
        "weights": None
        if args.a is None
        else tuple(parse_rational(w, "--a") for w in args.a.split(",")),
    }
    params = {key: value for key, value in params.items() if value is not None}
    if args.family in BUILTINS:
        inst = built_in(args.family, **params)
    else:
        inst = _bound_call(generate, f"random family {args.family!r}", args.family, **params)
    _write(args.output, write_instance(inst))
    print(f"instance={inst.name}", file=out)
    print(f"m={inst.m}", file=out)
    print(f"n={inst.n}", file=out)
    print(f"file={args.output}", file=out)
    return 0


def _cmd_solve(args, out) -> int:
    inst = _load_instance(args.instance)
    _check_digits(args.instance, inst)
    trace = mechanisms.MechanismTrace() if args.trace else None
    call, takes_allocation = _MECHANISMS[args.mechanism]
    x = None
    if takes_allocation and args.alloc:
        x = parse_allocation(_read(args.alloc), inst.m)
    elif takes_allocation:
        x, _welfare = oracle.optimal_integral(inst)
    outcome = call(inst, x, trace)
    _write(args.output, write_outcome(outcome))
    if args.trace:
        doc = {
            "mechanism": trace.mechanism,
            "steps": [
                {
                    "phase": step.phase,
                    "agent": step.agent,
                    "items": items_of(step.items),
                    "welfare_before": str(step.welfare_before),
                    "welfare_after": str(step.welfare_after),
                }
                for step in trace.steps
            ],
        }
        _write(args.trace, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"mechanism={args.mechanism}", file=out)
    print(f"welfare={social_welfare(inst, outcome.allocation)}", file=out)
    print(f"revenue={revenue(inst, outcome)}", file=out)
    print(f"outcome={args.output}", file=out)
    return 0


def _cmd_verify(args, out) -> int:
    inst = _load_instance(args.instance)
    outcome = parse_outcome(_read(args.outcome), inst.m)
    prices = outcome.item_prices if outcome.prices is None else (*outcome.prices, outcome.x0_price)
    if _digits_past_limit(inst, prices):  # one check over both files
        _check_digits(args.instance, inst)  # named for the market when it alone fails
        _check_digits(args.outcome, inst, prices)
    report = verify(inst, outcome, args.mode)
    forms = (("better_bundle", items_of), ("gap", str), ("block", items_of), ("price", str))
    records = []
    for viol in report.violations:
        record = {"kind": viol.kind, "agent": viol.agent}
        for key, form in forms:
            value = getattr(viol, key)
            record[key] = None if value is None else form(value)
        records.append(record)
    doc = {
        "mode": report.mode,
        "ok": report.ok,
        "welfare": str(social_welfare(inst, outcome.allocation)),
        "revenue": str(revenue(inst, outcome)),
        "violations": records,
    }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True), file=out)
    else:
        print(f"mode={doc['mode']}", file=out)
        print(f"ok={json.dumps(doc['ok'])}", file=out)
        print(f"welfare={doc['welfare']}", file=out)
        print(f"revenue={doc['revenue']}", file=out)
        for record in records:
            if record["kind"] == "buyer":
                bundle = ",".join(map(str, record["better_bundle"]))
                detail = f"agent={record['agent']} gap={record['gap']} better_blocks={{{bundle}}}"
            else:
                detail = f"block={{{','.join(map(str, record['block']))}}} price={record['price']}"
            print(f"violation={record['kind']} {detail}", file=out)
    return 0 if report.ok else 1


def _cmd_oracle(args, out) -> int:
    inst = _load_instance(args.instance)
    _check_digits(args.instance, inst)
    lines = [f"opt={oracle.optimal_integral(inst)[1]}"]  # every answer before any output
    if args.best_mccwe:
        lines.append(f"best_mccwe={oracle.best_mccwe(inst)[1]}")
    if args.item_pricing:
        lines.append(f"item_pricing={oracle.best_single_minded_item_pricing(inst)}")
    print("\n".join(lines), file=out)
    return 0


def _cmd_gap(args, out) -> int:
    inst = _load_instance(args.instance)
    # Past the variable cap, fractional_opt refuses the LP before its value prints.
    fits = inst.n << inst.m <= configlp.MAX_VARIABLES
    _check_digits(args.instance, inst, lp_items=inst.m if fits else 0)
    # The optimum first: its charge is made before any DP runs, and the
    # singleton LP starts from the DP optimum it leaves in the memo.
    _x, integral = oracle.optimal_integral(inst)
    frac = configlp.fractional_opt(inst, singleton_partition(inst.m)).value
    # An integral singleton LP answers best_mccwe without its search: a
    # Walrasian optimum is its own MC-CWE (Bikhchandani and Mamer, 1997).
    # Let x be the optimum optimal_integral returns, which best_mccwe probes
    # first, and P_x its induced partition.  Column (i, T) of the LP over P_x
    # is singleton column (i, union of T): the same value, and each item row
    # it fills is the row of a block in T, so every point feasible over P_x
    # is feasible over the singletons, and LP(P_x) <= frac.  x is feasible
    # over P_x, so LP(P_x) >= welfare(x) = integral.  So frac == integral
    # makes the first probe succeed, and best_mccwe returns integral.
    best = integral if frac == integral else oracle.best_mccwe(inst)[1]
    print(f"instance={inst.name}", file=out)
    print(f"fractional={frac}", file=out)
    print(f"integral={integral}", file=out)
    print(f"best_mccwe={best}", file=out)
    return 0


def _cmd_bench(args, out) -> int:
    if args.trials < 1:
        raise BadParams("--trials must be at least 1")
    ratios = []
    for trial in range(args.trials):
        inst = generate(args.family, args.m, args.n, args.seed + trial)
        x, opt = oracle.optimal_integral(inst)
        outcome = _MECHANISMS[_BENCHED[args.family]][0](inst, x, None)
        welfare = social_welfare(inst, outcome.allocation)
        ratios.append(Fraction(1) if opt == 0 else opt / welfare)
    worst = max(ratios)
    mean = sum(ratios, Fraction(0)) / len(ratios)
    print(f"family={args.family}", file=out)
    print(f"trials={args.trials}", file=out)
    print(f"worst={worst} (~{_decimal6(worst)})", file=out)
    print(f"mean={mean} (~{_decimal6(mean)})", file=out)
    return 0


_HANDLERS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "gap": _cmd_gap,
    "bench": _cmd_bench,
}


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args, out)
    except MarketError as exc:
        print(f"error={type(exc).__name__} {exc}", file=sys.stderr)
        return 3 if isinstance(exc, CertificateError) else 2
    except OSError as exc:
        print(f"error=io {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

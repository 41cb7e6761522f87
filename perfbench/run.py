"""Benchmark for the mccwe CLI verbs: one closed-loop client, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload welfare --seed 1 --seconds 35 --trace 0

Set-up imports the program from ``src/`` and writes every market of the
workload to ``perfbench/_work/<workload>/`` through the program's ``gen``
verb.  The run then sends the markets one at a time, each through its
verbs, by calling ``mccwe.cli.main(argv, out=buffer)`` in this process.
Markets go in rounds; each round is a balanced slice of the workload's
list, and rounds wrap around to the start of the list.  Rounds continue
until the next one would take the time spent in rounds past ``--seconds``,
and until p90 has ten samples beyond it.  Set-up runs again before the
second and third rounds, and ``setup_s`` is the median of the three.

Output check: every market's report lines and outcome file are hashed.  A
market fails when a verb exits nonzero, when ``verify`` does not report
``ok=true``, when ``gap`` breaks fractional >= integral >= best_mccwe, or
when its hash differs from the reference: the digest recorded in
``expected_digests.json`` for that seed (``--record`` writes it), or else
the hash of the first time the market was sent in this run.

``--trace 0`` prints the end-to-end metrics: throughput and per-market
latency p50 and p90 over every market sent, set-up time and peak RSS.
Throughput and latency are in reference time.  On a shared host the speed
of the CPU can drift by a third and more within minutes, in phases of ten
seconds and longer, which would bury any change in the program.  So before each
market the benchmark times one run of a fixed reference kernel (Python
code of its own, about a millisecond), and a market's time is divided by
the mean kernel time over its round: ``ref_ms`` is the time one kernel run
takes, ``1/ref_s`` markets per thousand kernel runs.  The wall-clock
figures print alongside, as ``throughput_mps``, ``latency_p50_ms`` and
``latency_p90_ms``.  ``setup_s`` is wall time.

``--trace 1`` sends each round untraced and then traced and prints
per-layer metrics of one round (median self time over the traced rounds,
counts of the first).  ``trace.overhead_frac`` compares the reference time
the same markets took traced and untraced; ``trace.unattributed_frac`` is
the share of a traced round's wall time outside every span (the kernel and
the output check included).  Spans are written to
``perfbench/_work/<workload>/spans.jsonl``.

Every metric prints as ``name=value unit`` before the final JSON line.  The
exit code is 0 when every market passed its check, 1 when one failed and 2
when the program cannot be imported or set up.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import NamedTuple

import tracer as tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = "perfbench"
EXPECTED = os.path.join(BENCH_DIR, "expected_digests.json")
DEFAULT_SEED = 1
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "throughput_mps_ref": "1/ref_s",
    "latency_p50_ms_ref": "ref_ms",
    "latency_p90_ms_ref": "ref_ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
LAYERS = ("oracle", "lp", "configlp", "valuations", "market", "instances",
          "mechanisms", "equilibria", "cli")
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "oracle.states": "count",
    "oracle.lp_probes": "count",
    "oracle.probe_hit_ratio": "ratio",
    "lp.calls": "count",
    "lp.columns": "count",
    "lp.rows": "count",
    "configlp.calls": "count",
    "valuations.tables": "count",
    "valuations.demand_queries": "count",
    "market.reduced_tables": "count",
    "instances.bytes_parsed": "B",
    "mechanisms.calls": "count",
    "mechanisms.moves": "count",
    "equilibria.calls": "count",
    "equilibria.violations": "count",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


class Sent(NamedTuple):
    """One market sent once."""

    index: int
    latency_ns: int
    ref_ns: int  # reference kernel time just before the market
    digest: str
    error: str | None


class ProgramUnavailable(Exception):
    """The program under test cannot be imported or set up."""


def tail_percentile(samples: int) -> int | None:
    """The highest whole percentile with at least ten samples beyond it."""
    if samples < 10:
        return None
    return 100 - -(-1000 // samples)


def import_program(src: Path):
    """Import `mccwe.cli` afresh from `src`, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "mccwe" or n.startswith("mccwe.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    try:
        cli = importlib.import_module("mccwe.cli")
    except ImportError as exc:
        raise ProgramUnavailable(f"cannot import mccwe from {src}: {exc}") from exc
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ProgramUnavailable(f"mccwe was imported from {cli.__file__}, not {src}")
    return cli


def call(cli, argv) -> tuple[int, str]:
    out = io.StringIO()
    try:
        code = cli.main(list(argv), out=out)
    except SystemExit as exc:  # argparse rejected the argv
        code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def set_up(workload, seed: int, workdir: str):
    """Import the program and write every market's input files."""
    cli = import_program(ROOT / "src")
    os.makedirs(workdir, exist_ok=True)
    markets = workload.markets(seed, workdir)
    for market in markets:
        code, report = call(cli, market.gen + ("-o", market.instance))
        if code != 0:
            raise ProgramUnavailable(f"`{' '.join(market.gen)}` exited {code}: {report}")
        if market.alloc is not None:
            with open(market.alloc_path, "w", encoding="utf-8") as handle:
                handle.write(market.alloc)
    return cli, markets


def input_digest(markets) -> str:
    """Hash of every input file the set-up wrote, in market order."""
    digest = hashlib.sha256()
    for market in markets:
        for path in (market.instance, market.alloc_path):
            if path is not None:
                digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def reference_kernel() -> int:
    """Fixed interpreter work whose wall time is the unit ``ref_ms``.

    Fraction arithmetic, dict and list traffic, like the program's inner
    loops; about a millisecond on a 2-core x86-64 VM under CPython 3.11.
    It never calls the program, so a change to the program cannot change
    its time.
    """
    total = Fraction(0)
    table = {}
    for i in range(1, 260):
        total += Fraction(i % 7, 3)
        table[i] = [i, i * 3]
    return total.numerator + len(table)


def reference_ns() -> int:
    gc.disable()  # a collection of the program's garbage is not kernel time
    try:
        began = perf_counter_ns()
        reference_kernel()
        return perf_counter_ns() - began
    finally:
        gc.enable()


def run_round(cli, workload, markets, indices, tracer=None):
    """Send the markets at `indices` once each, in order.

    Each market is preceded by one run of the reference kernel.
    Returns (seconds, [Sent]).
    """
    sent = []
    start = perf_counter()
    for index in indices:
        market = markets[index]
        if market.outcome is not None and os.path.exists(market.outcome):
            os.remove(market.outcome)  # so that a stale file is never hashed
        ref = reference_ns()
        if tracer is not None:
            tracer.market = index
        error = None
        results = []
        began = perf_counter_ns()
        try:
            for argv in market.requests:
                results.append((argv, *call(cli, argv)))
        except Exception:  # a crash in the program fails this market only
            error = traceback.format_exc()
        latency = perf_counter_ns() - began
        digest = hashlib.sha256()
        for argv, code, report in results:
            digest.update(f"{' '.join(argv)}\0{code}\0{report}\0".encode())
        if market.outcome is not None and os.path.exists(market.outcome):
            digest.update(Path(market.outcome).read_bytes())
        if error is None:
            error = workload.check(results)
        sent.append(Sent(index, latency, ref, digest.hexdigest()[:32], error))
    return perf_counter() - start, sent


def load_expected(workload: str, seed: int):
    try:
        with open(EXPECTED, encoding="utf-8") as handle:
            entry = json.load(handle).get(workload)
    except FileNotFoundError:
        return None
    return entry["markets"] if entry and entry["seed"] == seed else None


def record_expected(workload: str, seed: int, digests) -> None:
    try:
        with open(EXPECTED, encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        doc = {}
    doc[workload] = {"seed": seed, "markets": digests}
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def first_digests(rounds) -> dict[int, str]:
    """Each market's digest the first time it was sent."""
    first = {}
    for _seconds, sent in rounds:
        for market in sent:
            first.setdefault(market.index, market.digest)
    return first


def count_failures(rounds, reference, markets) -> int:
    """Markets sent whose check failed or whose bytes differ from the reference."""
    failed = 0
    for _seconds, sent in rounds:
        for index, _latency, _ref, digest, error in sent:
            if error is None and digest != reference[index]:
                error = f"output bytes differ from the reference ({digest})"
            if error is not None:
                failed += 1
                if failed <= 5:
                    print(f"market {index} ({markets[index].kind}) failed: {error}",
                          file=sys.stderr)
    return failed


def keep_going(elapsed, round_seconds, seconds) -> bool:
    """Another round, unless one is done and the next would end after `seconds`."""
    return not round_seconds or elapsed + statistics.median(round_seconds) <= seconds


def round_indices(workload, number):
    """Market indices of the `number`-th round; rounds wrap around the list."""
    first = number % workload.rounds * workload.round_size
    return range(first, first + workload.round_size)


def reference_unit(sent) -> float:
    """Nanoseconds per ``ref_ms`` over one round: the mean kernel time.

    The kernel times sample the host's speed at market boundaries.  The
    speed flips between fast and slow states faster than a long market
    lasts, so the mean over the round, not one nearby sample, estimates what
    a market experienced.
    """
    return statistics.fmean(market.ref_ns for market in sent)


def measure(cli, workload, markets, seconds, set_up_again):
    rounds = []
    while (
        keep_going(sum(r[0] for r in rounds), [r[0] for r in rounds], seconds)
        or (tail_percentile(len(rounds) * workload.round_size) or 0) < 90
    ):
        if 0 < len(rounds) < SETUP_REPEATS:
            # Set-up time swings with the host's speed too; repeating it
            # between rounds samples more than one phase of that speed.
            cli, markets = set_up_again()
        rounds.append(run_round(cli, workload, markets, round_indices(workload, len(rounds))))
    wall_ms, ref_ms, refs = [], [], []
    for _seconds, sent in rounds:
        unit = reference_unit(sent)
        for market in sent:
            wall_ms.append(market.latency_ns / 1e6)
            ref_ms.append(market.latency_ns / unit)
            refs.append(market.ref_ns / 1e6)
    metrics = {
        "throughput_mps_ref": 1000 * len(ref_ms) / sum(ref_ms),
        "latency_p50_ms_ref": statistics.median(ref_ms),
        "latency_p90_ms_ref": _p90(ref_ms),
    }
    extra = {
        "latency_samples": (len(ref_ms), "count"),
        "throughput_mps": (len(wall_ms) / sum(r[0] for r in rounds), "1/s"),
        "latency_p50_ms": (statistics.median(wall_ms), "ms"),
        "latency_p90_ms": (_p90(wall_ms), "ms"),
        "reference_kernel_ms": (statistics.median(refs), "ms"),
        "round_seconds": (",".join(f"{r[0]:.3f}" for r in rounds), "s"),
    }
    return rounds, metrics, extra


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure_traced(cli, workload, markets, seconds, spans_path):
    """Send each round untraced, then again traced."""
    rounds, pair_seconds, spans = [], [], []
    while keep_going(sum(pair_seconds), pair_seconds, seconds):
        indices = round_indices(workload, len(spans))
        rounds.append(run_round(cli, workload, markets, indices))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            rounds.append(run_round(cli, workload, markets, indices, tracer))
        finally:
            tracer.uninstall()
        pair_seconds.append(rounds[-2][0] + rounds[-1][0])
        spans.append(tracer.spans)
    busy = [
        sum(market.latency_ns for market in sent) / reference_unit(sent)
        for _seconds, sent in rounds
    ]
    plain, traced = busy[0::2], busy[1::2]
    per_round = [tracing.layer_metrics(s) for s in spans]
    metrics = {}
    for name in PER_LAYER_UNITS:
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(m.get(name, 0.0) for m in per_round)
        elif not name.startswith("trace."):
            metrics[name] = per_round[0][name]
    outside = [
        1 - sum(s[tracing.END] - s[tracing.START] for s in round_spans if s[tracing.PARENT] < 0)
        / (wall * 1e9)
        for round_spans, (wall, _sent) in zip(spans, rounds[1::2])
    ]
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    metrics["trace.unattributed_frac"] = statistics.median(outside)
    tracing.write_spans(spans_path, spans)
    extra = {"traced_rounds": (len(spans), "count")}
    return rounds, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record this seed's output digests as the reference")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(BENCH_DIR, "_work", workload.name)

    setup_seconds = []

    def timed_set_up():
        began = perf_counter()
        program = set_up(workload, args.seed, workdir)
        setup_seconds.append(perf_counter() - began)
        return program

    try:
        cli, markets = timed_set_up()
    except ProgramUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        spans_path = os.path.join(workdir, "spans.jsonl")
        rounds, metrics, extra = measure_traced(cli, workload, markets, args.seconds, spans_path)
        units = PER_LAYER_UNITS
    else:
        rounds, metrics, extra = measure(cli, workload, markets, args.seconds, timed_set_up)
        metrics["setup_s"] = statistics.median(setup_seconds)
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END_UNITS

    first = first_digests(rounds)
    expected = load_expected(workload.name, args.seed)
    if args.record:
        if len(first) != len(markets):
            print("error: --record needs a run long enough to send every market",
                  file=sys.stderr)
            return 2
        expected = [first[index] for index in range(len(markets))]
        record_expected(workload.name, args.seed, expected)
    if expected is not None and len(expected) != len(markets):
        print(f"error: {EXPECTED} records {len(expected)} markets for this seed, "
              f"the workload has {len(markets)}", file=sys.stderr)
        expected = [None] * len(markets)
    attempted = sum(len(sent) for _seconds, sent in rounds)
    failed = count_failures(rounds, expected or first, markets)
    run_digest = hashlib.sha256("".join(first[i] for i in sorted(first)).encode()).hexdigest()

    extra.update({
        "failed_frac": (failed / attempted, "ratio"),
        "markets_sent": (f"{len(first)} of {len(markets)}", "count"),
        "output_digest": (run_digest, "sha256"),
        "input_digest": (input_digest(markets), "sha256"),
    })
    result = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    for name, entry in result.items():
        print(f"{name}={entry['value']!r} {entry['unit']}")
    for name, (value, unit) in extra.items():
        print(f"{name}={value} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

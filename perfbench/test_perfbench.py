"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import run
import tracer as tracing
from workloads import WORKLOADS, check_gap, check_verified


@pytest.mark.parametrize(
    "samples, percentile",
    [(9, None), (10, 0), (11, 9), (99, 89), (100, 90), (105, 90), (216, 95), (1000, 99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(samples, percentile):
    assert run.tail_percentile(samples) == percentile
    if percentile is not None:
        assert samples * (100 - percentile) >= 1000 > samples * (99 - percentile)


def _span(layer, start, end, parent):
    return [layer, layer, start, end, parent, 0, None]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("cli", 0, 100, -1),
        _span("oracle", 10, 40, 0),
        _span("lp", 20, 30, 1),
        _span("market", 50, 70, 0),
        _span("cli", 200, 210, -1),
    ]
    assert tracing.self_times(spans) == [50, 20, 10, 20, 10]
    metrics = tracing.layer_metrics(spans)
    assert metrics["cli.self_s"] == pytest.approx(60e-9)
    assert sum(v for k, v in metrics.items() if k.endswith(".self_s")) == pytest.approx(110e-9)


def _set_up(workload, seed, workdir):
    _cli, markets = run.set_up(WORKLOADS[workload], seed, str(workdir))
    return {
        os.path.relpath(path, workdir): Path(path).read_bytes()
        for market in markets
        for path in (market.instance, market.alloc_path)
        if path is not None
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_seed_gives_byte_identical_inputs(workload, tmp_path):
    first = _set_up(workload, 7, tmp_path / "a")
    assert first == _set_up(workload, 7, tmp_path / "b")
    assert first != _set_up(workload, 8, tmp_path / "c")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_digest_equals_untraced_digest(workload, tmp_path):
    bench = WORKLOADS[workload]
    cli, markets = run.set_up(bench, 3, str(tmp_path))
    first_five = range(5)
    _seconds, plain = run.run_round(cli, bench, markets, first_five)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _seconds, traced = run.run_round(cli, bench, markets, first_five, tracer)
    finally:
        tracer.uninstall()
    assert [error for *_rest, error in plain + traced] == [None] * 10
    assert [digest for *_rest, digest, _error in traced] == [
        digest for *_rest, digest, _error in plain
    ]
    roots = [span for span in tracer.spans if span[tracing.PARENT] < 0]
    assert {span[tracing.NAME] for span in roots} == {"main"}
    assert {span[tracing.MARKET] for span in roots} == set(first_five)
    assert not any(getattr(f, "__name__", "") == "traced" for f in vars(cli).values())


def test_output_checks_reject_failed_verification_and_broken_gap_order():
    verify = ("verify",)
    assert check_verified([(verify, 0, "mode=mccwe\nok=true\n")]) is None
    assert check_verified([(verify, 1, "mode=mccwe\nok=false\n")]) is not None
    assert check_verified([(verify, 0, "mode=mccwe\nok=false\n")]) is not None
    report = "instance=x\nfractional={}\nintegral={}\nbest_mccwe={}\n"
    assert check_gap([(("gap",), 0, report.format("8", "79/10", "7"))]) is None
    assert check_gap([(("gap",), 0, report.format("8", "7", "79/10"))]) is not None
    assert check_gap([(("gap",), 0, "instance=x\n")]) is not None

"""CLI wiring: grammar, reports, exit codes, determinism."""

import hashlib
import io
import json

import pytest

from mccwe import Additive, CertificateError, Instance
from mccwe import cli, configlp, market
from mccwe.instances import built_in, write_instance
from mccwe.valuations import MAX_ITEMS
from mccwe.cli import main


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_gen_solve_verify_pipeline(tmp_path):
    inst = tmp_path / "appc.json"
    outcome = tmp_path / "out.json"
    trace = tmp_path / "trace.json"
    code, text = run(["gen", "bundling_necessity", "--m", "16", "-o", str(inst)])
    assert code == 0
    assert "m=16" in text

    code, text = run(
        ["solve", "superadditive", "-i", str(inst), "-o", str(outcome), "--trace", str(trace)]
    )
    assert code == 0
    assert "welfare=16" in text and "revenue=16" in text
    assert json.loads(trace.read_text())["mechanism"] == "superadditive"

    code, text = run(
        ["verify", "-i", str(inst), "-a", str(outcome), "--mode", "mccwe"]
    )
    assert code == 0
    assert "ok=true" in text


def test_gap_fig1a(tmp_path):
    inst = tmp_path / "fig1a.json"
    run(["gen", "fig1a", "--eps", "1/10", "-o", str(inst)])
    code, text = run(["gap", "-i", str(inst)])
    assert code == 0
    assert "fractional=8\n" in text
    assert "integral=79/10\n" in text
    assert "best_mccwe=7\n" in text


def test_gap_charges_no_search_that_does_not_run(tmp_path):
    # optimal_integral's 14^6 states fit the default budget and two such
    # charges do not; the singleton LP is integral, so gap runs no search,
    # and best_mccwe's first probe succeeds, so it charges no walk.
    inst = tmp_path / "uba.json"
    gen = ["gen", "random_uniform_budget_additive", "--m", "6", "--n", "13", "--seed", "1"]
    assert run([*gen, "-o", str(inst)])[0] == 0
    assert run(["gap", "-i", str(inst)]) == (
        0,
        "instance=random_uniform_budget_additive\nfractional=24\nintegral=24\nbest_mccwe=24\n",
    )
    assert run(["oracle", "-i", str(inst), "--best-mccwe"]) == (0, "opt=24\nbest_mccwe=24\n")



def test_gap_charges_the_optimum_before_any_dp_or_lp_runs(tmp_path, monkeypatch, capsys):
    # 4^12 assignments exceed the default budget: gap refuses the market
    # before the DP or the singleton LP, which starts from the DP, runs.
    inst = tmp_path / "uba.json"
    gen = ["gen", "random_uniform_budget_additive", "--m", "12", "--n", "3", "--seed", "1"]
    assert run([*gen, "-o", str(inst)])[0] == 0
    capsys.readouterr()

    def refused(*_args):
        raise AssertionError("a DP or an LP ran before the charge")

    monkeypatch.setattr(market, "_winner_determination", refused)
    monkeypatch.setattr(configlp, "simplex", refused)
    assert run(["gap", "-i", str(inst)]) == (2, "")
    assert capsys.readouterr().err == (
        "error=SizeLimit 16777216 enumeration states exceed the remaining budget (10000000)\n"
    )


def test_verify_failure_exit_code_and_report(tmp_path):
    inst = tmp_path / "duel.json"
    outcome = tmp_path / "bad.json"
    run(["gen", "revenue_example", "--bigR", "100", "-o", str(inst)])
    outcome.write_text(
        json.dumps(
            {
                "format": 1,
                "allocation": {"x0": [], "x": [[0], [1, 2]]},
                "prices": {"agents": ["1", "103"]},
            }
        )
    )
    code, text = run(["verify", "-i", str(inst), "-a", str(outcome), "--mode", "mccwe"])
    assert code == 1
    assert "ok=false" in text
    assert "violation=buyer agent=1 gap=1" in text

    code, text = run(
        ["verify", "-i", str(inst), "-a", str(outcome), "--mode", "mccwe", "--json"]
    )
    assert code == 1
    doc = json.loads(text)
    assert doc["ok"] is False
    assert doc["violations"][0]["agent"] == 1


def test_verify_we_mode_item_prices(tmp_path):
    inst = tmp_path / "rev.json"
    outcome = tmp_path / "we.json"
    run(["gen", "revenue_example", "--bigR", "100", "-o", str(inst)])
    outcome.write_text(
        json.dumps(
            {
                "format": 1,
                "allocation": {"x0": [], "x": [[0], [1, 2]]},
                "prices": {"items": ["1", "2", "2"]},
            }
        )
    )
    code, text = run(["verify", "-i", str(inst), "-a", str(outcome), "--mode", "we"])
    assert code == 0
    assert "revenue=5" in text


def test_verify_passing_bundle_outcome_reports_revenue(tmp_path):
    inst = tmp_path / "rev.json"
    outcome = tmp_path / "good.json"
    run(["gen", "revenue_example", "--bigR", "100", "-o", str(inst)])
    outcome.write_text(
        json.dumps(
            {
                "format": 1,
                "allocation": {"x0": [], "x": [[0], [1, 2]]},
                "prices": {"agents": ["1", "102"]},
            }
        )
    )
    code, text = run(["verify", "-i", str(inst), "-a", str(outcome), "--mode", "mccwe"])
    assert code == 0
    assert "ok=true" in text
    assert "revenue=103" in text


def test_every_solve_output_passes_mccwe_verify(tmp_path):
    jobs = [
        ("bundling_necessity", ["--m", "16"], "superadditive"),
        ("bundling_necessity", ["--m", "16"], "singleminded"),
        ("bundling_necessity", ["--m", "16"], "logbundle"),
        ("bundling_necessity", ["--m", "16"], "fullsurplus"),
        ("fig1a", ["--eps", "1/10"], "uba"),
        ("fig1b", [], "cleanup"),
    ]
    for idx, (family, flags, mechanism) in enumerate(jobs):
        inst = tmp_path / f"i{idx}.json"
        outcome = tmp_path / f"o{idx}.json"
        assert run(["gen", family, *flags, "-o", str(inst)])[0] == 0
        assert run(["solve", mechanism, "-i", str(inst), "-o", str(outcome)])[0] == 0
        code, text = run(
            ["verify", "-i", str(inst), "-a", str(outcome), "--mode", "mccwe"]
        )
        assert code == 0, (mechanism, text)


def test_solve_writes_the_recorded_outcome_and_trace_of_every_mechanism(tmp_path):
    # sha256 of the outcome bytes then the trace bytes, recorded when solve
    # still chose its mechanism by an if-chain
    superadditive = ["random_superadditive", "--m", "5", "--n", "3", "--seed", "4"]
    recorded = {
        "superadditive": (
            superadditive,
            "superadditive",
            "6cb7e69661d8f2b098c3a557c96df8c168fd18b7478e9ab7a15ba0861f356873",
        ),
        "singleminded": (
            ["random_single_minded", "--m", "5", "--n", "4", "--seed", "7"],
            "singleminded",
            "86a748abec9be5ef4f69606fc120dcf3290e42f96cbf6369f57d9877cff41f69",
        ),
        "uba": (
            ["fig1a", "--eps", "1/10"],
            "uniform_budget_additive",
            "8a4167e4dafb3104d4e0d8f9aa5c35bd412aec1749be66803bf0cb05a60974ac",
        ),
        "logbundle": (
            superadditive,
            "logbundle",
            "88b6c84c7a6d30d1b64e8cfaa07e56cebaa0ccebbd7c8b910e1e2bebdb2030e4",
        ),
        "cleanup": (
            ["fig1b"],
            "identical_budget_cleanup",
            "c3d16439e84e2ce60bca8dc5e39557d4684927dd87aaa63c89e1629a67659230",
        ),
        "fullsurplus": (
            superadditive,
            "fullsurplus",
            "0f2953774639d152ba4d26588e4d92473b46fb90e1c6ddf1e9997471135632e5",
        ),
    }
    assert list(recorded) == list(cli._MECHANISMS)
    for name, (market, label, digest) in recorded.items():
        inst, outcome, trace = (tmp_path / f"{name}.{part}.json" for part in "iot")
        assert run(["gen", *market, "-o", str(inst)])[0] == 0
        argv = ["solve", name, "-i", str(inst), "-o", str(outcome), "--trace", str(trace)]
        assert run(argv)[0] == 0
        assert json.loads(trace.read_text())["mechanism"] == label
        written = outcome.read_bytes() + trace.read_bytes()
        assert hashlib.sha256(written).hexdigest() == digest, name


def test_instance_file_with_a_non_ascii_digit_exits_2(tmp_path, capsys):
    inst = tmp_path / "fig1b.json"
    run(["gen", "fig1b", "-o", str(inst)])
    text = inst.read_text(encoding="utf-8")
    assert '"budget": "2"' in text
    inst.write_text(text.replace('"budget": "2"', '"budget": "\u0662"', 1), encoding="utf-8")
    assert run(["oracle", "-i", str(inst)])[0] == 2
    assert "error=ParseError agents[0]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gap", "-i", "{bad}"],
        ["oracle", "-i", "{bad}"],
        ["verify", "-i", "{good}", "-a", "{bad}", "--mode", "mccwe"],
        ["solve", "uba", "-i", "{good}", "--alloc", "{bad}", "-o", "{out}"],
    ],
)
def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, argv):
    files = {"bad": tmp_path / "bad.json", "good": tmp_path / "fig1b.json", "out": tmp_path / "o"}
    files["bad"].write_bytes(b"\xff\xfe{")
    run(["gen", "fig1b", "-o", str(files["good"])])
    capsys.readouterr()
    assert run([arg.format(**files) for arg in argv])[0] == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error=ParseError {files['bad']}: not UTF-8 text"), err


# Each value parses, being under the 4300 digits `int` converts, but the
# LCM of the two denominators has about 8000.
_LONG_VALUES = ["1/" + "9" * 4000 + "7", "1/" + "9" * 3999 + "1"]


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["oracle", "-i", "{long}"], "long"),
        (["gap", "-i", "{long}"], "long"),
        (["solve", "superadditive", "-i", "{long}", "-o", "{out}"], "long"),
        (["verify", "-i", "{unit}", "-a", "{outcome}", "--mode", "mccwe"], "outcome"),
        (["verify", "-i", "{long}", "-a", "{outcome}", "--mode", "mccwe"], "long"),
        (["gap", "-i", "{triangle}"], "triangle"),
    ],
)
def test_numbers_past_the_int_to_string_limit_exit_2_before_any_work(
    tmp_path, monkeypatch, capsys, argv, bad
):
    # The market's scale, or the LCM of the outcome's prices' denominators
    # with it, has more digits than str() prints: refused as the files load,
    # naming the market when it alone is past the limit.
    # On the triangle, three single-minded agents each wanting two of three
    # items at 1/q, q of 4300 digits, every welfare prints, but the
    # singleton LP's value is 3/(2q), whose denominator has 4301.
    names = ("long", "unit", "outcome", "triangle", "out")
    files = {name: tmp_path / f"{name}.json" for name in names}
    additive = [{"family": "additive", "item_values": _LONG_VALUES}]
    files["long"].write_text(json.dumps({"format": 1, "m": 2, "agents": additive}))
    units = [{"family": "additive", "item_values": ["1", "1"]}] * 2
    files["unit"].write_text(json.dumps({"format": 1, "m": 2, "agents": units}))
    outcome = {"allocation": {"x0": [], "x": [[0], [1]]}, "prices": {"agents": _LONG_VALUES}}
    files["outcome"].write_text(json.dumps({"format": 1, **outcome}))
    value = "1/" + "9" * 4299 + "7"
    pairs = ([0, 1], [0, 2], [1, 2])
    agents = [{"family": "single_minded", "desired": pair, "value": value} for pair in pairs]
    files["triangle"].write_text(json.dumps({"format": 1, "m": 3, "agents": agents}))

    def refused(*args):
        pytest.fail("work began")

    monkeypatch.setattr(cli.oracle, "optimal_integral", refused)
    monkeypatch.setattr(cli.mechanisms, "superadditive_mccwe", refused)
    monkeypatch.setattr(cli, "verify", refused)
    assert run([arg.format(**files) for arg in argv]) == (2, "")
    assert capsys.readouterr().err == (
        f"error=SizeLimit {files[bad]}: its numbers could print past the 4300-digit int-to-string limit\n"
    )
    assert not files["out"].exists()


def test_numbers_at_the_int_to_string_limit_print(tmp_path):
    # A total value of 4300 digits, and an outcome priced in a unit of 4300.
    big, small, outcome = tmp_path / "big.json", tmp_path / "small.json", tmp_path / "o.json"
    for path, value in ((big, "9" * 4300), (small, "1/" + "9" * 4300)):
        agents = [{"family": "additive", "item_values": [value]}]
        path.write_text(json.dumps({"format": 1, "m": 1, "agents": agents}))
    code, text = run(["gap", "-i", str(big)])
    assert code == 0 and f"integral={'9' * 4300}\n" in text
    assert run(["solve", "superadditive", "-i", str(small), "-o", str(outcome)])[0] == 0
    code, text = run(["verify", "-i", str(small), "-a", str(outcome), "--mode", "mccwe"])
    assert code == 0 and f"revenue=1/{'9' * 4300}\n" in text


def test_each_verb_checks_the_digits_once(tmp_path, monkeypatch):
    market, outcome = tmp_path / "market.json", tmp_path / "outcome.json"
    run(["gen", "bundling_necessity", "--m", "9", "-o", str(market)])
    run(["solve", "superadditive", "-i", str(market), "-o", str(outcome)])
    calls = []
    check = cli._digits_past_limit
    monkeypatch.setattr(
        cli, "_digits_past_limit", lambda *args: calls.append(args) or check(*args)
    )
    verbs = (
        ["solve", "singleminded", "-i", str(market), "-o", str(tmp_path / "again.json")],
        ["verify", "-i", str(market), "-a", str(outcome), "--mode", "mccwe"],
        ["oracle", "-i", str(market)],
        ["gap", "-i", str(market)],
    )
    for argv in verbs:
        calls.clear()
        assert run(argv)[0] == 0
        assert len(calls) == 1, argv


@pytest.mark.parametrize(
    "make, mechanism",
    [
        (lambda m: built_in("bundling_necessity", m=m), "singleminded"),
        (lambda m: Instance(m, (Additive((1,) * m),)), "logbundle"),
    ],
    ids=["bundling_necessity", "unit_additive"],
)
def test_a_market_of_thousands_of_unit_values_solves_and_verifies(tmp_path, make, mechanism):
    # Its numbers are small, however many items it has: only gap's LP value
    # takes a bound on a basis determinant, and that bound grows with m.
    market, outcome = tmp_path / "market.json", tmp_path / "outcome.json"
    market.write_text(write_instance(make(MAX_ITEMS)))
    code, text = run(["solve", mechanism, "-i", str(market), "-o", str(outcome)])
    assert code == 0 and f"welfare={MAX_ITEMS}\n" in text
    code, text = run(["verify", "-i", str(market), "-a", str(outcome), "--mode", "mccwe"])
    assert code == 0 and f"welfare={MAX_ITEMS}\n" in text


@pytest.mark.parametrize(
    "flags",
    ["fig1a --eps", "revenue_example --bigR", "partition_reduction --a"],
)
def test_an_empty_rational_flag_is_a_parse_error(tmp_path, capsys, flags):
    inst = tmp_path / "i.json"
    *gen, flag = flags.split()
    assert run(["gen", *gen, flag, "", "-o", str(inst)])[0] == 2 and not inst.exists()
    err = capsys.readouterr().err
    assert err == f"error=ParseError {flag}: expected a rational like '3' or '3/4', got ''\n"


def test_solve_builds_a_trace_only_when_asked(tmp_path, monkeypatch):
    inst = tmp_path / "appc.json"
    run(["gen", "bundling_necessity", "--m", "4", "-o", str(inst)])
    traces = []
    mechanism = cli.mechanisms.superadditive_mccwe

    def spy(instance, trace=None):
        traces.append(trace)
        return mechanism(instance, trace)

    monkeypatch.setattr(cli.mechanisms, "superadditive_mccwe", spy)
    outcome, trace = tmp_path / "o.json", tmp_path / "t.json"
    assert run(["solve", "superadditive", "-i", str(inst), "-o", str(outcome)])[0] == 0
    argv = ["solve", "superadditive", "-i", str(inst), "-o", str(outcome), "--trace", str(trace)]
    assert run(argv)[0] == 0
    assert traces[0] is None and traces[1].steps
    assert json.loads(trace.read_text())["mechanism"] == "superadditive"

def test_oracle_flags(tmp_path):
    inst = tmp_path / "appc.json"
    run(["gen", "bundling_necessity", "--m", "16", "-o", str(inst)])
    code, text = run(["oracle", "-i", str(inst), "--item-pricing"])
    assert code == 0
    assert "opt=16\n" in text
    assert "item_pricing=9\n" in text


def test_oracle_prints_nothing_when_a_requested_answer_fails(tmp_path):
    # Before, opt reached stdout ahead of best_mccwe's SizeLimit, and
    # opt=79/10 ahead of item pricing's NotSingleMinded.  fig1a with 50
    # agents who value nothing: the DP's 56^4 states fit the default
    # budget, its optimum is not supportable, and the walk's 56^4 do not fit.
    appc, fig1a = tmp_path / "appc.json", tmp_path / "fig1a.json"
    padded = tmp_path / "padded.json"
    run(["gen", "bundling_necessity", "--m", "16", "-o", str(appc)])
    run(["gen", "fig1a", "--eps", "1/10", "-o", str(fig1a)])
    market = built_in("fig1a")
    zeros = (Additive((0,) * market.m),) * 50
    padded.write_text(write_instance(Instance(market.m, market.agents + zeros)))
    assert run(["oracle", "-i", str(padded), "--best-mccwe"]) == (2, "")
    assert run(["oracle", "-i", str(fig1a), "--best-mccwe", "--item-pricing"]) == (2, "")
    assert run(["oracle", "-i", str(fig1a), "--best-mccwe"]) == (0, "opt=79/10\nbest_mccwe=7\n")
    argv = ["oracle", "-i", str(appc), "--item-pricing"]
    assert run(argv) == (0, "opt=16\nitem_pricing=9\n")


def test_parse_error_exit_code(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _ = run(["verify", "-i", str(broken), "-a", str(broken), "--mode", "we"])
    assert code == 2
    huge = tmp_path / "huge.json"
    agent = {"family": "additive", "item_values": ["9" * 5000]}
    huge.write_text(json.dumps({"format": 1, "m": 1, "agents": [agent]}))
    code, _ = run(["gap", "-i", str(huge)])
    assert code == 2


def test_certificate_error_exit_code(tmp_path, monkeypatch):
    inst = tmp_path / "fig1b.json"
    run(["gen", "fig1b", "-o", str(inst)])

    def failed_check(_instance, budget=None):
        raise CertificateError("reconstructed key differs from the DP maximum")

    monkeypatch.setattr("mccwe.oracle.optimal_integral", failed_check)
    code, _ = run(["oracle", "-i", str(inst)])
    assert code == 3


def test_best_mccwe_without_a_supported_candidate_exits_3(tmp_path, monkeypatch):
    inst = tmp_path / "fig1a.json"
    run(["gen", "fig1a", "-o", str(inst)])
    monkeypatch.setattr("mccwe.oracle._supported", lambda _instance, _x: None)
    assert run(["oracle", "-i", str(inst), "--best-mccwe"]) == (3, "")


def test_solve_uba_uses_bruteforce_optimum_by_default(tmp_path):
    inst = tmp_path / "fig1a.json"
    outcome = tmp_path / "uba.json"
    run(["gen", "fig1a", "--eps", "1/10", "-o", str(inst)])
    code, text = run(["solve", "uba", "-i", str(inst), "-o", str(outcome)])
    assert code == 0
    code, _ = run(["verify", "-i", str(inst), "-a", str(outcome), "--mode", "mccwe"])
    assert code == 0


def test_solve_cleanup_with_explicit_allocation(tmp_path):
    inst = tmp_path / "fig1b.json"
    alloc = tmp_path / "alloc.json"
    outcome = tmp_path / "out.json"
    run(["gen", "fig1b", "-o", str(inst)])
    alloc.write_text(
        json.dumps(
            {
                "format": 1,
                "allocation": {
                    "x0": [],
                    "x": [[0, 2], [1, 3], [4, 6], [5]],
                },
            }
        )
    )
    code, text = run(
        ["solve", "cleanup", "-i", str(inst), "--alloc", str(alloc), "-o", str(outcome)]
    )
    assert code == 0
    assert "welfare=7" in text
    code, _ = run(["verify", "-i", str(inst), "-a", str(outcome), "--mode", "mccwe"])
    assert code == 0


def test_solve_rejects_an_allocation_with_the_wrong_agent_count(tmp_path):
    alloc = tmp_path / "alloc.json"
    for market, mechanism, bundles in (
        ("fig1a", "uba", [[0, 1, 2, 3]]),
        ("fig1b", "uba", [[j] for j in range(7)]),
        ("fig1b", "cleanup", [[j] for j in range(7)]),
    ):
        inst = tmp_path / f"{market}.json"
        run(["gen", market, "-o", str(inst)])
        alloc.write_text(json.dumps({"format": 1, "allocation": {"x0": [], "x": bundles}}))
        argv = ["solve", mechanism, "-i", str(inst), "--alloc", str(alloc)]
        code, _ = run(argv + ["-o", str(tmp_path / "out.json")])
        assert code == 2, (market, mechanism)


def test_bench_runs_and_reports(tmp_path):
    code, text = run(
        [
            "bench",
            "--family",
            "random_single_minded",
            "--trials",
            "5",
            "--seed",
            "3",
            "--m",
            "4",
            "--n",
            "3",
        ]
    )
    assert code == 0
    assert "worst=" in text and "mean=" in text and "(~" in text


def test_bench_reports_the_recorded_ratios_on_every_family():
    # recorded when bench still chose its mechanism by an if-chain
    recorded = {
        "random_superadditive": ("14/13 (~1.076923)", "1829/1820 (~1.004945)"),
        "random_single_minded": ("11/10 (~1.100000)", "301/300 (~1.003333)"),
        "random_uniform_budget_additive": ("23/22 (~1.045455)", "661/660 (~1.001515)"),
    }
    for family, (worst, mean) in recorded.items():
        argv = ["bench", "--family", family, "--trials", "30", "--seed", "0"]
        code, text = run(argv + ["--m", "5", "--n", "3"])
        assert code == 0
        assert text == f"family={family}\ntrials=30\nworst={worst}\nmean={mean}\n"


def test_bench_rejects_zero_trials():
    argv = ["bench", "--family", "random_single_minded", "--m", "4", "--n", "3"]
    code, text = run(argv + ["--trials", "0"])
    assert code == 2 and text == ""


def test_byte_identical_reruns(tmp_path):
    inst = tmp_path / "i.json"
    out1 = tmp_path / "o1.json"
    out2 = tmp_path / "o2.json"
    run(["gen", "random_uniform_budget_additive", "--m", "4", "--n", "3", "--seed", "7", "-o", str(inst)])
    first = inst.read_bytes()
    run(["gen", "random_uniform_budget_additive", "--m", "4", "--n", "3", "--seed", "7", "-o", str(inst)])
    assert inst.read_bytes() == first

    _c, gap1 = run(["gap", "-i", str(inst)])
    _c, gap2 = run(["gap", "-i", str(inst)])
    assert gap1 == gap2

    run(["solve", "uba", "-i", str(inst), "-o", str(out1)])
    run(["solve", "uba", "-i", str(inst), "-o", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_partition_reduction_gen(tmp_path):
    inst = tmp_path / "pr.json"
    code, text = run(["gen", "partition_reduction", "--a", "1,1,2", "-o", str(inst)])
    assert code == 0
    code, text = run(["oracle", "-i", str(inst)])
    assert "opt=4" in text


def test_gen_rejects_markets_no_verb_reads(tmp_path):
    inst = tmp_path / "i.json"
    weights = ",".join(["1"] * 4097)
    code, _ = run(["gen", "partition_reduction", "--a", weights, "-o", str(inst)])
    assert code == 2 and not inst.exists()
    code, _ = run(["gen", "bundling_necessity", "--m", "-4", "-o", str(inst)])
    assert code == 2 and not inst.exists()


@pytest.mark.parametrize(
    "flags",
    [
        "fig1b --eps 1/2",
        "fig1a --bigR 5",
        "fig1a --m 9 --n 3 --seed 5",
        "fig1a --seed 0",
        "partition_reduction --a 1,1 --n 2",
        "random_superadditive --m 4 --n 2 --identical-budgets",
        "random_single_minded --m 4 --n 2 --eps 1/3",
        "random_single_minded --m 4 --n 2 --a 1,2",
        "random_single_minded --m 4",
    ],
)
def test_gen_rejects_a_flag_its_family_does_not_take(tmp_path, capsys, flags):
    inst = tmp_path / "i.json"
    code, _ = run(["gen", *flags.split(), "-o", str(inst)])
    assert code == 2 and not inst.exists()
    assert capsys.readouterr().err.startswith("error=BadParams ")


def test_gen_defaults_come_from_the_family_makers(tmp_path):
    inst, seeded = tmp_path / "i.json", tmp_path / "j.json"
    assert "m=16\n" in run(["gen", "bundling_necessity", "-o", str(inst)])[1]
    random_sm = ["gen", "random_single_minded", "--m", "5", "--n", "4"]
    assert run([*random_sm, "-o", str(inst)])[0] == 0
    assert run([*random_sm, "--seed", "0", "-o", str(seeded)])[0] == 0
    assert inst.read_text() == seeded.read_text()


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_gen_rejects_a_seed_outside_64_bits(tmp_path, capsys, seed):
    # Before, SplitMix64 masked the seed, so -1 and 2^64 - 1 wrote the
    # same market and both exited 0.
    inst = tmp_path / "i.json"
    gen = ["gen", "random_superadditive", "--m", "3", "--n", "2", "-o", str(inst), "--seed"]
    assert run([*gen, seed])[0] == 2 and not inst.exists()
    err = capsys.readouterr().err
    assert err == f"error=BadParams the seed must be in [0, 2^64), got {seed}\n"
    assert run([*gen, str((1 << 64) - 1)])[0] == 0


def test_bench_rejects_a_trial_seed_outside_64_bits(capsys):
    # The second trial's seed is 2^64.
    argv = ["bench", "--family", "random_single_minded", "--m", "3", "--n", "2", "--trials"]
    top = ["--seed", str((1 << 64) - 1)]
    assert run([*argv, "2", *top]) == (2, "")
    assert capsys.readouterr().err.endswith(f"got {1 << 64}\n")
    assert run([*argv, "1", *top])[0] == 0
    assert run([*argv, "1", "--seed", "-1"]) == (2, "")


def test_deeply_nested_instance_exits_2(tmp_path):
    inst = tmp_path / "deep.json"
    inst.write_text("[" * 100_000 + "]" * 100_000)
    code, _ = run(["gap", "-i", str(inst)])
    assert code == 2


def test_one_parser_serves_every_call(tmp_path, capsys):
    inst = tmp_path / "i.json"
    calls = (
        ["gen", "fig1a", "--eps", "1/10", "-o", str(inst)],
        ["solve", "no_such_mechanism", "-i", str(inst)],
        ["gap", "-i", str(inst)],
        ["gen"],
        ["oracle", "-i", str(inst), "--best-mccwe"],
    )

    def answer(argv):
        try:
            code, text = run(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code, text = exc.code, ""
        return code, text, capsys.readouterr().err

    reused = [answer(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(answer(argv))
    assert reused == fresh
    assert [code for code, _text, _err in reused] == [0, 2, 0, 2, 0]
    assert cli._build_parser() is cli._build_parser()

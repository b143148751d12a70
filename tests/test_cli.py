"""Command line surface: reports, scenario files, exit codes, output files."""
import dataclasses
import hashlib
import os
import random
import shlex
from fractions import Fraction

import pytest

from robustgames import mechanisms, singleitem, vcg, verification
from robustgames.cli import MAX_DECIMAL_PLACES, _decimal_suffix, build_parser, main
from robustgames.core import AgentGame, format_game, parse_game
from robustgames.instances import curated_game


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme_examples():
    """Each README `$ robustgames ...` line with the output lines shown under it."""
    examples = []
    with open(README, encoding="utf-8") as handle:
        for line in handle.read().splitlines():
            if line.startswith("$ robustgames "):
                examples.append((shlex.split(line)[2:], []))
            elif line.startswith("```") or line.startswith("$ "):
                examples.append(None)
            elif examples and examples[-1] is not None:
                examples[-1][1].append(line)
    return [e for e in examples if e is not None]


def test_readme_examples_run(capsys):
    examples = [
        (args, shown)
        for args, shown in _readme_examples()
        if "--scenario" not in args and "--game" not in args
    ]
    assert len(examples) >= 8
    for args, shown in examples:
        code, out, err = run(capsys, *args)
        assert code == 0, (args, err)
        head, _, tail = "\n".join(shown).partition("...")
        lines = out.splitlines()
        head = head.splitlines()
        assert lines[: len(head)] == head, args
        rest = iter(lines[len(head):])
        for want in tail.splitlines()[1:]:
            assert want in rest, (args, want)


def test_analyze_curated_lemma_game(capsys):
    code, out, _ = run(
        capsys,
        "analyze",
        "--curated",
        "leximin-proof-game",
        "--concepts",
        "loss-averse,multi-leximin",
    )
    assert code == 0
    assert "concept loss-averse\nactions a b\n" in out
    assert "concept multi-leximin\nactions b\n" in out
    assert "agentgame v1" in out


def test_analyze_formats(capsys):
    code, out, _ = run(capsys, "analyze", "--curated", "aim-big", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "concept,actions"
    assert "loss-averse,S" in out
    code, out, _ = run(capsys, "analyze", "--curated", "aim-big", "--format", "table")
    assert code == 0
    assert out.splitlines()[0].startswith("concept")


def test_analyze_game_file_round_trip(tmp_path, capsys):
    game = curated_game("dominant-leximin")
    path = tmp_path / "g.game"
    path.write_text(format_game(game))
    code, out, _ = run(capsys, "analyze", "--game", str(path), "--concepts", "weakly-dominant")
    assert code == 0
    assert "concept weakly-dominant\nactions a\n" in out


def test_analyze_rejects_auction_instances_and_unknown_concepts(capsys):
    code, _, err = run(capsys, "analyze", "--curated", "example-e1")
    assert code == 3 and "vcg run" in err
    code, _, err = run(capsys, "analyze", "--curated", "aim-big", "--concepts", "nope")
    assert code == 3 and "unknown concept" in err
    code, _, err = run(capsys, "analyze")
    assert code == 2


def test_a_repeated_concept_is_a_validation_error(tmp_path, capsys):
    """A concept listed twice, by the flag or by a scenario's ``concepts:``
    line, exits 3 and names the repeat instead of printing its block twice."""
    scenario = tmp_path / "twice.scn"
    scenario.write_text(
        "scenario v1\nkind: curated\nname: aim-big\nconcepts: leximin, loss-averse,leximin\n"
    )
    for args, repeated in (
        (("analyze", "--curated", "aim-big", "--concepts", "loss-averse,loss-averse"), "loss-averse"),
        (("analyze", "--scenario", str(scenario)), "leximin"),
        (("export", "--scenario", str(scenario)), "leximin"),
    ):
        code, out, err = run(capsys, *args)
        assert (code, out) == (3, ""), args
        assert err == f"error: concept {repeated!r} is listed twice\n", args


def test_dfpa_report_contract_values(capsys):
    code, out, _ = run(capsys, "auction", "dfpa", "--value", "1", "--epsilon", "3/10")
    assert code == 0
    assert "loss-averse-bid 9/10" in out
    assert "min-max-regret-bids 3/10" in out
    assert "leximin-bids 0" in out
    assert "engine-loss-averse 9/10" in out


def test_dfpa_decimal_column_is_display_only(capsys):
    code, out, _ = run(
        capsys, "auction", "dfpa", "--value", "1", "--epsilon", "3/10", "--decimal", "2"
    )
    assert code == 0
    assert "loss-averse-bid 9/10 (approx 0.90, display only)" in out


def test_decimal_rounds_the_exact_value_half_to_even():
    # 1789/200 = 8.945 exactly; the nearest float is above it and prints 8.95.
    assert _decimal_suffix(Fraction(1789, 200), 2) == " (approx 8.94, display only)"
    assert _decimal_suffix(Fraction(1791, 200), 2) == " (approx 8.96, display only)"
    assert _decimal_suffix(Fraction(5, 2), 0) == " (approx 2, display only)"
    assert _decimal_suffix(Fraction(1, 3), 4) == " (approx 0.3333, display only)"
    # A negative value that rounds to zero keeps its sign.
    assert _decimal_suffix(Fraction(-1, 1000), 2) == " (approx -0.00, display only)"
    assert _decimal_suffix(Fraction(-2, 5), 0) == " (approx -0, display only)"
    assert _decimal_suffix(Fraction(-7, 4), 1) == " (approx -1.8, display only)"


def test_decimal_prints_values_past_a_float_and_up_to_its_bound(capsys):
    big = "1" + "0" * 400
    code, out, _ = run(capsys, "auction", "dfpa", "--value", big, "--epsilon", big, "--decimal", "2")
    assert code == 0
    assert f"leximin-bids {big} (approx {big}.00, display only)" in out
    code, out, _ = run(
        capsys, "auction", "dfpa", "--value", "1", "--epsilon", "1/3",
        "--decimal", str(MAX_DECIMAL_PLACES),
    )
    assert code == 0
    assert f"loss-averse-bid 2/3 (approx 0.{'6' * 99}7, display only)" in out


def test_analyze_decimal_acts_on_vcg_attack_scenarios_only(tmp_path, capsys):
    # On a vcg-attack scenario the payment and welfare lines carry the
    # decimal suffix; on a game the flag changes no byte of the report.
    path = str(tmp_path / "attack.scn")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            "scenario v1\nkind: vcg-attack\nitems: 2\nepsilon: 1\n"
            "valuation: 0 1 1 2\nbid: 0 5/4 0 2\nnature: 0 1 1 1\n"
        )
    code, plain, _ = run(capsys, "analyze", "--scenario", path)
    code_decimal, out, _ = run(capsys, "analyze", "--scenario", path, "--decimal", "3")
    assert (code, code_decimal) == (0, 0)
    assert "allocation B b payment 3/4 (approx 0.750, display only)" in out
    assert "observed-welfare 9/4 (approx 2.250, display only)" in out
    assert "real-welfare 2 (approx 2.000, display only)" in out
    suffixed = [line for line in out.splitlines() if "(approx " in line]
    assert len(suffixed) == 6
    assert [line.split(" (approx ")[0] for line in out.splitlines()] == plain.splitlines()
    code, game, _ = run(capsys, "analyze", "--curated", "aim-big", "--decimal", "3")
    assert code == 0
    digest = hashlib.sha256(game.encode()).hexdigest()
    assert digest.startswith("273769c1") and digest.endswith("821e")
    assert run(capsys, "analyze", "--curated", "aim-big")[1] == game


def test_allpay_and_witness_reports(capsys):
    code, out, _ = run(
        capsys, "auction", "allpay", "--value", "1", "--epsilon", "1/4", "--cap", "2"
    )
    assert code == 0 and "loss-averse-bid 0" in out
    code, out, _ = run(capsys, "auction", "fpa-witness", "--value", "1", "--bid", "1/2")
    assert code == 0 and "verified strict" in out
    code, _, _ = run(capsys, "auction", "dfpa", "--value", "1")
    assert code == 2


def test_a_flag_value_with_a_trailing_newline_is_a_parse_error(capsys):
    code, out, err = run(capsys, "auction", "dfpa", "--value", "1\n", "--epsilon", "1/2")
    assert (code, out) == (2, "")
    assert "not a rational literal" in err


def test_vcg_run_contract_allocation(capsys):
    code, out, _ = run(capsys, "vcg", "run", "--curated", "example-e1", "--payment-rule", "clarke")
    assert code == 0
    assert "allocation A1 a,b payment 18" in out
    assert "allocation A2 c,d payment 18" in out
    assert "real-welfare 3/5" in out  # 6 grid steps at the default 1/10
    assert "source-discrepancy" in out
    code, out, _ = run(capsys, "vcg", "run", "--curated", "example-e1", "--payment-rule", "paper")
    assert "payment 20" in out


def test_vcg_run_singleton_split(capsys):
    code, out, _ = run(capsys, "vcg", "run", "--curated", "example-e2")
    assert code == 0
    assert "classification underbidding" in out
    assert "attack-utility 1/5" in out
    assert "truth-utility 1/10" in out


def _write_scenario(tmp_path, text):
    path = tmp_path / "case.scn"
    path.write_text(text)
    return str(path)


def test_vcg_scenario_classify_and_adversary(tmp_path, capsys):
    path = _write_scenario(
        tmp_path,
        "scenario v1\nkind: vcg-attack\nitems: 2\nepsilon: 1\n"
        "valuation: 0 0 1 0\nbid: 0 0 1 1\n",
    )
    code, out, _ = run(capsys, "vcg", "classify", "--scenario", path)
    assert code == 0
    assert "classification overbidding" in out
    assert "classification-witness a,b" in out
    code, out, _ = run(capsys, "vcg", "adversary", "--scenario", path)
    assert code == 0
    assert "adversary-refuted yes" in out
    assert "attack-utility -1/2" in out
    shadowed = _write_scenario(
        tmp_path,
        "scenario v1\nkind: vcg-attack\nitems: 2\nepsilon: 1\n"
        "valuation: 0 0 2 0\nbid: 0 0 2 1\n",
    )
    code, out, _ = run(capsys, "vcg", "adversary", "--scenario", shadowed)
    assert code == 0
    assert "adversary-refuted no" in out
    assert "outcome-equivalent" in out


def test_vcg_scenario_run_with_nature(tmp_path, capsys):
    path = _write_scenario(
        tmp_path,
        "scenario v1\nkind: vcg-attack\nitems: 2\nepsilon: 1\n"
        "valuation: 0 1 1 2\nbid: 0 1 0 1\nbid: 0 0 1 1\nnature: 0 0 0 1\n",
    )
    code, out, _ = run(capsys, "vcg", "run", "--scenario", path)
    assert code == 0
    assert "classification exact-bidding" in out
    assert "allocation A1 a" in out
    assert "allocation A2 b" in out
    assert "agent-utility A 2" in out


def test_scenario_dispatch_and_error_codes(tmp_path, capsys):
    dfpa = _write_scenario(
        tmp_path, "scenario v1\nkind: dfpa\nvalue: 1\nepsilon: 3/10\nformat: csv\n"
    )
    code, out, _ = run(capsys, "analyze", "--scenario", dfpa)
    assert code == 0 and "loss-averse,9/10" in out
    bad_field = _write_scenario(tmp_path, "scenario v1\nkind: dfpa\nvalue: 1\nepsilon: 1\nx: 2\n")
    assert run(capsys, "analyze", "--scenario", bad_field)[0] == 3
    missing = _write_scenario(tmp_path, "scenario v1\nkind: dfpa\nvalue: 1\n")
    assert run(capsys, "analyze", "--scenario", missing)[0] == 2
    bad_kind = _write_scenario(tmp_path, "scenario v1\nkind: wat\nvalue: 1\n")
    assert run(capsys, "analyze", "--scenario", bad_kind)[0] == 3
    no_header = _write_scenario(tmp_path, "kind: dfpa\n")
    assert run(capsys, "analyze", "--scenario", no_header)[0] == 2
    assert run(capsys, "analyze", "--scenario", str(tmp_path / "absent.scn"))[0] == 2
    wrong_command = _write_scenario(tmp_path, "scenario v1\nkind: dfpa\nvalue: 1\nepsilon: 1\n")
    assert run(capsys, "vcg", "run", "--scenario", wrong_command)[0] == 3


_NOT_UTF8 = b"scenario v1\nkind: curated\nname: \xff\xfe\n"


def _case(name, scenario, *args, code):
    return pytest.param(scenario, args, code, id=name)


@pytest.mark.parametrize(
    "scenario, args, expected",
    [
        _case("game-file-is-a-directory", None, "analyze", "--game", "{tmp}", code=2),
        _case("scenario-not-utf8", _NOT_UTF8, "analyze", "--scenario", "{scn}", code=2),
        _case("game-file-not-utf8", _NOT_UTF8, "analyze", "--game", "{scn}", code=2),
        _case(
            "raw-game-file-not-utf8",
            "kind: raw-game\ngame-file: bad.game\n",
            "analyze", "--scenario", "{scn}",
            code=2,
        ),
        _case(
            "scenario-agents-not-an-integer",
            "kind: facility\nagents: two\ntype: 1/2\n",
            "analyze", "--scenario", "{scn}",
            code=2,
        ),
        _case(
            "scenario-zero-agents",
            "kind: facility\nagents: 0\ntype: 1/2\n",
            "export", "--scenario", "{scn}",
            code=3,
        ),
        _case(
            "scenario-items-not-an-integer",
            "kind: vcg-attack\nitems: x\nvaluation: 0 1\nbid: 0 1\n",
            "vcg", "run", "--scenario", "{scn}",
            code=2,
        ),
        _case(
            "scenario-negative-items",
            "kind: vcg-attack\nitems: -1\nvaluation: 0 1\nbid: 0 1\n",
            "vcg", "classify", "--scenario", "{scn}",
            code=4,
        ),
        _case(
            "scenario-tally-cap-not-an-integer",
            "kind: voting\nrule: plurality\nutilities: 1 0\ntally-cap: many\n",
            "analyze", "--scenario", "{scn}",
            code=2,
        ),
        _case(
            "literal-beyond-int-digit-limit",
            None,
            "auction", "dfpa", "--value", "1" + "0" * 5000, "--epsilon", "1/2",
            code=2,
        ),
        _case("flag-zero-agents", None, "facility", "--agents", "0", "--type", "1/2", code=3),
        _case("flag-zero-dfpa-step", None, "auction", "dfpa", "--value", "1", "--epsilon", "0", code=3),
        _case(
            "scenario-zero-dfpa-step",
            "kind: dfpa\nvalue: 1\nepsilon: 0\n",
            "analyze", "--scenario", "{scn}",
            code=3,
        ),
        # Both adversaries derive the bid grid from the scenario step.
        _case(
            "scenario-zero-adversary-step",
            "kind: vcg-attack\nitems: 2\nepsilon: 0\nvaluation: 0 0 1 0\nbid: 0 0 1 1\n",
            "vcg", "adversary", "--scenario", "{scn}",
            code=3,
        ),
        _case(
            "scenario-negative-adversary-step",
            "kind: vcg-attack\nitems: 2\nepsilon: -1\nvaluation: 0 1 1 2\nbid: 0 0 1 1\n",
            "vcg", "adversary", "--scenario", "{scn}",
            code=3,
        ),
        # Every vcg-attack command refuses the step, whatever the attack.
        *[
            _case(
                f"scenario-{name}-step-on-exact-{command}",
                f"kind: vcg-attack\nitems: 2\nepsilon: {step}\nvaluation: 0 1 1 2\nbid: 0 1 1 2\n",
                "vcg", command, "--scenario", "{scn}",
                code=3,
            )
            for name, step in (("zero", "0"), ("negative", "-1"))
            for command in ("run", "classify", "adversary")
        ],
        # Every command that reads a scenario refuses a bad common field.
        *[
            _case(
                f"scenario-unknown-{field}-on-{kind}-{'-'.join(args)}",
                f"{body}{field}: {value}\n",
                *args, "--scenario", "{scn}",
                code=3,
            )
            for field, value in (("concepts", "no-such-concept"), ("format", "nonsense"))
            for kind, body, commands in (
                (
                    "vcg-attack",
                    "kind: vcg-attack\nitems: 2\nvaluation: 0 1 1 2\nbid: 0 1 1 2\n",
                    (("vcg", "run"), ("vcg", "classify"), ("vcg", "adversary"), ("analyze",)),
                ),
                (
                    "curated",
                    "kind: curated\nname: minmaxreg-safety\n",
                    (("export",), ("analyze",)),
                ),
            )
            for args in commands
        ],
        # Grids above the cell budget are refused before they are built.
        _case(
            "dfpa-grid-above-the-cell-budget", None,
            "auction", "dfpa", "--value", "100000", "--epsilon", "1/1000",
            code=4,
        ),
        _case(
            "allpay-grid-above-the-cell-budget", None,
            "auction", "allpay", "--value", "1000", "--epsilon", "1/1000", "--cap", "2000",
            code=4,
        ),
        _case(
            "facility-grid-above-the-cell-budget", None,
            "facility", "--agents", "3", "--type", "1/2", "--grid-step", "1/100000000",
            code=4,
        ),
        # Grid points are counted as integers, past what range() can hold.
        _case(
            "dfpa-grid-past-2-to-the-63-points", None,
            "auction", "dfpa", "--value", "1", "--epsilon", "1/1000000000000000000000",
            code=4,
        ),
        _case(
            "scenario-dfpa-grid-past-2-to-the-63-points",
            "kind: dfpa\nvalue: 1\nepsilon: 1/1000000000000000000000\n",
            "analyze", "--scenario", "{scn}",
            code=4,
        ),
        _case(
            "grid-counts-with-more-digits-than-str-converts", None,
            "auction", "dfpa", "--value", "1" + "0" * 4000, "--epsilon", "1/1" + "0" * 4000,
            code=4,
        ),
        # The voting builders count ballots and tallies before building them.
        _case(
            "voting-tallies-above-the-cell-budget", None,
            "voting", "--rule", "plurality", "--utilities", "1,0", "--tally-cap", "1000000",
            code=4,
        ),
        _case(
            "approval-ballots-above-the-cell-budget", None,
            "voting", "--rule", "approval",
            "--utilities", ",".join(["1", *(f"{k}/30" for k in range(28, 0, -1)), "0"]),
            code=4,
        ),
        _case(
            "decimal-places-past-the-bound", None,
            "auction", "dfpa", "--value", "1", "--epsilon", "1/2", "--decimal", "101",
            code=2,
        ),
        _case(
            "decimal-places-past-the-float-precision-limit", None,
            "auction", "dfpa", "--value", "1", "--epsilon", "1/2", "--decimal", "99999999999",
            code=2,
        ),
        _case("flag-agents-not-an-integer", None, "facility", "--agents", "two", "--type", "1/2", code=2),
        _case(
            "flag-tally-cap-not-an-integer", None,
            "voting", "--rule", "plurality", "--utilities", "1,0", "--tally-cap", "1.5",
            code=2,
        ),
        _case("flag-missing-voting-rule", None, "voting", "--utilities", "1,0", code=2),
        # A game document is refused on its header, before any row is read.
        _case(
            "game-document-above-the-cell-budget",
            (
                "agentgame v1\ntype big\n"
                + "actions " + " ".join(f"a{i}" for i in range(1001)) + "\n"
                + "states " + " ".join(f"s{j}" for j in range(1000)) + "\n"
                + "utilities\nend\n"
            ).encode(),
            "analyze", "--game", "{scn}",
            code=4,
        ),
        _case(
            "negative-decimal", None,
            "auction", "dfpa", "--value", "1", "--epsilon", "1/2", "--decimal", "-1",
            code=2,
        ),
        # Usage errors: neither command prints a value a decimal could follow.
        _case("decimal-on-verify-all", None, "verify-all", "--decimal", "3", code=2),
        _case("decimal-on-export", None, "export", "--curated", "aim-big", "--decimal", "2", code=2),
    ],
)
def test_input_errors_exit_with_their_code(tmp_path, capsys, scenario, args, expected):
    (tmp_path / "bad.game").write_bytes(b"agentgame v1\ntype \xff\n")
    path = tmp_path / "case.scn"
    if isinstance(scenario, str):
        path.write_text("scenario v1\n" + scenario)
    elif scenario is not None:
        path.write_bytes(scenario)
    code, out, err = run(capsys, *(a.format(tmp=tmp_path, scn=path) for a in args))
    assert (code, out) == (expected, "")
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "before, after",
    [
        pytest.param(
            ("analyze", "--curated", "aim-big", "--format", "csv"),
            ("analyze", "--curated", "aim-big"),
            id="csv-then-structured",
        ),
        pytest.param(
            ("vcg", "run", "--curated", "example-e1", "--seed", "5"),
            ("vcg", "run", "--curated", "example-e1"),
            id="seed-then-default-seed",
        ),
        pytest.param(
            ("analyze", "--no-such-flag"),
            ("export", "--curated", "aim-big"),
            id="usage-error-then-valid",
        ),
    ],
)
def test_the_reused_parser_leaks_nothing_between_calls(capsys, before, after):
    """``main`` reuses one parser per process: a call after another prints
    the same stdout and exit code as the same call made first."""
    build_parser.cache_clear()
    first = run(capsys, *after)
    build_parser.cache_clear()
    for args in (before, after, before, after):
        code, out, _ = run(capsys, *args)
    assert (code, out) == first[:2]
    assert build_parser() is build_parser()
    assert build_parser().parse_args(["vcg", "run"]).seed == 0
    assert build_parser().parse_args(["analyze"]).format == "structured"


def test_scenario_curated_and_voting_kinds(tmp_path, capsys):
    curated = _write_scenario(
        tmp_path, "scenario v1\nkind: curated\nname: minmaxreg-safety\nconcepts: min-max-regret\n"
    )
    code, out, _ = run(capsys, "analyze", "--scenario", curated)
    assert code == 0 and "concept min-max-regret\nactions b\n" in out
    voting = _write_scenario(
        tmp_path, "scenario v1\nkind: voting\nrule: plurality\nutilities: 1 1/2 0\n"
    )
    code, out, _ = run(capsys, "analyze", "--scenario", voting, "--concepts", "loss-averse")
    assert code == 0 and "concept loss-averse\nactions 1,0,0 0,1,0\n" in out


def test_facility_and_voting_reports(capsys):
    code, out, _ = run(capsys, "facility", "--agents", "3", "--type", "1/2")
    assert code == 0
    assert "closed-form-report 1/2" in out
    assert "worst-case-welfare-loss 1" in out
    code, out, _ = run(capsys, "voting", "--rule", "plurality", "--utilities", "1,1/2,0")
    assert code == 0
    assert "mixed-loss-averse 0,1,0:2/3 1,0,0:1/3" in out
    assert "pivotal-expected-utility 1/3" in out
    assert "min-max-regret-ballot 1,0,0" in out
    code, out, _ = run(capsys, "voting", "--rule", "approval", "--utilities", "1,9/10,1/10,0")
    assert code == 0
    assert "min-max-regret-top-k 2" in out


def test_export_round_trips_bit_exactly(capsys):
    for name in ("aim-big", "leximin-proof-game"):
        code, out, _ = run(capsys, "export", "--curated", name)
        assert code == 0
        assert out == format_game(curated_game(name))
        assert parse_game(out) == curated_game(name)


def test_out_file_and_directory_variable(tmp_path, capsys, monkeypatch):
    target = tmp_path / "direct.game"
    code, out, _ = run(capsys, "export", "--curated", "aim-big", "--out", str(target))
    assert code == 0
    assert parse_game(target.read_text()) == curated_game("aim-big")
    monkeypatch.setenv("ROBUSTGAMES_OUT_DIR", str(tmp_path))
    code, out, _ = run(capsys, "export", "--curated", "aim-big", "--out", "nested/x.game")
    assert code == 0
    assert (tmp_path / "nested" / "x.game").exists()
    assert "wrote" in out


def test_byte_stable_reports(capsys):
    first = run(capsys, "vcg", "run", "--curated", "example-e1")[1]
    second = run(capsys, "vcg", "run", "--curated", "example-e1")[1]
    assert first == second
    first = run(capsys, "analyze", "--curated", "safety-wrong-monotone")[1]
    second = run(capsys, "analyze", "--curated", "safety-wrong-monotone")[1]
    assert first == second


def _golden_games():
    """One game per denominator regime: a shared denominator with values
    off the grid, mixed denominators, and large integers."""
    value, epsilon = 1 + Fraction(1, 3) * Fraction(1, 19), Fraction(1, 19)
    dfpa = singleitem.dfpa_game(singleitem.default_dfpa_spec(value, epsilon))
    facility = mechanisms.facility_game(
        mechanisms.FacilitySpec(3, Fraction(5, 12), Fraction(1, 24))
    )
    rng = random.Random(4)
    rows = tuple(
        tuple(Fraction(rng.randint(-10**6, 10**6)) for _ in range(12)) for _ in range(12)
    )
    table = AgentGame(
        "random", tuple(f"a{i}" for i in range(12)), tuple(f"s{j}" for j in range(12)), rows
    )
    return {"dfpa": dfpa, "facility": facility, "random": table}


# sha256 of `analyze --game FILE --format FORMAT` stdout, recorded before the
# concept layer moved to integer-scaled rows.
_GOLDEN_ANALYZE = {
    ("dfpa", "structured"):
        "dc0c55a9d74b40a5dfb8e56528b0fc5695c9c6deabf50b2bb7d036abb9b00e60",
    ("dfpa", "csv"):
        "54ed38343ac53e9aacddbe5c7d8c1cb2f8a6b8146752f50d072dc37732c009e6",
    ("dfpa", "table"):
        "788540710e9b5290325afdc721639876bab478ed7428f7bbf3e29d7068c7edfa",
    ("facility", "structured"):
        "1090affefc67cb1152a31ecc4a5e8099563652103d094d9d121d9400d3f8bc9d",
    ("facility", "csv"):
        "7101ac6908910ce4519fedf3edfd481f3fb6cdad52961ab332929ab4da78871f",
    ("facility", "table"):
        "6048b6a5616f31d21753250fb9a55513a28a8f0152bad4b7baddc3587a50ffbf",
    ("random", "structured"):
        "39eb064939eb713b1f1427228e90c0978a4648b3abd9ad2d4021e40f35b3d6a9",
    ("random", "csv"):
        "65bc8c6034b086779b21982aea9c62d1621593899ec31cb5b9f3150a1b93ffe2",
    ("random", "table"):
        "42e07c2a6a22fc201314286dafdf538b27031e9bcbce3199bcde93d810994a6b",
}


def test_analyze_reports_match_their_recorded_digests(tmp_path, capsys):
    games = _golden_games()
    assert len(games["dfpa"].actions) == 20
    for (name, fmt), expected in _GOLDEN_ANALYZE.items():
        path = tmp_path / f"{name}.game"
        path.write_text(format_game(games[name]))
        code, out, _ = run(capsys, "analyze", "--game", str(path), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected, (name, fmt)


def test_analyze_on_the_201_bid_auction_matches_its_recorded_digest(tmp_path, capsys):
    """The 201 x 204 auction at value 1 and step 1/200, where leximin and
    loss aversion* take their first rivals from order keys and loss
    aversion's relation rather than from pair scans."""
    game = singleitem.dfpa_game(singleitem.default_dfpa_spec(Fraction(1), Fraction(1, 200)))
    assert (len(game.actions), len(game.states)) == (201, 204)
    path = tmp_path / "dfpa-201.game"
    path.write_text(format_game(game))
    code, out, _ = run(capsys, "analyze", "--game", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a9b31c87431ced9586a22cf09a1c0a6c63417f90969a3a28bcbf12b2097e34ef"
    )


def test_analyze_on_the_501_bid_auction_matches_its_recorded_digest(tmp_path, capsys):
    """The 501 x 504 auction at value 1 and step 1/500, where loss
    aversion and strict dominance test only the rivals with a larger key;
    the digest was recorded while both still tested every rival."""
    game = singleitem.dfpa_game(singleitem.default_dfpa_spec(Fraction(1), Fraction(1, 500)))
    assert (len(game.actions), len(game.states)) == (501, 504)
    path = tmp_path / "dfpa-501.game"
    path.write_text(format_game(game))
    code, out, _ = run(capsys, "analyze", "--game", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "de85e6994f1acc3e4a19f9a7e103097dc4e814ea445cfa97c67fd61cd5c0eb51"
    )


def test_approval_over_the_budget_is_refused_before_the_frontier(capsys, monkeypatch):
    """Approval over 11 candidates at tally cap 0: the report's own cap-2
    game is over the cell budget, so the run exits 4 without the frontier's
    loop over all 2,048 x 2,048 ballot pairs."""
    utilities = ",".join(["1", *(f"{k}/11" for k in range(9, 0, -1)), "0"])
    args = ("voting", "--rule", "approval", "--utilities", utilities, "--tally-cap", "0")

    def frontier(spec):
        raise AssertionError("the frontier ran")

    for patched in (False, True):
        if patched:
            monkeypatch.setattr(mechanisms, "voting_pareto_frontier_loss_averse", frontier)
        with pytest.warns(UserWarning, match="below the top ballot score"):
            code, out, err = run(capsys, *args)
        assert (code, out) == (4, "")
        assert err == "error: psr game of 2048 x 177147 cells exceeds the budget of 1000000\n"


def _tie_heavy_table():
    """Eight actions over three values: two copied rows, two constant ones."""
    half = Fraction(1, 2)
    rows = [
        (0, 1, 1, 0, half, 1, 0, 1, half),
        (0, 1, 1, 0, half, 1, 0, 1, half),
        (half,) * 9,
        (1, 1, 0, 1, 1, half, 1, 1, 0),
        (0,) * 9,
        (half, 1, half, 1, half, 1, half, 1, half),
        (1, 1, 0, 1, 1, half, 1, 1, 0),
        (1,) * 9,
    ]
    return AgentGame(
        "ties",
        tuple(f"a{i}" for i in range(len(rows))),
        tuple(f"s{j}" for j in range(9)),
        tuple(tuple(map(Fraction, row)) for row in rows),
    )


def test_loss_aversion_and_its_star_report_alike_in_either_order(tmp_path, capsys):
    """Asked for together, in either order, LA and LA* print the blocks
    their single-concept runs print."""
    pair = ("loss-averse-star", "loss-averse")
    games = {"dfpa": _golden_games()["dfpa"], "ties": _tie_heavy_table()}
    sources = [("--curated", "aim-big")]
    for name, game in games.items():
        path = tmp_path / f"{name}.game"
        path.write_text(format_game(game))
        sources.append(("--game", str(path)))
    for source in sources:
        blocks = {}
        for concept in pair:
            code, out, _ = run(capsys, "analyze", *source, "--concepts", concept)
            assert code == 0
            blocks[concept], _, game_text = out.partition("\nagentgame v1\n")
        for first, second in (pair, pair[::-1]):
            code, out, _ = run(capsys, "analyze", *source, "--concepts", f"{first},{second}")
            assert code == 0
            assert out == blocks[first] + blocks[second] + "\nagentgame v1\n" + game_text, source


# One vcg-attack scenario per adversary branch: (valuation, bids, nature,
# epsilon).  The underbid is the three-item singleton split at 1/10; the
# attack that overbids every bundle pins the ascending order of the bundles
# the adversary tries.
_VCG_SCENARIOS = {
    "overbid-additive": ("0 1 1 2", ("0 2 0 2",), "0 1 1 2", "1"),
    "overbid-bundle": ("0 0 1 0", ("0 0 1 1",), "0 1 1 2", "1"),
    "overbid-shadowed": ("0 0 2 0", ("0 0 2 1",), None, "1"),
    "overbid-every-bundle": ("0 1 1 1", ("0 2 2 2",), "0 1 1 2", "1"),
    "underbid-refuted": (
        "0 1 1 2 1 11/10 11/10 21/10",
        ("0 1 0 1 0 1 0 1", "0 0 1 1 0 0 1 1", "0 0 0 0 1/10 1/10 1/10 1/10"),
        "0 0 0 19/10 1000 1000 1000 10019/10",
        "1/10",
    ),
    "underbid-shadowed": ("0 0 1 1", ("0 0 1 0",), "0 1 0 1", "1"),
    "exact-case-1": ("0 1 1 2", ("0 1 0 1", "0 0 1 1"), "0 0 0 1", "1"),
}

# sha256 of the stdout of `vcg ACTION --scenario FILE` per scenario above,
# and of `voting` reports, recorded before the bundle-table and adversary
# types were merged.
_GOLDEN_VCG = {
    ("overbid-additive", "classify"):
        "309f994583d5677829d7668316888349fc79b063eab273bfbbd3d4208ed8a527",
    ("overbid-additive", "adversary"):
        "3cae359a217cdae20e338bf8ff227070f15225d75096b6f1af8bd2caedc6605c",
    ("overbid-additive", "run"):
        "e08e0c5a17401ef4917fbc64a41f7a30f4a87c177f3599dbd7f1a0adac36bfa1",
    ("overbid-bundle", "classify"):
        "817d75855222f513db910c34db7633e9d2091120a5f29143978e544240959a5b",
    ("overbid-bundle", "adversary"):
        "e04786e2009750ecc1fc7582db912bd3869db5db1c22c1748f947b2448449dda",
    ("overbid-bundle", "run"):
        "e42052bb38c0ff3d448ca8d3845c48e818a684e61cf79b6e95ca44245cc7cfd9",
    ("overbid-shadowed", "classify"):
        "e08b7a0915eeef99a7a5bf2c9d97deda454493fc11aaada9cb0346b51b670784",
    ("overbid-shadowed", "adversary"):
        "868b9a48b6670bbb35db262860fd923f3fcf236b0a9772243165dd9e1a54ce43",
    ("overbid-shadowed", "run"):
        "c6b4c79b915f9b5861f0dd561fbc4798df1a88188c9d0cbb5aacff732fe42723",
    ("overbid-every-bundle", "classify"):
        "211aa8e51a41663ec9df3826e99e7aa75c62bdc2eeed7119016496b16e549911",
    ("overbid-every-bundle", "adversary"):
        "681b1423b2fbe4a65b93b26968dca3e5cc50b9e4779f10cd2d87e9ac840b225d",
    ("overbid-every-bundle", "run"):
        "e08e0c5a17401ef4917fbc64a41f7a30f4a87c177f3599dbd7f1a0adac36bfa1",
    ("underbid-refuted", "classify"):
        "680ac8a59be97cfa310b04ac74df323191a995dcd78523751509ba9c9dd15e84",
    ("underbid-refuted", "adversary"):
        "c83ed105525802bc5228b78dad03621c64ff1989a9f216bfa453d50431d1eabc",
    ("underbid-refuted", "run"):
        "efb9cffb4f5a88ef7dd058a68fdecf1a00e2883bc7f3e23ece996d8dd1aa179a",
    ("underbid-shadowed", "classify"):
        "07a124338c1e5ada084ce2eec4d9dd405421e7cfb1ab55588cef257aa7c78eb2",
    ("underbid-shadowed", "adversary"):
        "4e66f7dc11653a070a397edc7398c8083c982bd2ec2d6493b8ccbfb25c6ef590",
    ("underbid-shadowed", "run"):
        "24c2f43c3df83e33f9cfd41134068f1f17a6cbdcb6beb1e9ac2e131b4e378ec9",
    ("exact-case-1", "classify"):
        "611c0e26c30a8c89d70a7a990a1c99ecfd4a6dd8aa96a402cbb9156bd11af57f",
    ("exact-case-1", "adversary"):
        "be3df131b7d62152090c70c95937a58837c17d7cb14294db2174add5f87a8d58",
    ("exact-case-1", "run"):
        "c15beaa26a9553022e56e880a3a030745ab2aa3b873b3137ea42cad714b517ec",
}
_GOLDEN_VOTING = {
    "plurality": "9f5cdba2030c89e8802a912197280bdb52d4a2a1adfcb06565515ce47393a7a3",
    "plurality-cap": "18738868a9cc3f254396052c7fb426db42d8b8f573e0da563c0874e6bfd1d9aa",
    "approval": "6da03d453fad9e88337aab4f15d1b2ba1342294ece43788e091e51c15f5f6616",
    "approval-cap": "5616ac853ba7bbe5ed56a756a6abda275c4b3b2fd409ce369f2bdfa31ffe3d4e",
}
_VOTING_ARGS = {
    "plurality": ("--rule", "plurality", "--utilities", "1,1/2,0"),
    "plurality-cap": ("--rule", "plurality", "--utilities", "1,1/2,0", "--tally-cap", "3"),
    "approval": ("--rule", "approval", "--utilities", "1,9/10,1/10,0"),
    "approval-cap": ("--rule", "approval", "--utilities", "1,9/10,1/10,0", "--tally-cap", "1"),
}


def _vcg_scenario_text(valuation, bids, nature, epsilon):
    items = len(valuation.split()).bit_length() - 1
    lines = ["scenario v1", "kind: vcg-attack", f"items: {items}", f"epsilon: {epsilon}"]
    lines.append(f"valuation: {valuation}")
    lines += [f"bid: {bid}" for bid in bids]
    if nature is not None:
        lines.append(f"nature: {nature}")
    return "\n".join(lines) + "\n"


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_vcg_reports_match_their_recorded_digests(tmp_path, capsys):
    for name, fields in _VCG_SCENARIOS.items():
        path = tmp_path / f"{name}.scn"
        path.write_text(_vcg_scenario_text(*fields))
        for action in ("classify", "adversary", "run"):
            code, out, _ = run(capsys, "vcg", action, "--scenario", str(path))
            assert code == 0
            assert _sha(out) == _GOLDEN_VCG[name, action], (name, action)


@pytest.mark.parametrize("field", ["attack_utility", "truth_utility"])
@pytest.mark.parametrize(
    "name, step", [("overbid-additive", "refute"), ("exact-case-1", "truth_certificate")]
)
def test_vcg_adversary_reruns_the_utilities_it_prints(
    tmp_path, capsys, monkeypatch, name, step, field
):
    """A refuting report or a case-1 certificate that carries a utility off
    by one fails the mechanism's re-run: exit 5 and nothing on stdout."""
    honest = getattr(vcg._Attack, step)

    def off_by_one(self, *args):
        found = honest(self, *args)
        return dataclasses.replace(found, **{field: getattr(found, field) + 1})

    monkeypatch.setattr(vcg._Attack, step, off_by_one)
    path = tmp_path / f"{name}.scn"
    path.write_text(_vcg_scenario_text(*_VCG_SCENARIOS[name]))
    code, out, err = run(capsys, "vcg", "adversary", "--scenario", str(path))
    assert (code, out) == (5, "")
    assert err.startswith(f"error: {field.split('_')[0]} utility ")


def test_voting_reports_match_their_recorded_digests_and_scenarios(tmp_path, capsys):
    for name, args in _VOTING_ARGS.items():
        code, report, _ = run(capsys, "voting", *args)
        assert code == 0
        assert _sha(report) == _GOLDEN_VOTING[name], name
        fields = dict(zip(args[::2], args[1::2]))
        text = f"scenario v1\nkind: voting\nrule: {fields['--rule']}\n"
        text += f"utilities: {fields['--utilities']}\n"
        if "--tally-cap" in fields:
            text += f"tally-cap: {fields['--tally-cap']}\n"
        path = tmp_path / f"{name}.scn"
        path.write_text(text)
        code, game, _ = run(capsys, "export", "--scenario", str(path))
        assert code == 0
        assert report.endswith("\n" + game)


@pytest.mark.parametrize(
    "kind, command, fields",
    [
        ("dfpa", ("auction", "dfpa"), {"value": "1", "epsilon": "3/10"}),
        ("dfpa", ("auction", "dfpa"), {"value": "7/3", "epsilon": "1/7", "cap": "4"}),
        ("all-pay", ("auction", "allpay"), {"value": "1", "epsilon": "1/4", "cap": "2"}),
        ("facility", ("facility",), {"agents": "3", "type": "5/12"}),
        ("facility", ("facility",), {"agents": "4", "type": "1/3", "grid-step": "1/7"}),
        ("voting", ("voting",), {"rule": "plurality", "utilities": "1 2/3 1/3 0"}),
        ("voting", ("voting",), {"rule": "approval", "utilities": "1,1/2,0", "tally-cap": "1"}),
    ],
)
def test_flag_reports_end_with_the_game_of_the_same_scenario(
    tmp_path, capsys, kind, command, fields
):
    """A flag command's fields are the scenario kind's: its report ends with
    the exact ``export --scenario`` text of a scenario holding them."""
    flags = [arg for key, value in fields.items() for arg in (f"--{key}", value)]
    code, report, _ = run(capsys, *command, *flags)
    assert code == 0
    body = "".join(f"{key}: {value}\n" for key, value in fields.items())
    path = _write_scenario(tmp_path, f"scenario v1\nkind: {kind}\n{body}")
    code, game, _ = run(capsys, "export", "--scenario", path)
    assert code == 0
    assert report.endswith("\n" + game)


def test_flags_the_kind_does_not_take_are_ignored(capsys):
    dfpa = ("auction", "dfpa", "--value", "1", "--epsilon", "3/10")
    assert run(capsys, *dfpa, "--bid", "1") == run(capsys, *dfpa)
    witness = ("auction", "fpa-witness", "--value", "1", "--bid", "1/2")
    assert run(capsys, *witness, "--epsilon", "0", "--cap", "x") == run(capsys, *witness)


def test_vcg_parses_the_step_flag_only_where_it_is_read(tmp_path, capsys, monkeypatch):
    # A curated run reads --epsilon; a scenario brings its own step and
    # verify-theorem reads none, so there the flag is ignored like --seed.
    # The theorem's check is stubbed: its real report is pinned in
    # _GOLDEN_REPORTS.
    code, _, err = run(capsys, "vcg", "run", "--curated", "example-e1", "--epsilon", "x")
    assert code == 2 and "not a rational literal" in err
    path = _write_scenario(
        tmp_path,
        "scenario v1\nkind: vcg-attack\nitems: 2\nepsilon: 1\n"
        "valuation: 0 0 1 0\nbid: 0 0 1 1\n",
    )
    for action in ("run", "classify", "adversary"):
        command = ("vcg", action, "--scenario", path)
        assert run(capsys, *command, "--epsilon", "x") == run(capsys, *command)
    calls = []

    def check(budget, seed):
        calls.append((budget, seed))
        return verification.CheckResult("vcg-attack-properties", True, "stubbed")

    monkeypatch.setattr(verification, "check_vcg_attack_properties", check)
    theorem = ("vcg", "verify-theorem", "--budget", "tiny")
    plain = run(capsys, *theorem)
    assert plain == (0, "PASS vcg-attack-properties -- stubbed\n", "")
    assert run(capsys, *theorem, "--epsilon", "x") == plain
    assert calls == [("tiny", 0)] * 2


# sha256 of `vcg run --curated NAME --epsilon STEP --payment-rule RULE` stdout,
# recorded before `run_vcg` stopped calling `winner_determination` and the
# worked-instance reports stopped copying their outcomes' values.
_GOLDEN_CURATED = {
    ("example-e1", "1/10", "clarke"):
        "32cb9365b5b10481c070bccce4b74b45a91aac614479ad821072a25f1e26ccca",
    ("example-e1", "1/10", "paper"):
        "8a5c7763c24643b44baf9e865846620352fc39cb502e4e192b3d580afd37eee2",
    ("example-e1", "1/100", "clarke"):
        "67747f0f1ddfc12885f8d79d3c4be75fb2920542d86009cc7cb53a19de56541e",
    ("example-e1", "1/100", "paper"):
        "1d1ad5354c5b02612a9c6ea8616bd729aede2fed580c067a776bccf9f13f266b",
    ("example-e2", "1/10", "clarke"):
        "4d6b45c8e74947b16dd7164326c4ef0c0cfb944a522e1e47b11deec88277c4ad",
    ("example-e2", "1/100", "clarke"):
        "fed56f07da7374ee1688c764e18fa67c644b3d080282e5147461b91cba525dfc",
    ("example-e2", "1/10", "paper"):
        "babaf9a7d0e17abd5dab893595a930c12aaa57caeb1722b75aeab88afc735f50",
}


def test_curated_vcg_runs_match_their_recorded_digests(capsys):
    for (name, step, rule), expected in _GOLDEN_CURATED.items():
        args = ("vcg", "run", "--curated", name, "--epsilon", step, "--payment-rule", rule)
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert _sha(out) == expected, (name, step, rule)


# sha256 of the stdout of each command, for the report types that the
# digests above leave out, recorded before the CLI wrote every report type
# in one place.  "{attack}" is the vcg-attack scenario below, with a
# nature bid.
_GOLDEN_REPORTS = {
    ("auction", "dfpa", "--value", "1", "--epsilon", "3/10", "--decimal", "3"):
        "3cc001ff98300f90b42e4b826fc6efe273ed687c1ac789b597baeb89d4d263d5",
    ("auction", "allpay", "--value", "1", "--epsilon", "1/4", "--cap", "2"):
        "72d0c8ec4804da450edf01a166297f48b44678f825114c22d602d418582d9794",
    ("auction", "fpa-witness", "--value", "1", "--bid", "1/2"):
        "e8aea519f84194defbdbf13e52ddb01c61fbfa17533c8e467f9e8c418707aa16",
    ("facility", "--agents", "3", "--type", "5/12", "--decimal", "2"):
        "9289f1585992759399d3638d9922997b324c0533cc0c7d50fd7cb6c9aa76fe86",
    ("analyze", "--scenario", "{attack}", "--decimal", "2"):
        "4ed34b541fe2681d2492213490bcf36ed017888bc0a20884791ec0ac5daf324c",
    ("vcg", "verify-theorem", "--budget", "tiny"):
        "5cc033861fa6481ef108bf2aff66d4e31e35d503add4de277ff659cc0cc85400",
    ("vcg", "adversary", "--scenario", "{dominated}"):
        "926ae6ecbfc299c9c6bd570784586994b14f21eff53bec83a67bfec4df94a24a",
}


def test_report_types_match_their_recorded_digests(tmp_path, capsys):
    attack = _write_scenario(
        tmp_path,
        "scenario v1\nkind: vcg-attack\nitems: 2\nepsilon: 1\n"
        "valuation: 0 1 1 2\nbid: 0 5/4 0 2\nnature: 0 1 1 1\n",
    )
    # An unrefuted overbid that truth dominates over the CLI's 35-state family.
    dominated = tmp_path / "dominated.scn"
    dominated.write_text(
        "scenario v1\nkind: vcg-attack\nitems: 2\nepsilon: 1\n"
        "valuation: 0 1 2 0\nbid: 0 0 2 1\n"
    )
    for args, expected in _GOLDEN_REPORTS.items():
        argv = (arg.format(attack=attack, dominated=dominated) for arg in args)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert _sha(out) == expected, args


def test_verify_all_prints_one_padded_line_per_check(capsys, monkeypatch):
    names = [check.name for check in verification.ALL_CHECKS]
    results = [verification.CheckResult(name, True, f"detail {i}") for i, name in enumerate(names)]
    monkeypatch.setattr(verification, "run_all", lambda budget, seed: tuple(results))
    width = max(map(len, names))
    table = [f"PASS {name.ljust(width)}  detail {i}" for i, name in enumerate(names)]
    code, out, err = run(capsys, "verify-all", "--budget", "tiny", "--seed", "7")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["verification budget=tiny seed=7", *table, "13/13 checks passed"]
    results[2] = verification.CheckResult(names[2], False, "broken")
    code, out, err = run(capsys, "verify-all", "--budget", "tiny", "--seed", "7")
    assert (code, out) == (5, "")
    table[2] = f"FAIL {names[2].ljust(width)}  broken"
    assert err.splitlines() == [
        "error: verification budget=tiny seed=7", *table, "12/13 checks passed"
    ]


def test_example_e2_paper_rule_prints_the_literal_payments(capsys):
    args = ("vcg", "run", "--curated", "example-e2", "--epsilon", "1/10")
    code, out, _ = run(capsys, *args, "--payment-rule", "paper")
    assert code == 0 and "payment-rule paper\n" in out
    printed = [line.split()[-1] for line in out.splitlines() if line.startswith("allocation ")]
    # The literal rule charges the welfare, 1002, less all bids' optimum on
    # the items a bid did not win: 1001 without a, 1001 without b, 1002 for
    # the losing third Sybil, and 2 without c.
    assert printed == ["1", "1", "0", "1000"]
    profiles = vcg.build_singleton_split_instance(Fraction(1, 10)).profiles
    literal = vcg.run_vcg(profiles, 3, Fraction(1, 10), vcg.PaymentRule.PAPER_LITERAL)
    assert [Fraction(p) for p in printed] == list(literal.payments)
    assert f"attack-utility {literal.agent_utilities[0]}\n" in out
    # Truth is still scored under the Clarke rule.
    clarke = run(capsys, *args, "--payment-rule", "clarke")[1]
    assert out.splitlines()[-1] == clarke.splitlines()[-1] == "truth-utility 1/10"


def test_scenario_payment_rule_overrides_the_flag(tmp_path, capsys):
    fields = _VCG_SCENARIOS["overbid-additive"]
    text = _vcg_scenario_text(*fields)
    plain = _write_scenario(tmp_path, text)
    paper = str(tmp_path / "paper.scn")
    with open(paper, "w") as handle:
        handle.write(text + "payment-rule: paper\n")
    flag_paper = run(capsys, "vcg", "run", "--scenario", plain, "--payment-rule", "paper")[1]
    code, out, _ = run(capsys, "vcg", "run", "--scenario", paper)
    assert code == 0 and "payment-rule paper\n" in out
    assert out == flag_paper
    code, out, _ = run(capsys, "analyze", "--scenario", paper)
    assert code == 0 and out == flag_paper
    clarke = str(tmp_path / "clarke.scn")
    with open(clarke, "w") as handle:
        handle.write(text + "payment-rule: clarke\n")
    code, out, _ = run(capsys, "vcg", "run", "--scenario", clarke, "--payment-rule", "paper")
    assert code == 0 and _sha(out) == _GOLDEN_VCG["overbid-additive", "run"]


@pytest.mark.parametrize("command", [("vcg", "run"), ("analyze",)])
def test_unknown_scenario_payment_rule_is_a_validation_error(tmp_path, capsys, command):
    text = _vcg_scenario_text(*_VCG_SCENARIOS["overbid-additive"]) + "payment-rule: bogus\n"
    code, out, err = run(capsys, *command, "--scenario", _write_scenario(tmp_path, text))
    assert (code, out) == (3, "")
    assert "unknown payment rule 'bogus'" in err

"""Every input through ``main`` ends in a documented exit code, never a traceback.

Scenario files of every kind and game documents are generated from a
small pool of field values: valid rationals, 0, negatives, ``1/0``,
garbage tokens, a literal beyond the integer digit limit and wrong table
lengths.  They run through ``analyze``, ``vcg run|classify|adversary``
and ``export``, next to ``vcg run --curated`` with a step and a payment
rule from the pools and ``vcg classify|adversary`` without a scenario.
The ``auction``, ``facility`` and ``voting`` commands draw their flags
from the same pools.  Sizes stay at most 2 items, 2 bids
and 5 facility agents, so each input runs in milliseconds.
"""
import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustgames.cli import SCENARIO_SCHEMA, main
from robustgames.instances import CURATED_GAMES

EXIT_CODES = {0, 2, 3, 4, 5}
OVERLONG = "1" + "0" * 5000  # more digits than int() converts
VALID = ("0", "1", "2", "1/2", "3/10", "1/10")
BAD = ("-1", "-1/2", "1/0", "x", "1.5", "inf", "½", OVERLONG)
SCALARS = VALID + VALID + BAD  # valid values twice as likely as each bad one
TABLE_ENTRIES = ("0", "1/4", "1/2", "1", "3/2", "2")

# Field pools; tally caps never fall below the top ballot score (1), so
# no input reaches the documented low-cap warning.
FIELDS = {
    "value": SCALARS,
    "epsilon": ("0", "1", "1/2", "-1", "3/10", "1/0", "x", "1", "1/100000"),
    "cap": SCALARS,
    "bid": SCALARS,
    "type": SCALARS,
    "grid-step": SCALARS + ("1/100000000",),
    "agents": ("2", "3", "5", "1", "0", "-1", "x"),
    "rule": ("plurality", "approval", "x"),
    "utilities": ("1 0", "1 1/2 0", "1,1/2,0", "1 1/2", "0 1", "1 1 0", "1 1/0 0", "x"),
    "tally-cap": ("1", "2", "3", "-1", "x", "1.5"),
    "payment-rule": ("clarke", "paper", "x"),
    "name": tuple(sorted(CURATED_GAMES)) + ("example-e1", "x"),
    "game-file": ("g.game", "missing.game"),
    "concepts": ("loss-averse", "leximin,safety-level", "x"),
    "format": ("structured", "csv", "table", "x"),
    "items": ("2", "1") * 4 + ("0", "-1", "x", "9"),
}
DECIMALS = (None, -1, 2, 0, -2, 3, 1)
COMMANDS = (
    ("analyze", "--scenario", "{scn}"),
    ("analyze", "--game", "{game}"),
    ("vcg", "run", "--scenario", "{scn}"),
    ("vcg", "classify", "--scenario", "{scn}"),
    ("vcg", "adversary", "--scenario", "{scn}"),
    ("export", "--scenario", "{scn}"),
    ("vcg", "run", "--curated", "{curated}", "--epsilon", "{epsilon}", "--payment-rule", "{rule}"),
    ("vcg", "classify"),
    ("vcg", "adversary"),
)
AUCTIONS = ("example-e1", "example-e2", "x")


def _line(values):
    return " ".join(values)


@st.composite
def _tables(draw, items):
    """A bundle table for ``items``: mostly valid, else a short list of pool values."""
    if draw(st.integers(0, 19)) == 19:
        return _line(draw(st.lists(st.sampled_from(SCALARS), min_size=1, max_size=5)))
    size = 1 << int(items) if items in ("1", "2") else 4
    entries = st.lists(st.sampled_from(TABLE_ENTRIES), min_size=size - 1, max_size=size - 1)
    return _line(["0", *draw(entries)])


@st.composite
def _scenarios(draw):
    """A scenario of any kind; half of them vcg-attack ones."""
    if draw(st.booleans()):
        kind = "vcg-attack"
    else:
        kind = draw(st.sampled_from(sorted(SCENARIO_SCHEMA)))
    required, optional = SCENARIO_SCHEMA[kind]
    keys = sorted(required) + [k for k in sorted(optional) if draw(st.booleans())]
    if draw(st.integers(0, 19)) == 19:
        keys.remove(draw(st.sampled_from(keys)))  # a missing or unused field
    fields = []
    items = draw(st.sampled_from(FIELDS["items"]))
    for key in keys:
        if kind == "vcg-attack" and key == "items":
            fields.append((key, items))
        elif kind == "vcg-attack" and key in ("valuation", "bid", "nature"):
            count = draw(st.integers(1, 2)) if key == "bid" else 1
            fields += [(key, draw(_tables(items))) for _ in range(count)]
        else:
            fields.append((key, draw(st.sampled_from(FIELDS[key]))))
    for key in ("concepts", "format"):
        if draw(st.integers(0, 9)) == 9:
            fields.append((key, draw(st.sampled_from(FIELDS[key]))))
    body = "".join(f"{key}: {value}\n" for key, value in fields)
    return f"scenario v1\nkind: {kind}\n{body}"


@st.composite
def _game_documents(draw):
    """A game document, mostly well formed; labels may repeat."""
    actions = draw(st.lists(st.sampled_from("aabc"), min_size=1, max_size=3))
    states = draw(st.lists(st.sampled_from("xxyz"), min_size=1, max_size=3))
    rows = [
        [draw(st.sampled_from(VALID + ("-1", "-1/2"))) for _ in states] for _ in actions
    ]
    flaw = draw(st.integers(0, 5))
    if flaw == 1:
        rows[-1][-1] = draw(st.sampled_from(BAD))
    elif flaw == 2:
        rows.pop()
    elif flaw == 3:
        rows[0].append("1")
    elif flaw == 4:
        rows[-1].pop()
    lines = ["agentgame v1", "type t", "actions " + _line(actions), "states " + _line(states)]
    lines += ["utilities", *map(_line, rows), "end"]
    return "\n".join(lines) + "\n"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    scenario=_scenarios(),
    game=_game_documents(),
    decimal=st.sampled_from(DECIMALS),
    curated=st.sampled_from(AUCTIONS),
    epsilon=st.sampled_from(FIELDS["epsilon"]),
    rule=st.sampled_from(FIELDS["payment-rule"]),
)
def test_every_input_ends_in_a_documented_exit_code(
    scenario, game, decimal, curated, epsilon, rule
):
    """Each scenario and game document goes through every command."""
    with tempfile.TemporaryDirectory() as directory:
        scn, game_path = os.path.join(directory, "case.scn"), os.path.join(directory, "g.game")
        with open(scn, "w", encoding="utf-8") as handle:
            handle.write(scenario)
        with open(game_path, "w", encoding="utf-8") as handle:
            handle.write(game)
        for command in COMMANDS:
            fields = dict(scn=scn, game=game_path, curated=curated, epsilon=epsilon, rule=rule)
            argv = [arg.format(**fields) for arg in command]
            if decimal is not None and command[0] != "export":
                argv += ["--decimal", str(decimal)]
            code, out, err = _run(argv)
            assert code in EXIT_CODES, (argv, scenario, err)
            assert "Traceback" not in out + err


# Each flag command and the flags it offers; a kind ignores the ones it does not take.
FLAG_COMMANDS = {
    ("auction", "dfpa"): ("value", "epsilon", "cap", "bid"),
    ("auction", "allpay"): ("value", "epsilon", "cap", "bid"),
    ("auction", "fpa-witness"): ("value", "epsilon", "cap", "bid"),
    ("facility",): ("agents", "type", "grid-step"),
    ("voting",): ("rule", "utilities", "tally-cap"),
}


@st.composite
def _flag_argvs(draw):
    """A flag command with values from the field pools; each flag may be missing."""
    command = draw(st.sampled_from(sorted(FLAG_COMMANDS)))
    argv = list(command)
    for key in FLAG_COMMANDS[command]:
        if draw(st.integers(0, 9)) < 9:
            argv.append(f"--{key}={draw(st.sampled_from(FIELDS[key]))}")
    decimal = draw(st.sampled_from(DECIMALS))
    if decimal is not None:
        argv += ["--decimal", str(decimal)]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=_flag_argvs())
def test_every_flag_command_ends_in_a_documented_exit_code(argv):
    code, out, err = _run(argv)
    assert code in EXIT_CODES, (argv, err)
    assert "Traceback" not in out + err


def test_tally_cap_below_the_top_score_warns_and_still_reports():
    argv = ["voting", "--rule", "plurality", "--utilities", "1,0", "--tally-cap", "0"]
    with pytest.warns(UserWarning, match="below the top ballot score"):
        code, out, _ = _run(argv)
    assert code == 0 and out.startswith("voting report v1\n")

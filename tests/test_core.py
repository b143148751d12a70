"""Exact scalars, game tables, serialization, and mixed actions."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustgames.core import (
    INF,
    AgentGame,
    MAX_GAME_CELLS,
    MixedAction,
    check_game_cells,
    format_game,
    format_scalar,
    mixed_utility,
    parse_game,
    parse_scalar,
    scalar,
)
from robustgames.errors import CapacityError, ParseError, UnknownLabelError, ValidationError


def test_scalar_accepts_int_str_fraction():
    assert scalar(3) == Fraction(3)
    assert scalar("3/10") == Fraction(3, 10)
    assert scalar("-7/2") == Fraction(-7, 2)
    assert scalar(Fraction(1, 3)) == Fraction(1, 3)


def test_scalar_rejects_floats_and_junk():
    with pytest.raises(ValidationError):
        scalar(0.5)
    with pytest.raises(ValidationError):
        scalar(True)
    with pytest.raises(ParseError):
        scalar("0.5")
    with pytest.raises(ParseError):
        scalar("1/0")


def test_format_scalar_round_trips():
    for text in ("0", "5", "-5", "3/10", "-9999/10"):
        assert format_scalar(parse_scalar(text)) == text


def test_parse_scalar_values_are_in_lowest_terms():
    for text, value in (("+7", 7), ("-0", 0), ("007", 7), ("4/2", 2), ("-6/4", Fraction(-3, 2))):
        parsed = parse_scalar(text)
        assert type(parsed) is Fraction and parsed == value
        assert format_scalar(parsed) == str(Fraction(value))
    for text in ("1" * 5000, "1/" + "1" * 5000):
        with pytest.raises(ParseError, match="too long"):
            parse_scalar(text)


def test_parse_scalar_rejects_whitespace():
    with pytest.raises(ParseError):
        parse_scalar(" 1/2")


def test_parse_scalar_rejects_a_trailing_newline():
    for text in ("3\n", "1/2\n"):
        with pytest.raises(ParseError):
            parse_scalar(text)


def test_labels_with_a_trailing_newline_are_refused():
    rows = ((Fraction(1),), (Fraction(2),))
    with pytest.raises(ValidationError):
        AgentGame("t", ("a\n", "b"), ("s",), rows)
    with pytest.raises(ValidationError):
        AgentGame("t\n", ("a", "b"), ("s",), rows)
    with pytest.raises(ValidationError):
        AgentGame("t", ("a", "b"), ("s\n",), rows)
    game = AgentGame("t", ("a", "b"), ("s",), rows)
    assert parse_game(format_game(game)) == game


def test_mixed_action_labels_must_be_tokens():
    with pytest.raises(ValidationError):
        MixedAction(((1, Fraction(1)),))
    with pytest.raises(ValidationError):
        MixedAction((("a\n", Fraction(1)),))


def test_inf_is_the_top_element():
    assert INF > Fraction(10**9)
    assert not INF < INF
    assert format_scalar(INF) == str(INF) == "inf"
    for value, text in (
        (Fraction(1, 2), "1/2"),
        (Fraction(-7, 3), "-7/3"),
        (Fraction(-4), "-4"),
        (Fraction(0), "0"),
        (Fraction(5), "5"),
        (Fraction(6, 4), "3/2"),
    ):
        assert str(value) == format_scalar(value) == text


def _toy():
    return AgentGame(
        "toy",
        ("a", "b"),
        ("x", "y"),
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(2))),
    )


def test_game_lookup_and_rows():
    game = _toy()
    assert game.utility("a", "x") == 1
    assert game.row("b") == (Fraction(0), Fraction(2))
    with pytest.raises(UnknownLabelError):
        game.utility("c", "x")
    with pytest.raises(UnknownLabelError):
        game.utility("a", "z")


def test_game_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        AgentGame("t", ("a", "a"), ("x",), ((Fraction(0),), (Fraction(0),)))
    with pytest.raises(ValidationError):
        AgentGame("t", ("a",), ("x", "y"), ((Fraction(0),),))
    with pytest.raises(ValidationError):
        AgentGame("t", ("a",), ("x",), ())
    with pytest.raises(ValidationError):
        AgentGame("t", ("a b",), ("x",), ((Fraction(0),),))
    with pytest.raises(ValidationError):
        AgentGame("t", ("a",), ("x",), ((0.5,),))


def _mixed_denominator_game(seed: int) -> AgentGame:
    """A 6 x 7 table over a pool of eight values, so cells tie often, with
    denominators 1, 2, 3, 7 and 10**9 + 7 and numerators up to 10**15."""
    rng = random.Random(seed)
    pool = [
        Fraction(rng.choice((rng.randint(-3, 3), rng.randint(-10**15, 10**15))),
                 rng.choice((1, 2, 3, 7, 10**9 + 7)))
        for _ in range(8)
    ]
    rows = tuple(tuple(rng.choice(pool) for _ in range(7)) for _ in range(6))
    return AgentGame("t", tuple(f"a{i}" for i in range(6)), tuple(f"s{j}" for j in range(7)), rows)


def test_scaled_table_orders_like_the_rational_table():
    for seed in range(20):
        game = _mixed_denominator_game(seed)
        denominator, rows = game.scaled
        cells = [v for row in game.rows for v in row]
        assert denominator == math.lcm(*[v.denominator for v in cells])
        scaled = [x for row in rows for x in row]
        assert all(type(x) is int for x in scaled)
        assert [Fraction(x, denominator) for x in scaled] == cells
        for a, x in zip(cells, scaled):
            for b, y in zip(cells, scaled):
                assert (a < b, a == b) == (x < y, x == y)


def test_scaled_table_leaves_equality_hash_and_round_trip_alone():
    game = _mixed_denominator_game(0)
    twin = AgentGame(game.type_label, game.actions, game.states, game.rows)
    assert game.scaled  # fill the cache on one of the two
    assert game == twin and hash(game) == hash(twin)
    assert parse_game(format_game(game)) == game
    assert parse_game(format_game(game)).scaled == game.scaled


# Cell values: zero, small integers of either sign, and fractions with
# small and large denominators and numerators.
_CELLS = st.one_of(
    st.sampled_from((Fraction(0), Fraction(1), Fraction(-1))),
    st.integers(-1000, 1000).map(Fraction),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.sampled_from((2, 3, 7, 10, 10**9 + 7))),
)


@st.composite
def _games(draw):
    """A 1 x N or N x 1 game up to N = 50, or a square game up to 5 x 5,
    whose cells repeat values from a small drawn pool."""
    n = draw(st.integers(1, 50))
    k = draw(st.integers(1, 5))
    rows, columns = draw(st.sampled_from(((1, n), (n, 1), (k, k))))
    pool = draw(st.lists(_CELLS, min_size=1, max_size=6))
    table = tuple(
        tuple(draw(st.sampled_from(pool)) for _ in range(columns)) for _ in range(rows)
    )
    actions = tuple(f"a{i}" for i in range(rows))
    return AgentGame("t", actions, tuple(f"s{j}" for j in range(columns)), table)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_games())
def test_game_document_round_trips_generated_games(game):
    parsed = parse_game(format_game(game))
    assert parsed == game
    assert parsed.scaled == game.scaled


def test_game_document_round_trip():
    game = _toy()
    text = format_game(game)
    assert text.startswith("agentgame v1\ntype toy\n")
    assert parse_game(text) == game


def test_game_document_negative_and_rational_values():
    game = AgentGame(
        "t", ("a",), ("x", "y"), ((Fraction(-7, 3), Fraction(9999, 10)),)
    )
    assert parse_game(format_game(game)) == game


def test_parse_game_rejects_malformed_documents():
    good = format_game(_toy())
    with pytest.raises(ParseError):
        parse_game("agentgame v2\n" + good.split("\n", 1)[1])
    with pytest.raises(ParseError):
        parse_game(good.replace("utilities\n", ""))
    with pytest.raises(ParseError):
        parse_game(good.replace("\n1 0\n", "\n1\n"))
    with pytest.raises(ParseError):
        parse_game(good.replace("\nend\n", "\n"))
    with pytest.raises(ParseError):
        parse_game("")


def test_mixed_action_normalizes_and_validates():
    half = MixedAction.from_mapping({"b": "1/2", "a": "1/2", "c": 0})
    assert half.entries == (("a", Fraction(1, 2)), ("b", Fraction(1, 2)))
    with pytest.raises(ValidationError):
        MixedAction.from_mapping({"a": "2/3"})
    with pytest.raises(ValidationError):
        MixedAction.from_mapping({"a": "3/2", "b": "-1/2"})
    with pytest.raises(ValidationError):
        MixedAction((("a", 0.5), ("b", 0.5)))


def test_mixture_expected_utility():
    game = _toy()
    mix = MixedAction.from_mapping({"a": "1/4", "b": "3/4"})
    assert mixed_utility(game, mix, "x") == Fraction(1, 4)
    assert mixed_utility(game, mix, "y") == Fraction(3, 2)
    with pytest.raises(UnknownLabelError):
        mixed_utility(game, MixedAction.from_mapping({"zzz": 1}), "x")


def test_grid_cell_budget_admits_exactly_its_size():
    assert MAX_GAME_CELLS == 1000 * 1000
    check_game_cells("dfpa", 1000, 1000)
    with pytest.raises(CapacityError, match=r"dfpa game of 1000 x 1001 cells"):
        check_game_cells("dfpa", 1000, 1001)

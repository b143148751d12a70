"""Discrete first-price and all-pay auction closed forms."""
from fractions import Fraction

import pytest

from robustgames import singleitem
from robustgames.concepts import (
    leximin_actions,
    loss_averse_actions,
    min_max_regret_actions,
)
from robustgames.core import format_scalar
from robustgames.errors import ValidationError
from robustgames.singleitem import (
    DfpaSpec,
    all_pay_game,
    all_pay_loss_averse_bid,
    default_dfpa_spec,
    dfpa_game,
    dfpa_leximin_set,
    dfpa_loss_averse_bid,
    dfpa_min_max_regret_set,
    eps_net,
    fpa_no_loss_averse_witness,
    verify_fpa_witness,
)

F = Fraction


def test_eps_net_is_floor_to_grid():
    assert eps_net(F(1), F(3, 10)) == F(9, 10)
    assert eps_net(F(9, 10), F(3, 10)) == F(9, 10)
    assert eps_net(F(1, 4), F(3, 10)) == 0
    assert eps_net(F(0), F(1, 2)) == 0


def test_loss_averse_bid_three_branches():
    # Zero value, on-grid value, off-grid value.
    assert dfpa_loss_averse_bid(F(0), F(1, 4)) == 0
    assert dfpa_loss_averse_bid(F(1), F(1, 4)) == F(3, 4)
    assert dfpa_loss_averse_bid(F(1), F(3, 10)) == F(9, 10)


def test_engine_agrees_with_loss_averse_formula():
    for value, epsilon in ((F(1), F(3, 10)), (F(1), F(1, 4)), (F(0), F(1, 2)), (F(5, 2), F(1, 4))):
        game = dfpa_game(default_dfpa_spec(value, epsilon))
        expected = format_scalar(dfpa_loss_averse_bid(value, epsilon))
        assert loss_averse_actions(game) == {expected}


def test_min_max_regret_set_and_half_value_tie():
    assert dfpa_min_max_regret_set(F(1), F(3, 10)) == (F(3, 10),)
    # v/2 a positive grid multiple: the two straddling bids tie.
    assert dfpa_min_max_regret_set(F(1), F(1, 4)) == (F(1, 4), F(1, 2))
    assert dfpa_min_max_regret_set(F(0), F(1, 4)) == (F(0),)
    for value, epsilon in ((F(1), F(3, 10)), (F(1), F(1, 4)), (F(3), F(1, 2))):
        game = dfpa_game(default_dfpa_spec(value, epsilon))
        expected = {format_scalar(b) for b in dfpa_min_max_regret_set(value, epsilon)}
        assert min_max_regret_actions(game) == expected


def test_leximin_bids_value_when_on_grid():
    assert dfpa_leximin_set(F(1), F(1, 4)) == (F(1),)
    assert dfpa_leximin_set(F(1), F(3, 10)) == (F(0),)
    assert dfpa_leximin_set(F(0), F(1, 4)) == (F(0),)
    game = dfpa_game(default_dfpa_spec(F(1), F(1, 4)))
    assert leximin_actions(game) == {"1"}


def test_spec_validation():
    with pytest.raises(ValidationError):
        DfpaSpec(F(1), F(0), F(2))
    with pytest.raises(ValidationError):
        DfpaSpec(F(-1), F(1, 4), F(2))
    with pytest.raises(ValidationError):
        DfpaSpec(F(1), F(1, 4), F(1))  # cap below value + step
    spec = default_dfpa_spec(F(1), F(3, 10))
    assert spec.nature_bid_cap >= spec.value + 2 * spec.epsilon
    assert (spec.nature_bid_cap / spec.epsilon).denominator == 1


def test_dfpa_game_shape():
    game = dfpa_game(default_dfpa_spec(F(1), F(1, 2)))
    assert game.actions == ("0", "1/2", "1")
    assert "no-rival" in game.states
    # Winning requires strictly outbidding the top rival.
    assert game.utility("1/2", "1/2") == 0
    assert game.utility("1/2", "0") == F(1, 2)
    assert game.utility("1/2", "no-rival") == F(1, 2)


def test_fpa_witness_under_and_at_value():
    for bid in (F(0), F(1, 2), F(99, 100), F(1)):
        witness = fpa_no_loss_averse_witness(F(1), bid)
        assert verify_fpa_witness(witness)
        assert witness.bid_min < witness.deviation_min
    with pytest.raises(ValidationError):
        fpa_no_loss_averse_witness(F(1), F(2))
    with pytest.raises(ValidationError):
        fpa_no_loss_averse_witness(F(0), F(0))


def test_fpa_witness_rejects_tampering():
    witness = fpa_no_loss_averse_witness(F(1), F(1, 2))
    forged = type(witness)(
        value=witness.value,
        bid=witness.bid,
        deviation=witness.deviation,
        state=witness.state,
        bid_min=witness.bid_min,
        deviation_min=witness.deviation_min + 1,
    )
    assert not verify_fpa_witness(forged)


def test_all_pay_only_zero_is_loss_averse():
    assert all_pay_loss_averse_bid(F(7)) == 0
    game = all_pay_game(F(1), F(1, 4), F(2))
    assert loss_averse_actions(game) == {"0"}
    # Sunk bid: losing at a positive bid goes negative.
    assert game.utility("1/2", "3/4") == F(-1, 2)
    assert game.utility("1/2", "1/4") == F(1, 2)


def test_auction_builders_count_the_cells_they_build(monkeypatch):
    counted = []
    monkeypatch.setattr(singleitem, "check_game_cells", lambda *shape: counted.append(shape))
    for value, epsilon in ((1, "1/4"), ("7/10", "1/3"), (0, "1/2")):
        game = dfpa_game(default_dfpa_spec(Fraction(value), Fraction(epsilon)))
        assert counted.pop() == ("dfpa", len(game.actions), len(game.states))
    game = all_pay_game(Fraction(1), Fraction(1, 4), Fraction(5, 2))
    assert counted.pop() == ("all-pay", len(game.actions), len(game.states))

"""Facility location under the mean rule and positional scoring votes."""
from fractions import Fraction

import pytest

from robustgames import mechanisms
from robustgames.concepts import (
    loss_averse_actions,
    max_regret,
    min_max_regret_actions,
    mixed_loss_averse_falsify,
    safety_level_actions,
)
from robustgames.concepts import FalsifyVerdict
from robustgames.core import MixedAction, format_scalar, mixed_utility
from robustgames.errors import CapacityError, InternalConsistencyError, ValidationError
from robustgames.mechanisms import (
    FacilitySpec,
    approval_min_max_regret_top_k,
    approval_spec,
    approval_top_k_ballot,
    ballot_label,
    facility_game,
    facility_loss_averse_report,
    facility_welfare_loss_demo,
    plurality_min_max_regret,
    plurality_mixed_equalization,
    plurality_mixed_loss_averse,
    plurality_spec,
    psr_game,
    psr_winner,
    voting_pareto_frontier_loss_averse,
)

F = Fraction


def test_facility_report_three_branches():
    n = 3
    # Interior: n*theta - (n-1)/2 on [1/2 - 1/(2n), 1/2 + 1/(2n)].
    assert facility_loss_averse_report(F(1, 2), n) == F(1, 2)
    assert facility_loss_averse_report(F(5, 12), n) == F(1, 4)
    assert facility_loss_averse_report(F(1, 3), n) == F(0)
    assert facility_loss_averse_report(F(2, 3), n) == F(1)
    # Outside the window the report saturates.
    assert facility_loss_averse_report(F(1, 4), n) == F(0)
    assert facility_loss_averse_report(F(9, 10), n) == F(1)
    assert facility_loss_averse_report(F(0), 2) == F(0)
    assert facility_loss_averse_report(F(1), 2) == F(1)


def test_facility_engine_matches_formula_on_aligned_grid():
    for n in (2, 3, 4):
        for k in range(0, 4 * n + 1, 3):
            theta = F(k, 4 * n)
            game = facility_game(FacilitySpec(n, theta, F(1, 4 * n)))
            expected = {format_scalar(facility_loss_averse_report(theta, n))}
            assert loss_averse_actions(game) == expected
            assert safety_level_actions(game) == expected


def test_facility_spec_validation():
    with pytest.raises(ValidationError):
        FacilitySpec(1, F(1, 2), F(1, 4))
    with pytest.raises(ValidationError):
        FacilitySpec(3, F(3, 2), F(1, 4))
    with pytest.raises(ValidationError):
        FacilitySpec(3, F(1, 2), F(0))


def test_facility_welfare_loss_demo():
    for n in range(2, 11):
        demo = facility_welfare_loss_demo(n)
        assert demo.welfare_loss == (F(1, 2) - F(1, 2 * n)) * n == F(n - 1, 2)
        assert demo.facility == 0
        assert set(demo.reports) == {F(0)}
        assert demo.agent_type == F(1, 2) - F(1, 2 * n)


def test_psr_winner_ties_to_highest_index():
    assert psr_winner([F(2), F(2), F(1)]) == 1
    assert psr_winner([F(0), F(0), F(0)]) == 2


def test_psr_spec_validation():
    with pytest.raises(ValidationError):
        plurality_spec(3, (F(1), F(1, 2), F(1, 4)))  # must end at 0
    with pytest.raises(ValidationError):
        plurality_spec(3, (F(1), F(1), F(0)))  # strictly decreasing
    with pytest.raises(ValidationError):
        plurality_spec(1, (F(1),))


def test_plurality_frontier_is_loss_averse_set():
    spec = plurality_spec(3, (F(1), F(1, 2), F(0)))
    frontier = voting_pareto_frontier_loss_averse(spec)
    assert frontier == ((F(1), F(0), F(0)), (F(0), F(1), F(0)))
    game = psr_game(spec)
    assert loss_averse_actions(game) == {ballot_label(v) for v in frontier}


def test_approval_frontier_all_but_worst():
    spec = approval_spec(3, (F(1), F(1, 2), F(0)))
    frontier = voting_pareto_frontier_loss_averse(spec)
    game = psr_game(spec)
    assert loss_averse_actions(game) == {ballot_label(v) for v in frontier}
    assert ballot_label(approval_top_k_ballot(3, 2)) in loss_averse_actions(game)


def test_plurality_mixture_inverse_utility_weights():
    mixture = plurality_mixed_loss_averse((F(1), F(1, 2), F(0)))
    assert mixture == MixedAction.from_mapping({"1,0,0": F(1, 3), "0,1,0": F(2, 3)})
    assert plurality_mixed_equalization((F(1), F(1, 2), F(0))) == F(1, 3)
    assert plurality_mixed_equalization((F(1), F(1, 2), F(1, 4), F(0))) == F(1, 7)


def test_plurality_mixture_survives_where_perturbations_fail():
    f = (F(1), F(1, 2), F(0))
    spec = plurality_spec(3, f)
    game = psr_game(spec)
    mixture = plurality_mixed_loss_averse(f)
    pures = [MixedAction.pure(ballot_label(v)) for v in spec.permissible_vectors]
    result = mixed_loss_averse_falsify(game, mixture, pures)
    assert result.verdict is FalsifyVerdict.SURVIVED_FAMILY
    # Moving mass towards the bottom candidate gets caught by a pivotal
    # state comparison.
    skewed = MixedAction.from_mapping({"1,0,0": F(1, 3), "0,0,1": F(2, 3)})
    result = mixed_loss_averse_falsify(game, skewed, [mixture] + pures)
    assert result.verdict is FalsifyVerdict.FALSIFIED


def test_pivotal_states_have_expected_structure():
    state = "2,0,2"
    game = psr_game(plurality_spec(3, (F(1), F(1, 2), F(0))))
    assert state in game.states
    # Voting for the pivotal candidate wins outright; abstaining there
    # hands the election to the cap holder.
    assert mixed_utility(game, MixedAction.pure("1,0,0"), state) == 1


def test_plurality_min_max_regret_is_truthful_top_choice():
    for f in ((F(1), F(0)), (F(1), F(1, 2), F(0)), (F(1), F(2, 3), F(1, 3), F(0))):
        ballot = plurality_min_max_regret(f)
        assert ballot[0] == 1 and sum(ballot) == 1
        game = psr_game(plurality_spec(len(f), f))
        assert min_max_regret_actions(game) == {ballot_label(ballot)}
        # Worst regret: second place wins while the vote was pivotal.
        assert max_regret(game, ballot_label(ballot)) == f[1] - f[-1]


def test_approval_top_k_regression():
    assert approval_min_max_regret_top_k((F(1), F(0))) == 1
    assert approval_min_max_regret_top_k((F(1), F(9, 10), F(1, 10), F(0))) == 2
    k = approval_min_max_regret_top_k((F(1), F(1, 2), F(0)))
    game = psr_game(approval_spec(3, (F(1), F(1, 2), F(0))))
    assert ballot_label(approval_top_k_ballot(3, k)) in min_max_regret_actions(game)


def test_psr_game_tally_cap_growth():
    small = psr_game(plurality_spec(2, (F(1), F(0)), tally_cap=1))
    large = psr_game(plurality_spec(2, (F(1), F(0)), tally_cap=3))
    assert len(small.states) == 4 and len(large.states) == 16


def test_voting_builders_count_ballots_and_cells_before_building(monkeypatch):
    counted = []
    monkeypatch.setattr(mechanisms, "check_game_cells", lambda *shape: counted.append(shape))
    for build, kind in ((plurality_spec, "plurality ballots"), (approval_spec, "approval ballots")):
        spec = build(3, (F(1), F(1, 2), F(0)), tally_cap=1)
        assert counted.pop() == (kind, len(spec.permissible_vectors), 3)
        game = psr_game(spec)
        assert counted.pop() == ("psr", len(game.actions), len(game.states))


def test_voting_builders_refuse_shapes_above_the_cell_budget():
    # 2 ballots x 708^2 tallies is 1,002,528 cells; 2^16 ballots of 16 entries is 1,048,576.
    spec = plurality_spec(2, (F(1), F(0)), tally_cap=707)
    with pytest.raises(CapacityError, match="psr game of 2 x 501264 cells"):
        psr_game(spec)
    with pytest.raises(CapacityError, match="approval ballots game of 65536 x 16 cells"):
        approval_spec(16, [F(16 - k, 16) for k in range(16)])
    with pytest.raises(CapacityError, match="psr game of 2 x over 1000000 cells"):
        psr_game(plurality_spec(2, (F(1), F(0)), tally_cap=10**4000))


def test_facility_builder_counts_the_cells_it_builds(monkeypatch):
    counted = []
    monkeypatch.setattr(mechanisms, "check_game_cells", lambda *shape: counted.append(shape))
    for agents, step in ((2, Fraction(1, 4)), (3, Fraction(2, 5)), (4, Fraction(3, 7))):
        game = facility_game(FacilitySpec(agents, Fraction(1, 2), step))
        assert counted.pop() == ("facility", len(game.actions), len(game.states))

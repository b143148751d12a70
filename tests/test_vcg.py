"""Combinatorial auction mechanism, Sybil attack classification, adversaries."""
from fractions import Fraction

import pytest

from robustgames.errors import CapacityError, InternalConsistencyError, ValidationError
from robustgames.vcg import (
    SEARCH_BUDGET,
    AttackKind,
    CombBid,
    CombValuation,
    PaymentRule,
    SybilProfile,
    XosValuation,
    additive_bid,
    additive_valuation,
    assignment_bundles,
    best_partition_value,
    bid_grid_step,
    build_singleton_split_instance,
    build_split_pair_instance,
    bundle_label,
    claim_family_check,
    classify_attack,
    enumerate_attacks,
    enumerate_valuations,
    mask_items,
    nature_state_family,
    overbidding_adversary,
    run_vcg,
    single_minded_bid,
    snap_to_grid_between,
    truth_loss_averse_witnesses,
    underbidding_adversary,
    utility_against,
    verify_exact_bidding_optimal,
    winner_determination,
    xos_to_valuation,
)

F = Fraction


def _bid(*values):
    table = tuple(F(v) for v in values)
    count = len(table).bit_length() - 1
    return CombBid(count, table)


def _val(*values):
    table = tuple(F(v) for v in values)
    count = len(table).bit_length() - 1
    return CombValuation(count, table)


def test_bundle_helpers():
    assert mask_items(0b101) == (0, 2)
    assert bundle_label(0, ("a", "b")) == "-"
    assert bundle_label(0b11, ("a", "b")) == "a,b"
    assert additive_bid([F(1), F(2)]).values == (F(0), F(1), F(2), F(3))
    assert single_minded_bid(2, 0b10, F(5)).values == (F(0), F(0), F(5), F(5))


def test_table_validation():
    bad_tables = [
        (2, (1, 0, 0, 0), ValidationError),  # empty bundle must be 0
        (2, (0, 0, 0), ValidationError),  # wrong length
        (2, (0, 1, -1, 0), ValidationError),  # negative entry
        (0, (0,), CapacityError),  # item count below the range
        (9, (0,) * 512, CapacityError),  # item count above the range
    ]
    assert CombValuation is CombBid  # a bid is a declared valuation
    for item_count, values, error in bad_tables:
        with pytest.raises(error):
            CombBid(item_count, tuple(F(v) for v in values))


def test_winner_determination_search_budget_guard():
    # One guard serves the search alone and the search inside a mechanism run.
    zero = CombBid(8, (F(0),) * 256)
    assert 8**8 > SEARCH_BUDGET
    with pytest.raises(CapacityError, match=r"assignment space 8\^8"):
        winner_determination([zero] * 8, 8)
    with pytest.raises(CapacityError, match=r"assignment space 8\^8"):
        run_vcg([SybilProfile(zero, (zero,) * 8)], 8)


def test_xos_is_pointwise_max_of_additive():
    x = XosValuation(2, ((F(2), F(0)), (F(0), F(3))))
    v = xos_to_valuation(x)
    assert v.values == (F(0), F(2), F(3), F(3))


def test_winner_determination_assigns_every_item():
    # One bid valuing only {b}: taking the full set is the only option,
    # so the partition value of the pair is the bid's entry for it.
    lone = _bid(0, 0, 1, 0)
    welfare, assignment = winner_determination([lone], 2)
    assert welfare == 0 and assignment == (0, 0)
    assert best_partition_value([lone], 2, 0b11) == 0
    assert best_partition_value([lone], 2, 0b10) == 1


def test_winner_determination_tie_breaks():
    # Splitting and concentrating tie at welfare 2; concentration wins.
    whole = _bid(0, 1, 1, 2)
    welfare, assignment = winner_determination([whole, whole], 2)
    assert welfare == 2
    assert assignment_bundles(assignment, 2).count(0b11) == 1
    # Among equal profiles the lexicographically smallest assignment wins.
    a = _bid(0, 1, 1, 1)
    welfare, assignment = winner_determination([a, a], 2)
    assert welfare == 2
    assert assignment == (0, 1)


def test_run_vcg_grid_validation():
    profile = SybilProfile.truthful(_val(0, 1, 1, 2))
    outcome = run_vcg([profile], 2, epsilon=F(1))
    assert outcome.real_welfare == 2
    off_grid = SybilProfile(_val(0, 1, 1, 2), (_bid(0, "1/7", 0, "1/7"),))
    with pytest.raises(ValidationError):
        run_vcg([off_grid], 2, epsilon=F(1))
    with pytest.raises(ValidationError):
        run_vcg([SybilProfile.truthful(_val("0", "1/3", "1/3", "2/3"))], 2, epsilon=F(1))


def test_bid_grid_is_finer_than_valuation_grid():
    assert bid_grid_step(F(1), 2) == F(1, 4)
    assert bid_grid_step(F(1, 10), 3) == F(1, 120)


def test_clarke_pivot_never_charges_more_than_the_bid():
    nature = SybilProfile(_val(0, 2, 2, 4), (additive_bid([F(2), F(2)]),))
    agent = SybilProfile.truthful(_val(0, 3, 1, 4))
    outcome = run_vcg([agent, nature], 2)
    for i, payment in enumerate(outcome.payments):
        assert payment >= 0
    # Truthful utility is welfare minus the others' stand-alone optimum.
    assert outcome.agent_utilities[0] >= 0


def test_truthful_utility_nonnegative_on_family():
    valuation = _val(0, 1, 2, 3)
    truth = SybilProfile.truthful(valuation)
    for state in nature_state_family(2, (F(0), F(1), F(2))):
        nature = SybilProfile(CombValuation(2, state.values), (state,))
        outcome = run_vcg([truth, nature], 2)
        assert outcome.agent_utilities[0] >= 0


def test_classification_precedence_and_witnesses():
    valuation = _val(0, 1, 1, 2)
    exact = classify_attack(valuation, [_bid(0, 1, 1, 2)])
    assert exact.kind is AttackKind.EXACT_BIDDING
    assert exact.masks == () and exact.witness_mask is None
    over = classify_attack(valuation, [_bid(0, 2, 0, 2)])
    assert over.kind is AttackKind.OVERBIDDING and over.witness_mask == 1
    assert over.masks == (1,)
    under = classify_attack(valuation, [_bid(0, 0, 1, 1)])
    assert under.kind is AttackKind.UNDERBIDDING and under.witness_mask == 1
    assert under.masks == (1, 3) and under.witness_mask == under.masks[0]
    # Overbidding on any bundle outranks underbidding elsewhere, and the
    # underbid bundles are then not listed.
    both = classify_attack(valuation, [_bid(0, 2, 0, 1)])
    assert both.kind is AttackKind.OVERBIDDING
    assert both.masks == (1,) and both.witness_mask == both.masks[0]
    with pytest.raises(ValidationError):
        classify_attack(valuation, [])


def test_exact_bidding_requires_whole_bundle_partitions():
    # The split pair covers singles but the two-bid partition over-counts
    # nothing: still exact.
    valuation = _val(0, 1, 1, 2)
    split = [_bid(0, 1, 0, 1), _bid(0, 0, 1, 1)]
    assert classify_attack(valuation, split).kind is AttackKind.EXACT_BIDDING


def test_overbidding_adversary_uses_bundle_form_when_needed():
    # The additive form leaks the sub-bundle {b} at utility +3/4; only a
    # bundle-shaped nature bid punishes the overbid on the pair.
    valuation = _val(0, 0, 1, 0)
    attack = [_bid(0, 0, 1, 1)]
    report = overbidding_adversary(valuation, attack)
    assert report.refuted
    assert report.form == "bundle"
    assert report.attack_utility < 0 <= report.truth_utility


def test_shadowed_overbid_is_outcome_equivalent_not_punishable():
    # The pair overbid (1 vs 0) is dominated by the attack's own {b} bid
    # (2) in every winner determination, so it never engages.
    valuation = _val(0, 0, 2, 0)
    attack = [_bid(0, 0, 2, 1)]
    report = overbidding_adversary(valuation, attack)
    assert not report.refuted
    assert report.adversary is None
    assert report.tried
    family = nature_state_family(2, tuple(F(k, 2) for k in range(6)))
    check = claim_family_check(valuation, attack, family, extra=report.tried)
    assert check.difference_states == 0


def test_underbidding_adversary_zero_positive_witness():
    instance = build_singleton_split_instance(F(1, 10))
    report = underbidding_adversary(
        instance.valuation, instance.attack_bids, epsilon=F(1, 10)
    )
    assert report.refuted
    assert report.attack_utility == 0
    assert report.truth_utility > 0
    # The separator lands on the bid grid strictly between the partition
    # value and the true value.
    assert report.tilde == F(11, 20)
    assert (report.tilde / bid_grid_step(F(1, 10), 3)).denominator == 1


def test_shadowed_underbid_is_outcome_equivalent():
    # The attack only underbids the pair as a whole (0 vs 1), but its {b}
    # entry already realizes the partition optimum everywhere.
    valuation = _val(0, 0, 1, 1)
    attack = [_bid(0, 0, 1, 0)]
    assert classify_attack(valuation, attack).kind is AttackKind.UNDERBIDDING
    report = underbidding_adversary(valuation, attack)
    assert not report.refuted
    family = nature_state_family(2, tuple(F(k, 2) for k in range(6)))
    check = claim_family_check(valuation, attack, family, extra=report.tried)
    assert check.difference_states == 0


def test_family_check_flags_reversals():
    family = nature_state_family(2, (F(0), F(1)))
    valuation = _val(0, 0, 1, 1)
    check = claim_family_check(valuation, [_bid(0, 0, 1, 0)], family)
    assert check.reversal is None
    assert check.family_size == len(family)


def test_exact_certificate_case_1():
    # Both split bids stay below the true pair value, so a nature bid
    # slides between the partition value and v to zero out the attack.
    valuation = _val(0, 1, 1, 2)
    attack = [_bid(0, 1, 0, 1), _bid(0, 0, 1, 1)]
    family = nature_state_family(2, (F(0), F(1), F(2)))
    certificate = truth_loss_averse_witnesses(valuation, attack, family)
    assert certificate.mode == "case-1"
    assert certificate.witness_mask == 0b11
    assert certificate.attack_utility == 0
    assert certificate.truth_utility > 0


def test_exact_certificate_case_2():
    # Duplicated truthful bids: no bundle is undervalued by every Sybil,
    # and the best single Sybil dominates entrywise.
    valuation = _val(0, 1, 1, 2)
    attack = [_bid(0, 1, 1, 2), _bid(0, 1, 1, 2)]
    family = nature_state_family(2, (F(0), F(1), F(2)))
    certificate = truth_loss_averse_witnesses(valuation, attack, family)
    assert certificate.mode == "case-2"
    assert certificate.best_sybil == 0


def test_exact_certificates_cover_all_modes_exhaustively():
    family = nature_state_family(2, (F(0), F(1), F(2)))
    modes = set()
    for valuation in enumerate_valuations(2, F(1), F(2)):
        for bids in enumerate_attacks(2, F(1), F(2), 2):
            if classify_attack(valuation, bids).kind is not AttackKind.EXACT_BIDDING:
                continue
            modes.add(truth_loss_averse_witnesses(valuation, bids, family).mode)
        if modes == {"case-1", "case-2", "family"}:
            break
    assert modes == {"case-1", "case-2", "family"}


def test_exact_bidding_reaches_optimal_welfare():
    valuation = _val(0, 1, 1, 2)
    split = SybilProfile(valuation, (_bid(0, 1, 0, 1), _bid(0, 0, 1, 1)))
    chain = verify_exact_bidding_optimal([split], 2)
    assert chain.holds()
    assert chain.attack_real == chain.truth_real == 2
    lying = SybilProfile(valuation, (_bid(0, 0, 1, 1),))
    with pytest.raises(ValidationError):
        verify_exact_bidding_optimal([lying], 2)


def test_utility_against_measures_true_value_minus_pivot():
    valuation = _val(0, 1, 1, 2)
    truth = SybilProfile.truthful(valuation).bids
    assert utility_against(valuation, truth, [additive_bid([F(0), F(0)])]) == 2
    assert utility_against(valuation, truth, [additive_bid([F(1), F(1)])]) == 0


def test_split_pair_regression_constants():
    for epsilon in (F(1, 10), F(1, 100)):
        report = build_split_pair_instance(epsilon)
        attack, truth = report.attack_outcome, report.truthful_outcome
        assert report.classification.kind is AttackKind.OVERBIDDING
        assert attack.bundles[:2] == (0b0011, 0b1100)
        assert attack.real_welfare == 6 * epsilon
        assert attack.payments[:2] == (F(18), F(18))
        assert report.attack_outcome_literal.payments[:2] == (F(20), F(20))
        assert truth.observed_welfare == F(18) + 6 * epsilon
        assert truth.agent_utilities[0] == 4 * epsilon
        assert report.stated_optimal_welfare == F(18) + 2 * epsilon
        assert report.stated_payment == 2 * epsilon
        assert len(report.discrepancies) == 4


def test_singleton_split_regression_constants():
    report = build_singleton_split_instance(F(1, 10))
    attack_utility = report.attack_outcome.agent_utilities[0]
    truth_utility = report.truthful_outcome.agent_utilities[0]
    assert report.classification.kind is AttackKind.UNDERBIDDING
    assert attack_utility == F(1, 5)
    assert truth_utility == F(1, 10)
    assert attack_utility == 2 * truth_utility
    with pytest.raises(ValidationError):
        build_singleton_split_instance(F(0))


def test_snap_to_grid_between():
    assert snap_to_grid_between(F(1, 2), F(3, 2), F(1)) == F(1)
    # No grid point strictly inside: fall back to the exact midpoint.
    assert snap_to_grid_between(F(1), F(2), F(1)) == F(3, 2)
    assert snap_to_grid_between(F(0), F(1, 60), F(1, 120)) == F(1, 120)
    with pytest.raises(ValidationError):
        snap_to_grid_between(F(1), F(1), F(1))


def test_attack_classification_census_on_unit_grid():
    # Frozen census: all two-Sybil attacks on the 0..2 unit grid against
    # the additive (1, 1) valuation.
    valuation = additive_valuation([F(1), F(1)])
    counts = {kind: 0 for kind in AttackKind}
    for bids in enumerate_attacks(2, F(1), F(2), 2):
        counts[classify_attack(valuation, bids).kind] += 1
    assert counts == {
        AttackKind.OVERBIDDING: 315,
        AttackKind.UNDERBIDDING: 51,
        AttackKind.EXACT_BIDDING: 39,
    }
    assert sum(counts.values()) == 405


def test_enumeration_budget_guard():
    with pytest.raises(CapacityError):
        list(enumerate_valuations(4, F(1, 100), F(2)))
    assert sum(1 for _ in enumerate_valuations(1, F(1), F(2))) == 3
    assert sum(1 for _ in enumerate_attacks(1, F(1), F(2), 2)) == 9

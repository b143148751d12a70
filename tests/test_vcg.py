"""Combinatorial auction mechanism, Sybil attack classification, adversaries."""
import hashlib
import math
import random
from fractions import Fraction

import pytest

from robustgames import vcg, verification
from robustgames.errors import CapacityError, InternalConsistencyError, ValidationError
from robustgames.vcg import (
    SEARCH_BUDGET,
    AttackKind,
    CombBid,
    CombValuation,
    FamilyCheck,
    PaymentRule,
    SybilProfile,
    additive_bid,
    best_partition_value,
    bid_grid_step,
    build_singleton_split_instance,
    build_split_pair_instance,
    bundle_label,
    certify_attack,
    claim_family_check,
    classify_attack,
    enumerate_attacks,
    enumerate_valuations,
    mask_items,
    nature_state_family,
    overbidding_adversary,
    run_vcg,
    truth_loss_averse_witnesses,
    underbidding_adversary,
    utility_against,
    verify_exact_bidding_optimal,
    winner_determination,
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
    # After the 2^3 additive states, the single-minded bid on {0, 1} at level 5.
    single_minded = nature_state_family(3, (F(0), F(5)))[8]
    assert single_minded.values == tuple(F(v) for v in (0, 0, 0, 5, 0, 0, 0, 5))


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
    assert len(set(assignment)) == 1  # one bid takes both items
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


def test_run_vcg_grid_checks_keep_their_messages():
    """The grid checks test multiples on integers and name the entry and
    the grid as before; a multiple of the step passes on either grid."""
    valuation = _val(0, "1/3", "2/3", 1)
    with pytest.raises(ValidationError) as raised:
        run_vcg([SybilProfile.truthful(valuation)], 2, epsilon=F(2, 3))
    assert str(raised.value) == "valuation entry 1/3 is off the 2/3 grid"
    off_grid = SybilProfile(valuation, (_bid(0, "1/6", "1/9", 1),))
    with pytest.raises(ValidationError) as raised:
        run_vcg([off_grid], 2, epsilon=F(1, 3))
    assert str(raised.value) == "bid entry 1/9 is off the 1/12 bid grid"
    on_grid = SybilProfile(valuation, (_bid(0, "1/6", "1/12", "5/4"),))
    assert run_vcg([on_grid], 2, epsilon=F(1, 3)).real_welfare == 1
    rng = random.Random(9)
    for _ in range(300):
        value = F(rng.randint(-40, 40), rng.randint(1, 12))
        step = F(rng.randint(1, 12), rng.randint(1, 12))
        assert vcg._is_multiple(value, step) is ((value / step).denominator == 1)


@pytest.mark.parametrize("epsilon", [F(1), F(1, 10), F(3, 4), F(6), 2, "5/7"])
@pytest.mark.parametrize("item_count", [1, 2, 3])
def test_attack_grid_step_is_the_bid_grid_step_on_its_scale(epsilon, item_count):
    size = 1 << item_count
    valuation = CombValuation(item_count, tuple(F(mask.bit_count(), 3) for mask in range(size)))
    attack = vcg._Attack(valuation, (valuation,), grid=epsilon)
    assert F(attack.grid, attack.scale) == bid_grid_step(epsilon, item_count)
    # The step is a multiple of twice the lcm of 1..m on the scale, so the
    # snapped midpoint and the equal per-item shares are integers too.
    assert attack.grid % (2 * math.lcm(*range(1, item_count + 1))) == 0


def test_an_attack_without_a_grid_takes_the_unit_grid_scale():
    # The refutation and the scans of one attack share one scale, and so
    # one entry in the memo of the Sybil side.
    valuation, bids = _val(0, 1, 1, 2), (_bid(0, "1/2", 1, 1), _bid(0, 1, 0, 1))
    family = nature_state_family(2, tuple(F(k, 2) for k in range(6)))
    scanned = vcg._Attack(valuation, bids, family)
    assert scanned.scale == vcg._Attack(valuation, bids, grid=F(1)).scale
    assert F(scanned.grid, scanned.scale) == bid_grid_step(F(1), 2)


@pytest.mark.parametrize("epsilon", [F(0), F(-1, 2), -3])
def test_a_grid_step_that_is_not_positive_is_refused_with_one_message(epsilon):
    valuation = _val(0, 1, 1, 2)
    with pytest.raises(ValidationError) as public:
        bid_grid_step(epsilon, 2)
    for route in (
        lambda: overbidding_adversary(valuation, [_bid(0, 2, 1, 2)], epsilon),
        lambda: underbidding_adversary(valuation, [_bid(0, 1, 1, 1)], epsilon),
        lambda: certify_attack(valuation, [_bid(0, 2, 1, 2)], (), epsilon),
    ):
        with pytest.raises(ValidationError) as raised:
            route()
        assert str(raised.value) == str(public.value)


def test_unscaled_tables_equal_the_public_constructor():
    """Every candidate the adversaries try, and the adversary reported, as
    the checked integer route builds them: the same values, equal and of
    equal hash to ``BundleTable`` on the same ``Fraction``s."""
    tables = 0
    for valuation in enumerate_valuations(2, F(1), F(2)):
        for bids in list(enumerate_attacks(2, F(1), F(2), 2))[::37]:
            kind, report, _ = certify_attack(valuation, bids, (), F(1, 2))
            if kind is AttackKind.EXACT_BIDDING:
                continue
            for table in report._tried:
                built = vcg._unscaled(2, table, report._scale)
                public = CombBid(2, tuple(F(v, report._scale) for v in table))
                assert built.values == public.values
                assert built == public and hash(built) == hash(public)
                assert built._integers == public._integers
                tables += 1
    assert tables > 100


@pytest.mark.parametrize(
    "item_count, table",
    [
        (2, (0, 3, -1, 2)),  # a negative entry
        (2, (5, 1, 1, 2)),  # a nonzero empty bundle
        (2, (0, 1, 2)),  # the wrong length
        (1, (0, 1, 2, 3)),  # the wrong length for the item count
        (0, (0,)),  # an item count below the range
        (9, (0,) * 512),  # an item count above the range
    ],
)
def test_unscaled_refuses_a_bad_table_with_the_public_message(item_count, table):
    with pytest.raises((ValidationError, CapacityError)) as public:
        CombBid(item_count, tuple(F(v, 4) for v in table))
    with pytest.raises(type(public.value)) as raised:
        vcg._unscaled(item_count, table, 4)
    assert str(raised.value) == str(public.value)


def test_unscaled_keeps_a_negative_scale_valid_through_the_constructor():
    # A negative scale over negative integers gives non-negative values;
    # the public constructor, not the integer check, decides.
    assert vcg._unscaled(1, (0, -3), -2).values == (F(0), F(3, 2))


def test_integer_entries_are_stored_outside_the_fields():
    table = _bid(0, "1/2", "1/3", 1)
    fresh = _bid(0, "1/2", "1/3", 1)
    assert "_integers" not in vars(table)
    assert table._integers == (6, (0, 3, 2, 6))
    assert vars(table)["_integers"] is table._integers
    assert table == fresh and hash(table) == hash(fresh)
    assert repr(table) == repr(fresh)
    # A rescaled copy is kept beside them, one scale at a time.
    _, (twelfths,) = vcg._scaled([table], 12)
    assert twelfths == (0, 6, 4, 12) and vcg._scaled([table], 12)[1][0] is twelfths
    assert vcg._scaled([table], 24)[1][0] == (0, 12, 8, 24)
    assert table == fresh and hash(table) == hash(fresh)
    assert repr(table) == repr(fresh)
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        table.missing


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
    attacker = build_singleton_split_instance(F(1, 10)).profiles[0]
    report = underbidding_adversary(attacker.valuation, attacker.bids, epsilon=F(1, 10))
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


def test_utility_against_refuses_a_missing_bid_and_mixed_item_counts():
    valuation = _val(0, 1, 1, 2)
    nature = [additive_bid([F(1), F(1)])]
    three_items = additive_bid([F(1), F(1), F(1)])
    with pytest.raises(ValidationError):
        utility_against(valuation, (), nature)
    with pytest.raises(ValidationError):
        utility_against(valuation, (valuation, three_items), nature)
    with pytest.raises(ValidationError):
        utility_against(valuation, (valuation,), [*nature, three_items])


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


def test_worked_instance_tables_match_their_recorded_digest():
    # sha256 over every table of every profile, one line of entries each,
    # recorded before the builders took their tables from the module's
    # own table builders.
    lines = []
    for build in (build_split_pair_instance, build_singleton_split_instance):
        for epsilon in (F(1, 10), F(1, 100), F(1, 3)):
            for profile in build(epsilon).profiles:
                for table in (profile.valuation, *profile.bids):
                    assert all(type(v) is Fraction for v in table.values)
                    lines.append(" ".join(map(str, table.values)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "1ae8ea2e4d1d7bd9dc75b8f75cb98a8f6ae0f1a24e569ef8bd4726a6e111d5a4"


def test_nature_state_families_match_their_recorded_digest():
    # sha256 over every state of the families the CLI and the battery scan,
    # one line of entries each, recorded before the single-minded states
    # were built as bundle-form adversary tables.
    digest = hashlib.sha256()
    count = 0
    for m in (1, 2, 3):
        for levels in ((0, 1, 2), (0, F(1, 2), 1, F(3, 2), 2), tuple(F(k, 2) for k in range(6))):
            for table in nature_state_family(m, levels):
                assert all(type(v) is Fraction for v in table.values)
                digest.update((" ".join(map(str, table.values)) + "\n").encode())
                count += 1
    assert count == 507
    assert digest.hexdigest() == "e5bf03d10a5fab5d90a5c0b4984c048bd135537d15985ea5f84318722da02e03"


def test_worked_instances_rerun_from_their_profiles():
    for build in (build_split_pair_instance, build_singleton_split_instance):
        for epsilon in (F(1, 10), F(1, 100)):
            instance = build(epsilon)
            m = len(instance.items)
            attacker, *others = instance.profiles
            assert all(p.bids == (p.valuation,) for p in others)
            assert instance.classification == classify_attack(attacker.valuation, attacker.bids)
            for rule, outcome in (
                (PaymentRule.CLARKE_PIVOT, instance.attack_outcome),
                (PaymentRule.PAPER_LITERAL, instance.attack_outcome_literal),
            ):
                assert run_vcg(instance.profiles, m, epsilon, rule) == outcome
            truthful = [SybilProfile.truthful(p.valuation) for p in instance.profiles]
            assert run_vcg(truthful, m, epsilon) == instance.truthful_outcome


def test_exact_bidding_family_fallback_follows_the_family_standing(monkeypatch):
    # No bundle is valued below v by every Sybil, and the best single
    # Sybil is not dominated on the family, so only the family scan is left.
    # The fallback reads the utilities the case-2 scan computed: it builds
    # the check from them and never scans the family a second time.
    valuation = _val(0, 0, 1, 2)
    attack = [_bid(0, 0, 0, 2), _bid(0, 0, 1, 0)]
    family = nature_state_family(2, (F(0), F(1), F(2)))

    def rescan(*args, **kw):
        raise AssertionError("the family was scanned twice")

    monkeypatch.setattr(vcg, "claim_family_check", rescan)
    for check, standing in (
        (FamilyCheck(len(family), 2, F(1), F(1), None, None), "dominated"),
        (FamilyCheck(len(family), 2, F(0), F(1), None, None), None),
    ):
        assert check.standing == standing
        monkeypatch.setattr(vcg, "_family_check", lambda *args, check=check: check)
        if standing:
            certificate = truth_loss_averse_witnesses(valuation, attack, family)
            assert (certificate.mode, certificate.family_size) == ("family", len(family))
        else:
            with pytest.raises(InternalConsistencyError, match="no certificate found"):
                truth_loss_averse_witnesses(valuation, attack, family)


def test_snap_picks_a_grid_point_strictly_inside():
    # On scale 2: (1/2, 3/2) with step 1 holds the grid point 1.
    assert vcg._snap(1, 3, 2) == 2
    # No grid point strictly inside (1, 2): fall back to the exact midpoint.
    assert vcg._snap(2, 4, 2) == 3
    # On scale 240: (0, 1/60) with step 1/120 holds 1/120.
    assert vcg._snap(0, 4, 2) == 2
    # The grid point above the midpoint when the one below is an endpoint.
    assert vcg._snap(4, 10, 4) == 8


def test_attack_classification_census_on_unit_grid():
    # Frozen census: all two-Sybil attacks on the 0..2 unit grid against
    # the additive (1, 1) valuation.
    valuation = additive_bid([F(1), F(1)])
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
    # Over budget on the single bids alone, and on the pairs only.
    with pytest.raises(CapacityError, match="attack lattice of 14348907 vectors"):
        next(enumerate_attacks(4, F(1), F(2), 1))
    with pytest.raises(CapacityError, match="attack lattice of 12076154 vectors"):
        next(enumerate_attacks(2, F(1, 8), F(2), 2))


@pytest.mark.parametrize("enumerate_", [enumerate_valuations, enumerate_attacks])
@pytest.mark.parametrize(
    "step, cap, message",
    [
        (F(0), F(2), "grid step must be positive, got 0"),
        (F(-1), F(2), "grid step must be positive, got -1"),
        (F(1), F(-1), "value cap must be non-negative, got -1"),
    ],
    ids=["zero-step", "negative-step", "negative-cap"],
)
def test_enumerators_refuse_a_step_or_cap_they_cannot_use(enumerate_, step, cap, message):
    args = (2, step, cap, 2) if enumerate_ is enumerate_attacks else (2, step, cap)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        next(enumerate_(*args))


@pytest.mark.parametrize(
    "enumerate_, args, error, message",
    [
        (enumerate_valuations, (-1, F(1), F(2)), CapacityError,
         "bundle table item count -1 outside 1..8"),
        (enumerate_attacks, (-1, F(1), F(2), 2), CapacityError,
         "bundle table item count -1 outside 1..8"),
        (enumerate_attacks, (2, F(1), F(2), 0), ValidationError,
         "max_sybils must be at least 1, got 0"),
        (enumerate_attacks, (2, F(1), F(2), -1), ValidationError,
         "max_sybils must be at least 1, got -1"),
    ],
    ids=["valuations-negative-items", "attacks-negative-items", "no-sybils", "negative-sybils"],
)
def test_enumerators_refuse_a_size_they_cannot_use(enumerate_, args, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        next(enumerate_(*args))


def test_certify_attack_scans_unless_an_overbid_is_refuted():
    family = nature_state_family(2, (F(0), F(1)))
    kind, report, check = certify_attack(_val(0, 1, 1, 2), [_bid(0, 2, 0, 2)], family, F(1))
    assert (kind, report.refuted, check) == (AttackKind.OVERBIDDING, True, None)
    # A shadowed overbid is unrefuted, so the family and its tried candidates are scanned.
    kind, report, check = certify_attack(_val(0, 0, 2, 0), [_bid(0, 0, 2, 1)], family, F(1))
    assert (kind, report.refuted) == (AttackKind.OVERBIDDING, False)
    assert check.family_size == len(family) + len(report.tried)
    # A refuted underbid is still scanned, so a reversal can fail it.
    attacker = build_singleton_split_instance(F(1, 10)).profiles[0]
    family = nature_state_family(3, (F(0), F(1)))
    kind, report, check = certify_attack(attacker.valuation, attacker.bids, family, F(1, 10))
    assert (kind, report.refuted) == (AttackKind.UNDERBIDDING, True)
    assert check.family_size == len(family) + len(report.tried)
    kind, certificate, check = certify_attack(_val(0, 1, 1, 2), [_val(0, 1, 1, 2)], family[:0])
    assert (kind, certificate.mode, check) == (AttackKind.EXACT_BIDDING, "case-2", None)


def test_certify_scan_reports_a_tried_candidate_as_its_bid_table():
    # Against the half-priced state the overbid pays 1/2 for an item worth
    # nothing while truth earns 0: a zero-truth state, past the family's one.
    valuation, bids = _val(0, 0, 0, 0), [_bid(0, 1, 0, 1)]
    family, state = (_bid(0, 0, 0, 0),), _bid(0, F(1, 2), 0, F(1, 2))
    attack = vcg._Attack(valuation, bids, family, F(1))
    check = attack.scan(vcg._scaled([state], attack.scale)[1])
    assert (check.difference_states, check.zero_truth_state) == (1, state)
    assert check == claim_family_check(valuation, bids, family, extra=[state])


def _step_chain(valuation, bids, family, epsilon):
    """The public steps one after another, as the sybil-lattice benchmark chains them."""
    kind = classify_attack(valuation, bids).kind
    if kind is AttackKind.EXACT_BIDDING:
        return kind, truth_loss_averse_witnesses(valuation, bids, family), None
    over = kind is AttackKind.OVERBIDDING
    report = (overbidding_adversary if over else underbidding_adversary)(valuation, bids, epsilon)
    if over and report.refuted:
        return kind, report, None
    return kind, report, claim_family_check(valuation, bids, family, extra=report.tried)


def _tally_key(kind, found, check):
    """The ``vcg-attack-properties`` tally kind of one certified attack."""
    if kind is AttackKind.EXACT_BIDDING:
        return f"exact-{found.mode}"
    if found.refuted:
        return "overbidding-punished" if kind is AttackKind.OVERBIDDING else "underbidding-refuted"
    return f"{kind.value}-{check.standing}"


def test_certify_attack_matches_the_public_step_chain():
    """Every exact and every one-bid 2-item attack of the cap-2 lattice,
    where the rarer tally kinds live, a seeded 300 of the rest of the
    m <= 2 lattice and 60 random 3-item attacks: the one entry returns
    what the step chain returns, tried candidates included."""
    families = {m: verification._core_family(m) for m in (1, 2, 3)}
    lattice = [
        (valuation, bids, families[m])
        for m in (1, 2)
        for valuation in enumerate_valuations(m, F(1), F(2))
        for bids in enumerate_attacks(m, F(1), F(2), 2)
    ]
    sample, rest = [], []
    for case in lattice:
        valuation, bids, _ = case
        one_bid = valuation.item_count == 2 and len(bids) == 1
        exact = classify_attack(valuation, bids).kind is AttackKind.EXACT_BIDDING
        (sample if one_bid or exact else rest).append(case)
    sample += random.Random(16).sample(rest, 300)
    rng = random.Random(3)
    sample += [(*verification._random_m3_instance(rng, i % 3), families[3]) for i in range(60)]
    kinds = set()
    for valuation, bids, family in sample:
        kind, found, check = certify_attack(valuation, bids, family, F(1))
        chained = _step_chain(valuation, bids, family, F(1))
        assert (kind, found, check) == chained
        if kind is not AttackKind.EXACT_BIDDING:
            assert [b.values for b in found.tried] == [b.values for b in chained[1].tried]
        kinds.add(_tally_key(kind, found, check))
    assert kinds == {
        "overbidding-punished",
        "overbidding-dominated",
        "overbidding-equivalent",
        "underbidding-refuted",
        "underbidding-equivalent",
        "exact-case-1",
        "exact-case-2",
        "exact-family",
    }

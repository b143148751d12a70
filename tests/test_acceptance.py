"""Acceptance gate: the thirteen verification checks at full budget.

Each test drives one check from the battery with the default budget and
seed 0, prints its one-line summary, and asserts the pass flag.  Two
checks assert refined claims recorded in the project notes:

* criterion 08: overbidding attacks whose overbid is shadowed by the
  attack's own better sub-bundle bids are outcome-equivalent to truth
  (no punishing nature bid exists); those are certified equivalent or
  dominated over the state family instead of punished.  Underbidding
  attacks get the same treatment.  No generated reversal is tolerated.
* criterion 05: on-grid even values make v/2 a grid multiple, where the
  two straddling bids tie; the closed form returns the tied pair.

Every check's detail line must also equal the one recorded below, so a
change that moves any count in the battery fails here, not only a change
that fails a check.
"""
from robustgames import verification

_DETAILS = {
    "dfpa-loss-averse-closed-form":
        "57 pairs, singleton match on all; branches zero=7 on-grid=28 off-grid=22",
    "fpa-witness-battery": "202 bids, every witness re-derived strictly",
    "hierarchy-arrows-and-counterexamples":
        "1000 random games, zero arrow violations, 22 permitted non-inclusions "
        "observed; 5 curated separations reproduced",
    "multi-leximin-existence": "1000 random games, multi-leximin nonempty on all",
    "dfpa-min-max-regret":
        "57 pairs match the argmin set exactly; 14 exhibit the documented half-value tie",
    "safety-collapse-family":
        "20 family members collapse to the safety set under both weights",
    "aim-big-and-star-exclusions":
        "closed forms match; 200 random games, no dominated action slips through",
    "vcg-attack-properties":
        "exact-case-1=15, exact-case-2=123, exact-family=73, exact-welfare-multi=200, "
        "exact-welfare-single=207, overbidding-dominated=18, overbidding-equivalent=10, "
        "overbidding-punished=10434, random-m3=500, underbidding-equivalent=18, "
        "underbidding-refuted=771",
    "vcg-split-pair-instance":
        "both grid steps: bundles a,b / c,d, welfare 6*step, payments (18, 18) pivot "
        "and (20, 20) literal, 4 source discrepancies flagged",
    "vcg-singleton-split-instance":
        "underbidding classification, truth earns step, attack earns twice that",
    "facility-location-closed-forms":
        "60 aligned (type, n) pairs match the formula; welfare-loss demo exact for n = 2..10",
    "voting-rules":
        "frontier lemma holds for both rules at 3 sizes; equalization exact; "
        "50 perturbed mixtures falsified; top-k regression stable",
    "oracle-equivalence":
        "1085 games agree on three concepts; 830 winner determinations agree with "
        "the naive search",
}


def _run(check):
    result = check("default", 0)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name}: {result.detail}")
    assert result.passed, result.detail
    assert result.detail == _DETAILS[result.name]
    return result


def test_criterion_01_dfpa_loss_averse_closed_form():
    _run(verification.check_dfpa_loss_averse_closed_form)


def test_criterion_02_fpa_witness_battery():
    _run(verification.check_fpa_witness_battery)


def test_criterion_03_hierarchy_arrows_and_counterexamples():
    _run(verification.check_hierarchy_and_counterexamples)


def test_criterion_04_multi_leximin_existence():
    _run(verification.check_multi_leximin_existence)


def test_criterion_05_dfpa_min_max_regret():
    result = _run(verification.check_dfpa_min_max_regret)
    assert "tie" in result.detail


def test_criterion_06_safety_collapse_family():
    _run(verification.check_safety_collapse_family)


def test_criterion_07_aim_big_and_star_exclusions():
    _run(verification.check_aim_big_and_star_exclusions)


def test_criterion_08_vcg_attack_properties():
    result = _run(verification.check_vcg_attack_properties)
    for bucket in (
        "overbidding-punished",
        "underbidding-refuted",
        "exact-case-1",
        "exact-case-2",
        "exact-welfare-single",
        "exact-welfare-multi",
    ):
        assert bucket in result.detail


def test_criterion_09_vcg_split_pair_instance():
    _run(verification.check_split_pair_instance)


def test_criterion_10_vcg_singleton_split_instance():
    _run(verification.check_singleton_split_instance)


def test_criterion_11_facility_location_closed_forms():
    _run(verification.check_facility_location)


def test_criterion_12_voting_rules():
    _run(verification.check_voting_rules)


def test_criterion_13_oracle_equivalence():
    _run(verification.check_oracle_equivalence)


def test_battery_is_complete_and_ordered():
    names = [check.__name__ for check in verification.ALL_CHECKS]
    assert len(names) == 13
    assert names[0] == "check_dfpa_loss_averse_closed_form"
    assert names[7] == "check_vcg_attack_properties"
    assert names[12] == "check_oracle_equivalence"

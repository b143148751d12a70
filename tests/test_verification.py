"""The verification battery: its attack dispatch and its check names."""
from collections import Counter
from fractions import Fraction

import pytest

from robustgames import vcg, verification

F = Fraction


_UNREFUTED = pytest.mark.parametrize(
    "valuation, attack",
    [
        ((0, 0, 2, 0), (0, 0, 2, 1)),  # shadowed overbid: unrefuted, scanned
        ((0, 0, 1, 1), (0, 0, 1, 0)),  # underbid: always scanned
    ],
)


def _certified_with(monkeypatch, table, bids, family, check, epsilon=F(1)):
    """Make ``vcg.certify_attack`` hand back the attack's own kind and
    report with ``check`` as its family check."""
    kind, report, _ = vcg.certify_attack(table, bids, family, epsilon)
    monkeypatch.setattr(vcg, "certify_attack", lambda *args, **kwargs: (kind, report, check))
    return kind


@_UNREFUTED
def test_reversal_failure_names_the_reversal_state(monkeypatch, valuation, attack):
    reversal = vcg.CombBid(2, (F(0), F(1), F(1), F(2)))
    zero_truth = vcg.CombBid(2, (F(0), F(3), F(3), F(5)))
    check = vcg.FamilyCheck(10, 1, F(0), F(1), reversal, zero_truth)
    table = vcg.CombValuation(2, tuple(F(v) for v in valuation))
    bids = (vcg.CombBid(2, tuple(F(v) for v in attack)),)
    family = vcg.nature_state_family(2, (F(0), F(1)))
    expected = _certified_with(monkeypatch, table, bids, family, check)
    kind, failure = verification._handle_attack(table, bids, F(1), family, Counter())
    assert kind is expected is vcg.classify_attack(table, bids).kind
    assert failure.startswith(f"reversal state {reversal.values} on valuation")
    assert str(zero_truth.values) not in failure


@_UNREFUTED
def test_unrefuted_over_and_underbids_share_one_rule(monkeypatch, valuation, attack):
    table = vcg.CombValuation(2, tuple(F(v) for v in valuation))
    bids = (vcg.CombBid(2, tuple(F(v) for v in attack)),)
    kind = vcg.classify_attack(table, bids).kind
    family = vcg.nature_state_family(2, (F(0), F(1)))
    outcomes = {}
    for name, check in (
        ("equivalent", vcg.FamilyCheck(10, 0, None, None, None, None)),
        ("dominated", vcg.FamilyCheck(10, 2, F(1), F(1), None, None)),
        ("below", vcg.FamilyCheck(10, 2, F(0), F(1), None, None)),
    ):
        monkeypatch.undo()
        _certified_with(monkeypatch, table, bids, family, check)
        tally = Counter()
        outcomes[name] = verification._handle_attack(table, bids, F(1), family, tally), tally
    assert outcomes["equivalent"] == ((kind, None), Counter({f"{kind.value}-equivalent": 1}))
    assert outcomes["dominated"] == ((kind, None), Counter({f"{kind.value}-dominated": 1}))
    (got_kind, failure), tally = outcomes["below"]
    attempt = "unpunished overbid" if kind is vcg.AttackKind.OVERBIDDING else "unrefuted underbid"
    assert (got_kind, tally) == (kind, Counter())
    assert failure == (
        f"{attempt} with truth min 0 below attack min 1: valuation {table.values} "
        f"attack {[b.values for b in bids]}"
    )


def test_refuted_overbids_skip_the_scan_and_refuted_underbids_do_not(monkeypatch):
    # ``vcg.certify_attack`` holds the rule (tested in test_vcg); the
    # battery tallies a refuted overbid, which carries no check, and fails
    # a refuted underbid whose check finds a reversal.
    overbid = vcg.CombValuation(2, (F(0), F(1), F(1), F(2)))
    bids = (vcg.CombBid(2, (F(0), F(2), F(0), F(2))),)
    tally = Counter()
    assert verification._handle_attack(overbid, bids, F(1), (), tally) == (
        vcg.AttackKind.OVERBIDDING, None
    )
    assert tally == Counter({"overbidding-punished": 1})
    attacker = vcg.build_singleton_split_instance(F(1, 10)).profiles[0]
    reversal = vcg.CombBid(3, (F(0),) * 8)
    check = vcg.FamilyCheck(10, 1, F(0), F(1), reversal, None)
    _certified_with(monkeypatch, attacker.valuation, attacker.bids, (), check, F(1, 10))
    assert vcg.underbidding_adversary(attacker.valuation, attacker.bids, F(1, 10)).refuted
    kind, failure = verification._handle_attack(
        attacker.valuation, attacker.bids, F(1, 10), (), Counter()
    )
    assert kind is vcg.AttackKind.UNDERBIDDING
    assert failure.startswith(f"reversal state {reversal.values} on valuation")


def _raise(*args, **kwargs):
    raise RuntimeError("boom")


@pytest.mark.parametrize(
    "check, module, builder",
    [
        (verification.check_hierarchy_and_counterexamples, "instances", "leximin_proof_game"),
        (verification.check_split_pair_instance, "vcg", "build_split_pair_instance"),
        (verification.check_singleton_split_instance, "vcg", "build_singleton_split_instance"),
        (verification.check_facility_location, "mechanisms", "facility_welfare_loss_demo"),
    ],
)
def test_a_raising_check_fails_under_its_pass_name(monkeypatch, check, module, builder):
    passed = check("tiny", 0)
    assert passed.passed
    monkeypatch.setattr(getattr(verification, module), builder, _raise)
    monkeypatch.setattr(verification, "ALL_CHECKS", (check,))
    (failed,) = verification.run_all("tiny", 0)
    assert (failed.name, failed.passed) == (passed.name, False)
    assert failed.detail == "raised RuntimeError('boom')"

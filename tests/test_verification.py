"""Failure messages of the verification battery's attack dispatch."""
from collections import Counter
from fractions import Fraction

import pytest

from robustgames import vcg, verification

F = Fraction


@pytest.mark.parametrize(
    "valuation, attack",
    [
        ((0, 0, 2, 0), (0, 0, 2, 1)),  # shadowed overbid: unrefuted, scanned
        ((0, 0, 1, 1), (0, 0, 1, 0)),  # underbid: always scanned
    ],
)
def test_reversal_failure_names_the_reversal_state(monkeypatch, valuation, attack):
    reversal = vcg.CombBid(2, (F(0), F(1), F(1), F(2)))
    zero_truth = vcg.CombBid(2, (F(0), F(3), F(3), F(5)))
    check = vcg.FamilyCheck(10, 1, F(0), F(1), reversal, zero_truth)
    monkeypatch.setattr(vcg, "claim_family_check", lambda *args, **kwargs: check)
    table = vcg.CombValuation(2, tuple(F(v) for v in valuation))
    bids = (vcg.CombBid(2, tuple(F(v) for v in attack)),)
    kind, failure = verification._handle_attack(
        table, bids, F(1), vcg.nature_state_family(2, (F(0), F(1))), Counter()
    )
    assert kind is vcg.classify_attack(table, bids).kind
    assert failure.startswith(f"reversal state {reversal.values} on valuation")
    assert str(zero_truth.values) not in failure

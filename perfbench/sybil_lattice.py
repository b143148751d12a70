"""sybil-lattice: the false-name attack lattice through the ``vcg`` pipeline.

One operation takes one (true valuation, Sybil bid vector) pair through
the dispatch of the ``vcg-attack-properties`` check, rebuilt from public
``vcg`` calls: classify the attack, then refute an overbid or underbid
(scanning the nature family when no refutation is found), or certify
truth against an exact-bidding attack and check the welfare chain.

Inputs: the exhaustive 1- and 2-item lattice (values 0..2, up to two
Sybil bids: 10 962 pairs, grouped by valuation so truthful runs repeat),
then ``RANDOM_M3`` seeded random 3-item attacks that share nothing.  A
pass takes about 20 s, so a run at the benchmark's length makes one.
"""
from __future__ import annotations

import random
from fractions import Fraction
from types import SimpleNamespace

NAME = "sybil-lattice"
EPSILON = Fraction(1)
RANDOM_M3 = 250
ORACLE_SAMPLE_EVERY = 20

TALLY_KINDS = (
    "overbidding-punished",
    "overbidding-dominated",
    "overbidding-equivalent",
    "underbidding-refuted",
    "underbidding-dominated",
    "underbidding-equivalent",
    "exact-case-1",
    "exact-case-2",
    "exact-family",
)


def _random_m3(vcg, rng: random.Random, mode: int):
    """A 3-item valuation on 0..3 and a one-bid, two-bid or split attack."""
    item_count = 3
    size = 1 << item_count
    values = (Fraction(0),) + tuple(Fraction(rng.randint(0, 3)) for _ in range(size - 1))
    valuation = vcg.CombValuation(item_count, values)
    if mode == 2:
        carried = [Fraction(0)] * size
        rest = [Fraction(0)] * size
        for mask in range(1, size):
            (carried if rng.random() < 0.5 else rest)[mask] = values[mask]
        return valuation, (
            vcg.CombBid(item_count, tuple(carried)),
            vcg.CombBid(item_count, tuple(rest)),
        )
    step = vcg.bid_grid_step(EPSILON, item_count)
    bids = tuple(
        vcg.CombBid(
            item_count, (Fraction(0),) + tuple(step * rng.randint(0, 36) for _ in range(size - 1))
        )
        for _ in range(1 if mode == 0 else 2)
    )
    return valuation, bids


def setup(mods, seed: int, workdir: str):
    vcg = mods.vcg
    ops = []
    for item_count in (1, 2):
        family = vcg.nature_state_family(item_count, tuple(Fraction(k, 2) for k in range(6)))
        valuations = tuple(vcg.enumerate_valuations(item_count, EPSILON, 2))
        attacks = tuple(vcg.enumerate_attacks(item_count, EPSILON, 2, 2))
        ops.extend(
            ("lattice", item_count, valuation, bids, family)
            for valuation in valuations
            for bids in attacks
        )
    family3 = vcg.nature_state_family(3, (Fraction(0), Fraction(1), Fraction(2)))
    rng = random.Random(seed)
    for i in range(RANDOM_M3):
        valuation, bids = _random_m3(vcg, rng, i % 3)
        ops.append(("random", 3, valuation, bids, family3))
    sample = random.Random(seed + 1)
    oracle_ops = {i for i in range(len(ops)) if sample.randrange(ORACLE_SAMPLE_EVERY) == 0}
    return SimpleNamespace(ops=ops, cells=0, oracle_ops=oracle_ops)


def run(mods, inputs, op):
    vcg = mods.vcg
    _, item_count, valuation, bids, family = op
    kind = vcg.classify_attack(valuation, bids).kind
    if kind is vcg.AttackKind.OVERBIDDING:
        report = vcg.overbidding_adversary(valuation, bids, epsilon=EPSILON)
        check = None
        if not report.refuted:
            check = vcg.claim_family_check(valuation, bids, family, extra=report.tried)
        return kind, report, check
    if kind is vcg.AttackKind.UNDERBIDDING:
        report = vcg.underbidding_adversary(valuation, bids, epsilon=EPSILON)
        check = vcg.claim_family_check(valuation, bids, family, extra=report.tried)
        return kind, report, check
    certificate = vcg.truth_loss_averse_witnesses(valuation, bids, family)
    chain = vcg.verify_exact_bidding_optimal(
        [vcg.SybilProfile(valuation, bids)], item_count, epsilon=EPSILON
    )
    return kind, certificate, chain


def _values(bid) -> tuple | None:
    return None if bid is None else bid.values


def _fingerprint(kind, first, second) -> str:
    if kind.value == "exact-bidding":
        c = first
        parts = (
            kind.value, c.mode, c.family_size, c.witness_mask, _values(c.adversary),
            c.attack_utility, c.truth_utility, c.best_sybil, second,
        )
    else:
        r = first
        parts = (
            kind.value, r.witness_mask, r.tilde, _values(r.adversary), r.attack_utility,
            r.truth_utility, r.refuted, r.form, len(r.tried),
        )
        if second is not None:
            s = second
            parts += (
                s.family_size, s.difference_states, s.truth_min, s.attack_min,
                _values(s.reversal), _values(s.zero_truth_state),
            )
    return repr(parts)


def _unrefuted(what: str, check) -> tuple[str | None, str | None]:
    """Tally key for an unrefuted attack, or a failure."""
    if check.reversal is not None:
        return None, f"reversal state {check.reversal.values}"
    if check.difference_states == 0:
        return f"{what}-equivalent", None
    if check.truth_min is not None and check.truth_min >= check.attack_min:
        return f"{what}-dominated", None
    return None, f"unrefuted {what} with truth min {check.truth_min} below {check.attack_min}"


def _classify_outcome(vcg, kind, first, second) -> tuple[str | None, str | None]:
    """Check the certificate invariants; return (tally key, failure)."""
    if kind is vcg.AttackKind.OVERBIDDING:
        if first.refuted:
            if first.attack_utility < 0 <= first.truth_utility:
                return "overbidding-punished", None
            return None, f"punishment pair ({first.attack_utility}, {first.truth_utility})"
        return _unrefuted("overbidding", second)
    if kind is vcg.AttackKind.UNDERBIDDING:
        if second.reversal is not None:
            return None, f"reversal state {second.reversal.values}"
        if first.refuted:
            if first.attack_utility == 0 < first.truth_utility:
                return "underbidding-refuted", None
            return None, f"witness pair ({first.attack_utility}, {first.truth_utility})"
        return _unrefuted("underbidding", second)
    if first.mode not in ("case-1", "case-2", "family"):
        return None, f"uncertified exact attack: mode {first.mode!r}"
    if first.mode == "case-1" and not first.attack_utility == 0 < first.truth_utility:
        return None, f"case-1 pair ({first.attack_utility}, {first.truth_utility})"
    if not second.holds() or second.attack_real != second.truth_real:
        return None, f"welfare chain {second}"
    return f"exact-{first.mode}", None


def _oracle_mismatch(mods, op, first) -> str | None:
    """Welfare of the op's winner determinations against the naive search."""
    _, item_count, valuation, bids, _ = op
    profiles = [list(bids), [mods.vcg.CombBid(item_count, valuation.values)]]
    adversary = first.adversary
    if adversary is not None:
        profiles = [p + [adversary] for p in profiles] + profiles
    for profile in profiles:
        welfare, _ = mods.vcg.winner_determination(profile, item_count)
        naive, _ = mods.oracle.naive_winner_determination([b.values for b in profile], item_count)
        if welfare != naive:
            return f"winner determination {welfare} differs from the oracle {naive}"
    return None


def check(mods, inputs, index, op, result, counts):
    kind, first, second = result
    fingerprint = _fingerprint(kind, first, second)
    if counts is None:
        return fingerprint, None
    key, failure = _classify_outcome(mods.vcg, kind, first, second)
    if failure is None and index in inputs.oracle_ops:
        failure = _oracle_mismatch(mods, op, first)
    if key is not None:
        counts[f"{op[0]}.{key}"] = counts.get(f"{op[0]}.{key}", 0) + 1
    return fingerprint, failure


def work_lines(inputs, counts) -> list[str]:
    lines = []
    for part in ("lattice", "random"):
        tally = " ".join(f"{k}={counts.get(f'{part}.{k}', 0)}" for k in TALLY_KINDS)
        lines.append(f"tally.{part} {tally}")
    return lines

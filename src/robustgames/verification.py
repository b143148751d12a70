"""Cross-module verification battery.

Each check rebuilds its instances from scratch, drives the public API,
and reports one pass/fail line.  The battery is the acceptance surface:
the test suite asserts every check and the ``verify-all`` command prints
the same table.  Checks are deterministic for a fixed budget and seed;
details carry instance counts so a run can be compared byte for byte.
"""
from __future__ import annotations

import functools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import concepts, instances, mechanisms, oracle, singleitem, vcg
from .concepts import FalsifyVerdict
from .core import AgentGame, MixedAction, format_scalar
from .errors import ValidationError

BUDGETS = {
    "default": {
        "random_games": 1000,
        "fpa_bids": 100,
        "collapse_cases": 20,
        "exclusion_games": 200,
        "vcg_random": 500,
        "multi_agent_profiles": 200,
        "perturbations": 50,
    },
    "tiny": {
        "random_games": 80,
        "fpa_bids": 12,
        "collapse_cases": 5,
        "exclusion_games": 25,
        "vcg_random": 30,
        "multi_agent_profiles": 15,
        "perturbations": 8,
    },
}


def _counts(budget: str) -> dict[str, int]:
    try:
        return BUDGETS[budget]
    except KeyError:
        raise ValidationError(
            f"unknown budget {budget!r}; known: {', '.join(sorted(BUDGETS))}"
        ) from None


@dataclass(frozen=True)
class CheckResult:
    """One verification line: a stable name, a verdict, and a summary."""

    name: str
    passed: bool
    detail: str


class _Failure(str):
    """The detail line of a failed check; a check passes with a plain ``str``."""


def _check(name: str):
    """Give a check its ``verify-all`` name, on its result and as ``.name``.

    The decorated body returns its detail line; ``run_all`` reads the
    name when the body raises instead.
    """

    def named(body):
        @functools.wraps(body)
        def check(budget: str = "default", seed: int = 0) -> CheckResult:
            detail = body(budget, seed)
            return CheckResult(name, not isinstance(detail, _Failure), str(detail))

        check.name = name
        return check

    return named


def dfpa_test_grid() -> tuple[tuple[Fraction, Fraction], ...]:
    """Deterministic (value, step) pairs covering all closed-form branches.

    Per step: the zero value, two exact grid multiples, and three values
    strictly between grid points.
    """
    steps = (
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(1, 4),
        Fraction(1, 10),
        Fraction(3, 10),
        Fraction(2, 5),
    )
    pairs = []
    for eps in steps:
        for value in (
            Fraction(0),
            eps,
            2 * eps,
            3 * eps,
            4 * eps,
            eps / 2,
            5 * eps / 2,
            10 * eps / 3,
        ):
            pairs.append((value, eps))
    pairs.append((Fraction(1), Fraction(3, 10)))
    return tuple(pairs)


@_check("dfpa-loss-averse-closed-form")
def check_dfpa_loss_averse_closed_form(budget: str, seed: int) -> str:
    branches = Counter()
    pairs = dfpa_test_grid()
    for value, eps in pairs:
        want = singleitem.dfpa_loss_averse_bid(value, eps)
        game = singleitem.dfpa_game(singleitem.default_dfpa_spec(value, eps))
        got = concepts.loss_averse_actions(game)
        if got != {format_scalar(want)}:
            return _Failure(f"value {value} step {eps}: engine {sorted(got)} vs formula {want}")
        if value == 0:
            branches["zero"] += 1
        elif singleitem.eps_net(value, eps) == value:
            branches["on-grid"] += 1
        else:
            branches["off-grid"] += 1
    if not all(branches.values()):
        return _Failure(f"grid misses a branch: {dict(branches)}")
    return (
        f"{len(pairs)} pairs, singleton match on all; branches "
        f"zero={branches['zero']} on-grid={branches['on-grid']} "
        f"off-grid={branches['off-grid']}"
    )


@_check("fpa-witness-battery")
def check_fpa_witness_battery(budget: str, seed: int) -> str:
    n = _counts(budget)["fpa_bids"]
    total = 0
    for value in (Fraction(1), Fraction(7, 3)):
        for k in range(n + 1):
            bid = value * Fraction(k, n)
            witness = singleitem.fpa_no_loss_averse_witness(value, bid)
            if not singleitem.verify_fpa_witness(witness):
                return _Failure(f"witness fails re-derivation at value {value} bid {bid}")
            total += 1
    return f"{total} bids, every witness re-derived strictly"


@_check("hierarchy-arrows-and-counterexamples")
def check_hierarchy_and_counterexamples(budget: str, seed: int) -> str:
    n = _counts(budget)["random_games"]
    rng = random.Random(seed)
    observed = set()
    for _ in range(n):
        report = concepts.hierarchy_report(instances.random_game(rng))
        observed.update(report.noninclusions)

    game = instances.leximin_proof_game()
    if concepts.loss_averse_actions(game) != {"a", "b"}:
        return _Failure("leximin-proof-game loss-averse set is not {a, b}")
    if concepts.multi_leximin_actions(game) != {"b"}:
        return _Failure("leximin-proof-game multi-leximin set is not {b}")

    game = instances.dominant_leximin_game()
    if concepts.weakly_dominant_actions(game) != {"a"}:
        return _Failure("dominant-leximin game dominant set is not {a}")
    if concepts.leximin_actions(game) != {"b"}:
        return _Failure("dominant-leximin game leximin set is not {b}")

    game = instances.minmaxreg_safety_game()
    if concepts.min_max_regret_actions(game) != {"b"}:
        return _Failure("minmaxreg-safety game regret set is not {b}")
    if concepts.safety_level_actions(game) != {"a"}:
        return _Failure("minmaxreg-safety game safety set is not {a}")

    game = instances.safety_wrong_monotone_game()
    value, mixture = concepts.mixed_safety_value(game)
    if value != Fraction(3, 4):
        return _Failure(f"mixed safety value {value} is not 3/4")
    solved = concepts.mixed_safety_level_solve_2x2(game)
    want = MixedAction.from_mapping({"a": Fraction(3, 4), "b": Fraction(1, 4)})
    if solved != want or mixture != want:
        return _Failure(f"mixed safety optimum {solved} is not (a: 3/4, b: 1/4)")

    grid = concepts.loss_averse_actions(instances.aim_big_grid_game())
    exact = instances.aim_big_exact_verdicts()
    if grid != {"S"} or set(exact.loss_averse) != {"B", "S"}:
        return _Failure(
            f"grid loss-averse {sorted(grid)} vs closed form "
            f"{sorted(exact.loss_averse)}: expected {{S}} vs {{B, S}}",
        )
    return (
        f"{n} random games, zero arrow violations, "
        f"{len(observed)} permitted non-inclusions observed; "
        "5 curated separations reproduced"
    )


@_check("multi-leximin-existence")
def check_multi_leximin_existence(budget: str, seed: int) -> str:
    n = _counts(budget)["random_games"]
    rng = random.Random(seed + 1)
    for i in range(n):
        game = instances.random_game(rng)
        found = concepts.multi_leximin_actions(game)
        if not found:
            return _Failure(f"empty multi-leximin set on random game #{i}")
        if not found <= concepts.loss_averse_actions(game):
            return _Failure(f"multi-leximin escapes loss-averse on random game #{i}")
    return f"{n} random games, multi-leximin nonempty on all"


@_check("dfpa-min-max-regret")
def check_dfpa_min_max_regret(budget: str, seed: int) -> str:
    pairs = dfpa_test_grid()
    ties = 0
    for value, eps in pairs:
        want = singleitem.dfpa_min_max_regret_set(value, eps)
        game = singleitem.dfpa_game(singleitem.default_dfpa_spec(value, eps))
        got = concepts.min_max_regret_actions(game)
        if got != {format_scalar(b) for b in want}:
            return _Failure(
                f"value {value} step {eps}: engine {sorted(got)} vs formula {want}"
            )
        if singleitem.dfpa_min_max_regret_bid(value, eps) not in want:
            return _Failure(f"value {value} step {eps}: balance bid missing from {want}")
        if len(want) == 2:
            ties += 1
    return (
        f"{len(pairs)} pairs match the argmin set exactly; "
        f"{ties} exhibit the documented half-value tie"
    )


@_check("safety-collapse-family")
def check_safety_collapse_family(budget: str, seed: int) -> str:
    n = _counts(budget)["collapse_cases"]
    for k in range(1, n + 1):
        game, augmentation = instances.collapse_demo_game(k)
        if set(augmentation.epsilons) != {Fraction(1, 10), Fraction(1, 100)}:
            return _Failure(f"k={k}: unexpected mixture weights {augmentation.epsilons}")
        before_la = concepts.loss_averse_actions(game)
        before_sl = concepts.safety_level_actions(game)
        if before_la == before_sl:
            return _Failure(f"k={k}: sets already coincide before augmentation")
        augmented = concepts.augment_with_mixed_nature(game, augmentation)
        after_la = concepts.loss_averse_actions(augmented)
        after_sl = concepts.safety_level_actions(augmented)
        if after_la != after_sl:
            return _Failure(
                f"k={k}: augmented loss-averse {sorted(after_la)} differs from "
                f"safety {sorted(after_sl)}",
            )
    return f"{n} family members collapse to the safety set under both weights"


@_check("aim-big-and-star-exclusions")
def check_aim_big_and_star_exclusions(budget: str, seed: int) -> str:
    verdicts = instances.aim_big_exact_verdicts()
    if set(verdicts.loss_averse) != {"B", "S"}:
        return _Failure(f"closed-form loss-averse {sorted(verdicts.loss_averse)} is not {{B, S}}")
    if set(verdicts.loss_averse_star) != {"S"}:
        return _Failure(f"closed-form one-sided set {sorted(verdicts.loss_averse_star)} is not {{S}}")
    n = _counts(budget)["exclusion_games"]
    rng = random.Random(seed + 2)
    for i in range(n):
        game = instances.random_game(rng)
        dominated = concepts.strictly_dominated_actions(game)
        starred = concepts.loss_averse_star_actions(game)
        overlap = dominated & starred
        if overlap:
            return _Failure(
                f"random game #{i}: strictly dominated {sorted(overlap)} passed the one-sided test"
            )
    return f"closed forms match; {n} random games, no dominated action slips through"


def _core_family(item_count: int) -> tuple[vcg.CombBid, ...]:
    """Nature states for reversal and equivalence scans, half-step levels."""
    if item_count <= 2:
        levels = tuple(Fraction(k, 2) for k in range(6))
    else:
        levels = (Fraction(0), Fraction(1), Fraction(2))
    return vcg.nature_state_family(item_count, levels)


def _handle_attack(
    valuation: vcg.CombValuation,
    bids: tuple[vcg.CombBid, ...],
    epsilon: Fraction,
    family: tuple[vcg.CombBid, ...],
    tally: Counter,
) -> tuple[vcg.AttackKind, str | None]:
    """Judge and tally the attack's certificate from ``vcg.certify_attack``.

    A reversal fails the attack, even when refuted.  An unrefuted attack
    stands when it is outcome-equivalent to truth over the scan or
    dominated by it in the worst case.  Returns the attack's kind and a
    failure message, or None on success.
    """
    kind, report, check = vcg.certify_attack(valuation, bids, family, epsilon)
    if kind is vcg.AttackKind.EXACT_BIDDING:
        tally[f"exact-{report.mode}"] += 1
        return kind, None
    over = kind is vcg.AttackKind.OVERBIDDING
    if check is not None and check.reversal:
        return kind, f"reversal state {check.reversal.values} on {_attack_text(valuation, bids)}"
    if report.refuted:
        pair = f"({report.attack_utility}, {report.truth_utility})"
        if over and not report.attack_utility < 0 <= report.truth_utility:
            return kind, f"punishment pair {pair} is not (<0, >=0)"
        if not over and not (report.attack_utility == 0 and report.truth_utility > 0):
            return kind, f"witness pair {pair} is not (0, >0)"
        tally["overbidding-punished" if over else "underbidding-refuted"] += 1
        return kind, None
    if check.standing:
        tally[f"{kind.value}-{check.standing}"] += 1
        return kind, None
    attempt = "unpunished overbid" if over else "unrefuted underbid"
    return kind, (
        f"{attempt} with truth min {check.truth_min} below attack min "
        f"{check.attack_min}: {_attack_text(valuation, bids)}"
    )


def _attack_text(valuation: vcg.CombValuation, bids: tuple[vcg.CombBid, ...]) -> str:
    return f"valuation {valuation.values} attack {[b.values for b in bids]}"


def _random_m3_instance(
    rng: random.Random, mode: int
) -> tuple[vcg.CombValuation, tuple[vcg.CombBid, ...]]:
    item_count = 3
    size = 1 << item_count
    values = (Fraction(0),) + tuple(Fraction(rng.randint(0, 3)) for _ in range(size - 1))
    valuation = vcg.CombValuation(item_count, values)
    step = vcg.bid_grid_step(Fraction(1), item_count)
    if mode == 2:
        carried = [Fraction(0)] * size
        rest = [Fraction(0)] * size
        for mask in range(1, size):
            (carried if rng.random() < 1 / 2 else rest)[mask] = values[mask]
        attack = (
            vcg.CombBid(item_count, tuple(carried)),
            vcg.CombBid(item_count, tuple(rest)),
        )
    else:
        count = 1 if mode == 0 else 2
        attack = tuple(
            vcg.CombBid(
                item_count,
                (Fraction(0),)
                + tuple(step * rng.randint(0, 36) for _ in range(size - 1)),
            )
            for _ in range(count)
        )
    return valuation, attack


@_check("vcg-attack-properties")
def check_vcg_attack_properties(budget: str, seed: int) -> str:
    tally: Counter = Counter()
    epsilon = Fraction(1)
    exact_pool: list[tuple[int, vcg.SybilProfile]] = []

    for item_count in (1, 2):
        family = _core_family(item_count)
        valuations = tuple(vcg.enumerate_valuations(item_count, epsilon, 2))
        attacks = tuple(vcg.enumerate_attacks(item_count, epsilon, 2, 2))
        for valuation in valuations:
            for bids in attacks:
                kind, failure = _handle_attack(valuation, bids, epsilon, family, tally)
                if failure:
                    return _Failure(failure)
                if kind is vcg.AttackKind.EXACT_BIDDING:
                    profile = vcg.SybilProfile(valuation, bids)
                    vcg.verify_exact_bidding_optimal([profile], item_count, epsilon=epsilon)
                    exact_pool.append((item_count, profile))
                    tally["exact-welfare-single"] += 1

    rng = random.Random(seed + 3)
    pool_by_items: dict[int, list[vcg.SybilProfile]] = {}
    for item_count, profile in exact_pool:
        pool_by_items.setdefault(item_count, []).append(profile)
    for _ in range(_counts(budget)["multi_agent_profiles"]):
        item_count = rng.choice(sorted(pool_by_items))
        pool = pool_by_items[item_count]
        profiles = [rng.choice(pool) for _ in range(rng.randint(2, 3))]
        vcg.verify_exact_bidding_optimal(profiles, item_count, epsilon=epsilon)
        tally["exact-welfare-multi"] += 1

    family3 = _core_family(3)
    for i in range(_counts(budget)["vcg_random"]):
        valuation, bids = _random_m3_instance(rng, i % 3)
        _, failure = _handle_attack(valuation, bids, epsilon, family3, tally)
        if failure:
            return _Failure(failure)
        tally["random-m3"] += 1

    needed = (
        "overbidding-punished",
        "underbidding-refuted",
        "exact-case-1",
        "exact-case-2",
        "exact-welfare-single",
        "exact-welfare-multi",
    )
    missing = [key for key in needed if not tally[key]]
    if missing:
        return _Failure(f"suite never exercised: {', '.join(missing)}")
    return ", ".join(f"{key}={tally[key]}" for key in sorted(tally))


@_check("vcg-split-pair-instance")
def check_split_pair_instance(budget: str, seed: int) -> str:
    for eps in (Fraction(1, 10), Fraction(1, 100)):
        report = vcg.build_split_pair_instance(eps)
        attack, truth = report.attack_outcome, report.truthful_outcome
        got = tuple(vcg.bundle_label(mask, report.items) for mask in attack.bundles[:2])
        if got != ("a,b", "c,d"):
            return _Failure(f"eps {eps}: attack bundles {got}")
        if attack.real_welfare != 6 * eps:
            return _Failure(f"eps {eps}: real welfare {attack.real_welfare}")
        clarke, literal = attack.payments[:2], report.attack_outcome_literal.payments[:2]
        if clarke != (Fraction(18), Fraction(18)):
            return _Failure(f"eps {eps}: pivot payments {clarke}")
        if literal != (Fraction(20), Fraction(20)):
            return _Failure(f"eps {eps}: literal payments {literal}")
        if truth.observed_welfare != 18 + 6 * eps:
            return _Failure(f"eps {eps}: truthful optimum {truth.observed_welfare}")
        if truth.agent_utilities[0] != 4 * eps:
            return _Failure(f"eps {eps}: truthful utility {truth.agent_utilities[0]}")
        if report.classification.kind is not vcg.AttackKind.OVERBIDDING:
            return _Failure(f"eps {eps}: classified {report.classification.kind.value}")
        if len(report.discrepancies) != 4:
            return _Failure(f"eps {eps}: {len(report.discrepancies)} discrepancy flags")
    return (
        "both grid steps: bundles a,b / c,d, welfare 6*step, payments "
        "(18, 18) pivot and (20, 20) literal, 4 source discrepancies flagged"
    )


@_check("vcg-singleton-split-instance")
def check_singleton_split_instance(budget: str, seed: int) -> str:
    eps = Fraction(1, 10)
    report = vcg.build_singleton_split_instance(eps)
    if report.classification.kind is not vcg.AttackKind.UNDERBIDDING:
        return _Failure(f"classified {report.classification.kind.value}")
    truth_utility = report.truthful_outcome.agent_utilities[0]
    attack_utility = report.attack_outcome.agent_utilities[0]
    if truth_utility != eps:
        return _Failure(f"truthful utility {truth_utility} is not {eps}")
    if attack_utility != 2 * eps:
        return _Failure(f"attack utility {attack_utility} is not {2 * eps}")
    return "underbidding classification, truth earns step, attack earns twice that"


@_check("facility-location-closed-forms")
def check_facility_location(budget: str, seed: int) -> str:
    pairs = 0
    for n in range(2, 6):
        for k in range(0, 4 * n + 1):
            theta = Fraction(k, 4 * n)
            want = format_scalar(mechanisms.facility_loss_averse_report(theta, n))
            game = mechanisms.facility_game(
                mechanisms.FacilitySpec(n, theta, Fraction(1, 4 * n))
            )
            la = concepts.loss_averse_actions(game)
            sl = concepts.safety_level_actions(game)
            if la != {want} or sl != {want}:
                return _Failure(
                    f"n={n} theta={theta}: formula {want}, engine loss-averse "
                    f"{sorted(la)}, safety {sorted(sl)}",
                )
            pairs += 1
    for n in range(2, 11):
        demo = mechanisms.facility_welfare_loss_demo(n)
        want_loss = (Fraction(1, 2) - Fraction(1, 2 * n)) * n
        if demo.welfare_loss != want_loss:
            return _Failure(f"n={n}: welfare loss {demo.welfare_loss} is not {want_loss}")
    return (
        f"{pairs} aligned (type, n) pairs match the formula; "
        "welfare-loss demo exact for n = 2..10"
    )


_VOTING_UTILITIES = {
    2: (Fraction(1), Fraction(0)),
    3: (Fraction(1), Fraction(1, 2), Fraction(0)),
    4: (Fraction(1), Fraction(2, 3), Fraction(1, 3), Fraction(0)),
}


@_check("voting-rules")
def check_voting_rules(budget: str, seed: int) -> str:
    for n, f in _VOTING_UTILITIES.items():
        for spec in (mechanisms.plurality_spec(n, f), mechanisms.approval_spec(n, f)):
            mechanisms.voting_pareto_frontier_loss_averse(spec)

    for f in (
        (Fraction(1), Fraction(1, 2), Fraction(0)),
        (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(0)),
        (Fraction(1), Fraction(9, 10), Fraction(1, 10), Fraction(0)),
    ):
        mechanisms.plurality_mixed_equalization(f)
        mechanisms.plurality_min_max_regret(f)

    rng = random.Random(seed + 4)
    n_perturb = _counts(budget)["perturbations"]
    falsified = 0
    for i in range(n_perturb):
        f = (Fraction(1), Fraction(1, 2), Fraction(0)) if i % 2 else (
            Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(0)
        )
        game = mechanisms.psr_game(mechanisms.plurality_spec(len(f), f))
        good = mechanisms.plurality_mixed_loss_averse(f)
        entries = dict(good.entries)
        source = rng.choice(sorted(entries))
        target = rng.choice([a for a in game.actions if a != source])
        delta = entries[source] * Fraction(1, rng.randint(2, 7))
        entries[source] -= delta
        entries[target] = entries.get(target, Fraction(0)) + delta
        candidate = MixedAction.from_mapping(entries)
        result = concepts.mixed_loss_averse_falsify(game, candidate, [good])
        if result.verdict is not FalsifyVerdict.FALSIFIED:
            return _Failure(f"perturbation #{i} of {source} survived against the optimum")
        falsified += 1

    if mechanisms.approval_min_max_regret_top_k((Fraction(1), Fraction(0))) != 1:
        return _Failure("two candidates: top-k is not 1")
    k = mechanisms.approval_min_max_regret_top_k(
        (Fraction(1), Fraction(9, 10), Fraction(1, 10), Fraction(0))
    )
    if k != 2:
        return _Failure(f"regression constant moved: top-k {k} is not 2")

    aspec = mechanisms.approval_spec(3, _VOTING_UTILITIES[3])
    game = mechanisms.psr_game(aspec)
    all_but_worst = mechanisms.ballot_label((Fraction(1), Fraction(1), Fraction(0)))
    deviation = MixedAction.pure(all_but_worst)
    for ballot in game.actions:
        if ballot == all_but_worst:
            continue
        result = concepts.mixed_loss_averse_falsify(
            game, MixedAction.pure(ballot), [deviation]
        )
        if result.verdict is not FalsifyVerdict.FALSIFIED:
            return _Failure(f"approval ballot {ballot} survived the all-but-worst test")

    return (
        f"frontier lemma holds for both rules at 3 sizes; equalization exact; "
        f"{falsified} perturbed mixtures falsified; top-k regression stable"
    )


def _oracle_game_pool(budget: str, seed: int) -> list[AgentGame]:
    games: list[AgentGame] = []
    for value, eps in dfpa_test_grid():
        games.append(singleitem.dfpa_game(singleitem.default_dfpa_spec(value, eps)))
    for name in sorted(instances.CURATED_GAMES):
        games.append(instances.curated_game(name))
    for k in (1, 5, 20):
        game, augmentation = instances.collapse_demo_game(k)
        games.append(game)
        games.append(concepts.augment_with_mixed_nature(game, augmentation))
    for n in (2, 3):
        for k in range(0, 4 * n + 1, 2):
            games.append(
                mechanisms.facility_game(
                    mechanisms.FacilitySpec(n, Fraction(k, 4 * n), Fraction(1, 4 * n))
                )
            )
    for n, f in _VOTING_UTILITIES.items():
        games.append(mechanisms.psr_game(mechanisms.plurality_spec(n, f)))
        if n <= 3:
            games.append(mechanisms.psr_game(mechanisms.approval_spec(n, f)))
    rng = random.Random(seed)
    for _ in range(_counts(budget)["random_games"]):
        games.append(instances.random_game(rng))
    return games


@_check("oracle-equivalence")
def check_oracle_equivalence(budget: str, seed: int) -> str:
    games = _oracle_game_pool(budget, seed)
    for game in games:
        if oracle.naive_loss_averse(game) != concepts.loss_averse_actions(game):
            return _Failure(f"loss-averse mismatch on a {game.type_label} game")
        if oracle.naive_leximin(game, False) != concepts.leximin_actions(game):
            return _Failure(f"leximin mismatch on a {game.type_label} game")
        if oracle.naive_leximin(game, True) != concepts.multi_leximin_actions(game):
            return _Failure(f"multi-leximin mismatch on a {game.type_label} game")

    compared = 0
    for item_count in (1, 2):
        nature = vcg.nature_state_family(item_count, (Fraction(0), Fraction(1), Fraction(2)))
        for bids in vcg.enumerate_attacks(item_count, Fraction(1), 2, 2):
            for states in ((), (nature[len(nature) // 2],)):
                welfare, _ = vcg.winner_determination([*bids, *states], item_count)
                tables = [b.values for b in (*bids, *states)]
                naive_welfare, _ = oracle.naive_winner_determination(tables, item_count)
                if welfare != naive_welfare:
                    return _Failure(
                        f"welfare mismatch {welfare} vs {naive_welfare} on {tables}",
                    )
                compared += 1

    for build in (vcg.build_split_pair_instance, vcg.build_singleton_split_instance):
        instance = build(Fraction(1, 10))
        bids = [bid for profile in instance.profiles for bid in profile.bids]
        item_count = len(instance.items)
        welfare, _ = vcg.winner_determination(bids, item_count)
        naive_welfare, _ = oracle.naive_winner_determination(
            [b.values for b in bids], item_count
        )
        if welfare != naive_welfare:
            return _Failure("welfare mismatch on a curated auction instance")
        compared += 1

    return (
        f"{len(games)} games agree on three concepts; "
        f"{compared} winner determinations agree with the naive search"
    )


ALL_CHECKS = (
    check_dfpa_loss_averse_closed_form,
    check_fpa_witness_battery,
    check_hierarchy_and_counterexamples,
    check_multi_leximin_existence,
    check_dfpa_min_max_regret,
    check_safety_collapse_family,
    check_aim_big_and_star_exclusions,
    check_vcg_attack_properties,
    check_split_pair_instance,
    check_singleton_split_instance,
    check_facility_location,
    check_voting_rules,
    check_oracle_equivalence,
)


def run_all(budget: str = "default", seed: int = 0) -> tuple[CheckResult, ...]:
    """Run every check, converting an unexpected exception into a failure."""
    _counts(budget)
    results = []
    for check in ALL_CHECKS:
        try:
            results.append(check(budget, seed))
        except Exception as error:  # noqa: BLE001 - report, never hide
            results.append(CheckResult(check.name, False, f"raised {error!r}"))
    return tuple(results)

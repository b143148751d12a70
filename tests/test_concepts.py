"""Solution concept solvers, refutations, hierarchy, and mixed machinery."""
import hashlib
import pickle
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from robustgames import concepts, instances
from robustgames.concepts import (
    Concept,
    FalsifyResult,
    FalsifyVerdict,
    MixtureAugmentation,
    augment_with_mixed_nature,
    concept_verdict,
    concept_verdicts,
    format_verdict,
    hierarchy_report,
    leximin_actions,
    loss_averse_actions,
    loss_averse_star_actions,
    loss_averse_vs,
    max_regret,
    min_max_regret_actions,
    mixed_loss_averse_falsify,
    mixed_safety_level_solve_2x2,
    mixed_safety_value,
    multi_leximin_actions,
    safety_level,
    safety_level_actions,
    strictly_dominated_actions,
    verify_refutation,
    weakly_dominant_actions,
)
from robustgames.core import INF, AgentGame, MixedAction, format_game, mixed_utility
from robustgames.errors import InternalConsistencyError, ValidationError
from robustgames.mechanisms import (
    ballot_label,
    plurality_mixed_loss_averse,
    plurality_spec,
    psr_game,
)


def _game(rows, actions=None, states=None):
    actions = actions or tuple(f"r{i}" for i in range(len(rows)))
    states = states or tuple(f"s{j}" for j in range(len(rows[0])))
    table = tuple(tuple(Fraction(v) for v in row) for row in rows)
    return AgentGame("test", tuple(actions), tuple(states), table)


def test_loss_averse_vs_ignores_shared_states():
    # a and b agree on s0; only s1 and s2 decide, where a bottoms at 1 > 0.
    game = _game([[9, 1, 5], [9, 0, 7]], ("a", "b"))
    ok, refutation = loss_averse_vs(game, "a", "b")
    assert ok and refutation is None
    ok, refutation = loss_averse_vs(game, "b", "a")
    assert not ok
    assert refutation.states == ("s1", "s1")
    assert refutation.self_value == 0 and refutation.other_value == 1


def test_loss_averse_vacuous_on_identical_rows():
    game = _game([[3, 3], [3, 3]], ("a", "b"))
    assert loss_averse_actions(game) == {"a", "b"}
    assert loss_averse_star_actions(game) == {"a", "b"}


def test_curated_leximin_proof_game_sets():
    game = instances.curated_game("leximin-proof-game")
    assert loss_averse_actions(game) == {"a", "b"}
    assert multi_leximin_actions(game) == {"b"}
    assert leximin_actions(game) == {"b"}


def test_curated_dominant_leximin_separation():
    game = instances.curated_game("dominant-leximin")
    assert weakly_dominant_actions(game) == {"a"}
    assert leximin_actions(game) == {"b"}


def test_curated_minmaxreg_safety_separation():
    game = instances.curated_game("minmaxreg-safety")
    assert min_max_regret_actions(game) == {"b"}
    assert safety_level_actions(game) == {"a"}
    assert "b" not in safety_level_actions(game)


def test_safety_level_and_ir():
    game = _game([[2, -1], [0, 0], [5, 1]], ("a", "b", "c"))
    assert safety_level(game) == 1
    assert safety_level_actions(game) == {"c"}
    assert concept_verdict(game, Concept.INDIVIDUALLY_RATIONAL).satisfying == ("b", "c")


def test_weakly_dominant_and_dominated():
    # Domination is weak everywhere plus strict somewhere, so both b and
    # c fall to a despite their ties.
    game = _game([[1, 2], [1, 1], [0, 2]], ("a", "b", "c"))
    assert weakly_dominant_actions(game) == {"a"}
    assert strictly_dominated_actions(game) == {"b", "c"}
    ties = _game([[1, 0], [0, 1]], ("a", "b"))
    assert weakly_dominant_actions(ties) == set()
    assert strictly_dominated_actions(ties) == set()


def test_leximin_multiset_vs_set_comparison():
    # Profiles: a -> (0, 0, 2), b -> (0, 1, 1).  As value sets {0, 2} vs
    # {0, 1}: a wins at the second distinct value.  As multisets b wins.
    game = _game([[0, 0, 2], [0, 1, 1]], ("a", "b"))
    assert leximin_actions(game) == {"a"}
    assert multi_leximin_actions(game) == {"b"}


def test_max_regret_and_min_max_regret():
    game = _game([[4, 0], [2, 3]], ("a", "b"))
    assert max_regret(game, "a") == 3
    assert max_regret(game, "b") == 2
    assert min_max_regret_actions(game) == {"b"}


def _verdicts():
    """Every concept's verdict on the curated games and 40 seeded random ones,
    one concept per call and all nine in one call, with loss aversion
    before loss aversion* and after it."""
    rng = random.Random(7)
    games = [instances.curated_game(name) for name in sorted(instances.CURATED_GAMES)]
    games += [instances.random_game(rng) for _ in range(40)]
    for game in games:
        for concept in Concept:
            yield game, concept_verdict(game, concept)
        for chosen in (tuple(Concept), tuple(reversed(Concept))):
            for verdict in concept_verdicts(game, chosen):
                yield game, verdict


def test_concept_verdicts_carry_verifiable_refutations():
    for game, verdict in _verdicts():
        text = format_verdict(game, verdict)
        assert text.startswith(f"verdict v1\nconcept {verdict.concept.value}\n")
        for refutation in verdict.refutations:
            assert verify_refutation(game, verdict.concept, refutation)


def _bumped(value):
    return Fraction(0) if value is INF else value + 1


def _tampered(game, ref):
    """Refutations that differ from ``ref`` in one field."""
    yield replace(ref, states=())
    if len(game.states) > 1:
        shifted = game.states[(game.state_index(ref.states[0]) + 1) % len(game.states)]
        yield replace(ref, states=(shifted,) + ref.states[1:])
    yield replace(ref, self_value=_bumped(ref.self_value))
    yield replace(ref, other_value=_bumped(ref.other_value))
    yield replace(ref, competitor=ref.action)
    yield replace(ref, competitor=None if ref.competitor else game.actions[0])
    yield replace(ref, competitor="no-such-action")


def test_tampered_refutations_do_not_verify():
    checked = 0
    for game, verdict in _verdicts():
        for refutation in verdict.refutations:
            for tampered in _tampered(game, refutation):
                assert tampered != refutation
                assert verify_refutation(game, verdict.concept, tampered) is False, tampered
                checked += 1
    assert checked > 1000


def _tiny_games():
    """Seeded tie-heavy tables up to 4 x 4 over {-1, 0, 1}, then seeded
    ``instances.random_game`` tables (up to 6 x 6 over -5..5)."""
    rng = random.Random(21)
    for _ in range(400):
        n_actions, n_states = rng.randint(1, 4), rng.randint(1, 4)
        yield _game([[rng.choice((-1, 0, 1)) for _ in range(n_states)] for _ in range(n_actions)])
    for _ in range(400):
        yield instances.random_game(rng)


# sha256 of the transcript below, recorded before the concept scans became
# plain loops: every verdict one concept per call and all nine in one call
# (loss aversion* first), then the hierarchy report's sets and non-inclusions.
_TINY_TABLES_SHA256 = "906cf44e027f0aa8deb0811d63e10a2a0194445060f8bfe23cabcefed10e36ae"


def test_tiny_tables_match_their_recorded_digest():
    parts = []
    for game in _tiny_games():
        singles = [concept_verdict(game, concept) for concept in Concept]
        for verdict in singles + concept_verdicts(game, tuple(reversed(Concept))):
            parts.append(format_verdict(game, verdict))
        report = hierarchy_report(game)
        parts.extend(f"{c.value}: {' '.join(members)}\n" for c, members in report.sets)
        parts.extend(f"{src.value} !<= {dst.value}\n" for src, dst in report.noninclusions)
    digest = hashlib.sha256("".join(parts).encode()).hexdigest()
    assert digest == _TINY_TABLES_SHA256


def test_concepts_hash_by_identity_and_look_up_as_before():
    """``Concept`` hashes by identity: a member built from its value, or
    read back from a pickle, is the same object, so it finds every dict and
    set entry its name finds."""
    table = {concept: concept.value for concept in Concept}
    members = set(Concept)
    for concept in Concept:
        for again in (Concept(concept.value), pickle.loads(pickle.dumps(concept))):
            assert again is concept and hash(again) == hash(concept)
            assert table[again] == concept.value and again in members
        assert concepts._INEQUALITIES[Concept(concept.value)] is concepts._INEQUALITIES[concept]
    assert len(members) == len(table) == len(concepts._INEQUALITIES) == 9
    game = instances.curated_game("leximin-proof-game")
    report = hierarchy_report(game)
    for concept, satisfying in report.sets:
        assert report.actions(Concept(concept.value)) == satisfying
        assert satisfying == concept_verdict(game, Concept(concept.value)).satisfying


def test_hierarchy_arrows_on_random_games():
    rng = random.Random(11)
    for _ in range(60):
        report = hierarchy_report(instances.random_game(rng))
        dominant = set(report.actions(Concept.WEAKLY_DOMINANT))
        la = set(report.actions(Concept.LOSS_AVERSE))
        assert dominant <= la <= set(report.actions(Concept.SAFETY_LEVEL))
        assert set(report.actions(Concept.MULTI_LEXIMIN)) <= la
        assert set(report.actions(Concept.LEXIMIN)) <= set(report.actions(Concept.SAFETY_LEVEL))
        assert dominant <= set(report.actions(Concept.MIN_MAX_REGRET))
        assert set(report.actions(Concept.MULTI_LEXIMIN))


def test_hierarchy_report_names_a_missing_concept_by_its_value():
    report = hierarchy_report(instances.curated_game("leximin-proof-game"))
    with pytest.raises(ValidationError) as info:
        report.actions(Concept.LOSS_AVERSE_STAR)
    assert str(info.value) == "loss-averse-star not in report"


_SET_FUNCTIONS = (
    loss_averse_actions,
    loss_averse_star_actions,
    safety_level_actions,
    weakly_dominant_actions,
    strictly_dominated_actions,
    leximin_actions,
    multi_leximin_actions,
    min_max_regret_actions,
)


def test_concept_sets_build_no_refutation(monkeypatch):
    """The hierarchy and the set functions read only whether each action is
    refuted, so they build no ``Refutation``; the verdicts of the same
    concepts on the same games build many, through the same counter."""
    built = []
    build = concepts.Refutation.__init__

    def counted(self, *fields):
        built.append(fields)
        build(self, *fields)

    monkeypatch.setattr(concepts.Refutation, "__init__", counted)
    rng = random.Random(29)
    games = [instances.curated_game(name) for name in sorted(instances.CURATED_GAMES)]
    games += [instances.random_game(rng) for _ in range(50)]
    for game in games:
        hierarchy_report(game)
        for function in _SET_FUNCTIONS:
            function(game)
    assert built == []
    for game in games:
        concept_verdicts(game, Concept)
    assert len(built) > len(games)


def test_star_refines_and_never_admits_dominated():
    rng = random.Random(13)
    for _ in range(60):
        game = instances.random_game(rng)
        assert loss_averse_star_actions(game) & strictly_dominated_actions(game) == set()


def test_aim_big_closed_forms():
    verdicts = instances.aim_big_exact_verdicts()
    assert verdicts.loss_averse == frozenset({"B", "S"})
    assert verdicts.loss_averse_star == frozenset({"S"})
    grid = instances.aim_big_grid_game()
    assert loss_averse_actions(grid) == {"S"}
    assert loss_averse_star_actions(grid) == {"S"}


def test_mixed_safety_value_beats_pure_on_wrong_monotone():
    game = instances.curated_game("safety-wrong-monotone")
    value, mixture = mixed_safety_value(game)
    assert value == Fraction(3, 4)
    assert value > safety_level(game)
    assert mixture == MixedAction.from_mapping({"a": "3/4", "b": "1/4"})
    assert mixed_safety_level_solve_2x2(game) == mixture


def test_mixed_safety_prefers_the_first_pure_action_at_the_value():
    # b and c both guarantee the value 1, and c weakly dominates b.
    game = _game([[0, 5], [1, 1], [1, 3]], ("a", "b", "c"))
    assert mixed_safety_value(game) == (1, MixedAction.pure("b"))
    same = _game([[2, -1, 0]] * 3, ("a", "b", "c"))
    assert mixed_safety_value(same) == (-1, MixedAction.pure("a"))


@pytest.mark.parametrize(
    "solved",
    [
        # The value and nature's mixture are right, the agent's is pure a.
        (Fraction(3, 4), (Fraction(1), Fraction(0)), (Fraction(3, 4), Fraction(1, 4))),
        # Pure a's worst case as the value: against nature's mixture both
        # actions earn more.
        (Fraction(0), (Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(1, 2))),
        # Not a distribution.
        (Fraction(3, 4), (Fraction(1), Fraction(1)), (Fraction(3, 4), Fraction(1, 4))),
    ],
)
def test_mixed_safety_certificate_rejects_a_suboptimal_solve(monkeypatch, solved):
    game = instances.curated_game("safety-wrong-monotone")
    monkeypatch.setattr(concepts, "_bland_optimum", lambda g: solved)
    with pytest.raises(InternalConsistencyError):
        mixed_safety_value(game)


def test_mixed_safety_solves_a_12x16_game():
    """Far past the 2^A x 2^S support enumeration (2^28 candidate systems)."""
    rng = random.Random(12)
    game = _game([[rng.randint(-20, 20) for _ in range(16)] for _ in range(12)])
    value, mixture = mixed_safety_value(game)
    assert min(mixed_utility(game, mixture, s) for s in game.states) == value
    assert value >= safety_level(game)


def test_falsifier_minima_match_the_mixed_utilities():
    """Field for field what a recomputation with ``mixed_utility`` gives."""
    for f in (
        (Fraction(1), Fraction(1, 2), Fraction(0)),
        (Fraction(1), Fraction(7, 10), Fraction(1, 5), Fraction(0)),
    ):
        spec = plurality_spec(len(f), f)
        game = psr_game(spec)
        good = plurality_mixed_loss_averse(f)
        pures = [MixedAction.pure(ballot_label(v)) for v in spec.permissible_vectors]
        weights = {label: Fraction(5, 7) * p for label, p in good.entries}
        last = pures[-1].entries[0][0]
        weights[last] = weights.get(last, 0) + Fraction(2, 7)
        skewed = MixedAction.from_mapping(weights)
        for candidate in pures + [good, skewed]:
            for deviations in ([good], pures, [good] + pures):
                result = mixed_loss_averse_falsify(game, candidate, deviations)
                assert result == _recomputed_falsify(game, candidate, deviations)


def _recomputed_falsify(game, candidate, deviations):
    cand = [mixed_utility(game, candidate, s) for s in game.states]
    for dev in deviations:
        other = [mixed_utility(game, dev, s) for s in game.states]
        diff = [j for j in range(len(cand)) if cand[j] != other[j]]
        if not diff:
            continue
        jc = min(diff, key=cand.__getitem__)
        jd = min(diff, key=other.__getitem__)
        if cand[jc] < other[jd]:
            return FalsifyResult(
                FalsifyVerdict.FALSIFIED,
                len(deviations),
                dev,
                cand[jc],
                other[jd],
                game.states[jc],
                game.states[jd],
            )
    return FalsifyResult(FalsifyVerdict.SURVIVED_FAMILY, len(deviations))


def test_mixed_falsification_finds_counterexample():
    game = instances.curated_game("leximin-proof-game")
    pure_a = MixedAction.from_mapping({"a": 1})
    pure_b = MixedAction.from_mapping({"b": 1})
    result = mixed_loss_averse_falsify(game, pure_a, [pure_a, pure_b])
    # a loses the multiset comparison but survives loss-aversion, so the
    # pure family cannot falsify it.
    assert result.verdict is FalsifyVerdict.SURVIVED_FAMILY
    skewed = _game([[0, 0], [1, 1]], ("a", "b"))
    result = mixed_loss_averse_falsify(
        skewed, MixedAction.from_mapping({"a": 1}), [MixedAction.from_mapping({"b": 1})]
    )
    assert result.verdict is FalsifyVerdict.FALSIFIED
    assert result.candidate_min == 0 and result.deviation_min == 1


def test_collapse_augmentation_equates_loss_averse_and_safety():
    for k in (1, 4, 9):
        game, augmentation = instances.collapse_demo_game(k)
        assert set(augmentation.epsilons) == {Fraction(1, 10), Fraction(1, 100)}
        assert loss_averse_actions(game) != safety_level_actions(game)
        bigger = augment_with_mixed_nature(game, augmentation)
        assert loss_averse_actions(bigger) == safety_level_actions(bigger)
        # The collapse hinges on the 1/100 state hitting the refuting
        # minimum exactly; the 1/10 state alone changes nothing.
        fine = MixtureAugmentation(
            augmentation.bar_state, augmentation.floor_state, (Fraction(1, 100),)
        )
        assert loss_averse_actions(
            augment_with_mixed_nature(game, fine)
        ) == safety_level_actions(game)
        coarse = MixtureAugmentation(
            augmentation.bar_state, augmentation.floor_state, (Fraction(1, 10),)
        )
        assert loss_averse_actions(
            augment_with_mixed_nature(game, coarse)
        ) == loss_averse_actions(game)


def test_curated_and_collapse_games_match_their_recorded_digest():
    # sha256 of the game documents, recorded before the games were written
    # as utility rows.
    games = [instances.curated_game(name) for name in sorted(instances.CURATED_GAMES)]
    games += [instances.collapse_demo_game(k)[0] for k in range(1, 21)]
    assert all(type(v) is Fraction for game in games for row in game.rows for v in row)
    text = "".join(map(format_game, games))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "ab67a0d2222fa5973d25703a7e22ac62d1eda48eb8ae3f19d36106e3ea8058af"


def test_augmentation_adds_labeled_states():
    game, augmentation = instances.collapse_demo_game(2)
    bigger = augment_with_mixed_nature(game, augmentation)
    added = set(bigger.states) - set(game.states)
    assert added and all(label.startswith("mix-") for label in added)
    assert set(bigger.actions) == set(game.actions)
    assert augment_with_mixed_nature(game, replace(augmentation, epsilons=())) == game


def test_solve_2x2_pure_shortcut_and_shape_guard():
    pure = _game([[1, 1], [0, 2]], ("a", "b"))
    assert mixed_safety_level_solve_2x2(pure) == MixedAction.pure("a")
    interior = _game([[2, 0], [0, 1]], ("a", "b"))
    assert mixed_safety_level_solve_2x2(interior) == MixedAction.from_mapping(
        {"a": "1/3", "b": "2/3"}
    )
    with pytest.raises(ValidationError):
        mixed_safety_level_solve_2x2(_game([[1, 1, 1], [0, 0, 0]], ("a", "b")))

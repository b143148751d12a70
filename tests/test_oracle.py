"""Brute-force oracle agreement with the engine implementations."""
import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustgames import concepts, instances, oracle
from robustgames.concepts import (
    Concept,
    FalsifyVerdict,
    Refutation,
    _Leximin,
    _LossAverse,
    _StrictlyDominated,
    concept_verdict,
    concept_verdicts,
    hierarchy_report,
    leximin_actions,
    loss_averse_actions,
    mixed_loss_averse_falsify,
    multi_leximin_actions,
    verify_refutation,
)
from robustgames.core import INF, AgentGame, MixedAction, mixed_utility
from robustgames.errors import CapacityError, InternalConsistencyError
from robustgames.oracle import (
    naive_leximin,
    naive_loss_averse,
    naive_tie_broken_assignment,
    naive_winner_determination,
)
from robustgames.vcg import (
    PRECOMPUTED_ORDER_BOUND,
    AttackKind,
    CombBid,
    CombValuation,
    FamilyCheck,
    PaymentRule,
    SybilProfile,
    _attack_runs,
    _partition_table,
    _scaled,
    _sybil_side,
    _tie_broken_assignment,
    _truth_utility,
    best_partition_value,
    bid_grid_step,
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
    winner_determination,
)

F = Fraction


def _bundles(assignment, bid_count):
    """Each bid's bundle under an assignment of items to owners (-1: none)."""
    bundles = [0] * bid_count
    for item, owner in enumerate(assignment):
        if owner >= 0:
            bundles[owner] |= 1 << item
    return tuple(bundles)


def _game_pool():
    games = [instances.curated_game(name) for name in sorted(instances.CURATED_GAMES)]
    games.append(instances.aim_big_grid_game())
    rng = random.Random(42)
    games += [instances.random_game(rng) for _ in range(150)]
    return games


def test_concept_solvers_match_naive_search():
    for game in _game_pool():
        assert loss_averse_actions(game) == naive_loss_averse(game)
        assert leximin_actions(game) == naive_leximin(game, with_multiplicities=False)
        assert multi_leximin_actions(game) == naive_leximin(game, with_multiplicities=True)


# Each concept's engine set function and its naive oracle.
_CONCEPT_ROUTES = {
    Concept.LOSS_AVERSE: (concepts.loss_averse_actions, oracle.naive_loss_averse),
    Concept.LOSS_AVERSE_STAR: (concepts.loss_averse_star_actions, oracle.naive_loss_averse_star),
    Concept.SAFETY_LEVEL: (concepts.safety_level_actions, oracle.naive_safety_level),
    Concept.INDIVIDUALLY_RATIONAL: (
        lambda g: set(concept_verdict(g, Concept.INDIVIDUALLY_RATIONAL).satisfying),
        oracle.naive_individually_rational,
    ),
    Concept.WEAKLY_DOMINANT: (concepts.weakly_dominant_actions, oracle.naive_weakly_dominant),
    Concept.STRICTLY_DOMINATED: (
        concepts.strictly_dominated_actions,
        oracle.naive_strictly_dominated,
    ),
    Concept.LEXIMIN: (concepts.leximin_actions, lambda g: naive_leximin(g, False)),
    Concept.MULTI_LEXIMIN: (concepts.multi_leximin_actions, lambda g: naive_leximin(g, True)),
    Concept.MIN_MAX_REGRET: (concepts.min_max_regret_actions, oracle.naive_min_max_regret),
}


# Values mix denominators 1, 2, 3 and 7 with numerators up to 10**15 in
# size, so only the true common denominator scales them without error.
_GAME_VALUES = st.builds(
    Fraction,
    st.one_of(st.integers(-3, 3), st.integers(-10**15, 10**15)),
    st.sampled_from((1, 2, 3, 7)),
)


@st.composite
def _small_games(draw, max_actions=5, max_states=5):
    """Games of at most 5 x 5 (by default) over a pool of at most five
    values, so rows and minima tie often."""
    n_actions = draw(st.integers(1, max_actions))
    n_states = draw(st.integers(1, max_states))
    values = st.sampled_from(draw(st.lists(_GAME_VALUES, min_size=1, max_size=5)))
    rows = tuple(
        tuple(draw(values) for _ in range(n_states)) for _ in range(n_actions)
    )
    actions = tuple(f"a{i}" for i in range(n_actions))
    states = tuple(f"s{j}" for j in range(n_states))
    return AgentGame("generated", actions, states, rows)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_small_games())
def test_every_concept_matches_its_oracle(game):
    _assert_matches_the_oracle(game)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_small_games(max_actions=4, max_states=5))
def test_mixed_safety_matches_the_support_enumeration(game):
    value, mixture = concepts.mixed_safety_value(game)
    naive_value, naive_mixture = oracle.naive_mixed_safety_value(game)
    assert value == naive_value
    for witness in (mixture, naive_mixture):
        assert min(mixed_utility(game, witness, s) for s in game.states) == value
    # The oracle keeps a pure action unless a mixture guarantees strictly
    # more, so a pure oracle witness is the first pure action at the value.
    if len(naive_mixture.entries) == 1:
        assert mixture == naive_mixture


def test_table_over_forty_primes_matches_the_oracle():
    """Cells +-1/p for the first 40 primes p: the common denominator is their
    product, and a scale that leaves out any of them merges or reorders cells."""
    primes = [p for p in range(2, 174) if all(p % q for q in range(2, p))]
    assert len(primes) == 40
    rng = random.Random(3)
    cells = [F(rng.choice((-1, 1)), p) for p in primes]
    rng.shuffle(cells)
    rows = tuple(tuple(cells[5 * i:5 * i + 5]) for i in range(8))
    # A copy of the first row with one cell changed: two rows that differ
    # on one state only.
    rows += (rows[0][:4] + (rows[1][0],),)
    game = AgentGame(
        "primes", tuple(f"a{i}" for i in range(9)), tuple(f"s{j}" for j in range(5)), rows
    )
    assert game.scaled[0] == math.prod(primes)
    _assert_matches_the_oracle(game)


def _assert_matches_the_oracle(game):
    """Every concept's verdict, set function and hierarchy entry equal the
    oracle's set, and every refutation verifies."""
    assert set(_CONCEPT_ROUTES) == set(Concept)
    sets = {}
    for concept, (engine_set, naive_set) in _CONCEPT_ROUTES.items():
        verdict = concept_verdict(game, concept)
        satisfying = set(verdict.satisfying)
        assert satisfying == naive_set(game) == engine_set(game)
        refuted = [ref.action for ref in verdict.refutations]
        expected = (
            satisfying
            if concept is Concept.STRICTLY_DOMINATED
            else set(game.actions) - satisfying
        )
        assert len(refuted) == len(set(refuted)) and set(refuted) == expected
        for ref in verdict.refutations:
            assert verify_refutation(game, concept, ref)
        sets[concept] = satisfying
    report = hierarchy_report(game)
    for concept, members in report.sets:
        assert set(members) == sets[concept]
    for src, dst in report.arrows:
        assert sets[src] <= sets[dst]


def _first_argmin(row, indices):
    low = min(row[j] for j in indices)
    return next(j for j in indices if row[j] == low)


def _naive_loss_averse_witness(game, concept, i, k):
    """The refutation of action ``i`` by rival ``k`` under LA or LA*, from
    the literal definition: the first states attaining the minima over the
    difference set (LA) or over the two down-sets (LA*), or None."""
    ra, rb = game.rows[i], game.rows[k]
    states = range(len(game.states))
    if concept is Concept.LOSS_AVERSE:
        own = other = [j for j in states if ra[j] != rb[j]]
    else:
        own = [j for j in states if ra[j] < rb[j]]
        other = [j for j in states if rb[j] < ra[j]]
    if not own:
        return None
    ja = _first_argmin(ra, own)
    if not other:
        return Refutation(game.actions[i], game.actions[k], (game.states[ja],), ra[ja], INF)
    jb = _first_argmin(rb, other)
    if ra[ja] >= rb[jb]:
        return None
    labels = (game.states[ja], game.states[jb])
    return Refutation(game.actions[i], game.actions[k], labels, ra[ja], rb[jb])


def _naive_leximin_witness(game, concept, i, k):
    """The refutation of action ``i`` by rival ``k`` under (multi-)leximin,
    by literal minimum stripping: each round compares the two minima and
    strips one copy (multi-leximin) or the value (leximin); an exhausted
    sequence's minimum is ``INF``.  The first round whose minima differ
    decides, and each value's state is the first state attaining it."""
    xs, ys = list(game.rows[i]), list(game.rows[k])
    if concept is Concept.LEXIMIN:
        xs, ys = list(set(xs)), list(set(ys))
    while xs or ys:
        own, other = min(xs, default=INF), min(ys, default=INF)
        if own != other:
            break
        xs.remove(own)
        ys.remove(other)
    else:
        return None
    if not own < other:
        return None
    ja = game.rows[i].index(own)
    if other == INF:
        return Refutation(game.actions[i], game.actions[k], (game.states[ja],), own, INF)
    jb = game.rows[k].index(other)
    labels = (game.states[ja], game.states[jb])
    return Refutation(game.actions[i], game.actions[k], labels, own, other)


def _naive_domination_certificate(game, concept, i, k):
    """Rival ``k``'s certificate that it strictly dominates action ``i``: the
    first state where it is better, when it is nowhere worse, or None."""
    ra, rb = game.rows[i], game.rows[k]
    if any(y < x for x, y in zip(ra, rb)):
        return None
    j = next((j for j, (x, y) in enumerate(zip(ra, rb)) if y > x), None)
    if j is None:
        return None
    return Refutation(game.actions[i], game.actions[k], (game.states[j],), ra[j], rb[j])


def _literal_first_refutations(game, concept, witness):
    """Each action's literal refutation by its first refuting rival in table order."""
    expected = []
    for i in range(len(game.actions)):
        rivals = (k for k in range(len(game.actions)) if k != i)
        found = (witness(game, concept, i, k) for k in rivals)
        if (ref := next((ref for ref in found if ref), None)) is not None:
            expected.append(ref)
    return tuple(expected)


def _assert_loss_averse_witnesses_are_literal(game):
    """Each LA and LA* refutation is the literal one by the first rival in
    table order that refutes, whether each scans its own pairs or reads
    its rivals from the other's scan, and the mixed falsifier finds the
    same LA witness between pure actions."""
    for concept in (Concept.LOSS_AVERSE, Concept.LOSS_AVERSE_STAR):
        expected = _literal_first_refutations(game, concept, _naive_loss_averse_witness)
        assert concept_verdict(game, concept).refutations == expected
    routed = concept_verdicts(game, (Concept.LOSS_AVERSE_STAR, Concept.LOSS_AVERSE))
    assert routed == [concept_verdict(game, v.concept) for v in routed]
    for i, a in enumerate(game.actions):
        for k, b in enumerate(game.actions):
            ref = _naive_loss_averse_witness(game, Concept.LOSS_AVERSE, i, k)
            result = mixed_loss_averse_falsify(game, MixedAction.pure(a), [MixedAction.pure(b)])
            found = (result.candidate_state, result.deviation_state)
            assert (result.verdict is FalsifyVerdict.FALSIFIED) is (ref is not None)
            assert ref is None or found == ref.states


def _assert_first_rivals_are_literal(game):
    """Each leximin, multi-leximin and strict-domination refutation is the
    literal one by the first rival in table order, alone or in one call
    with every other concept, in either order."""
    for concept, witness in (
        (Concept.LEXIMIN, _naive_leximin_witness),
        (Concept.MULTI_LEXIMIN, _naive_leximin_witness),
        (Concept.STRICTLY_DOMINATED, _naive_domination_certificate),
    ):
        expected = _literal_first_refutations(game, concept, witness)
        assert concept_verdict(game, concept).refutations == expected
    alone = [concept_verdict(game, c) for c in Concept]
    assert concept_verdicts(game, Concept) == alone
    assert concept_verdicts(game, reversed(Concept)) == alone[::-1]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_small_games())
def test_loss_averse_witnesses_match_the_definition(game):
    _assert_loss_averse_witnesses_are_literal(game)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_small_games())
def test_order_key_and_domination_rivals_match_the_definition(game):
    _assert_first_rivals_are_literal(game)


@st.composite
def _wide_games(draw, n_actions=3, n_states=40):
    """Rows that agree on their lowest states: every row holds the same
    values on a shared block of at least 30 states, below or tied with
    the rest, so the first state where two rows differ lies deep in each
    row's state order."""
    shared = draw(st.integers(30, n_states - 1))
    positions = draw(st.permutations(range(n_states)))
    low = draw(st.lists(st.integers(-3, -1), min_size=shared, max_size=shared))
    rest = st.lists(st.integers(-1, 2), min_size=n_states - shared, max_size=n_states - shared)
    rows = []
    for _ in range(n_actions):
        row = [F(0)] * n_states
        for p, v in zip(positions, low + draw(rest)):
            row[p] = F(v)
        rows.append(tuple(row))
    actions = tuple(f"a{i}" for i in range(n_actions))
    states = tuple(f"s{j}" for j in range(n_states))
    return AgentGame("wide", actions, states, tuple(rows))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_wide_games())
def test_loss_averse_witnesses_on_rows_that_agree_on_their_lowest_states(game):
    _assert_loss_averse_witnesses_are_literal(game)
    _assert_first_rivals_are_literal(game)


@st.composite
def _tie_heavy_games(draw):
    """One row or one column of up to 20 cells, or a table of up to 8 x 12,
    over at most three values; some rows copy earlier ones, some are constant."""
    shape = draw(st.sampled_from(("row", "column", "table")))
    n_actions = 1 if shape == "row" else draw(st.integers(1, 8 if shape == "table" else 20))
    n_states = 1 if shape == "column" else draw(st.integers(1, 12 if shape == "table" else 20))
    values = st.sampled_from(draw(st.lists(_GAME_VALUES, min_size=1, max_size=3)))
    rows = []
    for i in range(n_actions):
        kind = draw(st.sampled_from(("fresh", "fresh", "copy", "constant")))
        if kind == "copy" and rows:
            rows.append(rows[draw(st.integers(0, i - 1))])
        elif kind == "constant":
            rows.append((draw(values),) * n_states)
        else:
            rows.append(tuple(draw(values) for _ in range(n_states)))
    actions = tuple(f"a{i}" for i in range(n_actions))
    states = tuple(f"s{j}" for j in range(n_states))
    return AgentGame("ties", actions, states, tuple(rows))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(_tie_heavy_games(), _wide_games(n_actions=4)))
def test_loss_aversion_and_its_star_refute_the_same_pairs(game):
    """On a finite game LA and LA* refute exactly the same ordered pairs, so
    LA*'s pair, decided by LA's rule, is the literal one-sided witness."""
    star = _LossAverse(game, one_sided=True)
    for i in range(len(game.actions)):
        for k in range(len(game.actions)):
            literal = _naive_loss_averse_witness(game, Concept.LOSS_AVERSE_STAR, i, k)
            assert star.pair(i, k) == literal, (i, k)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_tie_heavy_games())
def test_rerouted_concepts_match_the_definition_on_tie_heavy_tables(game):
    _assert_loss_averse_witnesses_are_literal(game)
    _assert_first_rivals_are_literal(game)


def test_loss_aversion_falls_through_a_larger_key_that_does_not_refute():
    """a1's ascending row (0, 3, 4) is the first above a0's (0, 3, 3), but
    both rows' worst difference value is 0; a2 (1, 1, 1) refutes a0."""
    rows = tuple(tuple(map(F, row)) for row in ((0, 3, 3), (3, 0, 4), (1, 1, 1)))
    game = AgentGame("t", ("a0", "a1", "a2"), ("s0", "s1", "s2"), rows)
    for concept in (Concept.LOSS_AVERSE, Concept.LOSS_AVERSE_STAR):
        inequality = _LossAverse(game, one_sided=concept is Concept.LOSS_AVERSE_STAR)
        assert list(inequality.rivals(0)) == [1, 2]
        assert inequality.pair(0, 1) is None
        first = concept_verdict(game, concept).refutations[0]
        assert (first.action, first.competitor) == ("a0", "a2")
        assert first == _naive_loss_averse_witness(game, concept, 0, 2)


def test_strict_dominance_skips_only_unique_column_maxima():
    """a0 and a1 are the same row and tie with a2 at column s0's maximum,
    so they are still tested, and a2 dominates both; a2 and a3 are the
    unique maxima of columns s1 and s2, so no rival is tested for them.
    Two identical rows that share a column's maximum are not unique there
    either."""
    rows = tuple(
        tuple(map(F, row)) for row in ((3, 0, 1), (3, 0, 1), (3, 1, 1), (0, 0, 2))
    )
    game = AgentGame("t", ("a0", "a1", "a2", "a3"), ("s0", "s1", "s2"), rows)
    inequality = _StrictlyDominated(game)
    assert inequality.unbeaten == {2, 3}
    assert list(inequality.rivals(0)) == [2] and list(inequality.rivals(1)) == [2]
    assert list(inequality.rivals(2)) == [] and list(inequality.rivals(3)) == []
    verdict = concept_verdict(game, Concept.STRICTLY_DOMINATED)
    assert verdict.satisfying == ("a0", "a1")
    assert [(r.action, r.competitor) for r in verdict.refutations] == [("a0", "a2"), ("a1", "a2")]
    assert oracle.naive_strictly_dominated(game) == {"a0", "a1"}
    # Two identical rows alone at column s0's maximum: neither is unique there.
    rows = tuple(tuple(map(F, row)) for row in ((3, 0), (3, 0), (0, 1)))
    game = AgentGame("t", ("a0", "a1", "a2"), ("s0", "s1"), rows)
    assert _StrictlyDominated(game).unbeaten == {2}
    assert concept_verdict(game, Concept.STRICTLY_DOMINATED).satisfying == ()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(_tie_heavy_games(), _wide_games(n_actions=4)))
def test_refuting_rivals_have_strictly_larger_keys(game):
    """The lemmas the rival routes rest on, read off the literal
    definitions: every LA and LA* competitor's ascending row is strictly
    larger than the action's, every strict dominator's row sum is, and no
    row that is the unique maximum of a column is dominated."""
    rows = game.rows
    unique_maxima = {
        column.index(max(column)) for column in zip(*rows) if column.count(max(column)) == 1
    }
    for i in range(len(rows)):
        for k in range(len(rows)):
            for concept in (Concept.LOSS_AVERSE, Concept.LOSS_AVERSE_STAR):
                if _naive_loss_averse_witness(game, concept, i, k):
                    assert sorted(rows[k]) > sorted(rows[i]), (concept, i, k)
            if _naive_domination_certificate(game, Concept.STRICTLY_DOMINATED, i, k):
                assert sum(rows[k]) > sum(rows[i]), (i, k)
                assert i not in unique_maxima, (i, k)


def test_a_routed_rival_that_does_not_refute_is_an_internal_error():
    game = AgentGame("t", ("a", "b"), ("s",), ((F(0),), (F(1),)))
    inequality = _Leximin(game)
    assert inequality.witnessed([1, None])[0] == inequality.pair(0, 1)
    with pytest.raises(InternalConsistencyError):
        inequality.witnessed([None, 0])


def test_winner_determination_matches_naive_welfare():
    for bids in enumerate_attacks(2, F(1), F(2), 2):
        welfare, assignment = winner_determination(list(bids), 2)
        naive_welfare, _ = naive_winner_determination([b.values for b in bids], 2)
        assert welfare == naive_welfare
        # The returned assignment realizes the reported welfare.
        bundles = _bundles(assignment, len(bids))
        realized = sum((bids[j].values[bundles[j]] for j in range(len(bids))), F(0))
        assert realized == welfare


def test_naive_winner_determination_budget_guard():
    table = tuple(F(0) for _ in range(1 << 2))
    with pytest.raises(CapacityError):
        naive_winner_determination([table] * 40, 12)
    with pytest.raises(ValueError):
        naive_winner_determination([], 2)


def test_oracle_assigns_every_item():
    # A bid table that dislikes the pair still gets the items somewhere.
    grabby = (F(0), F(1), F(1), F(-5))
    meek = (F(0), F(0), F(0), F(0))
    welfare, assignment = naive_winner_determination([grabby, meek], 2)
    assert welfare == 1
    assert sorted(assignment) == [0, 1]


def test_engine_oracle_agree_with_attacks_and_nature():
    nature = CombBid(2, (F(0), F(1), F(1), F(2)))
    count = 0
    for bids in enumerate_attacks(2, F(1), F(1), 2):
        stack = list(bids) + [nature]
        welfare, _ = winner_determination(stack, 2)
        naive_welfare, _ = naive_winner_determination([b.values for b in stack], 2)
        assert welfare == naive_welfare
        count += 1
    assert count == 44  # 8 singles + 36 unordered pairs on the 0/1 grid


# Half the cases share one small denominator, so sums tie often and the
# tie-break order is exercised; the rest mix denominators and huge
# numerators, which stresses the integer scaling.
_DENOMINATORS = st.sampled_from((1, 2, 3, 7))
_MIXED = st.builds(
    Fraction,
    st.one_of(st.integers(0, 3), st.integers(10**15, 10**15 + 40)),
    _DENOMINATORS,
)


@st.composite
def _bid_tables(draw):
    item_count = draw(st.integers(1, 3))
    bid_count = draw(st.integers(1, 4))
    if draw(st.booleans()):
        denominator = draw(_DENOMINATORS)
        entries = st.integers(0, 3).map(lambda k: Fraction(k, denominator))
    else:
        entries = _MIXED
    tables = [
        (F(0),) + tuple(draw(entries) for _ in range((1 << item_count) - 1))
        for _ in range(bid_count)
    ]
    return item_count, tables


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_bid_tables())
def test_vcg_core_matches_naive_tie_broken_search(case):
    item_count, tables = case
    n = len(tables)
    bids = [CombBid(item_count, table) for table in tables]
    welfare, assignment = winner_determination(bids, item_count)
    assert (welfare, assignment) == naive_tie_broken_assignment(tables, item_count)

    partition = classify_attack(CombValuation(item_count, tables[0]), bids).best_partition
    scale, scaled = _scaled(bids)
    for mask in range(1 << item_count):
        naive_value, naive_assignment = naive_tie_broken_assignment(tables, item_count, mask)
        assert best_partition_value(bids, item_count, mask) == naive_value
        assert partition[mask] == naive_value
        # The search on the mask's items alone: the owners, and the bundles.
        items = mask_items(mask)
        value, bundles, choice = _tie_broken_assignment(scaled, items)
        assert F(value, scale) == naive_value
        assert choice == tuple(naive_assignment[i] for i in items)
        assert bundles == _bundles(naive_assignment, n)

    profiles = [
        SybilProfile(CombValuation(item_count, table), (bid,)) for table, bid in zip(tables, bids)
    ]
    clarke = run_vcg(profiles, item_count)
    literal = run_vcg(profiles, item_count, payment_rule=PaymentRule.PAPER_LITERAL)
    bundles = _bundles(assignment, n)
    every = (1 << item_count) - 1
    for j in range(n):
        others = tables[:j] + tables[j + 1:]
        without = naive_tie_broken_assignment(others, item_count)[0] if others else F(0)
        assert clarke.payments[j] == without - (welfare - tables[j][bundles[j]])
        rest, _ = naive_tie_broken_assignment(tables, item_count, every & ~bundles[j])
        assert literal.payments[j] == welfare - rest


@st.composite
def _attacks(draw):
    """A valuation, one or two Sybil bids and up to two nature bids.

    A quarter of the cases make every table the same additive table with
    equal items, so every assignment ties and the tie-break alone decides.
    """
    item_count = draw(st.integers(1, 3))
    entries = st.builds(Fraction, st.integers(0, 3), _DENOMINATORS)
    flat = draw(st.integers(0, 3)) == 0
    per_item = draw(entries)

    def table():
        if flat:
            return CombBid(
                item_count, tuple(per_item * mask.bit_count() for mask in range(1 << item_count))
            )
        return CombBid(
            item_count, (F(0),) + tuple(draw(entries) for _ in range((1 << item_count) - 1))
        )

    valuation = table()
    bids = tuple(table() for _ in range(draw(st.integers(1, 2))))
    nature = [table() for _ in range(draw(st.integers(0, 2)))]
    return valuation, bids, nature


def _naive_clarke_utility(valuation, bids, nature):
    """The attacker's Clarke utility from the oracle's searches alone."""
    m, k = valuation.item_count, len(bids)
    tables = [table.values for table in (*bids, *nature)]
    welfare, assignment = naive_tie_broken_assignment(tables, m)
    bundles = _bundles(assignment, len(tables))
    paid = sum(
        naive_winner_determination(tables[:j] + tables[j + 1:], m)[0]
        - (welfare - tables[j][bundles[j]])
        for j in range(k)
    )
    return valuation.values[sum(bundles[:k])] - paid


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_attacks())
def test_attack_kernel_matches_the_mechanism_run_state_by_state(case):
    """Each nature bid alone is one state of the per-attack kernel, and
    the nature bids together fold into their partition table, one state
    for the closed-form truth; every utility matches ``utility_against``
    and the oracle's searches."""
    valuation, bids, nature = case
    m, k = valuation.item_count, len(bids)
    truthful = (valuation,)
    scale, (value, *tables) = _scaled([valuation, *bids, *nature])
    attack = _attack_runs(value, tables[:k], m)
    for state, table in zip(nature, tables[k:]):
        expected = utility_against(valuation, bids, [state])
        assert F(attack(table), scale) == expected
        assert expected == _naive_clarke_utility(valuation, bids, [state])
        expected = utility_against(valuation, truthful, [state])
        assert F(_truth_utility(value, table, m), scale) == expected
    if nature:
        folded = _partition_table(tables[k:], m)
        expected = utility_against(valuation, truthful, nature)
        assert F(_truth_utility(value, folded, m), scale) == expected
        assert expected == _naive_clarke_utility(valuation, truthful, nature)


def test_attack_kernel_streams_above_the_precomputed_order_bound():
    """Two own bids and one nature bid on 8 items: the 3^8 entries stream."""
    assert 3**8 > PRECOMPUTED_ORDER_BOUND
    rng = random.Random(8)
    size = 1 << 8

    def table():
        entries = [F(rng.randint(0, 3), rng.choice((1, 2))) for _ in range(size - 1)]
        return CombBid(8, (F(0), *entries))

    flat = CombBid(8, tuple(F(mask.bit_count()) for mask in range(size)))
    valuation = table()
    memo = _sybil_side.cache_info()
    for bids, nature in (((table(), table()), [table(), flat]), ((flat, flat), [flat, table()])):
        scale, (value, *tables) = _scaled([valuation, *bids, *nature])
        attack = _attack_runs(value, tables[:2], 8)
        for state, state_table in zip(nature, tables[2:]):
            expected = utility_against(valuation, bids, [state])
            assert F(attack(state_table), scale) == expected
            assert expected == _naive_clarke_utility(valuation, bids, [state])
    assert _sybil_side.cache_info() == memo  # streamed orders are not memoised


def _table(item_count, *values):
    return CombBid(item_count, tuple(F(v) for v in values))


def test_attack_kernel_memo_serves_each_bid_vector_by_value_and_scale():
    """The Sybils' side is built once per bid vector and scale: a second
    kernel on the same bids reads it from the memo, next to another
    valuation too, and a second scale builds its own.  Every utility
    matches the mechanism run and the oracle's searches."""
    _sybil_side.cache_clear()
    bids = (_table(2, 0, 1, 2, 2), _table(2, 0, "1/2", 1, "5/2"))
    nature = [_table(2, 0, 1, 1, 3), _table(2, 0, 2, "1/2", 2)]
    first, second = _table(2, 0, 1, 1, 2), _table(2, 0, 2, 2, "7/2")

    def utilities(valuation, scale=0):
        scale, (value, *tables) = _scaled([valuation, *bids, *nature], scale)
        attack = _attack_runs(value, tables[:2], 2)
        return scale, [F(attack(table), scale) for table in tables[2:]]

    def expected(valuation):
        profiles = [SybilProfile(valuation, bids)]
        out = []
        for state in nature:
            run = run_vcg([*profiles, SybilProfile.truthful(state)], 2)
            assert run.agent_utilities[0] == _naive_clarke_utility(valuation, bids, [state])
            out.append(run.agent_utilities[0])
        return out

    scale, cold = utilities(first)
    assert _sybil_side.cache_info()[:2] == (0, 1)  # (hits, misses)
    assert utilities(first) == (scale, cold) and cold == expected(first)
    assert _sybil_side.cache_info()[:2] == (1, 1)
    assert utilities(second, scale)[1] == expected(second)
    assert _sybil_side.cache_info()[:2] == (2, 1)
    assert utilities(first, 3 * scale) == (3 * scale, cold)
    assert _sybil_side.cache_info()[:2] == (2, 2)
    for at in (scale, 3 * scale):
        welfares, others = _sybil_side(tuple(map(tuple, _scaled(bids, at)[1])), 2)
        assert type(welfares) is tuple and type(others) is tuple
        assert all(type(w) is int for w in welfares)
        assert all(type(t) is tuple and all(type(v) is int for v in t) for t in others)


def test_attack_kernel_memo_stays_within_its_bound_over_the_lattice():
    """Every attack of the 2-item cap-2 lattice certified in lattice order:
    the memo holds one valuation's 405 bid vectors, each on the one scale
    its refutation and its scans share, so the bid vectors met again one
    valuation later are served from it."""
    _sybil_side.cache_clear()
    family = nature_state_family(2, tuple(F(k, 2) for k in range(6)))
    attacks = tuple(enumerate_attacks(2, F(1), F(2), 2))
    assert len(attacks) == 405 and _sybil_side.cache_info().maxsize >= 405
    for valuation in enumerate_valuations(2, F(1), F(2)):
        for bids in attacks:
            certify_attack(valuation, bids, family, F(1))
    hits, misses, maxsize, currsize = _sybil_side.cache_info()
    assert currsize <= maxsize
    assert hits > 10 * misses


def test_naive_tie_break_prefers_concentration_then_lexicographic_order():
    whole = (F(0), F(1), F(1), F(2))
    welfare, assignment = naive_tie_broken_assignment([whole, whole], 2)
    assert welfare == 2 and assignment == (0, 0)
    flat = (F(0), F(1), F(1), F(1))
    assert naive_tie_broken_assignment([flat, flat], 2) == (2, (0, 1))
    assert naive_tie_broken_assignment([flat, flat], 2, 0b10) == (1, (-1, 0))
    with pytest.raises(CapacityError):
        naive_tie_broken_assignment([(F(0),) * 4096] * 40, 12)


@st.composite
def _refutable_attacks(draw):
    """A valuation, one or two Sybil bids and a valuation grid step.

    Entries mix denominators 1, 2, 3 and 7.  Half the bids copy the
    valuation and change it on one bundle only, the full bundle half the
    time, so the first bundle an attack over- or underbids is often a 2-
    or 3-item bundle and the additive candidate splits its amount into 2
    or 3 equal shares.  A sixth of the bids copy the valuation unchanged,
    so two such Sybils bid exactly with no bundle undervalued by both,
    the case-2 certificate.
    """
    item_count = draw(st.integers(1, 3))
    size = 1 << item_count
    entries = st.builds(Fraction, st.integers(0, 4), _DENOMINATORS)
    valuation = (F(0),) + tuple(draw(entries) for _ in range(size - 1))
    bids = []
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            table = list(valuation)
            if draw(st.integers(0, 2)):
                table[draw(st.one_of(st.just(size - 1), st.integers(1, size - 1)))] = draw(entries)
        else:
            table = [F(0)] + [draw(entries) for _ in range(size - 1)]
        bids.append(CombBid(item_count, tuple(table)))
    epsilon = draw(st.sampled_from((F(1), F(1, 3))))
    return CombValuation(item_count, valuation), tuple(bids), epsilon


def _plain_family_scan(valuation, bids, states):
    """``claim_family_check`` as one ``utility_against`` pair per state."""
    pairs = [
        (
            state,
            utility_against(valuation, bids, [state]),
            utility_against(valuation, (valuation,), [state]),
        )
        for state in states
    ]
    differ = [(state, a, t) for state, a, t in pairs if a != t]
    return FamilyCheck(
        len(states),
        len(differ),
        min((t for _, _, t in differ), default=None),
        min((a for _, a, _ in differ), default=None),
        next((state for state, a, t in differ if a > 0 and t == 0), None),
        next((state for state, _, t in differ if t == 0), None),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_refutable_attacks())
def test_integer_attack_kernel_matches_per_state_utilities(case):
    valuation, bids, epsilon = case
    m = valuation.item_count
    classification = classify_attack(valuation, bids)
    family = nature_state_family(m, (F(0), F(1, 2), F(1)))
    if classification.kind is AttackKind.EXACT_BIDDING:
        certificate = truth_loss_averse_witnesses(valuation, bids, family)
        if certificate.mode == "case-1":
            adversary = [certificate.adversary]
            assert certificate.attack_utility == utility_against(valuation, bids, adversary)
            assert certificate.truth_utility == utility_against(valuation, (valuation,), adversary)
        if certificate.mode == "case-2":
            # The domination chain: attack <= best single Sybil <= truth.
            single = (bids[certificate.best_sybil],)
            for state in family:
                middle = utility_against(valuation, single, [state])
                assert utility_against(valuation, bids, [state]) <= middle
                assert middle <= utility_against(valuation, (valuation,), [state])
        assert claim_family_check(valuation, bids, family) == _plain_family_scan(
            valuation, bids, family
        )
        return
    over = classification.kind is AttackKind.OVERBIDDING
    refute = overbidding_adversary if over else underbidding_adversary
    report = refute(valuation, bids, epsilon)
    mask, tilde = report.witness_mask, report.tilde
    assert mask == classification.masks[0] or report.refuted
    assert min(valuation.values[mask], classification.best_partition[mask]) < tilde
    assert tilde < max(valuation.values[mask], classification.best_partition[mask])
    # The first candidate is the additive form of the snapped midpoint on
    # the first over- or underbid bundle: equal shares that sum to it.
    first, first_mask = report.tried[0], classification.masks[0]
    ends = sorted((valuation.values[first_mask], classification.best_partition[first_mask]))
    # The grid point next to the midpoint that lies strictly inside, else the midpoint.
    step, midpoint = bid_grid_step(epsilon, m), sum(ends) / 2
    below = math.floor(midpoint / step) * step
    midpoint = next((t for t in (below, below + step) if ends[0] < t < ends[1]), midpoint)
    assert first.values[first_mask] == midpoint
    shares = {first.values[1 << i] for i in range(m) if first_mask >> i & 1}
    assert shares == {midpoint / first_mask.bit_count()}
    if report.refuted:
        adversary = report.adversary
        assert adversary is report.tried[-1] and adversary.values[mask] == tilde
        assert report.attack_utility == utility_against(valuation, bids, [adversary])
        assert report.truth_utility == utility_against(valuation, (valuation,), [adversary])
    skipped = report.tried[:-1] if report.refuted else report.tried
    for state in skipped:
        attack = utility_against(valuation, bids, [state])
        truth = utility_against(valuation, (valuation,), [state])
        assert attack >= 0 if over else not (attack == 0 and truth > 0)
    states = [*family, *report.tried]
    assert claim_family_check(valuation, bids, family, extra=report.tried) == (
        _plain_family_scan(valuation, bids, states)
    )


@pytest.mark.parametrize("item_count", [7, 8])
def test_winner_determination_on_both_sides_of_the_precomputed_order_bound(item_count):
    """3^7 assignments are scanned from the precomputed order, 3^8 stream;
    the search on half the items scans 3^3 or 3^4 from the order."""
    assert 3**7 <= PRECOMPUTED_ORDER_BOUND < 3**8
    rng = random.Random(item_count)
    size = 1 << item_count
    random_tables = [
        (F(0),) + tuple(F(rng.randint(0, 3), rng.choice((1, 2))) for _ in range(size - 1))
        for _ in range(3)
    ]
    # Additive equal tables tie every assignment, so the tie-break alone decides.
    flat = tuple(F(mask.bit_count()) for mask in range(size))
    for tables in (random_tables, [flat] * 3):
        bids = [CombBid(item_count, table) for table in tables]
        expected = naive_tie_broken_assignment(tables, item_count)
        assert winner_determination(bids, item_count) == expected
        low = (1 << (item_count // 2)) - 1
        naive_value, naive_assignment = naive_tie_broken_assignment(tables, item_count, low)
        scale, scaled = _scaled(bids)
        value, bundles, choice = _tie_broken_assignment(scaled, mask_items(low))
        assert F(value, scale) == naive_value
        assert choice == naive_assignment[: item_count // 2]
        assert bundles == _bundles(naive_assignment, 3)


def _package_imports(path):
    """The package modules a source file imports, by their short names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["robustgames" if node.level else "", node.module]))
            dotted = [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        names.update(d.split(".")[1] for d in dotted if d.startswith("robustgames."))
    return names


def test_oracle_is_an_independent_second_route():
    """The oracle shares only the core data types and the errors with the
    engine, and no engine module but the verification battery reads it."""
    package = Path(oracle.__file__).parent
    assert _package_imports(package / "oracle.py") <= {"core", "errors"}
    readers = {
        path.name for path in package.glob("*.py") if "oracle" in _package_imports(path)
    }
    assert readers == {"verification.py"}


def test_no_engine_module_holds_a_float():
    """The engine is exact: no module under the package calls ``float`` or
    holds a float literal."""
    found = []
    for path in sorted(Path(oracle.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            called = isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float"
            literal = isinstance(node, ast.Constant) and isinstance(node.value, float)
            if called or literal:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# Caches keyed by a shape (an item count, a bid count, nothing at all) hold
# a fixed few entries however long a run is; a memo keyed by value grows
# with its inputs, so it must name a bound.
_SHAPE_KEYED_CACHES = {"vcg.py:_splits", "vcg.py:_precomputed_order", "cli.py:build_parser"}


def _is_unbounded_cache(node):
    """``functools.cache``, or ``functools.lru_cache`` with maxsize None."""
    def named(expr, name):
        return getattr(expr, "attr", getattr(expr, "id", None)) == name

    if named(node, "cache"):
        return True
    if isinstance(node, ast.Call) and named(node.func, "lru_cache"):
        sizes = [*node.args[:1], *(k.value for k in node.keywords if k.arg == "maxsize")]
        return any(isinstance(s, ast.Constant) and s.value is None for s in sizes)
    return False


def _unbounded_caches(source, filename):
    """``file:name`` of every function or name an unbounded cache wraps."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(_is_unbounded_cache(d) for d in node.decorator_list):
                found.append(f"{filename}:{node.name}")
        elif isinstance(node, ast.Assign):
            if any(_is_unbounded_cache(n) for n in ast.walk(node.value)):
                found += [f"{filename}:{t.id}" for t in node.targets if isinstance(t, ast.Name)]
    return found


def test_unbounded_cache_detector_sees_each_spelling():
    source = """
import functools
from functools import cache, lru_cache

@functools.cache
def a(x): ...

@cache
def b(x): ...

@functools.lru_cache(maxsize=None)
def c(x): ...

@lru_cache(None)
def d(x): ...

e = functools.lru_cache(maxsize=None)(int)
f = functools.cache(int)

@functools.lru_cache(maxsize=810)
def bounded(x): ...

@functools.lru_cache
def default_bound(x): ...

g = functools.lru_cache(maxsize=256)(int)
"""
    assert _unbounded_caches(source, "m.py") == [f"m.py:{n}" for n in "abcdef"]


def test_only_shape_keyed_caches_are_unbounded():
    """No engine module adds an unbounded ``functools.cache`` or
    ``lru_cache(maxsize=None)`` outside the shape-keyed caches: a memo
    keyed by value must be bounded."""
    found = []
    for path in sorted(Path(oracle.__file__).parent.glob("*.py")):
        found += _unbounded_caches(path.read_text(), path.name)
    assert sorted(found) == sorted(_SHAPE_KEYED_CACHES)

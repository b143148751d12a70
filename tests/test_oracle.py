"""Brute-force oracle agreement with the engine implementations."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustgames import concepts, instances, oracle
from robustgames.concepts import (
    Concept,
    concept_verdict,
    hierarchy_report,
    leximin_actions,
    loss_averse_actions,
    multi_leximin_actions,
    verify_refutation,
)
from robustgames.core import AgentGame
from robustgames.errors import CapacityError
from robustgames.oracle import (
    naive_leximin,
    naive_loss_averse,
    naive_tie_broken_assignment,
    naive_winner_determination,
)
from robustgames.vcg import (
    CombBid,
    CombValuation,
    PaymentRule,
    SybilProfile,
    assignment_bundles,
    best_partition_value,
    classify_attack,
    enumerate_attacks,
    run_vcg,
    utility_against,
    winner_determination,
)

F = Fraction


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
        concepts.individually_rational_actions,
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
def _small_games(draw):
    """Games of at most 5 x 5 over a pool of at most five values, so rows
    and minima tie often."""
    n_actions = draw(st.integers(1, 5))
    n_states = draw(st.integers(1, 5))
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


def test_winner_determination_matches_naive_welfare():
    for bids in enumerate_attacks(2, F(1), F(2), 2):
        welfare, assignment = winner_determination(list(bids), 2)
        naive_welfare, _ = naive_winner_determination([b.values for b in bids], 2)
        assert welfare == naive_welfare
        # The returned assignment realizes the reported welfare.
        bundles = assignment_bundles(assignment, len(bids))
        realized = sum((bids[j].value(bundles[j]) for j in range(len(bids))), F(0))
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
    for mask in range(1 << item_count):
        naive_value, _ = naive_tie_broken_assignment(tables, item_count, mask)
        assert best_partition_value(bids, item_count, mask) == naive_value
        assert partition[mask] == naive_value

    profiles = [
        SybilProfile(CombValuation(item_count, table), (bid,)) for table, bid in zip(tables, bids)
    ]
    clarke = run_vcg(profiles, item_count)
    literal = run_vcg(profiles, item_count, payment_rule=PaymentRule.PAPER_LITERAL)
    bundles = assignment_bundles(assignment, n)
    every = (1 << item_count) - 1
    for j in range(n):
        others = tables[:j] + tables[j + 1:]
        without = naive_tie_broken_assignment(others, item_count)[0] if others else F(0)
        assert clarke.payments[j] == without - (welfare - tables[j][bundles[j]])
        rest, _ = naive_tie_broken_assignment(tables, item_count, every & ~bundles[j])
        assert literal.payments[j] == welfare - rest


@st.composite
def _attacks(draw):
    """A valuation, one or two Sybil bids and up to two nature bids."""
    item_count = draw(st.integers(1, 3))
    entries = st.builds(Fraction, st.integers(0, 3), _DENOMINATORS)

    def table():
        return CombBid(
            item_count, (F(0),) + tuple(draw(entries) for _ in range((1 << item_count) - 1))
        )

    valuation = table()
    bids = tuple(table() for _ in range(draw(st.integers(1, 2))))
    nature = [table() for _ in range(draw(st.integers(0, 2)))]
    return valuation, bids, nature


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_attacks())
def test_utility_against_matches_the_full_mechanism_run(case):
    valuation, bids, nature = case
    profiles = [SybilProfile(valuation, bids), *map(SybilProfile.truthful, nature)]
    outcome = run_vcg(profiles, valuation.item_count)
    assert utility_against(valuation, bids, nature) == outcome.agent_utilities[0]


def test_naive_tie_break_prefers_concentration_then_lexicographic_order():
    whole = (F(0), F(1), F(1), F(2))
    welfare, assignment = naive_tie_broken_assignment([whole, whole], 2)
    assert welfare == 2 and assignment == (0, 0)
    flat = (F(0), F(1), F(1), F(1))
    assert naive_tie_broken_assignment([flat, flat], 2) == (2, (0, 1))
    assert naive_tie_broken_assignment([flat, flat], 2, 0b10) == (1, (-1, 0))
    with pytest.raises(CapacityError):
        naive_tie_broken_assignment([(F(0),) * 4096] * 40, 12)

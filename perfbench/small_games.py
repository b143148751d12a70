"""small-games: pure-concept analysis of many small games.

One operation analyses one game: ``concepts.hierarchy_report``, then
``concept_verdict`` and ``format_verdict`` for all nine concepts, then a
``core.format_game`` -> ``core.parse_game`` round trip.  Operations take
about a millisecond, so the fixed cost per game dominates: validation,
label indexes and per-call set-up.

Inputs: the curated, collapse-demo (plain and augmented), small facility
and psr voting games, then ``RANDOM_GAMES`` seeded
``instances.random_game`` tables (at most 6 x 6, values in [-5, 5]).
"""
from __future__ import annotations

import random
from fractions import Fraction
from types import SimpleNamespace

NAME = "small-games"
RANDOM_GAMES = 2000
VOTING_UTILITIES = {
    2: (Fraction(1), Fraction(0)),
    3: (Fraction(1), Fraction(1, 2), Fraction(0)),
    4: (Fraction(1), Fraction(2, 3), Fraction(1, 3), Fraction(0)),
}


def setup(mods, seed: int, workdir: str):
    instances, mechanisms = mods.instances, mods.mechanisms
    games = [instances.curated_game(name) for name in sorted(instances.CURATED_GAMES)]
    for k in range(1, 21):
        game, augmentation = instances.collapse_demo_game(k)
        games.append(game)
        games.append(mods.concepts.augment_with_mixed_nature(game, augmentation))
    for n in (2, 3):
        for k in range(0, 4 * n + 1, 2):
            spec = mechanisms.FacilitySpec(n, Fraction(k, 4 * n), Fraction(1, 4 * n))
            games.append(mechanisms.facility_game(spec))
    for n, utilities in VOTING_UTILITIES.items():
        games.append(mechanisms.psr_game(mechanisms.plurality_spec(n, utilities)))
        if n <= 3:
            games.append(mechanisms.psr_game(mechanisms.approval_spec(n, utilities)))
    rng = random.Random(seed)
    games.extend(instances.random_game(rng) for _ in range(RANDOM_GAMES))
    cells = sum(len(g.actions) * len(g.states) for g in games)
    return SimpleNamespace(ops=games, cells=cells)


def run(mods, inputs, game):
    concepts, core = mods.concepts, mods.core
    hierarchy = concepts.hierarchy_report(game)
    verdicts = [concepts.concept_verdict(game, c) for c in concepts.Concept]
    report = "".join(concepts.format_verdict(game, v) for v in verdicts)
    text = core.format_game(game)
    return hierarchy, verdicts, report, text, core.parse_game(text)


def check(mods, inputs, index, game, result, counts):
    hierarchy, verdicts, report, text, parsed = result
    fingerprint = report + text
    if counts is None:
        return fingerprint, None
    if parsed != game:
        return fingerprint, f"op {index} parse_game(format_game(g)) != g"
    sets = {v.concept: set(v.satisfying) for v in verdicts}
    for concept, members in hierarchy.sets:
        if set(members) != sets[concept]:
            return fingerprint, f"op {index} hierarchy {concept.value} differs from its verdict"
    C, oracle = mods.concepts.Concept, mods.oracle
    for concept, expected in (
        (C.LOSS_AVERSE, oracle.naive_loss_averse(game)),
        (C.LEXIMIN, oracle.naive_leximin(game, False)),
        (C.MULTI_LEXIMIN, oracle.naive_leximin(game, True)),
    ):
        if sets[concept] != expected:
            return fingerprint, f"op {index} {concept.value} {sorted(sets[concept])} != oracle"
    return fingerprint, None


def work_lines(inputs, counts) -> list[str]:
    return []

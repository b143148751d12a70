"""Curated example games, generators, and the collapse demonstration family.

The curated games are small counterexamples separating the solution
concepts from each other; each factory documents which separation it
realizes.  ``random_game`` drives the property suites.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .concepts import MixtureAugmentation
from .core import AgentGame, format_scalar, scalar
from .errors import ValidationError


def _game(
    type_label: str,
    actions: tuple[str, ...],
    states: tuple[str, ...],
    rows: Sequence[Sequence[int | Fraction]],
) -> AgentGame:
    """A game from its utility rows, each entry made exact by ``scalar``."""
    return AgentGame(type_label, actions, states, tuple(tuple(map(scalar, row)) for row in rows))


def leximin_proof_game() -> AgentGame:
    """Loss-averse {a, b} but multi-leximin only {b}.

    Both actions bottom out at 0 exactly where they differ, so each is
    loss-averse against the other, yet b's outcome multiset (0, 10)
    lexicographically beats a's (0, 5).
    """
    return _game("leximin-proof-game", ("a", "b"), ("opp-a", "opp-b"), ((5, 0), (0, 10)))


def dominant_leximin_game() -> AgentGame:
    """Weakly dominant {a} while the distinct-value leximin picks {b}.

    a's distinct outcomes are {0, 1, 5} and b's are {0, 3}; after both
    drop the shared 0, b's next value 3 beats a's 1.
    """
    return _game("dominant-leximin", ("a", "b"), ("A", "B", "C"), ((0, 1, 5), (0, 0, 3)))


def minmaxreg_safety_game() -> AgentGame:
    """Min-max regret {b} while the safety level is attained only by {a}."""
    return _game("minmaxreg-safety", ("a", "b"), ("A", "B"), ((0, 0), (-1, 100)))


def safety_wrong_monotone_game() -> AgentGame:
    """Unique mixed safety optimum (a: 3/4, b: 1/4), value 3/4.

    The optimal mixture puts more weight on the action with the lower
    best case; both pure guarantees are 0.
    """
    return _game("safety-wrong-monotone", ("a", "b"), ("A", "B"), ((1, 0), (0, 3)))


AIM_BIG_PRIZE = Fraction(1000)


def aim_big_grid_game() -> AgentGame:
    """Finite discretization of the aim-big game.

    Small prizes are the multiples of 1/10 in (0, 1]; the extra state
    "big" pays B the full prize and S only 1.  The grid's smallest state
    is strictly positive, which is exactly why the plain loss-averse
    verdict here differs from the closed-form one.
    """
    smalls = [Fraction(k, 10) for k in range(1, 11)]
    states = tuple(format_scalar(f) for f in smalls) + ("big",)
    rows = ((*[0] * len(smalls), AIM_BIG_PRIZE), (*smalls, 1))
    return _game("aim-big", ("B", "S"), states, rows)


@dataclass(frozen=True)
class AimBigVerdicts:
    loss_averse: frozenset[str]
    loss_averse_star: frozenset[str]


def aim_big_exact_verdicts() -> AimBigVerdicts:
    """Evaluate aim-big over its true state space, small prizes (0, 1].

    Infima over the continuum are taken in closed form rather than on a
    grid.  S earns exactly the small prize and B earns 0 there; at the
    extra "big" state B earns 1000 and S earns 1.  The two actions
    differ at every state.
    """
    # Worst case of B over the difference set: 0, attained at any small
    # state.  Worst case of S: inf over (0,1] of the prize itself is 0,
    # approached but never attained; the big state's 1 does not bind.
    worst_b = Fraction(0)
    inf_s = Fraction(0)
    loss_averse = set()
    if worst_b >= inf_s:
        loss_averse.add("B")
    if inf_s >= worst_b:
        loss_averse.add("S")

    # One-sided sets: S is strictly worse than B only at "big" (1 < 1000),
    # so its one-sided worst case is 1.  B is strictly worse than S on all
    # of (0,1], with one-sided infimum 0.
    star_s = Fraction(1)
    star_b = Fraction(0)
    loss_averse_star = set()
    if star_s >= star_b:
        loss_averse_star.add("S")
    if star_b >= star_s:
        loss_averse_star.add("B")

    return AimBigVerdicts(
        loss_averse=frozenset(loss_averse),
        loss_averse_star=frozenset(loss_averse_star),
    )


COLLAPSE_EPSILONS = (Fraction(1, 10), Fraction(1, 100))


def collapse_demo_game(k: int) -> tuple[AgentGame, MixtureAugmentation]:
    """One member of the family demonstrating the mixture-state collapse.

    Before augmentation only b is loss-averse: over the states where a
    and b differ, a bottoms out at k/100 while b bottoms out at k.  The
    synthetic state with weight 1/100 drags b's worst case down to
    exactly k/100 as well, so afterwards the loss-averse set equals the
    safety-level set {a, b}.  Even k adds a third action c that dips
    below the safety level and stays excluded throughout.
    """
    if not 1 <= k <= 20:
        raise ValidationError(f"family index {k} outside 1..20")
    rows = [(k + 1, Fraction(k, 100), 0), (k, k + 2, 0)]
    if k % 2 == 0:
        rows.append((k + 3, k + 4, -1))
    game = _game(f"collapse-demo-{k}", ("a", "b", "c")[: len(rows)], ("bar", "mid", "floor"), rows)
    return game, MixtureAugmentation("bar", "floor", COLLAPSE_EPSILONS)


RANDOM_MAX_ACTIONS = 6
RANDOM_MAX_STATES = 6
RANDOM_LOW, RANDOM_HIGH = -5, 5


def random_game(rng: random.Random) -> AgentGame:
    """Small integer-valued game for property tests.

    The narrow value range makes exact ties common on purpose.
    """
    n_actions = rng.randint(1, RANDOM_MAX_ACTIONS)
    n_states = rng.randint(1, RANDOM_MAX_STATES)
    actions = tuple(f"a{i}" for i in range(1, n_actions + 1))
    states = tuple(f"s{j}" for j in range(1, n_states + 1))
    rows = tuple(
        tuple(Fraction(rng.randint(RANDOM_LOW, RANDOM_HIGH)) for _ in states) for _ in actions
    )
    return AgentGame("random", actions, states, rows)


CURATED_GAMES = {
    "aim-big": aim_big_grid_game,
    "leximin-proof-game": leximin_proof_game,
    "dominant-leximin": dominant_leximin_game,
    "minmaxreg-safety": minmaxreg_safety_game,
    "safety-wrong-monotone": safety_wrong_monotone_game,
}


def curated_game(name: str) -> AgentGame:
    try:
        factory = CURATED_GAMES[name]
    except KeyError:
        raise ValidationError(
            f"unknown curated game {name!r}; known: {', '.join(sorted(CURATED_GAMES))}"
        ) from None
    return factory()

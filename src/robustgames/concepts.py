"""Solution concepts for games against nature, computed exactly.

Each concept is one pairwise inequality, written once: an action
satisfies the concept unless a rival refutes it, and verifying a
refutation re-derives it from the same inequality.  The central family
compares worst cases over *difference sets*, the states where two
actions actually disagree; minima over empty sets are the top element
``INF``.  Every comparison runs on the game's rows scaled to integers
(``AgentGame.scaled``); the values a refutation reports are read back
from the rational table at the states it names.

Each action is tested against the rivals in its ``rivals`` order: a
plain loop calls the concept's ``pair`` on each rival in turn and stops
at the first that refutes it.  The loop serves two paths.  A verdict
(``concept_verdicts``) keeps the refutation ``pair`` builds for that
first rival, its witness.  A concept set (the ``*_actions`` functions
and ``hierarchy_report``) runs the same loop with ``pair``'s witness
builder replaced by a bare mark, so it builds no ``Refutation``.

By default the rivals are all other actions in table order.  For
leximin, multi-leximin, loss aversion, loss aversion* and strict
dominance, a refuting rival's key (its ascending row, or for strict
dominance its row sum) is always strictly larger than the action's own,
so only those rivals are tested: a running maximum of the keys and a
bisection skip to the first of them, and the rest follow in table order.
For the two leximins the first such rival always refutes, so their set
path is that bisection alone and calls no ``pair``; for the others the
docstrings of ``_LossAverse`` and ``_StrictlyDominated`` give the
lemmas, and the worst case stays quadratic.  Loss aversion and loss
aversion* refute exactly the same pairs (see ``_LossAverse``), so when
one verdict call asks for both, the second takes its first rivals from
the first one's scan.  Either way the reported witness is the concept's
own ``pair`` rule on the one reported pair.

All operations return plain data; ties inside any argmin or argmax are
resolved towards the first-listed label so output is deterministic.
"""

from __future__ import annotations

import enum
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain, compress, islice, repeat
from typing import Callable, Iterable, Sequence

from .core import (
    INF,
    AgentGame,
    ExtendedScalar,
    MixedAction,
    format_scalar,
    mixed_utility,
    scalar,
)
from .errors import InternalConsistencyError, UnknownLabelError, ValidationError


class Concept(enum.Enum):
    LOSS_AVERSE = "loss-averse"
    LOSS_AVERSE_STAR = "loss-averse-star"
    SAFETY_LEVEL = "safety-level"
    INDIVIDUALLY_RATIONAL = "individually-rational"
    WEAKLY_DOMINANT = "weakly-dominant"
    STRICTLY_DOMINATED = "strictly-dominated"
    LEXIMIN = "leximin"
    MULTI_LEXIMIN = "multi-leximin"
    MIN_MAX_REGRET = "min-max-regret"

    # Members are singletons compared by identity, so the identity hash is
    # valid, and it skips ``Enum.__hash__``'s Python frame on every lookup.
    __hash__ = object.__hash__


_ZERO = Fraction(0)


@dataclass(frozen=True, init=False)
class Refutation:
    """Evidence that ``action`` violates a concept's defining inequality.

    ``competitor`` is the action it loses to (absent for individual
    rationality).  ``states`` name the nature states realizing the two
    recorded values; ``self_value``/``other_value`` are exact, with the
    top element allowed where a minimum ranges over an empty set.
    """

    action: str
    competitor: str | None
    states: tuple[str, ...]
    self_value: ExtendedScalar
    other_value: ExtendedScalar | None

    def __init__(self, action, competitor, states, self_value, other_value):
        # The generated frozen __init__ makes one object.__setattr__ call per
        # field; one dict update costs half as much, and a verdict builds one
        # refutation per rejected action.
        self.__dict__.update(
            action=action,
            competitor=competitor,
            states=states,
            self_value=self_value,
            other_value=other_value,
        )


@dataclass(frozen=True)
class ConceptVerdict:
    """Satisfying actions plus one refutation per relevant action.

    For every concept except ``STRICTLY_DOMINATED`` the refutations cover
    the rejected actions.  For ``STRICTLY_DOMINATED`` the satisfying
    actions are the dominated ones and each carries its domination
    certificate instead (rejection there is a universal claim with no
    single witness).
    """

    concept: Concept
    satisfying: tuple[str, ...]
    refutations: tuple[Refutation, ...]


def _state_order(row: Sequence) -> list[int]:
    """The state indices sorted by ``row``'s value, ties to the lower index."""
    return sorted(range(len(row)), key=row.__getitem__)


def _loss_averse_refutation(
    ra: Sequence, rb: Sequence, order_a: Sequence[int], order_b: Sequence[int]
) -> tuple[int, int] | None:
    """Where row ``ra`` fails loss aversion against row ``rb``, or None.

    Over the states where the rows differ, the worst value of ``ra`` must
    be at least that of ``rb``; identical rows never refute each other.
    A failure is given by the first states attaining the two worst values:
    the first state in each row's ``_state_order`` where the rows differ.
    """
    for ja in order_a:
        if ra[ja] != rb[ja]:
            break
    else:
        return None
    for jb in order_b:
        if ra[jb] != rb[jb]:
            break
    return (ja, jb) if ra[ja] < rb[jb] else None


class _Inequality:
    """One concept's defining inequality, read off one game's table.

    ``pair(i, k)`` is the canonical refutation of action ``i`` by rival
    ``k``, built by ``refutation``, or None when the inequality holds for
    that pair.  ``rivals(i)`` lists, in order, the rivals action ``i`` is
    tested against: every other action in table order, or, once a
    concept has ranked the rows by ``rank``, the rivals whose key is
    strictly larger than row ``i``'s.  ``refutations`` calls ``pair`` on
    those rivals in that order and keeps the first refutation, so a
    verdict's witness is always ``pair``'s own; a concept that overrides
    it (leximin) or that reads its first rivals from another scan
    (``witnessed``) still reads the witness from ``pair``.  ``refuted``
    is the set path: the same scan with ``refutation`` shadowed by a bare
    mark, so ``pair`` decides each pair but builds no witness; leximin's
    is its bisection alone.  What a concept reads from the whole table is
    computed once, on construction.  ``rows`` are the integer-scaled rows
    every comparison reads; ``values`` is the rational table the reported
    values come from.
    """

    keys: Sequence | None = None

    def __init__(self, game: AgentGame):
        self.actions, self.states, self.values = game.actions, game.states, game.rows
        self.denominator, self.rows = game.scaled

    def rank(self, keys: Sequence) -> None:
        """Test each action only against the rivals with a strictly larger
        key, for a concept where every refuting rival has one."""
        self.keys, self.best = keys, list(accumulate(keys, max))

    def rivals(self, i: int) -> Iterable[int | None]:
        if self.keys is None:
            return chain(range(i), range(i + 1, len(self.rows)))
        key, n = self.keys[i], len(self.keys)
        start = bisect_right(self.best, key)  # the first row whose key is larger
        return compress(range(start, n), map(key.__lt__, islice(self.keys, start, None)))

    def refutations(self) -> list[Refutation | None]:
        """Each action's refutation by its first refuting rival, or None."""
        pair, found = self.pair, []
        for i in range(len(self.rows)):
            ref = None
            for k in self.rivals(i):
                ref = pair(i, k)
                if ref is not None:
                    break
            found.append(ref)
        return found

    def refuted(self) -> list:
        """Each action's mark, None where no rival refutes it: the scan of
        ``refutations``, after which this object builds no witness."""
        self.refutation = _refuted
        return self.refutations()

    def witnessed(self, first_rivals: Sequence[int | None]) -> list[Refutation | None]:
        """Each action's refutation by the first refuting rival another
        route found for it (None: no rival refutes it), read from ``pair``."""
        refutations = []
        for i, k in enumerate(first_rivals):
            ref = None if k is None else self.pair(i, k)
            if k is not None and ref is None:
                raise InternalConsistencyError(
                    f"{type(self).__name__}: rival {self.actions[k]!r} was routed to "
                    f"refute {self.actions[i]!r} but does not"
                )
            refutations.append(ref)
        return refutations

    def refutation(self, i, k, states, self_value, other_value) -> Refutation:
        """The refutation of action ``i`` by rival ``k`` at state indices ``states``."""
        competitor = None if k is None else self.actions[k]
        labels = tuple([self.states[j] for j in states])
        return Refutation(self.actions[i], competitor, labels, self_value, other_value)


def _refuted(i, k, states, self_value, other_value) -> bool:
    """The set path's ``_Inequality.refutation``: the pair is refuted, and
    no witness is built."""
    return True


class _LossAverse(_Inequality):
    """Loss aversion: over the states where the two actions' rows differ,
    the action's worst utility is at least the rival's.  ``one_sided`` is
    loss aversion*: the action's worst utility over the states where it is
    strictly worse is at least the rival's over the states where *that*
    one is (``INF`` over no states).

    On a finite game the two refute exactly the same pairs.  Let c be row
    a's least value over the states where a is strictly worse than b
    (loss aversion*), or over the states where the rows differ (loss
    aversion): both are the same value whenever either refutes.  Under
    either definition b refutes a iff all three hold:

    - b = a wherever a < c;
    - b >= c wherever a = c, with b > c at one of those states;
    - b > c wherever a > c.

    The proof needs only that each minimum is attained, so
    ``_loss_averse_refutation`` decides every pair of both, and loss
    aversion* changes only the witness.  Its first state is loss
    aversion's: where b refutes a, b exceeds a at the first state in a's
    order where the rows differ, so that is also a's first strictly worse
    state.  Its second is the first state in b's order where b is strictly
    worse, and with no such state the witness is the one state and
    ``INF``.  The two concepts separate only where infima over a continuum
    of states are not attained, as in ``instances.aim_big_exact_verdicts``.

    Where b refutes a, b's ascending row is strictly larger than a's, so
    only those rivals are tested (``rank``).  Let E be the states where
    a = c.  Below c the two rows hold the same values at the same states,
    and b holds no other value below c.  Every entry of b equal to c sits
    at a state of E, and b > c at one of them, so b holds fewer than |E|
    entries equal to c while a holds |E|.  So the sorted rows agree up to
    a's values below c, and then first differ where a has c and b has
    more than c.  The converse fails: many rivals with a larger key may
    not refute, so the worst case is still quadratic in the actions.

    Each row's ``_state_order`` is built the first time a pair reads it,
    and the keys the first time rivals are listed (never, where
    ``concept_verdicts`` takes the first rivals from the other variant).
    """

    def __init__(self, game: AgentGame, one_sided: bool = False):
        super().__init__(game)
        self.one_sided = one_sided
        self.orders: list[list[int] | None] = [None] * len(self.rows)

    def rivals(self, i):
        if self.keys is None:
            self.rank([tuple(sorted(row)) for row in self.rows])
        return super().rivals(i)

    def order(self, i: int) -> list[int]:
        if self.orders[i] is None:
            self.orders[i] = _state_order(self.rows[i])
        return self.orders[i]

    def pair(self, i, k):
        ra, rb = self.rows[i], self.rows[k]
        found = _loss_averse_refutation(ra, rb, self.order(i), self.order(k))
        if found is None:
            return None
        ja, jb = found
        if self.one_sided:
            jb = next((j for j in self.order(k) if rb[j] < ra[j]), None)
            if jb is None:
                return self.refutation(i, k, (ja,), self.values[i][ja], INF)
        return self.refutation(i, k, (ja, jb), self.values[i][ja], self.values[k][jb])


class _SafetyLevel(_Inequality):
    """The action's worst utility is at least the safety level; the rival is
    the first action attaining it."""

    def __init__(self, game: AgentGame):
        super().__init__(game)
        self.worst_at = [row.index(min(row)) for row in self.rows]
        levels = [row[j] for row, j in zip(self.rows, self.worst_at)]
        self.anchor = levels.index(max(levels))

    def rivals(self, i):
        return (self.anchor,)

    def pair(self, i, k):
        ji, jk = self.worst_at[i], self.worst_at[k]
        if self.rows[i][ji] >= self.rows[k][jk]:
            return None
        return self.refutation(i, k, (ji,), self.values[i][ji], self.values[k][jk])


class _IndividuallyRational(_Inequality):
    """Every utility of the action is at least zero; there is no rival."""

    def rivals(self, i):
        return (None,)

    def pair(self, i, k):
        for j, v in enumerate(self.rows[i]):
            if v < 0:
                return self.refutation(i, None, (j,), self.values[i][j], _ZERO)
        return None


class _WeaklyDominant(_Inequality):
    """The action is at least as good as the rival on every state."""

    def pair(self, i, k):
        ra, rb = self.rows[i], self.rows[k]
        for j in range(len(ra)):
            if rb[j] > ra[j]:
                return self.refutation(i, k, (j,), self.values[i][j], self.values[k][j])
        return None


class _StrictlyDominated(_WeaklyDominant):
    """The rival is at least as good on every state and better on one.

    The pair is a certificate, not a refutation: the action's refutation
    of weak dominance by a rival that is nowhere worse.

    Two lemmas narrow the rivals.  A dominator's row sum is strictly
    larger, since it adds a positive amount to the action's at one state
    and a nonnegative amount at every other (``rank`` on the sums).  And
    a row that is the unique strict maximum of some column has no
    dominator, since a dominator would have to reach that maximum there
    too; such rows test no rival.
    """

    def __init__(self, game: AgentGame):
        super().__init__(game)
        self.rank([sum(row) for row in self.rows])
        self.unbeaten = set()
        for column in zip(*self.rows):
            top = max(column)
            if column.count(top) == 1:
                self.unbeaten.add(column.index(top))

    def rivals(self, i):
        return () if i in self.unbeaten else super().rivals(i)

    def pair(self, i, k):
        if not all(map(operator.le, self.rows[i], self.rows[k])):
            return None
        return super().pair(i, k)


class _Leximin(_Inequality):
    """Ascending outcome sequences compared in the round-by-round
    minimum-stripping order: at the first position where they differ the
    larger value wins, and a sequence that is exhausted while the other
    still has values wins (its next minimum is the top element ``INF``).

    So each row has one key, its ascending sequence, and the larger key
    wins.  The set version ends every key with ``top``, an integer above
    every entry, which plays the top element.  Every rival with a larger
    key refutes, so row i's first refuting rival is the first row where
    the running maximum of the keys exceeds row i's.
    """

    def __init__(self, game: AgentGame, multiset: bool = False):
        super().__init__(game)
        self.top = max(map(max, self.rows)) + 1
        if multiset:
            self.rank([tuple(sorted(row)) for row in self.rows])
        else:
            self.rank([(*sorted(set(row)), self.top) for row in self.rows])

    def refuted(self):
        """Each row's first beating rival, or None, by bisection alone."""
        found = [bisect_right(self.best, key) for key in self.keys]
        return [None if k == len(self.best) else k for k in found]

    def refutations(self):
        return self.witnessed(self.refuted())

    def pair(self, i, k):
        for own, other in zip(self.keys[i], self.keys[k]):
            if own != other:
                break
        else:
            return None
        if own > other:
            return None
        ja = self.rows[i].index(own)
        if other == self.top:
            return self.refutation(i, k, (ja,), self.values[i][ja], INF)
        jb = self.rows[k].index(other)
        return self.refutation(i, k, (ja, jb), self.values[i][ja], self.values[k][jb])


class _MinMaxRegret(_Inequality):
    """The action's max regret (largest shortfall to the per-state best
    action) is at most the least one; the rival is the first action with it."""

    def __init__(self, game: AgentGame):
        super().__init__(game)
        best = [max(column) for column in zip(*self.rows)]
        self.shortfalls = [[b - u for b, u in zip(best, row)] for row in self.rows]
        self.regrets = [max(shortfall) for shortfall in self.shortfalls]
        self.anchor = self.regrets.index(min(self.regrets))
        self.floor = self.value(self.regrets[self.anchor])

    def rivals(self, i):
        return (self.anchor,)

    def pair(self, i, k):
        # k is the anchor, whose regret is read back once per verdict.
        own = self.regrets[i]
        if own <= self.regrets[k]:
            return None
        return self.refutation(i, k, (self.shortfalls[i].index(own),), self.value(own), self.floor)

    def value(self, scaled: int) -> Fraction:
        """A regret read back over the table's denominator."""
        return Fraction(scaled, self.denominator)


_INEQUALITIES: dict[Concept, Callable[[AgentGame], _Inequality]] = {
    Concept.LOSS_AVERSE: _LossAverse,
    Concept.LOSS_AVERSE_STAR: partial(_LossAverse, one_sided=True),
    Concept.SAFETY_LEVEL: _SafetyLevel,
    Concept.INDIVIDUALLY_RATIONAL: _IndividuallyRational,
    Concept.WEAKLY_DOMINANT: _WeaklyDominant,
    Concept.STRICTLY_DOMINATED: _StrictlyDominated,
    Concept.LEXIMIN: _Leximin,
    Concept.MULTI_LEXIMIN: partial(_Leximin, multiset=True),
    Concept.MIN_MAX_REGRET: _MinMaxRegret,
}


def concept_verdicts(game: AgentGame, chosen: Iterable[Concept]) -> list[ConceptVerdict]:
    """Compute each chosen concept's satisfying set together with witnesses.

    Each action keeps its first refutation in its rival order; the actions
    without one satisfy the concept (for ``STRICTLY_DOMINATED``, those with
    one).  Loss aversion and loss aversion* share one relation: the first
    of them to be chosen scans its rivals, and the other reads that scan's
    first rivals and row orders.
    """
    relation = None  # the first loss-aversion scan: its row orders and refutations
    verdicts = []
    for concept in chosen:
        inequality = _INEQUALITIES[concept](game)
        if relation is not None and isinstance(inequality, _LossAverse):
            inequality.orders, scanned = relation
            refutations = inequality.witnessed(
                [None if ref is None else game.action_index(ref.competitor) for ref in scanned]
            )
        else:
            refutations = inequality.refutations()
            if isinstance(inequality, _LossAverse):
                relation = inequality.orders, refutations
        satisfying = _satisfying(game, concept, refutations)
        verdicts.append(ConceptVerdict(concept, satisfying, tuple(filter(None, refutations))))
    return verdicts


def _satisfying(game: AgentGame, concept: Concept, found: Sequence) -> tuple[str, ...]:
    """The actions satisfying ``concept``, from each action's refutation or
    mark (None: not refuted), in table order."""
    keep = operator.is_not if concept is Concept.STRICTLY_DOMINATED else operator.is_
    return tuple(compress(game.actions, map(keep, found, repeat(None))))


def _concept_set(game: AgentGame, concept: Concept) -> tuple[str, ...]:
    """One concept's satisfying actions from its scan alone, with no witness."""
    return _satisfying(game, concept, _INEQUALITIES[concept](game).refuted())


def concept_verdict(game: AgentGame, concept: Concept) -> ConceptVerdict:
    """One concept's verdict (see ``concept_verdicts``)."""
    return concept_verdicts(game, (concept,))[0]


def verify_refutation(game: AgentGame, concept: Concept, ref: Refutation) -> bool:
    """Re-evaluate a refutation against the raw table.

    True when ``ref`` is, field for field, what the concept's inequality
    gives for ``ref.action`` against ``ref.competitor``, and that
    competitor is one the action is tested against.
    """
    inequality = _INEQUALITIES[concept](game)
    try:
        i = game.action_index(ref.action)
        k = None if ref.competitor is None else game.action_index(ref.competitor)
    except UnknownLabelError:
        return False
    return k in inequality.rivals(i) and inequality.pair(i, k) == ref


def loss_averse_vs(game: AgentGame, action: str, other: str) -> tuple[bool, Refutation | None]:
    """Pairwise loss-aversion check with a refutation on failure."""
    ref = _LossAverse(game).pair(game.action_index(action), game.action_index(other))
    return ref is None, ref


def loss_averse_actions(game: AgentGame) -> set[str]:
    """Actions that are loss-averse against every other action."""
    return set(_concept_set(game, Concept.LOSS_AVERSE))


def loss_averse_star_actions(game: AgentGame) -> set[str]:
    """One-sided variant: worst case only over states where each action loses."""
    return set(_concept_set(game, Concept.LOSS_AVERSE_STAR))


def safety_level(game: AgentGame) -> Fraction:
    """The maximal utility the agent can guarantee with a pure action."""
    return max(min(row) for row in game.rows)


def safety_level_actions(game: AgentGame) -> set[str]:
    return set(_concept_set(game, Concept.SAFETY_LEVEL))


def weakly_dominant_actions(game: AgentGame) -> set[str]:
    return set(_concept_set(game, Concept.WEAKLY_DOMINANT))


def strictly_dominated_actions(game: AgentGame) -> set[str]:
    """Actions some other action beats weakly everywhere and strictly somewhere."""
    return set(_concept_set(game, Concept.STRICTLY_DOMINATED))


def leximin_actions(game: AgentGame) -> set[str]:
    """Leximin over the set of distinct outcome values of each action."""
    return set(_concept_set(game, Concept.LEXIMIN))


def multi_leximin_actions(game: AgentGame) -> set[str]:
    """Leximin over the full outcome multiset (one entry per state)."""
    return set(_concept_set(game, Concept.MULTI_LEXIMIN))


def max_regret(game: AgentGame, action: str) -> Fraction:
    """Worst-case shortfall of ``action`` against the per-state best action."""
    inequality = _MinMaxRegret(game)
    return inequality.value(inequality.regrets[game.action_index(action)])


def min_max_regret_actions(game: AgentGame) -> set[str]:
    return set(_concept_set(game, Concept.MIN_MAX_REGRET))


# Implications that must hold on every game.  Violations are engine bugs.
_HIERARCHY_ARROWS: tuple[tuple[Concept, Concept], ...] = (
    (Concept.WEAKLY_DOMINANT, Concept.LOSS_AVERSE),
    (Concept.LOSS_AVERSE, Concept.SAFETY_LEVEL),
    (Concept.MULTI_LEXIMIN, Concept.LOSS_AVERSE),
    (Concept.LEXIMIN, Concept.SAFETY_LEVEL),
    (Concept.WEAKLY_DOMINANT, Concept.MIN_MAX_REGRET),
)

_REPORT_CONCEPTS: tuple[Concept, ...] = (
    Concept.WEAKLY_DOMINANT,
    Concept.LOSS_AVERSE,
    Concept.SAFETY_LEVEL,
    Concept.LEXIMIN,
    Concept.MULTI_LEXIMIN,
    Concept.MIN_MAX_REGRET,
)

# The ordered pairs of distinct reported concepts without an arrow.
_UNRELATED: tuple[tuple[Concept, Concept], ...] = tuple(
    (src, dst)
    for src in _REPORT_CONCEPTS
    for dst in _REPORT_CONCEPTS
    if src is not dst and (src, dst) not in _HIERARCHY_ARROWS
)


@dataclass(frozen=True)
class HierarchyReport:
    """Concept sets for one game plus the verified implication arrows.

    ``noninclusions`` lists ordered concept pairs without an implication
    arrow whose sets happened not to nest on this game; they are
    informational, never failures.
    """

    sets: tuple[tuple[Concept, tuple[str, ...]], ...]
    arrows: tuple[tuple[Concept, Concept], ...]
    noninclusions: tuple[tuple[Concept, Concept], ...]

    def actions(self, concept: Concept) -> tuple[str, ...]:
        for c, members in self.sets:
            if c is concept:
                return members
        raise ValidationError(f"{concept.value} not in report")


def hierarchy_report(game: AgentGame) -> HierarchyReport:
    """Compute the reported concept sets and check every implication arrow."""
    ordered = {c: _concept_set(game, c) for c in _REPORT_CONCEPTS}
    computed = {c: set(members) for c, members in ordered.items()}
    for src, dst in _HIERARCHY_ARROWS:
        if not computed[src] <= computed[dst]:
            raise InternalConsistencyError(
                f"hierarchy violation on game {game.type_label!r}: "
                f"{src.value} {sorted(computed[src])} is not contained in "
                f"{dst.value} {sorted(computed[dst])}"
            )
    noninclusions = [(src, dst) for src, dst in _UNRELATED if not computed[src] <= computed[dst]]
    return HierarchyReport(
        sets=tuple(ordered.items()),
        arrows=_HIERARCHY_ARROWS,
        noninclusions=tuple(noninclusions),
    )


class FalsifyVerdict(enum.Enum):
    FALSIFIED = "falsified"
    SURVIVED_FAMILY = "survived-family"


@dataclass(frozen=True)
class FalsifyResult:
    """Outcome of testing a mixed candidate against a deviation family.

    ``SURVIVED_FAMILY`` certifies nothing beyond the family supplied; the
    check can only ever falsify.
    """

    verdict: FalsifyVerdict
    deviations_checked: int
    deviation: MixedAction | None = None
    candidate_min: Fraction | None = None
    deviation_min: Fraction | None = None
    candidate_state: str | None = None
    deviation_state: str | None = None


def _scaled_utilities(game: AgentGame, mixture: MixedAction) -> tuple[int, list[int]]:
    """A mixture's expected utility against each state, as integers over
    the returned denominator: the table's times the probabilities' own."""
    denominator, rows = game.scaled
    common = math.lcm(*[p.denominator for _, p in mixture.entries])
    weighted = [
        (rows[game.action_index(a)], p.numerator * (common // p.denominator))
        for a, p in mixture.entries
    ]
    return denominator * common, [
        sum(w * row[j] for row, w in weighted) for j in range(len(game.states))
    ]


def mixed_loss_averse_falsify(
    game: AgentGame, candidate: MixedAction, deviations: Sequence[MixedAction]
) -> FalsifyResult:
    """Search a deviation family for a loss-aversion counterexample.

    For each deviation the difference set is taken over expected
    utilities; a deviation whose worst case strictly beats the
    candidate's falsifies it.  Deviations equal to the candidate have an
    empty difference set and are vacuously survived.
    """
    cand_scale, cand_u = _scaled_utilities(game, candidate)
    cand_order = _state_order(cand_u)
    for dev in deviations:
        dev_scale, dev_u = _scaled_utilities(game, dev)
        # Both vectors over the product of their denominators; scaling by a
        # positive constant keeps each one's state order.
        found = _loss_averse_refutation(
            [u * dev_scale for u in cand_u],
            [u * cand_scale for u in dev_u],
            cand_order,
            _state_order(dev_u),
        )
        if found is not None:
            jc, jd = found
            return FalsifyResult(
                verdict=FalsifyVerdict.FALSIFIED,
                deviations_checked=len(deviations),
                deviation=dev,
                candidate_min=Fraction(cand_u[jc], cand_scale),
                deviation_min=Fraction(dev_u[jd], dev_scale),
                candidate_state=game.states[jc],
                deviation_state=game.states[jd],
            )
    return FalsifyResult(FalsifyVerdict.SURVIVED_FAMILY, len(deviations))


def _bland_optimum(
    game: AgentGame,
) -> tuple[Fraction, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The mixed safety value and an optimal pair of mixtures, by simplex.

    The integer-scaled rows are shifted so every entry U'(a, s) is at
    least 1, which makes the game's value positive.  Nature's program
    max sum(y) s.t. sum_s U'(a, s) y_s <= 1 for every action, y >= 0, then
    has the feasible slack basis to start from, and its optimum is one
    over the shifted value, with nature's mixture q = y / sum(y).  The
    agent's mixture p is the dual solution, read from the slack columns'
    reduced costs.  Pivots follow Bland's rule (lowest entering index,
    ties in the ratio test to the lowest basic index), so the method
    terminates; columns are the states, then the actions' slacks, both in
    game order.

    The tableau is fraction-free: it holds ``d`` times the true tableau,
    ``d`` the previous pivot, so every entry is an ``int`` and each pivot
    divides exactly.  Returns (value, p by action, q by state).
    """
    denominator, rows = game.scaled
    shift = 1 - min(min(row) for row in rows)
    n_actions, n_states = len(rows), len(rows[0])
    width = n_states + n_actions
    tableau = [
        [u + shift for u in row] + [int(i == k) for k in range(n_actions)] + [1]
        for i, row in enumerate(rows)
    ]
    tableau.append([-1] * n_states + [0] * (n_actions + 1))  # the objective row
    basis = list(range(n_states, width))
    d = 1
    while True:
        c = next((j for j in range(width) if tableau[-1][j] < 0), None)
        if c is None:
            break
        # The least ratio rhs / entry over the positive entries, ties to the
        # lowest basic index; the rows share ``d``, so ratios compare crosswise.
        # With every entry at least 1 the program is bounded, so column ``c``
        # has a positive entry.
        r = None
        for i, row in enumerate(tableau[:n_actions]):
            if row[c] <= 0:
                continue
            order = 0 if r is None else row[-1] * tableau[r][c] - tableau[r][-1] * row[c]
            if r is None or order < 0 or (order == 0 and basis[i] < basis[r]):
                r = i
        pivot_row = tableau[r]
        pivot = pivot_row[c]
        tableau = [
            row if i == r else [(pivot * a - row[c] * b) // d for a, b in zip(row, pivot_row)]
            for i, row in enumerate(tableau)
        ]
        basis[r] = c
        d = pivot
    objective = tableau[-1]
    z = objective[-1]  # d * sum(y)
    y = [0] * n_states
    for i, j in enumerate(basis):
        if j < n_states:
            y[j] = tableau[i][-1]
    # The shifted value is 1 / sum(y) = d / z; both mixtures are over z.
    value = Fraction(d - shift * z, z * denominator)
    p = tuple(Fraction(x, z) for x in objective[n_states:width])
    q = tuple(Fraction(v, z) for v in y)
    return value, p, q


def _check_certificate(
    game: AgentGame, value: Fraction, p: Sequence[Fraction], q: Sequence[Fraction]
) -> None:
    """Raise unless p and q are distributions and, on the rational rows,
    min_s u(p, s) = value = max_a u(a, q).

    By weak duality min_s u(p, s) <= u(p, q) <= max_a u(a, q), so the
    equalities prove both mixtures optimal and ``value`` the game's value.
    """
    for name, mixture in (("agent", p), ("nature", q)):
        if any(x < 0 for x in mixture) or sum(mixture) != 1:
            raise InternalConsistencyError(f"{name} mixture {mixture} is not a distribution")
    guarantee = min(
        sum(x * row[j] for x, row in zip(p, game.rows) if x) for j in range(len(game.states))
    )
    best_reply = max(sum(x * u for x, u in zip(q, row) if x) for row in game.rows)
    if not guarantee == value == best_reply:
        raise InternalConsistencyError(
            f"mixed safety certificate fails on game {game.type_label!r}: the agent's "
            f"mixture guarantees {guarantee}, nature's holds every action to "
            f"{best_reply}, the solved value is {value}"
        )


def mixed_safety_value(game: AgentGame) -> tuple[Fraction, MixedAction]:
    """Exact max-min value over all mixed actions, with a witness mixture.

    Solved by an exact simplex (``_bland_optimum``) and certified by
    minimax duality against nature's optimal mixture before it returns.
    The witness is the first pure action whose worst case is the value,
    if there is one, and otherwise the simplex's basic optimum.
    """
    value, p, q = _bland_optimum(game)
    denominator, rows = game.scaled
    level = value * denominator
    pure = next((i for i, row in enumerate(rows) if min(row) == level), None)
    if pure is not None:
        p = tuple(Fraction(int(i == pure)) for i in range(len(rows)))
    _check_certificate(game, value, p, q)
    return value, MixedAction.from_mapping(dict(zip(game.actions, p)))


def mixed_safety_level_solve_2x2(game: AgentGame) -> MixedAction:
    """Exact optimal mixture for a 2-action, 2-state game.

    Returns the equalizing interior mixture when it is needed to reach
    the mixed max-min value, otherwise the better pure action.
    """
    if len(game.actions) != 2 or len(game.states) != 2:
        raise ValidationError(
            f"solver needs a 2x2 game, got {len(game.actions)}x{len(game.states)}"
        )
    value, _ = mixed_safety_value(game)
    for a in game.actions:
        if min(game.row(a)) == value:
            return MixedAction.pure(a)
    (u11, u12), (u21, u22) = game.rows
    denom = u11 - u12 - u21 + u22
    if denom == 0:
        raise InternalConsistencyError("no pure optimum and no equalizing mixture")
    p = (u22 - u21) / denom
    mix = MixedAction.from_mapping({game.actions[0]: p, game.actions[1]: 1 - p})
    if min(mixed_utility(game, mix, s) for s in game.states) != value:
        raise InternalConsistencyError("equalizing mixture misses the solved value")
    return mix


@dataclass(frozen=True)
class MixtureAugmentation:
    """Synthetic nature states blending one state towards a floor state.

    For each weight ``eps`` a new state is added whose utility row is
    ``eps * u(., bar_state) + (1 - eps) * u(., floor_state)``.  The floor
    state must force every action's utility down to at most the game's
    safety level; weights are strictly between 0 and 1.
    """

    bar_state: str
    floor_state: str
    epsilons: tuple[Fraction, ...]


def augment_with_mixed_nature(game: AgentGame, aug: MixtureAugmentation) -> AgentGame:
    """Append the augmentation's synthetic states to the game."""
    bar = game.state_index(aug.bar_state)
    floor = game.state_index(aug.floor_state)
    epsilons: list[Fraction] = []
    for eps in map(scalar, aug.epsilons):
        if not (0 < eps < 1):
            raise ValidationError(f"mixture weight {eps} is not strictly inside (0, 1)")
        if eps in epsilons:
            raise ValidationError(f"duplicate mixture weight {eps}")
        epsilons.append(eps)
    level = safety_level(game)
    for a, row in zip(game.actions, game.rows):
        if row[floor] > level:
            raise ValidationError(
                f"floor state {aug.floor_state!r} does not force action {a!r} "
                f"down to the safety level"
            )
    new_labels = []
    for eps in epsilons:
        label = f"mix-{eps}"
        if label in game.states or label in new_labels:
            raise ValidationError(f"synthetic state label {label!r} collides")
        new_labels.append(label)
    states = game.states + tuple(new_labels)
    rows = tuple(
        row + tuple(eps * row[bar] + (1 - eps) * row[floor] for eps in epsilons)
        for row in game.rows
    )
    return AgentGame(game.type_label, game.actions, states, rows)


def format_verdict(game: AgentGame, verdict: ConceptVerdict) -> str:
    """Serialize a concept verdict to the structured text schema."""
    satisfying = " ".join(verdict.satisfying) if verdict.satisfying else "-"
    lines = [f"verdict v1\nconcept {verdict.concept.value}\nactions {satisfying}"]
    for ref in verdict.refutations:
        competitor = "-" if ref.competitor is None else ref.competitor
        states = ",".join(ref.states) if ref.states else "-"
        other = "-" if ref.other_value is None else format_scalar(ref.other_value)
        lines.append(
            f"refutation {ref.action} vs {competitor} states {states} "
            f"self {format_scalar(ref.self_value)} other {other}"
        )
    lines.append("end\n")
    return "\n".join(lines)

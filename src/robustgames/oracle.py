"""Brute-force reference implementations used to cross-check the engine.

Everything here is written directly from the defining text of each
concept, with no cleverness and no code shared with the engine modules
beyond the core data types.  The point is an independent second route to
the same numbers, so keep these naive even where they are slow.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .core import AgentGame, MixedAction, mixed_utility
from .errors import CapacityError

ORACLE_STEP_BUDGET = 10**7


def naive_loss_averse(game: AgentGame) -> set[str]:
    """Pure loss-averse actions, by the literal pairwise definition."""
    result = set()
    for a in game.actions:
        ok = True
        for b in game.actions:
            if a == b:
                continue
            diff = [
                j
                for j in range(len(game.states))
                if game.row(a)[j] != game.row(b)[j]
            ]
            if not diff:
                continue  # identical on every state: vacuously fine
            worst_a = min(game.row(a)[j] for j in diff)
            worst_b = min(game.row(b)[j] for j in diff)
            if worst_a < worst_b:
                ok = False
                break
        if ok:
            result.add(a)
    return result


def naive_loss_averse_star(game: AgentGame) -> set[str]:
    """Pure loss-averse-star actions, by the literal one-sided definition.

    Against every other action, the worst utility over the states where
    the action is strictly worse is at least the other's worst utility
    over the states where the other is strictly worse.  A side that is
    never strictly worse has the top element as its worst case.
    """
    result = set()
    for a in game.actions:
        ok = True
        for b in game.actions:
            if a == b:
                continue
            a_loses = [
                game.utility(a, s) for s in game.states if game.utility(a, s) < game.utility(b, s)
            ]
            b_loses = [
                game.utility(b, s) for s in game.states if game.utility(b, s) < game.utility(a, s)
            ]
            if not a_loses:
                continue  # a's worst case is the top element
            if not b_loses or min(a_loses) < min(b_loses):
                ok = False
                break
        if ok:
            result.add(a)
    return result


def naive_safety_level(game: AgentGame) -> set[str]:
    """Actions whose worst utility is the largest worst utility of any action."""
    worst = {a: min(game.utility(a, s) for s in game.states) for a in game.actions}
    level = max(worst.values())
    return {a for a in game.actions if worst[a] == level}


def naive_individually_rational(game: AgentGame) -> set[str]:
    """Actions with a non-negative utility against every state."""
    return {a for a in game.actions if all(game.utility(a, s) >= 0 for s in game.states)}


def naive_weakly_dominant(game: AgentGame) -> set[str]:
    """Actions at least as good as every other action on every state."""
    return {
        a
        for a in game.actions
        if all(
            game.utility(a, s) >= game.utility(b, s)
            for b in game.actions
            for s in game.states
        )
    }


def naive_strictly_dominated(game: AgentGame) -> set[str]:
    """Actions some other action beats weakly everywhere and strictly somewhere."""
    result = set()
    for a in game.actions:
        for b in game.actions:
            if b == a:
                continue
            weakly = all(game.utility(b, s) >= game.utility(a, s) for s in game.states)
            strictly = any(game.utility(b, s) > game.utility(a, s) for s in game.states)
            if weakly and strictly:
                result.add(a)
    return result


def naive_min_max_regret(game: AgentGame) -> set[str]:
    """Actions whose largest shortfall to the per-state best is smallest."""
    regret = {}
    for a in game.actions:
        shortfalls = []
        for s in game.states:
            best = max(game.utility(b, s) for b in game.actions)
            shortfalls.append(best - game.utility(a, s))
        regret[a] = max(shortfalls)
    floor = min(regret.values())
    return {a for a in game.actions if regret[a] == floor}


def _solve_linear(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Gaussian elimination over the rationals; None if singular."""
    n = len(matrix)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def naive_mixed_safety_value(game: AgentGame) -> tuple[Fraction, MixedAction]:
    """Exact max-min value over all mixed actions, with a witness mixture.

    Solved by enumerating candidate supports and tight state sets; every
    basic optimum of the underlying linear program appears among the
    square systems this visits, so the maximum over feasible candidates
    is the exact value.  Pure actions are visited first, in game order,
    and a candidate replaces the incumbent only when it guarantees more.
    """
    n_actions = len(game.actions)
    n_states = len(game.states)
    best_value: Fraction | None = None
    best_mix: MixedAction | None = None

    def consider(probs: dict[str, Fraction]) -> None:
        nonlocal best_value, best_mix
        mix = MixedAction.from_mapping(probs)
        guarantee = min(mixed_utility(game, mix, s) for s in game.states)
        if best_value is None or guarantee > best_value:
            best_value = guarantee
            best_mix = mix

    for a in game.actions:
        consider({a: Fraction(1)})

    supports = []
    for code in range(1, 1 << n_actions):
        support = [i for i in range(n_actions) if code & (1 << i)]
        if len(support) >= 2:
            supports.append(support)
    for support in supports:
        k = len(support)
        for code in range(1, 1 << n_states):
            tight = [j for j in range(n_states) if code & (1 << j)]
            if len(tight) != k:
                continue
            # Unknowns: the k probabilities followed by the common value v.
            matrix = []
            rhs = []
            for j in tight:
                matrix.append([game.rows[i][j] for i in support] + [Fraction(-1)])
                rhs.append(Fraction(0))
            matrix.append([Fraction(1)] * k + [Fraction(0)])
            rhs.append(Fraction(1))
            solution = _solve_linear(matrix, rhs)
            if solution is None:
                continue
            probs = solution[:k]
            if any(p < 0 for p in probs):
                continue
            consider({game.actions[i]: p for i, p in zip(support, probs)})

    assert best_value is not None and best_mix is not None
    return best_value, best_mix


def _strip_compare(xs: list[Fraction], ys: list[Fraction], one_copy: bool) -> int:
    """Compare two outcome collections by repeated minimum-stripping.

    Returns 1 if ``xs`` is better, -1 if ``ys`` is better, 0 if equal.
    A side that runs out of values counts as better (minimum over an
    empty set is treated as the top element).
    """
    xs = sorted(xs)
    ys = sorted(ys)
    while True:
        if not xs and not ys:
            return 0
        if not xs:
            return 1
        if not ys:
            return -1
        mx, my = xs[0], ys[0]
        if mx != my:
            return 1 if mx > my else -1
        if one_copy:
            xs.pop(0)
            ys.pop(0)
        else:
            xs = [v for v in xs if v != mx]
            ys = [v for v in ys if v != my]


def naive_leximin(game: AgentGame, with_multiplicities: bool) -> set[str]:
    """Leximin actions via the literal stripping procedure.

    ``with_multiplicities`` selects the multiset variant (strip exactly one
    copy of the minimum per round); otherwise duplicate outcome values are
    collapsed first and every copy of the minimum is stripped per round.
    """
    outcomes = {}
    for a in game.actions:
        row = list(game.row(a))
        outcomes[a] = row if with_multiplicities else list(set(row))
    result = set()
    for a in game.actions:
        if all(
            _strip_compare(outcomes[a], outcomes[b], with_multiplicities) >= 0
            for b in game.actions
            if b != a
        ):
            result.add(a)
    return result


def naive_winner_determination(
    tables: Sequence[Sequence[Fraction]], item_count: int
) -> tuple[Fraction, tuple[int, ...]]:
    """Exhaustively best assignment of ``item_count`` items to bid tables.

    ``tables[j][mask]`` is bidder ``j``'s value for the bundle coded by
    ``mask``.  Every item is assigned.  Returns the maximal total value and
    the first assignment attaining it in recursion order (item 0 varies
    slowest).  No tie-break beyond first-found; callers compare welfare.
    """
    n = len(tables)
    if n == 0:
        raise ValueError("need at least one bid table")
    if n**item_count > ORACLE_STEP_BUDGET:
        raise CapacityError(
            f"{n}^{item_count} assignments exceed the oracle budget of {ORACLE_STEP_BUDGET}"
        )
    best_val: Fraction | None = None
    best_assign: tuple[int, ...] = ()
    assign = [0] * item_count
    masks = [0] * n

    def recurse(item: int) -> None:
        nonlocal best_val, best_assign
        if item == item_count:
            total = Fraction(0)
            for j in range(n):
                total += tables[j][masks[j]]
            if best_val is None or total > best_val:
                best_val = total
                best_assign = tuple(assign)
            return
        for j in range(n):
            assign[item] = j
            masks[j] |= 1 << item
            recurse(item + 1)
            masks[j] &= ~(1 << item)

    recurse(0)
    assert best_val is not None
    return best_val, best_assign


def naive_tie_broken_assignment(
    tables: Sequence[Sequence[Fraction]], item_count: int, items_mask: int | None = None
) -> tuple[Fraction, tuple[int, ...]]:
    """Best assignment of the items in ``items_mask`` under the documented tie-break.

    Scans every assignment in ascending lexicographic order (item 0 varies
    slowest), summing ``Fraction`` values directly.  An assignment replaces
    the incumbent when its total is higher, or when the totals tie and its
    descending-sorted bundle-size profile is lexicographically larger; so
    the lexicographically smallest assignment wins among full ties.
    Returns (welfare, assignment) with -1 for items outside the mask.
    """
    n = len(tables)
    if n == 0:
        raise ValueError("need at least one bid table")
    mask = (1 << item_count) - 1 if items_mask is None else items_mask
    items = [i for i in range(item_count) if mask & (1 << i)]
    if n ** len(items) > ORACLE_STEP_BUDGET:
        raise CapacityError(
            f"{n}^{len(items)} assignments exceed the oracle budget of {ORACLE_STEP_BUDGET}"
        )
    best: tuple[Fraction, list[int]] | None = None
    best_choice: list[int] = []
    choice = [0] * len(items)
    while True:
        bundles = [0] * n
        for item, owner in zip(items, choice):
            bundles[owner] |= 1 << item
        total = Fraction(0)
        for j in range(n):
            total += tables[j][bundles[j]]
        profile = sorted((bin(b).count("1") for b in bundles), reverse=True)
        if best is None or (total, profile) > best:
            best = (total, profile)
            best_choice = list(choice)
        # Next assignment in lexicographic order: the last item varies fastest.
        position = len(items) - 1
        while position >= 0 and choice[position] == n - 1:
            choice[position] = 0
            position -= 1
        if position < 0:
            break
        choice[position] += 1
    assignment = [-1] * item_count
    for item, owner in zip(items, best_choice):
        assignment[item] = owner
    return best[0], tuple(assignment)

"""Discrete VCG combinatorial auction under false-name (Sybil) attacks.

Bundles are bitmasks over item indices.  Every computation first scales
the bid tables it works on by the least common multiple of their
denominators, once, so searches and sums run on ``int``s; results come
back as exact ``Fraction``s over that scale.

Welfare *values* come from one max-plus subset DP over bundle masks,
O(n·3^m) for n bids and m items (Rothkopf, Pekeč & Harstad, Mgmt. Sci.
1998): joining the bids one at a time gives the best partition value of
every bundle at once.  Attack classification reads all 2^m bundles from
one such table, and the Clarke payments read every leave-one-out welfare
from shared prefix and suffix tables.  The winning *assignment* is found
once per mechanism run by an exhaustive search with a documented total
tie-break order, so every result is deterministic and exactly optimal.

Two payment rules are provided: the textbook Clarke pivot, and a literal
reading of the difference-of-welfares formula where the runner-up
welfare is an optimal re-allocation of the remaining items among all
bids.  The claim-certification helpers always run on the Clarke rule;
the literal rule degenerates for single-bid profiles (it charges the
whole welfare).

Valuations and bids share one bundle-table type.  Attack classification
compares, bundle by bundle, the best internal partition value of the
Sybil bids against the true valuation, and lists every bundle the attack
over- or underbids; one refutation loop then builds the nature states
that refute overbidding and underbidding attacks, checking its own
postconditions by running the mechanism.  An attack's utility against
nature bids, truthful bidding included, is one call of the integer
mechanism core that ``run_vcg`` also runs after its validation.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .core import scalar, scale_rows
from .errors import CapacityError, InternalConsistencyError, ValidationError

MAX_ITEMS = 8
SEARCH_BUDGET = 10**7


def full_mask(item_count: int) -> int:
    return (1 << item_count) - 1


def mask_items(mask: int) -> tuple[int, ...]:
    return tuple([i for i in range(mask.bit_length()) if mask & (1 << i)])


def bundle_label(mask: int, items: Sequence[str]) -> str:
    if mask == 0:
        return "-"
    return ",".join(items[i] for i in mask_items(mask))


def _check_table(item_count: int, values: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if not 1 <= item_count <= MAX_ITEMS:
        raise CapacityError(f"bundle table item count {item_count} outside 1..{MAX_ITEMS}")
    values = tuple(scalar(v) for v in values)
    if len(values) != 1 << item_count:
        raise ValidationError(
            f"bundle table has {len(values)} entries, needs {1 << item_count}"
        )
    if values[0] != 0:
        raise ValidationError(
            f"bundle table must assign 0 to the empty bundle, got {values[0]}"
        )
    bad = next((v for v in values if v < 0), None)
    if bad is not None:
        raise ValidationError(f"bundle table has a negative entry {bad}")
    return values


@dataclass(frozen=True)
class BundleTable:
    """A value for every bundle, indexed by bundle bitmask.

    One type serves as a true valuation and as a declared bid, since a
    bid is a declared valuation: bidding truthfully submits the valuation
    itself.  ``CombValuation`` and ``CombBid`` both name this class.
    """

    item_count: int
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _check_table(self.item_count, self.values))

    def value(self, mask: int) -> Fraction:
        return self.values[mask]

    @functools.cached_property
    def _integers(self) -> tuple[int, tuple[int, ...]]:
        """The entries' common denominator and the entries as integers over it."""
        denominator, (integers,) = scale_rows([self.values])
        return denominator, integers


CombValuation = CombBid = BundleTable


def additive_bid(per_item: Sequence[Fraction]) -> CombBid:
    """The table whose value of a bundle is the sum of its items' values."""
    per_item = tuple(scalar(v) for v in per_item)
    return CombBid(
        len(per_item),
        tuple(
            sum((per_item[i] for i in mask_items(mask)), Fraction(0))
            for mask in range(1 << len(per_item))
        ),
    )


additive_valuation = additive_bid


def single_minded_bid(item_count: int, mask: int, amount: Fraction) -> CombBid:
    """Bid ``amount`` on every bundle containing ``mask``, 0 elsewhere."""
    amount = scalar(amount)
    values = tuple(
        amount if code & mask == mask and code != 0 else Fraction(0)
        for code in range(1 << item_count)
    )
    return CombBid(item_count, values)


@dataclass(frozen=True)
class XosValuation:
    """Max over additive clauses; covers all submodular valuations and more."""

    item_count: int
    clauses: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.clauses:
            raise ValidationError("expected at least one additive clause")
        clauses = []
        for clause in self.clauses:
            clause = tuple(scalar(v) for v in clause)
            if len(clause) != self.item_count:
                raise ValidationError(
                    f"clause length {len(clause)} does not match {self.item_count} items"
                )
            if any(v < 0 for v in clause):
                raise ValidationError("clause entries must be non-negative")
            clauses.append(clause)
        object.__setattr__(self, "clauses", tuple(clauses))


def xos_to_valuation(x: XosValuation) -> CombValuation:
    values = []
    for mask in range(1 << x.item_count):
        items = mask_items(mask)
        values.append(
            max(sum((clause[i] for i in items), Fraction(0)) for clause in x.clauses)
            if mask
            else Fraction(0)
        )
    return CombValuation(x.item_count, tuple(values))


@dataclass(frozen=True)
class SybilProfile:
    """One real agent: its true valuation and the bid vector it submits."""

    valuation: CombValuation
    bids: tuple[CombBid, ...]

    def __post_init__(self) -> None:
        if not self.bids:
            raise ValidationError("an agent must submit at least one bid")
        for bid in self.bids:
            if bid.item_count != self.valuation.item_count:
                raise ValidationError("bid and valuation item counts differ")

    @classmethod
    def truthful(cls, valuation: CombValuation) -> "SybilProfile":
        return cls(valuation, (valuation,))


def _scaled(tables: Sequence[BundleTable]) -> tuple[int, list[Sequence[int]]]:
    """The tables' common denominator, and each table as integers over it."""
    scale = math.lcm(*[table._integers[0] for table in tables])
    out = []
    for table in tables:
        denominator, integers = table._integers
        if denominator != scale:
            integers = [v * (scale // denominator) for v in integers]
        out.append(integers)
    return scale, out


@functools.cache
def _splits(item_count: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For every mask, each (submask, rest) pair that splits it in two."""
    out = []
    for mask in range(1 << item_count):
        pairs = []
        sub = mask
        while True:
            pairs.append((sub, mask ^ sub))
            if sub == 0:
                break
            sub = (sub - 1) & mask
        out.append(tuple(pairs))
    return tuple(out)


def _join(best: Sequence[int], table: Sequence[int], item_count: int) -> list[int]:
    """Max-plus convolution: every mask's best value once one more bid joins."""
    return [max([best[rest] + table[sub] for sub, rest in pairs]) for pairs in _splits(item_count)]


def _partition_table(tables: Sequence[Sequence[int]], item_count: int) -> Sequence[int]:
    """Best value of each mask over partitions of it among the bids, one part each."""
    best = tables[0]
    for table in tables[1:]:
        best = _join(best, table, item_count)
    return best


def _tie_broken_assignment(
    tables: Sequence[Sequence[int]], items: tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    """Exhaustive search for the best owners of ``items`` in tie-break order."""
    n = len(tables)
    if n ** len(items) > SEARCH_BUDGET:
        raise CapacityError(
            f"assignment space {n}^{len(items)} exceeds the search budget {SEARCH_BUDGET}"
        )
    bits = [1 << i for i in items]
    best_welfare = -1
    best_profile: list[int] = []
    best_choice: tuple[int, ...] = ()
    for choice in itertools.product(range(n), repeat=len(items)):
        bundles = [0] * n
        for bit, owner in zip(bits, choice):
            bundles[owner] |= bit
        welfare = sum([table[bundle] for table, bundle in zip(tables, bundles)])
        if welfare < best_welfare:
            continue
        profile = sorted([b.bit_count() for b in bundles], reverse=True)
        if welfare > best_welfare or profile > best_profile:
            best_welfare = welfare
            best_profile = profile
            best_choice = choice
    return best_welfare, best_choice


def winner_determination(
    bids: Sequence[CombBid], item_count: int, items_mask: int | None = None
) -> tuple[Fraction, tuple[int, ...]]:
    """Exhaustive welfare-maximizing assignment of items to bids.

    Returns (welfare, assignment) where assignment[i] is the winning bid
    index for item i, or -1 for items outside ``items_mask``.  Ties are
    broken first towards the descending-sorted bundle-size profile that
    is lexicographically maximal (concentrating items into larger
    bundles), then towards the lexicographically smallest assignment
    vector.  The second rule is realized by scanning assignments in
    ascending lexicographic order and keeping only strict improvements.
    The bid tables are scaled once to integers over the LCM of their
    denominators, the search runs on those, and the welfare is returned
    exactly.  Callers that need only a welfare value use the subset DP
    (``best_partition_value``) instead of this search.
    """
    if not bids:
        raise ValidationError("winner determination needs at least one bid")
    if not 1 <= item_count <= MAX_ITEMS:
        raise CapacityError(f"item count {item_count} outside 1..{MAX_ITEMS}")
    for bid in bids:
        if bid.item_count != item_count:
            raise ValidationError("bid item count does not match the instance")
    mask = full_mask(item_count) if items_mask is None else items_mask
    items = mask_items(mask)
    scale, tables = _scaled(bids)
    welfare, choice = _tie_broken_assignment(tables, items)
    assignment = [-1] * item_count
    for item, owner in zip(items, choice):
        assignment[item] = owner
    return Fraction(welfare, scale), tuple(assignment)


def assignment_bundles(assignment: tuple[int, ...], bid_count: int) -> tuple[int, ...]:
    bundles = [0] * bid_count
    for item, owner in enumerate(assignment):
        if owner >= 0:
            bundles[owner] |= 1 << item
    return tuple(bundles)


class PaymentRule(enum.Enum):
    CLARKE_PIVOT = "clarke"
    PAPER_LITERAL = "paper"


def _payments(
    tables: Sequence[Sequence[int]],
    item_count: int,
    welfare: int,
    bundles: tuple[int, ...],
    rule: PaymentRule,
) -> list[int]:
    """Each bid's payment on the scaled tables.

    Clarke: the others' optimum without the bid, less their value in the
    chosen outcome.  Every leave-one-out optimum combines the partition
    table of the bids before it with that of the bids after it.  Literal:
    the welfare less the optimum of all bids on the items the bid did not
    win.
    """
    every = full_mask(item_count)
    if rule is PaymentRule.PAPER_LITERAL:
        everyone = _partition_table(tables, item_count)
        return [welfare - everyone[every & ~bundle] for bundle in bundles]
    n = len(tables)
    before: list[Sequence[int] | None] = [None]
    for table in tables[:-1]:
        before.append(table if before[-1] is None else _join(before[-1], table, item_count))
    out = [0] * n
    after: Sequence[int] | None = None
    for j in reversed(range(n)):
        prefix = before[j]
        if prefix is None:
            without = 0 if after is None else after[every]
        elif after is None:
            without = prefix[every]
        else:
            without = max([prefix[rest] + after[sub] for sub, rest in _splits(item_count)[every]])
        out[j] = without - (welfare - tables[j][bundles[j]])
        if j:
            after = tables[j] if after is None else _join(after, tables[j], item_count)
    return out


@dataclass(frozen=True)
class VcgOutcome:
    """Everything the mechanism produced, per flat bid and per real agent."""

    item_count: int
    payment_rule: PaymentRule
    assignment: tuple[int, ...]
    bundles: tuple[int, ...]
    payments: tuple[Fraction, ...]
    observed_welfare: Fraction
    real_welfare: Fraction
    agent_of_bid: tuple[int, ...]
    agent_bundles: tuple[int, ...]
    agent_utilities: tuple[Fraction, ...]


def _is_multiple(value: Fraction, step: Fraction) -> bool:
    return (value / step).denominator == 1


def bid_grid_step(epsilon: Fraction, item_count: int) -> Fraction:
    """Bids live on a grid 2·m! times finer than valuations."""
    return scalar(epsilon) / (2 * math.factorial(item_count))


def _mechanism(
    tables: Sequence[Sequence[int]], item_count: int, rule: PaymentRule
) -> tuple[int, tuple[int, ...], tuple[int, ...], list[int]]:
    """The mechanism on scaled bid tables: welfare, assignment, bundles, payments."""
    welfare, assignment = _tie_broken_assignment(tables, mask_items(full_mask(item_count)))
    bundles = assignment_bundles(assignment, len(tables))
    observed = sum([table[bundle] for table, bundle in zip(tables, bundles)])
    if observed != welfare:
        raise InternalConsistencyError("observed welfare does not match the search value")
    return observed, assignment, bundles, _payments(tables, item_count, observed, bundles, rule)


def run_vcg(
    profiles: Sequence[SybilProfile],
    item_count: int,
    epsilon: Fraction | None = None,
    payment_rule: PaymentRule = PaymentRule.CLARKE_PIVOT,
) -> VcgOutcome:
    """Flatten all Sybil bids, allocate, charge, and score welfare.

    The bids and the valuations are scaled once, onto one denominator;
    the items go to the bids by the tie-broken search that
    ``winner_determination`` documents.  When ``epsilon`` is given,
    valuations are checked against its grid and bids against the finer
    bid grid.
    """
    if not profiles:
        raise ValidationError("need at least one agent profile")
    for p in profiles:
        if p.valuation.item_count != item_count:
            raise ValidationError("profile item count does not match the instance")
    if epsilon is not None:
        epsilon = scalar(epsilon)
        if epsilon <= 0:
            raise ValidationError(f"grid step must be positive, got {epsilon}")
        fine = bid_grid_step(epsilon, item_count)
        for p in profiles:
            for v in p.valuation.values:
                if not _is_multiple(v, epsilon):
                    raise ValidationError(f"valuation entry {v} is off the {epsilon} grid")
            for bid in p.bids:
                for v in bid.values:
                    if not _is_multiple(v, fine):
                        raise ValidationError(f"bid entry {v} is off the {fine} bid grid")
    flat: list[CombBid] = []
    agent_of_bid: list[int] = []
    for i, p in enumerate(profiles):
        for bid in p.bids:
            flat.append(bid)
            agent_of_bid.append(i)
    scale, tables = _scaled(flat + [p.valuation for p in profiles])
    tables, values = tables[: len(flat)], tables[len(flat):]
    observed, assignment, bundles, payments = _mechanism(tables, item_count, payment_rule)
    agent_bundles = [0] * len(profiles)
    paid = [0] * len(profiles)
    for j, owner in enumerate(agent_of_bid):
        agent_bundles[owner] |= bundles[j]
        paid[owner] += payments[j]
    real = sum([value[union] for value, union in zip(values, agent_bundles)])
    return VcgOutcome(
        item_count=item_count,
        payment_rule=payment_rule,
        assignment=assignment,
        bundles=bundles,
        payments=tuple([Fraction(p, scale) for p in payments]),
        observed_welfare=Fraction(observed, scale),
        real_welfare=Fraction(real, scale),
        agent_of_bid=tuple(agent_of_bid),
        agent_bundles=tuple(agent_bundles),
        agent_utilities=tuple(
            [
                Fraction(value[union] - cost, scale)
                for value, union, cost in zip(values, agent_bundles, paid)
            ]
        ),
    )


def utility_against(
    valuation: CombValuation,
    bids: Sequence[CombBid],
    nature: Sequence[CombBid],
) -> Fraction:
    """The attacking agent's Clarke utility when facing the given nature bids.

    Nature bids are modeled as one extra agent per bid whose valuation
    equals its bid, so this is ``run_vcg``'s ``agent_utilities[0]``, read
    from one run of the mechanism core: the value of the union of the
    attacker's bundles less the sum of its payments.
    """
    m, k = valuation.item_count, len(bids)
    if not k or any(table.item_count != m for table in (*bids, *nature)):
        raise ValidationError("need at least one bid, and every table on the valuation's items")
    scale, (value, *tables) = _scaled([valuation, *bids, *nature])
    _, _, bundles, payments = _mechanism(tables, m, PaymentRule.CLARKE_PIVOT)
    # The bundles are disjoint, so their sum is their union.
    return Fraction(value[sum(bundles[:k])] - sum(payments[:k]), scale)


class AttackKind(enum.Enum):
    OVERBIDDING = "overbidding"
    UNDERBIDDING = "underbidding"
    EXACT_BIDDING = "exact-bidding"


@dataclass(frozen=True)
class AttackClassification:
    """The kind, the bundles over- or underbid (ascending), best partition values."""

    kind: AttackKind
    masks: tuple[int, ...]
    best_partition: tuple[Fraction, ...]

    @property
    def witness_mask(self) -> int | None:
        return self.masks[0] if self.masks else None


def best_partition_value(bids: Sequence[CombBid], item_count: int, mask: int) -> Fraction:
    """Best total the Sybil bids can declare for ``mask`` via any partition."""
    if mask == 0 or not bids:
        return Fraction(0)
    for bid in bids:
        if bid.item_count != item_count:
            raise ValidationError("bid item count does not match the instance")
    scale, tables = _scaled(bids)
    return Fraction(_partition_table(tables, item_count)[mask], scale)


def classify_attack(valuation: CombValuation, bids: Sequence[CombBid]) -> AttackClassification:
    """Compare the bids' best partition value against v on every bundle.

    Overbidding anywhere takes precedence over underbidding; the masks
    are every bundle of the winning kind, in ascending order, and the
    witness is the first of them.
    """
    if not bids:
        raise ValidationError("classification needs at least one bid")
    m = valuation.item_count
    for bid in bids:
        if bid.item_count != m:
            raise ValidationError("bid item count does not match the valuation")
    scale, (target, *tables) = _scaled([valuation, *bids])
    value = _partition_table(tables, m)
    best = tuple([Fraction(v, scale) for v in value])
    masks = range(1, 1 << m)
    over = tuple([mask for mask in masks if value[mask] > target[mask]])
    if over:
        return AttackClassification(AttackKind.OVERBIDDING, over, best)
    under = tuple([mask for mask in masks if value[mask] < target[mask]])
    if under:
        return AttackClassification(AttackKind.UNDERBIDDING, under, best)
    return AttackClassification(AttackKind.EXACT_BIDDING, (), best)


def snap_to_grid_between(lo: Fraction, hi: Fraction, step: Fraction) -> Fraction:
    """A value strictly inside (lo, hi), on the ``step`` grid if one fits.

    When the endpoints are a single step apart no grid point fits and the
    exact midpoint (a half step) is returned instead.
    """
    if not lo < hi:
        raise ValidationError(f"empty interval ({lo}, {hi})")
    mid = (lo + hi) / 2
    k = (mid / step).__floor__()
    for candidate in (step * k, step * (k + 1)):
        if lo < candidate < hi:
            return candidate
    return mid


def _adversary_ceiling(
    valuation: CombValuation, bids: Sequence[CombBid], step: Fraction
) -> Fraction:
    """Per-item price no combination of Sybil or truthful values can beat.

    Exceeds the sum of every bid's maximum plus the valuation's maximum,
    so conceding even one such item can never be compensated.  Snapped
    up to the bid grid.
    """
    total = max(valuation.values)
    for bid in bids:
        total += max(bid.values)
    total += 1
    return step * (-((-total) / step).__floor__())


@dataclass(frozen=True)
class AdversaryReport:
    """Refutation outcome for an overbidding or an underbidding attack.

    ``refuted`` means a single nature bid was found, and certified by
    running the mechanism, under which
    - an overbidding attack earns strictly negative utility while truth
      stays non-negative (truth going negative is a violated theorem);
    - an underbidding attack earns exactly 0 while truth earns strictly
      more.
    An attack that deviates only on bundles shadowed everywhere by its
    own better bids never engages there, so no such nature bid exists and
    the attack can be outcome-equivalent to truth.  Those reports carry no
    adversary, ``refuted`` is False and the form is "none"; equivalence
    is then checked over a nature family plus the ``tried`` candidates.
    ``witness_mask`` and ``tilde`` are the refuting bundle and amount, or
    the first ones tried when unrefuted.
    """

    witness_mask: int
    tilde: Fraction
    adversary: CombBid | None
    attack_utility: Fraction | None
    truth_utility: Fraction | None
    refuted: bool
    form: str
    tried: tuple[CombBid, ...] = ()


def _candidate_forms(
    kind: AttackKind, target: Fraction, best: Fraction, step: Fraction
) -> list[tuple[Fraction, str]]:
    """The (tilde, form) candidates for a bundle worth ``target`` under v.

    Each tilde lies strictly between v and the attack's best partition
    value ``best`` of the bundle; the first is the midpoint, snapped to
    the bid grid where a grid point fits.  An overbid also tries one grid
    step inside either end, in both forms; an underbid tries one step
    under the true value in the bundle form only.
    """
    over = kind is AttackKind.OVERBIDDING
    lo, hi = (target, best) if over else (best, target)
    tildes = [snap_to_grid_between(lo, hi, step)]
    for extra in (lo + step, hi - step) if over else (hi - step,):
        if lo < extra < hi and extra not in tildes:
            tildes.append(extra)
    additive = tildes if over else tildes[:1]
    return [(t, "additive") for t in additive] + [(t, "bundle") for t in tildes]


def _adversary_bid(
    item_count: int, mask: int, tilde: Fraction, form: str, bar: Fraction
) -> CombBid:
    """Nature bid asking ``tilde`` for ``mask`` and ``bar`` for every other item.

    The additive form prices the items of ``mask`` at an equal share of
    ``tilde`` each.  The bundle form asks ``tilde`` only for ``mask`` as a
    whole, so Sybils that win a profitable part of the bundle cannot dodge
    it.
    """
    if form == "additive":
        share = tilde / mask.bit_count()
        return additive_bid([share if mask >> i & 1 else bar for i in range(item_count)])
    outside = full_mask(item_count) & ~mask
    return CombBid(
        item_count,
        tuple(
            bar * (code & outside).bit_count() + (tilde if code & mask == mask else Fraction(0))
            for code in range(1 << item_count)
        ),
    )


def _refute(
    valuation: CombValuation,
    bids: Sequence[CombBid],
    kind: AttackKind,
    epsilon: Fraction | None,
) -> AdversaryReport:
    """The refutation loop of both adversaries.

    Every bundle the attack over- or underbids (by ``kind``), in ascending
    mask order, gets each candidate of ``_candidate_forms``; the first one
    the mechanism certifies is reported.
    """
    cls = classify_attack(valuation, bids)
    if cls.kind is not kind:
        raise ValidationError(f"profile classifies as {cls.kind.value}, not {kind.value}")
    m = valuation.item_count
    step = bid_grid_step(Fraction(1) if epsilon is None else scalar(epsilon), m)
    bar = _adversary_ceiling(valuation, bids, step)
    over = kind is AttackKind.OVERBIDDING
    best = cls.best_partition
    tried: list[CombBid] = []
    first_tilde: Fraction | None = None
    for mask in cls.masks:
        for tilde, form in _candidate_forms(kind, valuation.value(mask), best[mask], step):
            adversary = _adversary_bid(m, mask, tilde, form, bar)
            if first_tilde is None:
                first_tilde = tilde
            tried.append(adversary)
            attack_u = utility_against(valuation, bids, [adversary])
            if (attack_u >= 0) if over else (attack_u != 0):
                continue
            truth_u = utility_against(valuation, (valuation,), [adversary])
            if over and truth_u < 0:
                raise InternalConsistencyError(
                    f"truthful bidding went negative ({truth_u}) against {adversary.values}"
                )
            if over or truth_u > 0:
                return AdversaryReport(
                    mask, tilde, adversary, attack_u, truth_u, True, form, tuple(tried)
                )
    return AdversaryReport(cls.masks[0], first_tilde, None, None, None, False, "none", tuple(tried))


def overbidding_adversary(
    valuation: CombValuation, bids: Sequence[CombBid], epsilon: Fraction | None = None
) -> AdversaryReport:
    """Nature bid under which the attack pays dearly for its overbid.

    Tries each candidate construction on each overbidding bundle and
    certifies by running the mechanism: the attacker must end strictly
    negative with truth still non-negative.  Returns an unrefuted report
    only when no candidate works for any witness bundle.  ``epsilon``
    pins the bid grid the adversary's amounts are snapped to; without it
    the unit-grid step is used.
    """
    return _refute(valuation, bids, AttackKind.OVERBIDDING, epsilon)


def underbidding_adversary(
    valuation: CombValuation, bids: Sequence[CombBid], epsilon: Fraction | None = None
) -> AdversaryReport:
    """Nature bid under which the attack earns 0 but truth earns more.

    Tries each candidate construction on each underbidding bundle and
    certifies by running the mechanism.  Returns an unrefuted report
    only when no candidate works for any witness bundle.  ``epsilon``
    pins the bid grid the adversary's amounts are snapped to; without
    it the unit-grid step is used.
    """
    return _refute(valuation, bids, AttackKind.UNDERBIDDING, epsilon)


def nature_state_family(item_count: int, levels: Sequence[Fraction]) -> tuple[CombBid, ...]:
    """Deterministic family of single-bid nature states for family checks.

    Additive bids over all per-item combinations of ``levels``, plus
    single-minded bids on every bundle at each positive level.
    """
    levels = tuple(scalar(v) for v in levels)
    out: list[CombBid] = []
    for combo in itertools.product(levels, repeat=item_count):
        out.append(additive_bid(combo))
    for mask in range(1, 1 << item_count):
        if mask.bit_count() < 2:
            continue  # singletons are covered by the additive combos
        for level in levels:
            if level > 0:
                out.append(single_minded_bid(item_count, mask, level))
    return tuple(out)


@dataclass(frozen=True)
class FamilyCheck:
    """Pairwise utility comparison of attack vs truth over a state family.

    ``difference_states`` counts family states where the two utilities
    differ; the minima are over those states only.
    """

    family_size: int
    difference_states: int
    truth_min: Fraction | None
    attack_min: Fraction | None
    reversal: CombBid | None
    zero_truth_state: CombBid | None


def claim_family_check(
    valuation: CombValuation,
    bids: Sequence[CombBid],
    family: Sequence[CombBid],
    extra: Sequence[CombBid] = (),
) -> FamilyCheck:
    """Scan a nature family for the underbidding claim's two properties.

    A reversal is a state where the attack earns positive utility while
    truth earns 0; a zero-truth state has truth at 0 while the attack
    differs.  Both must be absent for the claim to hold on the family.
    """
    states = [*family, *extra]
    diff = 0
    truth_min: Fraction | None = None
    attack_min: Fraction | None = None
    reversal = None
    zero_truth = None
    for state in states:
        u_attack = utility_against(valuation, bids, [state])
        u_truth = utility_against(valuation, (valuation,), [state])
        if u_attack == u_truth:
            continue
        diff += 1
        if truth_min is None or u_truth < truth_min:
            truth_min = u_truth
        if attack_min is None or u_attack < attack_min:
            attack_min = u_attack
        if reversal is None and u_attack > 0 and u_truth == 0:
            reversal = state
        if zero_truth is None and u_truth == 0:
            zero_truth = state
    return FamilyCheck(len(states), diff, truth_min, attack_min, reversal, zero_truth)


@dataclass(frozen=True)
class WelfareChain:
    """The four welfare values linking truthful and attack outcomes."""

    truth_real: Fraction
    truth_observed: Fraction
    attack_observed: Fraction
    attack_real: Fraction

    def holds(self) -> bool:
        return self.truth_real <= self.truth_observed <= self.attack_observed <= self.attack_real


def verify_exact_bidding_optimal(
    profiles: Sequence[SybilProfile], item_count: int, epsilon: Fraction | None = None
) -> WelfareChain:
    """Check that all-exact-bidding profiles reach the truthful optimum."""
    for i, p in enumerate(profiles):
        cls = classify_attack(p.valuation, p.bids)
        if cls.kind is not AttackKind.EXACT_BIDDING:
            raise ValidationError(
                f"agent {i} classifies as {cls.kind.value}; the welfare chain "
                f"needs exact bidding"
            )
    truthful = [SybilProfile.truthful(p.valuation) for p in profiles]
    truth_run = run_vcg(truthful, item_count, epsilon)
    attack_run = run_vcg(profiles, item_count, epsilon)
    chain = WelfareChain(
        truth_real=truth_run.real_welfare,
        truth_observed=truth_run.observed_welfare,
        attack_observed=attack_run.observed_welfare,
        attack_real=attack_run.real_welfare,
    )
    if not chain.holds() or chain.attack_real != chain.truth_real:
        raise InternalConsistencyError(f"welfare chain violated: {chain}")
    return chain


@dataclass(frozen=True)
class TruthCertificate:
    """Evidence that truth is loss-averse against one exact-bidding attack.

    Modes: "case-1" carries a constructed nature bid with attack utility
    0 and truth utility positive; "case-2" certifies entrywise weak
    domination through the best single Sybil bid over the family;
    "family" is the direct worst-case comparison over the family when
    neither structured argument applies.  Family-backed modes certify
    only against the supplied states.
    """

    mode: str
    family_size: int
    witness_mask: int | None = None
    adversary: CombBid | None = None
    attack_utility: Fraction | None = None
    truth_utility: Fraction | None = None
    best_sybil: int | None = None


def _case1_adversary(
    valuation: CombValuation, bids: Sequence[CombBid], mask: int
) -> CombBid | None:
    """Upward-monotone bid matching v on the parts of the witness bundle.

    The parts come from the Sybils' own best partition of the bundle; a
    superset of any part inherits the largest contained part value.
    """
    m = valuation.item_count
    _, assignment = winner_determination(bids, m, items_mask=mask)
    parts = [b for b in assignment_bundles(assignment, len(bids)) if b]
    if len(parts) < 2:
        return None
    values = []
    for code in range(1 << m):
        best = Fraction(0)
        for part in parts:
            if code & part == part and valuation.value(part) > best:
                best = valuation.value(part)
        values.append(best)
    return CombBid(m, tuple(values))


def truth_loss_averse_witnesses(
    valuation: CombValuation,
    bids: Sequence[CombBid],
    family: Sequence[CombBid],
) -> TruthCertificate:
    """Certify that truth is loss-averse against an exact-bidding attack.

    Follows the two-case split on whether some bundle is valued below v
    by every individual Sybil bid, with a direct family comparison as
    the fallback; every certificate is validated by mechanism runs.
    """
    cls = classify_attack(valuation, bids)
    if cls.kind is not AttackKind.EXACT_BIDDING:
        raise ValidationError(f"profile classifies as {cls.kind.value}, not exact bidding")
    m = valuation.item_count
    every = full_mask(m)

    case1_masks = [
        mask
        for mask in range(1, 1 << m)
        if all(bid.value(mask) < valuation.value(mask) for bid in bids)
    ]
    if every in case1_masks:
        case1_masks.remove(every)
        case1_masks.insert(0, every)
    for mask in case1_masks:
        adversary = _case1_adversary(valuation, bids, mask)
        if adversary is None:
            continue
        attack_u = utility_against(valuation, bids, [adversary])
        truth_u = utility_against(valuation, (valuation,), [adversary])
        if attack_u == 0 and truth_u > 0:
            return TruthCertificate(
                mode="case-1",
                family_size=len(family),
                witness_mask=mask,
                adversary=adversary,
                attack_utility=attack_u,
                truth_utility=truth_u,
            )

    if not case1_masks:
        matches = [
            sum(1 for mask in range(1 << m) if bid.value(mask) == valuation.value(mask))
            for bid in bids
        ]
        best_j = max(range(len(bids)), key=lambda j: (matches[j], -j))
        single = [bids[best_j]]
        dominated = True
        for state in family:
            u_attack = utility_against(valuation, bids, [state])
            u_single = utility_against(valuation, single, [state])
            u_truth = utility_against(valuation, (valuation,), [state])
            if not u_attack <= u_single <= u_truth:
                dominated = False
                break
        if dominated:
            return TruthCertificate(
                mode="case-2", family_size=len(family), best_sybil=best_j
            )

    check = claim_family_check(valuation, bids, family)
    if check.difference_states == 0 or (
        check.truth_min is not None and check.truth_min >= check.attack_min
    ):
        return TruthCertificate(mode="family", family_size=check.family_size)
    raise InternalConsistencyError(
        f"no certificate found for an exact-bidding attack: {check}"
    )


@dataclass(frozen=True)
class SplitPairReport:
    """A four-item instance where one agent splits its bid in two.

    The additive agent values only the last two items, yet its two
    high additive Sybil bids sweep all four items away from the two
    unit-demand-like agents.  The exact values are read from the three
    outcomes; the ``stated_*`` fields are the source's figures, and those
    that disagree with the exact values are listed in ``discrepancies``.
    """

    epsilon: Fraction
    items: tuple[str, ...]
    attack_profiles: tuple[SybilProfile, ...]
    classification: AttackClassification
    attack_outcome: VcgOutcome
    attack_outcome_literal: VcgOutcome
    truthful_outcome: VcgOutcome
    stated_optimal_welfare: Fraction
    stated_payment: Fraction
    stated_attack_utility: Fraction
    discrepancies: tuple[str, ...]


def build_split_pair_instance(epsilon: Fraction) -> SplitPairReport:
    """Four items, one additive attacker against two XOS bidders.

    The attacker bids 10 per item through two Sybils, one covering the
    first two items and one the last two, while truly valuing only the
    last two at 3 times the grid step each.
    """
    eps = scalar(epsilon)
    if eps <= 0:
        raise ValidationError(f"grid step must be positive, got {eps}")
    items = ("a", "b", "c", "d")
    val_a = additive_valuation([Fraction(0), Fraction(0), 3 * eps, 3 * eps])
    nine = Fraction(9)
    val_b = xos_to_valuation(
        XosValuation(4, ((nine, 0, 0, 0), (0, nine, 0, 0), (eps, eps, nine, 0)))
    )
    val_c = xos_to_valuation(
        XosValuation(4, ((nine, 0, 0, 0), (0, nine, 0, 0), (eps, eps, 0, nine)))
    )
    sybil_one = additive_bid([Fraction(10), Fraction(10), Fraction(0), Fraction(0)])
    sybil_two = additive_bid([Fraction(0), Fraction(0), Fraction(10), Fraction(10)])
    attack = (
        SybilProfile(val_a, (sybil_one, sybil_two)),
        SybilProfile.truthful(val_b),
        SybilProfile.truthful(val_c),
    )
    truthful = [SybilProfile.truthful(p.valuation) for p in attack]
    classification = classify_attack(val_a, attack[0].bids)
    attack_run = run_vcg(attack, 4, eps, PaymentRule.CLARKE_PIVOT)
    attack_literal = run_vcg(attack, 4, eps, PaymentRule.PAPER_LITERAL)
    truth_run = run_vcg(truthful, 4, eps, PaymentRule.CLARKE_PIVOT)
    stated_optimal = Fraction(18) + 2 * eps
    stated_payment = 2 * eps
    stated_attack_utility = 2 * eps
    discrepancies = []
    if truth_run.observed_welfare != stated_optimal:
        discrepancies.append(
            f"stated optimal welfare {stated_optimal} but the exact optimum is "
            f"{truth_run.observed_welfare}"
        )
    for rule_name, payments in (
        ("clarke", attack_run.payments[:2]),
        ("literal", attack_literal.payments[:2]),
    ):
        if any(p != stated_payment for p in payments):
            discrepancies.append(
                f"stated per-bid payment {stated_payment} but the {rule_name} rule "
                f"charges {payments[0]} and {payments[1]}"
            )
    if attack_run.agent_utilities[0] != stated_attack_utility:
        discrepancies.append(
            f"stated attack utility {stated_attack_utility} but the clarke-rule "
            f"utility is {attack_run.agent_utilities[0]}"
        )
    return SplitPairReport(
        epsilon=eps,
        items=items,
        attack_profiles=attack,
        classification=classification,
        attack_outcome=attack_run,
        attack_outcome_literal=attack_literal,
        truthful_outcome=truth_run,
        stated_optimal_welfare=stated_optimal,
        stated_payment=stated_payment,
        stated_attack_utility=stated_attack_utility,
        discrepancies=tuple(discrepancies),
    )


@dataclass(frozen=True)
class SingletonSplitReport:
    """A three-item instance where per-item Sybils beat honest bidding.

    The agent values pairs superadditively but splits into one bid per
    item, underbidding the third item; against the tailored nature bid
    the attack earns twice what truth earns.
    """

    epsilon: Fraction
    items: tuple[str, ...]
    valuation: CombValuation
    attack_bids: tuple[CombBid, ...]
    nature_bid: CombBid
    classification: AttackClassification
    attack_outcome: VcgOutcome
    attack_outcome_literal: VcgOutcome
    truthful_outcome: VcgOutcome


def build_singleton_split_instance(epsilon: Fraction) -> SingletonSplitReport:
    """Three items, one agent splitting into three single-item bids."""
    eps = scalar(epsilon)
    if eps <= 0:
        raise ValidationError(f"grid step must be positive, got {eps}")
    one = Fraction(1)
    values = {
        0: Fraction(0),
        1: one,
        2: one,
        3: Fraction(2),
        4: one,
        5: one + eps,
        6: one + eps,
        7: Fraction(2) + eps,
    }
    valuation = CombValuation(3, tuple(values[mask] for mask in range(8)))
    attack_bids = (
        additive_bid([one, Fraction(0), Fraction(0)]),
        additive_bid([Fraction(0), one, Fraction(0)]),
        additive_bid([Fraction(0), Fraction(0), eps]),
    )
    big = Fraction(1000)
    nature_values = {0: Fraction(0), 3: Fraction(2) - eps, 4: big}
    completed = []
    for mask in range(8):
        total = Fraction(0)
        for base, amount in nature_values.items():
            if mask & base == base:
                total += amount
        completed.append(total)
    nature = CombBid(3, tuple(completed))
    classification = classify_attack(valuation, attack_bids)
    attack = [SybilProfile(valuation, attack_bids), SybilProfile.truthful(nature)]
    truthful = [SybilProfile.truthful(valuation), SybilProfile.truthful(nature)]
    attack_run = run_vcg(attack, 3, eps, PaymentRule.CLARKE_PIVOT)
    attack_literal = run_vcg(attack, 3, eps, PaymentRule.PAPER_LITERAL)
    truth_run = run_vcg(truthful, 3, eps, PaymentRule.CLARKE_PIVOT)
    return SingletonSplitReport(
        epsilon=eps,
        items=("a", "b", "c"),
        valuation=valuation,
        attack_bids=attack_bids,
        nature_bid=nature,
        classification=classification,
        attack_outcome=attack_run,
        attack_outcome_literal=attack_literal,
        truthful_outcome=truth_run,
    )


def enumerate_valuations(
    item_count: int, epsilon: Fraction, value_cap: Fraction
) -> Iterator[CombValuation]:
    """All valuations on the epsilon grid up to the cap, ascending order."""
    epsilon = scalar(epsilon)
    cap = scalar(value_cap)
    levels = [epsilon * k for k in range(int(cap / epsilon) + 1)]
    slots = (1 << item_count) - 1
    if len(levels) ** slots > SEARCH_BUDGET:
        raise CapacityError(f"valuation lattice {len(levels)}^{slots} exceeds the budget")
    for combo in itertools.product(levels, repeat=slots):
        yield CombValuation(item_count, (Fraction(0),) + combo)


def enumerate_attacks(
    item_count: int,
    step: Fraction,
    value_cap: Fraction,
    max_sybils: int,
) -> Iterator[tuple[CombBid, ...]]:
    """All bid vectors (up to Sybil reordering) on the given grid and cap."""
    step = scalar(step)
    cap = scalar(value_cap)
    levels = [step * k for k in range(int(cap / step) + 1)]
    slots = (1 << item_count) - 1
    single_count = len(levels) ** slots
    total = sum(
        math.comb(single_count + k - 1, k) for k in range(1, max_sybils + 1)
    )
    if total > SEARCH_BUDGET:
        raise CapacityError(f"attack lattice of {total} vectors exceeds the budget")
    singles = [
        CombBid(item_count, (Fraction(0),) + combo)
        for combo in itertools.product(levels, repeat=slots)
    ]
    for count in range(1, max_sybils + 1):
        for combo in itertools.combinations_with_replacement(range(len(singles)), count):
            yield tuple(singles[i] for i in combo)

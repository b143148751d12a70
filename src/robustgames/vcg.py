"""Discrete VCG combinatorial auction under false-name (Sybil) attacks.

Bundles are bitmasks over item indices.  Every computation first scales
the bid tables it works on by one common multiple of their denominators,
once, so searches and sums run on ``int``s; results come back as exact
``Fraction``s over that scale.  Scaling by a positive constant keeps
every order, sign and equality, so each verdict reads the integers.

Welfare *values* come from one max-plus subset DP over bundle masks,
O(n·3^m) for n bids and m items (Rothkopf, Pekeč & Harstad, Mgmt. Sci.
1998): joining the bids one at a time gives the best partition value of
every bundle at once.  Attack classification reads all 2^m bundles from
one such table, and each Clarke payment reads the others' optimum from
the table of every other bid.  The winning *assignment* is found
once per mechanism run by an exhaustive search with a documented total
tie-break order, so every result is deterministic and exactly optimal.
One scan loop (``_scan``) holds that rule.  It reads entries in one
fixed order, each the welfare of every bid but the last next to the
assignment (the last bid's bundle, the size profile, the bundles and the
owners), so an entry costs one lookup in the last bid's table.  For
spaces up to ``PRECOMPUTED_ORDER_BOUND`` the assignments are listed once
per (bid count, items) and reused by every run; larger spaces generate
the same entries as they are scanned.  The search hands
back the winning entry's bundles with its owners, so the mechanism and
the case-1 adversary read them instead of rebuilding them.

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
postconditions against the mechanism's outcomes.  ``run_vcg`` is the one
full mechanism run, and ``utility_against`` reads the attacker's utility
from it; they are the reference route the scans are tested against.

Each attack is set up once (``_Attack``): its tables are checked and put,
with the nature states it scans, on one integer scale on which every
adversary candidate (the grid step, the snapped midpoint, the equal
per-item shares) is an integer too.  Classification, the refutation loop,
the family scan and truth's certificates are steps on that set-up.
``certify_attack`` picks the steps by the attack's kind in one place; the
public step functions run one step each.  ``Fraction``s and validated bid
tables are built only for what a report carries, from integer tables
checked as integers (``_unscaled``).  Truth needs no
mechanism run: by Clarke's pivot rule (Public Choice, 1971) a truthful
bidder's utility is the optimal welfare of all bids less the others'
optimum, whichever optimal allocation the tie-break picks
(``_truth_utility``).  Only the false-name side (Yokoo, Sakurai &
Matsubara, GEB 2004) needs the tie-broken search, and its side of every
run (``_sybil_side``) depends only on the Sybil bids' scaled tables: their
welfare in each scan entry, and for each Sybil bid the partition table of
the others, so a state costs one scan with one lookup per entry.  The
lattices pair each bid vector with every valuation, so that side is built
once per bid vector and scale and kept, as ints only, in a bounded memo.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import getitem
from typing import Callable, Iterable, Iterator, Sequence

from .core import scalar, scale_rows
from .errors import CapacityError, InternalConsistencyError, ValidationError

MAX_ITEMS = 8
SEARCH_BUDGET = 10**7
# Assignment spaces up to this size keep their scan order in memory (a
# few hundred bytes per assignment); the attack lattices search at most
# 256 assignments per run, and the order must not grow with the budget.
PRECOMPUTED_ORDER_BOUND = 4096

# The exact value of an integer over a scale, for what the per-attack steps
# report.  An attack lattice reports few distinct values, each many times
# (the classifications and adversary reports of the 2-item lattice build
# 46 values 122 thousand times), so each is built once.
_fraction = functools.lru_cache(maxsize=128)(Fraction)


def full_mask(item_count: int) -> int:
    return (1 << item_count) - 1


def mask_items(mask: int) -> tuple[int, ...]:
    return tuple([i for i in range(mask.bit_length()) if mask & (1 << i)])


def bundle_label(mask: int, items: Sequence[str]) -> str:
    if mask == 0:
        return "-"
    return ",".join(items[i] for i in mask_items(mask))


def _check_item_count(item_count: int) -> None:
    if not 1 <= item_count <= MAX_ITEMS:
        raise CapacityError(f"bundle table item count {item_count} outside 1..{MAX_ITEMS}")


def _check_table(item_count: int, values: Sequence[Fraction]) -> tuple[Fraction, ...]:
    _check_item_count(item_count)
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

    def __getattr__(self, name: str) -> tuple[int, tuple[int, ...]]:
        """``_integers``: the entries' common denominator and the entries as
        integers over it, built at the first read.  It is stored in the
        instance ``__dict__``, where later reads find it without this call,
        outside the fields, so ``==`` and ``hash`` do not read it."""
        if name != "_integers":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        denominator, (integers,) = scale_rows([self.values])
        self.__dict__["_integers"] = denominator, integers
        return denominator, integers


CombValuation = CombBid = BundleTable


def additive_bid(per_item: Sequence[Fraction]) -> CombBid:
    """The table whose value of a bundle is the sum of its items' values."""
    per_item = [scalar(v) for v in per_item]
    return CombBid(len(per_item), tuple(_additive_table(per_item)))


def _additive_table(per_item: Sequence) -> list:
    """Each bundle's sum of its items' values, indexed by bundle mask."""
    table = [0]
    for value in per_item:
        table += [v + value for v in table]
    return table


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


def _unscaled(item_count: int, table: Sequence[int], scale: int) -> BundleTable:
    """The validated bundle table of integers over ``scale``.

    The integers are checked against ``_check_table``'s rules: a positive
    scale keeps every sign, so 2^m entries, 0 for the empty bundle and
    none negative make a valid table, and its ``Fraction``s are built
    once.  A table that breaks a rule goes through the public constructor,
    which raises its own error.
    """
    values = tuple([_fraction(v, scale) for v in table])
    if not (
        1 <= item_count <= MAX_ITEMS
        and len(table) == 1 << item_count
        and table[0] == 0
        and min(table) >= 0
        and scale > 0
    ):
        return BundleTable(item_count, values)
    out = object.__new__(BundleTable)
    out.__dict__.update(item_count=item_count, values=values)
    return out


def _scaled(tables: Sequence[BundleTable], scale: int = 0) -> tuple[int, list[Sequence[int]]]:
    """``scale`` (by default the tables' least common denominator) and each table over it."""
    scale = scale or math.lcm(*[table._integers[0] for table in tables])
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


def _partition_table(tables: Sequence[Sequence[int]], item_count: int) -> Sequence[int]:
    """Best value of each mask over partitions of it among the bids, one part
    each: the bids join one at a time, each by a max-plus convolution."""
    best = tables[0]
    for table in tables[1:]:
        best = [max([best[rest] + table[sub] for sub, rest in p]) for p in _splits(item_count)]
    return best


# An assignment in scan order: the last bid's bundle, the descending
# bundle-size profile, each bid's bundle and each item's owner.
_Assignment = tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _assignment_order(n: int, items: tuple[int, ...]) -> Iterator[_Assignment]:
    """Each assignment of ``items`` to ``n`` bids in ascending lexicographic
    order of its owners."""
    bits = [1 << i for i in items]
    for choice in itertools.product(range(n), repeat=len(items)):
        bundles = [0] * n
        for bit, owner in zip(bits, choice):
            bundles[owner] |= bit
        profile = sorted([b.bit_count() for b in bundles], reverse=True)
        yield bundles[-1], tuple(profile), tuple(bundles), choice


@functools.cache
def _precomputed_order(n: int, items: tuple[int, ...]) -> tuple[_Assignment, ...]:
    """``_assignment_order`` kept for reuse; it depends only on its shape."""
    return tuple(_assignment_order(n, items))


def _search_order(n: int, items: tuple[int, ...]) -> Iterable[_Assignment]:
    """The scan order for ``n`` bids on ``items``: kept up to
    ``PRECOMPUTED_ORDER_BOUND`` assignments, generated above it."""
    space = n ** len(items)
    if space > SEARCH_BUDGET:
        raise CapacityError(
            f"assignment space {n}^{len(items)} exceeds the search budget {SEARCH_BUDGET}"
        )
    if space <= PRECOMPUTED_ORDER_BOUND:
        return _precomputed_order(n, items)
    return _assignment_order(n, items)


# A scan entry: the welfare of every bid but the last in an assignment,
# and the assignment.
_Entry = tuple[int, _Assignment]


def _entries(fixed: Sequence[Sequence[int]], order: Iterable[_Assignment]) -> Iterator[_Entry]:
    """Each assignment of ``order`` as a scan entry; ``fixed`` are the
    tables of every bid but the last."""
    for assignment in order:
        yield sum(map(getitem, fixed, assignment[2])), assignment


def _scan(
    entries: Iterable[_Entry], last: Sequence[int]
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The tie-broken best of ``entries`` once the last bid bids ``last``.

    Entries come in ascending lexicographic order of their owners, and
    only strict improvements are kept: a higher welfare, or the same
    welfare with a lexicographically larger descending size profile.
    Returns the welfare, each bid's bundle and each item's owner.
    """
    best_welfare = -1
    best_profile: tuple[int, ...] = ()
    best_bundles: tuple[int, ...] = ()
    best_choice: tuple[int, ...] = ()
    for fixed, (bundle, profile, bundles, choice) in entries:
        welfare = fixed + last[bundle]
        if welfare < best_welfare:
            continue
        if welfare > best_welfare or profile > best_profile:
            best_welfare = welfare
            best_profile = profile
            best_bundles = bundles
            best_choice = choice
    return best_welfare, best_bundles, best_choice


def _tie_broken_assignment(
    tables: Sequence[Sequence[int]], items: tuple[int, ...]
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Exhaustive search for the best owners of ``items`` in tie-break order.

    Returns the welfare, each bid's bundle and each item's owner, in the
    order of ``items``.
    """
    order = _search_order(len(tables), items)
    return _scan(_entries(tables[:-1], order), tables[-1])


def winner_determination(
    bids: Sequence[CombBid], item_count: int
) -> tuple[Fraction, tuple[int, ...]]:
    """Exhaustive welfare-maximizing assignment of items to bids.

    Returns (welfare, assignment) where assignment[i] is the winning bid
    index for item i.  Ties are broken first towards the descending-sorted
    bundle-size profile that is lexicographically maximal (concentrating
    items into larger bundles), then towards the lexicographically
    smallest assignment vector.  The second rule is realized by scanning
    assignments in ascending lexicographic order and keeping only strict
    improvements.
    The bid tables are scaled once to integers over the LCM of their
    denominators, the search runs on those, and the welfare is returned
    exactly.  Callers that need only a welfare value use the subset DP
    (``best_partition_value``) instead of this search.
    """
    _check_bids(item_count, bids)
    scale, tables = _scaled(bids)
    welfare, _, assignment = _tie_broken_assignment(tables, tuple(range(item_count)))
    return Fraction(welfare, scale), assignment


def _check_bids(
    item_count: int, bids: Sequence[BundleTable], others: Sequence[BundleTable] = ()
) -> None:
    """At least one bid, and every table on the instance's item count."""
    if not bids or any(table.item_count != item_count for table in (*bids, *others)):
        raise ValidationError(
            "need at least one bid, and every table on the instance's item count"
        )


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

    Clarke: the others' optimum without the bid (0 for a lone bid), less
    their value in the chosen outcome, the welfare less the bid's own.
    Literal: the welfare less the optimum of all bids on the items the bid
    did not win.
    """
    every = full_mask(item_count)
    if rule is PaymentRule.PAPER_LITERAL:
        everyone = _partition_table(tables, item_count)
        return [welfare - everyone[every & ~bundle] for bundle in bundles]
    out = []
    for j, (table, bundle) in enumerate(zip(tables, bundles)):
        others = [*tables[:j], *tables[j + 1:]]
        without = _partition_table(others, item_count)[every] if others else 0
        out.append(without - (welfare - table[bundle]))
    return out


@dataclass(frozen=True)
class VcgOutcome:
    """Everything the mechanism produced, per flat bid and per real agent."""

    item_count: int
    payment_rule: PaymentRule
    bundles: tuple[int, ...]
    payments: tuple[Fraction, ...]
    observed_welfare: Fraction
    real_welfare: Fraction
    agent_bundles: tuple[int, ...]
    agent_utilities: tuple[Fraction, ...]


def _is_multiple(value: Fraction, step: Fraction) -> bool:
    """Whether ``value`` is an integer multiple of ``step``: a/b over c/d is
    an integer exactly when b·c divides a·d."""
    return value.numerator * step.denominator % (value.denominator * step.numerator) == 0


def bid_grid_step(epsilon: Fraction, item_count: int) -> Fraction:
    """Bids live on a grid 2·m! times finer than valuations, whose step is positive."""
    return Fraction(*_bid_grid(epsilon, item_count))


def _bid_grid(epsilon: Fraction, item_count: int) -> tuple[int, int]:
    """``bid_grid_step``'s numerator and denominator, in lowest terms:
    ``epsilon`` is in lowest terms, so only its numerator can share a
    factor with 2·m!."""
    epsilon = scalar(epsilon)
    if epsilon.numerator <= 0:
        raise ValidationError(f"grid step must be positive, got {epsilon}")
    finer = 2 * math.factorial(item_count)
    common = math.gcd(epsilon.numerator, finer)
    return epsilon.numerator // common, epsilon.denominator * (finer // common)


def run_vcg(
    profiles: Sequence[SybilProfile],
    item_count: int,
    epsilon: Fraction | None = None,
    payment_rule: PaymentRule = PaymentRule.CLARKE_PIVOT,
) -> VcgOutcome:
    """Flatten all Sybil bids, allocate, charge, and score welfare.

    The bids and the valuations are scaled once, onto one denominator;
    the items go to the bids by the tie-broken search that
    ``winner_determination`` documents, and the bids' total value in the
    outcome is checked against its welfare.  When ``epsilon`` is given,
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
        fine = bid_grid_step(epsilon, item_count)
        for p in profiles:
            for v in p.valuation.values:
                if not _is_multiple(v, epsilon):
                    raise ValidationError(f"valuation entry {v} is off the {epsilon} grid")
            for bid in p.bids:
                for v in bid.values:
                    if not _is_multiple(v, fine):
                        raise ValidationError(f"bid entry {v} is off the {fine} bid grid")
    flat = [bid for p in profiles for bid in p.bids]
    owners = [i for i, p in enumerate(profiles) for _ in p.bids]
    scale, tables = _scaled(flat + [p.valuation for p in profiles])
    tables, values = tables[: len(flat)], tables[len(flat):]
    welfare, bundles, _ = _tie_broken_assignment(tables, tuple(range(item_count)))
    if sum([table[bundle] for table, bundle in zip(tables, bundles)]) != welfare:
        raise InternalConsistencyError("observed welfare does not match the search value")
    payments = _payments(tables, item_count, welfare, bundles, payment_rule)
    agent_bundles = [0] * len(profiles)
    paid = [0] * len(profiles)
    for j, owner in enumerate(owners):
        agent_bundles[owner] |= bundles[j]
        paid[owner] += payments[j]
    real = sum([value[union] for value, union in zip(values, agent_bundles)])
    return VcgOutcome(
        item_count=item_count,
        payment_rule=payment_rule,
        bundles=bundles,
        payments=tuple([Fraction(p, scale) for p in payments]),
        observed_welfare=Fraction(welfare, scale),
        real_welfare=Fraction(real, scale),
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
    equals its bid, so this is ``run_vcg``'s ``agent_utilities[0]``: the
    value of the union of the attacker's bundles less the sum of its
    payments.
    """
    profiles = [SybilProfile(valuation, tuple(bids)), *map(SybilProfile.truthful, nature)]
    return run_vcg(profiles, valuation.item_count).agent_utilities[0]


def _truth_utility(value: Sequence[int], nature: Sequence[int], item_count: int) -> int:
    """Truthful bidding's Clarke utility against nature, with no mechanism run.

    ``nature`` is the partition table of nature's bids (one bid is its
    own table).  The mechanism allocates every item, so the optimal
    welfare is W = max over splits (S, rest) of value[S] + nature[rest].
    A truthful bidder winning S pays the others' optimum without it,
    nature[every], less their value in the outcome, W − value[S]; its
    utility value[S] − nature[every] + W − value[S] is W − nature[every].
    W is the same for every optimal allocation, so the tie-break cannot
    change the result.
    """
    every = full_mask(item_count)
    welfare = max([value[sub] + nature[rest] for sub, rest in _splits(item_count)[every]])
    return welfare - nature[every]


def _others_tables(own: Sequence[Sequence[int]], item_count: int) -> tuple[tuple[int, ...], ...]:
    """For each of two or more bids, the partition table of the other bids."""
    if len(own) < 2:
        return ()
    return tuple(
        [tuple(_partition_table([*own[:j], *own[j + 1:]], item_count)) for j in range(len(own))]
    )


# The attack lattices pair every bid vector with each valuation in turn,
# and the 2-item lattice runs 405 bid vectors per valuation.  An attack's
# refutation and its scans share one scale (``_Attack``), so a bid vector
# takes one entry, and a few family scans with finer candidates one more:
# at most 409 other entries come between two uses of one.  The memo holds
# that cycle, since an LRU smaller than the cycle evicts every entry
# before its next use.
@functools.lru_cache(maxsize=512)
def _sybil_side(
    own: tuple[tuple[int, ...], ...], item_count: int
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The Sybil bids' side of every run against one nature bid: their
    welfare in each assignment of the kept scan order, and for each bid
    the partition table of the others.  Both depend only on the bids'
    scaled tables, so they are built once per bid vector and scale."""
    order = _precomputed_order(len(own) + 1, tuple(range(item_count)))
    return tuple([welfare for welfare, _ in _entries(own, order)]), _others_tables(own, item_count)


def _attack_runs(
    value: Sequence[int], own: Sequence[Sequence[int]], item_count: int
) -> Callable[[Sequence[int]], int]:
    """The agent's Clarke utility with the ``own`` bids against one nature bid.

    The own bids' side of every run comes from ``_sybil_side``, built once
    per bid vector and scale: their welfare in each scan entry, and for
    each own bid the partition table of the other own bids.  A run
    against a nature table is then one scan with one lookup per entry,
    plus one split scan per own bid for the others' optimum without it.
    Nature's own payment, which nothing reads, is not computed.  Above
    ``PRECOMPUTED_ORDER_BOUND`` the entries stream anew for each run, and
    nothing is kept beyond this attack.
    """
    k = len(own)
    every = full_mask(item_count)
    items = tuple(range(item_count))
    splits = _splits(item_count)[every]
    order = _search_order(k + 1, items)
    if isinstance(order, tuple):
        welfares, others = _sybil_side(tuple(map(tuple, own)), item_count)
    else:
        welfares, others = None, _others_tables(own, item_count)

    def utility(nature: Sequence[int]) -> int:
        if welfares is None:
            entries = _entries(own, _search_order(k + 1, items))
        else:
            entries = zip(welfares, order)
        welfare, bundles, _ = _scan(entries, nature)
        won = bundles[k]
        own_welfare = sum(map(getitem, own, bundles))
        if own_welfare + nature[won] != welfare:
            raise InternalConsistencyError("observed welfare does not match the search value")
        # Each own bid pays the others' optimum without it, less the
        # others' value in the outcome: the welfare less its own value.
        if k == 1:
            without = nature[every]
        else:
            without = sum(
                [max([table[sub] + nature[rest] for sub, rest in splits]) for table in others]
            )
        # Every item is allocated, so the own bids win all nature does not.
        return value[every ^ won] - (without - k * welfare + own_welfare)

    return utility


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
    _check_bids(item_count, bids)
    scale, tables = _scaled(bids)
    return Fraction(_partition_table(tables, item_count)[mask], scale)


def classify_attack(valuation: CombValuation, bids: Sequence[CombBid]) -> AttackClassification:
    """Compare the bids' best partition value against v on every bundle.

    Overbidding anywhere takes precedence over underbidding; the masks
    are every bundle of the winning kind, in ascending order, and the
    witness is the first of them.
    """
    item_count = valuation.item_count
    _check_bids(item_count, bids)
    scale, (target, *tables) = _scaled([valuation, *bids])
    kind, masks, value = _classify(target, tables, item_count)
    return AttackClassification(kind, masks, tuple([_fraction(v, scale) for v in value]))


def _classify(
    target: Sequence[int], tables: Sequence[Sequence[int]], item_count: int
) -> tuple[AttackKind, tuple[int, ...], Sequence[int]]:
    """``classify_attack`` on scaled tables: the kind, its masks, the partition table."""
    value = _partition_table(tables, item_count)
    masks = range(1, 1 << item_count)
    over = tuple([mask for mask in masks if value[mask] > target[mask]])
    if over:
        return AttackKind.OVERBIDDING, over, value
    under = tuple([mask for mask in masks if value[mask] < target[mask]])
    if under:
        return AttackKind.UNDERBIDDING, under, value
    return AttackKind.EXACT_BIDDING, (), value


def _snap(lo: int, hi: int, step: int) -> int:
    """A value strictly inside (lo, hi), on the ``step`` grid if one fits.

    When the endpoints are a single step apart no grid point fits and the
    exact midpoint (a half step) is returned instead; the scale makes
    ``lo + hi`` even, so the midpoint is an integer too.
    """
    mid = (lo + hi) // 2
    k = mid // step
    for candidate in (step * k, step * (k + 1)):
        if lo < candidate < hi:
            return candidate
    return mid


def _adversary_ceiling(
    value: Sequence[int], tables: Sequence[Sequence[int]], one: int, step: int
) -> int:
    """Per-item price no combination of Sybil or truthful values can beat.

    Exceeds the sum of every bid's maximum plus the valuation's maximum,
    so conceding even one such item can never be compensated.  Snapped
    up to the bid grid.  ``one`` is 1 on the tables' scale.
    """
    total = max(value) + sum([max(table) for table in tables]) + one
    return step * -(-total // step)


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
    the first ones tried when unrefuted.  The candidates tried are kept
    as integer tables over ``_scale``; reports compare without them.
    """

    witness_mask: int
    tilde: Fraction
    adversary: CombBid | None
    attack_utility: Fraction | None
    truth_utility: Fraction | None
    refuted: bool
    form: str
    _tried: tuple[Sequence[int], ...] = field(default=(), compare=False, repr=False)
    _scale: int = field(default=1, compare=False, repr=False)

    @property
    def tried(self) -> tuple[CombBid, ...]:
        """Every candidate tried, in order, built at the first read; the last
        is the adversary when refuted."""
        if "_bids" not in self.__dict__:
            tables = self._tried[:-1] if self.refuted else self._tried
            bids = [_unscaled(len(t).bit_length() - 1, t, self._scale) for t in tables]
            self.__dict__["_bids"] = tuple(bids + [self.adversary] if self.refuted else bids)
        return self.__dict__["_bids"]


def _candidate_forms(
    kind: AttackKind, target: int, best: int, step: int
) -> list[tuple[int, str]]:
    """The (tilde, form) candidates for a bundle worth ``target`` under v.

    Each tilde lies strictly between v and the attack's best partition
    value ``best`` of the bundle; the first is the midpoint, snapped to
    the bid grid where a grid point fits.  An overbid also tries one grid
    step inside either end, in both forms; an underbid tries one step
    under the true value in the bundle form only.
    """
    over = kind is AttackKind.OVERBIDDING
    lo, hi = (target, best) if over else (best, target)
    tildes = [_snap(lo, hi, step)]
    for extra in (lo + step, hi - step) if over else (hi - step,):
        if lo < extra < hi and extra not in tildes:
            tildes.append(extra)
    additive = tildes if over else tildes[:1]
    return [(t, "additive") for t in additive] + [(t, "bundle") for t in tildes]


def _adversary_table(item_count: int, mask: int, tilde: int, form: str, bar: int) -> list[int]:
    """Nature bid asking ``tilde`` for ``mask`` and ``bar`` for every other item.

    The additive form prices the items of ``mask`` at an equal share of
    ``tilde`` each, so ``tilde`` must be a multiple of the mask's size.
    The bundle form asks ``tilde`` only for ``mask`` as a whole, so Sybils
    that win a profitable part of the bundle cannot dodge it.
    """
    if form == "additive":
        share = tilde // mask.bit_count()
        return _additive_table([share if mask >> i & 1 else bar for i in range(item_count)])
    outside = full_mask(item_count) & ~mask
    return [
        bar * (code & outside).bit_count() + (tilde if code & mask == mask else 0)
        for code in range(1 << item_count)
    ]


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
    return _Attack(valuation, bids, grid=epsilon).refute(AttackKind.OVERBIDDING)


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
    return _Attack(valuation, bids, grid=epsilon).refute(AttackKind.UNDERBIDDING)


def nature_state_family(item_count: int, levels: Sequence[Fraction]) -> tuple[CombBid, ...]:
    """Deterministic family of single-bid nature states for family checks.

    Additive bids over all per-item combinations of ``levels``, plus
    single-minded bids on every bundle at each positive level, built as
    bundle-form adversary tables that ask nothing outside the bundle.
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
                table = _adversary_table(item_count, mask, level, "bundle", 0)
                out.append(CombBid(item_count, tuple(table)))
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

    @property
    def standing(self) -> str | None:
        """Why an attack the adversaries leave unrefuted stands on the family.

        "equivalent" when no state separates attack and truth, "dominated"
        when truth's worst case over the separating states is at least the
        attack's, and None when the attack does better in the worst case.
        """
        if self.difference_states == 0:
            return "equivalent"
        if self.truth_min >= self.attack_min:
            return "dominated"
        return None


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
    return _Attack(valuation, bids, (*family, *extra)).scan()


def _family_check(
    utilities: Sequence[tuple[int, int]], scale: int, state: Callable[[int], CombBid]
) -> FamilyCheck:
    """The family check from each state's (attack, truth) utilities; ``state(i)`` is state i."""
    diff = 0
    truth_min: int | None = None
    attack_min: int | None = None
    reversal = None
    zero_truth = None
    for i, (u_attack, u_truth) in enumerate(utilities):
        if u_attack == u_truth:
            continue
        diff += 1
        if truth_min is None or u_truth < truth_min:
            truth_min = u_truth
        if attack_min is None or u_attack < attack_min:
            attack_min = u_attack
        if reversal is None and u_attack > 0 and u_truth == 0:
            reversal = i
        if zero_truth is None and u_truth == 0:
            zero_truth = i
    return FamilyCheck(
        len(utilities),
        diff,
        None if truth_min is None else _fraction(truth_min, scale),
        None if attack_min is None else _fraction(attack_min, scale),
        None if reversal is None else state(reversal),
        None if zero_truth is None else state(zero_truth),
    )


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
    value: Sequence[int], tables: Sequence[Sequence[int]], item_count: int, mask: int
) -> list[int]:
    """Upward-monotone bid matching v on the parts of the witness bundle.

    The parts are the bundles the tie-broken search hands the Sybils on
    the witness bundle's items; a superset of any part inherits the
    largest contained part value.  There are at least two parts: the
    search gives every item an owner, and for an exact bid its best split
    of the bundle is worth v there, which every Sybil bids below on the
    bundle as a whole.
    """
    _, bundles, _ = _tie_broken_assignment(tables, mask_items(mask))
    parts = [b for b in bundles if b]
    return [
        max([value[part] for part in parts if code & part == part], default=0)
        for code in range(1 << item_count)
    ]


def truth_loss_averse_witnesses(
    valuation: CombValuation,
    bids: Sequence[CombBid],
    family: Sequence[CombBid],
) -> TruthCertificate:
    """Certify that truth is loss-averse against an exact-bidding attack.

    Follows the two-case split on whether some bundle is valued below v
    by every individual Sybil bid, with a direct family comparison as
    the fallback; every certificate is validated by the attack's
    mechanism runs and truth's closed form.  The valuation, the bids and
    the family share one scale, and each family state is scanned once:
    the case-2 check and the fallback read the same utilities.
    """
    return _Attack(valuation, bids, family).truth_certificate()


class _Attack:
    """One attack against nature, set up once for every step run on it.

    The set-up checks the tables and puts the valuation, the bids and the
    nature states on one integer scale.  Given the valuation grid step
    ``grid`` (the unit grid by default), the scale also makes the bid-grid
    step an integer, with a factor 2 for the snapped midpoint and
    lcm(1..m) for the additive shares, so every adversary candidate is an
    integer table on it.  An attack's refutation and its scans thus share
    one scale, and the memo of the Sybil side one entry.  The states are
    multiplied out only when scanned; the classification and the runs
    (``_attack_runs``) are set up when first used.
    """

    _classification = _runs = None

    def __init__(
        self,
        valuation: CombValuation,
        bids: Sequence[CombBid],
        states: Sequence[CombBid] = (),
        grid: Fraction | None = None,
    ) -> None:
        m = self.item_count = valuation.item_count
        _check_bids(m, bids, states)
        scale = math.lcm(*[table._integers[0] for table in (valuation, *bids, *states)])
        numerator, denominator = _bid_grid(Fraction(1) if grid is None else grid, m)
        scale = 2 * math.lcm(*range(1, m + 1)) * math.lcm(scale, denominator)
        self.grid = numerator * (scale // denominator)
        self.scale, (self.value, *self.own) = _scaled([valuation, *bids], scale)
        self.states = states

    def classification(self) -> tuple[AttackKind, tuple[int, ...], Sequence[int]]:
        if self._classification is None:
            self._classification = _classify(self.value, self.own, self.item_count)
        return self._classification

    def runs(self) -> Callable[[Sequence[int]], int]:
        if self._runs is None:
            self._runs = _attack_runs(self.value, self.own, self.item_count)
        return self._runs

    def utilities(self, tables: Iterable[Sequence[int]]) -> list[tuple[int, int]]:
        """Each scaled nature table's (attack, truth) utilities."""
        attack, value, m = self.runs(), self.value, self.item_count
        return [(attack(table), _truth_utility(value, table, m)) for table in tables]

    def refute(self, kind: AttackKind) -> AdversaryReport:
        """The refutation loop of both adversaries: every bundle the attack
        over- or underbids (by ``kind``), in ascending mask order, gets each
        candidate of ``_candidate_forms``; the first one certified is reported."""
        found, masks, best = self.classification()
        if found is not kind:
            raise ValidationError(f"profile classifies as {found.value}, not {kind.value}")
        m, scale, value, grid = self.item_count, self.scale, self.value, self.grid
        bar = _adversary_ceiling(value, self.own, scale, grid)
        over = kind is AttackKind.OVERBIDDING
        attack = self.runs()
        tried: list[list[int]] = []
        for mask in masks:
            for tilde, form in _candidate_forms(kind, value[mask], best[mask], grid):
                adversary = _adversary_table(m, mask, tilde, form, bar)
                tried.append(adversary)
                attack_u = attack(adversary)
                if (attack_u >= 0) if over else (attack_u != 0):
                    continue
                truth_u = _truth_utility(value, adversary, m)
                if over and truth_u < 0:
                    raise InternalConsistencyError(
                        f"truthful bidding went negative ({Fraction(truth_u, scale)}) against "
                        f"{_unscaled(m, adversary, scale).values}"
                    )
                if over or truth_u > 0:
                    return AdversaryReport(
                        mask,
                        _fraction(tilde, scale),
                        _unscaled(m, adversary, scale),
                        _fraction(attack_u, scale),
                        _fraction(truth_u, scale),
                        True,
                        form,
                        tuple(tried),
                        scale,
                    )
        first = _candidate_forms(kind, value[masks[0]], best[masks[0]], grid)[0][0]
        return AdversaryReport(
            masks[0], _fraction(first, scale), None, None, None, False, "none", tuple(tried), scale
        )

    def scan(self, tried: Sequence[Sequence[int]] = ()) -> FamilyCheck:
        """The family check over the states, then the ``tried`` tables on this scale."""
        m, scale, states, count = self.item_count, self.scale, self.states, len(self.states)
        utilities = self.utilities((*_scaled(states, scale)[1], *tried))

        def state(i: int) -> CombBid:
            return states[i] if i < count else _unscaled(m, tried[i - count], scale)

        return _family_check(utilities, scale, state)

    def truth_certificate(self) -> TruthCertificate:
        """``truth_loss_averse_witnesses`` with the states as the family."""
        kind = self.classification()[0]
        if kind is not AttackKind.EXACT_BIDDING:
            raise ValidationError(f"profile classifies as {kind.value}, not exact bidding")
        m, scale, value, own = self.item_count, self.scale, self.value, self.own
        family = self.states
        every = full_mask(m)
        case1_masks = [
            mask for mask in range(1, 1 << m) if all(table[mask] < value[mask] for table in own)
        ]
        if every in case1_masks:
            case1_masks.remove(every)
            case1_masks.insert(0, every)
        for mask in case1_masks:
            adversary = _case1_adversary(value, own, m, mask)
            ((attack_u, truth_u),) = self.utilities([adversary])
            if attack_u == 0 and truth_u > 0:
                return TruthCertificate(
                    mode="case-1",
                    family_size=len(family),
                    witness_mask=mask,
                    adversary=_unscaled(m, adversary, scale),
                    attack_utility=_fraction(attack_u, scale),
                    truth_utility=_fraction(truth_u, scale),
                )

        # One scan of the family serves case 2 and the fallback.
        states = _scaled(family, scale)[1]
        utilities = self.utilities(states)
        if not case1_masks:
            matches = [sum(1 for mask in range(1 << m) if t[mask] == value[mask]) for t in own]
            best_j = max(range(len(own)), key=lambda j: (matches[j], -j))
            single = _attack_runs(value, [own[best_j]], m)
            dominated = all(
                u_attack <= single(state) <= u_truth
                for state, (u_attack, u_truth) in zip(states, utilities)
            )
            if dominated:
                return TruthCertificate(
                    mode="case-2", family_size=len(family), best_sybil=best_j
                )

        check = _family_check(utilities, scale, family.__getitem__)
        if check.standing:
            return TruthCertificate(mode="family", family_size=check.family_size)
        raise InternalConsistencyError(
            f"no certificate found for an exact-bidding attack: {check}"
        )


def certify_attack(
    valuation: CombValuation,
    bids: Sequence[CombBid],
    family: Sequence[CombBid],
    epsilon: Fraction | None = None,
) -> tuple[AttackKind, AdversaryReport | TruthCertificate, FamilyCheck | None]:
    """The attack's kind, its certificate and its family check, on one set-up.

    An exact bid gets truth's certificate and no check; an over- or
    underbid gets its adversary's report, then the check over the family
    and every candidate tried unless an overbid was refuted.  Each equals
    what the public step of its name returns on the attack.
    """
    attack = _Attack(valuation, bids, family, epsilon)
    kind = attack.classification()[0]
    if kind is AttackKind.EXACT_BIDDING:
        return kind, attack.truth_certificate(), None
    report = attack.refute(kind)
    if kind is AttackKind.OVERBIDDING and report.refuted:
        return kind, report, None
    return kind, report, attack.scan(report._tried)


@dataclass(frozen=True)
class WorkedInstance:
    """A worked auction where one agent attacks with Sybil bids.

    ``profiles`` lists the attacker first; every other agent bids its
    valuation.  The classification is the attacker's, the attack runs
    under both payment rules, and the truthful outcome has every agent
    bid its valuation under the Clarke rule.  ``discrepancies`` lists the
    source's figures that disagree with these exact values.
    """

    epsilon: Fraction
    items: tuple[str, ...]
    profiles: tuple[SybilProfile, ...]
    classification: AttackClassification
    attack_outcome: VcgOutcome
    attack_outcome_literal: VcgOutcome
    truthful_outcome: VcgOutcome
    discrepancies: tuple[str, ...] = ()


def _worked_instance(
    epsilon: Fraction, items: tuple[str, ...], profiles: tuple[SybilProfile, ...]
) -> WorkedInstance:
    """Classify the attacker and run the attack and truthful bidding."""
    m = len(items)
    attacker = profiles[0]
    truthful = [SybilProfile.truthful(p.valuation) for p in profiles]
    return WorkedInstance(
        epsilon=epsilon,
        items=items,
        profiles=profiles,
        classification=classify_attack(attacker.valuation, attacker.bids),
        attack_outcome=run_vcg(profiles, m, epsilon, PaymentRule.CLARKE_PIVOT),
        attack_outcome_literal=run_vcg(profiles, m, epsilon, PaymentRule.PAPER_LITERAL),
        truthful_outcome=run_vcg(truthful, m, epsilon, PaymentRule.CLARKE_PIVOT),
    )


def build_split_pair_instance(epsilon: Fraction) -> WorkedInstance:
    """Four items, one additive attacker against two rivals.

    Each rival values a bundle at the most that any of three additive
    clauses gives it: 9 for item a, 9 for item b, or one grid step for
    each of a and b plus 9 for its own item (c for the first rival, d for
    the second).  The attacker bids 10 per item through two Sybils, one
    covering the first two items and one the last two, while truly valuing
    only the last two at 3 times the grid step each.  Its two high bids
    sweep all four items away from the two unit-demand-like rivals.  The
    source states an optimal welfare of 18 + 2 steps, a per-bid payment of
    2 steps and an attack utility of 2 steps; each figure that disagrees
    with the exact outcomes is listed as a discrepancy.
    """
    eps = scalar(epsilon)
    bid_grid_step(eps, 4)  # refuses a step that is not positive
    val_b, val_c = (
        CombValuation(4, tuple(map(max, *map(_additive_table, ((9, 0, 0, 0), (0, 9, 0, 0), own)))))
        for own in ((eps, eps, 9, 0), (eps, eps, 0, 9))
    )
    val_a = additive_bid([0, 0, 3 * eps, 3 * eps])
    sybil_one = additive_bid([10, 10, 0, 0])
    sybil_two = additive_bid([0, 0, 10, 10])
    instance = _worked_instance(
        eps,
        ("a", "b", "c", "d"),
        (
            SybilProfile(val_a, (sybil_one, sybil_two)),
            SybilProfile.truthful(val_b),
            SybilProfile.truthful(val_c),
        ),
    )
    attack_run, truth_run = instance.attack_outcome, instance.truthful_outcome
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
        ("literal", instance.attack_outcome_literal.payments[:2]),
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
    return replace(instance, discrepancies=tuple(discrepancies))


def build_singleton_split_instance(epsilon: Fraction) -> WorkedInstance:
    """Three items, one agent splitting into three single-item bids.

    The agent values pairs superadditively but splits into one bid per
    item, underbidding the third item; against the tailored nature bid
    the attack earns twice what truth earns.
    """
    eps = scalar(epsilon)
    bid_grid_step(eps, 3)  # refuses a step that is not positive
    valuation = CombValuation(3, (0, 1, 1, 2, 1, 1 + eps, 1 + eps, 2 + eps))
    attack_bids = (additive_bid([1, 0, 0]), additive_bid([0, 1, 0]), additive_bid([0, 0, eps]))
    # Nature asks 2 - eps for the pair {a, b} and 1000 for item c.
    nature = CombBid(3, tuple(_adversary_table(3, 0b011, 2 - eps, "bundle", 1000)))
    return _worked_instance(
        eps,
        ("a", "b", "c"),
        (SybilProfile(valuation, attack_bids), SybilProfile.truthful(nature)),
    )


def _grid_tables(
    item_count: int, step: Fraction, value_cap: Fraction
) -> tuple[int, int, Iterator[BundleTable]]:
    """The step grid's level count up to the cap, the non-empty bundle
    count, and every table on the grid in ascending order, built lazily."""
    _check_item_count(item_count)
    step, value_cap = scalar(step), scalar(value_cap)
    _bid_grid(step, item_count)  # refuses a step that is not positive
    if value_cap < 0:
        raise ValidationError(f"value cap must be non-negative, got {value_cap}")
    levels = [step * k for k in range(int(value_cap / step) + 1)]
    slots = (1 << item_count) - 1
    tables = (
        BundleTable(item_count, (Fraction(0), *combo))
        for combo in itertools.product(levels, repeat=slots)
    )
    return len(levels), slots, tables


def enumerate_valuations(
    item_count: int, epsilon: Fraction, value_cap: Fraction
) -> Iterator[CombValuation]:
    """All valuations on the epsilon grid up to the cap, ascending order."""
    levels, slots, tables = _grid_tables(item_count, epsilon, value_cap)
    if levels**slots > SEARCH_BUDGET:
        raise CapacityError(f"valuation lattice {levels}^{slots} exceeds the budget")
    yield from tables


def enumerate_attacks(
    item_count: int, step: Fraction, value_cap: Fraction, max_sybils: int
) -> Iterator[tuple[CombBid, ...]]:
    """All bid vectors (up to Sybil reordering) on the given grid and cap."""
    levels, slots, tables = _grid_tables(item_count, step, value_cap)
    if max_sybils < 1:
        raise ValidationError(f"max_sybils must be at least 1, got {max_sybils}")
    total = sum(math.comb(levels**slots + k - 1, k) for k in range(1, max_sybils + 1))
    if total > SEARCH_BUDGET:
        raise CapacityError(f"attack lattice of {total} vectors exceeds the budget")
    singles = list(tables)
    for count in range(1, max_sybils + 1):
        yield from itertools.combinations_with_replacement(singles, count)

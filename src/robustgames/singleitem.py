"""Single-item auction builders and closed forms.

The discrete first-price auction puts bids on an epsilon grid capped by
the bidder's value.  Nature is the top competing bid on the same grid,
plus one extra state "no-rival" in which every bid wins (the regret
analysis needs the state where bidding 0 would have taken the item for
free).  Ties lose.  The continuous first-price auction is handled by
witness construction only; its state space is a continuum.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import AgentGame, check_game_cells, format_scalar, scalar
from .errors import InternalConsistencyError, ValidationError

NO_RIVAL = "no-rival"


def eps_net(value: Fraction, epsilon: Fraction) -> Fraction:
    """Largest grid multiple of ``epsilon`` not exceeding ``value``."""
    value, epsilon = scalar(value), scalar(epsilon)
    if epsilon <= 0:
        raise ValidationError(f"grid step must be positive, got {epsilon}")
    if value < 0:
        raise ValidationError(f"value must be non-negative, got {value}")
    return epsilon * (value / epsilon).__floor__()


@dataclass(frozen=True)
class DfpaSpec:
    """Discrete first-price auction parameters.

    ``nature_bid_cap`` bounds the competing top bid; it must leave at
    least one losing state above every feasible bid.
    """

    value: Fraction
    epsilon: Fraction
    nature_bid_cap: Fraction

    def __post_init__(self) -> None:
        value = scalar(self.value)
        epsilon = scalar(self.epsilon)
        cap = scalar(self.nature_bid_cap)
        if epsilon <= 0:
            raise ValidationError(f"grid step must be positive, got {epsilon}")
        if value < 0:
            raise ValidationError(f"value must be non-negative, got {value}")
        if cap < value + epsilon:
            raise ValidationError(
                f"nature bid cap {cap} must be at least value + step = {value + epsilon}"
            )
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "nature_bid_cap", cap)


def default_dfpa_spec(value: Fraction, epsilon: Fraction) -> DfpaSpec:
    """Spec with the default cap: value + 2 steps, rounded up to the grid.

    Results are invariant to raising the cap further; one losing state
    above every feasible bid is all the arguments use.
    """
    value, epsilon = scalar(value), scalar(epsilon)
    if epsilon <= 0:  # checked here too: the cap below divides by it
        raise ValidationError(f"grid step must be positive, got {epsilon}")
    raw = value + 2 * epsilon
    cap = epsilon * (-((-raw) / epsilon).__floor__())
    return DfpaSpec(value, epsilon, cap)


def _auction_game(kind: str, spec: DfpaSpec, lost: Callable[[Fraction], Fraction]) -> AgentGame:
    """Bids against the top rival bid, both on the step grid, plus the
    no-rival state.  A bid wins against a strictly lower rival and earns
    value − bid; it earns ``lost(bid)`` otherwise.  Both grids are counted
    in integers against the cell budget before either is built."""
    step = spec.epsilon
    bid_count, rival_count = spec.value // step + 1, spec.nature_bid_cap // step + 1
    check_game_cells(kind, bid_count, rival_count + 1)
    bids = [step * k for k in range(bid_count)]
    states = tuple(format_scalar(step * j) for j in range(rival_count)) + (NO_RIVAL,)
    # Bid k beats the rivals below index k; the cap leaves a rival above every bid.
    rows = tuple(
        (spec.value - b,) * k + (lost(b),) * (rival_count - k) + (spec.value - b,)
        for k, b in enumerate(bids)
    )
    return AgentGame(kind, tuple(format_scalar(b) for b in bids), states, rows)


def dfpa_game(spec: DfpaSpec) -> AgentGame:
    """Build the auction as a game against the top competing bid.

    Utility is value − bid on a win (competing bid strictly lower, or
    the no-rival state), 0 otherwise.
    """
    return _auction_game("dfpa", spec, lambda bid: Fraction(0))


def dfpa_loss_averse_bid(value: Fraction, epsilon: Fraction) -> Fraction:
    """The unique loss-averse bid: the closest grid point strictly below
    the value, except that value 0 can only bid 0."""
    value, epsilon = scalar(value), scalar(epsilon)
    net = eps_net(value, epsilon)
    if net != value:
        return net
    if value == 0:
        return Fraction(0)
    return net - epsilon


def dfpa_min_max_regret_bid(value: Fraction, epsilon: Fraction) -> Fraction:
    """The regret-optimal bid, balancing the overpayment and missed-win cases."""
    return eps_net(scalar(value) / 2, epsilon)


def dfpa_min_max_regret_set(value: Fraction, epsilon: Fraction) -> tuple[Fraction, ...]:
    """Exact argmin set of the max regret over feasible bids.

    Max regret of bid b is max(b, value − b − epsilon): paying b when no
    rival shows up versus losing to a rival at exactly b.  The balance
    point is value/2; when value/2 is itself a positive grid multiple the
    two neighbouring bids tie exactly, otherwise the optimum is unique.
    """
    value, epsilon = scalar(value), scalar(epsilon)
    best = dfpa_min_max_regret_bid(value, epsilon)
    half = value / 2
    if best == half and best > 0:
        return (best - epsilon, best)
    return (best,)


def dfpa_leximin_set(value: Fraction, epsilon: Fraction) -> tuple[Fraction, ...]:
    """Exact leximin (distinct-outcome-set form) bids.

    Bidding 0 keeps the largest win margin among bids with a losing
    state, but when the value itself is a feasible bid its outcome set
    collapses to {0} alone and the exhausted-side rule puts it on top.
    """
    value, epsilon = scalar(value), scalar(epsilon)
    if value > 0 and eps_net(value, epsilon) == value:
        return (value,)
    return (Fraction(0),)


@dataclass(frozen=True)
class FpaWitness:
    """Loss-aversion counterexample for a continuous first-price bid.

    ``deviation`` beats ``bid``: over the states where the two differ,
    ``bid`` bottoms out at ``bid_min`` (realized at ``state``) while the
    deviation never drops below ``deviation_min``.
    """

    value: Fraction
    bid: Fraction
    deviation: Fraction
    state: Fraction
    bid_min: Fraction
    deviation_min: Fraction


def fpa_no_loss_averse_witness(value: Fraction, bid: Fraction) -> FpaWitness:
    """Construct the deviation refuting loss-aversion of any continuous bid.

    A bid below the value is undercut on its own losing region by the
    midpoint towards the value; the bid equal to the value earns 0
    everywhere and loses to half the value.
    """
    value, bid = scalar(value), scalar(bid)
    if value == 0:
        raise ValidationError("value 0 is degenerate: the only feasible bid is 0")
    if not 0 <= bid <= value:
        raise ValidationError(f"bid {bid} outside [0, {value}]")
    if bid < value:
        deviation = (bid + value) / 2
        state = (bid + deviation) / 2
    else:
        deviation = value / 2
        state = Fraction(0)
    witness = FpaWitness(
        value=value,
        bid=bid,
        deviation=deviation,
        state=state,
        bid_min=Fraction(0),
        deviation_min=value - deviation,
    )
    if not verify_fpa_witness(witness):
        raise InternalConsistencyError(f"constructed witness fails re-derivation: {witness}")
    return witness


def _fpa_utility(value: Fraction, bid: Fraction, top_rival: Fraction) -> Fraction:
    return value - bid if bid > top_rival else Fraction(0)


def verify_fpa_witness(w: FpaWitness) -> bool:
    """Re-derive both minima from the auction's utility formula.

    In both constructions the two bids differ exactly on the rival
    interval [0, deviation): there the deviation wins a positive margin
    while the refuted bid either loses or wins a zero margin (the bid
    equal to the value earns 0 even when it wins).  The deviation's
    utility is constant on that interval, so the recorded minima are
    checked by evaluating both formulas at the recorded state.
    """
    if not (0 <= w.bid <= w.value and 0 < w.deviation < w.value):
        return False
    if w.bid != w.value and not w.bid < w.deviation:
        return False
    if not 0 <= w.state < w.deviation:
        return False
    if _fpa_utility(w.value, w.bid, w.state) != w.bid_min or w.bid_min != 0:
        return False
    if _fpa_utility(w.value, w.deviation, w.state) != w.deviation_min:
        return False
    if w.deviation_min != w.value - w.deviation:
        return False
    return w.bid_min < w.deviation_min


def all_pay_game(value: Fraction, epsilon: Fraction, nature_bid_cap: Fraction) -> AgentGame:
    """All-pay variant on the same grids: the bid is paid win or lose."""
    return _auction_game("all-pay", DfpaSpec(value, epsilon, nature_bid_cap), operator.neg)


def all_pay_loss_averse_bid(value: Fraction) -> Fraction:
    """Bidding anything risks paying for nothing; 0 is the only safe bid."""
    scalar(value)
    return Fraction(0)

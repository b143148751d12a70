"""Facility location under the mean rule and positional-scoring voting.

Both mechanisms are viewed from a single participant's side: everyone
else's behavior is compressed into a nature state (the sum of the other
reports, or the aggregate tally the other voters produce), so the
builders emit ordinary agent-vs-nature games and all verdicts come from
the shared concept engine.

The facility agent's utility is the negated distance to the facility;
the mean rule makes the sum of the other reports a sufficient
statistic.  Voting utilities are the cardinal value of the winning
candidate, with ties broken towards the worst one.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import concepts
from .core import (
    MAX_GAME_CELLS, AgentGame, MixedAction, check_game_cells, format_scalar, mixed_utility, scalar
)
from .errors import InternalConsistencyError, ValidationError


@dataclass(frozen=True)
class FacilitySpec:
    """One agent with peak ``my_type`` among ``agent_count`` reporters."""

    agent_count: int
    my_type: Fraction
    others_grid_step: Fraction

    def __post_init__(self) -> None:
        if self.agent_count < 2:
            raise ValidationError(f"need at least 2 agents, got {self.agent_count}")
        object.__setattr__(self, "my_type", scalar(self.my_type))
        object.__setattr__(self, "others_grid_step", scalar(self.others_grid_step))
        if not 0 <= self.my_type <= 1:
            raise ValidationError(f"agent type {self.my_type} outside [0, 1]")
        if self.others_grid_step <= 0:
            raise ValidationError(f"grid step must be positive, got {self.others_grid_step}")


def facility_loss_averse_report(theta: Fraction, agent_count: int) -> Fraction:
    """Report that maximizes the worst-case proximity to the facility.

    On the middle interval [1/2 - 1/(2n), 1/2 + 1/(2n)] the report is
    n*theta - (n-1)/2, which places the facility at theta when the
    others' average sits at the hostile extreme; outside it the optimum
    saturates at the nearer endpoint.
    """
    theta = scalar(theta)
    n = agent_count
    if n < 2:
        raise ValidationError(f"need at least 2 agents, got {n}")
    if not 0 <= theta <= 1:
        raise ValidationError(f"agent type {theta} outside [0, 1]")
    half_width = Fraction(1, 2 * n)
    if Fraction(1, 2) - half_width <= theta <= Fraction(1, 2) + half_width:
        return n * theta - Fraction(n - 1, 2)
    return Fraction(0) if theta < Fraction(1, 2) else Fraction(1)


def _grid_size(limit: Fraction, step: Fraction) -> int:
    """How many points ``_grid`` lays out: the step multiples below ``limit``, and ``limit``."""
    return -(-limit // step) + 1


def _grid(limit: Fraction, step: Fraction) -> list[Fraction]:
    values = [step * k for k in range(_grid_size(limit, step) - 1)]
    values.append(limit)  # endpoint always present even off the step lattice
    return values


def facility_game(spec: FacilitySpec) -> AgentGame:
    """Reports vs others'-sum states, utility = -|theta - mean|."""
    n = spec.agent_count
    step = spec.others_grid_step
    check_game_cells("facility", _grid_size(Fraction(1), step), _grid_size(Fraction(n - 1), step))
    reports = _grid(Fraction(1), step)
    sums = _grid(Fraction(n - 1), step)
    actions = tuple(format_scalar(r) for r in reports)
    states = tuple(format_scalar(s) for s in sums)
    rows = tuple(
        tuple(-abs(spec.my_type - Fraction(r + s, n)) for s in sums) for r in reports
    )
    return AgentGame("facility", actions, states, rows)


@dataclass(frozen=True)
class FacilityWelfareLoss:
    """All agents share one type yet the mean rule ends up at 0."""

    agent_count: int
    agent_type: Fraction
    reports: tuple[Fraction, ...]
    facility: Fraction
    welfare_loss: Fraction


def facility_welfare_loss_demo(agent_count: int) -> FacilityWelfareLoss:
    """Worst-case welfare loss of the mean rule under worst-case play.

    With every agent typed 1/2 - 1/(2n) the closed-form report is 0, the
    facility lands at 0, and the total distance grows linearly in n even
    though placing the facility at the common type costs nothing.
    """
    n = agent_count
    theta = Fraction(1, 2) - Fraction(1, 2 * n)
    report = facility_loss_averse_report(theta, n)
    if report != 0:
        raise InternalConsistencyError(f"expected saturated report 0, got {report}")
    reports = (report,) * n
    facility = sum(reports, Fraction(0)) / n
    loss = sum((abs(theta - facility) for _ in range(n)), Fraction(0))
    return FacilityWelfareLoss(n, theta, reports, facility, loss)


@dataclass(frozen=True)
class PsrSpec:
    """A positional scoring rule from one voter's perspective.

    ``permissible_vectors`` are the ballots the rule accepts;
    ``cardinal_utilities`` is the voter's value for each candidate,
    normalized to start at 1 and end at 0; ``tally_cap`` bounds each
    candidate's aggregate score from the other voters.
    """

    candidate_count: int
    permissible_vectors: tuple[tuple[Fraction, ...], ...]
    cardinal_utilities: tuple[Fraction, ...]
    tally_cap: int

    def __post_init__(self) -> None:
        n = self.candidate_count
        if n < 2:
            raise ValidationError(f"need at least 2 candidates, got {n}")
        f = tuple(scalar(v) for v in self.cardinal_utilities)
        if len(f) != n:
            raise ValidationError(f"utility vector length {len(f)} != {n} candidates")
        if f[0] != 1 or f[-1] != 0:
            raise ValidationError("cardinal utilities must run from 1 down to 0")
        if any(f[i] <= f[i + 1] for i in range(n - 1)):
            raise ValidationError("cardinal utilities must be strictly decreasing")
        vectors = []
        for vec in self.permissible_vectors:
            vec = tuple(scalar(v) for v in vec)
            if len(vec) != n:
                raise ValidationError(f"ballot length {len(vec)} != {n} candidates")
            if any(v < 0 for v in vec):
                raise ValidationError("ballot scores must be non-negative")
            vectors.append(vec)
        if not vectors:
            raise ValidationError("need at least one permissible ballot")
        if len(set(vectors)) != len(vectors):
            raise ValidationError("duplicate permissible ballots")
        if self.tally_cap < 0:
            raise ValidationError(f"tally cap must be non-negative, got {self.tally_cap}")
        object.__setattr__(self, "cardinal_utilities", f)
        object.__setattr__(self, "permissible_vectors", tuple(vectors))


def ballot_label(vector: Sequence[Fraction]) -> str:
    return ",".join(format_scalar(scalar(v)) for v in vector)


def plurality_spec(
    candidate_count: int, cardinal_utilities: Sequence[Fraction], tally_cap: int | None = None
) -> PsrSpec:
    n = candidate_count
    check_game_cells("plurality ballots", n, n)
    vectors = tuple(
        tuple(Fraction(1) if k == j else Fraction(0) for k in range(n)) for j in range(n)
    )
    return PsrSpec(n, vectors, tuple(cardinal_utilities), 2 if tally_cap is None else tally_cap)


def approval_spec(
    candidate_count: int, cardinal_utilities: Sequence[Fraction], tally_cap: int | None = None
) -> PsrSpec:
    n = candidate_count
    check_game_cells("approval ballots", 2**n, n)
    vectors = tuple(
        tuple(Fraction(b) for b in combo) for combo in itertools.product((0, 1), repeat=n)
    )
    return PsrSpec(n, vectors, tuple(cardinal_utilities), 2 if tally_cap is None else tally_cap)


def psr_winner(scores: Sequence[Fraction]) -> int:
    """Highest total wins; ties go to the highest index (worst candidate)."""
    top = max(scores)
    return max(i for i, s in enumerate(scores) if s == top)


def psr_game(spec: PsrSpec) -> AgentGame:
    """Ballots vs all aggregate tallies of the other voters."""
    n = spec.candidate_count
    # Counted before any tally is built; a cap above the budget is refused either way.
    tally_count = (min(spec.tally_cap, MAX_GAME_CELLS) + 1) ** n
    check_game_cells("psr", len(spec.permissible_vectors), tally_count)
    max_score = max(max(vec) for vec in spec.permissible_vectors)
    if spec.tally_cap < max_score:
        warnings.warn(
            f"tally cap {spec.tally_cap} is below the top ballot score {max_score}; "
            f"pivotal states may be missing",
            stacklevel=2,
        )
    f = spec.cardinal_utilities
    tallies = list(itertools.product(range(spec.tally_cap + 1), repeat=n))
    actions = tuple(ballot_label(vec) for vec in spec.permissible_vectors)
    states = tuple(",".join(str(t) for t in tally) for tally in tallies)
    rows = tuple(
        tuple(f[psr_winner([t + v for t, v in zip(tally, vec)])] for tally in tallies)
        for vec in spec.permissible_vectors
    )
    return AgentGame("psr", actions, states, rows)


def _difference_image(vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(v - vec[-1] for v in vec[:-1])


def voting_pareto_frontier_loss_averse(spec: PsrSpec) -> tuple[tuple[Fraction, ...], ...]:
    """Ballots whose difference image (v_j - v_n per candidate) is undominated.

    When the tally cap is at least twice the top score every pairwise
    pivotal state exists, the frontier coincides with the loss-averse
    ballots of the induced game, and that equality is verified here.
    """
    images = [_difference_image(vec) for vec in spec.permissible_vectors]
    frontier = []
    for i, vec in enumerate(spec.permissible_vectors):
        dominated = False
        for j, other in enumerate(images):
            if j != i and other != images[i] and all(
                o >= s for o, s in zip(other, images[i])
            ):
                dominated = True
                break
        if not dominated:
            frontier.append(vec)
    max_score = max(max(vec) for vec in spec.permissible_vectors)
    if spec.tally_cap >= 2 * max_score:
        engine = set(concepts.loss_averse_actions(psr_game(spec)))
        ours = {ballot_label(vec) for vec in frontier}
        if engine != ours:
            raise InternalConsistencyError(
                f"frontier {sorted(ours)} disagrees with the engine {sorted(engine)}"
            )
    return tuple(frontier)


def plurality_mixed_loss_averse(cardinal_utilities: Sequence[Fraction]) -> MixedAction:
    """The mixture over plurality ballots with weights inverse to the
    candidates' values.

    The ballot for candidate j gets (1/f_j) / N with N = sum of 1/f_k over
    every candidate but the worst, who gets probability 0 (``plurality_spec``
    requires every other f_k > 0).  The mixture is meant to equalize the
    expected utility at the pivotal states, and ``plurality_mixed_equalization``
    checks that it does, at 1/N.  Nothing here proves it loss-averse or
    unique: ``mixed_loss_averse_falsify`` can only refute a mixture, never
    certify one, and an exact decision is ROADMAP.md item 6.
    """
    f = tuple(scalar(v) for v in cardinal_utilities)
    n = len(f)
    spec = plurality_spec(n, f)
    total = sum((1 / v for v in f[:-1]), Fraction(0))
    mapping = {}
    for j in range(n - 1):
        mapping[ballot_label(spec.permissible_vectors[j])] = (1 / f[j]) / total
    return MixedAction.from_mapping(mapping)


def plurality_mixed_equalization(cardinal_utilities: Sequence[Fraction]) -> Fraction:
    """The level 1/N that ``plurality_mixed_loss_averse``'s mixture reaches
    at every pivotal state, checked at each.

    The pivotal state of candidate j (every candidate but the worst) is the
    tally where j ties the worst candidate at 2 votes, the others at 0.
    """
    f = tuple(scalar(v) for v in cardinal_utilities)
    n = len(f)
    mixture = plurality_mixed_loss_averse(f)
    game = psr_game(plurality_spec(n, f))
    level = 1 / sum((1 / v for v in f[:-1]), Fraction(0))
    for j in range(n - 1):
        state = ",".join("2" if k in (j, n - 1) else "0" for k in range(n))
        value = mixed_utility(game, mixture, state)
        if value != level:
            raise InternalConsistencyError(
                f"pivotal state {state} gives {value}, expected {level}"
            )
    return level


def plurality_min_max_regret(cardinal_utilities: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Voting for the favorite uniquely minimizes the worst-case regret.

    Its max regret is f_2 - f_n (missing the second-best win); every
    other ballot risks the full f_1 - f_n.  Verified against the engine.
    """
    f = tuple(scalar(v) for v in cardinal_utilities)
    n = len(f)
    spec = plurality_spec(n, f)
    game = psr_game(spec)
    truthful = spec.permissible_vectors[0]
    engine = concepts.min_max_regret_actions(game)
    if engine != {ballot_label(truthful)}:
        raise InternalConsistencyError(
            f"engine min-max-regret ballots {engine} are not the favorite alone"
        )
    if concepts.max_regret(game, ballot_label(truthful)) != f[1] - f[-1]:
        raise InternalConsistencyError("favorite ballot's max regret is not f_2 - f_n")
    return truthful


def approval_top_k_ballot(candidate_count: int, k: int) -> tuple[Fraction, ...]:
    if not 1 <= k <= candidate_count:
        raise ValidationError(f"k = {k} outside 1..{candidate_count}")
    return tuple(
        Fraction(1) if j < k else Fraction(0) for j in range(candidate_count)
    )


def approval_min_max_regret_top_k(cardinal_utilities: Sequence[Fraction]) -> int:
    """Number of top candidates to approve to minimize worst-case regret.

    Computed exhaustively: the engine's max regret of each top-k ballot,
    smallest k winning ties.
    """
    f = tuple(scalar(v) for v in cardinal_utilities)
    n = len(f)
    game = psr_game(approval_spec(n, f))
    best_k = None
    best_regret = None
    for k in range(1, n + 1):
        regret = concepts.max_regret(game, ballot_label(approval_top_k_ballot(n, k)))
        if best_regret is None or regret < best_regret:
            best_k = k
            best_regret = regret
    return best_k

"""mixed-safety: the mixed-strategy solver and the mixed falsifier.

Two kinds of operation:

- ``concepts.mixed_safety_value`` on one seeded small game.  The solver
  enumerates 2^A x 2^S supports and solves each with rational Gaussian
  elimination, so the largest games set the tail.
- One ``mechanisms.plurality_mixed_loss_averse`` mixture, perturbed
  towards another ballot, tested with ``concepts.mixed_loss_averse_falsify``
  against the unperturbed mixture on a ``psr_game`` built at set-up.

Inputs: ``CYCLES`` rounds over every size from 2 x 2 to 5 x 6 (entries
seeded in [-5, 5]), with one voting operation after every second game;
the seed picks the entries, the voter's utilities and the perturbations.
"""
from __future__ import annotations

import random
from fractions import Fraction
from types import SimpleNamespace

NAME = "mixed-safety"
CYCLES = 10
SIZES = tuple((a, s) for a in range(2, 6) for s in range(2, 7))


def _game(mods, rng: random.Random, actions: int, states: int):
    rows = tuple(
        tuple(Fraction(rng.randint(-5, 5)) for _ in range(states)) for _ in range(actions)
    )
    return mods.core.AgentGame(
        "random",
        tuple(f"a{i}" for i in range(1, actions + 1)),
        tuple(f"s{j}" for j in range(1, states + 1)),
        rows,
    )


def _utilities(rng: random.Random, candidates: int) -> tuple[Fraction, ...]:
    inner = sorted(rng.sample(range(1, 10), candidates - 2), reverse=True)
    return (Fraction(1),) + tuple(Fraction(v, 10) for v in inner) + (Fraction(0),)


def setup(mods, seed: int, workdir: str):
    mechanisms = mods.mechanisms
    rng = random.Random(seed)
    voting_games: dict = {}
    ops = []
    for _ in range(CYCLES):
        for i, (actions, states) in enumerate(SIZES):
            ops.append(("solve", _game(mods, rng, actions, states)))
            if i % 2:
                f = _utilities(rng, 3 + (i // 2) % 2)
                if f not in voting_games:
                    spec = mechanisms.plurality_spec(len(f), f)
                    voting_games[f] = mechanisms.psr_game(spec)
                shift = (rng.randrange(1000), rng.randrange(1000), rng.randint(2, 7))
                ops.append(("falsify", voting_games[f], f, shift))
    cells = sum(len(op[1].actions) * len(op[1].states) for op in ops)
    return SimpleNamespace(ops=ops, cells=cells)


def run(mods, inputs, op):
    if op[0] == "solve":
        return mods.concepts.mixed_safety_value(op[1])
    _, game, f, (source_pick, target_pick, divisor) = op
    good = mods.mechanisms.plurality_mixed_loss_averse(f)
    entries = dict(good.entries)
    source = sorted(entries)[source_pick % len(entries)]
    targets = [a for a in game.actions if a != source]
    target = targets[target_pick % len(targets)]
    delta = entries[source] * Fraction(1, divisor)
    entries[source] -= delta
    entries[target] = entries.get(target, Fraction(0)) + delta
    candidate = mods.core.MixedAction.from_mapping(entries)
    return good, candidate, mods.concepts.mixed_loss_averse_falsify(game, candidate, [good])


def _guarantee(mods, game, mix) -> Fraction:
    return min(mods.core.mixed_utility(game, mix, s) for s in game.states)


def _check_solve(mods, game, value, mix) -> str | None:
    if _guarantee(mods, game, mix) != value:
        return f"mixture guarantees {_guarantee(mods, game, mix)}, not the value {value}"
    pure = max(min(row) for row in game.rows)
    if value < pure:
        return f"mixed value {value} below the pure safety level {pure}"
    if len(game.actions) == 2 and len(game.states) == 2:
        closed = mods.concepts.mixed_safety_level_solve_2x2(game)
        if _guarantee(mods, game, closed) != value:
            return f"2x2 solver guarantees {_guarantee(mods, game, closed)}, not {value}"
    return None


def _check_falsify(mods, game, good, candidate, result) -> str | None:
    if result.verdict is not mods.concepts.FalsifyVerdict.FALSIFIED:
        return f"perturbed mixture {candidate.entries} survived"
    mixed_utility = mods.core.mixed_utility
    cand = [mixed_utility(game, candidate, s) for s in game.states]
    dev = [mixed_utility(game, good, s) for s in game.states]
    diff = [j for j in range(len(cand)) if cand[j] != dev[j]]
    lo_c = min(cand[j] for j in diff)
    lo_d = min(dev[j] for j in diff)
    if (result.deviation, result.candidate_min, result.deviation_min) != (good, lo_c, lo_d):
        return f"falsification {result} does not match the recomputed ({lo_c}, {lo_d})"
    if not lo_c < lo_d:
        return f"falsification minima ({lo_c}, {lo_d}) are not a refutation"
    return None


def check(mods, inputs, index, op, result, counts):
    if op[0] == "solve":
        value, mix = result
        fingerprint = repr((value, mix.entries))
        failure = None if counts is None else _check_solve(mods, op[1], value, mix)
    else:
        good, candidate, outcome = result
        fingerprint = repr((candidate.entries, outcome))
        failure = None
        if counts is not None:
            failure = _check_falsify(mods, op[1], good, candidate, outcome)
    return fingerprint, failure and f"op {index} {failure}"


def work_lines(inputs, counts) -> list[str]:
    kinds = [op[0] for op in inputs.ops]
    return [f"ops solve={kinds.count('solve')} falsify={kinds.count('falsify')}"]

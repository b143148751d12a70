"""auction-analyze: the full ``robustgames analyze --game FILE`` report.

One operation is ``cli.main(["analyze", "--game", path])`` in-process
with stdout captured: all nine concepts with refutations in the
structured format, plus the serialized game.  ``vcg`` never runs.

Inputs, written as game files at set-up: 16 discrete first-price
auction grids (5 to 44 bids, up to 44 x 47; rows share one
denominator), 16 facility grids (up to 41 x 41 and 21 x 81; rows mix
denominators) and 16 dense random integer tables (up to 36 x 38, values
in +-10**6, so few ties), interleaved small to large.  The sizes and
facility types are fixed; the seed picks where each auction value sits
on its grid and the random table entries.  A pass takes a few seconds,
so a run repeats it and reports the median over its passes; a 100-bid
auction alone takes 5-8 s here, and the 201 x 204 auction of the
roadmap about 40 s, so both are left out.
"""
from __future__ import annotations

import contextlib
import io
import os
import random
from fractions import Fraction
from types import SimpleNamespace

NAME = "auction-analyze"
DFPA_BIDS = (5, 6, 7, 8, 10, 12, 14, 16, 18, 20, 23, 26, 29, 33, 38, 44)
# (agent count n, refinement j): reports on the 1/(4nj) grid.
FACILITY_GRIDS = (
    (2, 1), (2, 1), (3, 1), (2, 2), (2, 2), (4, 1), (2, 3), (3, 1),
    (3, 2), (2, 3), (2, 4), (4, 1), (5, 1), (2, 4), (3, 2), (2, 5),
)
RANDOM_SIZES = (
    (6, 6), (7, 8), (8, 10), (10, 8), (10, 12), (12, 12), (14, 16), (16, 14),
    (18, 18), (20, 20), (22, 24), (24, 22), (26, 28), (28, 30), (32, 34), (36, 38),
)
RANDOM_RANGE = 10**6


def _dfpa(mods, rng: random.Random, bids: int):
    """Auction with exactly ``bids`` bids on the 1/(bids-1) grid; the seed
    puts the value on the grid or a third, half or two thirds past it."""
    epsilon = Fraction(1, bids - 1)
    value = 1 + rng.choice((0, Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))) * epsilon
    game = mods.singleitem.dfpa_game(mods.singleitem.default_dfpa_spec(value, epsilon))
    return game, ("dfpa", value, epsilon)


def _facility(mods, theta_index: int, n: int, j: int):
    """Mean-rule facility game with a type aligned to the closed form's grid.

    The type is fixed per entry, spread over [0, 1]: the analysis cost
    grows several-fold with the type, so a seeded type would swamp the
    timing with input variance.
    """
    theta = Fraction(theta_index % (4 * n + 1), 4 * n)
    spec = mods.mechanisms.FacilitySpec(n, theta, Fraction(1, 4 * n * j))
    return mods.mechanisms.facility_game(spec), ("facility", theta, n)


def _random_table(mods, rng: random.Random, actions: int, states: int):
    rows = tuple(
        tuple(Fraction(rng.randint(-RANDOM_RANGE, RANDOM_RANGE)) for _ in range(states))
        for _ in range(actions)
    )
    game = mods.core.AgentGame(
        "random",
        tuple(f"a{i}" for i in range(1, actions + 1)),
        tuple(f"s{j}" for j in range(1, states + 1)),
        rows,
    )
    return game, ("random",)


def setup(mods, seed: int, workdir: str):
    rng = random.Random(seed)
    built = []
    for i, (bids, (n, j), (actions, states)) in enumerate(
        zip(DFPA_BIDS, FACILITY_GRIDS, RANDOM_SIZES)
    ):
        built.append(_dfpa(mods, rng, bids))
        built.append(_facility(mods, 5 * i, n, j))
        built.append(_random_table(mods, rng, actions, states))
    ops = []
    for index, (game, spec) in enumerate(built):
        text = mods.core.format_game(game)
        path = os.path.join(workdir, f"game-{index:02d}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        ops.append((path, game, text, spec))
    cells = sum(len(g.actions) * len(g.states) for _, g, _, _ in ops)
    return SimpleNamespace(ops=ops, cells=cells)


def run(mods, inputs, op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = mods.cli.main(["analyze", "--game", op[0]])
    return code, out.getvalue()


def _parse_report(mods, text: str):
    """Split a structured report into verdict blocks and the game text."""
    concepts, core = mods.concepts, mods.core

    def extended(token: str):
        return core.INF if token == "inf" else core.parse_scalar(token)

    verdicts = []
    lines = text.split("\n")
    at = 0
    while lines[at] == "verdict v1":
        concept = concepts.Concept(lines[at + 1].removeprefix("concept "))
        actions = lines[at + 2].removeprefix("actions ").split(" ")
        satisfying = () if actions == ["-"] else tuple(actions)
        refutations = []
        at += 3
        while lines[at] != "end":
            f = lines[at].split(" ")
            refutations.append(
                concepts.Refutation(
                    action=f[1],
                    competitor=None if f[3] == "-" else f[3],
                    states=() if f[5] == "-" else tuple(f[5].split(",")),
                    self_value=extended(f[7]),
                    other_value=None if f[9] == "-" else extended(f[9]),
                )
            )
            at += 1
        verdicts.append((concept, satisfying, refutations))
        at += 1
    if lines[at] != "":
        raise ValueError(f"unexpected report line {lines[at]!r}")
    return verdicts, "\n".join(lines[at + 1:])


@contextlib.contextmanager
def _memoized_max_regret(concepts):
    """``verify_refutation`` recomputes every action's max regret for each
    min-max-regret refutation (cubic in the table); the function is pure,
    so memoizing it keeps the gate quadratic without changing a verdict."""
    original = concepts.max_regret
    memo: dict = {}

    def max_regret(game, action):
        key = (id(game), action)
        if key not in memo:
            memo[key] = original(game, action)
        return memo[key]

    concepts.max_regret = max_regret
    try:
        yield
    finally:
        concepts.max_regret = original


def _closed_form(mods, game, spec, sets) -> str | None:
    fmt = mods.core.format_scalar
    C = mods.concepts.Concept
    if spec[0] == "dfpa":
        _, value, epsilon = spec
        si = mods.singleitem
        want = {
            C.LOSS_AVERSE: {fmt(si.dfpa_loss_averse_bid(value, epsilon))},
            C.MIN_MAX_REGRET: {fmt(b) for b in si.dfpa_min_max_regret_set(value, epsilon)},
            C.LEXIMIN: {fmt(b) for b in si.dfpa_leximin_set(value, epsilon)},
        }
    elif spec[0] == "facility":
        _, theta, n = spec
        report = {fmt(mods.mechanisms.facility_loss_averse_report(theta, n))}
        want = {C.LOSS_AVERSE: report, C.SAFETY_LEVEL: report}
    else:
        oracle = mods.oracle
        want = {
            C.LOSS_AVERSE: oracle.naive_loss_averse(game),
            C.LEXIMIN: oracle.naive_leximin(game, False),
            C.MULTI_LEXIMIN: oracle.naive_leximin(game, True),
        }
    for concept, expected in want.items():
        if set(sets[concept]) != expected:
            return f"{spec[0]} {concept.value} {sorted(sets[concept])} != {sorted(expected)}"
    return None


def check(mods, inputs, index, op, result, counts):
    code, text = result
    if counts is None:
        return text, None
    if code != 0:
        return text, f"op {index} exited {code}"
    path, game, game_text, spec = op
    concepts = mods.concepts
    verdicts, tail = _parse_report(mods, text)
    if [v[0] for v in verdicts] != list(concepts.Concept):
        return text, f"op {index} reports concepts {[v[0].value for v in verdicts]}"
    if tail != game_text:
        return text, f"op {index} serialized game differs from the input file"
    with _memoized_max_regret(concepts):
        for concept, satisfying, refutations in verdicts:
            refuted = {r.action for r in refutations}
            expected = (
                set(satisfying)
                if concept is concepts.Concept.STRICTLY_DOMINATED
                else set(game.actions) - set(satisfying)
            )
            if refuted != expected:
                return text, f"op {index} {concept.value} refutes {sorted(refuted)}"
            for ref in refutations:
                if not concepts.verify_refutation(game, concept, ref):
                    return text, f"op {index} {concept.value} refutation {ref} does not verify"
    failure = _closed_form(mods, game, spec, {c: s for c, s, _ in verdicts})
    return text, failure and f"op {index} {failure}"


def work_lines(inputs, counts) -> list[str]:
    sizes = " ".join(f"{len(g.actions)}x{len(g.states)}" for _, g, _, _ in inputs.ops)
    return [f"games {sizes}"]

"""Exact data model for finite games of a single agent against nature.

All quantities are arbitrary-precision rationals (``fractions.Fraction``);
floats are rejected everywhere so results are reproducible bit for bit.
Hot comparisons run on the same quantities scaled to integers over their
least common denominator (``scale_rows``), which orders them identically.

A game is serialized to a small line-oriented text document::

    agentgame v1
    type <type-label>
    actions <a1> <a2> ...
    states <s1> <s2> ...
    utilities
    <u(a1,s1)> <u(a1,s2)> ...
    <u(a2,s1)> <u(a2,s2)> ...
    end

Labels are non-empty tokens without whitespace.  Utilities are written
row-major, one action per line, each value as ``p/q`` (lowest terms,
positive denominator) or a plain integer.  ``parse_game(format_game(g))``
reproduces ``g`` exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .errors import CapacityError, ParseError, UnknownLabelError, ValidationError

# Matched with ``fullmatch``: ``$`` would also match before a final newline.
_SCALAR_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_LABEL_RE = re.compile(r"\S+")

# The most cells (actions x states) a builder lays out on its grid, or a
# game document may declare: about 80 MB of ``Fraction``s and 3 s to
# build.  The largest grid game the tests, the examples, ``verify-all``
# and the benchmarks build is an auction at step 1/200 with 201 x 204
# cells.
MAX_GAME_CELLS = 10**6


def check_game_cells(kind: str, actions: int, states: int) -> None:
    """Refuse a game above ``MAX_GAME_CELLS`` cells before it is built or read.
    A count above the budget is not printed: ``str`` may refuse its digits."""
    if actions * states > MAX_GAME_CELLS:
        a, s = (n if n <= MAX_GAME_CELLS else f"over {MAX_GAME_CELLS}" for n in (actions, states))
        raise CapacityError(f"{kind} game of {a} x {s} cells exceeds the budget of {MAX_GAME_CELLS}")


def scalar(value: int | str | Fraction) -> Fraction:
    """Coerce ``value`` to an exact rational.  Floats are rejected."""
    if isinstance(value, bool):
        raise ValidationError("booleans are not scalars")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise ValidationError(
        f"expected an exact rational (int, Fraction or 'p/q' string), got {type(value).__name__}"
    )


def parse_scalar(text: str) -> Fraction:
    """Parse ``p/q`` or integer text into a Fraction."""
    if not _SCALAR_RE.fullmatch(text):
        raise ParseError(f"not a rational literal: {text!r}")
    num, slash, den = text.partition("/")
    try:
        if not slash:  # an integer: already in lowest terms
            return Fraction(int(num))
        num, den = int(num), int(den)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"rational literal of {len(text)} characters is too long") from None
    if den == 0:
        raise ParseError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def format_scalar(value: ExtendedScalar) -> str:
    """Render a Fraction as ``p/q`` (or ``p`` when integral), or ``INF`` as
    ``inf``: the value's ``str``."""
    return str(value)


class _Infinite:
    """Positive-infinity top element used for minima over empty sets.

    It participates in comparisons only; any attempt to do arithmetic with
    it raises, which keeps the extended value from leaking into results.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"

    def __eq__(self, other) -> bool:
        return isinstance(other, _Infinite)

    def __hash__(self) -> int:
        return hash("_Infinite")

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return isinstance(other, _Infinite)

    def __gt__(self, other) -> bool:
        return not isinstance(other, _Infinite)

    def __ge__(self, other) -> bool:
        return True


INF = _Infinite()

ExtendedScalar = Fraction | _Infinite


def scale_rows(
    rows: Sequence[Sequence[Fraction]],
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The entries' least common denominator, and each row as integers over it.

    Scaling by a positive constant keeps every order and equality, so the
    integer rows compare exactly as the rational ones do.
    """
    denominator = math.lcm(*[v.denominator for row in rows for v in row])
    # Lists, not generators: a tuple built from a generator is allocated
    # at a guessed size and shrunk, and the shrunk blocks pile up on the
    # interpreter's per-size tuple free lists over a long run.
    return denominator, tuple(
        [tuple([v.numerator * (denominator // v.denominator) for v in row]) for row in rows]
    )


def _check_labels(kind: str, labels: Sequence[str]) -> None:
    if not labels:
        raise ValidationError(f"a game needs at least one {kind}")
    seen = set()
    for label in labels:
        if not isinstance(label, str) or not _LABEL_RE.fullmatch(label):
            raise ValidationError(f"bad {kind} label {label!r}: labels are non-empty tokens without whitespace")
        if label in seen:
            raise ValidationError(f"duplicate {kind} label {label!r}")
        seen.add(label)


@dataclass(frozen=True)
class AgentGame:
    """A finite agent-versus-nature game with a dense utility table.

    ``rows[i][j]`` is the agent's utility for playing ``actions[i]`` when
    nature plays ``states[j]``.  Nature has no payoff of its own.
    """

    type_label: str
    actions: tuple[str, ...]
    states: tuple[str, ...]
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not isinstance(self.type_label, str) or not _LABEL_RE.fullmatch(self.type_label):
            raise ValidationError(f"bad type label {self.type_label!r}")
        _check_labels("action", self.actions)
        _check_labels("state", self.states)
        if len(self.rows) != len(self.actions):
            raise ValidationError(
                f"utility table has {len(self.rows)} rows for {len(self.actions)} actions"
            )
        for row in self.rows:
            if len(row) != len(self.states):
                raise ValidationError(
                    f"utility row of length {len(row)} does not match {len(self.states)} states"
                )
            for v in row:
                if not isinstance(v, Fraction):
                    raise ValidationError(f"utility {v!r} is not an exact rational")

    @cached_property
    def _action_index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.actions)}

    @cached_property
    def _state_index(self) -> dict[str, int]:
        return {s: j for j, s in enumerate(self.states)}

    @cached_property
    def scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """The table's least common denominator and ``rows`` as integers
        over it (see ``scale_rows``), computed once per game."""
        return scale_rows(self.rows)

    def action_index(self, action: str) -> int:
        try:
            return self._action_index[action]
        except KeyError:
            raise UnknownLabelError(f"unknown action {action!r}") from None

    def state_index(self, state: str) -> int:
        try:
            return self._state_index[state]
        except KeyError:
            raise UnknownLabelError(f"unknown state {state!r}") from None

    def utility(self, action: str, state: str) -> Fraction:
        """Exact utility of ``action`` against ``state``."""
        return self.rows[self.action_index(action)][self.state_index(state)]

    def row(self, action: str) -> tuple[Fraction, ...]:
        return self.rows[self.action_index(action)]


@dataclass(frozen=True)
class MixedAction:
    """A probability distribution over action labels.

    Entries are kept sorted by label with zero-probability entries dropped,
    so two equal distributions compare equal regardless of construction
    order.  Probabilities must be non-negative rationals summing to one.
    """

    entries: tuple[tuple[str, Fraction], ...]

    def __post_init__(self):
        total = Fraction(0)
        seen = set()
        for label, p in self.entries:
            if not isinstance(label, str) or not _LABEL_RE.fullmatch(label):
                raise ValidationError(f"bad action label {label!r} in mixed action")
            if label in seen:
                raise ValidationError(f"duplicate action {label!r} in mixed action")
            seen.add(label)
            if not isinstance(p, Fraction):
                raise ValidationError(f"probability {p!r} is not an exact rational")
            if p < 0:
                raise ValidationError(f"negative probability {format_scalar(p)} on {label!r}")
            total += p
        if total != 1:
            raise ValidationError(f"probabilities sum to {format_scalar(total)}, not 1")

    @staticmethod
    def from_mapping(probs: Mapping[str, int | str | Fraction]) -> "MixedAction":
        entries = tuple(
            sorted((label, scalar(p)) for label, p in probs.items() if scalar(p) != 0)
        )
        return MixedAction(entries)

    @staticmethod
    def pure(action: str) -> "MixedAction":
        return MixedAction(((action, Fraction(1)),))


def mixed_utility(game: AgentGame, mixed: MixedAction, state: str) -> Fraction:
    """Expected utility of a mixed action against a fixed nature state."""
    j = game.state_index(state)
    total = Fraction(0)
    for label, p in mixed.entries:
        total += p * game.rows[game.action_index(label)][j]
    return total


def format_game(game: AgentGame) -> str:
    """Serialize a game to the canonical text document."""
    lines = [
        "agentgame v1",
        f"type {game.type_label}",
        "actions " + " ".join(game.actions),
        "states " + " ".join(game.states),
        "utilities",
    ]
    for row in game.rows:
        lines.append(" ".join(map(format_scalar, row)))
    lines.append("end")
    return "\n".join(lines) + "\n"


def _expect_prefix(line: str, prefix: str, lineno: int) -> list[str]:
    parts = line.split(" ")
    if parts[0] != prefix:
        raise ParseError(f"line {lineno}: expected {prefix!r}, got {line!r}")
    return parts[1:]


class _Literals(dict):
    """Each rational literal of one document, parsed the first time it is read."""

    def __missing__(self, text: str) -> Fraction:
        value = self[text] = parse_scalar(text)
        return value


def parse_game(text: str) -> AgentGame:
    """Parse the canonical text document back into a game.

    A document whose header declares more than ``MAX_GAME_CELLS`` cells is
    refused before its rows are read.
    """
    lines = text.splitlines()
    if len(lines) < 5:
        raise ParseError("game document is truncated")
    if lines[0] != "agentgame v1":
        raise ParseError(f"unsupported header {lines[0]!r}")
    type_parts = _expect_prefix(lines[1], "type", 2)
    if len(type_parts) != 1:
        raise ParseError("type line must hold exactly one label")
    actions = _expect_prefix(lines[2], "actions", 3)
    states = _expect_prefix(lines[3], "states", 4)
    check_game_cells("game document", len(actions), len(states))
    if lines[4] != "utilities":
        raise ParseError(f"line 5: expected 'utilities', got {lines[4]!r}")
    body = lines[5:]
    if len(body) != len(actions) + 1 or body[-1] != "end":
        raise ParseError("utilities block must hold one row per action followed by 'end'")
    literals = _Literals()
    rows = []
    for i, line in enumerate(body[:-1]):
        values = line.split(" ")
        if len(values) != len(states):
            raise ParseError(f"utility row {i + 1} has {len(values)} entries for {len(states)} states")
        rows.append(tuple([literals[v] for v in values]))
    return AgentGame(type_parts[0], tuple(actions), tuple(states), tuple(rows))

"""Span tracing by wrapping engine functions on their module attributes.

Each traced function is replaced, in every loaded ``robustgames`` module
whose globals hold it, by a wrapper that records one span per call:
name, start, end, parent span and operation id.  Calls made inside the
engine resolve through module globals, so nested calls are captured.
Spans stay in memory (packed arrays) and are written out at the end.
Self time is a span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import sys
import time
from array import array
from types import ModuleType

# Layer -> traced functions.  ``oracle`` (the correctness reference) and
# ``verification`` (the acceptance gate) are never traced.
TRACED: dict[str, tuple[str, ...]] = {
    "vcg": (
        "winner_determination",
        "run_vcg",
        "utility_against",
        "classify_attack",
        "best_partition_value",
        "overbidding_adversary",
        "underbidding_adversary",
        "claim_family_check",
        "truth_loss_averse_witnesses",
        "verify_exact_bidding_optimal",
    ),
    "concepts": (
        "loss_averse_actions",
        "loss_averse_star_actions",
        "min_max_regret_actions",
        "leximin_actions",
        "multi_leximin_actions",
        "strictly_dominated_actions",
        "weakly_dominant_actions",
        "safety_level_actions",
        "loss_averse_vs",
        "max_regret",
        "concept_verdict",
        "format_verdict",
        "hierarchy_report",
        "mixed_safety_value",
        "mixed_loss_averse_falsify",
    ),
    "core": ("parse_game", "format_game", "mixed_utility"),
    "singleitem": ("dfpa_game",),
    "mechanisms": ("facility_game", "psr_game"),
    "instances": ("random_game",),
    "cli": ("main",),
}


def _wd_space(extra: dict, args: tuple, kwargs: dict) -> None:
    """Assignment space requested: bids ** items in the searched mask."""
    bids = args[0] if args else kwargs["bids"]
    item_count = args[1] if len(args) > 1 else kwargs["item_count"]
    mask = args[2] if len(args) > 2 else kwargs.get("items_mask")
    items = item_count if mask is None else mask.bit_count()
    extra["vcg.winner_determination.space"] += len(bids) ** items


def _family_states(extra: dict, result) -> None:
    extra["vcg.claim_family_check.states"] += result.family_size
    extra["vcg.family.diff_states"] += result.difference_states


def _adversary_tries(extra: dict, result) -> None:
    extra["vcg.adversary.tried"] += len(result.tried)
    extra["vcg.adversary.refuted"] += int(result.refuted)


BEFORE = {"vcg.winner_determination": _wd_space}
AFTER = {
    "vcg.claim_family_check": _family_states,
    "vcg.overbidding_adversary": _adversary_tries,
    "vcg.underbidding_adversary": _adversary_tries,
}


class Tracer:
    """Wraps the traced functions; records spans only while ``active``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.extra: dict[str, int] = {}
        self.active = False
        self.op = -1
        self._stack: list[list[int]] = []
        self._next = 0
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._patched: list[tuple[ModuleType, str, object]] = []

    def _wrap(self, index: int, fn, before, after):
        tracer = self
        clock = time.perf_counter_ns
        stack = self._stack
        calls, self_ns = self.calls, self.self_ns
        ids, parents = self.span_id, self.span_parent
        ops, names = self.span_op, self.span_name
        starts, ends = self.span_start, self.span_end
        extra = self.extra

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(extra, args, kwargs)
            span = tracer._next
            tracer._next = span + 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[index] += 1
                self_ns[index] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                ids.append(span)
                parents.append(parent)
                ops.append(tracer.op)
                names.append(index)
                starts.append(start)
                ends.append(end)
            if after is not None:
                after(extra, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Replace each traced function wherever a loaded engine module holds it."""
        loaded = [m for name, m in sys.modules.items() if name.startswith("robustgames.")]
        for layer, functions in TRACED.items():
            for function in functions:
                name = f"{layer}.{function}"
                original = getattr(modules[layer], function)
                self.names.append(name)
                self.calls.append(0)
                self.self_ns.append(0)
                wrapper = self._wrap(
                    len(self.names) - 1, original, BEFORE.get(name), AFTER.get(name)
                )
                for module in loaded:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
        for key in (
            "vcg.winner_determination.space",
            "vcg.claim_family_check.states",
            "vcg.family.diff_states",
            "vcg.adversary.tried",
            "vcg.adversary.refuted",
        ):
            self.extra[key] = 0

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @property
    def span_count(self) -> int:
        return len(self.span_end)

    def stats(self) -> dict[str, tuple[int, float]]:
        """Per traced function: (calls, self seconds)."""
        return {
            name: (self.calls[i], self.self_ns[i] / 1e9) for i, name in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """Write every span as CSV, times in ns from the first span's start.

        The first line maps name ids to traced function names.
        """
        origin = min(self.span_start, default=0)
        with open(path, "w", encoding="utf-8") as out:
            out.write("# names " + " ".join(f"{i}={n}" for i, n in enumerate(self.names)) + "\n")
            out.write("span,parent,op,name,start_ns,end_ns\n")
            for span, parent, op, name, start, end in zip(
                self.span_id,
                self.span_parent,
                self.span_op,
                self.span_name,
                self.span_start,
                self.span_end,
            ):
                out.write(f"{span},{parent},{op},{name},{start - origin},{end - origin}\n")

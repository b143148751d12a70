"""Closed-loop harness shared by every workload.

One process, one thread, one caller: each operation starts only after
the previous one returned.  A *pass* runs every operation of the
workload once, in a fixed order, so every pass does the same work.  A
run makes passes until their time is nearest the requested seconds, at
least one, and reports each timing metric's median over its passes.
Times are scaled to a fixed host speed (``HostSpeed``).  Every pass
starts cold: before it, outside the timed region, the engine is imported
afresh and the inputs are built again, so no state of an earlier pass (a
cache, a memo keyed by value or by id) is reachable from it.  Between operations, outside the timed region, the
workload's correctness gate checks the result (the full check on the
first pass, equality with the first pass's result on later ones).
Operations that raise or fail the gate count as failed.
"""
from __future__ import annotations

import gc
import hashlib
import importlib
import math
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

ENGINE_MODULES = (
    "core",
    "concepts",
    "singleitem",
    "mechanisms",
    "vcg",
    "cli",
    "instances",
    "oracle",
)

SETUP_REPEATS = 9

# Tail percentiles tried from the top; the first with at least ten
# operations beyond it is the workload's tail.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def import_engine() -> SimpleNamespace:
    """Import the engine afresh, so nothing of an earlier import is reachable."""
    for name in [n for n in sys.modules if n == "robustgames" or n.startswith("robustgames.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{name: importlib.import_module(f"robustgames.{name}") for name in ENGINE_MODULES}
    )


class HostSpeed:
    """Scales measured times to a fixed host speed.

    The host is shared and its speed drifts: a fixed task ran up to twice
    as slow from one moment to the next, in phases of milliseconds to a
    minute, the same to wall and CPU clocks, so whole runs of the same
    code differed by 20-30%.  While it is active (a ``with`` block), an
    interval timer times a fixed probe every ``INTERVAL`` seconds: pure-
    Python rational arithmetic, like the engine's own work.  A timed span
    loses the time of the probes that ran inside it, and is divided by the
    mean of those probes and of the last probe before it and the first
    after it, then multiplied by ``REFERENCE_S``.  The reported times are
    thus those of a host on which the probe takes ``REFERENCE_S`` (about
    its median on a shared 2-vCPU Intel Xeon KVM guest).
    A faster engine takes less time against the same probe, so it reads
    faster; the probe is the benchmark's own and no engine change moves it.
    """

    INTERVAL = 0.02
    REFERENCE_S = 0.0005

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None
        self.sample()

    @staticmethod
    def _probe() -> None:
        total = Fraction(0)
        seen = {}
        for i in range(1, 60):
            term = Fraction(i, 7) * Fraction(3, i + 1)
            total += term
            seen[(i, term)] = total > term

    def sample(self, *_signal) -> None:
        """Time the probe now."""
        start = time.perf_counter()
        self._probe()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _now(self) -> tuple[int, float, float]:
        """The probe count, the probe seconds so far and the clock, read
        with no probe between them."""
        while True:
            count, spent = len(self.samples), self.spent
            now = time.perf_counter()
            if len(self.samples) == count:
                return count, spent, now

    def start(self) -> tuple[int, float, float]:
        return self._now()

    def stop(self, started: tuple[int, float, float]) -> tuple[int, int, float]:
        """The span since ``started``: its first and last probe and its
        seconds without the probes inside it."""
        first, spent_before, start = started
        last, spent_after, end = self._now()
        return first - 1, last - 1, end - start - (spent_after - spent_before)

    def scale(self, span: tuple[int, int, float]) -> float:
        """A span's seconds at the reference speed; needs a probe after it."""
        first, last, took = span
        probes = self.samples[first:last + 2]
        return took * self.REFERENCE_S * len(probes) / sum(probes)

    def median_factor(self) -> float:
        """How much slower than the reference the host ran, in the median."""
        return statistics.median(self.samples) / self.REFERENCE_S


def set_up(workload, seed: int, workdir: str):
    """Import the engine afresh and build the inputs; return both."""
    mods = import_engine()
    return mods, workload.setup(mods, seed, workdir)


def setup_seconds(workload, seed: int, workdir: str, speed: HostSpeed) -> float:
    """Median of ``SETUP_REPEATS`` set-up times, at the reference speed."""
    spans = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # earlier engine copies, untimed
        started = speed.start()
        set_up(workload, seed, workdir)
        spans.append(speed.stop(started))
    speed.sample()
    return statistics.median(speed.scale(span) for span in spans)


class Gate:
    """Digest and correctness bookkeeping for one workload run.

    With a ``reference`` (the per-operation digests of an earlier run on
    the same seed) the first pass is compared against it instead of being
    checked in full.
    """

    def __init__(self, workload, reference: list[bytes] | None = None) -> None:
        self.workload = workload
        self.reference = reference
        self.op_digests: list[bytes] = []
        self.digest = hashlib.sha256()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counts: dict[str, int] = {}

    def observe(self, mods, inputs, pass_no: int, index: int, op, result,
                error: Exception | None) -> None:
        self.attempted += 1
        full = pass_no == 0 and self.reference is None
        if error is not None:
            fingerprint = f"raised {type(error).__name__}: {error}"
            failure = f"op {index} {fingerprint}"
        else:
            try:
                fingerprint, failure = self.workload.check(
                    mods, inputs, index, op, result, self.counts if full else None
                )
            except Exception as exc:  # noqa: BLE001 - a result the gate cannot read fails
                fingerprint = f"check raised {type(exc).__name__}: {exc}"
                failure = f"op {index} {fingerprint}"
        op_digest = hashlib.sha256(fingerprint.encode()).digest()
        if pass_no == 0:
            self.op_digests.append(op_digest)
            self.digest.update(op_digest)
            if self.reference is not None and op_digest != self.reference[index]:
                failure = failure or f"op {index} result differs from the reference run"
        elif op_digest != self.op_digests[index]:
            failure = failure or f"op {index} result differs from the first pass"
        if failure:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(failure)


def run_passes(workload, prepare, gate: Gate, speed: HostSpeed, seconds: float,
               tracer=None):
    """Run whole passes and return each pass's per-operation latencies at
    the reference speed, the wall seconds of each pass, and the inputs of
    the last pass.

    ``prepare()`` returns a fresh ``(mods, inputs)`` before each pass.
    Runs passes until their wall time is nearest ``seconds``, assuming the
    next pass would take as long as the last, and at least one.
    """
    run = workload.run
    timings: list[list[float]] = []
    walls: list[float] = []
    while True:
        mods = inputs = op = result = error = None
        gc.collect()  # earlier engine copies, untimed
        mods, inputs = prepare()
        spans = []
        for index, op in enumerate(inputs.ops):
            if tracer is not None:
                tracer.op = index
                tracer.active = True
            error = None
            result = None
            started = speed.start()
            try:
                result = run(mods, inputs, op)
            except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
                error = exc
            spans.append(speed.stop(started))
            if tracer is not None:
                tracer.active = False
            gate.observe(mods, inputs, len(timings), index, op, result, error)
        speed.sample()
        walls.append(sum(span[2] for span in spans))
        timings.append([speed.scale(span) for span in spans])
        if sum(walls) + walls[-1] / 2 > seconds:
            break
    return timings, walls, inputs


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ten of ``samples`` beyond it."""
    for p in TAIL_LADDER:
        if samples - math.ceil(p / 100 * samples) >= TAIL_MIN_BEYOND:
            return p
    return TAIL_LADDER[-1]


def nearest_rank(sorted_values: list[float], p: float) -> float:
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def pass_metrics(latencies: list[float]) -> dict:
    """Timing metrics of one pass: operations per second over the pass,
    the median and the tail latency."""
    ordered = sorted(latencies)
    return {
        "ops_per_s": len(ordered) / sum(ordered),
        "latency_p50_ms": statistics.median(ordered) * 1e3,
        "latency_tail_ms": nearest_rank(ordered, tail_percentile(len(ordered))) * 1e3,
    }


def timing_metrics(timings: list[list[float]]) -> dict:
    """Each timing metric's median over the passes."""
    per_pass = [pass_metrics(latencies) for latencies in timings]
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

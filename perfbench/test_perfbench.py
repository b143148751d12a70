"""The benchmark's own tests: python3 -m pytest perfbench/test_perfbench.py"""
from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import harness
import run
import sybil_lattice

HERE = Path(__file__).resolve().parent

# The lattice part's tally at the seed commit of the benchmark; a change
# that does the same work must reproduce it exactly.
LATTICE_TALLY = {
    "overbidding-punished": 9956,
    "overbidding-dominated": 6,
    "overbidding-equivalent": 5,
    "underbidding-refuted": 770,
    "underbidding-equivalent": 18,
    "exact-case-1": 15,
    "exact-case-2": 120,
    "exact-family": 72,
}


def _run(*args: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    return done.stdout.splitlines()


def test_lattice_tally_and_certificates():
    mods = harness.import_engine()
    inputs = sybil_lattice.setup(mods, 0, "")
    counts: dict[str, int] = {}
    for index, op in enumerate(inputs.ops):
        if op[0] != "lattice":
            continue
        result = sybil_lattice.run(mods, inputs, op)
        _, failure = sybil_lattice.check(mods, inputs, index, op, result, counts)
        assert failure is None
    tally = {k.removeprefix("lattice."): v for k, v in counts.items()}
    assert tally == LATTICE_TALLY
    assert sum(tally.values()) == 10962


def test_host_speed_scales_a_span_by_the_probes_around_and_inside_it():
    speed = harness.HostSpeed()
    speed.samples = [0.001, 0.003, 0.0005, 0.002]
    reference = harness.HostSpeed.REFERENCE_S
    assert speed.scale((0, 0, 0.2)) == pytest.approx(0.2 * reference / 0.002)
    assert speed.scale((1, 2, 0.2)) == pytest.approx(0.2 * reference * 3 / 0.0055)


def test_probes_inside_a_span_are_not_counted_in_it():
    with harness.HostSpeed() as speed:
        started = speed.start()
        begin = time.perf_counter()
        while time.perf_counter() - begin < 0.2:
            pass
        elapsed = time.perf_counter() - begin
        first, last, took = speed.stop(started)
    assert last - first >= 5
    assert took == pytest.approx(elapsed - sum(speed.samples[first + 1:last + 1]), abs=1e-4)


def test_timing_metrics_are_medians_over_passes():
    passes = [[0.001] * 30, [0.002] * 30, [0.004] * 30]
    metrics = harness.timing_metrics(passes)
    assert metrics["ops_per_s"] == pytest.approx(500.0)
    assert metrics["latency_p50_ms"] == pytest.approx(2.0)
    assert metrics["latency_tail_ms"] == pytest.approx(2.0)


def test_digest_repeats_and_tracing_changes_no_result():
    args = ("--workload", "mixed-safety", "--seed", "7", "--seconds", "1")
    first = _run(*args)
    second = _run(*args)
    traced = _run(*args, "--trace", "1")
    digest = [line for line in first if line.startswith("digest ")]
    assert digest and digest == [line for line in second if line.startswith("digest ")]
    assert f"traced {digest[0]}" in traced
    for lines in (first, second, traced):
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0
    assert set(json.loads(traced[-1])["metrics"]) == set(run.PER_LAYER)

"""Benchmark of the robustgames engine, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload sybil-lattice --seed 0 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced pass and one traced pass on the same seed and prints the
per-layer metrics and the tracing overhead.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.  The engine is
imported from ``src/`` next to this directory; without it the run exits
with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import auction_analyze  # noqa: E402
import harness  # noqa: E402
import mixed_safety  # noqa: E402
import small_games  # noqa: E402
import sybil_lattice  # noqa: E402
from tracing import TRACED, Tracer  # noqa: E402

WORKLOADS = {w.NAME: w for w in (sybil_lattice, auction_analyze, small_games, mixed_safety)}
OUT_DIR = HERE / "out"

# Metric names and units, in the order BENCHMARK.json lists them.  With
# ``--trace 1`` the run reports the per-layer list; ``.calls`` and the work
# counts repeat exactly for a seed.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def _print_gate(workload, gate, inputs) -> None:
    rate = _ratio(gate.failed, gate.attempted)
    print(f"error_rate = {rate} ratio ({gate.failed} failed / {gate.attempted} attempted)")
    for failure in gate.failures:
        print(f"failure: {failure}")
    for line in workload.work_lines(inputs, gate.counts):
        print(f"work {line}")
    print(f"digest sha256:{gate.digest.hexdigest()}")


def measure(workload, seed: int, seconds: float, workdir: str) -> int:
    gate = harness.Gate(workload)
    with harness.HostSpeed() as speed:
        setup_s = harness.setup_seconds(workload, seed, workdir, speed)
        timings, walls, inputs = harness.run_passes(
            workload, lambda: harness.set_up(workload, seed, workdir), gate, speed, seconds
        )
    timing = harness.timing_metrics(timings)
    values = dict(timing, setup_s=setup_s, peak_rss_mib=harness.peak_rss_mib())
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    passes = len(timings)
    ops = len(inputs.ops)
    print(f"workload {workload.NAME} seed {seed} passes {passes} ops {gate.attempted}")
    print("pass_wall_s " + " ".join(f"{wall:.3f}" for wall in walls)
          + f" host_slowdown_median {speed.median_factor():.3f} probes {len(speed.samples)}")
    notes = {
        "setup_s": f"median of {harness.SETUP_REPEATS} set-ups",
        "ops_per_s": f"median of {passes} passes",
        "latency_p50_ms": f"median of {passes} passes of {ops} operations",
        "latency_tail_ms": f"p{harness.tail_percentile(ops)} of {ops} operations, "
        f"median of {passes} passes",
    }
    for name, (value, unit) in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name} = {value} {unit}{note}")
    print(f"work ops_per_pass={ops} core.game_cells={inputs.cells} "
          f"vcg.winner_determination.space=(traced run)")
    _print_gate(workload, gate, inputs)
    _emit(gate.failed == 0, gate.attempted, gate.failed, metrics)
    return 0


def trace(workload, seed: int, workdir: str) -> int:
    # No probe timer here: it would run inside the traced spans.  The two
    # passes run back to back and are compared unscaled.
    speed = harness.HostSpeed()
    gate = harness.Gate(workload)
    _, (untraced_s,), _ = harness.run_passes(
        workload, lambda: harness.set_up(workload, seed, workdir), gate, speed, 0
    )

    # A fresh import, so the traced pass starts from the same engine state;
    # the set-up is traced too.
    tracer = Tracer()

    def prepare_traced():
        mods = harness.import_engine()
        tracer.install(vars(mods))
        tracer.active = True
        inputs = workload.setup(mods, seed, workdir)
        tracer.active = False
        return mods, inputs

    traced_gate = harness.Gate(workload, reference=gate.op_digests)
    _, (traced_s,), inputs = harness.run_passes(
        workload, prepare_traced, traced_gate, speed, 0, tracer=tracer
    )
    tracer.uninstall()
    spans_path = OUT_DIR / f"trace-{workload.NAME}-seed{seed}.csv"
    tracer.write(str(spans_path))

    stats = tracer.stats()
    values: dict[str, float] = dict(tracer.extra)
    for name, (calls, self_s) in stats.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    for layer in TRACED:
        values[f"{layer}.self_s"] = sum(s for n, (_, s) in stats.items() if n.startswith(layer + "."))
    extra = tracer.extra
    values["vcg.wd_per_run"] = _ratio(
        values["vcg.winner_determination.calls"], values["vcg.run_vcg.calls"]
    )
    values["vcg.adversary.tried_per_refuted"] = _ratio(
        extra["vcg.adversary.tried"], extra["vcg.adversary.refuted"]
    )
    values["vcg.family.diff_share"] = _ratio(
        extra["vcg.family.diff_states"], extra["vcg.claim_family_check.states"]
    )
    values["core.game_cells"] = inputs.cells
    values["work.ops_per_pass"] = len(inputs.ops)
    values["trace.overhead"] = traced_s / untraced_s - 1
    values["trace.spans"] = tracer.span_count
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}

    print(f"workload {workload.NAME} seed {seed} traced one set-up and one pass")
    print(f"untraced_pass_s = {untraced_s} s")
    print(f"traced_pass_s = {traced_s} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(f"spans written to {spans_path.relative_to(HERE.parent)}")
    _print_gate(workload, gate, inputs)
    print(f"traced digest sha256:{traced_gate.digest.hexdigest()}")
    failed = gate.failed + traced_gate.failed
    _emit(failed == 0, gate.attempted + traced_gate.attempted, failed, metrics)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        harness.import_engine()
    except ImportError as error:
        print(f"error: cannot import the engine from src/: {error}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.NAME}-", dir=OUT_DIR)
    try:
        if args.trace:
            return trace(workload, args.seed, workdir)
        return measure(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: one workload per call, or all four in turn.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 20 --trace 0

prints each end-to-end metric with its unit and sample count, then, as
the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 1`` measures half the time
untraced and half traced, and reports the per-layer metrics and
``trace.overhead`` instead.  See ``perfbench/README.md``.

Run it from the repository root; the program under test is imported
from ``src/``.  The exit status is 0 only when every output check
passed.
"""

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

from hostspeed import REFERENCE_MS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("fleet", "filter", "stream", "ingest")

#: Cold starts timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5

#: Calibration chunks run before and after each cold start.
PROBE_CHUNKS = 20

#: Fewest ops per second of measuring each workload makes on a slow
#: host; the op-tail percentile is chosen from it, so it stays the same
#: from run to run.
OPS_PER_S_FLOOR = {"fleet": 30, "filter": 200, "stream": 10}

#: Throughput unit of each workload.
UNITS = {"fleet": "executed actions", "filter": "executed actions",
         "stream": "device-rounds", "ingest": "acks"}

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"), ("op_p50_ms", "ms"),
)

PER_LAYER = (
    ("sim.session.busy_s", "s"), ("sim.actions", "count"),
    ("sim.counter_events", "count"),
    ("sim.action.calls", "count"), ("sim.action.busy_s", "s"),
    ("sim.pmu.calls", "count"), ("sim.pmu.busy_s", "s"),
    ("analysis.busy_s", "s"),
    ("detectors.run.busy_s", "s"), ("detectors.counter_reads", "count"),
    ("detectors.trace_samples", "count"), ("detectors.analyses", "count"),
    ("detectors.read_failures", "count"),
    ("detectors.offline.busy_s", "s"),
    ("apps.corpus.busy_s", "s"), ("harness.self_s", "s"),
    ("sched.map.calls", "count"), ("sched.map.busy_s", "s"),
    ("sched.dispatch_rounds", "count"), ("sched.steals", "count"),
    ("sched.reshards", "count"), ("parallel.pools_created", "count"),
    ("parallel.worker_cpu_s", "s"), ("parallel.worker_util", "ratio"),
    ("parallel.payload_bytes", "B"),
    ("crowd.knowledge.busy_s", "s"), ("crowd.publish.busy_s", "s"),
    ("crowd.ingest.calls", "count"), ("crowd.ingest.busy_s", "s"),
    ("serve.gen.late_p50_ms", "ms"), ("serve.gen.late_max_ms", "ms"),
    ("serve.gen.backlog_max", "count"), ("serve.client.attempts", "count"),
    ("serve.client.retries", "count"), ("serve.client.shed", "count"),
    ("serve.ingested", "count"), ("serve.duplicates", "count"),
    ("serve.publishes", "count"), ("serve.write_failures", "count"),
    ("serve.handler_p50_ms", "ms"), ("serve.wait_ms", "ms"),
    ("serve.sustained_rate_per_s", "1/s"),
    ("op.tail_ms", "ms"), ("trace.overhead", "ratio"),
    ("host.calib_ms", "ms"),
)


def probe(workload, seed):
    """Child side of a set-up probe: time the workload's set-up
    (importing its modules, building its inputs) between calibration
    chunks, and print the raw and host-normalised seconds as JSON."""
    import ingest
    import workloads
    from hostspeed import HostSpeed

    speed = HostSpeed()
    for _ in range(PROBE_CHUNKS):
        speed.chunk()
    started = time.perf_counter()
    if workload == "ingest":
        ingest.probe_ingest(OUT / f"setup-seed{seed}")
    else:
        getattr(workloads, f"probe_{workload}")(seed)
    elapsed = time.perf_counter() - started
    for _ in range(PROBE_CHUNKS):
        speed.chunk()
    print(json.dumps({"raw_s": elapsed, "setup_s": elapsed / speed.factor()}))


def setup_seconds(workload, seed):
    """Median set-up time over ``SETUP_PROBES`` fresh processes (an
    interpreter with NumPy loaded), each timed inside the process and
    host-normalised by calibration chunks run just before and after.
    Returns (normalised median, raw median)."""
    state = None
    if workload == "ingest":
        import ingest

        state = ingest.setup_state(OUT, seed)
    times = []
    raw = []
    try:
        for _ in range(SETUP_PROBES):
            child = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--probe", workload,
                 "--seed", str(seed)],
                cwd=str(ROOT), check=True, timeout=120, capture_output=True,
                text=True,
            )
            record = json.loads(child.stdout.strip().splitlines()[-1])
            raw.append(record["raw_s"])
            times.append(record["setup_s"])
    finally:
        if state is not None:
            shutil.rmtree(state, ignore_errors=True)
    return statistics.median(times), statistics.median(raw)


def measure(workload, seed, seconds, traced):
    """One timed loop of *workload*."""
    if workload == "ingest":
        import ingest

        return ingest.measure_ingest(seed, seconds, traced, ROOT, OUT)
    import workloads

    return getattr(workloads, f"measure_{workload}")(seed, seconds, traced)


def op_tail(workload, seconds, ops, attempted):
    """The op tail of one loop's *ops*: ``(ms, percentile, samples
    beyond)``, the percentile chosen from the fewest ops such a loop
    makes (for ingest, the fixed number of uploads *attempted*)."""
    from stats import tail

    if workload == "ingest":
        min_ops = attempted
    else:
        min_ops = int(OPS_PER_S_FLOOR[workload] * seconds)
    return tail(ops, min_ops)


def end_to_end(workload, seed, seconds):
    """Untraced run: returns (metrics, units, measurement, lines)."""
    setup_s, setup_raw_s = setup_seconds(workload, seed)
    main = measure(workload, seed, seconds, False)
    ops = main.op_ms
    tail_ms, tail_pct, tail_beyond = op_tail(workload, seconds, ops,
                                             main.attempted)
    passes = len(main.pass_s)
    values = {
        "setup_s": (setup_s, SETUP_PROBES),
        "wall_s": (statistics.median(main.pass_s), passes),
        "throughput_per_s": (statistics.median(
            units / wall for units, wall in
            zip(main.pass_units, main.pass_s)), passes),
        "peak_rss_mb": (main.peak_rss_mb, 1),
        "op_p50_ms": (statistics.median(ops), len(ops)),
    }
    detail = {
        "throughput_unit": f"{UNITS[workload]} per second",
        "op_tail_ms": tail_ms,
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": tail_beyond,
        "passes": passes,
        "units_per_pass": main.pass_units,
        "host_factor_per_pass": main.factors,
        "raw": {
            "setup_s": setup_raw_s,
            "wall_s": statistics.median(main.pass_raw_s),
            "op_p50_ms": statistics.median(main.op_raw_ms),
            "op_tail_ms": op_tail(workload, seconds, main.op_raw_ms,
                                  main.attempted)[0],
        },
    }
    lines = [f"{workload}: seed {seed}, {seconds:g} s, host.calib_ms "
             f"{statistics.mean(main.factors) * REFERENCE_MS:.3f} "
             f"(times below are host-normalised)"]
    for name, unit in END_TO_END:
        value, samples = values[name]
        lines.append(f"  {name:<18} {value:>12.4f} {unit:<5} n={samples}")
    lines.append(f"  op tail {tail_ms:.4f} ms at p{tail_pct:g} ({tail_beyond} "
                 f"samples beyond; per-layer op.tail_ms in --trace 1)")
    lines.append("detail " + json.dumps(detail, sort_keys=True))
    metrics = {name: values[name][0] for name, _ in END_TO_END}
    return metrics, dict(END_TO_END), main, lines


def per_layer(workload, seed, seconds):
    """Traced run: half of *seconds* untraced, half traced; returns
    (metrics, units, measurement, lines)."""
    half = seconds / 2.0
    plain = measure(workload, seed, half, False)
    main = measure(workload, seed, half, True)
    layers = dict(main.layers)
    layers["trace.overhead"] = (
        statistics.median(main.pass_s) / statistics.median(plain.pass_s)
        - 1.0
    )
    layers["host.calib_ms"] = statistics.mean(main.factors) * REFERENCE_MS
    layers["op.tail_ms"] = op_tail(workload, half, plain.op_ms,
                                   plain.attempted)[0]
    ladder = None
    if workload == "ingest":
        import ingest

        rate, ladder = ingest.sustained_rate(seed, ROOT, OUT, main.attempted)
        layers["serve.sustained_rate_per_s"] = rate
    spans_path = OUT / f"{workload}-seed{seed}-spans.jsonl"
    main.tracer.write(spans_path)
    metrics = {name: float(layers.get(name, 0.0)) for name, _ in PER_LAYER}
    units = dict(PER_LAYER)
    table_path = OUT / f"{workload}-seed{seed}-layers.json"
    table_path.write_text(json.dumps({
        "workload": workload, "seed": seed, "seconds": seconds,
        "per_pass": {name: {"value": metrics[name], "unit": units[name]}
                     for name in metrics},
        "ladder": ladder,
    }, indent=2) + "\n")
    lines = [f"spans: {spans_path.relative_to(ROOT)}",
             f"{workload} per-layer (per pass, traced half of {seconds:g} "
             f"s): {table_path.relative_to(ROOT)}"]
    for name, unit in PER_LAYER:
        if name in layers:
            lines.append(f"  {name:<28} {metrics[name]:>14.6f} {unit}")
    for row in ladder or ():
        lines.append("  ladder " + json.dumps(row, sort_keys=True))
    main.attempted += plain.attempted
    main.failed += plain.failed
    main.errors = plain.errors + main.errors
    return metrics, units, main, lines


def run_workload(workload, seed, seconds, traced):
    """Measure one workload; returns (result dict, printable lines)."""
    OUT.mkdir(exist_ok=True)
    report = per_layer if traced else end_to_end
    metrics, units, main, lines = report(workload, seed, seconds)
    for error in main.errors:
        lines.append(f"CHECK FAILED: {error}")
    result = {
        "correct": not main.errors,
        "attempted": max(1, int(main.attempted)),
        "failed": int(main.failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in metrics
        },
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing (run from a full checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.probe:
        probe(args.probe, args.seed)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        # Each workload in a fresh process, one after another, so
        # peak RSS and imports belong to that workload alone.
        status = 0
        for workload in WORKLOADS:
            status |= subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(args.seed), "--seconds",
                 f"{args.seconds:g}", "--trace", str(args.trace)],
                cwd=str(ROOT), check=False,
            ).returncode
        return status

    result, lines = run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""The in-process workloads: fleet, filter and stream.

Each ``measure_*`` function runs its workload's passes until the time
budget is spent and returns a :class:`Measurement`.  A pass is a fixed
amount of work made from the benchmark seed; an op is the workload's
unit of work, timed where the harness calls into its dominant layer.
Output checks are made on every pass; the checks that need extra work
run after the timed loop.
"""

import pickle
import resource
import statistics
import time
from dataclasses import dataclass, field

from tracing import Tracer

#: Paper-claim verdict no checked claim may read.
DEVIATES = "deviates"

#: Stream shape: the dispatch-bound configuration (two devices, two
#: apps, twelve actions per round, no churn) at two workers.
STREAM_ROUNDS = 30
STREAM_FLEET = 2
STREAM_ACTIONS = 12
STREAM_WORKERS = 2


@dataclass
class Measurement:
    """What one timed loop produced.  Times are host-normalised (see
    :mod:`hostspeed`); the ``raw`` lists hold them as read."""

    #: Seconds of each pass, calibration chunks excluded, normalised.
    pass_s: list = field(default_factory=list)
    pass_raw_s: list = field(default_factory=list)
    #: Host-speed factor of each pass (above 1 on a slow host).
    factors: list = field(default_factory=list)
    #: Work units (the throughput unit) of each pass.
    pass_units: list = field(default_factory=list)
    #: Latency of every op in ms, normalised by the host-speed factor
    #: around it.
    op_ms: list = field(default_factory=list)
    op_raw_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    #: Per-layer values, per pass (traced runs only).
    layers: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    tracer: Tracer = None


def device():
    """The device every workload runs on: the CLI default, LG V10."""
    from repro.sim.device import LG_V10

    return LG_V10


def pass_seed(seed, index):
    """Seed of pass *index* in a run with benchmark seed *seed*."""
    return seed * 1000 + index


def self_rss_mb():
    """Peak resident set of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_cpu_s():
    """CPU seconds of reaped child processes so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _timed_passes(tracer, seconds, run_pass, measurement):
    """Call ``run_pass(index)`` at least twice, and again while the
    typical pass still fits in *seconds*; it returns the pass's work
    units."""
    speed = tracer.speed
    deadline = time.perf_counter() + seconds
    index = 0
    while index < 2 or (time.perf_counter() + statistics.median(
            measurement.pass_raw_s) <= deadline):
        ops_before = len(tracer.op_ms)
        speed.reset()
        started = time.perf_counter()
        with tracer.region("harness"):
            units = run_pass(index)
        raw_s = time.perf_counter() - started
        chunk_s = sum(speed.chunk_ms) / 1000.0
        factor = speed.factor()
        measurement.pass_raw_s.append(raw_s)
        measurement.factors.append(factor)
        measurement.pass_s.append((raw_s - chunk_s) / factor)
        measurement.pass_units.append(units)
        ops = tracer.op_ms[ops_before:]
        measurement.op_raw_ms.extend(ops)
        measurement.op_ms.extend(
            value / local for value, local in
            zip(ops, speed.local_factors(tracer.op_at[ops_before:])))
        measurement.attempted += len(ops)
        if index == 0:
            tracer.first_calls = tracer.calls()
            tracer.first_counts = dict(tracer.counts)
        index += 1
    measurement.peak_rss_mb = self_rss_mb()


def _claims_hold(claims, measured, label, measurement, ops):
    """Record an error for every claim that reads ``deviates``."""
    from repro.harness.paper import PAPER_CLAIMS

    bad = [
        f"{key}={value:.3f}" for key, value in measured.items()
        if key in claims and PAPER_CLAIMS[key].verdict(value) == DEVIATES
    ]
    if bad:
        measurement.errors.append(f"{label}: deviates: {', '.join(bad)}")
        measurement.failed += ops


def _layer_table(measurement, extra=()):
    """Per-layer values of a traced loop: exclusive seconds of every
    span name per pass, host-normalised like the passes; call counts
    and counters of the first pass, whose inputs are the same in every
    run with this seed, so the counts repeat exactly."""
    tracer = measurement.tracer
    scale = len(measurement.pass_s) * statistics.mean(measurement.factors)
    layers = {}
    for name, busy in tracer.layer_times().items():
        key = "harness.self_s" if name == "harness" else f"{name}.busy_s"
        layers[key] = busy / scale
    for name, calls in tracer.first_calls.items():
        layers[f"{name}.calls"] = float(calls)
    layers.update(tracer.first_counts)
    layers.update(extra)
    return layers


# ---------------------------------------------------------------- fleet


def measure_fleet(seed, seconds, traced):
    """``repro fleet`` defaults through ``table5`` at ``workers=1``:
    114 apps x 4 users x 60 actions.  Pass *k* runs the study at seed
    ``pass_seed(seed, k)``; an op is one ``run_session`` call and the
    throughput unit is one executed action."""
    from repro.apps.corpus import FLEET_SIZE
    from repro.harness import exp_fleet
    from repro.sim.counters import ALL_EVENTS

    tracer = Tracer(traced)
    measurement = Measurement(tracer=tracer)
    engines = []

    def engine_built(engine):
        events = engine.counter_model.events
        engines.append(len(ALL_EVENTS) if events is None else len(events))

    def detector_cost(run, _args):
        cost = run.cost
        tracer.count("detectors.counter_reads", cost.counter_reads)
        tracer.count("detectors.trace_samples", cost.trace_samples)
        tracer.count("detectors.analyses", cost.analyses)
        tracer.count("detectors.read_failures", cost.counter_read_failures)

    tracer.patch_class(
        exp_fleet, "ExecutionEngine",
        {"run_session": lambda fn: tracer.op(fn, "sim.session", len)},
        init=engine_built if traced else None,
    )
    if traced:
        tracer.patch(exp_fleet, "run_detector", tracer.span(
            exp_fleet.run_detector, "detectors.run", after=detector_cost))
        tracer.patch_class(exp_fleet, "OfflineScanner", {
            "detected_sites": lambda fn: tracer.span(fn, "detectors.offline"),
        })
        tracer.patch(exp_fleet, "build_corpus", tracer.span(
            exp_fleet.build_corpus, "apps.corpus"))

    profile = device()

    def run_pass(index):
        units_before = tracer.op_units
        ops_before = len(tracer.op_ms)
        result = exp_fleet.table5(profile, seed=pass_seed(seed, index),
                                  workers=1)
        ops = len(tracer.op_ms) - ops_before
        label = f"fleet pass {index}"
        if result.apps_tested != FLEET_SIZE:
            measurement.errors.append(
                f"{label}: {result.apps_tested} apps tested, "
                f"want {FLEET_SIZE}")
            measurement.failed += ops
        _claims_hold(("t5_bugs", "t5_missed_offline_pct"), {
            "t5_bugs": result.total_detected,
            "t5_missed_offline_pct": result.missed_offline_percent,
        }, label, measurement, ops)
        return tracer.op_units - units_before

    try:
        _timed_passes(tracer, seconds, run_pass, measurement)
    finally:
        tracer.restore()
    if traced:
        measurement.layers = _layer_table(measurement, {
            "sim.actions": float(measurement.pass_units[0]),
            "sim.counter_events": statistics.mean(engines),
        })
    return measurement


def probe_fleet(seed):
    """Cold-start set-up of the fleet workload."""
    from repro.apps.corpus import build_corpus
    from repro.apps.sessions import SessionGenerator
    from repro.harness import exp_fleet  # noqa: F401

    build_corpus(seed=pass_seed(seed, 0))
    SessionGenerator(seed=pass_seed(seed, 0))


# --------------------------------------------------------------- filter


def measure_filter(seed, seconds, traced):
    """``exp_filter.table3``, ``table4`` and ``figure4``: the engine in
    full 46-event mode, one ``run_action`` per labelled sample, plus
    the PMU sampler and ``repro.analysis``.  Pass *k* runs the three at
    seed ``pass_seed(seed, k)``; an op is one ``run_action`` call and
    the throughput unit is one executed action."""
    from repro.harness import exp_filter, training
    from repro.sim.counters import ALL_EVENTS

    tracer = Tracer(traced)
    measurement = Measurement(tracer=tracer)
    engines = []

    def engine_built(engine):
        events = engine.counter_model.events
        engines.append(len(ALL_EVENTS) if events is None else len(events))

    tracer.patch_class(
        exp_filter, "ExecutionEngine",
        {"run_action": lambda fn: tracer.op(fn, "sim.action", lambda _: 1)},
        init=engine_built if traced else None,
    )
    if traced:
        def pmu(fn):
            return tracer.span(fn, "sim.pmu")

        tracer.patch_class(training, "PmuSampler",
                           {"read": pmu, "read_difference": pmu})
        tracer.patch(training, "collect_samples", tracer.span(
            training.collect_samples, "analysis"))
        for name in ("correlate", "ranked_events", "sensitivity_analysis",
                     "fit_filter"):
            tracer.patch(exp_filter, name,
                         tracer.span(getattr(exp_filter, name), "analysis"))

    profile = device()

    def run_pass(index):
        units_before = tracer.op_units
        ops_before = len(tracer.op_ms)
        pass_ = pass_seed(seed, index)
        t3 = exp_filter.table3(profile, seed=pass_)
        t4 = exp_filter.table4(profile, seed=pass_)
        f4 = exp_filter.figure4(profile, seed=pass_)
        ops = len(tracer.op_ms) - ops_before
        label = f"filter pass {index}"
        _claims_hold(
            ("t3_top_corr", "t3_diff_gain_pct", "fig4_recall",
             "fig4_prune", "fig4_accuracy"), {
                "t3_top_corr": t3.diff_ranking[0][1],
                "t3_diff_gain_pct": t3.improvement_percent(),
                "fig4_recall": f4.recall,
                "fig4_prune": f4.prune_rate,
                "fig4_accuracy": f4.accuracy,
            }, label, measurement, ops)
        sizes = {len(ranking) for ranking in t4.rankings.values()}
        if len(t4.rankings) != 3 or sizes != {len(ALL_EVENTS)}:
            measurement.errors.append(
                f"{label}: table4 ranked {sorted(sizes)} events over "
                f"{len(t4.rankings)} subsets")
            measurement.failed += ops
        return tracer.op_units - units_before

    try:
        _timed_passes(tracer, seconds, run_pass, measurement)
    finally:
        tracer.restore()
    if traced:
        measurement.layers = _layer_table(measurement, {
            "sim.actions": float(measurement.pass_units[0]),
            "sim.counter_events": statistics.mean(engines),
        })
    return measurement


def probe_filter(seed):
    """Cold-start set-up of the filter workload."""
    from repro.harness import exp_filter  # noqa: F401
    from repro.harness.training import training_bug_cases, training_ui_cases

    del seed  # the training set is fixed; seeds only drive sampling
    training_bug_cases()
    training_ui_cases()


# --------------------------------------------------------------- stream


def _stream(seed, workers):
    from repro.harness.exp_stream import stream_sweep

    return stream_sweep(
        device(), seed=seed, rounds=STREAM_ROUNDS, fleet_size=STREAM_FLEET,
        actions_per_round=STREAM_ACTIONS, churn_rate=0.0, workers=workers,
    )


def measure_stream(seed, seconds, traced):
    """``stream_sweep`` at two workers: every round dispatches two
    device rounds through ``ElasticScheduler.map``, which builds a new
    process pool each round.  Every pass sweeps the same inputs (seed
    *seed*); an op is one ``map`` call (one round) and the throughput
    unit is one device-round."""
    from repro.crowd import aggregator
    from repro.harness import exp_stream

    tracer = Tracer(traced)
    measurement = Measurement(tracer=tracer)
    schedulers = []
    renders = []

    def map_factory(fn):
        timed = tracer.op(fn, "sched.map", len)
        if not traced:
            return timed

        def wrapper(self, map_fn, items, keys, weights=None):
            # Bytes the pool ships to workers, measured by pickling the
            # payload here; the executor pickles the same objects.
            tracer.count("parallel.payload_bytes",
                         len(pickle.dumps((map_fn, items))))
            return timed(self, map_fn, items, keys, weights=weights)
        return wrapper

    tracer.patch_class(exp_stream, "ElasticScheduler", {"map": map_factory},
                       init=schedulers.append)
    if traced:
        crowd = aggregator.CrowdAggregator
        tracer.patch(crowd, "knowledge",
                     tracer.span(crowd.knowledge, "crowd.knowledge"))
        tracer.patch(crowd, "publish_database",
                     tracer.span(crowd.publish_database, "crowd.publish"))
        tracer.patch(exp_stream, "_ingest_round", tracer.span(
            exp_stream._ingest_round, "crowd.ingest"))

    counts = {"sched.dispatch_rounds": 0, "sched.steals": 0,
              "sched.reshards": 0, "parallel.pools_created": 0,
              "parallel.worker_cpu_s": 0.0}

    def run_pass(_index):
        cpu_before = children_cpu_s()
        del schedulers[:]
        result = _stream(seed, STREAM_WORKERS)
        counts["parallel.worker_cpu_s"] += children_cpu_s() - cpu_before
        counts["sched.dispatch_rounds"] += sum(
            s.dispatch_rounds for s in schedulers)
        report = result.execution
        counts["sched.steals"] += report.steals
        counts["sched.reshards"] += report.reshards
        counts["parallel.pools_created"] += report.pool_attempts
        renders.append(result.render())
        return result.device_rounds

    try:
        _timed_passes(tracer, seconds, run_pass, measurement)
    finally:
        tracer.restore()
    # Outside the timed loop: every sweep must render exactly as the
    # same sweep run serially.
    reference = _stream(seed, 1).render()
    for index, render in enumerate(renders):
        if render != reference:
            measurement.errors.append(
                f"stream pass {index}: render differs from workers=1")
            measurement.failed += STREAM_ROUNDS
    if traced:
        # Every pass sweeps the same inputs, so these counts repeat per
        # pass; worker CPU is a time and is normalised like the spans.
        passes = len(measurement.pass_s)
        per_pass = {key: value / passes for key, value in counts.items()}
        per_pass["parallel.worker_cpu_s"] /= statistics.mean(
            measurement.factors)
        layers = _layer_table(measurement, per_pass)
        map_busy = layers.get("sched.map.busy_s", 0.0)
        layers["parallel.worker_util"] = (
            layers["parallel.worker_cpu_s"] / (STREAM_WORKERS * map_busy)
            if map_busy else 0.0
        )
        measurement.layers = layers
    return measurement


def probe_stream(seed):
    """Cold-start set-up of the stream workload."""
    from repro.apps.catalog import get_app
    from repro.harness.exp_crowd import CROWD_APPS
    from repro.sched import CostModel

    del seed
    CostModel.from_trajectory()
    for name in CROWD_APPS:
        get_app(name)

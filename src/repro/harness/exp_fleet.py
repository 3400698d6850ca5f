"""Fleet experiments: Tables 5 and 6.

Table 5: run Hang Doctor in the wild over the 114-app corpus (16
catalog apps with bugs + generated clean apps), count the new soft
hang bugs it finds per app (BD) and how many of them a
PerfChecker-style offline scanner misses (MO).  Paper: 34 bugs, 23
(68 %) missed offline.

Table 6: for each previously-unknown (validation) bug, which of the
three filter events recognizes it (fires in at least half of its bug
hangs).  Paper: context-switches 18/23, task-clock 12/23, page-faults
12/23, union 23/23.

The fleet study decomposes at *app* granularity: each app's simulated
deployment depends only on (device, root seed, app), thanks to the
per-app seed derivation of :func:`fleet_app_seed`.  ``table5`` shards
the corpus across worker processes (``workers=N``) through
:func:`repro.parallel.parallel_map`; shard results are partial
:class:`Table5Result` objects recombined by :meth:`Table5Result.merge`,
so the parallel output is bit-identical to the serial one regardless
of worker count.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.metrics import detected_bug_sites
from repro.apps.catalog import TABLE5_APPS
from repro.apps.corpus import FLEET_SIZE, build_corpus
from repro.apps.sessions import SessionGenerator
from repro.base.rng import substream_seed
from repro.core.blocking_db import BlockingApiDatabase
from repro.core.config import HangDoctorConfig
from repro.core.hang_doctor import HangDoctor
from repro.detectors.offline import OfflineScanner
from repro.detectors.runner import run_detector
from repro.harness.tables import render_table
from repro.harness.training import validation_bug_cases
from repro.checkpoint import ShardJournal, checkpointed_map, run_key
from repro.parallel import ExecutionReport, chunk_indices, resolve_workers
from repro.sim.engine import ExecutionEngine
from repro.sim.pmu import PmuSampler
from repro.sim.timeline import MAIN_THREAD, RENDER_THREAD
from repro.telemetry import current as telemetry


def fleet_app_seed(seed, app_name):
    """Per-app seed for the fleet study, derived from the root seed.

    Every app must consume its *own* RNG streams: seeding each app's
    engine and Hang Doctor with the raw root seed would make all 114
    apps draw identical noise sequences (identical S-Checker sampling
    error, identical trace jitter), cross-correlating the fleet
    statistics.  Deriving through the keyed hash also makes an app's
    run independent of its corpus position, which is what lets shards
    execute on any worker in any order.
    """
    return substream_seed(seed, "fleet", app_name)


def doctor_engine(device, seed, config=None):
    """Engine for a simulated deployment whose only counter reader is
    Hang Doctor.

    S-Checker reads just ``config.filter_events()`` (paper §3.3.1), so
    the engine computes only those: the lazy counter model skips the
    PMU block for the kernel-only default set.  The footnote-2
    network extension needs nothing extra — every engine records
    main-thread network bytes.  The fleet, chaos, crowd, stream and
    scenario harnesses all build their engines here, so they share
    one sample universe; the other paper artifacts (Tables 3, 4 and
    6, Figure 8) keep full-mode engines.
    """
    config = config or HangDoctorConfig()
    return ExecutionEngine(device, seed=seed,
                           counter_events=config.filter_events())


@dataclass
class Table5Row:
    """Per-app outcome of the fleet run."""

    app_name: str
    category: str
    downloads: int
    commit: str
    issue_id: int
    bugs_detected: int
    missed_offline: int
    ground_truth_bugs: int


@dataclass
class Table5Result:
    """Fleet-wide Hang Doctor results."""

    rows: List[Table5Row]
    apps_tested: int
    clean_apps_flagged: int
    #: Unknown blocking APIs added to the database at runtime.
    new_blocking_apis: List[str]
    #: Actions the engines executed across the fleet (clean apps run
    #: fewer sessions, so this is below ``users × actions × apps``);
    #: the unit of fleet throughput.  Not rendered.
    actions_executed: int = 0
    #: How the fleet run actually executed (supervision events,
    #: checkpoint hits); advisory — never part of the rendered output.
    execution: Optional[ExecutionReport] = field(
        default=None, compare=False, repr=False
    )

    @property
    def total_detected(self):
        """Bugs Hang Doctor found across the fleet."""
        return sum(row.bugs_detected for row in self.rows)

    @property
    def total_missed_offline(self):
        """Detected bugs the offline scanner misses."""
        return sum(row.missed_offline for row in self.rows)

    @property
    def missed_offline_percent(self):
        """Share of detections missed offline (paper: 68 %).

        NaN when nothing was detected: an empty fleet run has no
        offline-scanner performance to report, and ``0.0`` would read
        as "a perfect offline scanner" in the summary line.
        """
        if not self.total_detected:
            return float("nan")
        return 100.0 * self.total_missed_offline / self.total_detected

    @classmethod
    def merge(cls, parts):
        """Recombine partial results from corpus shards.

        Rows concatenate in shard order (shards are contiguous corpus
        slices, so this restores corpus order); counters sum; runtime
        blocking-API discoveries deduplicate first-seen-first — each
        shard grows its own database from the same initial state, so
        dropping repeats reproduces exactly what one shared database
        would have recorded serially.
        """
        parts = list(parts)
        rows = []
        apps_tested = 0
        clean_flagged = 0
        actions = 0
        seen = set()
        discoveries = []
        for part in parts:
            rows.extend(part.rows)
            apps_tested += part.apps_tested
            clean_flagged += part.clean_apps_flagged
            actions += part.actions_executed
            for name in part.new_blocking_apis:
                if name not in seen:
                    seen.add(name)
                    discoveries.append(name)
        return cls(
            rows=rows,
            apps_tested=apps_tested,
            clean_apps_flagged=clean_flagged,
            new_blocking_apis=discoveries,
            actions_executed=actions,
        )

    def render(self):
        """ASCII rendering of the result."""
        rows = [
            (row.app_name, row.category, row.issue_id,
             f"{row.bugs_detected} ({row.missed_offline})",
             row.ground_truth_bugs)
            for row in self.rows
        ]
        rows.append((
            "TOTAL", "", "",
            f"{self.total_detected} ({self.total_missed_offline})",
            sum(row.ground_truth_bugs for row in self.rows),
        ))
        table = render_table(
            ("App Name", "Category", "Issue", "BD (MO)", "truth"),
            rows, title=f"Table 5 - {self.apps_tested} apps tested",
        )
        percent = self.missed_offline_percent
        share = "n/a" if math.isnan(percent) else f"{percent:.0f}%"
        return (
            f"{table}\n"
            f"{share} of detected bugs are "
            f"missed by the offline scanner; "
            f"{len(self.new_blocking_apis)} new blocking APIs added to "
            f"the database; {self.clean_apps_flagged} clean apps "
            f"wrongly flagged"
        )


def _run_fleet_app(app, device, seed, users, actions_per_user, config,
                   generator, scanner, blocking_db, crowd_kb=None):
    """Deploy Hang Doctor on one app of the corpus.

    Returns ``(row, clean_flagged, actions)``: a :class:`Table5Row` for
    catalog (bug-bearing) apps or ``None`` for generated clean ones, 1
    if a clean app was wrongly flagged, and the number of actions the
    engine executed.  *crowd_kb* (a
    :class:`~repro.crowd.CrowdKnowledge`) lets the device short-circuit
    fleet-diagnosed bugs instead of re-collecting traces.
    """
    app_seed = fleet_app_seed(seed, app.name)
    engine = doctor_engine(device, app_seed, config)
    doctor = HangDoctor(
        app, device, config=config, blocking_db=blocking_db, seed=app_seed,
        crowd_kb=crowd_kb,
    )
    detections = []
    actions = 0
    is_catalog = bool(app.hang_bug_operations())
    app_users = users if is_catalog else max(1, users // 2)
    per_user = actions_per_user if is_catalog else actions_per_user // 3
    for session in generator.fleet_sessions(app, app_users, per_user):
        executions = engine.run_session(
            app, session.action_names, gap_ms=1000.0
        )
        actions += len(executions)
        run = run_detector(doctor, executions, device_id=session.user_id)
        detections.extend(run.detections)
    detected_sites = detected_bug_sites(app, detections)
    if not is_catalog:
        return None, (1 if detections else 0), actions
    offline_sites = scanner.detected_sites(app)
    missed = [s for s in detected_sites if s not in offline_sites]
    row = Table5Row(
        app_name=app.name,
        category=app.category,
        downloads=app.downloads,
        commit=app.commit,
        issue_id=app.issue_id or 0,
        bugs_detected=len(detected_sites),
        missed_offline=len(missed),
        ground_truth_bugs=len(app.hang_bug_operations()),
    )
    return row, 0, actions


def _table5_shard(payload):
    """Run one contiguous slice of the corpus (module-level so the
    process pool can pickle it); returns a partial :class:`Table5Result`."""
    (device, seed, users, actions_per_user, corpus_size, config,
     indices, blocking_names, crowd_kb) = payload
    apps = build_corpus(seed=seed, size=corpus_size)
    generator = SessionGenerator(seed=seed)
    if blocking_names is None:
        blocking_db = BlockingApiDatabase.initial()
    else:
        # Crowd-synced deployment: start from the fleet's published
        # database, so the scanner and runtime agree on what is known.
        blocking_db = BlockingApiDatabase(blocking_names)
    scanner = OfflineScanner(blocking_db=BlockingApiDatabase(
        blocking_db.names()
    ))
    rows = []
    clean_flagged = 0
    actions = 0
    tel = telemetry()
    for index in indices:
        # Track per app, not per shard: Table 5 shards are worker-count
        # slices, so shard-derived names would break the byte-identity
        # of traces across --workers.
        with tel.track(f"fleet/{apps[index].name}"):
            tel.count("fleet.apps.run")
            row, flagged, executed = _run_fleet_app(
                apps[index], device, seed, users, actions_per_user,
                config, generator, scanner, blocking_db, crowd_kb=crowd_kb,
            )
        if row is not None:
            rows.append(row)
        clean_flagged += flagged
        actions += executed
    return Table5Result(
        rows=rows,
        apps_tested=len(indices),
        clean_apps_flagged=clean_flagged,
        new_blocking_apis=blocking_db.runtime_discoveries(),
        actions_executed=actions,
    )


def table5(device, seed=0, users=4, actions_per_user=60,
           corpus_size=FLEET_SIZE, config=None, workers=1,
           blocking_names=None, crowd_kb=None, checkpoint=None,
           resume=False, report=None):
    """Reproduce Table 5's fleet study (scaled-down user base).

    ``workers`` shards the corpus across processes; any worker count
    yields byte-identical results (per-app seeds make every app's run
    independent of corpus position and shard assignment).
    ``checkpoint``/``resume`` journal completed corpus shards so a
    killed run restarts where it left off; shards are worker-count
    slices, so a resume only reuses the journal when ``workers``
    matches (anything else re-runs from scratch, never mixes slices).
    ``report`` collects supervision events (also attached to the
    result as ``execution``).

    The two crowd hooks run the fleet as crowd-synced devices instead
    of isolated ones: *blocking_names* pre-seeds every device's (and
    the offline scanner's) blocking-API database — e.g. the
    ``sorted_names()`` of a published
    :meth:`~repro.crowd.CrowdAggregator.publish_database` — and
    *crowd_kb* (a :class:`~repro.crowd.CrowdKnowledge`) lets devices
    short-circuit fleet-diagnosed bugs without re-collecting traces.
    Defaults reproduce the paper's isolated deployment unchanged.
    A crowd-synced run is never journaled: the knowledge snapshot is
    not part of the run key, so stale shards could not be detected.
    """
    if blocking_names is not None:
        blocking_names = tuple(sorted(blocking_names))
    if report is None:
        report = ExecutionReport()
    slices = chunk_indices(corpus_size, resolve_workers(workers))
    shards = [
        (device, seed, users, actions_per_user, corpus_size, config, indices,
         blocking_names, crowd_kb)
        for indices in slices
    ]
    keys = [f"t5|{indices[0]}-{indices[-1]}" for indices in slices]
    journal = None
    if checkpoint is not None and crowd_kb is None:
        journal = ShardJournal(
            checkpoint,
            run_key("table5", device.name, seed, users, actions_per_user,
                    corpus_size, repr(config), blocking_names,
                    resolve_workers(workers)),
            report=report,
        ).open(resume=resume)
    elif resume and checkpoint is None:
        raise ValueError("resume requires a checkpoint directory")
    parts = checkpointed_map(_table5_shard, shards, keys, journal,
                             workers=workers, report=report)
    result = Table5Result.merge(parts)
    result.execution = report
    return result


@dataclass
class Table6Row:
    """Per-app counter attribution for validation bugs."""

    app_name: str
    new_bugs: int
    by_event: Dict[str, int]


@dataclass
class Table6Result:
    """Which filter event recognizes each previously-unknown bug."""

    rows: List[Table6Row]
    events: Tuple[str, ...]
    undetected: List[str]

    def totals(self):
        """Per-event recognition totals across apps."""
        totals = {event: 0 for event in self.events}
        for row in self.rows:
            for event in self.events:
                totals[event] += row.by_event.get(event, 0)
        return totals

    @property
    def total_bugs(self):
        """All validation bugs covered by the table."""
        return sum(row.new_bugs for row in self.rows)

    def render(self):
        """ASCII rendering of the result.

        A genuine count of zero renders as ``0``; ``-`` is reserved
        for events the run never measured (absent from ``by_event``).
        """
        headers = ["App Name", "New Bugs"] + [
            event.replace("context-switches", "ctx-sw") for event in
            self.events
        ]
        rows = []
        for row in self.rows:
            cells = [row.app_name, row.new_bugs]
            cells += [
                row.by_event[event] if event in row.by_event else "-"
                for event in self.events
            ]
            rows.append(cells)
        totals = self.totals()
        rows.append(
            ["TOTAL", self.total_bugs]
            + [totals[event] for event in self.events]
        )
        table = render_table(
            headers, rows,
            title="Table 6 - Validation bugs recognized per filter event",
        )
        undetected = (
            f"\nbugs not recognized by any event: {self.undetected}"
            if self.undetected else "\nall validation bugs recognized"
        )
        return table + undetected


def table6(device, seed=0, runs=25, config=None, recognize_rate=0.5):
    """Reproduce Table 6's per-counter validation-bug attribution."""
    config = (config or HangDoctorConfig()).validate()
    events = config.filter_events()
    sampler = PmuSampler(device, events, seed=seed)
    engine = ExecutionEngine(device, seed=seed)

    per_app: Dict[str, Table6Row] = {}
    undetected = []
    for case in validation_bug_cases():
        action = case.app.action(case.action_name)
        hangs = 0
        fired = {event: 0 for event in events}
        for _ in range(runs):
            execution = engine.run_action(case.app, action)
            if not execution.has_soft_hang:
                continue
            if case.site_id not in execution.hang_bug_sites():
                continue
            hangs += 1
            for event in events:
                value = sampler.read_difference(
                    execution.timeline, event, MAIN_THREAD, RENDER_THREAD,
                    execution.start_ms, execution.end_ms,
                )
                if value > config.filter_thresholds[event]:
                    fired[event] += 1
        row = per_app.setdefault(
            case.app.name,
            Table6Row(app_name=case.app.name, new_bugs=0,
                      by_event={event: 0 for event in events}),
        )
        row.new_bugs += 1
        recognized = False
        for event in events:
            if hangs and fired[event] / hangs >= recognize_rate:
                row.by_event[event] += 1
                recognized = True
        if not recognized:
            undetected.append(f"{case.key}:{case.site_id}")
    ordered = [
        per_app[app.name] for app in TABLE5_APPS if app.name in per_app
    ]
    return Table6Result(rows=ordered, events=events, undetected=undetected)

"""Crowd experiment: fleet-size sweep of the shared-diagnosis payoff.

The paper's feedback loop is per-device: every Hang Doctor instance
pays the full two-phase cost for every bug, even when another device
already diagnosed it.  The crowd backend (:mod:`repro.crowd`) shares
diagnoses fleet-wide, and this experiment measures what that buys: for
each fleet size, devices run in *sync rounds* — run sessions, upload
their Hang Bug Reports as batches, pull the freshly published
known-bug table and merged blocking-API database before the next
round — and the sweep reports the **diagnosis-cost reduction curve**:
phase-2 trace collections per device-round versus the isolated-device
baseline (the same devices and sessions with no crowd sync, i.e. the
paper's deployment model).

Decomposition and determinism: a device's round is a pure function of
(device profile, root seed, device index, round index, published
knowledge), seeded through keyed substreams so it is independent of
fleet size and shard assignment.  Rounds are sequential (the feedback
loop), devices within a round shard across workers through
:mod:`repro.parallel`, and ingestion folds through the
order-independent :meth:`~repro.crowd.CrowdAggregator.merge`, so any
``--workers`` count renders byte-identically.  The upload path runs
through the fault seams of :mod:`repro.faults` — batches may be
dropped, duplicated, or delivered a round late — and ingestion
idempotency keeps duplicated deliveries from double-counting; at fault
rate 0 no fault stream is ever drawn and repeat runs are bit-equal.

Because a larger fleet's device set is a superset of a smaller one's
and every upload only *adds* knowledge, the published table at each
round grows with fleet size, so the per-device-round collection count
is monotone nonincreasing in fleet size: one device's diagnosis
spares every other device the collection.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.analysis.metrics import detected_bug_sites
from repro.apps.catalog import get_app
from repro.apps.sessions import SessionGenerator
from repro.base.rng import substream_seed
from repro.checkpoint import ShardJournal, checkpointed_map, run_key
from repro.core.blocking_db import BlockingApiDatabase
from repro.core.hang_doctor import HangDoctor
from repro.crowd import CrowdAggregator, CrowdKnowledge, ReportBatch
from repro.detectors.runner import run_detector
from repro.faults import FaultInjector, FaultPlan
from repro.harness.exp_fleet import doctor_engine
from repro.harness.tables import render_table
from repro.parallel import ExecutionReport
from repro.telemetry import current as telemetry

#: Default fleet sizes of the sweep (devices per fleet).
DEFAULT_FLEET_SIZES = (1, 2, 4, 8)

#: Default app set: a representative slice of the Figure 8 apps.
CROWD_APPS = ("AndStatus", "K9-mail")


def crowd_device_seed(seed, device_index, round_index):
    """Per-(device, round) seed, derived from the root seed.

    Keyed-hash derivation (like
    :func:`~repro.harness.exp_fleet.fleet_app_seed`) makes a device's
    round independent of fleet size, worker count, and every other
    device's rounds — which is what lets fleets of different sizes
    share the same per-device behaviour and makes the superset
    argument (bigger fleet, more knowledge, fewer collections) hold.
    """
    return substream_seed(seed, "crowd", device_index, round_index)


@dataclass(frozen=True)
class CrowdDeviceRound:
    """One device's results for one sync round (all apps)."""

    device_index: int
    round_index: int
    #: Phase-2 trace collections the device paid for this round.
    phase2_collections: int
    #: Collections avoided via the crowd known-bug table.
    kb_short_circuits: int
    #: Ground-truth bug sites detected, as (app_name, site_id) pairs.
    detected_sites: Tuple[Tuple[str, str], ...]
    #: Report batches to upload (one per app with a non-empty report).
    batches: Tuple[ReportBatch, ...]


def _crowd_device_round(payload):
    """Run one device for one sync round (module-level so the process
    pool can pickle it); returns a :class:`CrowdDeviceRound`.

    The device runs every app of the study with the crowd-synced
    knowledge and blocking-database snapshot published at the start of
    the round, then digests its per-app Hang Bug Reports into upload
    batches stamped with the round index.

    The payload's trailing *track* element names the telemetry track
    the round's records land on (e.g. ``crowd/fleet4/d1/r0``) — it has
    to travel in the payload because the baseline and the fleet's
    round 0 are otherwise byte-identical payloads, and shard-derived
    names would move with the worker count.
    """
    (device, seed, app_names, device_index, round_index, actions,
     knowledge, db_names, track) = payload
    tel = telemetry()
    with tel.track(track):
        tel.count("crowd.device_rounds")
        round_seed = crowd_device_seed(seed, device_index, round_index)
        generator = SessionGenerator(seed=round_seed)
        phase2 = 0
        shorts = 0
        sites = []
        batches = []
        for app_name in app_names:
            app = get_app(app_name)
            app_seed = substream_seed(round_seed, app_name)
            engine = doctor_engine(device, app_seed)
            doctor = HangDoctor(
                app, device, seed=app_seed,
                blocking_db=BlockingApiDatabase(db_names),
                crowd_kb=knowledge,
            )
            session = generator.user_session(
                app, user_id=device_index, actions_per_user=actions
            )
            executions = engine.run_session(app, session.action_names,
                                            gap_ms=1000.0)
            run = run_detector(doctor, executions, device_id=device_index)
            phase2 += doctor.phase2_collections
            shorts += doctor.kb_short_circuits
            sites.extend(
                (app_name, site)
                for site in sorted(detected_bug_sites(app, run.detections))
            )
            if len(doctor.report):
                batches.append(ReportBatch.from_report(
                    doctor.report, device_id=device_index,
                    time_ms=float(round_index),
                    batch_id=(
                        f"{app_name}/dev{device_index}/round{round_index}"
                    ),
                ))
    return CrowdDeviceRound(
        device_index=device_index,
        round_index=round_index,
        phase2_collections=phase2,
        kb_short_circuits=shorts,
        detected_sites=tuple(sites),
        batches=tuple(batches),
    )


@dataclass(frozen=True)
class CrowdCell:
    """One fleet size's full deployment."""

    fleet_size: int
    rounds: int
    #: Phase-2 collections the crowd-synced fleet paid for.
    phase2_collections: int
    #: Same devices and sessions, isolated (no crowd sync).
    baseline_collections: int
    kb_short_circuits: int
    #: Distinct ground-truth bug sites the fleet detected.
    bugs_detected: int
    baseline_bugs_detected: int
    #: Known bugs in the final published table.
    known_bugs: int
    #: Blocking APIs the published database added over the shipped one.
    new_blocking_apis: int
    batches_ingested: int
    batches_dropped: int
    batches_duplicated: int
    batches_late: int
    #: Re-deliveries the aggregator recognized and ignored.
    duplicates_ignored: int

    @property
    def collections_per_device_round(self):
        """Phase-2 collections per device per round (the cost curve)."""
        return self.phase2_collections / (self.fleet_size * self.rounds)

    @property
    def baseline_per_device_round(self):
        """Isolated-device collections per device per round."""
        return self.baseline_collections / (self.fleet_size * self.rounds)

    @property
    def avoided_fraction(self):
        """Fraction of the baseline's collections the crowd avoided."""
        if not self.baseline_collections:
            return 0.0
        return 1.0 - self.phase2_collections / self.baseline_collections


@dataclass
class CrowdSweepResult:
    """The full fleet-size sweep."""

    cells: List[CrowdCell]
    fleet_sizes: Tuple[int, ...]
    apps: Tuple[str, ...]
    rounds: int
    fault_rate: float
    #: How the sweep actually executed (supervision events, checkpoint
    #: hits); advisory — never part of the rendered output.
    execution: Optional[ExecutionReport] = field(
        default=None, compare=False, repr=False
    )

    @classmethod
    def merge(cls, parts):
        """Recombine shard results (disjoint fleet-size slices) in
        submission order."""
        parts = list(parts)
        if not parts:
            raise ValueError("need at least one CrowdSweepResult to merge")
        cells = []
        fleet_sizes = []
        for part in parts:
            cells.extend(part.cells)
            for size in part.fleet_sizes:
                if size not in fleet_sizes:
                    fleet_sizes.append(size)
        return cls(cells=cells, fleet_sizes=tuple(fleet_sizes),
                   apps=parts[0].apps, rounds=parts[0].rounds,
                   fault_rate=parts[0].fault_rate)

    def cell(self, fleet_size):
        """The cell for one fleet size."""
        for cell in self.cells:
            if cell.fleet_size == fleet_size:
                return cell
        raise KeyError(f"no cell for fleet size {fleet_size}")

    def render(self):
        """ASCII rendering: the diagnosis-cost reduction curve."""
        headers = ("fleet", "phase2", "base", "p2/dev-rd", "base/dev-rd",
                   "avoided", "shortcut", "bugs", "known", "new-APIs",
                   "batches", "drop/dup/late")
        rows = []
        for cell in self.cells:
            rows.append((
                cell.fleet_size,
                cell.phase2_collections,
                cell.baseline_collections,
                f"{cell.collections_per_device_round:.2f}",
                f"{cell.baseline_per_device_round:.2f}",
                f"{cell.avoided_fraction:.0%}",
                cell.kb_short_circuits,
                f"{cell.bugs_detected}/{cell.baseline_bugs_detected}",
                cell.known_bugs,
                cell.new_blocking_apis,
                cell.batches_ingested,
                f"{cell.batches_dropped}/{cell.batches_duplicated}"
                f"/{cell.batches_late}",
            ))
        table = render_table(
            headers, rows,
            title=(
                f"Crowd sweep - {len(self.apps)} apps, {self.rounds} sync "
                f"rounds, fault rate {self.fault_rate:g}"
            ),
        )
        largest = self.cell(max(self.fleet_sizes))
        return (
            f"{table}\n"
            f"at fleet size {largest.fleet_size}: "
            f"{largest.avoided_fraction:.0%} of the isolated-device "
            f"baseline's phase-2 collections avoided "
            f"({largest.baseline_collections} -> "
            f"{largest.phase2_collections}); one device's diagnosis "
            f"spares the rest of the fleet the trace collection"
        )


def _ingest_round(aggregator, arrivals, new_results, faults, stats):
    """Upload phase of one round: deliver late batches from the
    previous round, then this round's uploads through the fault seams.

    Returns the merged aggregator and the batches delayed into the
    next round.  Ingestion order is the deterministic submission order
    (late arrivals first, then device order), and fault decisions are
    drawn serially here in the parent, so worker count never reaches
    the fault streams.
    """
    tel = telemetry()
    round_agg = CrowdAggregator()
    for batch in arrivals:
        if not round_agg.ingest(batch):
            stats["duplicates_ignored"] += 1
        stats["batches_ingested"] += 1
    delayed = []
    for result in new_results:
        for batch in result.batches:
            if faults is not None and faults.drop_report_batch():
                stats["batches_dropped"] += 1
                tel.count("crowd.batches.dropped")
                tel.event("crowd.batch.dropped", batch.time_ms,
                          batch=batch.batch_id)
                continue
            if faults is not None and faults.delay_report_batch():
                stats["batches_late"] += 1
                tel.count("crowd.batches.delayed")
                tel.event("crowd.batch.delayed", batch.time_ms,
                          batch=batch.batch_id)
                delayed.append(batch)
                continue
            if not round_agg.ingest(batch):
                stats["duplicates_ignored"] += 1
            stats["batches_ingested"] += 1
            if faults is not None and faults.duplicate_report_batch():
                stats["batches_duplicated"] += 1
                stats["batches_ingested"] += 1
                tel.count("crowd.batches.duplicated")
                tel.event("crowd.batch.duplicated", batch.time_ms,
                          batch=batch.batch_id)
                if not round_agg.ingest(batch):
                    stats["duplicates_ignored"] += 1
    return CrowdAggregator.merge([aggregator, round_agg]), delayed


def _run_fleet(device, seed, apps, fleet_size, rounds, actions, fault_rate,
               workers, baseline, journal=None, report=None):
    """Deploy one crowd-synced fleet; returns its :class:`CrowdCell`.

    *baseline* maps (device_index, round_index) to the isolated
    :class:`CrowdDeviceRound` of the same device and sessions.
    *journal* checkpoints each device round under a key naming
    (fleet size, round, device) — safe even though rounds feed forward,
    because the published knowledge entering round *n* is itself a
    pure function of the sweep parameters already in the run key.
    """
    faults = None
    if fault_rate > 0.0:
        plan = FaultPlan(
            report_drop_rate=fault_rate,
            report_duplicate_rate=fault_rate,
            report_delay_rate=fault_rate,
        )
        faults = FaultInjector(plan, seed=seed,
                               scope=("crowd-upload", fleet_size))
    aggregator = CrowdAggregator()
    pending = []
    stats = {
        "batches_ingested": 0, "batches_dropped": 0,
        "batches_duplicated": 0, "batches_late": 0,
        "duplicates_ignored": 0,
    }
    phase2 = 0
    shorts = 0
    sites = set()
    tel = telemetry()
    with tel.track(f"crowd/fleet{fleet_size}"):
        for round_index in range(rounds):
            with tel.span("crowd.round", fleet=fleet_size,
                          round=round_index):
                knowledge = aggregator.knowledge()
                db_names = tuple(
                    aggregator.publish_database().sorted_names()
                )
                tel.event(
                    "crowd.publish", float(round_index),
                    fleet=fleet_size, known_bugs=len(knowledge),
                    blocking_apis=len(db_names),
                )
                payloads = [
                    (device, seed, apps, device_index, round_index,
                     actions, knowledge, db_names,
                     f"crowd/fleet{fleet_size}/d{device_index}"
                     f"/r{round_index}")
                    for device_index in range(fleet_size)
                ]
                keys = [
                    f"fleet{fleet_size}|r{round_index}|d{device_index}"
                    for device_index in range(fleet_size)
                ]
                results = checkpointed_map(
                    _crowd_device_round, payloads, keys, journal,
                    workers=workers, report=report,
                )
                for result in results:
                    phase2 += result.phase2_collections
                    shorts += result.kb_short_circuits
                    sites.update(result.detected_sites)
                aggregator, pending = _ingest_round(
                    aggregator, pending, results, faults, stats
                )
        if pending:
            # Batches still in flight when the sweep ends arrive late
            # but arrive: flush them so the final statistics converge.
            aggregator, _ = _ingest_round(aggregator, pending, (), None,
                                          stats)
    knowledge = aggregator.knowledge()
    published = aggregator.publish_database()
    baseline_cells = [
        baseline[(device_index, round_index)]
        for device_index in range(fleet_size)
        for round_index in range(rounds)
    ]
    baseline_sites = set()
    for cell in baseline_cells:
        baseline_sites.update(cell.detected_sites)
    return CrowdCell(
        fleet_size=fleet_size,
        rounds=rounds,
        phase2_collections=phase2,
        baseline_collections=sum(
            cell.phase2_collections for cell in baseline_cells
        ),
        kb_short_circuits=shorts,
        bugs_detected=len(sites),
        baseline_bugs_detected=len(baseline_sites),
        known_bugs=len(knowledge),
        new_blocking_apis=len(published.runtime_discoveries()),
        **stats,
    )


def crowd_sweep(device, seed=0, fleet_sizes=DEFAULT_FLEET_SIZES, rounds=3,
                apps=None, actions_per_round=40, fault_rate=0.0, workers=1,
                checkpoint=None, resume=False, report=None):
    """Sweep fleet sizes; returns a :class:`CrowdSweepResult`.

    ``workers`` shards the per-round device runs through the
    supervised pool; every device round is a pure function of its
    payload and ingestion is order-independent, so any worker count
    yields byte-identical output.  ``fault_rate`` drives the
    upload-path fault seams (drop / duplicate / delay); rate 0 never
    draws from the fault streams.  ``checkpoint``/``resume`` journal
    every completed device round (baseline and crowd-synced) so a
    killed sweep restarts where it left off, byte-identically;
    ``report`` collects supervision events (also attached to the
    result as ``execution``).
    """
    apps = tuple(apps) if apps else CROWD_APPS
    fleet_sizes = tuple(fleet_sizes)
    if not fleet_sizes or min(fleet_sizes) < 1:
        raise ValueError(f"fleet sizes must be >= 1, got {fleet_sizes}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if not 0.0 <= fault_rate <= 1.0:
        raise ValueError(f"fault_rate must be in [0, 1], got {fault_rate}")
    if report is None:
        report = ExecutionReport()
    journal = None
    if checkpoint is not None:
        journal = ShardJournal(
            checkpoint,
            run_key("crowd", device.name, seed, fleet_sizes, rounds, apps,
                    actions_per_round, fault_rate),
            report=report,
        ).open(resume=resume)
    elif resume:
        raise ValueError("resume requires a checkpoint directory")
    # Isolated-device baseline: the same (device, round) runs with no
    # crowd sync — knowledge empty, database as shipped.  Pure per
    # payload, so it shards freely.
    base_payloads = [
        (device, seed, apps, device_index, round_index, actions_per_round,
         CrowdKnowledge(), tuple(BlockingApiDatabase.initial()),
         f"crowd/base/d{device_index}/r{round_index}")
        for device_index in range(max(fleet_sizes))
        for round_index in range(rounds)
    ]
    base_keys = [
        f"base|d{device_index}|r{round_index}"
        for device_index in range(max(fleet_sizes))
        for round_index in range(rounds)
    ]
    base_results = checkpointed_map(_crowd_device_round, base_payloads,
                                    base_keys, journal, workers=workers,
                                    report=report)
    baseline = {
        (result.device_index, result.round_index): result
        for result in base_results
    }
    cells = [
        _run_fleet(device, seed, apps, fleet_size, rounds,
                   actions_per_round, fault_rate, workers, baseline,
                   journal=journal, report=report)
        for fleet_size in fleet_sizes
    ]
    return CrowdSweepResult(
        cells=cells, fleet_sizes=fleet_sizes, apps=apps, rounds=rounds,
        fault_rate=fault_rate, execution=report,
    )

"""Chaos experiment: detection quality under monitoring faults.

The paper deploys Hang Doctor on real phones, where the monitoring
substrate itself fails routinely — ``perf_event_open`` denied, counter
reads erroring, stack sampling refused, state files corrupted.  This
experiment answers the deployment question that implies: *how much
detection quality survives when the monitors are flaky?*

For each fault rate the sweep deploys Hang Doctor on a set of catalog
apps exactly the way the Table 5 fleet study does — per-app seeds via
:func:`~repro.harness.exp_fleet.fleet_app_seed`, engines from
:func:`~repro.harness.exp_fleet.doctor_engine`, the same session
generator, one :func:`~repro.detectors.runner.run_detector` pass per
user — but with a :class:`~repro.faults.FaultPlan` (scaled by the
rate) attached, then reports the precision/recall/overhead degradation
curve against the fault-free (rate 0) row.  Because every app's run is
a pure function of (device, root seed, rate, app), the sweep shards
per (rate, app) across worker processes through
:mod:`repro.parallel`, and any ``--workers`` count yields
byte-identical output.

At rate 0 the fault layer draws no random numbers and injects nothing,
so the rate-0 cells reproduce the fault-free per-app Table 5
``bugs_detected`` numbers bit-for-bit (same users/actions), and the
confusion/overhead columns equal an unfaulted
:class:`~repro.core.hang_doctor.HangDoctor` run over the same
executions — the Figure 8 measurement machinery applied to the fleet
sessions.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.analysis.metrics import ConfusionCounts, detected_bug_sites
from repro.apps.catalog import get_app
from repro.apps.sessions import SessionGenerator
from repro.checkpoint import ShardJournal, checkpointed_map, run_key
from repro.core.hang_doctor import HangDoctor
from repro.core.persistence import load_report, report_to_json
from repro.detectors.runner import DetectorRun, run_detector
from repro.faults import FaultPlan
from repro.harness.exp_comparison import FIGURE8_APPS
from repro.harness.exp_fleet import doctor_engine, fleet_app_seed
from repro.harness.tables import render_table
from repro.parallel import ExecutionReport
from repro.telemetry import current as telemetry

#: Default fault-rate grid of the sweep.
DEFAULT_RATES = (0.0, 0.02, 0.05, 0.1, 0.2, 0.4)

#: Default app set: the representative apps of the paper's Figure 8.
CHAOS_APPS = FIGURE8_APPS


@dataclass(frozen=True)
class ChaosCell:
    """One (fault rate, app) deployment."""

    rate: float
    app_name: str
    #: Distinct ground-truth bug sites detected (Table 5's BD column).
    bugs_detected: int
    #: Traced-hang confusion counts (Figure 8's currency).
    tp: int
    fp: int
    fn: int
    overhead_percent: float
    #: Failed counter-read attempts across the deployment.
    counter_read_failures: int
    #: Refused trace-collection windows.
    trace_failures: int
    #: The doctor ended the deployment in timeout-only mode.
    degraded: bool
    #: Actions quarantined by the Diagnoser.
    quarantined: int
    #: The end-of-deployment report reload hit corruption and recovered.
    state_recovered: bool
    #: Total faults the injector fired (audit of the fault layer).
    faults_fired: int


@dataclass
class ChaosResult:
    """The full fault-rate sweep."""

    cells: List[ChaosCell]
    rates: Tuple[float, ...]
    apps: Tuple[str, ...]
    #: How the sweep actually executed (retries, fallbacks, checkpoint
    #: hits); advisory only — never part of the rendered output, so
    #: two runs with different reports still render byte-identically.
    execution: Optional[ExecutionReport] = field(
        default=None, compare=False, repr=False
    )

    @classmethod
    def merge(cls, parts):
        """Recombine shard results in submission order."""
        parts = list(parts)
        if not parts:
            raise ValueError("need at least one ChaosResult to merge")
        cells = []
        for part in parts:
            cells.extend(part.cells)
        rates = []
        for part in parts:
            for rate in part.rates:
                if rate not in rates:
                    rates.append(rate)
        return cls(cells=cells, rates=tuple(rates), apps=parts[0].apps)

    def row(self, rate):
        """Aggregate one rate's cells across apps."""
        cells = [cell for cell in self.cells if cell.rate == rate]
        if not cells:
            raise KeyError(f"no cells for fault rate {rate}")
        counts = ConfusionCounts()
        for cell in cells:
            counts.add(ConfusionCounts(tp=cell.tp, fp=cell.fp, fn=cell.fn))
        return {
            "rate": rate,
            "bugs_detected": sum(cell.bugs_detected for cell in cells),
            "precision": counts.precision,
            "recall": counts.recall,
            "overhead_percent": (
                sum(cell.overhead_percent for cell in cells) / len(cells)
            ),
            "counter_read_failures": sum(
                cell.counter_read_failures for cell in cells
            ),
            "trace_failures": sum(cell.trace_failures for cell in cells),
            "degraded": sum(1 for cell in cells if cell.degraded),
            "quarantined": sum(cell.quarantined for cell in cells),
            "recovered": sum(1 for cell in cells if cell.state_recovered),
            "faults_fired": sum(cell.faults_fired for cell in cells),
        }

    def baseline(self):
        """The fault-free (lowest-rate) row the curve is read against."""
        return self.row(min(self.rates))

    def render(self):
        """ASCII rendering: the degradation curve vs the rate-0 row."""
        headers = ("rate", "bugs", "precision", "recall", "overhead%",
                   "ctr-fail", "trc-fail", "degraded", "quarant.",
                   "recovered")
        rows = []
        for rate in self.rates:
            row = self.row(rate)
            rows.append((
                f"{rate:g}", row["bugs_detected"],
                round(row["precision"], 3), round(row["recall"], 3),
                round(row["overhead_percent"], 3),
                row["counter_read_failures"], row["trace_failures"],
                row["degraded"], row["quarantined"], row["recovered"],
            ))
        table = render_table(
            headers, rows,
            title=(
                f"Chaos sweep - {len(self.apps)} apps, "
                f"fault rates {[f'{r:g}' for r in self.rates]}"
            ),
        )
        base = self.baseline()
        worst = self.row(max(self.rates))
        return (
            f"{table}\n"
            f"degradation at rate {max(self.rates):g} vs fault-free: "
            f"precision {base['precision']:.3f} -> "
            f"{worst['precision']:.3f}, "
            f"recall {base['recall']:.3f} -> {worst['recall']:.3f}, "
            f"bugs {base['bugs_detected']} -> {worst['bugs_detected']}; "
            f"no run crashed - every fault was absorbed as degradation"
        )


def _chaos_cell(payload):
    """Deploy Hang Doctor on one app at one fault rate (module-level so
    the process pool can pickle it); returns a :class:`ChaosCell`.

    Mirrors :func:`repro.harness.exp_fleet._run_fleet_app` exactly —
    same seed and session structure, and the engine comes from the
    same :func:`~repro.harness.exp_fleet.doctor_engine` — so the rate-0
    cell reproduces the fleet study's fault-free numbers bit-for-bit.
    """
    device, seed, rate, app_name, users, actions_per_user = payload
    tel = telemetry()
    with tel.track(f"chaos/rate{rate:g}/{app_name}"):
        tel.count("chaos.cells")
        app = get_app(app_name)
        plan = FaultPlan.uniform(rate)
        app_seed = fleet_app_seed(seed, app_name)
        engine = doctor_engine(device, app_seed)
        doctor = HangDoctor(app, device, seed=app_seed, faults=plan)
        generator = SessionGenerator(seed=seed)
        runs = []
        for session in generator.fleet_sessions(app, users,
                                                actions_per_user):
            executions = engine.run_session(
                app, session.action_names, gap_ms=1000.0
            )
            runs.append(run_detector(doctor, executions,
                                     device_id=session.user_id))
        run = DetectorRun.merge(runs)
        counts = run.confusion()
        # End-of-deployment upload: persist the report and reload it
        # through the same fault injector (a crash mid-write corrupts
        # the file at persistence_corrupt_rate).
        restored = load_report(report_to_json(doctor.report), app.name,
                               faults=doctor.faults)
    return ChaosCell(
        rate=rate,
        app_name=app_name,
        bugs_detected=len(detected_bug_sites(app, run.detections)),
        tp=counts.tp,
        fp=counts.fp,
        fn=counts.fn,
        overhead_percent=run.overhead().average_percent,
        counter_read_failures=run.cost.counter_read_failures,
        trace_failures=run.cost.trace_failures,
        degraded=doctor.degraded,
        quarantined=len(doctor.diagnoser.quarantined_actions()),
        state_recovered=restored.recovered_from_corruption,
        faults_fired=(
            doctor.faults.fired_total() if doctor.faults is not None else 0
        ),
    )


def chaos_sweep(device, seed=0, rates=DEFAULT_RATES, apps=None, users=2,
                actions_per_user=40, workers=1, checkpoint=None,
                resume=False, report=None, executor_faults=None):
    """Sweep fault rates over a fleet of apps; returns a ChaosResult.

    ``workers`` shards the sweep per (rate, app) through the
    supervised pool; every cell is a pure function of its payload, so
    any worker count yields byte-identical output.  ``checkpoint``
    names a journal directory where each completed cell is persisted
    the moment it finishes; with ``resume`` a restarted sweep skips
    the journaled cells, and the merged result is byte-identical to an
    uninterrupted run.  ``report`` (an
    :class:`~repro.parallel.ExecutionReport`) collects supervision
    events — it is also attached to the result as ``execution``.
    ``executor_faults`` is a :class:`~repro.faults.FaultInjector`
    whose ``worker_kill``/``shard_stall`` channels stress the
    supervisor itself.
    """
    apps = tuple(apps) if apps else CHAOS_APPS
    rates = tuple(rates)
    if not rates:
        raise ValueError("need at least one fault rate")
    if report is None:
        report = ExecutionReport()
    shards = [
        (device, seed, rate, app_name, users, actions_per_user)
        for rate in rates
        for app_name in apps
    ]
    keys = [f"{rate!r}|{app_name}" for rate in rates for app_name in apps]
    journal = None
    if checkpoint is not None:
        journal = ShardJournal(
            checkpoint,
            run_key("chaos", device.name, seed, rates, apps, users,
                    actions_per_user),
            faults=executor_faults,
            report=report,
        ).open(resume=resume)
    elif resume:
        raise ValueError("resume requires a checkpoint directory")
    cells = checkpointed_map(_chaos_cell, shards, keys, journal,
                             workers=workers, report=report,
                             faults=executor_faults)
    return ChaosResult(cells=list(cells), rates=rates, apps=apps,
                       execution=report)

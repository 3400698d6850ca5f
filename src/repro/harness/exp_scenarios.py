"""Scenario sweep: per-archetype detection quality over generated fleets.

Deploys Hang Doctor on a taxonomy-generated fleet
(:mod:`repro.scenarios`) exactly the way the Table 5 study deploys it
on the paper corpus — per-app seeds via
:func:`~repro.harness.exp_fleet.fleet_app_seed`, engines from
:func:`~repro.harness.exp_fleet.doctor_engine`, the same session
generator, one :func:`~repro.detectors.runner.run_detector` pass per
user — and scores every app against its archetype's ground truth,
producing a precision/recall/false-positive table per archetype.

Scoring (all at the granularity the paper's Table 5 uses):

* **TP** — distinct ground-truth bug *sites* a detection named
  (:func:`~repro.analysis.metrics.detected_bug_sites`).
* **FN** — ground-truth sites never named.
* **FP** — distinct *actions* blamed without a real bug root
  (:func:`~repro.analysis.metrics.false_positive_actions`).
* **apps flagged** / **FPR** — bug-free apps with at least one
  detection, as a fraction of the archetype's apps; the number the
  ``render_jank_benign`` archetype exists to pressure.

The sweep decomposes at app granularity: fleet generation is
index-addressable and every app's run is a pure function of (device,
root seed, app).  Shards pack by *weight*, not count — archetypes
cost different amounts to simulate, so the elastic scheduler's cost
model (:mod:`repro.sched.cost`) prices each index by its archetype
and :func:`~repro.sched.pack_by_weight` balances the load across
workers.  Merging sorts cells back into fleet order, so any
``--workers`` count, packing, checkpoint resume, or repeat run
renders byte-identical output.
"""

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.analysis.metrics import (
    detected_bug_sites,
    false_positive_actions,
)
from repro.apps.sessions import SessionGenerator
from repro.checkpoint import ShardJournal, checkpointed_map, run_key
from repro.core.blocking_db import BlockingApiDatabase
from repro.core.hang_doctor import HangDoctor
from repro.detectors.offline import OfflineScanner
from repro.detectors.runner import run_detector
from repro.harness.exp_fleet import doctor_engine, fleet_app_seed
from repro.harness.tables import render_table
from repro.parallel import ExecutionReport, resolve_workers
from repro.scenarios import (
    ARCHETYPES,
    DEFAULT_MIX,
    TAXONOMY,
    assign_archetypes,
    generate_fleet,
    parse_mix,
    render_mix,
)
from repro.sched import CostModel, pack_by_weight
from repro.telemetry import current as telemetry


@dataclass(frozen=True)
class ScenarioCell:
    """One app's deployment outcome."""

    index: int
    archetype: str
    app_name: str
    #: Ground-truth hang-bug sites in the app.
    truth_sites: int
    #: Distinct ground-truth sites detections named (TP).
    detected_sites: int
    #: Of the detected sites, how many an offline scan also finds.
    offline_sites: int
    #: Distinct actions blamed without a real bug root (FP).
    fp_actions: int
    #: Soft hangs observed across the deployment (context column).
    hangs: int
    detections: int


@dataclass
class ScenarioResult:
    """The full fleet sweep, labelled per archetype."""

    cells: List[ScenarioCell]
    size: int
    #: Normalized ``((archetype, fraction), ...)`` mix.
    mix: Tuple[Tuple[str, float], ...]
    users: int
    actions_per_user: int
    #: How the sweep actually executed; advisory — never rendered.
    execution: Optional[ExecutionReport] = field(
        default=None, compare=False, repr=False
    )

    @classmethod
    def merge(cls, parts):
        """Recombine shard results into fleet order.

        Shards are weight-balanced index *sets* (not contiguous
        slices), so cells are sorted by fleet index — which makes the
        merge independent of packing, worker count, and part order.
        """
        parts = list(parts)
        if not parts:
            raise ValueError("need at least one ScenarioResult to merge")
        cells = []
        for part in parts:
            cells.extend(part.cells)
        cells.sort(key=lambda cell: cell.index)
        first = parts[0]
        return cls(
            cells=cells, size=first.size, mix=first.mix,
            users=first.users, actions_per_user=first.actions_per_user,
        )

    def archetypes(self):
        """Archetype names present, in taxonomy order."""
        present = {cell.archetype for cell in self.cells}
        return [a.name for a in TAXONOMY if a.name in present]

    def row(self, archetype):
        """Aggregate one archetype's cells."""
        cells = [c for c in self.cells if c.archetype == archetype]
        if not cells:
            raise KeyError(f"no cells for archetype {archetype!r}")
        tp = sum(c.detected_sites for c in cells)
        truth = sum(c.truth_sites for c in cells)
        fp = sum(c.fp_actions for c in cells)
        clean_apps = [c for c in cells if c.truth_sites == 0]
        flagged = sum(
            1 for c in clean_apps if c.detections or c.fp_actions
        )
        return {
            "archetype": archetype,
            "apps": len(cells),
            "truth": truth,
            "tp": tp,
            "fn": truth - tp,
            "fp": fp,
            "precision": tp / (tp + fp) if tp + fp else float("nan"),
            "recall": tp / truth if truth else float("nan"),
            "apps_flagged": flagged,
            "fpr": (
                flagged / len(clean_apps) if clean_apps else float("nan")
            ),
            "hangs": sum(c.hangs for c in cells),
            "offline": sum(c.offline_sites for c in cells),
        }

    @staticmethod
    def _ratio(value):
        return "n/a" if math.isnan(value) else f"{value:.3f}"

    def render(self):
        """ASCII rendering: one row per archetype plus a TOTAL row."""
        headers = ("archetype", "apps", "truth", "TP", "FN", "FP",
                   "precision", "recall", "flagged", "FPR", "hangs")
        rows = []
        totals = {"apps": 0, "truth": 0, "tp": 0, "fp": 0, "hangs": 0,
                  "apps_flagged": 0, "offline": 0}
        for archetype in self.archetypes():
            row = self.row(archetype)
            for key in totals:
                totals[key] += row[key]
            rows.append((
                archetype, row["apps"], row["truth"], row["tp"],
                row["fn"], row["fp"], self._ratio(row["precision"]),
                self._ratio(row["recall"]), row["apps_flagged"],
                self._ratio(row["fpr"]), row["hangs"],
            ))
        tp, fp = totals["tp"], totals["fp"]
        truth = totals["truth"]
        rows.append((
            "TOTAL", totals["apps"], truth, tp, truth - tp, fp,
            self._ratio(tp / (tp + fp) if tp + fp else float("nan")),
            self._ratio(tp / truth if truth else float("nan")),
            totals["apps_flagged"], "", totals["hangs"],
        ))
        table = render_table(
            headers, rows,
            title=(
                f"Scenario sweep - {self.size} apps, "
                f"mix {render_mix(self.mix)}"
            ),
        )
        offline = totals["offline"]
        offline_share = (
            "n/a" if not tp else f"{100.0 * (tp - offline) / tp:.0f}%"
        )
        return (
            f"{table}\n"
            f"{offline_share} of detected bug sites are invisible to "
            f"offline scanning; benign-archetype apps wrongly flagged: "
            f"{totals['apps_flagged']}"
        )


def _run_scenario_app(entry, device, seed, users, actions_per_user,
                      config, generator, scanner, blocking_db):
    """Deploy Hang Doctor on one generated app; returns a ScenarioCell.

    Mirrors :func:`repro.harness.exp_fleet._run_fleet_app` — same
    seed and session structure, and the engine comes from the same
    :func:`~repro.harness.exp_fleet.doctor_engine` — so scenario
    numbers are directly comparable to the Table 5 fleet study's.
    """
    app = entry.app
    app_seed = fleet_app_seed(seed, app.name)
    engine = doctor_engine(device, app_seed, config)
    doctor = HangDoctor(
        app, device, config=config, blocking_db=blocking_db,
        seed=app_seed,
    )
    detections = []
    hangs = 0
    for session in generator.fleet_sessions(app, users, actions_per_user):
        executions = engine.run_session(
            app, session.action_names, gap_ms=1000.0
        )
        run = run_detector(doctor, executions, device_id=session.user_id)
        detections.extend(run.detections)
        hangs += sum(
            1 for execution in executions if execution.has_soft_hang
        )
    detected = detected_bug_sites(app, detections)
    offline = scanner.detected_sites(app)
    return ScenarioCell(
        index=entry.index,
        archetype=entry.archetype,
        app_name=app.name,
        truth_sites=len(app.hang_bug_operations()),
        detected_sites=len(detected),
        offline_sites=len(detected & offline),
        fp_actions=len(false_positive_actions(app, detections)),
        hangs=hangs,
        detections=len(detections),
    )


def _scenario_shard(payload):
    """Run one contiguous slice of the fleet (module-level so the
    process pool can pickle it); returns a partial ScenarioResult."""
    (device, seed, size, mix, users, actions_per_user, config,
     indices) = payload
    fleet = generate_fleet(size, mix=mix, seed=seed, indices=indices)
    generator = SessionGenerator(seed=seed)
    blocking_db = BlockingApiDatabase.initial()
    scanner = OfflineScanner(
        blocking_db=BlockingApiDatabase(blocking_db.names())
    )
    cells = []
    tel = telemetry()
    for entry in fleet:
        # Track per app, not per shard: shards are worker-count
        # slices, so shard-derived names would break trace
        # byte-identity across --workers.
        with tel.track(f"scenarios/{entry.app.name}"):
            tel.count("scenarios.apps.run")
            cells.append(_run_scenario_app(
                entry, device, seed, users, actions_per_user, config,
                generator, scanner, blocking_db,
            ))
    return ScenarioResult(
        cells=cells, size=size, mix=mix, users=users,
        actions_per_user=actions_per_user,
    )


def scenario_sweep(device, seed=0, size=1000, mix=DEFAULT_MIX, users=2,
                   actions_per_user=12, config=None, workers=1,
                   checkpoint=None, resume=False, report=None):
    """Sweep a generated scenario fleet; returns a ScenarioResult.

    ``size`` and ``mix`` parameterize the fleet (see
    :func:`repro.scenarios.parse_mix` for the mix syntax).  ``workers``
    shards the fleet through the supervised pool as *weight-balanced*
    index sets: each index is priced by its archetype through the
    scheduler's cost model, so a worker drawing the expensive
    archetypes gets fewer apps.  Per-app seeds and index-addressable
    generation make every cell a pure function of its payload, and the
    merge sorts by index, so any worker count yields byte-identical
    output.  ``checkpoint``/``resume`` journal completed shards the
    moment they finish, exactly like the other sweeps; shards are
    worker-count packings, so a resume only reuses the journal when
    ``workers`` matches.
    """
    mix = parse_mix(mix)
    if size <= 0:
        raise ValueError("size must be positive")
    if report is None:
        report = ExecutionReport()
    assignment = assign_archetypes(mix, size)
    cost_model = CostModel.from_trajectory()
    weights = [
        cost_model.archetype_weight(assignment[index][0])
        for index in range(size)
    ]
    groups = pack_by_weight(weights, resolve_workers(workers))
    shards = [
        (device, seed, size, mix, users, actions_per_user, config,
         indices)
        for indices in groups
    ]
    keys = [
        f"sc|{indices[0]}-{indices[-1]}x{len(indices)}"
        for indices in groups
    ]
    journal = None
    if checkpoint is not None:
        journal = ShardJournal(
            checkpoint,
            run_key("scenarios", device.name, seed, size, repr(mix),
                    users, actions_per_user, repr(config),
                    resolve_workers(workers)),
            report=report,
        ).open(resume=resume)
    elif resume:
        raise ValueError("resume requires a checkpoint directory")
    parts = checkpointed_map(_scenario_shard, shards, keys, journal,
                             workers=workers, report=report)
    result = ScenarioResult.merge(parts)
    result.execution = report
    return result


#: Re-exported for callers that want to label results themselves.
ARCHETYPE_NAMES = tuple(a.name for a in TAXONOMY)

__all__ = [
    "ARCHETYPES",
    "ARCHETYPE_NAMES",
    "ScenarioCell",
    "ScenarioResult",
    "scenario_sweep",
]

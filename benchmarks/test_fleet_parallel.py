"""Fleet-throughput benchmark for the parallel runner.

Not a paper artifact: measures a scaled-down Table 5 run end to end,
serial and sharded, and asserts the headline guarantee of
:mod:`repro.parallel` — worker count never changes the rendered
output.  (On a single-core box the sharded run is not expected to be
faster; the benchmark exists to catch regressions in per-app cost and
in the merge path, and to exercise the pool on machines that have
one.)
"""

import pytest

from repro.harness.exp_fleet import table5

FLEET_KWARGS = dict(seed=0, users=1, actions_per_user=10, corpus_size=22)


def test_fleet_serial_throughput(benchmark, device):
    result = benchmark(lambda: table5(device, workers=1, **FLEET_KWARGS))
    assert result.apps_tested == FLEET_KWARGS["corpus_size"]


def test_fleet_sharded_throughput(benchmark, device):
    result = benchmark(lambda: table5(device, workers=2, **FLEET_KWARGS))
    assert result.apps_tested == FLEET_KWARGS["corpus_size"]


def test_fleet_sharded_output_identical(device):
    serial = table5(device, workers=1, **FLEET_KWARGS)
    sharded = table5(device, workers=4, **FLEET_KWARGS)
    assert sharded.render() == serial.render()


def test_fleet_trajectory(device, bench_record):
    """Record the scaled Table 5 fleet wall time for the perf
    trajectory (BENCH_fleet.json).

    Absolute wall times are machine-dependent, so these entries are
    informational (tolerance=None) — the gating ratios live in
    BENCH_engine.json.  The serial/sharded pair is still worth
    tracking: a regression in the shard-merge path shows up here first.
    """
    import time

    def best_seconds(workers, reps=3):
        best = float("inf")
        for _ in range(reps):
            started = time.perf_counter()
            result = table5(device, workers=workers, **FLEET_KWARGS)
            best = min(best, time.perf_counter() - started)
            assert result.apps_tested == FLEET_KWARGS["corpus_size"]
        return best, result.actions_executed

    serial, total_actions = best_seconds(1)
    sharded, sharded_actions = best_seconds(2)
    # Clean apps run fewer sessions, so fewer actions execute than
    # users x actions x apps.
    assert sharded_actions == total_actions
    assert 0 < total_actions < (
        FLEET_KWARGS["users"] * FLEET_KWARGS["actions_per_user"]
        * FLEET_KWARGS["corpus_size"]
    )
    bench_record(
        "fleet", "table5.serial_s", serial,
        unit="s", higher_is_better=False, tolerance=None,
    )
    bench_record(
        "fleet", "table5.sharded_s", sharded,
        unit="s", higher_is_better=False, tolerance=None,
    )
    bench_record(
        "fleet", "table5.serial_actions_per_s", total_actions / serial,
        unit="actions/s", higher_is_better=True, tolerance=None,
    )

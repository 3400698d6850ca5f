"""Every harness that deploys Hang Doctor runs its engines on the
detector's filter events.

S-Checker reads only ``HangDoctorConfig.filter_events()``, so the
fleet, chaos, crowd, stream and scenario harnesses build their engines
through :func:`~repro.harness.exp_fleet.doctor_engine`, which restricts
the counter model to exactly that set.  These tests spy on every
engine construction (whatever name the harness looks the class up
under) and check the event set each one was built with — including a
non-default config threaded through ``table5`` and the scenario sweep.
"""

import pytest

from repro.core.config import HangDoctorConfig
from repro.core.schecker import SChecker
from repro.harness.exp_chaos import chaos_sweep
from repro.harness.exp_crowd import crowd_sweep
from repro.harness.exp_fleet import doctor_engine, table5
from repro.harness.exp_scenarios import scenario_sweep
from repro.harness.exp_stream import stream_sweep
from repro.sim.engine import ExecutionEngine, NETWORK_BYTES_EVENT
from tests.helpers import run_until
from tests.test_extensions import network_app

#: Two filter events instead of the paper's three.
TWO_EVENTS = HangDoctorConfig(
    filter_thresholds={"task-clock": 1.2e8, "page-faults": 250.0}
)

APPS = ("K9-mail",)


@pytest.fixture()
def built(monkeypatch):
    """Event sets of every engine constructed while the test runs."""
    events = []
    init = ExecutionEngine.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        events.append(self.counter_model.events)

    monkeypatch.setattr(ExecutionEngine, "__init__", spy)
    return events


def _assert_filter_only(built, config):
    assert built, "the harness built no engine"
    assert set(built) == {config.filter_events()}


def test_fleet_engines_use_filter_events(device, built):
    table5(device, users=1, actions_per_user=3, corpus_size=22, workers=1)
    _assert_filter_only(built, HangDoctorConfig())


def test_chaos_engines_use_filter_events(device, built):
    chaos_sweep(device, rates=(0.0, 0.3), apps=APPS, users=1,
                actions_per_user=3, workers=1)
    _assert_filter_only(built, HangDoctorConfig())


def test_crowd_engines_use_filter_events(device, built):
    crowd_sweep(device, fleet_sizes=(2,), rounds=1, apps=APPS,
                actions_per_round=3, workers=1)
    _assert_filter_only(built, HangDoctorConfig())


def test_stream_engines_use_filter_events(device, built):
    stream_sweep(device, rounds=2, fleet_size=2, apps=APPS,
                 actions_per_round=3, workers=1)
    _assert_filter_only(built, HangDoctorConfig())


def test_scenario_engines_use_filter_events(device, built):
    scenario_sweep(device, size=4, users=1, actions_per_user=3, workers=1)
    _assert_filter_only(built, HangDoctorConfig())


def test_fleet_engines_follow_config(device, built):
    table5(device, users=1, actions_per_user=3, corpus_size=22,
           config=TWO_EVENTS, workers=1)
    _assert_filter_only(built, TWO_EVENTS)
    assert len(built[0]) == 2


def test_scenario_engines_follow_config(device, built):
    scenario_sweep(device, size=4, users=1, actions_per_user=3,
                   config=TWO_EVENTS, workers=1)
    _assert_filter_only(built, TWO_EVENTS)


def test_network_extension_fires_on_doctor_engine(device):
    """Footnote 2: main-thread network bytes reach S-Checker on a
    filter-only engine, although no counter event asks for them."""
    config = HangDoctorConfig(network_threshold_bytes=1000.0)
    engine = doctor_engine(device, 3, config)
    assert engine.counter_model.events == config.filter_events()
    execution = run_until(engine, network_app(), "fetch_feed",
                          lambda ex: ex.bug_caused_hang())
    check = SChecker(config, device).check(execution)
    assert check.values[NETWORK_BYTES_EVENT] > 0
    assert check.fired[NETWORK_BYTES_EVENT]
    assert check.symptomatic

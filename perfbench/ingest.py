"""The ingest workload: ``repro serve`` under an open-loop upload
schedule.

The server runs as a child process (``python3 -m repro serve``),
started on a snapshot of ``PRELOAD`` batches.  This process sends the
next ``synthetic_fleet_batches`` uploads through ``ServeClient`` on a
fixed schedule, ``RATE_PER_S`` uploads per second with at most
``CONNECTIONS`` in flight: an upload that finds both connections busy
waits, and its latency runs from when it was due to its ack, so a stall
is charged to every upload it delays.  The rate stays well below what
two connections can carry on a quiet host, so the tail measures stalls
(WAL fsync, snapshot publish) rather than an overload backlog.
"""

import asyncio
import os
import pathlib
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

from stats import percentile, tail
from tracing import Tracer
from workloads import Measurement

#: Uploads per second of the measured schedule.
RATE_PER_S = 150.0

#: Uploads in flight at most (one connection each).
CONNECTIONS = 2

#: Batches the server already holds when the schedule starts (written
#: as its snapshot, recovered at start-up): a server that has run for a
#: while, whose publishes (one per 512 acks, the default) all cost about
#: the same, so the op tail rests on several publish stalls instead of
#: on the last, largest one of a fresh server.
PRELOAD = 4000

#: Sustained-rate ladder (uploads per second), climbed in order.
LADDER = (250.0, 500.0, 750.0, 1000.0, 1250.0, 1500.0)

#: Seconds each ladder step runs.
LADDER_STEP_S = 2.0

#: A ladder step passes when its op tail stays within this limit ...
LADDER_TAIL_LIMIT_MS = 250.0

#: ... and the generator ends the step no later than this behind.
LADDER_LATE_LIMIT_MS = 50.0

#: Idle seconds before the next upload is due that a calibration
#: chunk needs.
CHUNK_SLACK_S = 0.002

#: Seconds allowed for the server to come up, or to drain and exit.
SERVER_TIMEOUT_S = 60.0

_READY = re.compile(r"serving on (\S+):(\d+)")


class Server:
    """One ``repro serve`` child process on a fresh state directory."""

    def __init__(self, root, state_dir, snapshot=None):
        self.state_dir = pathlib.Path(state_dir)
        shutil.rmtree(self.state_dir, ignore_errors=True)
        self.state_dir.mkdir(parents=True)
        if snapshot is not None:
            (self.state_dir / "snapshot.json").write_text(snapshot)
        env = dict(os.environ)
        src = str(pathlib.Path(root) / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else src
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(self.state_dir),
             "--port", "0"],
            cwd=str(root), env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        try:
            self.host, self.port = self._wait_ready()
        except BaseException:
            self.kill()
            raise

    def _wait_ready(self):
        deadline = time.monotonic() + SERVER_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                match = _READY.search(line)
                if match:
                    return match.group(1), int(match.group(2))
        raise RuntimeError("repro serve did not come up")

    def peak_rss_mb(self):
        """The server's peak resident set so far, in MiB."""
        status = pathlib.Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        return int(match.group(1)) / 1024.0

    def stop(self):
        """Drain (SIGTERM publishes the final snapshot) and wait."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=SERVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("repro serve did not drain in time")
        return self.proc.returncode

    def kill(self):
        """Stop the child without draining and reap it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()

    def snapshot_bytes(self):
        """The published snapshot, as written."""
        path = self.state_dir / "snapshot.json"
        return path.read_bytes() if path.exists() else b""

    def remove(self):
        """Delete the state directory."""
        shutil.rmtree(self.state_dir, ignore_errors=True)


def fleet_batches(seed, count):
    """The first *count* uploads of the synthetic fleet for *seed*:
    one round per device, as many devices as it takes."""
    from repro.serve.loadgen import synthetic_fleet_batches

    batches = []
    devices = 0
    while len(batches) < count:
        extra = max(16, (count - len(batches)) // 2)
        fleet = synthetic_fleet_batches(seed, devices + extra, 1)
        batches = [batch for _, device in fleet for batch in device]
        devices += extra
    return batches[:count]


def preload_snapshot(seed):
    """The server's starting state: the snapshot of the first
    ``PRELOAD`` uploads of the synthetic fleet."""
    from repro.serve.loadgen import baseline_snapshot_json

    return baseline_snapshot_json([(0, fleet_batches(seed, PRELOAD))])


async def _drive(host, port, batches, rate, seed, tracer):
    """Send *batches* on the open-loop schedule; returns the per-upload
    record and the merged client stats.  *tracer* gets one
    ``serve.gen`` span (due to sent) and one ``serve.upload`` span
    (sent to ack) per upload."""
    from repro.base.rng import substream_seed
    from repro.serve.client import ClientStats, DeliveryError, ServeClient

    clients = [
        ServeClient(host, port,
                    seed=substream_seed(seed, "perfbench-slot", slot),
                    key=f"slot{slot}")
        for slot in range(CONNECTIONS)
    ]
    free = asyncio.Queue()
    for client in clients:
        free.put_nowait(client)
    count = len(batches)
    latency_ms = [None] * count
    send_ms = [None] * count
    due_at = [None] * count
    late_ms = []
    backlog_max = 0
    undelivered = []
    clock = time.perf_counter
    start = clock() + 0.05

    async def upload(index, client, due, sent):
        try:
            await client.upload(batches[index])
            now = clock()
            latency_ms[index] = (now - due) * 1000.0
            due_at[index] = due
            send_ms[index] = (now - sent) * 1000.0
            tracer.add("serve.gen", due, sent, index)
            tracer.add("serve.upload", sent, now, index)
        except DeliveryError:
            undelivered.append(batches[index].batch_id)
        finally:
            free.put_nowait(client)

    tasks = []
    speed = tracer.speed
    speed.reset()
    for index in range(count):
        due = start + index / rate
        if due - clock() > CHUNK_SLACK_S and speed.due():
            # Calibrate in the generator's idle time only, so no upload
            # is sent late because of it.
            speed.chunk()
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        client = await free.get()
        sent = clock()
        late_ms.append((sent - due) * 1000.0)
        # Uploads already due but not yet sent.
        backlog_max = max(backlog_max,
                          int((sent - start) * rate) - index)
        tasks.append(asyncio.ensure_future(upload(index, client, due, sent)))
    await asyncio.gather(*tasks)
    wall_s = clock() - start
    stats = ClientStats()
    for client in clients:
        stats.merge(client.stats)
    return {
        "wall_s": wall_s,
        "latency_ms": [v for v in latency_ms if v is not None],
        "due_at": [v for v in due_at if v is not None],
        "send_ms": [v for v in send_ms if v is not None],
        "late_ms": late_ms,
        "backlog_max": backlog_max,
        "undelivered": undelivered,
        "stats": stats,
    }


async def _query(host, port):
    from repro.serve.client import ServeClient

    client = ServeClient(host, port)
    stats = await client.get("/v1/stats")
    _, exposition = await client.get_raw("/metrics")
    return stats, exposition


def handler_p50_ms(exposition):
    """Median ``/v1/batches`` 2xx handler time from the ``/metrics``
    histogram, interpolated linearly inside its bucket."""
    buckets = []
    pattern = re.compile(
        r'^serve_http_latency_ms_bucket\{(?P<labels>[^}]*)\} (?P<n>\S+)$')
    for line in exposition.splitlines():
        match = pattern.match(line)
        if not match:
            continue
        labels = dict(re.findall(r'(\w+)="([^"]*)"', match.group("labels")))
        if labels.get("route") != "/v1/batches" or \
                labels.get("status") != "2xx":
            continue
        bound = labels["le"]
        buckets.append((float("inf") if bound == "+Inf" else float(bound),
                        float(match.group("n"))))
    if not buckets:
        return 0.0
    buckets.sort()
    total = buckets[-1][1]
    lower, below = 0.0, 0.0
    for bound, cumulative in buckets:
        if cumulative >= total / 2.0:
            if bound == float("inf") or cumulative == below:
                return lower
            return lower + (bound - lower) * (
                (total / 2.0 - below) / (cumulative - below))
        lower, below = bound, cumulative
    return lower


def _run_schedule(root, out_dir, name, batches, rate, seed, tracer,
                  snapshot=None):
    """One server (started from *snapshot*, if given), one schedule;
    returns (drive record, server stats, exposition, server peak RSS,
    final snapshot bytes)."""
    server = Server(root, pathlib.Path(out_dir) / name, snapshot)
    try:
        record = asyncio.run(
            _drive(server.host, server.port, batches, rate, seed, tracer))
        stats, exposition = asyncio.run(_query(server.host, server.port))
        rss_mb = server.peak_rss_mb()
        code = server.stop()
        if code != 0:
            raise RuntimeError(f"repro serve exited with {code}")
        snapshot = server.snapshot_bytes()
    except BaseException:
        server.kill()
        raise
    finally:
        server.remove()
    return record, stats, exposition, rss_mb, snapshot


def measure_ingest(seed, seconds, traced, root, out_dir):
    """Upload ``RATE_PER_S * seconds`` batches on the schedule; an op is
    one upload (due to ack) and the throughput unit is one ack."""
    from repro.serve.loadgen import baseline_snapshot_json

    count = int(round(RATE_PER_S * seconds))
    everything = fleet_batches(seed, PRELOAD + count)
    batches = everything[PRELOAD:]
    measurement = Measurement(tracer=Tracer(traced))
    record, stats, exposition, rss_mb, snapshot = _run_schedule(
        root, out_dir, f"serve-{os.getpid()}", batches, RATE_PER_S, seed,
        measurement.tracer, preload_snapshot(seed))
    # The schedule fixes the wall time, so only op latencies are
    # host-normalised.
    speed = measurement.tracer.speed
    measurement.pass_s = measurement.pass_raw_s = [record["wall_s"]]
    measurement.factors = [speed.factor()]
    measurement.pass_units = [len(record["latency_ms"])]
    measurement.op_raw_ms = record["latency_ms"]
    measurement.op_ms = [
        value / local for value, local in
        zip(record["latency_ms"], speed.local_factors(record["due_at"]))]
    measurement.attempted = count
    measurement.failed = len(record["undelivered"])
    measurement.peak_rss_mb = rss_mb
    if record["undelivered"]:
        measurement.errors.append(
            f"ingest: {len(record['undelivered'])} uploads undelivered")
    # Outside the timed schedule: the published snapshot must equal
    # the batch path over the same uploads, byte for byte.
    baseline = baseline_snapshot_json([(0, everything)]).encode("utf-8")
    if snapshot != baseline:
        measurement.errors.append(
            "ingest: final snapshot differs from baseline_snapshot_json")
        measurement.failed = count
    if traced:
        client = record["stats"]
        handler = handler_p50_ms(exposition)
        measurement.layers = {
            "serve.gen.late_p50_ms": statistics.median(record["late_ms"]),
            "serve.gen.late_max_ms": max(record["late_ms"]),
            "serve.gen.backlog_max": float(record["backlog_max"]),
            "serve.client.attempts": float(client.attempts),
            "serve.client.retries": float(client.retries),
            "serve.client.shed": float(client.shed_429),
            "serve.ingested": float(stats["ingested"]),
            "serve.duplicates": float(stats["duplicates"]),
            "serve.publishes": float(stats["publishes"]),
            "serve.write_failures": float(stats["write_failures"]),
            "serve.handler_p50_ms": handler,
            "serve.wait_ms": statistics.median(record["send_ms"]) - handler,
        }
    return measurement


def sustained_rate(seed, root, out_dir, min_ops):
    """Highest ``LADDER`` rate whose step keeps its op tail within
    ``LADDER_TAIL_LIMIT_MS``, ends no more than ``LADDER_LATE_LIMIT_MS``
    behind schedule, and loses or sheds no upload.  Each step runs on
    a fresh server; 0 if even the lowest step fails.  Returns the rate
    and one row per step tried."""
    rows = []
    best = 0.0
    offset = 0
    everything = fleet_batches(seed, int(sum(LADDER) * LADDER_STEP_S))
    for rate in LADDER:
        count = int(rate * LADDER_STEP_S)
        batches = everything[offset:offset + count]
        offset += count
        record, _, _, _, _ = _run_schedule(
            root, out_dir, f"ladder-{os.getpid()}", batches, rate, seed,
            Tracer(False))
        value, pct, _ = tail(record["latency_ms"], min_ops)
        late_end = max(record["late_ms"][-max(1, count // 10):])
        ok = (value <= LADDER_TAIL_LIMIT_MS
              and late_end <= LADDER_LATE_LIMIT_MS
              and not record["undelivered"]
              and record["stats"].shed_429 == 0)
        rows.append({"rate": rate, "tail_ms": value, "tail_pct": pct,
                     "p50_ms": percentile(record["latency_ms"], 50.0),
                     "late_end_ms": late_end, "ok": ok})
        if not ok:
            break
        best = rate
    return best, rows


def setup_state(out_dir, seed):
    """A state directory holding the preloaded snapshot, for the set-up
    probes to recover."""
    path = pathlib.Path(out_dir) / f"setup-seed{seed}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    (path / "snapshot.json").write_text(preload_snapshot(seed))
    return path


def probe_ingest(state_dir):
    """The server's set-up, as ``repro serve`` does it before it
    listens: import the service and recover the state in *state_dir*."""
    from repro.serve import IngestService  # noqa: F401
    from repro.serve.state import ServiceState

    ServiceState(state_dir).recover().close()

"""Unit tests for the observability layer (repro.obs)."""

import json

from repro.bench.report import read_jsonl, write_jsonl
from repro.metrics import MetricsRegistry
from repro.obs import (
    EVENT_FIRED,
    NET_DELIVER,
    NET_ENQUEUE,
    SERVER_BUSY,
    JsonlTraceWriter,
    ObsSession,
    ProbeBus,
    SimProfiler,
)
from repro.ringpaxos import build_ring
from repro.sim import Network, Simulator
from repro.sim.server import FifoServer


# ---------------------------------------------------------------------------
# ProbeBus
# ---------------------------------------------------------------------------
def test_probe_bus_routes_by_kind():
    bus = ProbeBus()
    enqueues, everything = [], []
    bus.subscribe(enqueues.append, kind=NET_ENQUEUE)
    bus.subscribe(everything.append)
    bus.emit(NET_ENQUEUE, 1.0, "n0", dst="n1", size=64)
    bus.emit(NET_DELIVER, 2.0, "n1", src="n0", size=64)
    assert [e.kind for e in enqueues] == [NET_ENQUEUE]
    assert [e.kind for e in everything] == [NET_ENQUEUE, NET_DELIVER]
    assert enqueues[0].data["dst"] == "n1"
    assert enqueues[0].as_record()["type"] == "probe"


def test_probe_bus_unsubscribe_and_counters():
    bus = ProbeBus()
    seen = []
    remove = bus.subscribe(seen.append, kind=EVENT_FIRED)
    assert bus.has_subscribers
    bus.emit(EVENT_FIRED, 0.0, "fn")
    remove()
    assert not bus.has_subscribers
    bus.emit(EVENT_FIRED, 1.0, "fn")  # nobody listening: not even counted
    assert len(seen) == 1
    assert bus.events_emitted == 1


def test_probe_bus_without_subscribers_is_a_noop():
    bus = ProbeBus()
    bus.emit(NET_ENQUEUE, 0.0, "n0", size=1)
    assert bus.events_emitted == 0


# ---------------------------------------------------------------------------
# Probe emission from the substrate
# ---------------------------------------------------------------------------
def test_simulator_emits_event_fired_probes():
    sim = Simulator()
    bus = ProbeBus()
    fired = []
    bus.subscribe(fired.append, kind=EVENT_FIRED)
    sim.attach_probe(bus)
    sim.schedule(0.5, lambda: None)
    sim.run(until=1.0)
    assert len(fired) == 1
    assert fired[0].time == 0.5
    assert "lambda" in fired[0].source


def test_event_probe_names_the_real_callback():
    # Every completion is its own kernel event, so the probe reports the
    # callback that ran (a NIC ingress completion is Node.deliver) and
    # emits exactly one record per executed event.
    from repro.sim.node import Node

    sim = Simulator()
    net = Network(sim)
    net.add_node(Node(sim, "a"))
    net.add_node(Node(sim, "b"))
    received = []
    net.node("b").register("p", lambda src, msg: received.append(msg))
    bus = ProbeBus()
    fired = []
    bus.subscribe(fired.append, kind=EVENT_FIRED)
    sim.attach_probe(bus)
    for i in range(5):
        net.send("a", "b", "p", i, 1000)
    sim.run()
    assert received == [0, 1, 2, 3, 4]
    sources = [event.source for event in fired]
    assert sources.count("Node.deliver") == 5
    assert not any("_sweep" in source for source in sources)
    assert len(fired) == sim.events_executed


def test_server_emits_busy_probes():
    sim = Simulator()
    server = FifoServer(sim, rate=100.0, name="srv")
    bus = ProbeBus()
    busy = []
    bus.subscribe(busy.append, kind=SERVER_BUSY)
    server.probe = bus
    server.submit(50.0)
    (event,) = busy
    assert event.source == "srv"
    assert event.data["finish"] - event.data["start"] == 0.5


def test_network_emits_enqueue_and_deliver_probes():
    sim = Simulator()
    net = Network(sim)
    from repro.sim.node import Node

    a = net.add_node(Node(sim, "a"))
    net.add_node(Node(sim, "b"))
    assert a is net.node("a")
    received = []
    net.node("b").register("p", lambda src, msg: received.append(msg))
    bus = ProbeBus()
    events = []
    bus.subscribe(events.append)
    net.attach_probe(bus)
    net.send("a", "b", "p", "hello", 1000)
    sim.run(until=1.0)
    kinds = [e.kind for e in events]
    assert NET_ENQUEUE in kinds
    assert NET_DELIVER in kinds
    assert SERVER_BUSY in kinds  # NIC serialization was probed too
    assert received == ["hello"]


# ---------------------------------------------------------------------------
# SimProfiler
# ---------------------------------------------------------------------------
def _loaded_ring(until=1.0):
    sim = Simulator(seed=11)
    net = Network(sim)
    ring = build_ring(sim, net)
    for i in range(20):
        ring.proposers[0].multicast(f"m{i}", 8000)
    return sim, net, ring


def test_profiler_reports_busy_components():
    sim, net, _ = _loaded_ring()
    profiler = SimProfiler(sim)
    profiler.watch_network(net)
    sim.run(until=1.0)
    rows = profiler.report()
    assert rows, "a loaded ring must show busy components"
    names = {row.component for row in rows}
    assert any(".cpu" in n for n in names)
    assert any(".nic." in n for n in names)
    # Sorted most-utilized first.
    utils = [row.utilization for row in rows]
    assert utils == sorted(utils, reverse=True)
    top = profiler.saturated()
    assert top is not None and top.utilization == utils[0]
    record = rows[0].as_record()
    assert record["type"] == "profile"


def test_profiler_table_names_saturated_resource():
    sim, net, _ = _loaded_ring()
    profiler = SimProfiler(sim)
    profiler.watch_network(net)
    sim.run(until=1.0)
    table = profiler.table()
    assert "saturated resource:" in table
    assert profiler.saturated().component in table


def test_profiler_idle_simulator():
    sim = Simulator()
    profiler = SimProfiler(sim)
    assert profiler.report() == []
    assert profiler.saturated() is None
    assert "none (all components idle)" in profiler.table()


def test_profiler_windowed_report():
    sim = Simulator()
    server = FifoServer(sim, rate=1.0, name="s")
    profiler = SimProfiler(sim)
    profiler.track("solo", server, kind="server")
    server.submit(2.0)  # busy [0, 2]
    sim.run(until=4.0)
    (full,) = profiler.report()
    assert full.busy_s == 2.0
    assert full.utilization == 0.5
    (windowed,) = profiler.report(start=0.0, end=2.0)
    assert windowed.utilization == 1.0


# ---------------------------------------------------------------------------
# JSONL export
# ---------------------------------------------------------------------------
def test_jsonl_writer_and_report_readers(tmp_path):
    path = tmp_path / "trace.jsonl"
    with JsonlTraceWriter(str(path)) as writer:
        writer.write({"type": "meta", "x": 1})
        bus = ProbeBus()
        writer.subscribe(bus, kinds=(NET_ENQUEUE,))
        bus.emit(NET_ENQUEUE, 0.5, "a", dst="b", size=10)
        bus.emit(NET_DELIVER, 0.6, "b", src="a", size=10)  # not subscribed
    records = read_jsonl(str(path))
    assert len(records) == 2
    assert records[0] == {"type": "meta", "x": 1}
    assert records[1]["kind"] == NET_ENQUEUE
    assert read_jsonl(str(path), type="probe") == [records[1]]


def test_write_jsonl_round_trip(tmp_path):
    path = tmp_path / "rows.jsonl"
    rows = [{"a": 1}, {"a": 2, "b": [1, 2]}]
    assert write_jsonl(str(path), rows) == 2
    assert read_jsonl(str(path)) == rows


# ---------------------------------------------------------------------------
# ObsSession
# ---------------------------------------------------------------------------
def test_obs_session_instruments_created_simulators(tmp_path):
    path = tmp_path / "session.jsonl"
    with ObsSession(emit_path=str(path)) as session:
        sim, net, ring = _loaded_ring()
        sim.run(until=1.0)
    assert session.simulators == [sim]
    assert sim.probe is session.bus
    assert len(session.profilers) == 1
    assert session.registries  # build_ring created a root registry
    assert "saturated resource:" in session.profile_table()
    assert session.saturation_summary()

    records = read_jsonl(str(path))
    types = {r["type"] for r in records}
    assert {"meta", "profile", "metric"} <= types
    profile_rows = [r for r in records if r["type"] == "profile"]
    assert all("component" in r and "utilization" in r for r in profile_rows)
    metric_rows = [r for r in records if r["type"] == "metric"]
    delivered = [
        r
        for r in metric_rows
        if r["metric"] == "delivered_messages" and r["labels"].get("role") == "learner"
    ]
    assert delivered and delivered[0]["value"] > 0
    # Every line is independently parseable (JSONL contract).
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            json.loads(line)


def test_obs_session_detaches_on_exit():
    with ObsSession() as session:
        pass
    sim = Simulator()
    assert sim.probe is None
    assert session.simulators == []
    assert session.profile_table().startswith("no simulators")


def test_obs_session_streams_probe_kinds(tmp_path):
    path = tmp_path / "probes.jsonl"
    with ObsSession(emit_path=str(path), probe_kinds=(NET_ENQUEUE,)):
        sim = Simulator()
        net = Network(sim)
        from repro.sim.node import Node

        net.add_node(Node(sim, "a"))
        net.add_node(Node(sim, "b"))
        net.node("b").register("p", lambda src, msg: None)
        net.send("a", "b", "p", "x", 100)
        sim.run(until=1.0)
    probes = read_jsonl(str(path), type="probe")
    assert probes and all(r["kind"] == NET_ENQUEUE for r in probes)


# ---------------------------------------------------------------------------
# Wired protocol metrics
# ---------------------------------------------------------------------------
def test_protocol_metrics_are_labeled_and_live():
    reg = MetricsRegistry()
    sim = Simulator(seed=3)
    net = Network(sim)
    ring = build_ring(sim, net, metrics=reg)
    for i in range(10):
        ring.proposers[0].multicast(f"m{i}", 8000)
    sim.run(until=1.0)
    coord = ring.coordinator
    assert coord.instances_decided.value > 0
    # The same counters are reachable by name + labels from the registry.
    assert (
        reg.counter(
            "instances_decided", ring=0, role="coordinator", node=coord.node.name
        ).value
        == coord.instances_decided.value
    )
    learner = ring.learners[0]
    assert learner.delivered_messages.value == 10
    assert (
        reg.counter(
            "delivered_messages", ring=0, role="learner", node=learner.node.name
        ).value
        == 10
    )
    # Queue-depth gauges exist and have settled back to empty.
    assert coord.backlog_depth.value == 0
    assert coord.inflight_depth.value == 0
    snapshot_names = {row["metric"] for row in reg.snapshot()}
    assert {"accepts", "delivered_bytes_per_s", "delivery_latency"} <= snapshot_names


def test_multiring_metrics_per_ring_children():
    from repro import MultiRingConfig, MultiRingPaxos

    mrp = MultiRingPaxos(MultiRingConfig(n_groups=2, lambda_rate=50, delta=0.1))
    learner = mrp.add_learner(groups=[0, 1])
    proposer = mrp.add_proposer()
    for i in range(6):
        proposer.multicast(i % 2, payload=f"m{i}", size=4000)
    mrp.run(until=1.0)
    assert learner.delivered_messages.value == 6
    reg = mrp.metrics
    per_ring = [
        reg.counter("instances_decided", ring=rid, role="coordinator",
                    node=f"mr{rid}-coord").value
        for rid in mrp.rings
    ]
    assert all(v > 0 for v in per_ring)
    # The merge's per-ring queue gauges drain once both rings progress.
    for rid in mrp.rings:
        assert learner.merge.queue_gauges[rid].value == learner.merge.queue_depth(rid)
    # Skip manager metrics live under role=skipmgr.
    assert reg.counter("intervals_sampled", ring=0, role="skipmgr").value > 0

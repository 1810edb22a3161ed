"""Property-based tests for simulation-kernel invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import BucketSeries, LatencyHistogram
from repro.sim import FifoServer, GeoNetwork, Node, Simulator, Topology
from repro.sim.events import EventQueue


@given(times=st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=200))
@settings(max_examples=100, deadline=None)
def test_event_queue_pops_in_nondecreasing_time_order(times):
    q = EventQueue()
    for t in times:
        q.push(t, lambda: None)
    popped = []
    while (e := q.pop()) is not None:
        popped.append(e.time)
    assert popped == sorted(times)


_DELAYS = [0.0, 1e-7, 5e-7, 3e-6, 5e-5, 2e-3, 0.04, 0.2, 5.0]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_calendar_queue_matches_reference_heap(data):
    """Interleaved pushes, cancels and pops deliver the exact (time, seq) order.

    For any schedule the queue must be indistinguishable from a sorted
    reference of the live (time, seq) keys, and ``len`` must count only
    the live entries.
    """
    import heapq

    q = EventQueue()
    ref = []  # reference heap of live (time, seq)
    handles = []  # cancellable events not yet cancelled
    now = 0.0
    for _ in range(data.draw(st.integers(10, 200))):
        action = data.draw(st.sampled_from(["pop", "push", "timer", "cancel"]))
        if action == "pop" and ref:
            entry = q.pop_entry()
            assert (entry[0], entry[1]) == heapq.heappop(ref)
            now = entry[0]
        elif action == "cancel" and handles:
            victim = handles.pop(data.draw(st.integers(0, len(handles) - 1)))
            q.cancel(victim)
            if not victim.consumed:
                ref.remove((victim.time, victim.seq))
                heapq.heapify(ref)
        else:
            t = now + data.draw(st.sampled_from(_DELAYS))
            if action == "timer":
                handles.append(q.push(t, lambda: None))
                heapq.heappush(ref, (t, handles[-1].seq))
            else:
                q.push_fast(t, lambda: None)
                heapq.heappush(ref, (t, next(q._seq) - 1))
        assert len(q) == len(ref)
    while ref:
        entry = q.pop_entry()
        assert (entry[0], entry[1]) == heapq.heappop(ref)
    assert q.pop_entry() is None
    assert len(q) == 0


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_same_instant_pushes_during_a_run_fire_in_schedule_order(data):
    """Callbacks that schedule more work at their own instant (delay 0) or
    later, and cancel pending timers, still see the (time, seq) order.

    Every callback records the key it was scheduled under; the fired
    sequence must equal the sorted keys of all uncancelled events."""
    sim = Simulator()
    fired = []
    scheduled = {}  # seq-order ticket -> (time, ticket)
    timers = []
    tickets = iter(range(10**6))

    def schedule(delay, cancellable):
        ticket = next(tickets)
        key = (sim.now + delay, ticket)
        scheduled[ticket] = key
        if cancellable:
            timers.append((sim.schedule(delay, callback, key), ticket))
        else:
            sim.post(delay, callback, key)

    def callback(key):
        assert sim.now == key[0]
        fired.append(key)
        for _ in range(data.draw(st.integers(0, 3))):
            if timers and data.draw(st.booleans()):
                event, ticket = timers.pop(data.draw(st.integers(0, len(timers) - 1)))
                if not event.consumed:
                    sim.cancel(event)
                    del scheduled[ticket]
            elif len(scheduled) < 120:
                schedule(data.draw(st.sampled_from([0.0, 0.0, 1e-6, 2e-3])),
                         data.draw(st.booleans()))

    for _ in range(data.draw(st.integers(1, 10))):
        schedule(data.draw(st.sampled_from(_DELAYS)), data.draw(st.booleans()))
    sim.run()
    assert fired == sorted(scheduled.values())
    assert sim.events_executed == len(fired)
    assert sim.pending_events == 0


@given(
    times=st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=2, max_size=100),
    cancel_idx=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_cancelled_events_never_fire(times, cancel_idx):
    sim = Simulator()
    fired = []
    events = [sim.at(t, fired.append, i) for i, t in enumerate(times)]
    n_cancel = cancel_idx.draw(st.integers(0, len(events)))
    for e in events[:n_cancel]:
        sim.cancel(e)
    sim.run()
    assert sorted(fired) == list(range(n_cancel, len(events)))


@given(
    demands=st.lists(st.floats(0.001, 10.0, allow_nan=False), min_size=1, max_size=100),
    rate=st.floats(0.1, 100.0),
)
@settings(max_examples=100, deadline=None)
def test_fifo_server_conservation(demands, rate):
    """Total busy time == total demand / rate; completions are FIFO."""
    sim = Simulator()
    srv = FifoServer(sim, rate=rate)
    finishes = [srv.submit(d) for d in demands]
    assert finishes == sorted(finishes)
    assert srv.total_busy_time * rate == sum(demands) or abs(
        srv.total_busy_time - sum(demands) / rate
    ) < 1e-6 * max(1.0, sum(demands) / rate)
    # Utilization can never exceed 1 over any window.
    sim.run()
    horizon = max(finishes)
    assert srv.busy_between(0.0, horizon) <= horizon + 1e-9


@given(
    demands=st.lists(st.floats(0.001, 5.0, allow_nan=False), min_size=1, max_size=50),
    gaps=st.lists(st.floats(0.0, 5.0, allow_nan=False), min_size=1, max_size=50),
)
@settings(max_examples=50, deadline=None)
def test_fifo_busy_between_is_additive(demands, gaps):
    """busy(a,c) == busy(a,b) + busy(b,c) for any split point."""
    sim = Simulator()
    srv = FifoServer(sim, rate=1.0, history_window=1e9)
    t = 0.0
    for demand, gap in zip(demands, gaps):
        sim.run(until=t)
        srv.submit(demand)
        t += gap
    sim.run()
    end = srv.busy_until + 1.0
    mid = end / 2
    total = srv.busy_between(0.0, end)
    split = srv.busy_between(0.0, mid) + srv.busy_between(mid, end)
    assert abs(total - split) < 1e-9


@given(samples=st.lists(st.floats(0.0, 1e3, allow_nan=False), min_size=1, max_size=500))
@settings(max_examples=100, deadline=None)
def test_histogram_stats_match_ground_truth(samples):
    h = LatencyHistogram()
    for s in samples:
        h.record(s)
    assert abs(h.mean - sum(samples) / len(samples)) < 1e-6 * max(1.0, max(samples))
    assert h.percentile(0) == min(samples)
    assert h.percentile(100) == max(samples)
    assert min(samples) <= h.trimmed_mean(0.05) <= h.mean + 1e-9


@given(
    points=st.lists(
        st.tuples(st.floats(0.0, 100.0, allow_nan=False), st.floats(0.0, 1e3)),
        min_size=1,
        max_size=300,
    ),
    width=st.floats(0.1, 10.0),
)
@settings(max_examples=100, deadline=None)
def test_bucket_series_conserves_total(points, width):
    s = BucketSeries(bucket_width=width)
    for t, amount in points:
        s.record(t, amount)
    total_recorded = sum(a for _, a in points)
    total_bucketed = sum(s.bucket_totals().values())
    assert abs(total_recorded - total_bucketed) < 1e-6 * max(1.0, total_recorded)


# ---------------------------------------------------------------------------
# WAN fabric invariants (repro.sim.topology)
# ---------------------------------------------------------------------------
@given(
    jitter_ms=st.floats(0.1, 20.0, allow_nan=False),
    gaps=st.lists(st.floats(0.0, 0.005, allow_nan=False), min_size=2, max_size=40),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_wan_link_deliveries_are_fifo_under_jitter(jitter_ms, gaps, seed):
    """A WAN link is an ordered circuit: even when per-crossing jitter
    would make a later frame's raw arrival earlier, deliveries at the
    remote region come in send order at non-decreasing times."""
    sim = Simulator(seed=seed)
    net = GeoNetwork(
        sim, Topology(["a", "b"], wan_latency=0.002, wan_jitter=jitter_ms * 1e-3)
    )
    net.add_node(Node(sim, "na"), region="a")
    nb = net.add_node(Node(sim, "nb"), region="b")
    got = []
    nb.register("p", lambda src, msg: got.append((sim.now, msg)))
    t = 0.0
    for i, gap in enumerate(gaps):
        t += gap
        sim.at(t, net.send, "na", "nb", "p", i, 64)
    sim.run()
    assert [msg for _, msg in got] == list(range(len(gaps)))
    times = [tt for tt, _ in got]
    assert times == sorted(times)


@given(
    sizes=st.lists(st.integers(1, 3), min_size=2, max_size=3),
    cut=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_cross_region_multicast_is_exactly_once_to_survivors(sizes, cut, seed):
    """One multicast: every subscriber behind a live link receives the
    frame exactly once (one WAN crossing per region, fan-out at the
    remote switch); subscribers behind a cut link receive nothing."""
    sim = Simulator(seed=seed)
    regions = [f"r{i}" for i in range(len(sizes))]
    net = GeoNetwork(sim, Topology(regions, wan_latency=0.003))
    counts: dict[str, int] = {}
    for region, n in zip(regions, sizes):
        for j in range(n):
            name = f"{region}n{j}"
            node = net.add_node(Node(sim, name), region=region)
            node.register(
                "p", lambda src, msg, name=name: counts.__setitem__(
                    name, counts.get(name, 0) + 1
                )
            )
            net.join("g", name)
    sender = f"{regions[0]}n0"
    if cut and len(regions) > 1:
        net.partition_wan(regions[0], regions[-1])
    net.multicast(sender, "g", "p", "payload", 256)
    sim.run()
    severed = {regions[-1]} if cut and len(regions) > 1 else set()
    for region, n in zip(regions, sizes):
        for j in range(n):
            name = f"{region}n{j}"
            expected = 0 if region in severed else 1
            assert counts.get(name, 0) == expected, (name, counts)
    # Each live remote region's link carried the frame exactly once.
    for region in regions[1:]:
        link = net._wan[(regions[0], region)]
        assert link.messages_carried == (0 if region in severed else 1)


@given(
    order=st.permutations(["a0", "a1", "b0", "b1", "c0"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_loss_is_drawn_per_leg_in_membership_order(order, seed):
    """The geo fabric must consult the loss model once per receiver leg,
    in group-membership order — independent of how survivors are later
    bucketed into regions — so loss draws stay reproducible across
    fabrics."""

    class RecordingLoss:
        def __init__(self):
            self.legs = []

        def should_drop(self, rng, src, dst, size):
            self.legs.append(dst)
            return False

    sim = Simulator(seed=seed)
    net = GeoNetwork(sim, Topology(["a", "b", "c"], wan_latency=0.002))
    loss = RecordingLoss()
    net.loss = loss
    for name in order:
        net.add_node(Node(sim, name), region=name[0])
        net.join("g", name)
    sender = order[0]
    net.multicast(sender, "g", "p", "m", 128)
    assert loss.legs == [n for n in order if n != sender]

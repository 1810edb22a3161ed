"""Integration: simulations are bit-for-bit deterministic given a seed."""

from repro import MultiRingConfig, MultiRingPaxos
from repro.sim import UniformLoss
from repro.workload import ConstantRate, OpenLoopGenerator

SIZE = 8192


def run_once(seed):
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=2, lambda_rate=2000.0, seed=seed))
    mrp.network.loss = UniformLoss(0.02)
    log = []
    learner = mrp.add_learner(
        groups=[0, 1], on_deliver=lambda g, v: log.append((round(mrp.sim.now, 9), g, v.payload))
    )
    for g in range(2):
        prop = mrp.add_proposer()
        OpenLoopGenerator(
            mrp.sim,
            lambda p=prop, g=g: p.multicast(g, f"g{g}", SIZE),
            ConstantRate(500.0),
            jitter=0.2,
            name=f"gen{g}",
        ).start()
    mrp.run(until=2.0)
    return log, mrp.sim.events_executed


def test_same_seed_reproduces_exactly():
    log_a, events_a = run_once(seed=42)
    log_b, events_b = run_once(seed=42)
    assert events_a == events_b
    assert log_a == log_b
    assert len(log_a) > 100


def test_different_seeds_diverge():
    log_a, _ = run_once(seed=1)
    log_b, _ = run_once(seed=2)
    # Same workload shape, different jitter/loss draws: timings differ.
    assert [t for t, _, _ in log_a] != [t for t, _, _ in log_b]


# A fuzz case whose coordinators decide batches carrying several senders'
# values: the order of the decided acks used to follow Python's
# per-process string-hash salt (PYTHONHASHSEED), so the run diverged
# between interpreters.
_HASH_CASE = """
import json
from repro.check import run_case
from repro.obs import ProbeBus
from repro.sim.simulator import observe_simulators

sims, order = [], []

def watch(sim):
    sims.append(sim)
    bus = ProbeBus()
    sim.attach_probe(bus)
    bus.subscribe(lambda ev: order.append(
        [ev.source, ev.data["sender"], ev.data["seq"], ev.data["group"], ev.time]),
        kind="learner.deliver")

observe_simulators(watch)
result = run_case(173879092, profile="default")
print(json.dumps({"ok": result.ok,
                  "events": sum(sim.events_executed for sim in sims),
                  "order": order}))
"""


def _run_hash_case(hash_seed: str) -> dict:
    import json
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _HASH_CASE], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_outcome_is_independent_of_the_string_hash_seed():
    first = _run_hash_case("1")
    second = _run_hash_case("4")
    assert first["ok"] and second["ok"]
    assert first["events"] == second["events"]
    assert first["order"] == second["order"]
    assert len(first["order"]) > 100

#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 mrpbench/run.py --workload ring-inmem-open --seed 1 --seconds 35 --trace 0

Run from the repository root. With ``--trace 0`` the run makes the
seed's pass of cases, then runs its cases again in turn until
``--seconds`` have passed, and at least one; each repeated case must
reproduce its first delivery digest. It prints the end-to-end metrics. With ``--trace 1``
it makes one pass plainly and one under the per-layer ledger, checks
that both simulate the same thing, and prints the ledger. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
only when every operation succeeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# Fresh interpreters that only import, on top of this run's own import:
# import dominates set-up, and one sample of it is noisy. They are spread
# over the run, between cases, as the host's speed drifts.
EXTRA_IMPORT_SAMPLES = 8
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = [{src!r}, {here!r}]; start = time.perf_counter(); "
    "import workloads; print(time.perf_counter() - start)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_s_per_wall_s": "sim_s/s",
    "cases_per_min": "1/min",
    "peak_rss_mb": "MB",
    "delivered_mbps": "Mbps",
    "latency_p50_ms": "ms",
    "latency_p999_ms": "ms",
}

EXTRA_LAYER_UNITS = {
    "sim.kernel.dispatches_per_value": "events/value",
    "sim.server.jobs_per_value": "jobs/value",
    "sim.server.wait_us_per_job": "sim_us/job",
    "sim.server.coordinator_cpu_util": "ratio",
    "sim.server.acceptor_disk_util": "ratio",
    "sim.network.learner_ingress_util": "ratio",
    "sim.network.msgs_per_value": "msgs/value",
    "sim.network.bytes_per_value": "bytes/value",
    "sim.network.drops": "count",
    "ringpaxos.values_per_instance": "values/instance",
    "core.skip_share": "ratio",
    "core.merge_wait_us_per_value": "sim_us/value",
    "paxos.storage.flushes_per_value": "flushes/value",
    "obs.probe.emits_per_value": "emits/value",
    "check.events_checked_per_case": "events/case",
    "workload.admission_shed": "count",
    "workload.retries": "count",
    "trace_overhead": "ratio",
}


def per_layer_units(layers) -> dict[str, str]:
    """Every per-layer metric name and its unit, in print order."""
    units = {}
    for layer in layers:
        units[f"{layer}.calls_per_value"] = "calls/value"
        units[f"{layer}.self_us_per_value"] = "us/value"
    units["bench.self_us_per_value"] = "us/value"
    units.update(EXTRA_LAYER_UNITS)
    return units


def import_probe() -> float:
    """Import time in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE.format(src=SRC, here=HERE)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def simulated_metrics(summary, percentile) -> dict[str, float]:
    """Metrics of simulated time: identical for every pass of one seed.

    Latency percentiles are taken per deployment and summarised by their
    median across the deployments of a pass.
    """
    def latency_ms(q: float) -> float:
        return statistics.median(percentile(g, q) for g in summary.latency_groups) * 1e3

    return {
        "delivered_mbps": summary.window_bytes * 8.0 / summary.window_s / 1e6,
        "latency_p50_ms": latency_ms(0.5),
        "latency_p999_ms": latency_ms(0.999),
    }


def repeat_problems(done, per_pass: int) -> list[str]:
    """Cases that did not reproduce their first run's delivery digest."""
    return [
        f"case {i % per_pass} repeated with delivery_digest {case.digest}, "
        f"first run {done[i % per_pass].digest}"
        for i, case in enumerate(done[per_pass:], start=per_pass)
        if case.digest != done[i % per_pass].digest
    ]


def host_metrics(done, factors, imports) -> dict[str, float]:
    """The host-time metrics, each case's host times scaled by its factor."""
    scaled = list(zip(done, factors))
    rates = [r / f for case, f in scaled for r in case.rates]
    run_s = sum((case.wall_s - case.setup_s) * f for case, f in scaled)
    return {
        "setup_s": statistics.median(imports) + statistics.median(c.setup_s * f for c, f in scaled),
        "sim_s_per_wall_s": statistics.median(rates) if rates else sum(c.sim_s for c in done) / run_s,
        "cases_per_min": 60.0 * len(done) / sum(case.wall_s * f for case, f in scaled),
    }


def measure(workloads, name: str, seed: int, seconds: float, import_s: float):
    """The untraced run: the seed's pass, then its cases again in turn
    until ``seconds`` of host time have passed, and at least one case
    again, so that every run checks that a case repeats exactly."""
    from hostspeed import HostSpeed  # after the path set-up

    plan = workloads.WORKLOADS[name](seed)
    host = HostSpeed()
    done, factors = [], []
    plain_imports, imports = [import_s], [import_s * host.now()]
    start = time.perf_counter()
    while len(done) <= len(plan) or time.perf_counter() - start < seconds:
        done.append(plan[len(done) % len(plan)]())
        factors.append(host.factor())
        if time.perf_counter() - start >= len(imports) * seconds / (EXTRA_IMPORT_SAMPLES + 1):
            plain_imports.append(import_probe())
            imports.append(plain_imports[-1] * host.now())
    while len(imports) <= EXTRA_IMPORT_SAMPLES:
        plain_imports.append(import_probe())
        imports.append(plain_imports[-1] * host.now())
    first = workloads.summarise(name, done[:len(plan)])
    metrics = {
        **host_metrics(done, factors, imports),
        "peak_rss_mb": peak_rss_mb(),
        **simulated_metrics(first, workloads.percentile),
    }
    plain = host_metrics(done, [1.0] * len(done), plain_imports)
    lines = [
        f"workload {name} (seed {seed}): {workloads.WHY[name]}",
        f"{len(done)} cases run, {len(plan)} per pass; pass delivery_digest {first.digest}",
        f"host time {sum(case.wall_s for case in done):.3f} s in cases; host-time metrics below "
        f"are at the reference host speed, plain: " + ", ".join(f"{k} {v:.6g}" for k, v in plain.items()),
        f"latency samples {sum(map(len, first.latency_groups))} in "
        f"{len(first.latency_groups)} group(s); p999 has at least "
        f"{min(len(g) - math.ceil(0.999 * len(g)) for g in first.latency_groups)} beyond it in each",
    ]
    return done, metrics, lines, repeat_problems(done, len(plan))


def trace(workloads, name: str, seed: int):
    """The traced run: the per-layer ledger plus a parity check."""
    from ledger import LAYERS, ROOT  # imported with workloads, after the path set-up

    plain, plain_cases = workloads.run_pass(name, seed)
    summary, cases, ledger, counters = workloads.traced(name, seed)
    problems = []
    if (simulated_metrics(summary, workloads.percentile) != simulated_metrics(plain, workloads.percentile)
            or summary.state["events"] != plain.state["events"] or summary.digest != plain.digest):
        problems.append("traced run's simulated metrics or digest differ from the untraced run's")
    if sum(ledger.self_ns) != ledger.wall_ns:
        problems.append("per-layer self times do not sum to the traced wall time")

    values = max(summary.values, 1)
    state = summary.state
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls_per_value"] = ledger.entries(layer) / values
        metrics[f"{layer}.self_us_per_value"] = ledger.self_time(layer) / 1e3 / values
    metrics["bench.self_us_per_value"] = ledger.self_time(ROOT) / 1e3 / values
    metrics.update({
        "sim.kernel.dispatches_per_value": state["events"] / values,
        "sim.server.jobs_per_value": counters.jobs / values,
        "sim.server.wait_us_per_job": counters.wait_s * 1e6 / max(counters.jobs, 1),
        "sim.server.coordinator_cpu_util": state.get("coordinator_cpu_util", 0.0),
        "sim.server.acceptor_disk_util": state.get("acceptor_disk_util", 0.0),
        "sim.network.learner_ingress_util": state.get("learner_ingress_util", 0.0),
        "sim.network.msgs_per_value": state["msgs"] / values,
        "sim.network.bytes_per_value": state["bytes"] / values,
        "sim.network.drops": state["drops"],
        "ringpaxos.values_per_instance": counters.values_per_instance(),
        "core.skip_share": counters.skip_share(),
        "core.merge_wait_us_per_value":
            counters.merge_wait_s * 1e6 / counters.merge_delivered if counters.merge_delivered else 0.0,
        "paxos.storage.flushes_per_value": counters.flushes / values,
        "obs.probe.emits_per_value": state["emits"] / values,
        "check.events_checked_per_case": state.get("events_checked", 0) / summary.cases,
        "workload.admission_shed": sum(p.shed_submissions.value for p in counters.populations),
        "workload.retries": sum(p.retries.value for p in counters.populations),
        "trace_overhead": summary.wall_s / plain.wall_s,
    })

    wall_us = ledger.wall_ns / 1e3
    lines = [
        f"workload {name} (seed {seed}) traced: delivery_digest {summary.digest} "
        f"(untraced {plain.digest}), {summary.values} values delivered",
        f"{'layer':24s} {'calls/value':>12s} {'self us/value':>14s} {'share':>7s}",
    ]
    for layer in [ROOT, *LAYERS]:
        self_ns = ledger.self_time(layer)
        lines.append(
            f"{layer:24s} {ledger.entries(layer) / values:12.3f} "
            f"{self_ns / 1e3 / values:14.3f} {self_ns / 1e3 / wall_us:7.1%}"
        )
    lines.append(
        f"self times sum to {sum(ledger.self_ns) / 1e9:.6f} s; traced wall {ledger.wall_ns / 1e9:.6f} s"
    )
    lines.append(
        f"{counters.strip_sweeps} of {state['events']} kernel events are completion-strip head "
        "dispatches, which the sim.event probe labels CompletionStrip._sweep"
    )
    return plain_cases + cases, metrics, lines, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the repro package is missing under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    sys.path[:0] = [SRC, HERE]
    start = time.perf_counter()
    import workloads
    own_import_s = time.perf_counter() - start
    from ledger import LAYERS

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        cases, metrics, lines, problems = trace(workloads, args.workload, args.seed)
        units = per_layer_units(LAYERS)
    else:
        cases, metrics, lines, problems = measure(
            workloads, args.workload, args.seed, args.seconds, own_import_s)
        units = END_TO_END_UNITS
    problems = [p for case in cases for p in case.problems] + problems
    attempted = sum(case.attempted for case in cases)
    failed = sum(case.failed for case in cases)
    if problems and failed == 0:
        failed = 1  # a divergence or a broken ledger fails the run as a whole
    correct = not problems

    for line in lines:
        print(line)
    for metric, value in metrics.items():
        print(f"  {metric:36s} {value:14.6g} {units[metric]}")
    print(f"operations attempted {attempted}, failed {failed}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Tests for the benchmark's span math and its metric and workload names.

    python3 -m pytest mrpbench -q

A fake clock advances only when a toy callback says so, which makes
every span's duration known exactly.
"""

from __future__ import annotations

import json
import os
import re
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
from ledger import LAYERS, ROOT as ROOT_LAYER, Ledger  # noqa: E402
from repro.sim.simulator import Simulator  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


def toy_module(clock: FakeClock) -> types.ModuleType:
    """Two toy layers: a role that calls a server, which may call back."""
    mod = types.ModuleType("toy_roles")

    class Server:
        def submit(self, cost: int, then=None) -> None:
            clock.advance(cost)
            if then is not None:
                then()

        def helper(self) -> None:
            clock.advance(1)

    class Role:
        def __init__(self, server: Server) -> None:
            self.server = server

        def on_event(self, own: int, cost: int) -> None:
            clock.advance(own)
            self.server.submit(cost)
            clock.advance(own)

        def nested(self) -> None:
            # Role -> Server -> Role (re-entry from a child layer).
            self.server.submit(5, lambda: self.on_event(2, 3))

        def local(self) -> None:
            clock.advance(4)
            self.on_event(1, 1)  # same layer: no new entry

    for cls in (Server, Role):
        cls.__module__ = mod.__name__
        setattr(mod, cls.__name__, cls)
    return mod


@pytest.fixture
def toy():
    clock = FakeClock()
    mod = toy_module(clock)
    ledger = Ledger(["server", "role"], clock=clock)
    ledger.install_class(mod.Server, "server")
    ledger.install_class(mod.Role, "role")
    yield clock, mod, ledger
    ledger.uninstall()


def test_self_time_is_span_minus_children(toy):
    clock, mod, ledger = toy
    role = mod.Role(mod.Server())
    ledger.start()
    role.on_event(own=10, cost=7)  # role span 27 = 10 + server 7 + 10
    ledger.stop()
    assert ledger.self_time("server") == 7
    assert ledger.self_time("role") == 27 - 7
    assert ledger.entries("role") == 2  # __init__ and on_event
    assert ledger.entries("server") == 1


def test_nested_reentry_charges_each_interval_to_its_layer(toy):
    clock, mod, ledger = toy
    role = mod.Role(mod.Server())
    ledger.start()
    clock.advance(100)  # the benchmark's own code
    role.nested()
    ledger.stop()
    # server 5 + 3 (inner submit); role 2 + 2 (inner on_event)
    assert ledger.self_time("server") == 8
    assert ledger.self_time("role") == 4
    assert ledger.self_time(ROOT_LAYER) == 100
    assert ledger.entries("server") == 2
    assert ledger.entries("role") == 3  # __init__, nested, re-entry from server


def test_same_layer_calls_open_no_span(toy):
    clock, mod, ledger = toy
    role = mod.Role(mod.Server())
    ledger.start()
    role.local()
    ledger.stop()
    assert ledger.entries("role") == 2  # __init__ and local; on_event stays inside
    assert ledger.self_time("role") == 4 + 1 + 1
    assert ledger.self_time("server") == 1


def test_self_times_sum_to_wall_time_with_exceptions(toy):
    clock, mod, ledger = toy
    role = mod.Role(mod.Server())

    def boom():
        clock.advance(3)
        raise ValueError("boom")

    ledger.start()
    with pytest.raises(ValueError):
        role.server.submit(2, boom)
    role.on_event(1, 1)
    clock.advance(9)
    ledger.stop()
    assert ledger.self_time("server") == 2 + 3 + 1  # boom runs inside the server span
    assert sum(ledger.self_ns) == ledger.wall_ns == clock.now


def test_uninstall_restores_the_original_methods():
    clock = FakeClock()
    mod = toy_module(clock)
    original = mod.Server.__dict__["submit"]
    ledger = Ledger(["server"], clock=clock)
    ledger.install_module(mod, "server")
    assert mod.Server.__dict__["submit"] is not original
    ledger.uninstall()
    assert mod.Server.__dict__["submit"] is original


def test_toy_simulation_attributes_callbacks_through_the_kernel():
    clock = FakeClock()
    mod = toy_module(clock)
    ledger = Ledger(["kernel", "server", "role"], clock=clock)
    ledger.install_class(Simulator, "kernel")
    ledger.install_class(mod.Server, "server")
    ledger.install_class(mod.Role, "role")
    try:
        ledger.start()
        sim = Simulator(seed=1)
        role = mod.Role(mod.Server())
        for t in (1.0, 2.0, 3.0):
            sim.post_at(t, role.on_event, 4, 6)  # role 8 + server 6 per event
        sim.run()
        ledger.stop()
    finally:
        ledger.uninstall()
    assert ledger.self_time("role") == 3 * 8
    assert ledger.self_time("server") == 3 * 6
    assert ledger.self_time("kernel") == 0  # the fake clock never moves in it
    assert ledger.entries("role") == 1 + 3  # __init__ plus one per dispatch
    assert sum(ledger.self_ns) == ledger.wall_ns == clock.now


def test_benchmark_names_match_the_name_pattern():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_benchmark_lists_exactly_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units(LAYERS)
    for name in LAYERS:
        assert NAME.fullmatch(name), name


def test_a_repeated_case_must_reproduce_its_first_digest():
    cases = [types.SimpleNamespace(digest=d) for d in ("a", "b", "a", "c", "a")]
    problems = run.repeat_problems(cases, per_pass=2)
    assert len(problems) == 1 and problems[0].startswith("case 1 ")
    assert run.repeat_problems(cases[:3], per_pass=2) == []


def test_calibration_loop_allocates_nothing_the_collector_tracks():
    import gc

    import hostspeed

    hostspeed.loop_seconds()
    gc.disable()
    try:
        before = gc.get_count()[0]
        hostspeed.loop_seconds()
        assert gc.get_count()[0] == before
    finally:
        gc.enable()

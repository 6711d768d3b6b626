"""Self-tests of the benchmark: determinism, self-time bookkeeping, and
that a slowdown injected into one layer shows up where it should.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time

import pytest

from perfbench import tracing
from perfbench.layers import layer_metrics
from perfbench.patching import Patcher
from perfbench.run import ROOT, Runner, declared_units
from perfbench.tracing import LayerTracer
from perfbench.workloads import (CrashSweep, IngestSmall,
                                 RewriteLargeInline)
from repro.dedup.fingerprint import Fingerprinter

SMALL = {
    "ingest-small": lambda: IngestSmall(nfiles=40, device_pages=2048),
    "rewrite-large-inline": lambda: RewriteLargeInline(
        nfiles=4, rounds=2, device_pages=2048),
    "crash-sweep": lambda: CrashSweep(cases=1, nops=60, budget=4),
}


def _once(name: str, seed: int, tracer=None, setups: int = 1):
    runner = Runner(SMALL[name](), seed)
    with runner.probes:
        it = runner.iterate(tracer, setups)
    assert runner.failures == []
    it["persist_events"] = [c.persist_events for c in runner.probes.cases]
    return it


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_same_sim_metrics_and_digest(name):
    a = _once(name, 1)["out"]
    b = _once(name, 1)["out"]
    c = _once(name, 2)["out"]
    assert a.sim == b.sim
    assert a.digest == b.digest
    assert c.digest != a.digest


def test_repeated_iterations_are_checked_for_repeatability():
    runner = Runner(SMALL["ingest-small"](), 3)
    with runner.probes:
        runner.iterate()
        runner.iterate()
    assert runner.failures == []
    assert runner.attempted > 2


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_synthetic_span_tree(monkeypatch):
    clock = _FakeClock()
    monkeypatch.setattr(tracing.time, "perf_counter", clock)
    tr = LayerTracer(targets=())
    tr.reset()

    def at(t):
        clock.now = t

    # A [0, 10] has children B [1, 4] and C [5, 9]; C has child D [6, 7].
    at(0.0)
    a = tr._enter("A", new_op=True)
    at(1.0)
    b = tr._enter("B", new_op=False)
    at(4.0)
    tr._exit(b)
    at(5.0)
    c = tr._enter("C", new_op=False)
    at(6.0)
    d = tr._enter("D", new_op=True)
    at(7.0)
    tr._exit(d)
    at(9.0)
    tr._exit(c)
    at(10.0)
    tr._exit(a)
    tr.stop()

    self_s = {name: st.self_s for name, st in tr.layers.items()}
    assert self_s == pytest.approx({"A": 3.0, "B": 3.0, "C": 3.0, "D": 1.0})
    assert tr.root_s == pytest.approx(10.0)
    assert tr.wall_s == pytest.approx(10.0)
    spans = {s[3]: s for s in tr.spans}   # id, parent, op, name, start, end
    assert spans["B"][1] == spans["A"][0] and spans["C"][1] == spans["A"][0]
    assert spans["D"][1] == spans["C"][0]
    # B and C belong to A's op; D starts an op of its own.
    assert spans["A"][2] == spans["B"][2] == spans["C"][2] != spans["D"][2]


def _traced_layers(name: str, seed: int):
    tracer = LayerTracer()
    with tracer:
        it = _once(name, seed, tracer)
    return layer_metrics(tracer, it["out"]), it


def test_traced_run_reports_every_layer_metric():
    ingest, traced_it = _traced_layers("ingest-small", 1)
    # Tracing observes the program without changing what it simulates.
    untraced = _once("ingest-small", 1)["out"]
    assert traced_it["out"].sim == untraced.sim
    assert traced_it["out"].digest == untraced.digest
    crash, crash_it = _traced_layers("crash-sweep", 1)
    rewrite, _ = _traced_layers("rewrite-large-inline", 1)
    for m in (ingest, crash, rewrite):
        assert set(declared_units(1)) - {"trace.overhead_ratio"} <= set(m)
    assert ingest["dedup.daemon.self_s"] > 0
    assert ingest["sim.engine.self_s"] > 0
    assert ingest["nova.recovery.mounts"] == 0
    assert crash["nova.recovery.self_s"] > 0
    assert crash["sim.engine.self_s"] == 0
    assert crash["failure.injector.replays"] > 0
    # Each case's persist events count once, however many passes count them.
    assert crash["failure.injector.persist_events"] == \
        sum(crash_it["persist_events"]) > 0
    assert rewrite["dedup.fingerprint.strong_calls"] > 0
    assert rewrite["dedup.fingerprint.sim_ns"] > 0
    assert rewrite["dedup.dwq.enqueued"] == 0
    for m in (ingest, crash, rewrite):
        assert 0.5 < m["trace.coverage"] <= 1.0


def test_sleep_in_one_layer_shows_in_its_self_time_and_wall_metric():
    sleep_s = 0.002
    base, base_it = _traced_layers("rewrite-large-inline", 1)
    with Patcher() as p:
        def slow(orig):
            def strong(fp, chunk):
                time.sleep(sleep_s)
                return orig(fp, chunk)
            return strong
        p.wrap(Fingerprinter, "strong", slow)
        slowed, slow_it = _traced_layers("rewrite-large-inline", 1)
    calls = slowed["dedup.fingerprint.strong_calls"]
    assert calls == base["dedup.fingerprint.strong_calls"] > 0
    added = slowed["dedup.fingerprint.self_s"] - base["dedup.fingerprint.self_s"]
    assert added >= 0.9 * calls * sleep_s
    # The other layers' self time does not absorb the sleep.
    others = ("pm.device.self_s", "nova.fs.writes.self_s", "conc.vfs.self_s")
    for key in others:
        assert slowed[key] < base[key] + 0.5 * calls * sleep_s
    base_rate = base_it["out"].ops / base_it["wall_s"]
    slow_rate = slow_it["out"].ops / slow_it["wall_s"]
    assert slow_rate < base_rate
    # Simulated results do not see wall-clock sleeps.
    assert slow_it["out"].sim == base_it["out"].sim


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_ref_clock_takes_out_host_speed(monkeypatch):
    from perfbench import run
    clock = _FakeClock()
    monkeypatch.setattr(run.time, "perf_counter", clock)
    # The host runs at half the reference speed for the first phase and
    # at full speed for the second; the calibration kernel sees the same.
    readings = iter([2 * run.CALIBRATION_REF_S, 2 * run.CALIBRATION_REF_S,
                     run.CALIBRATION_REF_S])
    monkeypatch.setattr(run, "calibration_s", lambda: next(readings))
    rc = run.RefClock()
    rc.start()
    clock.now = 4.0
    rc.split()
    clock.now = 5.0
    rc.stop()
    assert rc.wall == pytest.approx([4.0, 1.0])
    assert rc.ref == pytest.approx([2.0, 1.0 / 1.5])

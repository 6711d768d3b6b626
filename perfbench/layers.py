"""Per-layer metrics of a traced iteration.

Each layer metric is a count or time taken at a layer boundary by
:class:`perfbench.tracing.LayerTracer`, or a counter the program already
keeps (``PMStats``, ``DaemonStats``, the DES runner's ``RunResult``, the
persist-event total that plans each fuzz case's sweep).  Their names and
units are the ``per_layer`` list of ``BENCHMARK.json``.
"""

from __future__ import annotations

from perfbench.workloads import Outcome


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr, out: Outcome) -> dict:
    """Every per-layer metric of one traced iteration."""
    L, C = tr.layers, tr.counts

    def calls(*names):
        return sum(L[n].calls for n in names if n in L)

    def self_s(*names):
        return sum(L[n].self_s for n in names if n in L)

    def sim_ns(*names):
        return sum(L[n].sim_ns for n in names if n in L)

    dev = tr.device_totals()
    dmn = tr.daemon_totals()
    prog = out.program
    m = {f"pm.device.{k}": dev.get(k, 0) for k in
         ("writes", "bytes_written", "reads", "bytes_read", "clwbs",
          "sfences")}
    m["pm.device.write_amp"] = _ratio(dev.get("bytes_written", 0),
                                      out.user_bytes)
    m["pm.device.self_s"] = self_s("pm.device")
    m["pm.allocator.allocs"] = calls("pm.allocator.allocs")
    m["pm.allocator.frees"] = calls("pm.allocator.frees")
    m["pm.allocator.self_s"] = self_s("pm.allocator.allocs",
                                      "pm.allocator.frees")
    for op in ("creates", "writes", "reads"):
        name = f"nova.fs.{op}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.sim_ns"] = sim_ns(name)
    m["nova.log.appends_per_op"] = _ratio(calls("nova.log.appends"), out.ops)
    m["nova.log.commits_per_op"] = _ratio(calls("nova.log.commits"), out.ops)
    m["nova.radix.installs"] = calls("nova.radix.installs")
    m["nova.radix.lookups"] = calls("nova.radix.lookups")
    m["nova.radix.self_s"] = self_s("nova.radix.installs",
                                    "nova.radix.lookups")
    m["nova.recovery.mounts"] = calls("nova.recovery")
    m["nova.recovery.entries_replayed"] = C["nova.recovery.entries_replayed"]
    m["nova.recovery.self_s"] = self_s("nova.recovery")
    m["nova.recovery.sim_ns"] = sim_ns("nova.recovery")
    fp = ("dedup.fingerprint.strong", "dedup.fingerprint.weak")
    m["dedup.fingerprint.strong_calls"] = calls(fp[0])
    m["dedup.fingerprint.weak_calls"] = calls(fp[1])
    m["dedup.fingerprint.self_s"] = self_s(*fp)
    m["dedup.fingerprint.sim_ns"] = sim_ns(*fp)
    fact = ("dedup.fact.lookups", "dedup.fact.inserts", "dedup.fact.dec_rfc",
            "dedup.fact.removes")
    for name in fact:
        m[name] = calls(name)
    m["dedup.fact.self_s"] = self_s(*fact)
    lookups = calls("dedup.fact.lookups")
    m["dedup.fact.probes_per_lookup"] = _ratio(C["dedup.fact.probes"],
                                               lookups)
    m["dedup.fact.hit_ratio"] = _ratio(C["dedup.fact.hits"], lookups)
    m["dedup.fact.recover_self_s"] = self_s("dedup.fact.recover")
    for k in ("nodes_processed", "nodes_stale", "pages_scanned",
              "pages_duplicate"):
        m[f"dedup.daemon.{k}"] = dmn.get(k, 0)
    m["dedup.daemon.busy_sim_ns"] = sim_ns("dedup.daemon")
    m["dedup.daemon.self_s"] = self_s("dedup.daemon")
    m["dedup.daemon.useful_ratio"] = _ratio(dmn.get("pages_duplicate", 0),
                                            dmn.get("pages_scanned", 0))
    m["dedup.dwq.enqueued"] = calls("dedup.dwq.enqueue")
    m["dedup.dwq.peak_depth"] = C["dedup.dwq.peak_depth"]
    m["dedup.dwq.linger_p99_us"] = prog.get("linger_p99_ns", 0.0) / 1000.0
    m["conc.vfs.ops"] = C["conc.vfs.op_calls"]
    m["conc.vfs.lock_wait_sim_us"] = prog.get("lock_wait_ns_sum", 0.0) / 1e3
    m["conc.vfs.lock_wait_p99_us"] = prog.get("lock_wait_p99_ns", 0.0) / 1e3
    m["conc.vfs.stalls"] = prog.get("stalls", 0)
    m["conc.vfs.steals"] = prog.get("steals", 0)
    m["conc.vfs.self_s"] = self_s("conc.vfs")
    m["sim.engine.events"] = C["sim.engine.events"]
    m["sim.engine.self_s"] = self_s("sim.engine")
    m["failure.injector.persist_events"] = prog.get("persist_events", 0)
    m["failure.injector.count_self_s"] = self_s("failure.injector.count")
    m["failure.injector.replays"] = calls("failure.injector.replays")
    m["failure.injector.replay_self_s"] = self_s("failure.injector.replays")
    m["failure.injector.crash_self_s"] = self_s("failure.injector.crash")
    m["fuzz.oracle.checks"] = calls("fuzz.oracle")
    m["fuzz.oracle.self_s"] = self_s("fuzz.oracle")
    m["obs.spans_recorded"] = C["obs.spans_recorded"]
    m["workloads.datagen.self_s"] = self_s("workloads.datagen")
    m["trace.coverage"] = _ratio(tr.root_s, tr.wall_s)
    return m


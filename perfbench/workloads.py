"""The three benchmark workloads.

Each workload has three steps, run once per iteration:

* ``setup(seed)`` — mkfs, prepopulation and input generation
  (timed as ``setup_s``);
* ``run(state, probes, split)`` — the measured pass (timed for
  ``wall_ops_per_s``), observed by empty :class:`perfbench.probes.Probes`;
  it calls ``split()`` between its rounds or cases, where the runner
  takes a host-speed reading that is not part of the timed pass;
* ``check(state, ops, probes)`` — output checks and the simulated
  metrics, untimed.

The seed reaches the program only as generated inputs: the fio-style
job seed of :func:`repro.workloads.run_workload` (whose
:class:`~repro.workloads.DataGenerator` streams are rebuilt here to
check every byte read back) and the op sequences of the fuzz cases.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from statistics import median

from repro.core import Config, Variant, make_fs
from repro.failure.invariants import InvariantViolation, check_fs_invariants
from repro.fuzz.diff import FuzzConfig, run_case
from repro.fuzz.gen import generate_sequence
from repro.workloads import (DataGenerator, Mode, large_file_job,
                             run_workload, small_file_job)
from repro.workloads.runner import prepopulate

MB = float(1 << 20)


@dataclass
class Outcome:
    """Everything one iteration produced, after its checks."""

    ops: int                         # client ops (wall_ops_per_s basis)
    user_bytes: int                  # user bytes written
    sim: dict                        # simulated metric -> value
    samples: dict                    # metric -> sample count
    attempted: int = 0               # client ops + output checks
    failures: list = field(default_factory=list)   # one line each
    digest: str = ""
    program: dict = field(default_factory=dict)    # exposed counters
    crash_points: int = 0            # crash-sweep only


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of already-sorted raw samples."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return float(sorted_values[rank - 1])


def latency_metrics(samples_ns: list) -> tuple[dict, dict]:
    ordered = sorted(samples_ns)
    sim = {"sim_op_p50_us": percentile(ordered, 0.50) / 1000.0,
           "sim_op_p99_us": percentile(ordered, 0.99) / 1000.0}
    n = len(ordered)
    return sim, {"sim_op_p50_us": n, "sim_op_p99_us": n}


def digest(devices, sim: dict) -> str:
    """sha256 of the final device bytes plus the sorted simulated metrics."""
    h = hashlib.sha256()
    for dev in devices:
        h.update(dev.read_silent(0, dev.size))
    h.update(json.dumps(sim, sort_keys=True).encode())
    return h.hexdigest()


def _space_amp(space: dict) -> float:
    return space["physical_pages"] / space["logical_pages"]


def _check_drained_fs(fs, expected: dict, failures: list) -> int:
    """Byte-for-byte read-back, invariants and the post-drain RFC
    balance; returns the number of checks made."""
    for path, data in expected.items():
        got = fs.read(fs.lookup(path), 0, len(data))
        if got != data:
            failures.append(f"read-back mismatch on {path}")
    try:
        check_fs_invariants(fs)
    except InvariantViolation as exc:
        failures.append(f"invariant: {exc}")
    space = fs.space_stats()
    if space["rfc_sum"] != space["logical_pages"]:
        failures.append(f"rfc_sum {space['rfc_sum']} != logical_pages "
                        f"{space['logical_pages']}")
    if space["dwq_backlog"] != 0:
        failures.append(f"dwq_backlog {space['dwq_backlog']} after drain")
    return len(expected) + 3


def _expected_files(spec, seed: int, stream_base: int) -> dict:
    """The bytes the runner's writers put in each file, regenerated."""
    out = {}
    for t in range(spec.threads):
        gen = DataGenerator(spec.dup_ratio, seed=seed, stream=stream_base + t)
        for i in range(t, spec.nfiles, spec.threads):
            out[f"/t{t}/f{i}"] = gen.file_data(spec.file_size)
    return out


def _des_program_counters(results) -> dict:
    """Counters the DES runner already exposes, summed over passes."""
    last = results[-1]
    lock = last.metrics.get("histograms", {}).get("conc.lock_wait_ns", {})
    linger = [x for r in results for x in r.lingering_ns]
    return {
        "lock_wait_ns_sum": lock.get("sum", 0.0),
        "lock_wait_p99_ns": lock.get("p99", 0.0),
        "stalls": last.stalls,             # cumulative registry counter
        "steals": sum(r.steals for r in results),
        "linger_p99_ns": (percentile(sorted(linger), 0.99)
                          if linger else 0.0),
    }


# ---------------------------------------------------------------- workloads


class IngestSmall:
    """DeNova-Delayed(0.75 ms, 20000): 4 closed-loop clients create and
    write 4 KB files at alpha=0.5; 2 dedup workers, drained at the end."""

    name = "ingest-small"
    variant = Variant.DELAYED
    clients = 4
    workers = 2
    alpha = 0.5

    def __init__(self, nfiles: int = 1000, device_pages: int = 8192):
        self.nfiles = nfiles
        self.device_pages = device_pages

    def setup(self, seed: int):
        cfg = Config(device_pages=self.device_pages,
                     max_inodes=self.nfiles + 64, cpus=self.clients,
                     delayed_interval_ms=0.75, delayed_batch=20000)
        fs, dd = make_fs(self.variant, cfg)
        spec = small_file_job(nfiles=self.nfiles, dup_ratio=self.alpha,
                              threads=self.clients, seed=seed)
        return {"fs": fs, "dd": dd, "spec": spec}

    def run(self, st, probes, split):
        st["result"] = run_workload(st["fs"], st["spec"], dd=st["dd"],
                                    workers=self.workers)
        return len(probes.op_latency_ns)

    def check(self, st, ops, probes) -> Outcome:
        fs, spec, r = st["fs"], st["spec"], st["result"]
        sim, samples = latency_metrics(probes.op_latency_ns)
        space = fs.space_stats()
        sim.update({
            "sim_write_mb_s": r.throughput_mb_s,
            "sim_dedup_drain_ms": (r.total_ns - r.foreground_ns) / 1e6,
            "space_amp": _space_amp(space),
        })
        samples.update({"sim_write_mb_s": r.files_done,
                        "sim_dedup_drain_ms": 1,
                        "space_amp": space["logical_pages"]})
        out = Outcome(ops=ops, user_bytes=r.bytes_moved, sim=sim,
                      samples=samples,
                      program=_des_program_counters([r]))
        out.digest = digest([fs.dev], sim)
        failures = out.failures
        if r.files_done != spec.nfiles:
            failures.append(f"{spec.nfiles - r.files_done} files not done")
        expected = _expected_files(spec, spec.seed + 1, 0)
        out.attempted = ops + _check_drained_fs(fs, expected, failures)
        return out


class RewriteLargeInline:
    """DeNova-Inline: a 128 KB file set at alpha=0.5 is prepopulated in
    set-up; 2 closed-loop clients run whole-file overwrite rounds, then
    one read-back round."""

    name = "rewrite-large-inline"
    variant = Variant.INLINE
    clients = 2
    alpha = 0.5

    def __init__(self, nfiles: int = 64, rounds: int = 16,
                 device_pages: int = 8192):
        self.nfiles = nfiles
        self.rounds = rounds
        self.device_pages = device_pages

    def setup(self, seed: int):
        cfg = Config(device_pages=self.device_pages,
                     max_inodes=self.nfiles + 64, cpus=self.clients)
        fs, dd = make_fs(self.variant, cfg)
        spec = large_file_job(nfiles=self.nfiles, dup_ratio=self.alpha,
                              threads=self.clients, seed=seed)
        inos = prepopulate(fs, spec)
        return {"fs": fs, "dd": dd, "spec": spec, "inos": inos}

    def round_seed(self, seed: int, r: int) -> int:
        return seed + 1 + r

    def run(self, st, probes, split):
        fs, dd, spec, inos = st["fs"], st["dd"], st["spec"], st["inos"]
        st["writes"] = []
        for r in range(self.rounds):
            st["writes"].append(run_workload(
                fs, spec.with_(mode=Mode.OVERWRITE,
                               seed=self.round_seed(spec.seed, r)),
                dd=dd, inos=inos))
            split()
        st["read"] = run_workload(fs, spec.with_(mode=Mode.READ), dd=dd,
                                  inos=inos)
        return len(probes.op_latency_ns)

    def check(self, st, ops, probes) -> Outcome:
        fs, spec = st["fs"], st["spec"]
        writes, read = st["writes"], st["read"]
        sim, samples = latency_metrics(probes.op_latency_ns)
        space = fs.space_stats()
        written = sum(r.bytes_moved for r in writes)
        sim.update({
            "sim_write_mb_s": (written / MB)
            / (sum(r.foreground_ns for r in writes) / 1e9),
            "sim_read_mb_s": read.throughput_mb_s,
            "space_amp": _space_amp(space),
        })
        samples.update({"sim_write_mb_s": sum(r.files_done for r in writes),
                        "sim_read_mb_s": read.files_done,
                        "space_amp": space["logical_pages"]})
        out = Outcome(ops=ops, user_bytes=written, sim=sim, samples=samples,
                      program=_des_program_counters(writes + [read]))
        out.digest = digest([fs.dev], sim)
        failures = out.failures
        for r in writes + [read]:
            if r.files_done != spec.nfiles:
                failures.append(f"{spec.nfiles - r.files_done} files not "
                                f"done in a {r.spec.mode.value} round")
        last = self.round_seed(spec.seed, self.rounds - 1)
        expected = _expected_files(spec, last + 1, 1000)
        out.attempted = ops + _check_drained_fs(fs, expected, failures)
        return out


def planned_crash_points(total: int, cfg: FuzzConfig) -> int:
    """How many crash points ``run_case`` is meant to test for a scenario
    with ``total`` persist events: every stride-th event, per
    (phase, mode), with the stride set by the budget."""
    combos = len(cfg.phases) * len(cfg.modes)
    if not combos or cfg.budget <= 0:
        return 0
    stride = max(1, total // max(1, cfg.budget // combos))
    return combos * len(range(1, total + 1, stride))


class CrashSweep:
    """Seeded fuzz sequences on DeNova-Delayed with FuzzConfig defaults
    (pre/post x discard/torn), differential-checked and crash-swept at a
    fixed budget through ``repro.fuzz.diff.run_case``."""

    name = "crash-sweep"
    clients = 1

    def __init__(self, cases: int = 6, nops: int = 200, budget: int = 12):
        self.cases = cases
        self.nops = nops
        self.budget = budget

    def config(self, seed: int) -> FuzzConfig:
        return FuzzConfig(seed=seed, budget=self.budget)

    def setup(self, seed: int):
        return {"seed": seed,
                "seqs": [generate_sequence(seed, k, self.nops)
                         for k in range(self.cases)]}

    def run(self, st, probes, split):
        st["results"] = []
        for k, ops in enumerate(st["seqs"]):
            if k:
                split()
            probes.begin_case()
            try:
                st["results"].append(run_case(ops, self.config(st["seed"])))
            finally:
                probes.end_case()
        return sum(c.ops_total for c in probes.cases)

    def check(self, st, ops, probes) -> Outcome:
        results, cases = st["results"], probes.cases
        cfg = self.config(st["seed"])
        op_ns = [x for c in cases for x in c.op_ns]
        sim, samples = latency_metrics(op_ns)
        write_bytes = sum(c.write_bytes for c in cases)
        write_ns = sum(c.write_ns for c in cases)
        recovery = [x for c in cases for x in c.recovery_ns]
        failures: list = []
        spaces = []
        for k, (res, case) in enumerate(zip(results, cases)):
            for v in res.violations:
                failures.append(f"case {k}: {v}")
            if case.stops:
                failures.append(f"case {k}: {case.stops} ops hit a "
                                f"resource limit")
            planned = planned_crash_points(case.persist_events or 0, cfg)
            if res.crash_points != planned:
                failures.append(f"case {k}: {res.crash_points} crash points "
                                f"!= {planned} planned")
            if len(case.recovery_ns) != res.crash_points:
                failures.append(f"case {k}: {len(case.recovery_ns)} "
                                f"recovery mounts != {res.crash_points} "
                                f"crash points")
            if case.final_fs is not None:
                spaces.append(case.final_fs.space_stats())
        logical = sum(s["logical_pages"] for s in spaces)
        physical = sum(s["physical_pages"] for s in spaces)
        sim.update({
            "sim_write_mb_s": (write_bytes / MB) / (write_ns / 1e9)
            if write_ns else 0.0,
            "space_amp": physical / logical if logical else 0.0,
            "sim_recovery_us": (median(recovery) / 1000.0
                                if recovery else 0.0),
        })
        crash_points = sum(r.crash_points for r in results)
        samples.update({"sim_write_mb_s": sum(c.writes for c in cases),
                        "space_amp": logical,
                        "sim_recovery_us": len(recovery)})
        out = Outcome(ops=ops, user_bytes=write_bytes, sim=sim,
                      samples=samples, failures=failures,
                      crash_points=crash_points,
                      program={"persist_events": sum(
                          c.persist_events or 0 for c in cases)})
        out.digest = digest([c.final_fs.dev for c in cases
                             if c.final_fs is not None], sim)
        # Every op applied, every case's oracle and every crash point.
        out.attempted = ops + len(results) + crash_points
        return out


WORKLOADS = {w.name: w for w in (IngestSmall, RewriteLargeInline,
                                 CrashSweep)}

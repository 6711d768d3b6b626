"""Measurement hooks installed on every run, traced or not.

They observe what the program already computes and add nothing to its
simulated cost:

* raw per-op client latencies of the DES front end — the values
  ``ConcurrentVFS.op`` observes into its bucketed
  ``conc.t<i>.op_latency_ns`` histograms, kept unbucketed so
  percentiles are exact;
* for fuzz cases: the simulated cost of every op of the clean
  differential pass, the simulated cost of every crash-point recovery
  mount, the persist-event count that plans the sweep, and the final
  drained filesystem the clean pass checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import repro.fuzz.diff as fuzz_diff
from repro.conc.vfs import ConcurrentVFS
from repro.nova.fs import NovaFS

from perfbench.patching import Patcher


class _RawLatency:
    """Histogram stand-in that keeps every observed value."""

    __slots__ = ("_hist", "_samples")

    def __init__(self, hist, samples: list) -> None:
        self._hist = hist
        self._samples = samples

    def observe(self, value: float) -> None:
        self._samples.append(value)
        self._hist.observe(value)

    def __getattr__(self, name):
        return getattr(self._hist, name)


@dataclass
class CaseProbe:
    """What one ``run_case`` call exposed."""

    clean_dev: object = None
    op_ns: list = field(default_factory=list)        # clean-pass ops
    writes: int = 0
    write_bytes: int = 0
    write_ns: float = 0.0
    ops_total: int = 0                               # every apply_op call
    recovery_ns: list = field(default_factory=list)  # per crash point
    persist_events: Optional[int] = None
    final_fs: object = None
    stops: int = 0                                   # resource exhaustion


class Probes:
    """Install with ``with Probes() as p:``; read the lists afterwards."""

    def __init__(self) -> None:
        self.op_latency_ns: list[float] = []
        self.cases: list[CaseProbe] = []
        self._case: Optional[CaseProbe] = None
        self._in_op = 0
        self._patcher = Patcher()

    def begin_case(self) -> None:
        self._case = CaseProbe()
        self.cases.append(self._case)

    def end_case(self) -> None:
        self._case = None

    # ------------------------------------------------------------ install

    def __enter__(self) -> "Probes":
        p = self._patcher
        samples = self.op_latency_ns

        def latency(orig):
            def client_latency_histogram(vfs, tid):
                return _RawLatency(orig(vfs, tid), samples)
            return client_latency_histogram

        p.wrap(ConcurrentVFS, "client_latency_histogram", latency)
        p.wrap(fuzz_diff, "make_fs", self._make_fs)
        p.wrap(fuzz_diff, "apply_op", self._apply_op)
        p.wrap(fuzz_diff, "count_persist_events", self._count_persist)
        p.wrap(fuzz_diff, "full_equivalence_check", self._final_check)
        p.wrap(NovaFS, "mount", self._mount)
        return self

    def __exit__(self, *exc) -> None:
        self._patcher.restore()

    # ------------------------------------------------------------ fuzz hooks

    def _make_fs(self, orig):
        def make_fs(cfg):
            fs = orig(cfg)
            case = self._case
            if case is not None and case.clean_dev is None:
                case.clean_dev = fs.dev
            return fs
        return make_fs

    def _apply_op(self, orig):
        def apply_op(fs, model, op):
            case = self._case
            if case is None:
                return orig(fs, model, op)
            case.ops_total += 1
            clean = fs.dev is case.clean_dev
            clock = fs.dev.clock
            before = clock.charged_ns
            self._in_op += 1
            try:
                fs, status = orig(fs, model, op)
            finally:
                self._in_op -= 1
            if status == "stop":
                case.stops += 1
            elif clean and status == "ok":
                cost = clock.charged_ns - before
                case.op_ns.append(cost)
                if op.op == "write":
                    case.writes += 1
                    case.write_bytes += op.length
                    case.write_ns += cost
            return fs, status
        return apply_op

    def _count_persist(self, orig):
        def count_persist_events(build):
            total = orig(build)
            case = self._case
            if case is not None and case.persist_events is None:
                case.persist_events = total
            return total
        return count_persist_events

    def _final_check(self, orig):
        def full_equivalence_check(fs, model):
            if self._case is not None:
                self._case.final_fs = fs
            return orig(fs, model)
        return full_equivalence_check

    def _mount(self, orig):
        def mount(cls, dev, *args, **kwargs):
            case = self._case
            before = dev.clock.charged_ns
            fs = orig(cls, dev, *args, **kwargs)
            # A mount outside any op, on a replay device, is the recovery
            # mount of one crash point (remount/crash ops run inside ops).
            if (case is not None and self._in_op == 0
                    and dev is not case.clean_dev):
                case.recovery_ns.append(dev.clock.charged_ns - before)
            return fs
        return mount

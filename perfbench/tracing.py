"""The traced run: spans around each layer's public entry points.

:class:`LayerTracer` replaces public functions of every layer with
wrappers that open a span per outermost call.  A span records its name,
wall start and end, its parent and the id of the client op it belongs
to; spans are kept in memory and written out when the run ends.  Per
layer the tracer aggregates call counts, self wall time (a span's
duration minus the time its child spans cover) and the simulated ns
charged while the span was open.  Simulated charges are counted by
wrapping ``SimClock.advance``, which every modelled cost goes through.

Nothing here edits the program: :meth:`LayerTracer.__exit__` restores
every original function.
"""

from __future__ import annotations

import json
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

import repro.failure.injector as injector
import repro.fuzz.diff as fuzz_diff
import repro.nova.recovery as nova_recovery
from repro.conc.vfs import ConcurrentVFS
from repro.dedup.daemon import DaemonStats, DedupDaemon
from repro.dedup.dwq import DWQ
from repro.dedup.fact import FACT
from repro.dedup.fingerprint import Fingerprinter
from repro.dedup.inline import InlineDedupFS
from repro.nova.fs import NovaFS
from repro.nova.log import LogManager
from repro.nova.radix import FileIndex
from repro.obs.trace import Tracer
from repro.pm.allocator import PageAllocator
from repro.pm.clock import SimClock
from repro.pm.device import PMDevice
from repro.sim.engine import Engine
from repro.workloads.datagen import DataGenerator

from perfbench.patching import Patcher

# Spans beyond this many are counted but not kept (memory bound).
SPAN_CAPACITY = 200_000


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``owner.attr`` opens a ``layer`` span."""

    layer: str
    owner: object
    attr: str
    generator: bool = False     # DES process step: one span per resume
    new_op: bool = False        # each call starts a new client op id
    pre: Optional[Callable] = None   # pre(args) -> token
    post: Optional[Callable] = None  # post(tracer, args, result, token)


def _fact_lookup(tr, _args, res, _token):
    tr.count("dedup.fact.probes", res.steps)
    if res.found is not None:
        tr.count("dedup.fact.hits")


def _recovered(tr, _args, report, _token):
    tr.count("nova.recovery.entries_replayed", report.entries_replayed)


def _enqueued(tr, args, _res, _token):
    tr.peak("dedup.dwq.peak_depth", len(args[0]))


def _events_before(args):
    return args[0].events_dispatched


def _events_after(tr, args, _res, before):
    tr.count("sim.engine.events", args[0].events_dispatched - before)


TARGETS: tuple[Target, ...] = (
    # pm
    *(Target("pm.device", PMDevice, a) for a in
      ("read", "write", "write_atomic64", "zero_range", "clwb", "sfence",
       "persist")),
    Target("pm.allocator.allocs", PageAllocator, "alloc"),
    Target("pm.allocator.frees", PageAllocator, "free"),
    # nova
    Target("nova.fs.creates", NovaFS, "create"),
    Target("nova.fs.writes", NovaFS, "write"),
    Target("nova.fs.writes", InlineDedupFS, "write"),
    Target("nova.fs.reads", NovaFS, "read"),
    Target("nova.log.appends", LogManager, "append"),
    Target("nova.log.commits", LogManager, "commit"),
    Target("nova.radix.installs", FileIndex, "install"),
    Target("nova.radix.lookups", FileIndex, "lookup"),
    Target("nova.recovery", nova_recovery, "recover", post=_recovered),
    # dedup
    Target("dedup.fingerprint.strong", Fingerprinter, "strong"),
    Target("dedup.fingerprint.weak", Fingerprinter, "weak"),
    Target("dedup.fact.lookups", FACT, "lookup", post=_fact_lookup),
    Target("dedup.fact.inserts", FACT, "insert"),
    Target("dedup.fact.dec_rfc", FACT, "dec_rfc"),
    Target("dedup.fact.removes", FACT, "remove"),
    Target("dedup.fact.recover", FACT, "structural_recover"),
    Target("dedup.fact.recover", FACT, "check_chains"),
    *(Target("dedup.daemon", DedupDaemon, a) for a in
      ("process_node", "validate_node", "fingerprint_page", "stage_page",
       "commit_node")),
    Target("dedup.dwq.enqueue", DWQ, "enqueue", post=_enqueued),
    # conc + sim
    Target("conc.vfs", ConcurrentVFS, "op", generator=True, new_op=True),
    Target("conc.vfs", ConcurrentVFS, "admit", generator=True),
    Target("sim.engine", Engine, "run", pre=_events_before,
           post=_events_after),
    # failure + fuzz
    Target("failure.injector.count", injector, "count_persist_events"),
    Target("failure.injector.count", fuzz_diff, "count_persist_events"),
    Target("failure.injector.replays", injector, "run_with_crash"),
    Target("failure.injector.crash", PMDevice, "crash"),
    Target("failure.injector.crash", PMDevice, "recover_view"),
    Target("fuzz.op", fuzz_diff, "apply_op", new_op=True),
    Target("fuzz.oracle", fuzz_diff, "prefix_equivalence_check"),
    Target("fuzz.oracle", fuzz_diff, "full_equivalence_check"),
    Target("fuzz.oracle", fuzz_diff, "check_fs_invariants"),
    Target("fuzz.oracle", fuzz_diff, "model_after"),
    # workloads
    Target("workloads.datagen", DataGenerator, "pages"),
    Target("workloads.datagen", DataGenerator, "file_data"),
)


class LayerStats:
    __slots__ = ("calls", "self_s", "sim_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.sim_ns = 0.0


class _Registry:
    """Counter objects of program instances, each with a baseline.

    Holds the owner weakly and its counters strongly, so the counts of
    an object that dies mid-phase (a crash-replay device) are kept, and
    objects that died before :meth:`rebase` are dropped.
    """

    def __init__(self, get: Callable, snap: Callable) -> None:
        self.get = get              # owner -> live counters object
        self.snap = snap            # counters -> dict of values
        self.entries: list[tuple] = []

    def add(self, owner) -> None:
        self.entries.append((weakref.ref(owner), self.get(owner), {}))

    def rebase(self) -> None:
        self.entries = [(ref, live, self.snap(live))
                        for ref, live, _ in self.entries
                        if ref() is not None]

    def totals(self) -> dict:
        out: dict = defaultdict(int)
        for _ref, live, base in self.entries:
            for k, v in self.snap(live).items():
                out[k] += v - base.get(k, 0)
        return out


class LayerTracer:
    """Install with ``with LayerTracer() as tr:``; call :meth:`reset` at
    the start of the measured phase and :meth:`stop` at its end."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self._patcher = Patcher()
        self.charged_ns = 0.0       # every SimClock charge while installed
        self.active = False
        self._devices = _Registry(lambda dev: dev.stats,
                                  lambda st: st.snapshot())
        # The daemon's counters live in its filesystem's metrics
        # registry; hold the Counter objects, not the registry (whose
        # callbacks would keep every filesystem and device alive).
        self._daemons = _Registry(
            lambda d: {f: d.fs.obs.registry.counter(f"daemon.{f}_total")
                       for f in DaemonStats._fields},
            lambda counters: {f: c.value for f, c in counters.items()})
        self._clear()

    # ------------------------------------------------------------ state

    def _clear(self) -> None:
        self.layers: dict[str, LayerStats] = defaultdict(LayerStats)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.root_s = 0.0           # wall covered by parentless spans
        self.wall_s = 0.0
        self._stack: list[list] = []
        self._next_span = 0
        self._next_op = 0
        self._t0 = time.perf_counter()

    def reset(self) -> None:
        """Forget everything measured so far and start recording."""
        self._clear()
        self._devices.rebase()
        self._daemons.rebase()
        self.active = True

    def stop(self) -> None:
        self.wall_s = time.perf_counter() - self._t0
        self.active = False

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    def peak(self, key: str, value: float) -> None:
        if value > self.counts[key]:
            self.counts[key] = value

    # ------------------------------------------------------------ spans

    def _enter(self, layer: str, new_op: bool) -> list:
        stack = self._stack
        parent = stack[-1] if stack else None
        self._next_span += 1
        if new_op or parent is None:
            self._next_op += 1
            op = self._next_op
        else:
            op = parent[5]
        frame = [layer, time.perf_counter(), 0.0, self.charged_ns,
                 self._next_span, op, parent[4] if parent else 0]
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        layer, start, child, sim0, span_id, op, parent_id = frame
        dur = end - start
        st = self.layers[layer]
        st.calls += 1
        st.self_s += dur - child
        st.sim_ns += self.charged_ns - sim0
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.root_s += dur
        if len(self.spans) < SPAN_CAPACITY:
            self.spans.append((span_id, parent_id, op, layer, start, end))
        else:
            self.spans_dropped += 1

    def _func_wrapper(self, t: Target, orig):
        tracer = self
        layer, new_op, pre, post = t.layer, t.new_op, t.pre, t.post

        def traced(*args, **kwargs):
            stack = tracer._stack
            if not tracer.active or (stack and stack[-1][0] == layer):
                return orig(*args, **kwargs)
            token = pre(args) if pre is not None else None
            frame = tracer._enter(layer, new_op)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if post is not None:
                post(tracer, args, result, token)
            return result

        traced.__wrapped__ = orig
        return traced

    def _gen_wrapper(self, t: Target, orig):
        tracer = self
        layer, new_op = t.layer, t.new_op
        calls_key = f"{layer}.{t.attr}_calls"

        def traced(*args, **kwargs):
            gen = orig(*args, **kwargs)
            if not tracer.active:
                return (yield from gen)
            tracer.counts[calls_key] += 1
            op = None
            send, value = gen.send, None
            while True:
                frame = tracer._enter(layer, new_op and op is None)
                if op is None:
                    op = frame[5]
                else:
                    frame[5] = op
                try:
                    yielded = send(value)
                except StopIteration as stop:
                    tracer._exit(frame)
                    return stop.value
                except BaseException:
                    tracer._exit(frame)
                    raise
                tracer._exit(frame)
                try:
                    value = yield yielded
                    send = gen.send
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # forwarded into the step
                    value = exc
                    send = gen.throw

        traced.__wrapped__ = orig
        return traced

    # ------------------------------------------------------------ install

    def __enter__(self) -> "LayerTracer":
        p = self._patcher
        tracer = self

        def advance(orig):
            def traced_advance(clock, ns):
                tracer.charged_ns += ns
                return orig(clock, ns)
            return traced_advance

        p.wrap(SimClock, "advance", advance)
        for t in self.targets:
            make = self._gen_wrapper if t.generator else self._func_wrapper
            p.wrap(t.owner, t.attr, lambda orig, t=t, make=make: make(t, orig))
        # Counters the program keeps per object, summed over objects.
        p.wrap(PMDevice, "__init__", self._registering(self._devices))
        p.wrap(DedupDaemon, "__init__", self._registering(self._daemons))
        p.wrap(Tracer, "span", self._counting("obs.spans_recorded"))
        p.wrap(Tracer, "emit", self._counting("obs.spans_recorded"))
        return self

    def __exit__(self, *exc) -> None:
        self._patcher.restore()
        self.active = False

    @staticmethod
    def _registering(registry: _Registry):
        def make(orig):
            def __init__(obj, *args, **kwargs):
                orig(obj, *args, **kwargs)
                registry.add(obj)
            return __init__
        return make

    def _counting(self, key: str):
        tracer = self

        def make(orig):
            def counted(*args, **kwargs):
                if tracer.active:
                    tracer.counts[key] += 1
                return orig(*args, **kwargs)
            return counted
        return make

    # ------------------------------------------------------------ results

    def device_totals(self) -> dict:
        """``PMStats`` of every device, summed, since :meth:`reset`."""
        return self._devices.totals()

    def daemon_totals(self) -> dict:
        """``DaemonStats`` of every daemon, summed, since :meth:`reset`."""
        return self._daemons.totals()

    def write_spans(self, path) -> None:
        """One JSON object per line: id, parent, op, name, start, end."""
        with open(path, "w") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "op": op,
                    "name": name, "start_s": start - self._t0,
                    "end_s": end - self._t0}) + "\n")

"""Emulated byte-addressable persistent-memory device.

Persistence semantics follow x86 + Optane:

* Stores land in a **volatile CPU cache**.  They are visible to subsequent
  reads immediately but are *not durable*.
* ``clwb(addr)`` schedules a cache line for write-back; the line is durable
  only after the next ``sfence()``.
* Non-temporal stores (``write(..., nt=True)``) bypass the cache but still
  require ``sfence()`` for durability.
* Aligned 8-byte stores are atomic — a crash never tears them (the basis
  of NOVA's atomic log-tail update and DeNova's UC/RFC updates).

Crash modelling
---------------
:meth:`PMDevice.crash` reverts every non-durable line to its last durable
content (``discard`` mode), or — in the adversarial ``torn`` mode — lets an
arbitrary subset of *aligned 8-byte words* of each non-durable line reach
the media, which is the strictest legal x86 behaviour.  Recovery code is
tested under both.

Implementation notes (per the HPC guides: views over copies, vectorized
bulk paths): logical content lives in one NumPy ``uint8`` array; only
*dirty* lines carry a shadow copy of their durable content, so bulk writes
stay O(bytes touched) with no full-device copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.pm.clock import SimClock
from repro.pm.latency import LatencyModel, OPTANE_DCPM

__all__ = ["PMDevice", "PMStats", "CrashRequested", "CACHELINE"]

CACHELINE = 64
_WORD = 8


class CrashRequested(Exception):
    """Raised by a crash-injection hook to simulate sudden power loss."""

    def __init__(self, point: str = "", count: int = -1):
        super().__init__(f"injected crash at {point!r} #{count}")
        self.point = point
        self.count = count


@dataclass
class PMStats:
    """Cumulative device activity counters (reset with a new device)."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    nt_writes: int = 0
    clwbs: int = 0
    sfences: int = 0
    lines_persisted: int = 0
    crashes: int = 0

    def snapshot(self) -> dict:
        return dict(self.__dict__)


@dataclass
class PMHooks:
    """Injection points for the failure framework.

    Each hook receives ``(event_count, device)`` and may raise
    :class:`CrashRequested`.  ``on_persist`` fires on every sfence that
    commits at least one line, *before* the commit takes effect (a crash
    there leaves the lines volatile); ``on_persist_done`` fires after.
    """

    on_write: Optional[Callable[[int, "PMDevice"], None]] = None
    on_persist: Optional[Callable[[int, "PMDevice"], None]] = None
    on_persist_done: Optional[Callable[[int, "PMDevice"], None]] = None


class PMDevice:
    """A byte-addressable PM device with cache-line persistence tracking."""

    def __init__(
        self,
        size: int,
        model: LatencyModel = OPTANE_DCPM,
        clock: Optional[SimClock] = None,
        track_wear: bool = False,
    ):
        if size <= 0 or size % CACHELINE:
            raise ValueError(f"size must be a positive multiple of {CACHELINE}")
        self.size = size
        self.model = model
        self.clock = clock if clock is not None else SimClock()
        self.stats = PMStats()
        self.hooks = PMHooks()
        self._mem = np.zeros(size, dtype=np.uint8)
        # line index -> durable content of that line (bytes), present only
        # while the line has non-durable stores.
        self._shadow: dict[int, bytes] = {}
        self._dirty: set[int] = set()     # stored, not yet clwb'd
        self._flushing: set[int] = set()  # clwb'd / nt-stored, not yet fenced
        self._wear: Optional[np.ndarray] = (
            np.zeros(size // CACHELINE, dtype=np.uint32) if track_wear else None
        )
        self._crashed = False

    # -- internals -----------------------------------------------------------

    def _check_range(self, addr: int, n: int) -> None:
        if self._crashed:
            raise RuntimeError("device has crashed; call recover_view() first")
        if addr < 0 or n < 0 or addr + n > self.size:
            raise ValueError(f"access [{addr}, {addr + n}) out of device bounds")

    def _lines(self, addr: int, n: int) -> range:
        return range(addr // CACHELINE, (addr + n - 1) // CACHELINE + 1)

    def _shadow_lines(self, addr: int, n: int) -> None:
        """Snapshot durable content of lines about to be dirtied."""
        for line in self._lines(addr, n):
            if line not in self._shadow:
                start = line * CACHELINE
                self._shadow[line] = self._mem[start:start + CACHELINE].tobytes()

    # -- data path -------------------------------------------------------------

    def read(self, addr: int, n: int) -> bytes:
        """Read ``n`` bytes; charges one request of read latency + bandwidth."""
        self._check_range(addr, n)
        self.stats.reads += 1
        self.stats.bytes_read += n
        self.clock.advance(self.model.read_cost(n))
        return self._mem[addr:addr + n].tobytes()

    def read_silent(self, addr: int, n: int) -> bytes:
        """Read without charging cost (debug/verification use only)."""
        if addr < 0 or n < 0 or addr + n > self.size:
            raise ValueError("out of bounds")
        return self._mem[addr:addr + n].tobytes()

    def write(self, addr: int, data: bytes | bytearray | memoryview,
              nt: bool = False) -> None:
        """Store ``data`` at ``addr``.

        ``nt=True`` models non-temporal (streaming) stores: the affected
        lines skip the cache and only await the next fence.  Used for bulk
        data-page copies, as NOVA does with ``movnt``.
        """
        n = len(data)
        if n == 0:
            return
        self._check_range(addr, n)
        self.stats.writes += 1
        self.stats.bytes_written += n
        self._shadow_lines(addr, n)
        # frombuffer is zero-copy over bytes; only re-materialize other
        # buffer types (profiled hot path — see the HPC guides).
        if not isinstance(data, bytes):
            data = bytes(data)
        self._mem[addr:addr + n] = np.frombuffer(data, dtype=np.uint8)
        lines = self._lines(addr, n)
        if nt:
            self.stats.nt_writes += 1
            self._flushing.update(lines)
            self._dirty.difference_update(lines)
        else:
            # A store to a line with an in-flight clwb invalidates that
            # write-back: the line must be clwb'd again to become durable.
            # (Under-approximating durability is the safe direction for
            # crash testing — we never falsely persist.)
            self._flushing.difference_update(lines)
            self._dirty.update(lines)
        self.clock.advance(self.model.write_cost(n))
        if self.hooks.on_write is not None:
            self.hooks.on_write(self.stats.writes, self)

    def write_atomic64(self, addr: int, value: int) -> None:
        """Aligned 8-byte store — atomic with respect to crashes."""
        if addr % _WORD:
            raise ValueError(f"atomic 64-bit store must be 8-aligned: {addr}")
        self.write(addr, int(value).to_bytes(8, "little"))

    def zero_range(self, addr: int, n: int, nt: bool = True) -> None:
        """Store zeros over a range (page initialization)."""
        self.write(addr, bytes(n), nt=nt)

    # -- persistence ------------------------------------------------------------

    def clwb(self, addr: int, n: int = CACHELINE) -> None:
        """Initiate write-back of every cache line covering ``[addr, addr+n)``."""
        self._check_range(addr, n)
        for line in self._lines(addr, n):
            self.stats.clwbs += 1
            self.clock.advance(self.model.clwb_ns)
            if line in self._dirty:
                self._dirty.discard(line)
                self._flushing.add(line)

    def sfence(self) -> None:
        """Drain pending write-backs; everything clwb'd/nt-stored is durable."""
        if self._crashed:
            raise RuntimeError("device has crashed")
        self.stats.sfences += 1
        self.clock.advance(self.model.sfence_ns)
        if not self._flushing:
            return
        count = self.stats.sfences
        if self.hooks.on_persist is not None:
            self.hooks.on_persist(count, self)
        for line in self._flushing:
            self._shadow.pop(line, None)
            if self._wear is not None:
                self._wear[line] += 1
        self.stats.lines_persisted += len(self._flushing)
        self._flushing.clear()
        if self.hooks.on_persist_done is not None:
            self.hooks.on_persist_done(count, self)

    def persist(self, addr: int, n: int) -> None:
        """Convenience: clwb the range then sfence (the common pairing)."""
        self.clwb(addr, n)
        self.sfence()

    # -- typed helpers -----------------------------------------------------------

    def read_u32(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 4), "little")

    def read_u64(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 8), "little")

    def read_i64(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 8), "little", signed=True)

    def write_u32(self, addr: int, value: int) -> None:
        self.write(addr, int(value).to_bytes(4, "little"))

    def write_i64(self, addr: int, value: int) -> None:
        self.write(addr, int(value).to_bytes(8, "little", signed=True))

    # -- crash & recovery ----------------------------------------------------------

    @property
    def volatile_lines(self) -> int:
        """Number of cache lines whose content is not yet durable."""
        return len(self._shadow)

    def crash(self, mode: str = "discard",
              rng: Optional[np.random.Generator] = None) -> None:
        """Simulate sudden power loss.

        ``discard``: every non-durable line reverts to its durable content.
        ``torn``: for each non-durable line, each aligned 8-byte word
        independently either persists or reverts (seeded ``rng``) — the
        strictest legal x86 outcome.
        """
        if mode not in ("discard", "torn"):
            raise ValueError(f"unknown crash mode {mode!r}")
        if mode == "torn" and rng is None:
            rng = np.random.default_rng(0)
        self.stats.crashes += 1
        for line, durable in self._shadow.items():
            start = line * CACHELINE
            if mode == "discard":
                self._mem[start:start + CACHELINE] = np.frombuffer(
                    durable, dtype=np.uint8)
            else:
                old = np.frombuffer(durable, dtype=np.uint8).copy()
                new = self._mem[start:start + CACHELINE].copy()
                keep_new = rng.integers(0, 2, size=CACHELINE // _WORD,
                                        dtype=np.uint8).astype(bool)
                mixed = old
                for w in range(CACHELINE // _WORD):
                    if keep_new[w]:
                        mixed[w * _WORD:(w + 1) * _WORD] = \
                            new[w * _WORD:(w + 1) * _WORD]
                self._mem[start:start + CACHELINE] = mixed
        self._shadow.clear()
        self._dirty.clear()
        self._flushing.clear()
        self._crashed = True

    def recover_view(self) -> "PMDevice":
        """Reopen the device after a crash (same media, fresh cache state)."""
        if not self._crashed:
            raise RuntimeError("recover_view() on a device that did not crash")
        self._crashed = False
        return self

    # -- image persistence -----------------------------------------------------

    _IMAGE_MAGIC = b"DENOVAPM"

    def save_image(self, path) -> None:
        """Serialize the *durable* state to a file.

        Only persisted bytes are written: anything still volatile in the
        cache is intentionally dropped, so a saved image is exactly what
        a power cycle would leave (callers wanting everything should
        fence first).
        """
        import struct as _struct

        volatile = {line: self._mem[line * CACHELINE:(line + 1) * CACHELINE]
                    .copy() for line in self._shadow}
        # Temporarily roll back to durable content for the dump.
        for line, durable in self._shadow.items():
            start = line * CACHELINE
            self._mem[start:start + CACHELINE] = np.frombuffer(
                durable, dtype=np.uint8)
        try:
            name = self.model.name.encode()
            with open(path, "wb") as fh:
                fh.write(self._IMAGE_MAGIC)
                fh.write(_struct.pack("<QB", self.size, len(name)))
                fh.write(name)
                self._mem.tofile(fh)
        finally:
            for line, content in volatile.items():
                start = line * CACHELINE
                self._mem[start:start + CACHELINE] = content

    @classmethod
    def load_image(cls, path, clock: Optional[SimClock] = None,
                   track_wear: bool = False) -> "PMDevice":
        """Reopen a device image saved with :meth:`save_image`.

        Raises ``OSError`` when the file cannot be read and
        ``ValueError`` when it is not a whole device image.
        """
        import os
        import struct as _struct

        from repro.pm.latency import PROFILES

        with open(path, "rb") as fh:
            if fh.read(8) != cls._IMAGE_MAGIC:
                raise ValueError(f"{path}: not a PM device image")
            header = fh.read(9)
            if len(header) != 9:
                raise ValueError(f"{path}: truncated image")
            size, name_len = _struct.unpack("<QB", header)
            model_name = fh.read(name_len).decode(errors="replace")
            model = PROFILES.get(model_name)
            if model is None:
                raise ValueError(f"{path}: unknown device model "
                                 f"{model_name!r}")
            if os.fstat(fh.fileno()).st_size - fh.tell() < size:
                raise ValueError(f"{path}: truncated image")
            dev = cls(size, model=model, clock=clock,
                      track_wear=track_wear)
            dev._mem[:] = np.fromfile(fh, dtype=np.uint8, count=size)
        return dev

    def wear_max(self) -> int:
        """Highest per-line persist count (endurance proxy)."""
        if self._wear is None:
            raise RuntimeError("device created with track_wear=False")
        return int(self._wear.max())

    def wear_total(self) -> int:
        if self._wear is None:
            raise RuntimeError("device created with track_wear=False")
        return int(self._wear.sum())

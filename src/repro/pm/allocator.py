"""NOVA's per-CPU free page lists.

NOVA partitions the device's pages across per-CPU free lists so allocation
normally takes no shared lock.  A write entry records one *contiguous* run
of data pages, so allocation is extent-based: first-fit within the calling
CPU's list, falling back to stealing the largest extent from the fullest
other list when the local list cannot satisfy the request.

The allocator itself is DRAM state (NOVA rebuilds it from a log scan at
recovery), so it carries no persistence logic — :mod:`repro.nova.recovery`
reconstructs it from the in-use page bitmap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["PageAllocator", "AllocError", "Extent"]


class AllocError(Exception):
    """Raised when the device has no free extent large enough."""


@dataclass(frozen=True)
class Extent:
    """A contiguous run of free pages: ``[start, start + count)``."""

    start: int
    count: int

    @property
    def end(self) -> int:
        return self.start + self.count


class PageAllocator:
    """Extent-based per-CPU free lists over page numbers ``[lo, hi)``."""

    def __init__(self, lo: int, hi: int, cpus: int = 1):
        if hi <= lo:
            raise ValueError("empty page range")
        if cpus < 1:
            raise ValueError("cpus must be >= 1")
        self.lo = lo
        self.hi = hi
        self.cpus = cpus
        self._lists: list[list[Extent]] = [[] for _ in range(cpus)]
        total = hi - lo
        share = total // cpus
        for cpu in range(cpus):
            start = lo + cpu * share
            count = share if cpu < cpus - 1 else total - cpu * share
            if count:
                self._lists[cpu].append(Extent(start, count))
        self.allocs = 0
        self.frees = 0
        self.steals = 0
        self.alloc_log: Optional[list[Extent]] = None

    def attach_registry(self, registry) -> None:
        """Expose allocator state as callback-backed metrics.

        Callback-backed (rather than pushed) so alloc/free hot paths
        stay untouched; re-callable because recovery *rebuilds* the
        allocator via :meth:`from_bitmap` — the filesystem re-attaches
        the new instance and the metric names keep working.
        """
        registry.gauge_fn("alloc.free_pages", lambda: self.free_pages,
                          help="pages currently on the per-CPU free lists")
        registry.counter_fn("alloc.allocs_total", lambda: self.allocs,
                            help="extent allocations served")
        registry.counter_fn("alloc.frees_total", lambda: self.frees,
                            help="extent frees")
        registry.counter_fn("alloc.steals_total", lambda: self.steals,
                            help="cross-CPU extent steals")

    # -- queries ---------------------------------------------------------------

    @property
    def free_pages(self) -> int:
        return sum(e.count for lst in self._lists for e in lst)

    def free_pages_on(self, cpu: int) -> int:
        return sum(e.count for e in self._lists[cpu])

    def largest_extent(self) -> int:
        sizes = [e.count for lst in self._lists for e in lst]
        return max(sizes) if sizes else 0

    def is_free(self, page: int) -> bool:
        return any(e.start <= page < e.end
                   for lst in self._lists for e in lst)

    def home_cpu(self, page: int) -> int:
        """CPU owning ``page`` under the static mkfs partition.

        Frees that cannot name the allocating CPU (scrub, GC of
        long-dead extents) return pages here so large reclaims do not
        pile everything onto CPU 0.
        """
        if not self.lo <= page < self.hi:
            raise ValueError(f"page {page} outside [{self.lo}, {self.hi})")
        share = (self.hi - self.lo) // self.cpus
        if share == 0:
            return 0
        return min((page - self.lo) // share, self.cpus - 1)

    def free_extents(self) -> list[list[Extent]]:
        """Per-CPU free lists as plain extent lists (checkpoint snapshot)."""
        return [list(lst) for lst in self._lists]

    # -- allocation ------------------------------------------------------------

    def alloc(self, count: int, cpu: int = 0) -> int:
        """Allocate ``count`` contiguous pages, preferring ``cpu``'s list.

        Returns the first page number.  Raises :class:`AllocError` when no
        single free extent can hold the run (the filesystem treats that as
        ENOSPC; it does not split writes across extents because one write
        entry describes one contiguous run).
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        cpu %= self.cpus
        start = self._take_from(cpu, count)
        if start is None:
            # Steal: scan other lists, fullest first, for a fitting extent.
            order = sorted(
                (c for c in range(self.cpus) if c != cpu),
                key=self.free_pages_on,
                reverse=True,
            )
            for other in order:
                start = self._take_from(other, count)
                if start is not None:
                    self.steals += 1
                    break
        if start is None:
            raise AllocError(
                f"no contiguous extent of {count} pages "
                f"({self.free_pages} pages free, largest extent "
                f"{self.largest_extent()})"
            )
        self.allocs += 1
        if self.alloc_log is not None:
            self.alloc_log.append(Extent(start, count))
        return start

    def _take_from(self, cpu: int, count: int) -> Optional[int]:
        lst = self._lists[cpu]
        for i, ext in enumerate(lst):
            if ext.count >= count:
                if ext.count == count:
                    lst.pop(i)
                else:
                    lst[i] = Extent(ext.start + count, ext.count - count)
                return ext.start
        return None

    # -- free --------------------------------------------------------------------

    def free(self, start: int, count: int, cpu: int = 0) -> None:
        """Return ``[start, start+count)`` to ``cpu``'s list, merging extents."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if start < self.lo or start + count > self.hi:
            raise ValueError(f"free of [{start}, {start + count}) outside range")
        cpu %= self.cpus
        lst = self._lists[cpu]
        # Overlap check against every list: double frees corrupt filesystems
        # silently, so fail loudly here instead.
        for other in self._lists:
            for ext in other:
                if start < ext.end and ext.start < start + count:
                    raise ValueError(
                        f"double free: [{start}, {start + count}) overlaps "
                        f"free extent [{ext.start}, {ext.end})"
                    )
        self.frees += 1
        # Insert sorted by start, then merge with neighbours.
        idx = 0
        while idx < len(lst) and lst[idx].start < start:
            idx += 1
        lst.insert(idx, Extent(start, count))
        self._merge_around(lst, idx)

    @staticmethod
    def _merge_around(lst: list[Extent], idx: int) -> None:
        if idx + 1 < len(lst) and lst[idx].end == lst[idx + 1].start:
            lst[idx] = Extent(lst[idx].start, lst[idx].count + lst[idx + 1].count)
            lst.pop(idx + 1)
        if idx > 0 and lst[idx - 1].end == lst[idx].start:
            lst[idx - 1] = Extent(lst[idx - 1].start,
                                  lst[idx - 1].count + lst[idx].count)
            lst.pop(idx)

    # -- recovery ---------------------------------------------------------------

    @classmethod
    def from_bitmap(cls, lo: int, hi: int, in_use, cpus: int = 1
                    ) -> "PageAllocator":
        """Rebuild free lists from an in-use bitmap (recovery path).

        ``in_use`` is indexable by page number; truthy means occupied.
        Free runs are distributed round-robin across CPUs to re-balance.
        """
        alloc = cls.__new__(cls)
        alloc.lo, alloc.hi, alloc.cpus = lo, hi, cpus
        alloc.allocs = alloc.frees = alloc.steals = 0
        # Run edges are where the padded free mask flips.
        free = np.zeros(hi - lo + 2, dtype=np.int8)
        free[1:-1] = ~np.asarray(in_use[lo:hi], dtype=bool)
        edges = np.flatnonzero(np.diff(free)) + lo
        runs = [Extent(start, end - start) for start, end
                in zip(edges[0::2].tolist(), edges[1::2].tolist())]
        alloc._lists = [runs[cpu::cpus] for cpu in range(cpus)]
        alloc.alloc_log = None
        return alloc

    @classmethod
    def from_free_lists(cls, lo: int, hi: int,
                        lists: list[list[Extent]], cpus: int = 1
                        ) -> "PageAllocator":
        """Rebuild from checkpointed per-CPU free lists (clean remount).

        When the checkpoint was written under a different CPU count the
        extents are redistributed round-robin, mirroring
        :meth:`from_bitmap`'s re-balancing.
        """
        alloc = cls.__new__(cls)
        alloc.lo, alloc.hi, alloc.cpus = lo, hi, cpus
        alloc._lists = [[] for _ in range(cpus)]
        alloc.allocs = alloc.frees = alloc.steals = 0
        alloc.alloc_log = None
        if len(lists) == cpus:
            for cpu, lst in enumerate(lists):
                alloc._lists[cpu] = sorted(lst, key=lambda e: e.start)
        else:
            flat = sorted((e for lst in lists for e in lst),
                          key=lambda e: e.start)
            for i, ext in enumerate(flat):
                alloc._lists[i % cpus].append(ext)
            for lst in alloc._lists:
                lst.sort(key=lambda e: e.start)
        return alloc

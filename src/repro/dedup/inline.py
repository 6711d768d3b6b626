"""Inline-deduplication baselines (paper §III / §V "DeNova-Inline").

:class:`InlineDedupFS` performs the full dedup pipeline — chunking,
SHA-1 fingerprinting, FACT lookup, metadata update — *inside the write
path*, the way NVDedup/LO-Dedup do.  It shares FACT and the UC/RFC
consistency scheme with offline DeNova (entries are appended
``in_process`` and completed after the count commits, so the same §V-C
recovery applies), which isolates the experiment variable: *when* the
dedup work happens.

:class:`AdaptiveInlineFS` additionally models NVDedup's
workload-adaptive fingerprinting (Eq. 4): a cheap CRC32 weak fingerprint
always, the expensive SHA-1 only when the weak fingerprint collides —
including the lazy strong-fingerprint generation for previously
weak-only chunks.  Its metadata table is the DRAM index + modelled-NVM
record scheme of NVDedup (costs charged, not crash-consistent; it is a
throughput baseline, which is all the paper uses it for).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dedup.denova import DeNovaFS
from repro.dedup.fact import FactFull
from repro.nova.entries import DEDUPE_IN_PROCESS
from repro.nova.fs import NoSpace, extend_runs
from repro.nova.layout import PAGE_SIZE
from repro.pm.allocator import AllocError

__all__ = ["InlineDedupFS", "AdaptiveInlineFS"]


@dataclass
class _Decision:
    pgoff: int
    content: bytes
    is_dup: bool
    canonical: Optional[int] = None   # device page for duplicates
    fact_idx: Optional[int] = None    # staged-UC entry (strong variant)
    fp: Optional[bytes] = None
    weak: Optional[int] = None        # CRC32 (adaptive variant)
    new_block: Optional[int] = None   # assigned device page for uniques


class InlineDedupFS(DeNovaFS):
    """DeNova-Inline: strong-fingerprint dedup in the critical write path."""

    variant_name = "DeNova-Inline"

    #: An alias, not a second write path: the shared pipeline, bound
    #: here too so tools that wrap ``InlineDedupFS.write`` by name (the
    #: perfbench layer tracer) find it on this class.
    write = DeNovaFS.write

    # -- per-page classification (overridden by the adaptive variant) ------

    def _classify(self, pgoff: int, content: bytes) -> _Decision:
        fp = self.fingerprinter.strong(content)
        res = self.fact.lookup(fp)
        if res.found is not None:
            self.fact.inc_uc(res.found.idx)
            return _Decision(pgoff, content, is_dup=True,
                             canonical=res.found.block,
                             fact_idx=res.found.idx, fp=fp)
        return _Decision(pgoff, content, is_dup=False, fp=fp)

    def _register_unique(self, dec: _Decision) -> None:
        try:
            dec.fact_idx = self.fact.insert(dec.fp, dec.new_block)
        except FactFull:
            dec.fact_idx = None  # stored un-deduplicated

    def _unstage(self, dec: _Decision, cpu: int) -> None:
        """Undo one page's staged metadata and storage (ENOSPC)."""
        if dec.fact_idx is not None:
            self.fact.discard_uc(dec.fact_idx)
            if not dec.is_dup:
                self.fact.remove(dec.fact_idx)
        if not dec.is_dup:
            self.allocator.free(dec.new_block, 1, cpu)

    # -- the inline placement -----------------------------------------------

    def place(self, cache, offset: int, data: bytes, cpu: int):
        """Classify every page before storing it — the inline property.

        Duplicate pages are never written: each gets a one-page run on
        its canonical page.  Uniques are stored and registered at once,
        so a later identical page of the same write hits them
        (intra-write duplicates dedup too), and coalesce into runs.  On
        ENOSPC nothing is published yet; every page's staged metadata,
        DRAM included, is undone before ``NoSpace`` propagates.
        """
        buf = self._merge(cache, offset, data)
        pg_first = offset // PAGE_SIZE
        decisions: list[_Decision] = []
        try:
            for i in range(len(buf) // PAGE_SIZE):
                content = bytes(buf[i * PAGE_SIZE:(i + 1) * PAGE_SIZE])
                dec = self._classify(pg_first + i, content)
                if not dec.is_dup:
                    dec.new_block = self.allocator.alloc(1, cpu)
                    self.dev.write(dec.new_block * PAGE_SIZE, content,
                                   nt=True)
                    self._register_unique(dec)
                decisions.append(dec)
        except AllocError as exc:
            for dec in decisions:
                self._unstage(dec, cpu)
            raise NoSpace(str(exc)) from None
        runs: list[tuple[int, int, int]] = []
        for dec in decisions:
            if dec.is_dup:
                runs.append((dec.pgoff, dec.canonical, 1))
            else:
                extend_runs(runs, dec.pgoff, dec.new_block)
        return runs, DEDUPE_IN_PROCESS, [dec.fact_idx for dec in decisions
                                         if dec.fact_idx is not None]


@dataclass
class _MetaRec:
    """One NVDedup-style metadata record (weak FP, lazy strong FP)."""

    weak: int
    block: int
    strong: Optional[bytes] = None
    rfc: int = 0


class AdaptiveInlineFS(InlineDedupFS):
    """NVDedup's workload-adaptive fingerprinting on the inline path.

    Weak (CRC32) fingerprints always; SHA-1 only on weak collision, with
    lazy strong-fingerprint generation for stored weak-only chunks (the
    stored chunk must be re-read and hashed — those costs are charged).
    Metadata lives in a DRAM index with modelled NVM record writes, as
    NVDedup does; it is not crash-consistent (throughput baseline only).
    """

    variant_name = "DeNova-Inline-Adaptive"

    META_RECORD_BYTES = 64

    def __init__(self, dev, geo, cpus: int = 1):
        super().__init__(dev, geo, cpus)
        self._weak_index: dict[int, list[_MetaRec]] = {}
        self._by_block: dict[int, _MetaRec] = {}
        self.adaptive_stats = {"weak_hits": 0, "weak_misses": 0,
                               "lazy_strong": 0, "confirmed_dups": 0}

    def _meta_write_cost(self) -> None:
        """Charge one 64 B NVM metadata record update + flush."""
        self.dev.clock.advance(
            self.dev.model.write_cost(self.META_RECORD_BYTES)
            + self.dev.model.clwb_ns + self.dev.model.sfence_ns)

    def _classify(self, pgoff: int, content: bytes) -> _Decision:
        weak = self.fingerprinter.weak(content)  # T_fw, always
        candidates = self._weak_index.get(weak)
        if not candidates:
            self.adaptive_stats["weak_misses"] += 1
            return _Decision(pgoff, content, is_dup=False, weak=weak)
        self.adaptive_stats["weak_hits"] += 1
        strong = self.fingerprinter.strong(content)  # T_f on collision
        for rec in candidates:
            if rec.strong is None:
                # Lazy strong generation for a weak-only stored chunk.
                stored = self.dev.read(rec.block * PAGE_SIZE, PAGE_SIZE)
                rec.strong = self.fingerprinter.strong(stored)
                self.adaptive_stats["lazy_strong"] += 1
                self._meta_write_cost()
            if self.fingerprinter.compare(rec.strong, strong):
                self.adaptive_stats["confirmed_dups"] += 1
                rec.rfc += 1
                self._meta_write_cost()
                return _Decision(pgoff, content, is_dup=True,
                                 canonical=rec.block, fp=strong, weak=weak)
        return _Decision(pgoff, content, is_dup=False, fp=strong, weak=weak)

    def _register_unique(self, dec: _Decision) -> None:
        weak = dec.weak
        rec = _MetaRec(weak=weak, block=dec.new_block, strong=dec.fp, rfc=1)
        self._weak_index.setdefault(weak, []).append(rec)
        self._by_block[dec.new_block] = rec
        self._meta_write_cost()

    def _drop_record(self, rec: _MetaRec) -> None:
        self._weak_index[rec.weak].remove(rec)
        if not self._weak_index[rec.weak]:
            del self._weak_index[rec.weak]
        del self._by_block[rec.block]

    def _unstage(self, dec: _Decision, cpu: int) -> None:
        """Undo one page's eager DRAM-table update and storage (ENOSPC).

        Decisions unwind in write order, so a record this write
        registered is dropped whole before any later page of the write
        that deduplicated onto it — that page then finds no record.
        """
        rec = self._by_block.get(dec.canonical if dec.is_dup
                                 else dec.new_block)
        if rec is not None:
            if dec.is_dup:
                rec.rfc -= 1
            else:
                self._drop_record(rec)
            self._meta_write_cost()
        if not dec.is_dup:
            self.allocator.free(dec.new_block, 1, cpu)

    def reclaim_extents(self, extents, cpu: int) -> None:
        """Reclaim against the DRAM metadata table instead of FACT."""
        for start, count in extents:
            for page in range(start, start + count):
                rec = self._by_block.get(page)
                if rec is None:
                    self.allocator.free(page, 1, cpu)
                    self.counters["pages_reclaimed"] += 1
                    continue
                rec.rfc -= 1
                self._meta_write_cost()
                if rec.rfc <= 0:
                    self._drop_record(rec)
                    self.allocator.free(page, 1, cpu)
                    self.counters["pages_reclaimed"] += 1
                else:
                    self.dedup_counters["shared_page_keeps"] += 1

"""The Deduplication Daemon — Algorithm 1 of the paper.

The DD dequeues DWQ nodes and deduplicates the data pages of each
referenced write entry:

1.  dequeue the *target entry* (dedupe-flag ``dedupe_needed``);
2.  fingerprint each still-live data page and look it up in FACT;
3.  duplicates: ``UC += 1`` on the canonical entry; uniques: insert a new
    FACT entry with ``UC = 1``;
4.  append a new single-page write entry (flag ``in_process``) pointing
    at the canonical page for every duplicate;
5.  one atomic log-tail update commits them all, then the target's flag
    moves to ``in_process``;
6.  for every touched FACT entry, one atomic store does ``UC -= 1,
    RFC += 1``; flags move to ``dedupe_complete``; the duplicate pages
    are reclaimed and the radix tree re-pointed.

Deviations needed to make the paper's design executable:

* **Staleness check** — a queued entry may have been overwritten or its
  file deleted before the DD reaches it (offline dedup races foreground
  CoW).  Each page is deduplicated only if the radix tree still maps its
  file offset to this entry; fully-stale nodes are completed and skipped.
* **Self-canonical hits** — a lookup that returns an entry whose block
  *is* the page under process is already accounted for; it is counted
  only if its RFC is 0 (a half-recovered insert).

Reordering (§IV-E) triggers here: a lookup that needed more than
``reorder_min_steps`` NVM reads for an entry with RFC at or above
``reorder_min_rfc`` queues that chain for reordering at the end of the
node (when the commits have settled the RFCs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dedup.dwq import DWQNode
from repro.dedup.fact import FactFull
from repro.dedup.reorder import reorder_chain
from repro.nova.entries import (
    DEDUPE_COMPLETE,
    DEDUPE_IN_PROCESS,
    DEDUPE_NEEDED,
    WriteEntry,
)
from repro.nova.layout import PAGE_SIZE
from repro.obs import RegistryStats

__all__ = ["DedupDaemon", "DaemonStats", "NodeTask"]


class DaemonStats(RegistryStats):
    """Attribute view over ``daemon.*_total`` registry counters.

    The seed's dataclass API (``stats.pages_scanned += 1``,
    ``as_dict()``) is preserved; storage lives in the metrics registry.
    """

    _prefix = "daemon"
    _fields = (
        "nodes_processed", "nodes_stale", "pages_scanned", "pages_stale",
        "pages_unique", "pages_duplicate", "pages_reclaimed",
        "fact_full_events", "reorders",
    )


@dataclass
class _PageRec:
    pgoff: int
    page: int
    fact_idx: int
    is_dup: bool
    canonical: Optional[int] = None


@dataclass
class NodeTask:
    """In-flight Algorithm-1 state for one DWQ node.

    Produced by :meth:`DedupDaemon.validate_node`; threaded through the
    per-page stages and finally :meth:`DedupDaemon.commit_node`.  The
    synchronous daemon runs the stages back-to-back; the concurrent
    worker pool (``repro.conc``) interleaves them with engine yields and
    wraps :meth:`DedupDaemon.stage_page` in a FACT bucket lock.
    """

    node: "DWQNode"
    entry: "WriteEntry"
    cache: object
    cpu: int
    recs: list = None
    reorder_heads: set = None

    def __post_init__(self):
        if self.recs is None:
            self.recs = []
        if self.reorder_heads is None:
            self.reorder_heads = set()

    @property
    def page_offsets(self) -> range:
        return range(self.entry.file_pgoff,
                     self.entry.file_pgoff + self.entry.num_pages)


class DedupDaemon:
    """Synchronous Algorithm-1 engine; trigger policy lives in the runner.

    ``DeNova-Immediate`` drains after every write; ``DeNova-Delayed(n,m)``
    calls :meth:`tick` (m nodes) every n milliseconds — both are drive
    patterns over the same :meth:`process_one`.
    """

    def __init__(self, fs, reorder_min_steps: int = 3,
                 reorder_min_rfc: int = 2, reorder_enabled: bool = True):
        self.fs = fs
        obs = getattr(fs, "obs", None)
        self.stats = DaemonStats(obs.registry if obs is not None else None)
        self.reorder_min_steps = reorder_min_steps
        self.reorder_min_rfc = reorder_min_rfc
        self.reorder_enabled = reorder_enabled

    # -- drive patterns ------------------------------------------------------

    def process_one(self) -> bool:
        """Dequeue and dedup one node; False when the DWQ is empty."""
        node = self.fs.dwq.dequeue()
        if node is None:
            return False
        self.process_node(node)
        return True

    def tick(self, m: int) -> int:
        """Delayed(n, m) trigger: consume up to ``m`` nodes."""
        done = 0
        while done < m and self.process_one():
            done += 1
        return done

    def drain(self, limit: Optional[int] = None) -> int:
        """Process until the DWQ empties (or ``limit`` nodes)."""
        done = 0
        while (limit is None or done < limit) and self.process_one():
            done += 1
        return done

    # -- Algorithm 1 ------------------------------------------------------------

    def process_node(self, node: DWQNode) -> None:
        # Adopt the enqueuing write's trace so the drain is causally
        # linked to it; trace_id 0 (restored/rebuilt node) starts fresh.
        obs = self.fs.obs
        with obs.tracer.use_trace(node.trace_id):
            with obs.span("dedup.process_node", ino=node.ino):
                self._process_node(node)

    def _process_node(self, node: DWQNode) -> None:
        task = self.validate_node(node)
        if task is None:
            return
        # Step 2+3: fingerprint live pages, stage UCs.
        for pgoff in task.page_offsets:
            hit = self.fingerprint_page(task, pgoff)
            if hit is None:
                continue
            page, fp = hit
            self.stage_page(task, pgoff, page, fp)
        self.commit_node(task)

    # -- stages (interleavable by the concurrent worker pool) ----------------

    def validate_node(self, node: DWQNode) -> Optional[NodeTask]:
        """Step 1: reject stale nodes; return the in-flight task if live.

        Stale bookkeeping (stats + ``note_dedup_done``) happens here, so
        a ``None`` return means the node is fully disposed of.
        """
        fs = self.fs
        cache = fs.caches.get(node.ino)
        if cache is None:  # file deleted while queued
            self.stats.nodes_stale += 1
            fs.note_dedup_done(node.entry_addr)
            return None
        # The inode may have been deleted and its number reused while the
        # node sat queued; the old entry's log page may even be a data
        # page now.  The entry must still decode, be a write entry, carry
        # this ino, and await dedup — anything else is a stale node.
        try:
            entry = fs.read_entry(node.entry_addr)
        except ValueError:
            entry = None
        if (not isinstance(entry, WriteEntry)
                or entry.ino != node.ino
                or entry.dedupe_flag != DEDUPE_NEEDED):
            self.stats.nodes_stale += 1
            fs.note_dedup_done(node.entry_addr)
            return None
        self.stats.nodes_processed += 1
        return NodeTask(node=node, entry=entry, cache=cache,
                        cpu=node.ino % fs.cpus)

    def fingerprint_page(self, task: NodeTask,
                         pgoff: int) -> Optional[tuple[int, bytes]]:
        """Step 2 for one page: staleness check + chunking read + hash.

        Returns ``(page, fingerprint)`` or ``None`` for a page the
        foreground already overwrote.  Touches no shared FACT state, so
        parallel workers may run it without holding a bucket lock.
        """
        fs = self.fs
        self.stats.pages_scanned += 1
        hit = task.cache.index.lookup(pgoff)
        if hit is None or hit[0] != task.node.entry_addr:
            self.stats.pages_stale += 1
            return None
        page = task.entry.block_for(pgoff)
        data = fs.dev.read(page * PAGE_SIZE, PAGE_SIZE)  # chunking read
        return page, fs.fingerprinter.strong(data)

    def stage_page(self, task: NodeTask, pgoff: int, page: int,
                   fp: bytes) -> None:
        """Step 3 for one page: FACT lookup / insert / UC staging.

        This is the bucket critical section — everything here addresses
        the single chain ``fact.bucket_of(fp)``, and the concurrent
        worker pool serializes it per bucket to rule out double inserts
        and double UC increments.
        """
        fact = self.fs.fact
        res = fact.lookup(fp)
        if (self.reorder_enabled and res.found is not None
                and res.steps > self.reorder_min_steps
                and res.found.refcount >= self.reorder_min_rfc):
            task.reorder_heads.add(fact.head_of(fp))
        if res.found is None:
            try:
                idx = fact.insert(fp, page, hint=res)
            except FactFull:
                # No metadata room: leave the page un-deduplicated.
                self.stats.fact_full_events += 1
                return
            task.recs.append(_PageRec(pgoff, page, idx, is_dup=False))
            self.stats.pages_unique += 1
        elif res.found.block == page:
            # Self-canonical hit: only reachable when re-deduplicating
            # a requeued target after a crash (fresh CoW pages can
            # never pre-exist in FACT).  Recovery's undercount repair
            # already counted this reference, so a live page with
            # RFC >= 1 needs nothing; RFC == 0 (defensive — should be
            # unreachable past the repair) is re-staged.
            if res.found.refcount == 0:
                fact.inc_uc(res.found.idx)
                task.recs.append(_PageRec(pgoff, page, res.found.idx,
                                          is_dup=False))
                self.stats.pages_unique += 1
        else:
            fact.inc_uc(res.found.idx)  # step 3
            task.recs.append(_PageRec(pgoff, page, res.found.idx,
                                      is_dup=True, canonical=res.found.block))
            self.stats.pages_duplicate += 1

    def commit_node(self, task: NodeTask) -> None:
        """Steps 4–6: redirect entries, settle counts, reclaim, reorder."""
        fs = self.fs
        fact = fs.fact
        node, cache, cpu = task.node, task.cache, task.cpu
        dups = [r for r in task.recs if r.is_dup]

        # Step 4: append redirecting write entries for the duplicates.
        # Built lazily: each entry's mtime is read as its append starts.
        entries: list[WriteEntry] = []

        def redirects():
            for rec in dups:
                we = WriteEntry(
                    file_pgoff=rec.pgoff, num_pages=1, block=rec.canonical,
                    size_after=cache.inode.size, ino=node.ino,
                    mtime=int(fs.clock.now_ns),
                    dedupe_flag=DEDUPE_IN_PROCESS,
                )
                entries.append(we)
                yield we

        # Step 5: one atomic tail update commits every new entry.
        addrs = (fs._append_and_commit(node.ino, cache, redirects(), cpu)
                 if dups else [])
        for addr in addrs:
            fs.note_dedup_pending(addr)
        fs.set_dedupe_flag(node.entry_addr, DEDUPE_IN_PROCESS)

        # Step 6: settle the counts — one atomic store per entry-page.
        for rec in task.recs:
            fact.commit_uc(rec.fact_idx)
        for addr in addrs:
            fs.set_dedupe_flag(addr, DEDUPE_COMPLETE)
            fs.note_dedup_done(addr)
        fs.set_dedupe_flag(node.entry_addr, DEDUPE_COMPLETE)
        fs.note_dedup_done(node.entry_addr)

        # Radix re-point + reclaim of the now-duplicate pages (they have
        # no FACT entry of their own, so reclaim frees them directly).
        for rec, addr, we in zip(dups, addrs, entries):
            displaced = cache.index.redirect(rec.pgoff, addr, we)
            fs._note_dead_entries(cache, displaced)
            fs.reclaim_extents(displaced.extents, cpu)
            self.stats.pages_reclaimed += displaced.total_pages

        # §IV-E: reorder the chains that showed slow lookups.
        for head in task.reorder_heads:
            if reorder_chain(fact, head):
                self.stats.reorders += 1

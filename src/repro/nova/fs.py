"""The NOVA file system model.

Implements the full write flow of the paper's Fig. 1:

1. allocate contiguous CoW data pages from the per-CPU free list and fill
   them with user data plus copied head/tail content of partially
   overwritten pages;
2. append a ``[file_pgoff, num_pages]`` write entry to the inode log
   (allocating/linking a new log page when full);
3. commit with an atomic 64-bit log-tail update;
4. update the DRAM radix tree;
5. reclaim the obsolete data pages through the per-CPU free list.

Every variant runs this one pipeline; they differ only in
:meth:`NovaFS.place`, which stores the pages (step 1) and says which
runs to log — one contiguous extent here, classified and deduplicated
pages on the inline variants.  Step 5 goes through the overridable
:meth:`NovaFS.reclaim_extents` hook — DeNova replaces it with the
reference-count-checked reclaim of §IV-D3.  Step 3 is followed by the
:meth:`NovaFS.on_write_committed` hook, where DeNova enqueues the DWQ
node.  Every log append in the system, writes and namespace ops alike,
commits through :meth:`NovaFS._append_and_commit`.

Namespace operations (create/unlink/mkdir/rmdir) are ordered so that a
crash between their two inode updates leaves an *orphan* (a valid inode
no dentry references), which recovery garbage-collects — giving atomic
namespace semantics without a journal.  DESIGN.md documents this
simplification relative to kernel NOVA's per-CPU journal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.nova.entries import (
    DEDUPE_COMPLETE,
    DEDUPE_FLAG_OFFSET,
    DEDUPE_IN_PROCESS,
    DEDUPE_NEEDED,
    ENTRY_SIZE,
    DentryEntry,
    SetattrEntry,
    SymlinkEntry,
    WriteEntry,
    decode_entry,
)
from repro.nova.inode import (
    ITYPE_DIR,
    ITYPE_FILE,
    ITYPE_SYMLINK,
    ROOT_INO,
    Inode,
    InodeTable,
)
from repro.nova.layout import PAGE_SIZE, Geometry, Superblock
from repro.nova.log import LOG_HEADER_SIZE, LogManager
from repro.nova.radix import Displaced, FileIndex
from repro.obs import CounterView, ObsHub
from repro.pm.allocator import AllocError, PageAllocator
from repro.pm.device import PMDevice

__all__ = ["NovaFS", "FSError", "FileNotFound", "FileExists", "NoSpace",
           "NotADirectory", "IsADirectory", "DirectoryNotEmpty", "Stat",
           "InodeCache", "extend_runs"]


class FSError(Exception):
    """Base class for filesystem errors."""


class FileNotFound(FSError):
    pass


class FileExists(FSError):
    pass


class NoSpace(FSError):
    pass


class NotADirectory(FSError):
    pass


class IsADirectory(FSError):
    pass


class DirectoryNotEmpty(FSError):
    pass


class ReadOnlyFile(FSError):
    """Write/truncate attempted on an immutable (snapshot) file."""


@dataclass(frozen=True)
class Stat:
    ino: int
    itype: int
    size: int
    mtime: int
    links: int


def extend_runs(runs: list[tuple[int, int, int]], pgoff: int,
                block: int) -> None:
    """Map file page ``pgoff`` to ``block``: grow the last run when the
    page follows it in both file and device order, else start a run."""
    if runs and runs[-1][0] + runs[-1][2] == pgoff \
            and runs[-1][1] + runs[-1][2] == block:
        runs[-1] = (runs[-1][0], runs[-1][1], runs[-1][2] + 1)
    else:
        runs.append((pgoff, block, 1))


@dataclass
class InodeCache:
    """Per-inode DRAM state (what NOVA keeps in its in-memory inode)."""

    inode: Inode
    index: FileIndex
    tail: int = 0                                   # cached log tail addr
    dentries: dict[str, int] = field(default_factory=dict)  # dirs only
    symlink_target: str = ""                        # symlinks only
    entry_count: int = 0                            # committed log entries
    invalid_entries: dict[int, int] = field(default_factory=dict)
    #: log page -> count of dead entries (drives fast GC)
    hydrated: bool = True
    #: False for checkpoint-mount stubs whose log has not been replayed
    #: yet; the index/dentries/symlink_target fields are empty until
    #: :class:`CacheMap` hydrates them on first access.


class CacheMap(dict):
    """``ino -> InodeCache`` map with lazy log hydration.

    A checkpoint mount installs *stub* caches (correct inode metadata,
    empty index/dentries).  Any keyed access replays that inode's log
    on demand; bulk views (``items``/``values``) hydrate everything
    first, so full-scan consumers (fsck, invariant checks, du) keep
    working unchanged.  ``raw_items``/``raw_get`` bypass hydration for
    callers that only need inode metadata (unmount, checkpoint write).
    """

    def __init__(self, fs: "NovaFS"):
        super().__init__()
        self._fs = fs

    def _hydrate(self, cache: "InodeCache") -> "InodeCache":
        if not cache.hydrated:
            from repro.nova.recovery import hydrate_cache
            hydrate_cache(self._fs, cache)
        return cache

    def __getitem__(self, ino: int) -> "InodeCache":
        return self._hydrate(super().__getitem__(ino))

    def get(self, ino, default=None):
        cache = super().get(ino)
        if cache is None:
            return default
        return self._hydrate(cache)

    def raw_get(self, ino, default=None):
        return super().get(ino, default)

    def raw_items(self):
        return super().items()

    def hydrate_all(self) -> None:
        for cache in super().values():
            self._hydrate(cache)

    def items(self):
        self.hydrate_all()
        return super().items()

    def values(self):
        self.hydrate_all()
        return super().values()


class NovaFS:
    """User-space NOVA on an emulated PM device."""

    PAGE = PAGE_SIZE

    def __init__(self, dev: PMDevice, geo: Geometry, cpus: int = 1):
        self.dev = dev
        self.geo = geo
        self.cpus = cpus
        self.sb = Superblock(dev)
        self.itable = InodeTable(dev, geo)
        from repro.nova.journal import Journal
        self.journal = Journal(dev, geo)
        self.allocator = PageAllocator(geo.data_start_page, geo.total_pages,
                                       cpus)
        self.log = LogManager(dev, self.allocator, self.itable)
        self.caches: CacheMap = CacheMap(self)
        self.cpu_model = dev.model.cpu
        self.clock = dev.clock
        self.mounted = False
        self.last_recovery = None
        #: Recovery-time knobs (set by :meth:`mount` before recovery runs).
        self.recovery_workers = 1
        self.use_checkpoint = True
        self._active_checkpoint = None  # decoded ckpt during recovery
        self._hydrations = 0
        # Observability hub: one registry + tracer per fs instance, so a
        # remount starts from zero (DRAM state, like NOVA's in-memory
        # trees).  ``counters`` keeps the seed's dict-shaped API as a
        # thin view over canonical metric names (docs/OBSERVABILITY.md).
        self.obs = ObsHub(clock=dev.clock)
        self.counters = CounterView(self.obs.registry, {
            "writes": "fs.writes_total",
            "reads": "fs.reads_total",
            "overwrite_pages": "fs.overwrite_pages_total",
            "pages_reclaimed": "fs.pages_reclaimed_total",
            "log_pages_gced": "fs.log_pages_gced_total",
        })
        self._h_overwrite = self.obs.histogram(
            "fs.overwrite_latency_ns",
            help="charged simulated ns of writes that displaced pages")
        self.obs.counter_fn("recovery.lazy_hydrations_total",
                            lambda: self._hydrations,
                            help="inode logs replayed on demand after a "
                                 "checkpoint mount")
        self.allocator.attach_registry(self.obs.registry)
        # Tenant layer: quota enforcement + ownership.  Present whenever
        # the image carved a registry region (old/small images get None
        # semantics through an empty manager — every check is a no-op
        # until a tenant exists).
        from repro.tenant.manager import TenantManager
        self.tenants = TenantManager(self)
        # Front-tier staging log (repro.nova.staging): present whenever
        # the image carved the region; *absorption* is opt-in via
        # :meth:`enable_staging` so default behaviour (and every
        # baseline) is unchanged.  Replay of leftover records at mount
        # happens regardless — durability is not opt-in.
        from repro.nova.staging import StagingLog
        self.staging = StagingLog(self) if geo.staging_pages else None
        self.staging_enabled = False
        self.staging_threshold = PAGE_SIZE

    # ------------------------------------------------------------------ lifecycle

    @classmethod
    def mkfs(cls, dev: PMDevice, max_inodes: int = 1024, cpus: int = 1,
             with_dedup: bool = False,
             fact_prefix_bits: Optional[int] = None,
             dwq_save_pages: int = 8,
             staging_pages: int = 64) -> "NovaFS":
        """Format the device and return a mounted, empty filesystem."""
        geo = Geometry.compute(dev.size // PAGE_SIZE, max_inodes,
                               with_dedup=with_dedup,
                               fact_prefix_bits=fact_prefix_bits,
                               dwq_save_pages=dwq_save_pages,
                               staging_pages=staging_pages)
        Superblock(dev).format(geo)
        fs = cls(dev, geo, cpus)
        root = Inode(ino=ROOT_INO, valid=1, itype=ITYPE_DIR, links=2,
                     mtime=int(fs.clock.now_ns))
        fs.itable.write(ROOT_INO, root)
        fs.caches[ROOT_INO] = InodeCache(
            inode=root, index=FileIndex(fs.cpu_model, fs.clock))
        fs.sb.set_clean(False)
        fs.mounted = True
        fs._post_mkfs()
        fs.tenants.rebuild()
        fs._replay_staging()  # formats the (zeroed) slab headers
        return fs

    def _post_mkfs(self) -> None:
        """Subclass hook: initialize extra persistent regions (FACT)."""

    @classmethod
    def mount(cls, dev: PMDevice, cpus: int = 1,
              recovery_workers: Optional[int] = None,
              use_checkpoint: bool = True) -> "NovaFS":
        """Mount an existing filesystem, recovering if it's unclean.

        ``recovery_workers`` shards the log replay across that many
        simulated recovery threads (defaults to ``cpus``, NOVA's per-CPU
        recovery); ``use_checkpoint=False`` forces the full scan even
        when a valid clean-unmount checkpoint exists.
        """
        geo = Superblock(dev).load_geometry()
        fs = cls(dev, geo, cpus)
        fs.recovery_workers = (cpus if recovery_workers is None
                               else max(1, int(recovery_workers)))
        fs.use_checkpoint = bool(use_checkpoint)
        from repro.nova.recovery import recover
        fs.last_recovery = recover(fs, clean=fs.sb.clean)
        fs.sb.bump_epoch()
        fs.sb.set_clean(False)
        fs.mounted = True
        fs._post_mount()
        fs.tenants.rebuild()
        # After the ownership rebuild: replayed writes charge quotas.
        fs._replay_staging()
        return fs

    def unmount(self) -> None:
        """Clean shutdown: persist lazy state and set the clean flag."""
        self._check_mounted()
        if self.staging is not None:
            # Destage everything before sizes flush and the checkpoint
            # snapshots state — a clean image carries no staged records.
            self.staging.drain_all()
        for ino, cache in self.caches.raw_items():
            # Never-hydrated stubs kept their persisted size from the
            # unmount that wrote the checkpoint — nothing to flush.
            if cache.hydrated and cache.inode.itype == ITYPE_FILE:
                self.itable.update_size(ino, cache.inode.size)
        self._pre_unmount()
        self._pre_clean_unmount()
        self.sb.set_clean(True)
        self.mounted = False

    def _pre_unmount(self) -> None:
        """Subclass hook: save the DWQ etc. before the clean flag."""

    def _pre_clean_unmount(self) -> None:
        """Persist the clean-unmount checkpoint (advisory fast remount).

        Runs after :meth:`_pre_unmount` so the snapshot can embed the
        saved-DWQ length, and before the clean flag so a crash mid-
        checkpoint is just an unclean shutdown with a torn (ignored)
        checkpoint.
        """
        from repro.nova.checkpoint import write_checkpoint
        self.obs.flight.record("persist", what="checkpoint",
                               pages=self.geo.ckpt_pages)
        with self.obs.span("recovery.checkpoint_write",
                           pages=self.geo.ckpt_pages):
            write_checkpoint(self)

    def _check_mounted(self) -> None:
        if not self.mounted:
            raise FSError("filesystem is not mounted")

    # ------------------------------------------------------------------ staging

    def enable_staging(self, threshold: int = PAGE_SIZE) -> None:
        """Absorb sync writes of <= ``threshold`` bytes into the staging
        log (one fence on the critical path; background destage)."""
        if self.staging is None:
            raise FSError("image has no staging region (device too small "
                          "or formatted with staging_pages=0)")
        if threshold < 1 or threshold > self.staging.max_payload:
            raise ValueError(
                f"staging threshold must be in [1, "
                f"{self.staging.max_payload}], got {threshold}")
        self.staging_threshold = int(threshold)
        self.staging_enabled = True

    def disable_staging(self) -> None:
        """Stop absorbing; drains anything already staged."""
        if self.staging is not None:
            self.staging.drain_all()
        self.staging_enabled = False

    def _replay_staging(self) -> None:
        if self.staging is None:
            return
        rep = self.staging.replay()
        # Only reported when the scan found records: clean mounts (and
        # every pre-staging image) keep their RecoveryReport contents —
        # and byte-identical report contracts — unchanged.
        if self.last_recovery is not None \
                and (rep["replayed"] or rep["discarded"]):
            self.last_recovery.extra["staging"] = rep

    # ------------------------------------------------------------------ namei

    MAX_SYMLINK_DEPTH = 8

    def _resolve(self, path: str, follow_final: bool) -> tuple[int, str]:
        """Walk ``path``, expanding symlinks; returns (parent ino, name).

        Intermediate symlinks are always followed; the final component
        is expanded only when ``follow_final`` (lookup/read paths yes,
        create/unlink/readlink no).  Returns ``(ROOT_INO, "")`` for the
        root itself.
        """
        from collections import deque

        parts = deque(p for p in path.split("/") if p)
        if not parts:
            return ROOT_INO, ""
        cur = ROOT_INO
        hops = 0
        while parts:
            comp = parts.popleft()
            cache = self.caches[cur]
            if cache.inode.itype != ITYPE_DIR:
                raise NotADirectory(f"{comp!r} lookup under non-directory")
            self.clock.advance(self.cpu_model.dram_touch_ns)
            child = cache.dentries.get(comp)
            is_final = not parts
            if child is not None:
                child_cache = self.caches.get(child)
                if (child_cache is not None
                        and child_cache.inode.itype == ITYPE_SYMLINK
                        and (not is_final or follow_final)):
                    hops += 1
                    if hops > self.MAX_SYMLINK_DEPTH:
                        raise FSError(
                            f"too many levels of symbolic links: {path!r}")
                    target = child_cache.symlink_target
                    tparts = [p for p in target.split("/") if p]
                    if target.startswith("/"):
                        cur = ROOT_INO
                    parts.extendleft(reversed(tparts))
                    continue
            if is_final:
                return cur, comp
            if child is None:
                raise FileNotFound(f"no such directory: {comp!r} in {path!r}")
            cur = child
        return ROOT_INO, ""

    def _namei(self, path: str) -> tuple[int, str, InodeCache]:
        """Resolve ``path`` to (parent ino, leaf name, parent cache)."""
        pino, name = self._resolve(path, follow_final=False)
        if not name:
            raise FSError("empty path")
        parent = self.caches[pino]
        if parent.inode.itype != ITYPE_DIR:
            raise NotADirectory(f"parent of {name!r} is not a directory")
        return pino, name, parent

    def lookup(self, path: str, follow: bool = True) -> int:
        """Resolve a path to an inode number (following symlinks)."""
        self._check_mounted()
        self.clock.advance(self.cpu_model.syscall_ns)
        pino, name = self._resolve(path, follow_final=follow)
        if not name:
            return ROOT_INO
        self.clock.advance(self.cpu_model.dram_touch_ns)
        ino = self.caches[pino].dentries.get(name)
        if ino is None:
            raise FileNotFound(path)
        return ino

    def symlink(self, target: str, linkpath: str) -> int:
        """Create a symbolic link (targets limited to 40 bytes)."""
        self._check_mounted()
        self.clock.advance(self.cpu_model.syscall_ns)
        pino, name, parent = self._namei(linkpath)
        if name in parent.dentries:
            raise FileExists(linkpath)
        cpu = ino_cpu(pino, self.cpus)
        ino = self._new_inode(ITYPE_SYMLINK, cpu, parent=pino)
        cache = self.caches[ino]
        entry = SymlinkEntry(target=target, ino=ino,
                             mtime=int(self.clock.now_ns))
        self._append_and_commit(ino, cache, [entry], cpu)
        cache.symlink_target = target
        self._append_dentry(pino, name, ino, valid=1, cpu=cpu)
        return ino

    def readlink(self, path: str) -> str:
        """The target of a symlink (never follows the final component)."""
        self._check_mounted()
        self.clock.advance(self.cpu_model.syscall_ns)
        ino = self.lookup(path, follow=False)
        cache = self.caches[ino]
        if cache.inode.itype != ITYPE_SYMLINK:
            raise FSError(f"{path!r} is not a symlink")
        return cache.symlink_target

    def exists(self, path: str) -> bool:
        try:
            self.lookup(path)
            return True
        except FSError:
            return False

    # ------------------------------------------------------------------ namespace ops

    def _append_dentry(self, parent_ino: int, name: str, ino: int,
                       valid: int, cpu: int) -> None:
        parent = self.caches[parent_ino]
        entry = DentryEntry(name=name, ino=ino, valid=valid,
                            mtime=int(self.clock.now_ns))
        self._append_and_commit(parent_ino, parent, [entry], cpu)
        self.clock.advance(self.cpu_model.dram_touch_ns)
        if valid:
            changed = parent.dentries.get(name) != ino
            parent.dentries[name] = ino
        else:
            changed = parent.dentries.pop(name, None) is not None
        # POSIX nlink: a directory holds 2 + one link per subdirectory
        # (each child's ".." back-reference).  Maintained here — the one
        # point every namespace op and the journal redo funnel through.
        child = self.caches.raw_get(ino)
        if (changed and child is not None
                and child.inode.itype == ITYPE_DIR):
            parent.inode.links += 1 if valid else -1

    def _append_and_commit(self, ino: int, cache: InodeCache,
                           entries: Iterable, cpu: int) -> list[int]:
        """Append log entries to ``ino``'s log and commit them at once.

        The one log-commit primitive: make sure the log exists, append
        and persist every entry (anything with a 64 B ``pack()``), then
        one atomic tail update (Fig. 1 step 3) publishes them all; the
        DRAM cache follows.  ``entries`` is consumed one entry per
        append, so a generator may build each entry after the previous
        one is durable.  Returns the entries' addresses, in order.
        """
        head, first_tail = self.log.ensure_log(ino, cache.inode.log_head, cpu)
        if cache.inode.log_head == 0:
            cache.inode.log_head = head
            cache.tail = first_tail
        tail = cache.tail
        addrs: list[int] = []
        for entry in entries:
            addr, tail = self.log.append(ino, tail, entry.pack(), cpu)
            addrs.append(addr)
        self.log.commit(ino, tail)
        cache.tail = tail
        cache.inode.log_tail = tail
        cache.entry_count += len(addrs)
        return addrs

    def _new_inode(self, itype: int, cpu: int,
                   parent: Optional[int] = None) -> int:
        # Quota check before the inode-table slot is taken; ownership is
        # inherited from the parent directory after it is.
        if parent is not None:
            self.tenants.check_inode(parent)
        try:
            ino = self.itable.alloc()
        except RuntimeError as exc:
            raise NoSpace(str(exc)) from None
        inode = Inode(ino=ino, valid=1, itype=itype,
                      links=2 if itype == ITYPE_DIR else 1,
                      mtime=int(self.clock.now_ns))
        self.itable.write(ino, inode)
        self.caches[ino] = InodeCache(
            inode=inode, index=FileIndex(self.cpu_model, self.clock))
        if parent is not None:
            self.tenants.note_inode(ino, parent)
        return ino

    def create(self, path: str) -> int:
        """Create an empty regular file; returns its ino."""
        self._check_mounted()
        self.clock.advance(self.cpu_model.syscall_ns)
        pino, name, parent = self._namei(path)
        if name in parent.dentries:
            raise FileExists(path)
        st = self.staging
        if st is not None and self.staging_enabled and not st.active:
            ino = self._staged_create(pino, name)
            if ino is not None:
                return ino
        # Order: valid inode first, then the dentry that publishes it.  A
        # crash in between leaves an orphan inode that recovery collects.
        ino = self._new_inode(ITYPE_FILE, cpu=ino_cpu(pino, self.cpus),
                              parent=pino)
        self._append_dentry(pino, name, ino, valid=1,
                            cpu=ino_cpu(pino, self.cpus))
        return ino

    def _staged_create(self, pino: int, name: str) -> Optional[int]:
        """Absorb a file create into the staging log (None = fall back).

        The staged record is the commit point; everything else here is
        DRAM.  The inode-table slot stays invalid until destage, so a
        crashed staged create leaves nothing for orphan collection — the
        replay re-creates the file (same ino) or, if the record is torn,
        the create simply never happened.
        """
        st = self.staging
        self.tenants.check_inode(pino)
        try:
            ino = self.itable.alloc()
        except RuntimeError as exc:
            raise NoSpace(str(exc)) from None
        if not st.try_stage_create(pino, name, ino):
            self.itable.unreserve(ino)
            return None
        inode = Inode(ino=ino, valid=1, itype=ITYPE_FILE, links=1,
                      mtime=int(self.clock.now_ns))
        self.caches[ino] = InodeCache(
            inode=inode, index=FileIndex(self.cpu_model, self.clock))
        self.tenants.note_inode(ino, pino)
        self.clock.advance(self.cpu_model.dram_touch_ns)
        self.caches[pino].dentries[name] = ino
        return ino

    def _destage_create(self, parent_ino: int, name: str, ino: int,
                        cpu: int) -> None:
        """Persist a staged create: inode record, then the dentry."""
        cache = self.caches[ino]
        self.itable.write(ino, cache.inode)
        self._append_dentry(parent_ino, name, ino, valid=1, cpu=cpu)

    def _replay_create(self, parent_ino: int, name: str,
                       ino: int) -> bool:
        """Re-apply a staged create at mount.  False = discard.

        Idempotent against a crash mid-destage: if the dentry already
        resolves to ``ino`` (destage completed before the watermark
        persisted) there is nothing to do; if destage persisted only the
        inode, orphan collection already reclaimed it and the create
        runs from scratch with the recorded ino.
        """
        parent = self.caches.get(parent_ino)
        if parent is None or parent.inode.itype != ITYPE_DIR:
            return False
        existing = parent.dentries.get(name)
        if existing is not None:
            return existing == ino
        try:
            self.itable.claim(ino)
        except RuntimeError:
            return False
        cpu = ino_cpu(parent_ino, self.cpus)
        inode = Inode(ino=ino, valid=1, itype=ITYPE_FILE, links=1,
                      mtime=int(self.clock.now_ns))
        self.itable.write(ino, inode)
        self.caches[ino] = InodeCache(
            inode=inode, index=FileIndex(self.cpu_model, self.clock))
        self.tenants.note_inode(ino, parent_ino)
        self._append_dentry(parent_ino, name, ino, valid=1, cpu=cpu)
        return True

    def mkdir(self, path: str) -> int:
        self._check_mounted()
        self.clock.advance(self.cpu_model.syscall_ns)
        pino, name, parent = self._namei(path)
        if name in parent.dentries:
            raise FileExists(path)
        ino = self._new_inode(ITYPE_DIR, cpu=ino_cpu(pino, self.cpus),
                              parent=pino)
        self._append_dentry(pino, name, ino, valid=1,
                            cpu=ino_cpu(pino, self.cpus))
        return ino

    def listdir(self, path: str) -> list[str]:
        self._check_mounted()
        self.clock.advance(self.cpu_model.syscall_ns)
        ino = self.lookup(path)
        cache = self.caches[ino]
        if cache.inode.itype != ITYPE_DIR:
            raise NotADirectory(path)
        return sorted(cache.dentries)

    def unlink(self, path: str) -> None:
        """Remove one name; the file body goes when the last link does."""
        self._check_mounted()
        self.clock.advance(self.cpu_model.syscall_ns)
        pino, name, parent = self._namei(path)
        ino = parent.dentries.get(name)
        if ino is None:
            raise FileNotFound(path)
        cache = self.caches[ino]
        if cache.inode.itype == ITYPE_DIR:
            raise IsADirectory(path)
        cpu = ino_cpu(ino, self.cpus)
        if self.staging is not None and cache.inode.links == 1 \
                and self.staging.has_pending_create(ino):
            # The file only ever existed in the staging log.  Discard —
            # persisting the watermark or, when another inode's pending
            # record shares the slab, per-record tombstones — *before*
            # the dentry-remove commits: a crash after the invalidation
            # observes "unlinked" (this op completed), a crash before it
            # observes the file (this op never started).  Discarding
            # after the commit would leave a window where replay
            # resurrects the file.
            self.staging.discard_ino(ino)
        # 1. Unpublish the name (the commit point of the unlink).
        self._append_dentry(pino, name, ino, valid=0, cpu=cpu)
        cache.inode.links -= 1
        if cache.inode.links > 0:
            return  # other hard links keep the body alive
        # 2. Free the file body through the reclaim hook (RFC-aware in
        #    DeNova), then its log pages, then the inode record.
        self._drop_file_body(ino, cache, cpu)

    def link(self, existing: str, newpath: str) -> None:
        """Create a hard link (files only, as in POSIX/NOVA).

        Links may not cross a tenant boundary (tenant↔tenant or
        tenant↔outside): the inode keeps one owner for quota charging,
        and a link reachable from two subtrees would make the mount-time
        ownership rebuild disagree with the live assignment — EXDEV-like
        semantics, as if each tenant root were its own filesystem.
        Within one tenant a link adds no inode and no pages, so no quota
        check applies.
        """
        self._check_mounted()
        self.clock.advance(self.cpu_model.syscall_ns)
        ino = self.lookup(existing)
        cache = self.caches[ino]
        if cache.inode.itype != ITYPE_FILE:
            raise IsADirectory(existing)
        pino, name, parent = self._namei(newpath)
        if name in parent.dentries:
            raise FileExists(newpath)
        src_tid = self.tenants.tenant_of(ino)
        dst_tid = self.tenants.tenant_of(pino)
        if src_tid != dst_tid:
            raise FSError(
                f"cross-tenant hard link: {existing!r} -> {newpath!r} "
                f"(links may not cross a tenant root)")
        if self.staging is not None \
                and self.staging.has_pending_create(ino):
            # The new dentry persists a reference to the inode; the
            # inode record must exist first.
            self.staging.drain_ino(ino)
        self._append_dentry(pino, name, ino, valid=1,
                            cpu=ino_cpu(pino, self.cpus))
        cache.inode.links += 1

    def rename(self, src: str, dst: str) -> None:
        """Atomically move ``src`` to ``dst`` (dst must not exist).

        Same-directory renames commit both dentry records with one log
        tail update; cross-directory renames go through the redo journal
        (§ :mod:`repro.nova.journal`), whose committed flag is the
        linearization point.

        Renames may not cross a tenant boundary (same EXDEV-like contract
        as :meth:`link`): the inode's quota charge stays with its owner,
        so moving it (or a whole subtree) under another tenant root would
        make the mount-time ownership rebuild disagree with the live
        accounting.
        """
        self._check_mounted()
        self.clock.advance(self.cpu_model.syscall_ns)
        spino, sname, sparent = self._namei(src)
        ino = sparent.dentries.get(sname)
        if ino is None:
            raise FileNotFound(src)
        dpino, dname, dparent = self._namei(dst)
        if dname in dparent.dentries:
            raise FileExists(dst)
        if self.caches[ino].inode.itype == ITYPE_DIR:
            if ino == dpino or self._is_ancestor(ino, dpino):
                raise FSError(f"cannot move {src!r} into its own subtree")
        src_tid = self.tenants.tenant_of(ino)
        dst_tid = self.tenants.tenant_of(dpino)
        if src_tid != dst_tid:
            raise FSError(
                f"cross-tenant rename: {src!r} -> {dst!r} "
                f"(renames may not cross a tenant root)")
        if self.staging is not None \
                and self.staging.has_pending_create(ino):
            # Both dentry records reference the inode; a staged create's
            # record replays into the *old* parent/name, so it must be
            # persisted (and superseded) before the rename commits.
            self.staging.drain_ino(ino)
        cpu = ino_cpu(dpino, self.cpus)
        mtime = int(self.clock.now_ns)
        if spino == dpino:
            # One directory log: two appends, one atomic tail commit.
            parent = self.caches[spino]
            self._append_and_commit(spino, parent, [
                DentryEntry(name=dname, ino=ino, valid=1, mtime=mtime),
                DentryEntry(name=sname, ino=ino, valid=0, mtime=mtime)], cpu)
            self.clock.advance(2 * self.cpu_model.dram_touch_ns)
            parent.dentries[dname] = ino
            parent.dentries.pop(sname, None)
            return
        from repro.nova.journal import J_ADD, J_REMOVE, JournalRecord
        self.journal.stage([
            JournalRecord(op=J_ADD, parent_ino=dpino, name=dname, ino=ino),
            JournalRecord(op=J_REMOVE, parent_ino=spino, name=sname,
                          ino=ino),
        ])
        self.apply_journal()
        self.journal.clear()

    def apply_journal(self) -> int:
        """Apply (or redo) the committed journal records, idempotently."""
        from repro.nova.journal import J_ADD, J_REMOVE
        applied = 0
        for rec in self.journal.records():
            parent = self.caches.get(rec.parent_ino)
            if parent is None or parent.inode.itype != ITYPE_DIR:
                continue  # directory vanished: nothing to redo into
            cpu = ino_cpu(rec.parent_ino, self.cpus)
            if rec.op == J_ADD:
                if (parent.dentries.get(rec.name) != rec.ino
                        and rec.ino in self.caches):
                    self._append_dentry(rec.parent_ino, rec.name, rec.ino,
                                        valid=1, cpu=cpu)
                    applied += 1
            elif rec.op == J_REMOVE:
                if rec.name in parent.dentries:
                    self._append_dentry(rec.parent_ino, rec.name, rec.ino,
                                        valid=0, cpu=cpu)
                    applied += 1
        return applied

    def _is_ancestor(self, maybe_ancestor: int, ino: int) -> bool:
        """True if ``maybe_ancestor`` sits on ``ino``'s path to the root."""
        parent_of: dict[int, int] = {}
        for pino, cache in self.caches.items():
            if cache.inode.itype == ITYPE_DIR:
                for child in cache.dentries.values():
                    parent_of[child] = pino
        cur = ino
        seen = set()
        while cur in parent_of and cur not in seen:
            seen.add(cur)
            cur = parent_of[cur]
            if cur == maybe_ancestor:
                return True
        return False

    def _drop_file_body(self, ino: int, cache: InodeCache, cpu: int) -> None:
        if self.staging is not None:
            # The body is going away with its last link — destaging the
            # records would only write pages we free on the next line.
            self.staging.discard_ino(ino)
        displaced = cache.index.clear()
        self.tenants.account_pages(ino, -displaced.total_pages)
        self.tenants.note_inode_freed(ino)
        self.reclaim_extents(displaced.extents, cpu)
        for page in list(self.log.iter_pages(cache.inode.log_head)):
            self.allocator.free(page, 1, cpu)
        self.itable.release(ino)
        del self.caches[ino]

    def rmdir(self, path: str) -> None:
        self._check_mounted()
        self.clock.advance(self.cpu_model.syscall_ns)
        pino, name, parent = self._namei(path)
        ino = parent.dentries.get(name)
        if ino is None:
            raise FileNotFound(path)
        cache = self.caches[ino]
        if cache.inode.itype != ITYPE_DIR:
            raise NotADirectory(path)
        if cache.dentries:
            raise DirectoryNotEmpty(path)
        cpu = ino_cpu(ino, self.cpus)
        self._append_dentry(pino, name, ino, valid=0, cpu=cpu)
        self.tenants.note_inode_freed(ino)
        for page in list(self.log.iter_pages(cache.inode.log_head)):
            self.allocator.free(page, 1, cpu)
        self.itable.release(ino)
        del self.caches[ino]

    # ------------------------------------------------------------------ data path

    def write(self, ino: int, offset: int, data: bytes,
              cpu: int = 0) -> int:
        """CoW write (Fig. 1), every variant.  Returns bytes written."""
        self._check_mounted()
        if offset < 0:
            raise ValueError("negative offset")
        if not data:
            return 0
        if self._stage_or_drain(ino, offset, data, cpu):
            # Absorbed.  On the inline variants fingerprinting runs when
            # the record destages through this same pipeline — "inline"
            # relative to the destage, off the caller's critical path.
            return len(data)
        t0 = self.clock.charged_ns
        with self.obs.span("fs.write", ino=ino,
                           pages=_page_span(offset, len(data))[1]):
            displaced_pages = self._write_locked(ino, offset, data, cpu)
        if displaced_pages:
            self._h_overwrite.observe(self.clock.charged_ns - t0)
        return len(data)

    def _stage_or_drain(self, ino: int, offset: int, data: bytes,
                        cpu: int) -> bool:
        """Absorb a small sync write into the staging tier, or drain.

        Returns True when the write was absorbed (durable in the staging
        log; the caller returns immediately).  Otherwise guarantees the
        inode has no staged records, so the direct path cannot run ahead
        of staged-but-undestaged updates.
        """
        st = self.staging
        if st is None or st.active:
            return False
        if (self.staging_enabled
                and len(data) <= self.staging_threshold
                and st.try_stage(ino, offset, data)):
            return True
        if st.has_pending(ino):
            st.drain_ino(ino, cpu)
        return False

    def _write_locked(self, ino: int, offset: int, data: bytes,
                      cpu: int) -> int:
        """The write pipeline; returns the number of displaced pages."""
        self.clock.advance(self.cpu_model.syscall_ns)
        cache = self._file_cache(ino, for_write=True)
        self.counters["writes"] += 1

        # The quota check precedes any allocation (check, act, then
        # account — a failed alloc must not leak a tenant charge) and is
        # gross: logical pages, so it covers the whole write even when
        # every page deduplicates, and CoW needs the full allocation
        # before the displaced pages are known.
        self.tenants.check_pages(ino, _page_span(offset, len(data))[1])

        # Step 1: store the pages (the variant's placement).
        runs, flag, staged = self.place(cache, offset, data, cpu)

        # Step 2: append the write entries (data + entry fence together).
        new_size = max(cache.inode.size, offset + len(data))
        mtime = int(self.clock.now_ns)
        entries = [WriteEntry(file_pgoff=pgoff, num_pages=count, block=block,
                              size_after=new_size, ino=ino, mtime=mtime,
                              dedupe_flag=flag)
                   for pgoff, block, count in runs]

        # Step 3: one atomic tail update — the commit point.
        addrs = self._append_and_commit(ino, cache, entries, cpu)
        cache.inode.size = new_size
        cache.inode.mtime = mtime

        # Settle: staged counts become references, then in_process
        # entries complete (the UC/RFC protocol of §V-C).
        for idx in staged:
            self.fact.commit_uc(idx)
        if flag == DEDUPE_IN_PROCESS:
            for addr in addrs:
                self.set_dedupe_flag(addr, DEDUPE_COMPLETE)

        # Steps 4-5: radix update, then reclaim of the obsolete pages
        # (RFC-aware in DeNova).
        displaced_pages = net_mapped = 0
        for addr, we in zip(addrs, entries):
            displaced = cache.index.install(addr, we)
            pages = displaced.total_pages
            displaced_pages += pages
            net_mapped += we.num_pages - pages
            if pages:
                self.counters["overwrite_pages"] += pages
            self._note_dead_entries(cache, displaced)
            self.reclaim_extents(displaced.extents, cpu)
        self.tenants.account_pages(ino, net_mapped)

        if flag == DEDUPE_NEEDED:
            for addr, we in zip(addrs, entries):
                self.on_write_committed(ino, addr, we, cpu)
        return displaced_pages

    def place(self, cache: InodeCache, offset: int, data: bytes, cpu: int
              ) -> tuple[list[tuple[int, int, int]], int, Sequence[int]]:
        """Store a write's pages (the only per-variant write hook).

        Returns ``(runs, flag, staged)``: the ``(file_pgoff, block,
        pages)`` runs to log, in log order; the dedupe flag their
        entries commit with; and the FACT entries holding a staged UC,
        committed right after the tail.  Nothing may be published here
        — the pipeline's tail commit does that.

        Direct CoW: one contiguous extent, allocated *before* the
        head/tail merge reads (an ENOSPC charges nothing more), filled
        with one non-temporal write.
        """
        pg_first, npages = _page_span(offset, len(data))
        try:
            block = self.allocator.alloc(npages, cpu)
        except AllocError as exc:
            raise NoSpace(str(exc)) from None
        buf = self._merge(cache, offset, data)
        self.dev.write(block * PAGE_SIZE, bytes(buf), nt=True)
        return [(pg_first, block, npages)], self.initial_dedupe_flag(), ()

    def _merge(self, cache: InodeCache, offset: int,
               data: bytes) -> bytearray:
        """The write's final page contents: ``data`` plus the bytes of
        its first and last pages that it does not cover."""
        pg_first = offset // PAGE_SIZE
        head_pad = offset - pg_first * PAGE_SIZE
        tail_end = head_pad + len(data)
        buf = bytearray(-(-tail_end // PAGE_SIZE) * PAGE_SIZE)
        if head_pad:
            buf[:head_pad] = self._read_page(cache, pg_first)[:head_pad]
        if tail_end % PAGE_SIZE and offset + len(data) < cache.inode.size:
            pg_last = pg_first + len(buf) // PAGE_SIZE - 1
            buf[tail_end:] = self._read_page(cache, pg_last)[
                tail_end % PAGE_SIZE:]
        buf[head_pad:tail_end] = data
        return buf

    def read(self, ino: int, offset: int, length: int, cpu: int = 0) -> bytes:
        """Read up to ``length`` bytes (short at EOF; holes read as zeros)."""
        self._check_mounted()
        if offset < 0 or length < 0:
            raise ValueError("negative offset/length")
        with self.obs.span("fs.read", ino=ino):
            self.clock.advance(self.cpu_model.syscall_ns)
            cache = self._file_cache(ino)
            self.counters["reads"] += 1
            size = cache.inode.size
            if offset >= size:
                return b""
            length = min(length, size - offset)
            out = bytearray()
            pos = offset
            end = offset + length
            while pos < end:
                pgoff = pos // PAGE_SIZE
                in_page = pos - pgoff * PAGE_SIZE
                take = min(PAGE_SIZE - in_page, end - pos)
                block = cache.index.block_of(pgoff)
                if block is None:
                    out += bytes(take)
                else:
                    out += self.dev.read(block * PAGE_SIZE + in_page, take)
                pos += take
            if self.staging is not None:
                # Read-your-writes over staged-but-undestaged records.
                self.staging.overlay(ino, offset, out)
            return bytes(out)

    def truncate(self, ino: int, size: int, cpu: int = 0) -> None:
        """Set file size; shrinking reclaims pages past the new end."""
        self._check_mounted()
        if size < 0:
            raise ValueError("negative size")
        st = self.staging
        if st is not None and not st.active and st.has_pending(ino):
            st.drain_ino(ino, cpu)
        with self.obs.span("fs.truncate", ino=ino):
            self._truncate_locked(ino, size, cpu)

    def _truncate_locked(self, ino: int, size: int, cpu: int) -> None:
        self.clock.advance(self.cpu_model.syscall_ns)
        cache = self._file_cache(ino, for_write=True)
        entry = SetattrEntry(ino=ino, new_size=size,
                             mtime=int(self.clock.now_ns))
        self._append_and_commit(ino, cache, [entry], cpu)
        shrunk = size < cache.inode.size
        if shrunk:
            keep = (size + PAGE_SIZE - 1) // PAGE_SIZE
            displaced = cache.index.truncate_pages(keep)
            self.tenants.account_pages(ino, -displaced.total_pages)
            self._note_dead_entries(cache, displaced)
            self.reclaim_extents(displaced.extents, cpu)
        cache.inode.size = size
        cache.inode.mtime = entry.mtime
        # POSIX: bytes past the new EOF must read as zeros if the file
        # grows again.  Shrinking to mid-page keeps a partial page, so
        # CoW-rewrite its head — the copy ends at EOF, zero-filling the
        # tail (kernel NOVA zeroes the partial block the same way).
        if shrunk and size % PAGE_SIZE:
            pgoff = size // PAGE_SIZE
            if cache.index.lookup(pgoff) is not None:
                head = self._read_page(cache, pgoff)[:size % PAGE_SIZE]
                self.write(ino, pgoff * PAGE_SIZE, head, cpu=cpu)

    def stat(self, ino: int) -> Stat:
        self._check_mounted()
        self.clock.advance(self.cpu_model.syscall_ns)
        cache = self.caches.get(ino)
        if cache is None:
            raise FileNotFound(f"ino {ino}")
        i = cache.inode
        return Stat(ino=i.ino, itype=i.itype, size=i.size, mtime=i.mtime,
                    links=i.links)

    def statfs(self) -> dict:
        return {
            "total_pages": self.geo.total_pages,
            "data_pages": self.geo.data_pages,
            "free_pages": self.allocator.free_pages,
            "used_pages": self.geo.data_pages - self.allocator.free_pages,
        }

    def fsync(self, ino: int) -> None:
        """NOVA writes are durable at return; fsync only pays the syscall.

        This holds with the staging tier too: an absorbed write is
        durable (CRC-framed record + fence) before :meth:`write`
        returns, so fsync never needs to drain the staging log.
        """
        self._check_mounted()
        self.clock.advance(self.cpu_model.syscall_ns)

    def walk(self, top: str = "/"):
        """Yield ``(dirpath, dirnames, filenames)`` like :func:`os.walk`.

        Symlinks are listed among the files and never followed.
        """
        self._check_mounted()
        ino = self.lookup(top)
        cache = self.caches[ino]
        if cache.inode.itype != ITYPE_DIR:
            raise NotADirectory(top)
        dirnames, filenames = [], []
        for name in sorted(cache.dentries):
            child = self.caches.get(cache.dentries[name])
            if child is not None and child.inode.itype == ITYPE_DIR:
                dirnames.append(name)
            else:
                filenames.append(name)
        yield top, dirnames, filenames
        for name in dirnames:
            sub = f"{top.rstrip('/')}/{name}"
            yield from self.walk(sub)

    def du(self, top: str = "/") -> dict:
        """Tree usage: logical vs. physical, dedup/snapshot-aware.

        ``logical_pages`` counts every page *reference* in the tree
        (a block reflinked from three snapshots counts three times, as
        it does in FACT RFC sums); ``unique_pages`` counts each block
        once — the pages the tree actually pins.  ``shared_pages`` is
        the number of blocks referenced more than once within the tree,
        and ``saved_bytes`` what sharing saves relative to a dedup-less
        copy of the same logical content.
        """
        from collections import Counter

        logical = 0
        logical_pages = 0
        nfiles = 0
        ndirs = 0
        refs: Counter[int] = Counter()
        for dirpath, dirnames, filenames in self.walk(top):
            ndirs += len(dirnames)
            for name in filenames:
                path = f"{dirpath.rstrip('/')}/{name}"
                ino = self.lookup(path, follow=False)
                cache = self.caches[ino]
                if cache.inode.itype != ITYPE_FILE:
                    continue
                nfiles += 1
                logical += cache.inode.size
                # Per-mapping, not per-unique-block: a block mapped at
                # two offsets is two logical pages (matches FACT RFCs).
                file_blocks = [entry.block_for(pgoff) for pgoff, (_a, entry)
                               in cache.index._slots.items()]
                logical_pages += len(file_blocks)
                refs.update(file_blocks)
        unique = len(refs)
        shared = sum(1 for n in refs.values() if n > 1)
        return {"files": nfiles, "dirs": ndirs, "logical_bytes": logical,
                "logical_pages": logical_pages,
                "unique_pages": unique,
                "shared_pages": shared,
                "physical_bytes": unique * PAGE_SIZE,
                "saved_bytes": (logical_pages - unique) * PAGE_SIZE}

    # ------------------------------------------------------------------ tenants

    def tenant_create(self, name: str, quota_pages: int = 0,
                      quota_inodes: int = 0, weight: int = 1):
        """Create a tenant rooted at ``/t/<name>`` (see repro.tenant)."""
        self._check_mounted()
        return self.tenants.tenant_create(name, quota_pages=quota_pages,
                                          quota_inodes=quota_inodes,
                                          weight=weight)

    def tenant_set_quota(self, name: str, quota_pages: int | None = None,
                         quota_inodes: int | None = None,
                         weight: int | None = None):
        self._check_mounted()
        return self.tenants.set_quota(name, quota_pages=quota_pages,
                                      quota_inodes=quota_inodes,
                                      weight=weight)

    def tenant_stats(self) -> dict:
        self._check_mounted()
        return self.tenants.stats()

    # ------------------------------------------------------------------ helpers

    def _file_cache(self, ino: int, for_write: bool = False) -> InodeCache:
        from repro.nova.inode import FLAG_IMMUTABLE

        cache = self.caches.get(ino)
        if cache is None:
            raise FileNotFound(f"ino {ino}")
        if cache.inode.itype != ITYPE_FILE:
            raise IsADirectory(f"ino {ino}")
        if for_write and cache.inode.flags & FLAG_IMMUTABLE:
            raise ReadOnlyFile(f"ino {ino} is immutable (snapshot member)")
        return cache

    def _read_page(self, cache: InodeCache, pgoff: int) -> bytes:
        block = cache.index.block_of(pgoff)
        if block is None:
            return bytes(PAGE_SIZE)
        return self.dev.read(block * PAGE_SIZE, PAGE_SIZE)

    #: Auto-trigger thorough GC when a log has this many entries and
    #: more than half are dead (scattered beyond fast GC's reach).
    THOROUGH_GC_MIN_ENTRIES = 4 * 63
    THOROUGH_GC_DEAD_RATIO = 0.5

    def _note_dead_entries(self, cache: InodeCache,
                           displaced: Displaced) -> None:
        """Track fully-superseded entries per log page; GC full pages."""
        for addr in displaced.dead_entries:
            page = addr // PAGE_SIZE
            cache.invalid_entries[page] = cache.invalid_entries.get(page, 0) + 1
        self._maybe_gc_log(cache)
        dead = sum(cache.invalid_entries.values())
        if (cache.entry_count >= self.THOROUGH_GC_MIN_ENTRIES
                and dead > self.THOROUGH_GC_DEAD_RATIO * cache.entry_count):
            from repro.nova.gc import thorough_gc
            thorough_gc(self, cache.inode.ino)

    def _maybe_gc_log(self, cache: InodeCache) -> None:
        """NOVA fast GC: splice out log pages whose entries are all dead.

        Head and tail pages are never touched; a middle page is dead when
        all of its committed entries have been superseded.
        """
        head = cache.inode.log_head
        if not head:
            return
        tail_page = (cache.tail - 1) // PAGE_SIZE if cache.tail else 0
        pages = list(self.log.iter_pages(head))
        from repro.nova.log import ENTRIES_PER_PAGE
        for prev, page in zip(pages, pages[1:]):
            if page == tail_page:
                continue
            if (cache.invalid_entries.get(page, 0) >= ENTRIES_PER_PAGE
                    and self.log_page_gc_allowed(page)):
                self.log.unlink_middle_page(prev, page)
                self.allocator.free(page, 1, 0)
                cache.invalid_entries.pop(page, None)
                self.counters["log_pages_gced"] += 1
                return  # one page per call keeps the hot path bounded

    def gc(self, ino: int) -> dict:
        """Thorough log GC: compact a fragmented log (see nova.gc)."""
        self._check_mounted()
        from repro.nova.gc import thorough_gc
        if ino not in self.caches:
            raise FileNotFound(f"ino {ino}")
        return thorough_gc(self, ino)

    def thorough_gc_allowed(self, ino: int, chain_pages: list[int]) -> bool:
        """DeNova vetoes compaction while dedup work references the log."""
        return True

    def set_dedupe_flag(self, entry_addr: int, flag: int) -> None:
        """In-place, crash-atomic dedupe-flag update (Fig. 5)."""
        self.dev.write(entry_addr + DEDUPE_FLAG_OFFSET, bytes([flag]))
        self.dev.persist(entry_addr + DEDUPE_FLAG_OFFSET, 1)

    def read_entry(self, addr: int):
        return decode_entry(self.dev.read(addr, ENTRY_SIZE))

    # ------------------------------------------------------------------ hooks

    def initial_dedupe_flag(self) -> int:
        """Plain NOVA marks writes complete: nothing will dedup them."""
        return DEDUPE_COMPLETE

    def reclaim_extents(self, extents: Iterable[tuple[int, int]],
                        cpu: int) -> None:
        """Free obsolete data pages.  DeNova overrides with RFC checks."""
        for start, count in extents:
            self.allocator.free(start, count, cpu)
            self.counters["pages_reclaimed"] += count

    def on_write_committed(self, ino: int, entry_addr: int,
                           entry: WriteEntry, cpu: int) -> None:
        """Called after the tail update for each entry committed
        ``dedupe_needed``.  DeNova enqueues the DWQ node."""

    def log_page_gc_allowed(self, page: int) -> bool:
        """DeNova vetoes GC of pages holding entries still awaiting dedup."""
        return True

    def _post_recover(self, report, clean: bool) -> None:
        """Subclass hook run at the end of recovery (DWQ/FACT fix-ups)."""

    def _post_mount(self) -> None:
        """Subclass hook run once the fs is mounted and operable.

        Unlike :meth:`_post_recover` (which runs *during* recovery,
        before ``mounted`` is set), this hook may use the full public
        op surface — DeNova rolls back interrupted backup-ingest
        staging here.
        """


def _page_span(offset: int, length: int) -> tuple[int, int]:
    """``(first page, page count)`` of a ``length``-byte write (>= 1)."""
    pg_first = offset // PAGE_SIZE
    return pg_first, (offset + length - 1) // PAGE_SIZE - pg_first + 1


def ino_cpu(ino: int, cpus: int) -> int:
    """Stable inode -> CPU affinity for allocator locality."""
    return ino % cpus

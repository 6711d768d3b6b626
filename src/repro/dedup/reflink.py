"""Reflink copies and snapshots on top of FACT reference counting.

A **reflink** (``cp --reflink`` semantics) is deduplication with a known
source: the destination file gets fresh write entries pointing at the
*source's* data pages, and each shared page's FACT reference count rises
by one.  Cost is O(metadata): no data pages move.  Source pages that
were never fingerprinted (their dedup is still queued) are fingerprinted
and inserted on the spot — a reflink *is* an eager dedup of its source.

Crash consistency reuses Algorithm 1's machinery verbatim: stage UCs →
append ``in_process`` entries → one atomic tail commit → settle counts →
``dedupe_complete``.  The destination inode is published (dentry append)
only after its content committed; a crash anywhere earlier leaves an
orphan that recovery collects, and the staged UCs are discarded or
resumed exactly as §V-C prescribes.

A **snapshot** is a reflink of the whole tree into
``/.snapshots/<name>/``, with every copied file marked immutable
(:data:`repro.nova.inode.FLAG_IMMUTABLE`).  Snapshot creation is atomic
per file, not per tree: a crash mid-snapshot leaves a readable partial
snapshot directory that :func:`delete_snapshot` removes — documented
behaviour, as cross-file atomicity would need a tree-wide journal.
"""

from __future__ import annotations

from repro.dedup.fact import FactFull
from repro.nova.entries import (
    DEDUPE_COMPLETE,
    DEDUPE_IN_PROCESS,
    SetattrEntry,
    WriteEntry,
)
from repro.nova.fs import (
    FileExists,
    FileNotFound,
    FSError,
    IsADirectory,
    extend_runs,
)
from repro.nova.inode import FLAG_IMMUTABLE, ITYPE_DIR, ITYPE_FILE
from repro.nova.layout import PAGE_SIZE

__all__ = ["reflink", "commit_runs", "snapshot", "delete_snapshot",
           "list_snapshots", "SNAPSHOT_DIR"]

SNAPSHOT_DIR = "/.snapshots"


def reflink(fs, src: str, dst: str, immutable: bool = False) -> int:
    """Create ``dst`` sharing every data page of ``src``.  Returns its ino."""
    src_ino = fs.lookup(src)
    src_cache = fs.caches[src_ino]
    if src_cache.inode.itype != ITYPE_FILE:
        raise IsADirectory(src)
    staging = getattr(fs, "staging", None)
    if staging is not None and staging.has_pending(src_ino):
        # Reflink reads the source through its radix index; staged but
        # undestaged records must land there first.
        staging.drain_ino(src_ino)
    dpino, dname, dparent = fs._namei(dst)
    if dname in dparent.dentries:
        raise FileExists(dst)
    cpu = src_ino % fs.cpus

    # Quota admission up front, before any UC is staged or any slot
    # taken: quotas are logical per-mapping, so the destination tenant
    # (the parent directory's owner) is charged one page per shared
    # mapping, exactly like a CoW write of the same content.  Checking
    # first makes an over-quota reflink atomic — QuotaExceeded leaves
    # no staged UC, no orphan inode, no partial clone.
    n_mappings = len(src_cache.index.mapped_offsets)
    fs.tenants.check_inode(dpino)
    if n_mappings:
        fs.tenants.check_pages(dpino, n_mappings)

    # Stage: one UC per shared page; fingerprint-and-insert pages that
    # have no FACT entry yet (pending offline dedup).
    staged: list[int] = []  # FACT idx per page, aligned with runs below
    runs: list[tuple[int, int, int]] = []  # (pgoff, block, count)
    for pgoff in src_cache.index.mapped_offsets:
        block = src_cache.index.block_of(pgoff)
        ent = fs.fact.entry_for_block(block)
        if ent is None:
            data = fs.dev.read(block * PAGE_SIZE, PAGE_SIZE)
            fp = fs.fingerprinter.strong(data)
            res = fs.fact.lookup(fp)
            if res.found is not None and res.found.block != block:
                # The source page itself duplicates an existing canonical
                # page; share *that* one (and this page will be reclaimed
                # when the source's own dedup runs).
                fs.fact.inc_uc(res.found.idx)
                staged.append(res.found.idx)
                block = res.found.block
            else:
                try:
                    idx = fs.fact.insert(fp, block, hint=res)
                except FactFull:
                    raise FSError(
                        "reflink needs a FACT slot per shared page and "
                        "the table is full") from None
                # The fresh entry must count the *source's* reference as
                # well as the destination's (the source's queued dedup
                # will self-hit with RFC >= 1 and correctly add nothing).
                fs.fact.inc_uc(idx)
                staged.append(idx)
                staged.append(idx)
        else:
            fs.fact.inc_uc(ent.idx)
            staged.append(ent.idx)
        extend_runs(runs, pgoff, block)

    # Unpublished destination inode (orphan until the dentry lands).
    # ``parent=dpino`` inherits the destination tenant's ownership, so
    # the mappings charged below (and uncharged by unlink, e.g. via
    # delete_snapshot) land on the right quota.
    dst_ino = fs._new_inode(ITYPE_FILE, cpu, parent=dpino)
    dst_cache = fs.caches[dst_ino]
    if immutable:
        dst_cache.inode.flags |= FLAG_IMMUTABLE
        fs.itable.write(dst_ino, dst_cache.inode)

    commit_runs(fs, dst_ino, dst_cache, runs, src_cache.inode.size, staged,
                cpu)

    # Publish.
    fs._append_dentry(dpino, dname, dst_ino, valid=1, cpu=cpu)
    return dst_ino


def commit_runs(fs, ino: int, cache, runs: list[tuple[int, int, int]],
                size: int, staged: list[int], cpu: int) -> None:
    """Commit the content of a new, still unpublished file.

    ``runs`` are ``(pgoff, block, pages)`` mappings onto pages whose
    references sit staged as UCs on the FACT entries in ``staged``.
    Algorithm 1's discipline: ``in_process`` write entries (a fully
    sparse file gets one setattr instead — the only record of its size)
    → one atomic tail commit → commit the staged UCs → mark the entries
    ``dedupe_complete`` → install them in the radix index → charge the
    owning tenant, if any.
    """
    mtime = int(fs.clock.now_ns)
    entries = [WriteEntry(file_pgoff=pgoff, num_pages=count, block=block,
                          size_after=size, ino=ino, mtime=mtime,
                          dedupe_flag=DEDUPE_IN_PROCESS)
               for pgoff, block, count in runs]
    addrs: list[int] = []
    if entries:
        addrs = fs._append_and_commit(ino, cache, entries, cpu)
        for addr in addrs:
            fs.note_dedup_pending(addr)
    elif size:
        fs._append_and_commit(ino, cache, [SetattrEntry(
            ino=ino, new_size=size, mtime=mtime)], cpu)
    cache.inode.size = size
    cache.inode.mtime = mtime

    for idx in staged:
        fs.fact.commit_uc(idx)
    for addr, we in zip(addrs, entries):
        fs.set_dedupe_flag(addr, DEDUPE_COMPLETE)
        fs.note_dedup_done(addr)
        cache.index.install(addr, we)
    # Net charge after the radix install (check, act, account): a fresh
    # file displaces nothing, so the net is one page per mapping — the
    # same figure the mount-time rebuild counts from the index.
    fs.tenants.account_pages(ino, sum(we.num_pages for we in entries))


def _ensure_snapshot_root(fs) -> None:
    if not fs.exists(SNAPSHOT_DIR):
        fs.mkdir(SNAPSHOT_DIR)


def snapshot(fs, name: str) -> dict:
    """Reflink the whole tree (except snapshots) into /.snapshots/name."""
    if "/" in name or not name:
        raise ValueError(f"bad snapshot name {name!r}")
    _ensure_snapshot_root(fs)
    base = f"{SNAPSHOT_DIR}/{name}"
    if fs.exists(base):
        raise FileExists(base)
    fs.mkdir(base)
    files = 0
    dirs = 0

    from repro.backup.recv import STAGE_DIR
    from repro.repl.chain import REPL_DIR

    def walk(src_dir: str, dst_dir: str):
        nonlocal files, dirs
        for entry in fs.listdir(src_dir):
            src_path = f"{src_dir.rstrip('/')}/{entry}"
            if src_path in (SNAPSHOT_DIR, STAGE_DIR, REPL_DIR):
                continue
            dst_path = f"{dst_dir}/{entry}"
            ino = fs.lookup(src_path, follow=False)
            itype = fs.caches[ino].inode.itype
            if itype == ITYPE_DIR:
                fs.mkdir(dst_path)
                dirs += 1
                walk(src_path, dst_path)
            elif itype == ITYPE_FILE:
                reflink(fs, src_path, dst_path, immutable=True)
                files += 1
            else:  # symlink: copied as a symlink, not its target
                fs.symlink(fs.readlink(src_path), dst_path)
                files += 1

    walk("/", base)
    return {"name": name, "files": files, "dirs": dirs, "path": base}


def list_snapshots(fs) -> list[str]:
    """Snapshot names in deterministic (lexicographic) order.

    The sort is explicit — ``snap list``, ``backup list``, and every
    test that compares listings rely on this ordering contract, not on
    ``listdir`` happening to sort.
    """
    if not fs.exists(SNAPSHOT_DIR):
        return []
    return sorted(fs.listdir(SNAPSHOT_DIR))


def delete_snapshot(fs, name: str) -> int:
    """Remove a snapshot tree; shared pages' RFCs drop accordingly."""
    base = f"{SNAPSHOT_DIR}/{name}"
    if not fs.exists(base):
        raise FileNotFound(base)
    removed = 0

    def teardown(path: str):
        nonlocal removed
        for entry in list(fs.listdir(path)):
            child = f"{path}/{entry}"
            ino = fs.lookup(child, follow=False)
            if fs.caches[ino].inode.itype == ITYPE_DIR:
                teardown(child)
            else:
                fs.unlink(child)
                removed += 1
        fs.rmdir(path)

    teardown(base)
    return removed

"""Out-of-line reverse dedup: keep the newest snapshot sequential.

``repro.backup`` dedups *forward*: the oldest snapshot holding a page
keeps it, and each newer snapshot points backwards, so the newest backup
— the common production restore target — fragments as the chain grows.
RevDedup (Ng/Lee) inverts the indirection: when S_n arrives, pages it
shares with S_{n-1}..S_0 are *relocated* into S_n's sequential layout
and the older snapshots take the fragmentation.  Following the hybrid
inline/out-of-line design (Li/Xu/Ng/Lee), the relocation runs out of
line — a budgeted, resumable pass like ``scrub`` — so ingest throughput
is never taxed.

The move protocol (per file of the newest snapshot)
---------------------------------------------------
1. allocate one contiguous extent sized to the file's mapped pages;
2. journal every intended move to ``/.repl/relocate.intent``
   (``[{old, new, idx}]`` — ``idx`` is the page's FACT entry, or None
   for an unfingerprinted page);
3. per page: copy ``old → new``, then append a redirecting write entry
   (the dedup daemon's Algorithm-1 idiom: ``in_process`` → tail commit
   → ``complete`` → radix repoint) to *every* file referencing ``old``
   — across all snapshots and the live tree;
4. retarget the FACT entry's block field ``old → new`` (one atomic
   store; RFC is untouched — the same references still exist, they just
   point at the new home);
5. free ``old`` directly (never via ``reclaim_extents``: the entry's
   RFC still counts those references) and drop the intent file.

Crash safety: a torn pass leaves the intent journal behind, and
:func:`replay_intents` (run from ``_post_mount`` after structural
recovery) drives each half-move to a consistent side.  The decision
procedure is evidence-based, not positional: if no rebuilt index maps
``new``, the move never became visible and is discarded; otherwise the
copy certainly happened (redirects only follow the copy), so the
remaining ``old`` references are redirected, the FACT retargeted, and
``old`` freed.  Every free is guarded with ``allocator.is_free`` —
crash recovery rebuilds the allocator from the index bitmap, so a page
whose references all moved before the crash is already free.

Sharing *within* the newest snapshot is fundamentally
unsequentializable under single-canonical-block dedup: the first file
(in sorted order) to claim a block owns its placement; later
occurrences keep a fragmented reference.  Cross-snapshot sharing — the
RevDedup case — has no such conflict.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.nova.entries import (
    DEDUPE_COMPLETE,
    DEDUPE_IN_PROCESS,
    WriteEntry,
)
from repro.nova.fs import ino_cpu
from repro.nova.inode import ITYPE_DIR, ITYPE_FILE
from repro.nova.layout import PAGE_SIZE
from repro.pm.allocator import AllocError
from repro.repl.chain import (
    LAYOUT_REVERSE,
    REPL_DIR,
    _present,
    _write_small,
    set_layout,
)

__all__ = ["INTENT_PATH", "relocate_latest", "replay_intents",
           "latest_snapshot"]

INTENT_PATH = f"{REPL_DIR}/relocate.intent"


def latest_snapshot(fs) -> Optional[str]:
    """The chain's newest snapshot: deepest, lexicographic tie-break."""
    from repro.repl.chain import chain_table
    rows = chain_table(fs)
    if not rows:
        return None
    return max(rows, key=lambda r: (r["depth"], r["snapshot"]))["snapshot"]


def _walk_files(fs, root: str) -> list[str]:
    """Regular files under ``root``, sorted by path (the pass order)."""
    out: list[str] = []

    def walk(path: str) -> None:
        for entry in sorted(fs.listdir(path)):
            child = f"{path}/{entry}"
            ino = fs.lookup(child, follow=False)
            itype = fs.caches[ino].inode.itype
            if itype == ITYPE_DIR:
                walk(child)
            elif itype == ITYPE_FILE:
                out.append(child)

    walk(root)
    return out


def _block_refs(fs, blocks: set[int]) -> dict[int, list[tuple[int, int]]]:
    """All (ino, pgoff) mappings onto ``blocks``, across every file."""
    refs: dict[int, list[tuple[int, int]]] = {b: [] for b in blocks}
    for ino, cache in fs.caches.items():
        if cache.inode.itype != ITYPE_FILE:
            continue
        for pgoff, (_addr, entry) in cache.index._slots.items():
            block = entry.block_for(pgoff)
            if block in refs:
                refs[block].append((ino, pgoff))
    return refs


def _redirect_ref(fs, ino: int, pgoff: int, new_block: int) -> None:
    """Repoint one file page at ``new_block`` (daemon Algorithm-1 idiom).

    The displaced old page is NOT reclaimed here — its references stay
    in the same FACT entry, whose block field the caller retargets.
    """
    cache = fs.caches[ino]
    cpu = ino_cpu(ino, fs.cpus)
    we = WriteEntry(
        file_pgoff=pgoff, num_pages=1, block=new_block,
        size_after=cache.inode.size, ino=ino,
        mtime=int(fs.clock.now_ns), dedupe_flag=DEDUPE_IN_PROCESS,
    )
    [addr] = fs._append_and_commit(ino, cache, [we], cpu)
    fs.note_dedup_pending(addr)
    fs.set_dedupe_flag(addr, DEDUPE_COMPLETE)
    fs.note_dedup_done(addr)
    displaced = cache.index.redirect(pgoff, addr, we)
    fs._note_dead_entries(cache, displaced)


def _min_runs(mapped: list[int]) -> int:
    """Best achievable run count: one per hole-delimited segment."""
    segs = 0
    prev = None
    for pgoff in mapped:
        if prev is None or pgoff != prev + 1:
            segs += 1
        prev = pgoff
    return segs


def _relocate_file(fs, path: str, placed: set[int]) -> dict:
    """Sequentialize one file of the newest snapshot.

    Returns ``{"moved": n}`` (0 = already sequential) or
    ``{"skipped": reason}``.  ``placed`` accumulates blocks this pass
    already assigned a home — first owner wins.
    """
    ino = fs.lookup(path, follow=False)
    cache = fs.caches[ino]
    mapped = cache.index.mapped_offsets
    if not mapped:
        return {"moved": 0}
    if len(cache.index.physical_runs()) <= _min_runs(mapped):
        return {"moved": 0}
    cpu = ino_cpu(ino, fs.cpus)

    # Plan: mapped page i of this file lands at newstart + i; a block
    # seen twice (or owned by an earlier file this pass) moves at most
    # once, and unused slots of the fresh extent are returned.
    blocks = [cache.index.block_of(p) for p in mapped]
    try:
        newstart = fs.allocator.alloc(len(mapped), cpu)
    except AllocError:
        return {"skipped": "enospc"}
    moves: list[dict] = []    # {"old", "new", "idx"}
    assigned: set[int] = set()
    unused: list[int] = []
    for i, old in enumerate(blocks):
        if old in assigned or old in placed:
            unused.append(newstart + i)
            continue
        assigned.add(old)
        ent = fs.fact.entry_for_block(old)
        moves.append({"old": old, "new": newstart + i,
                      "idx": ent.idx if ent is not None else None})
    if not moves:
        fs.allocator.free(newstart, len(mapped), cpu)
        return {"moved": 0}

    # Journal the whole batch before touching anything (step 2); the
    # file write persists through the normal data path, so a crash
    # mid-journal leaves garbled JSON = a never-started batch.
    if not _present(fs, REPL_DIR):
        fs.mkdir(REPL_DIR)
    _write_small(fs, INTENT_PATH, json.dumps(moves).encode())

    refs = _block_refs(fs, {m["old"] for m in moves})
    for m in moves:
        old, new = m["old"], m["new"]
        data = fs.dev.read(old * PAGE_SIZE, PAGE_SIZE)
        fs.dev.write(new * PAGE_SIZE, data, nt=True)
        for ref_ino, ref_pgoff in refs[old]:
            _redirect_ref(fs, ref_ino, ref_pgoff, new)
        if m["idx"] is not None:
            fs.fact.retarget_block(m["idx"], new)
        fs.allocator.free(old, 1, cpu)
        placed.add(new)

    for page in unused:
        fs.allocator.free(page, 1, cpu)
    fs.unlink(INTENT_PATH)
    return {"moved": len(moves)}


def relocate_latest(fs, budget: Optional[int] = None) -> dict:
    """One budgeted reverse-dedup pass over the newest snapshot.

    ``budget`` caps pages moved per call (a file is never split across
    calls — the batch is the crash-atomic unit); the volatile cursor
    resumes the next call where this one stopped, scrub-style.  When the
    pass completes the snapshot's recorded layout flips to ``reverse``
    (if it has chain metadata — local snapshots record none).
    """
    from repro.dedup.reflink import SNAPSHOT_DIR

    name = latest_snapshot(fs)
    if name is None:
        return {"snapshot": None, "done": True, "pages_moved": 0,
                "files_examined": 0, "files_moved": 0,
                "skipped_enospc": 0, "next_cursor": 0}
    cursor_name, cursor = getattr(fs, "_relocate_cursor", (None, 0))
    if cursor_name != name:
        cursor = 0
    files = _walk_files(fs, f"{SNAPSHOT_DIR}/{name}")
    moved = files_moved = examined = enospc = 0
    placed: set[int] = set()
    with fs.obs.span("repl.relocate", snapshot=name, budget=budget or 0,
                     cursor=cursor):
        while cursor < len(files):
            if budget is not None and moved >= budget:
                break
            out = _relocate_file(fs, files[cursor], placed)
            examined += 1
            cursor += 1
            if out.get("skipped") == "enospc":
                enospc += 1
            elif out["moved"]:
                moved += out["moved"]
                files_moved += 1
    done = cursor >= len(files)
    fs._relocate_cursor = (None, 0) if done else (name, cursor)
    if done:
        set_layout(fs, name, LAYOUT_REVERSE)
    # Local-only chains record no metadata: don't leave an empty /.repl
    # behind once every intent journal is retired.
    if _present(fs, REPL_DIR) and not fs.listdir(REPL_DIR):
        fs.rmdir(REPL_DIR)
    counters = getattr(fs, "repl_counters", None)
    if counters is not None:
        counters["pages_relocated"] += moved
        counters["files_sequentialized"] += files_moved
        counters["relocate_skipped_enospc"] += enospc
    return {"snapshot": name, "done": done, "pages_moved": moved,
            "files_examined": examined, "files_moved": files_moved,
            "skipped_enospc": enospc, "next_cursor": 0 if done else cursor}


def replay_intents(fs) -> int:
    """Settle a torn relocation batch after an unclean mount.

    Runs after structural recovery rebuilt the indexes and allocator.
    Per journaled move, the evidence decides the direction (see module
    docstring); the journal is then dropped.  Returns moves settled
    forward (0 = nothing to do / batch discarded).
    """
    intents = _read_json_list(fs)
    if intents is None:
        return 0
    settled = 0
    for m in intents:
        if not isinstance(m, dict) or "old" not in m or "new" not in m:
            continue  # garbled entry: never-started batch remnant
        old, new, idx = m["old"], m["new"], m.get("idx")
        refs = _block_refs(fs, {old, new})
        if not refs[new]:
            # The move never became visible: no rebuilt index maps the
            # new page, so recovery's allocator never pinned it either.
            continue
        for ref_ino, ref_pgoff in refs[old]:
            _redirect_ref(fs, ref_ino, ref_pgoff, new)
        if idx is not None:
            ent = fs.fact.read_entry(idx)
            if ent.valid and ent.block == old:
                fs.fact.retarget_block(idx, new)
        if not fs.allocator.is_free(old):
            # Still pinned = some reference survived to the rebuild; we
            # just moved it.  All-moved-pre-crash pages were never
            # pinned and are free already.
            fs.allocator.free(old, 1, fs.allocator.home_cpu(old))
        settled += 1
    fs.unlink(INTENT_PATH)
    if not fs.listdir(REPL_DIR):
        fs.rmdir(REPL_DIR)
    return settled


def _read_json_list(fs) -> Optional[list]:
    if not _present(fs, INTENT_PATH):
        return None
    ino = fs.lookup(INTENT_PATH, follow=False)
    try:
        out = json.loads(fs.read(ino, 0, fs.stat(ino).size).decode())
    except (ValueError, UnicodeDecodeError):
        return []  # torn journal write: the batch never started
    return out if isinstance(out, list) else []

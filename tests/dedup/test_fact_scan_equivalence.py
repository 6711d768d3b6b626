"""The vectorized FACT recovery scans behave exactly like per-slot loops.

``FACT.structural_recover``, ``FACT.check_chains`` and
``FACT.rebuild_iaa_free`` select the slots that need work with NumPy
masks.  The per-slot loops they replaced are kept below, in this file
only, as the oracle.  Random in-range FACT images — real insert /
commit / remove / reorder histories, reorders interrupted at any write
(phase-1 and phase-2 commit flags), half inserts, then random field
corruption (stray links, cycles, stale and crossed delete pointers,
foreign prefixes) — are loaded onto two identical devices, and each
implementation runs on its own copy.  They must agree on the report,
the table bytes afterwards, the IAA free list, the ``PMStats`` counters,
the charged simulated ns, every device write (address and bytes, in
order), and the exception raised, if any.
"""

import hashlib

import hypothesis.strategies as st
import numpy as np
from hypothesis import HealthCheck, example, given, settings

from repro.dedup.fact import (
    _OFF_COUNTS,
    _OFF_DELETE,
    _OFF_FP,
    _OFF_NEXT,
    _OFF_PREV,
    _SCAN_DTYPE,
    ENTRY,
    FACT,
    FactCorruption,
    FactFull,
)
from repro.dedup.fingerprint import FP_BYTES, fp_prefix
from repro.dedup.reorder import recover_reorder, reorder_chain
from repro.nova.layout import PAGE_SIZE, Geometry, Superblock
from repro.pm import PMDevice, SimClock
from repro.pm.device import CrashRequested

N_BITS = 4          # DAA 16 slots, IAA 16 slots: dense collisions
TOTAL_PAGES = 16
TOTAL = 2 ** (N_BITS + 1)

EQUIV = settings(max_examples=200, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------- the oracle


def old_rebuild_iaa_free(fact: FACT) -> int:
    arr = fact._scan()
    fact._iaa_free = [
        idx for idx in range(fact.total - 1, fact.daa_size - 1, -1)
        if arr["block"][idx] == 0
    ]
    return len(fact._iaa_free)


def old_structural_recover(fact: FACT) -> dict:
    report = {"reorders_recovered": 0, "orphans_zeroed": 0,
              "prevs_fixed": 0, "deletes_cleared": 0}
    arr = fact._scan()
    for head in range(fact.daa_size):
        if arr["prev"][head] != 0:
            recover_reorder(fact, head)
            report["reorders_recovered"] += 1
    arr = fact._scan()
    linked: set[int] = set()
    for head in range(fact.daa_size):
        prev_idx = -1
        idx = head
        hops = 0
        while idx >= 0:
            if hops > fact.total:
                raise FactCorruption(f"post-recovery cycle at {head}")
            if idx != head:
                linked.add(idx)
            want = 0 if idx == head else prev_idx + 1
            if int(arr["prev"][idx]) != want:
                fact._write_u64(idx, _OFF_PREV, want)
                report["prevs_fixed"] += 1
            prev_idx = idx
            idx = int(arr["next"][idx]) - 1
            hops += 1
    for idx in range(fact.daa_size, fact.total):
        if arr["block"][idx] != 0 and idx not in linked:
            block = int(arr["block"][idx])
            if fact._read_u64(block, _OFF_DELETE) == idx + 1:
                fact.clear_delete(block)
                report["deletes_cleared"] += 1
            fact._write_fields(idx, 0, 0, -1, -1, bytes(FP_BYTES))
            report["orphans_zeroed"] += 1
    arr = fact._scan()
    for slot in range(fact.total):
        val = int(arr["delete"][slot])
        if val == 0:
            continue
        tgt = val - 1
        if (tgt >= fact.total or arr["block"][tgt] != slot):
            fact.clear_delete(slot)
            report["deletes_cleared"] += 1
    old_rebuild_iaa_free(fact)
    return report


def old_check_chains(fact: FACT) -> None:
    arr = np.frombuffer(fact.dev.read_silent(fact.base, fact.total * ENTRY),
                        dtype=_SCAN_DTYPE)
    linked: set[int] = set()
    for head in range(fact.daa_size):
        if int(arr["prev"][head]) != 0:
            raise FactCorruption(
                f"head {head}: reorder commit flag left set")
        prev_idx = -1
        idx = head
        hops = 0
        while idx >= 0:
            if hops > fact.total:
                raise FactCorruption(f"cycle in chain {head}")
            if idx != head:
                if idx < fact.daa_size:
                    raise FactCorruption(
                        f"chain {head} links into the DAA at {idx}")
                if idx in linked:
                    raise FactCorruption(
                        f"slot {idx} linked from two chains")
                linked.add(idx)
                if arr["block"][idx] == 0:
                    raise FactCorruption(
                        f"chain {head} links invalid slot {idx}")
                if int(arr["prev"][idx]) != prev_idx + 1:
                    raise FactCorruption(
                        f"slot {idx}: prev={int(arr['prev'][idx]) - 1} "
                        f"but chain predecessor is {prev_idx}")
            if arr["block"][idx] != 0:
                raw = fact.dev.read_silent(fact.addr(idx), ENTRY)
                fp = raw[_OFF_FP:_OFF_FP + FP_BYTES]
                if fp_prefix(fp, fact.prefix_bits) != head:
                    raise FactCorruption(
                        f"slot {idx} in chain {head} has prefix "
                        f"{fp_prefix(fp, fact.prefix_bits)}")
            prev_idx = idx
            idx = int(arr["next"][idx]) - 1
            hops += 1
    for idx in range(fact.daa_size, fact.total):
        if arr["block"][idx] != 0 and idx not in linked:
            raise FactCorruption(f"valid IAA slot {idx} is unreachable")
    for idx in np.nonzero(arr["block"])[0]:
        block = int(arr["block"][int(idx)])
        if int(arr["delete"][block]) != int(idx) + 1:
            raise FactCorruption(
                f"entry {int(idx)} (block {block}): delete pointer "
                f"is {int(arr['delete'][block]) - 1}")


# ---------------------------------------------------------------- images


def mkfp(prefix: int, salt: int) -> bytes:
    body = hashlib.sha1(salt.to_bytes(8, "little")).digest()
    head = int.from_bytes(body[:8], "big")
    head = (head & ((1 << (64 - N_BITS)) - 1)) | (prefix << (64 - N_BITS))
    return head.to_bytes(8, "big") + body[8:]


def load(table: bytes) -> FACT:
    """A fresh device whose FACT region holds ``table`` (durably)."""
    dev = PMDevice(TOTAL_PAGES * PAGE_SIZE, clock=SimClock())
    geo = Geometry.compute(TOTAL_PAGES, max_inodes=2, with_dedup=True,
                           fact_prefix_bits=N_BITS, dwq_save_pages=1,
                           staging_pages=0)
    Superblock(dev).format(geo)
    fact = FACT(dev, geo)
    dev.write(fact.base, table)
    dev.persist(fact.base, len(table))
    return fact


def walk(table: bytes, head: int) -> list[int]:
    """Slots reached from ``head`` by ``next`` links, stopping at a repeat."""
    arr = np.frombuffer(table, dtype=_SCAN_DTYPE)
    out: list[int] = []
    idx = head
    while idx >= 0 and idx not in out:
        out.append(idx)
        idx = int(arr["next"][idx]) - 1
    return out


@st.composite
def images(draw) -> bytes:
    fact = load(bytes(TOTAL * ENTRY))
    dev = fact.dev
    # Collisions land in any IAA slot, not only from the low end.
    fact._iaa_free = draw(st.permutations(range(fact.daa_size, TOTAL)))
    blocks = draw(st.permutations(range(1, TOTAL)))
    prefixes = st.one_of(st.sampled_from([2, 5, 11]),
                         st.integers(0, fact.daa_size - 1))
    entries: list[int] = []
    for salt in range(draw(st.integers(0, 20))):
        fp = mkfp(draw(prefixes), salt)
        try:
            idx = fact.insert(fp, blocks[salt])
        except FactFull:
            break
        entries.append(idx)
        for _ in range(draw(st.integers(0, 3))):
            fact.commit_uc(idx)
            fact.inc_uc(idx)
    for idx in draw(st.lists(st.sampled_from(entries), unique=True)
                    if entries else st.just([])):
        if fact.read_entry(idx).valid:
            fact.remove(idx)
    # Reorders; one cut short after ``stop`` writes ends the history
    # with a phase-1 (head.prev = head) or phase-2 (head.prev = last)
    # commit flag set, as a crash would.
    for head, stop in draw(st.lists(st.tuples(prefixes, st.integers(0, 12)),
                                    max_size=3)):
        start = dev.stats.writes

        def cut(count, _dev, start=start, stop=stop):
            if count > start + stop:
                raise CrashRequested("reorder", count)

        dev.hooks.on_write = cut
        try:
            reorder_chain(fact, head)
        except CrashRequested:
            break
        finally:
            dev.hooks.on_write = None
    # Half inserts: a valid IAA slot that no chain links.
    for head, block, point in draw(st.lists(st.tuples(
            st.integers(0, fact.daa_size - 1), st.integers(1, TOTAL - 1),
            st.booleans()), max_size=2)):
        if not fact._iaa_free:
            break
        idx = fact._iaa_free.pop()
        fact._write_fields(idx, 1 << 32, block, head, -1,
                           mkfp(head, 100 + idx))
        if point:
            fact.set_delete(block, idx)
    # In-range corruption.
    offsets = {"counts": _OFF_COUNTS, "block": 8, "prev": _OFF_PREV,
               "next": _OFF_NEXT, "delete": _OFF_DELETE}
    limits = {"counts": 3 << 32, "block": TOTAL - 1, "prev": TOTAL,
              "next": TOTAL, "delete": TOTAL + 2}
    for kind, slot, value in draw(st.lists(st.tuples(
            st.sampled_from(sorted(offsets)
                            + ["fp", "cycle", "relink", "flag", "cross"]),
            st.integers(0, TOTAL - 1), st.integers(0, 2 ** 20)),
            max_size=6)):
        table = dev.read_silent(fact.base, TOTAL * ENTRY)
        if kind == "fp":
            dev.write(fact.addr(slot) + _OFF_FP,
                      mkfp(value % fact.daa_size, value))
        elif kind in ("cycle", "relink", "flag"):
            # On a chain (odd ``slot``: one whose head has a reorder flag)
            # point a node's next back at itself or a predecessor (cycle)
            # or at any slot (relink), or set the head's reorder commit
            # flag (phase 1: its own index; phase 2: a node's index).
            walks = [walk(table, head) for head in range(fact.daa_size)]
            flagged = [nodes for nodes in walks
                       if fact._read_u64(nodes[0], _OFF_PREV)]
            chains = ((slot % 2 and flagged)
                      or [nodes for nodes in walks if len(nodes) > 1]
                      or walks)
            nodes = chains[slot % len(chains)]
            a = nodes[value % len(nodes)]
            if kind == "flag":
                flag = a if value >> 4 & 1 else nodes[0]
                dev.write_atomic64(fact.addr(nodes[0]) + _OFF_PREV, flag + 1)
            else:
                b = (nodes[(value >> 4) % (nodes.index(a) + 1)]
                     if kind == "cycle" else (value >> 4) % TOTAL)
                dev.write_atomic64(fact.addr(a) + _OFF_NEXT, b + 1)
        elif kind == "cross":
            other = value % TOTAL
            a = fact._read_u64(slot, _OFF_DELETE)
            b = fact._read_u64(other, _OFF_DELETE)
            dev.write_atomic64(fact.addr(slot) + _OFF_DELETE, b)
            dev.write_atomic64(fact.addr(other) + _OFF_DELETE, a)
        else:
            dev.write_atomic64(fact.addr(slot) + offsets[kind],
                               value % (limits[kind] + 1))
    return dev.read_silent(fact.base, TOTAL * ENTRY)


def phase1_chain_into_daa() -> bytes:
    """Head 2 flagged in phase 1, its chain 2 -> 16 -> 5 ending in the DAA.

    Pass 1's prev rebuild then gives lone head 5 a nonzero ``prev``,
    which pass 2 must walk from head 5 to clear.
    """
    fact = load(bytes(TOTAL * ENTRY))
    fact.insert(mkfp(2, 0), 1)
    node = fact.insert(mkfp(2, 1), 2)
    fact._write_u64(node, _OFF_NEXT, 5 + 1)
    fact._write_u64(2, _OFF_PREV, 2 + 1)
    return fact.dev.read_silent(fact.base, TOTAL * ENTRY)


# ---------------------------------------------------------------- harness


def observe(fn, table: bytes) -> dict:
    """Run ``fn(fact)`` on a fresh copy of ``table``; record its effects."""
    fact = load(table)
    dev = fact.dev
    writes: list[tuple[int, bytes]] = []
    store = dev.write

    def record(addr, data, nt=False):
        writes.append((addr, bytes(data)))
        store(addr, data, nt=nt)

    dev.write = record
    fact._iaa_free = None
    stats = dev.stats.snapshot()
    charged = dev.clock.charged_ns
    try:
        outcome = ("ok", fn(fact))
    except Exception as exc:  # the oracle's exception is part of the result
        outcome = (type(exc).__name__, str(exc))
    after = dev.stats.snapshot()
    return {
        "outcome": outcome,
        "table": dev.read_silent(fact.base, TOTAL * ENTRY),
        "iaa_free": fact._iaa_free,
        "stats": {k: after[k] - stats[k] for k in after},
        "charged_ns": dev.clock.charged_ns - charged,
        "writes": writes,
    }


def assert_same(new: dict, old: dict) -> None:
    assert new["outcome"] == old["outcome"]
    assert new["writes"] == old["writes"]
    assert new["table"] == old["table"]
    assert new["iaa_free"] == old["iaa_free"]
    assert new["stats"] == old["stats"]
    assert new["charged_ns"] == old["charged_ns"]


@EQUIV
@given(images())
@example(phase1_chain_into_daa())
def test_structural_recover_matches_per_slot_loops(table):
    new = observe(FACT.structural_recover, table)
    old = observe(old_structural_recover, table)
    assert_same(new, old)
    if new["outcome"][0] == "ok":
        # The repaired image reaches check_chains' deeper checks.
        assert_same(observe(FACT.check_chains, new["table"]),
                    observe(old_check_chains, new["table"]))


@EQUIV
@given(images())
def test_check_chains_matches_per_slot_loops(table):
    assert_same(observe(FACT.check_chains, table),
                observe(old_check_chains, table))


@settings(EQUIV, max_examples=50)
@given(images())
def test_rebuild_iaa_free_matches_per_slot_loop(table):
    assert_same(observe(FACT.rebuild_iaa_free, table),
                observe(old_rebuild_iaa_free, table))


def test_oracle_sees_every_repair_kind():
    """The generator reaches each pass's repair and each corruption."""
    reports = []
    messages = set()

    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(images())
    def collect(table):
        outcome = observe(old_structural_recover, table)["outcome"]
        if outcome[0] == "ok":
            reports.append(outcome[1])
        else:
            messages.add(outcome[1].split(" ")[0])
        checked = observe(old_check_chains, table)["outcome"]
        if checked[0] != "ok":
            messages.add(checked[1].split(" ")[0])

    collect()
    for key in ("reorders_recovered", "orphans_zeroed", "prevs_fixed",
                "deletes_cleared"):
        assert any(r[key] for r in reports), key
    assert {"head", "slot", "chain", "entry", "valid", "cycle",
            "post-recovery", "reorder"} <= messages

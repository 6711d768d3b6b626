"""Tests for the inline-dedup baselines (DeNova-Inline and adaptive)."""

import numpy as np
import pytest

from repro.dedup import DeNovaFS, InlineDedupFS
from repro.dedup.inline import AdaptiveInlineFS
from repro.failure import check_fs_invariants
from repro.nova import NovaFS, PAGE_SIZE
from repro.nova.fs import NoSpace
from repro.pm import DRAM, OPTANE_DCPM, PMDevice, SimClock


def make_fs(cls=InlineDedupFS, pages=2048, model=DRAM, **kw):
    dev = PMDevice(pages * PAGE_SIZE, model=model, clock=SimClock())
    return cls.mkfs(dev, max_inodes=kw.pop("max_inodes", 256), **kw)


def page_of(tag: int) -> bytes:
    return bytes([tag & 0xFF]) * PAGE_SIZE


class TestInlineCorrectness:
    def test_duplicates_never_stored(self):
        fs = make_fs()
        a = fs.create("/a")
        fs.write(a, 0, page_of(1) * 3)
        used1 = fs.statfs()["used_pages"]
        b = fs.create("/b")
        fs.write(b, 0, page_of(1) * 3)
        # Only log-page growth; zero new data pages.
        assert fs.statfs()["used_pages"] <= used1 + 1
        assert fs.read(b, 0, 3 * PAGE_SIZE) == page_of(1) * 3
        check_fs_invariants(fs)

    def test_dedup_is_immediate_no_queue(self):
        fs = make_fs()
        a = fs.create("/a")
        fs.write(a, 0, page_of(1))
        assert len(fs.dwq) == 0
        assert fs.space_stats()["dwq_backlog"] == 0
        assert fs.fingerprinter.strong_count == 1  # hashed in write path

    def test_mixed_unique_dup_write(self):
        fs = make_fs()
        a = fs.create("/a")
        fs.write(a, 0, page_of(1) + page_of(2))
        b = fs.create("/b")
        data = page_of(3) + page_of(1) + page_of(4) + page_of(2)
        fs.write(b, 0, data)
        assert fs.read(b, 0, len(data)) == data
        st = fs.space_stats()
        assert st["logical_pages"] == 6
        assert st["physical_pages"] == 4
        check_fs_invariants(fs)

    def test_unaligned_write_content_preserved(self):
        fs = make_fs()
        a = fs.create("/a")
        fs.write(a, 0, b"A" * (2 * PAGE_SIZE))
        fs.write(a, 100, b"B" * 50)
        got = fs.read(a, 0, 2 * PAGE_SIZE)
        assert got[100:150] == b"B" * 50
        assert got[:100] == b"A" * 100
        check_fs_invariants(fs)

    def test_rfc_counts_inline_references(self):
        fs = make_fs()
        for i in range(3):
            ino = fs.create(f"/f{i}")
            fs.write(ino, 0, page_of(42))
        (idx, ent), = fs.fact.live_entries().items()
        assert ent.refcount == 3
        assert ent.update_count == 0

    def test_overwrite_and_unlink_reclaim(self):
        fs = make_fs()
        a = fs.create("/a")
        b = fs.create("/b")
        fs.write(a, 0, page_of(1) * 2)
        fs.write(b, 0, page_of(1) * 2)
        fs.write(a, 0, page_of(2) * 2)
        assert fs.read(b, 0, 2 * PAGE_SIZE) == page_of(1) * 2
        fs.unlink("/b")
        assert fs.fact.live_entries()  # page 2 content remains for /a
        check_fs_invariants(fs)

    def test_enospc_rolls_back_metadata(self):
        fs = make_fs(pages=128, max_inodes=16)
        a = fs.create("/a")
        fs.write(a, 0, page_of(1))
        entries_before = len(fs.fact.live_entries())
        rng = np.random.default_rng(0)
        big = rng.integers(0, 256, 500 * PAGE_SIZE, dtype=np.uint8).tobytes()
        with pytest.raises(NoSpace):
            fs.write(a, 0, big)
        assert len(fs.fact.live_entries()) == entries_before
        live = fs.fact.live_entries()
        assert all(e.update_count == 0 for e in live.values())
        assert fs.read(a, 0, PAGE_SIZE) == page_of(1)
        check_fs_invariants(fs)

    def test_overwrite_is_observed_like_a_direct_write(self):
        """One pipeline for every variant: an inline overwrite records an
        overwrite-latency sample and its span carries the page count."""
        fs = make_fs()
        a = fs.create("/a")
        fs.write(a, 0, page_of(1) * 2)
        hist = fs.obs.registry.get("fs.overwrite_latency_ns")
        assert hist.count == 0
        fs.write(a, 0, page_of(2) * 2)
        assert hist.count == 1
        span = [e for e in fs.obs.tracer.events if e.name == "fs.write"][-1]
        assert dict(span.attrs) == {"ino": a, "pages": 2}

    def test_crash_recovery_of_inline_write(self):
        """Inline transactions reuse the UC/in_process machinery, so the
        §V-C recovery applies to them too."""
        from repro.failure import sweep_crash_points

        def build():
            fs = make_fs(pages=512, max_inodes=32)
            a = fs.create("/a")
            fs.write(a, 0, page_of(1) * 2)
            b = fs.create("/b")

            def scenario():
                fs.write(b, 0, page_of(1) + page_of(9))

            return fs.dev, scenario

        def check(dev, point, phase):
            fs2 = InlineDedupFS.mount(dev)
            a2 = fs2.lookup("/a")
            assert fs2.read(a2, 0, 2 * PAGE_SIZE) == page_of(1) * 2
            if fs2.exists("/b"):
                b2 = fs2.lookup("/b")
                size = fs2.stat(b2).size
                assert size in (0, 2 * PAGE_SIZE)
                if size:
                    assert fs2.read(b2, 0, size) == page_of(1) + page_of(9)
            check_fs_invariants(fs2)

        assert sweep_crash_points(build, check) > 0


class TestAdaptive:
    def test_weak_only_until_collision(self):
        fs = make_fs(AdaptiveInlineFS)
        a = fs.create("/a")
        fs.write(a, 0, page_of(1) + page_of(2))
        assert fs.fingerprinter.weak_count == 2
        assert fs.fingerprinter.strong_count == 0  # unique data: no SHA-1
        assert fs.adaptive_stats["weak_misses"] == 2

    def test_collision_triggers_strong_and_lazy(self):
        fs = make_fs(AdaptiveInlineFS)
        a = fs.create("/a")
        fs.write(a, 0, page_of(1))
        b = fs.create("/b")
        fs.write(b, 0, page_of(1))
        assert fs.adaptive_stats["weak_hits"] == 1
        assert fs.adaptive_stats["confirmed_dups"] == 1
        assert fs.adaptive_stats["lazy_strong"] == 1  # stored chunk hashed
        assert fs.fingerprinter.strong_count == 2    # lazy + incoming
        assert fs.space_stats()["physical_pages"] == 1

    def test_contents_correct_after_dedup(self):
        fs = make_fs(AdaptiveInlineFS)
        data = page_of(1) + page_of(2) + page_of(1) + page_of(3)
        a = fs.create("/a")
        fs.write(a, 0, data)
        assert fs.read(a, 0, len(data)) == data
        assert fs.space_stats()["physical_pages"] == 3

    def test_reclaim_through_dram_table(self):
        fs = make_fs(AdaptiveInlineFS)
        a = fs.create("/a")
        b = fs.create("/b")
        fs.write(a, 0, page_of(1))
        fs.write(b, 0, page_of(1))
        fs.unlink("/a")
        assert fs.read(b, 0, PAGE_SIZE) == page_of(1)
        fs.unlink("/b")
        assert not fs._by_block

    def test_enospc_rollback_undoes_dram_metadata(self):
        """A failed write leaves no DRAM record behind: neither a stale
        record on a freed page (its next owner's content would be served
        for a later duplicate) nor a reference count it added."""
        fs = make_fs(AdaptiveInlineFS, pages=128, max_inodes=16)
        a = fs.create("/a")
        fs.write(a, 0, page_of(1))
        b = fs.create("/b")
        fs.write(b, 0, page_of(1))  # shared: rfc 2
        rng = np.random.default_rng(0)
        x = rng.integers(0, 256, PAGE_SIZE, dtype=np.uint8).tobytes()
        rand = rng.integers(0, 256, 500 * PAGE_SIZE, dtype=np.uint8)

        def table():
            return ({blk: (r.weak, r.strong, r.rfc)
                     for blk, r in fs._by_block.items()},
                    {w: [r.block for r in recs]
                     for w, recs in fs._weak_index.items()})

        before = table()
        with pytest.raises(NoSpace):
            # x twice (an intra-write duplicate), then more than fits;
            # page 0 of the file is a duplicate of the shared page.
            fs.write(a, 0, page_of(1) + x + x + rand.tobytes())
        assert table() == before
        assert fs.read(a, 0, PAGE_SIZE) == page_of(1)

        # Reuse every freed page with filler, then write x afresh: it
        # must be stored, not deduplicated onto a recycled page.
        filler = fs.create("/filler")
        pg = 0
        while fs.statfs()["free_pages"] > 8:
            fs.write(filler, pg * PAGE_SIZE,
                     rand[pg * PAGE_SIZE:(pg + 1) * PAGE_SIZE].tobytes()
                     [::-1])
            pg += 1
        c = fs.create("/c")
        fs.write(c, 0, x)
        assert fs.read(c, 0, PAGE_SIZE) == x
        fs.unlink("/b")
        assert fs.read(a, 0, PAGE_SIZE) == page_of(1)

    def test_adaptive_cheaper_than_strong_on_unique_data(self):
        """Eq. 4 vs Eq. 2: with alpha=0 the adaptive variant only pays
        T_fw, so its write path must be faster than always-SHA-1."""
        def cost(cls):
            fs = make_fs(cls, model=OPTANE_DCPM)
            rng = np.random.default_rng(7)
            ino = fs.create("/f")
            t0 = fs.clock.now_ns
            for i in range(20):
                data = rng.integers(0, 256, PAGE_SIZE,
                                    dtype=np.uint8).tobytes()
                fs.write(ino, i * PAGE_SIZE, data)
            return fs.clock.now_ns - t0

        assert cost(AdaptiveInlineFS) < 0.6 * cost(InlineDedupFS)


class TestVariantComparison:
    def test_inline_slower_than_nova_and_offline_is_not(self):
        """The paper's headline (Fig. 8 shape) at miniature scale."""
        def write_time(cls, drain):
            fs = make_fs(cls, model=OPTANE_DCPM)
            rng = np.random.default_rng(1)
            t0 = fs.clock.now_ns
            for i in range(30):
                ino = fs.create(f"/f{i}")
                fs.write(ino, 0,
                         rng.integers(0, 256, PAGE_SIZE,
                                      dtype=np.uint8).tobytes())
            elapsed = fs.clock.now_ns - t0
            return elapsed

        t_nova = write_time(NovaFS, drain=False)
        t_inline = write_time(InlineDedupFS, drain=False)
        t_denova = write_time(DeNovaFS, drain=False)
        assert t_inline > 1.5 * t_nova          # inline pays T_f inline
        assert t_denova < 1.02 * t_nova + 5_000  # offline: <1% foreground

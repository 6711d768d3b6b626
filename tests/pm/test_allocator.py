"""Unit tests for the per-CPU extent page allocator."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.pm import AllocError, PageAllocator
from repro.pm.allocator import Extent


class TestBasic:
    def test_alloc_returns_contiguous_run(self):
        alloc = PageAllocator(0, 100)
        start = alloc.alloc(10)
        assert 0 <= start <= 90
        assert alloc.free_pages == 90

    def test_alloc_free_roundtrip_restores_pages(self):
        alloc = PageAllocator(0, 100)
        s = alloc.alloc(25)
        alloc.free(s, 25)
        assert alloc.free_pages == 100
        assert alloc.largest_extent() == 100  # merged back

    def test_exhaustion_raises(self):
        alloc = PageAllocator(0, 10)
        alloc.alloc(10)
        with pytest.raises(AllocError):
            alloc.alloc(1)

    def test_fragmentation_blocks_large_contig(self):
        alloc = PageAllocator(0, 10)
        runs = [alloc.alloc(2) for _ in range(5)]
        alloc.free(runs[1], 2)
        alloc.free(runs[3], 2)
        assert alloc.free_pages == 4
        with pytest.raises(AllocError):
            alloc.alloc(4)  # free pages exist but not contiguous
        assert alloc.alloc(2) in (runs[1], runs[3])

    def test_bad_args(self):
        with pytest.raises(ValueError):
            PageAllocator(5, 5)
        with pytest.raises(ValueError):
            PageAllocator(0, 10, cpus=0)
        alloc = PageAllocator(0, 10)
        with pytest.raises(ValueError):
            alloc.alloc(0)
        with pytest.raises(ValueError):
            alloc.free(0, 0)
        with pytest.raises(ValueError):
            alloc.free(8, 5)  # beyond range


class TestDoubleFree:
    def test_double_free_detected(self):
        alloc = PageAllocator(0, 100)
        s = alloc.alloc(5)
        alloc.free(s, 5)
        with pytest.raises(ValueError, match="double free"):
            alloc.free(s, 5)

    def test_overlapping_free_detected(self):
        alloc = PageAllocator(0, 100)
        s = alloc.alloc(10)
        alloc.free(s, 5)
        with pytest.raises(ValueError, match="double free"):
            alloc.free(s + 3, 4)


class TestPerCpu:
    def test_pages_split_across_cpus(self):
        alloc = PageAllocator(0, 100, cpus=4)
        assert alloc.free_pages == 100
        for cpu in range(4):
            assert alloc.free_pages_on(cpu) == 25

    def test_local_allocation_preferred(self):
        alloc = PageAllocator(0, 100, cpus=4)
        s = alloc.alloc(5, cpu=2)
        assert 50 <= s < 75  # CPU 2's share
        assert alloc.steals == 0

    def test_steal_when_local_exhausted(self):
        alloc = PageAllocator(0, 100, cpus=4)
        alloc.alloc(25, cpu=0)
        s = alloc.alloc(10, cpu=0)  # must steal
        assert alloc.steals == 1
        assert s >= 25

    def test_cpu_wraps_modulo(self):
        alloc = PageAllocator(0, 100, cpus=4)
        s = alloc.alloc(1, cpu=6)  # 6 % 4 == 2
        assert 50 <= s < 75

    def test_uneven_split_loses_no_pages(self):
        alloc = PageAllocator(0, 103, cpus=4)
        assert alloc.free_pages == 103


class TestIsFree:
    def test_is_free_tracks_allocation(self):
        alloc = PageAllocator(0, 20)
        s = alloc.alloc(5)
        for p in range(s, s + 5):
            assert not alloc.is_free(p)
        alloc.free(s, 5)
        assert all(alloc.is_free(p) for p in range(s, s + 5))


class TestBitmapRecovery:
    def test_from_bitmap_reconstructs_free_runs(self):
        in_use = [False] * 20
        for p in (3, 4, 5, 10, 15):
            in_use[p] = True
        alloc = PageAllocator.from_bitmap(0, 20, in_use, cpus=2)
        assert alloc.free_pages == 15
        for p in (3, 4, 5, 10, 15):
            assert not alloc.is_free(p)
        for p in (0, 6, 11, 16, 19):
            assert alloc.is_free(p)

    def test_from_bitmap_all_used(self):
        alloc = PageAllocator.from_bitmap(0, 5, [True] * 5)
        assert alloc.free_pages == 0

    def test_from_bitmap_respects_lo(self):
        in_use = [True] * 4 + [False] * 6
        alloc = PageAllocator.from_bitmap(4, 10, in_use)
        assert alloc.free_pages == 6
        s = alloc.alloc(6)
        assert s == 4


def old_from_bitmap_lists(lo, hi, in_use, cpus):
    """The per-page loop ``from_bitmap`` replaced (equivalence oracle)."""
    lists = [[] for _ in range(cpus)]
    run_start = None
    runs = []
    for page in range(lo, hi):
        if not in_use[page]:
            if run_start is None:
                run_start = page
        elif run_start is not None:
            runs.append(Extent(run_start, page - run_start))
            run_start = None
    if run_start is not None:
        runs.append(Extent(run_start, hi - run_start))
    for i, ext in enumerate(runs):
        lists[i % cpus].append(ext)
    for lst in lists:
        lst.sort(key=lambda e: e.start)
    return lists


class TestFromBitmapEquivalence:
    """The vectorized run finder builds the per-page loop's free lists."""

    @settings(max_examples=300, deadline=None)
    @given(bits=st.lists(st.booleans(), min_size=1, max_size=80),
           lo_frac=st.floats(0, 1), short=st.integers(0, 3),
           cpus=st.integers(1, 4), as_numpy=st.booleans())
    @example(bits=[False] * 40, lo_frac=0.0, short=0, cpus=3, as_numpy=True)
    @example(bits=[True] * 40, lo_frac=0.0, short=0, cpus=2, as_numpy=False)
    @example(bits=[True] * 9 + [False] * 31, lo_frac=0.5, short=0, cpus=4,
             as_numpy=True)
    @example(bits=[False, True] * 20, lo_frac=0.1, short=1, cpus=1,
             as_numpy=False)
    def test_matches_per_page_loop(self, bits, lo_frac, short, cpus,
                                   as_numpy):
        hi = max(len(bits) - short, 1)   # the bitmap may extend past hi
        lo = min(int(lo_frac * hi), hi - 1)
        in_use = np.array(bits, dtype=bool) if as_numpy else list(bits)
        alloc = PageAllocator.from_bitmap(lo, hi, in_use, cpus=cpus)
        assert alloc.free_extents() == old_from_bitmap_lists(
            lo, hi, in_use, cpus)
        assert alloc.free_pages == hi - lo - sum(bits[lo:hi])
        assert all(type(e.start) is int and type(e.count) is int
                   for lst in alloc.free_extents() for e in lst)


class TestStressInvariant:
    def test_random_alloc_free_never_loses_pages(self):
        import random

        rng = random.Random(42)
        alloc = PageAllocator(0, 500, cpus=3)
        live: list[tuple[int, int]] = []
        for _ in range(400):
            if live and (rng.random() < 0.45 or alloc.free_pages < 20):
                start, count = live.pop(rng.randrange(len(live)))
                alloc.free(start, count, cpu=rng.randrange(3))
            else:
                count = rng.randint(1, 8)
                try:
                    start = alloc.alloc(count, cpu=rng.randrange(3))
                except AllocError:
                    continue
                live.append((start, count))
            held = sum(c for _, c in live)
            assert alloc.free_pages + held == 500
        # No two live extents overlap.
        spans = sorted(live)
        for (s1, c1), (s2, _c2) in zip(spans, spans[1:]):
            assert s1 + c1 <= s2

"""Golden equivalence of every write and log-append path, per variant.

One fixed op script runs on each :class:`~repro.core.Variant`: aligned
and unaligned overwrites (head/tail merge), intra-write duplicate pages,
a write past EOF, same- and cross-directory rename, reflink of a dense
and a fully sparse file, a backup send/recv round trip with a relocate
pass on the receiver, and a daemon drain on the offline variants.  The
sha256 of the device bytes and the charged simulated ns after the
script are pinned: any change to the bytes written, to their persist
order or to a single charged cost shows up here.

The ``NoSpace`` cases pin a failed unaligned write on a full device for
the direct path (NOVA, DeNova-Delayed) and the strong inline path: a
handled ENOSPC must leave the same bytes and charge the same work.
The adaptive inline variant has no pinned ``NoSpace`` case: its rollback
also undoes DRAM metadata, which tests/dedup/test_inline.py covers.
"""

import hashlib
import io

import pytest

from repro.backup import receive_backup, send_backup
from repro.core import Config, Variant, make_fs
from repro.failure import check_fs_invariants
from repro.nova import PAGE_SIZE
from repro.nova.fs import NoSpace


def page(tag: int) -> bytes:
    """A deterministic, incompressible page (independent of numpy)."""
    seed = hashlib.sha256(f"page-{tag}".encode()).digest()
    return seed * (PAGE_SIZE // len(seed))


def new_fs(variant: Variant, pages: int = 1024):
    fs, _dd = make_fs(variant, Config(device_pages=pages, max_inodes=64,
                                      cpus=2))
    return fs


def device_digest(fs) -> str:
    return hashlib.sha256(fs.dev.read_silent(0, fs.dev.size)).hexdigest()


def drain(fs) -> None:
    if hasattr(fs, "daemon"):
        fs.daemon.drain()


def run_script(variant: Variant) -> list[tuple]:
    """Run the op script; ``(label, digest, charged ns, fs)`` per device."""
    fs = new_fs(variant)
    fs.mkdir("/d")
    fs.mkdir("/e")
    a = fs.create("/d/a")
    # Intra-write duplicates: page 1 twice in one write.
    fs.write(a, 0, page(1) + page(2) + page(1) + page(3))
    # Unaligned overwrite: head and tail merge across three pages.
    fs.write(a, 100, bytes([0x5A]) * (2 * PAGE_SIZE))
    # Aligned overwrite whose pages duplicate each other and page 2.
    fs.write(a, PAGE_SIZE, page(2) + page(2))
    # Past EOF: a hole, then an unaligned tail-less write.
    fs.write(a, 10 * PAGE_SIZE + 7, b"tail" * 300)
    b = fs.create("/d/b")
    fs.write(b, 0, page(2) + page(4) + page(1))
    fs.write(b, PAGE_SIZE - 10, page(5)[:20])
    fs.rename("/d/b", "/d/b2")          # same directory: one commit
    fs.rename("/d/b2", "/e/b")          # cross directory: journaled
    if variant.is_offline:
        drain(fs)
    out = [("script", fs)]
    if variant.has_dedup:
        sparse = fs.create("/d/sparse")
        fs.truncate(sparse, 3 * PAGE_SIZE)
        fs.reflink("/d/a", "/e/a_copy")
        fs.reflink("/d/sparse", "/e/sparse_copy")
        fs.write(fs.lookup("/d/a"), 0, page(6))   # CoW away from the copy
        fs.snapshot("s1")
        buf = io.BytesIO()
        send_backup(fs, "s1", buf)
        buf.seek(0)
        dst = new_fs(variant)
        dst.write(dst.create("/pre"), 0, page(2) + page(7))
        drain(dst)
        receive_backup(dst, buf)
        dst.relocate()
        drain(dst)
        drain(fs)
        out.append(("recv", dst))
    return [(label, device_digest(f), f.clock.charged_ns, f)
            for label, f in out]


def run_nospace(variant: Variant):
    fs = new_fs(variant, pages=160)
    a = fs.create("/a")
    fs.write(a, 0, page(1) + page(2) + page(3))
    big = b"".join(page(100 + i) for i in range(200))
    with pytest.raises(NoSpace):
        fs.write(a, 123, big)  # unaligned: head and tail merge
    fs.write(a, PAGE_SIZE + 5, page(9)[:50])  # still writable afterwards
    return device_digest(fs), fs.clock.charged_ns, fs


#: variant -> [(label, sha256 of device bytes, charged ns)], captured on
#: the code before the write pipeline was unified.
GOLDEN = {
    "nova": [
        ("script",
         "b70b18fcf922faf2af55a444d940951fd69297d4163f80130a909c29fa8815b2",
         297611.4999999986),
    ],
    "denova-inline": [
        ("script",
         "c67c020cbd582fb04a726b0e786f85345e4ff13319ce5b33273968748820bef6",
         596090.706060603),
        ("recv",
         "d4f430833b1b5d82cde867b3158b1b2f0181a72f2c3f56f0f568ffcd51116a98",
         629947.9303030266),
    ],
    "denova-inline-adaptive": [
        ("script",
         "b70de53136612a02f614be728288808d32d98113ab4c6bdf36a6bc2b71f288d4",
         566511.5181818127),
        ("recv",
         "7253832010c914f46a1b6757d91cf9cd700ce61ab274757ee37243f42091112c",
         443520.24545453937),
    ],
    "denova-immediate": [
        ("script",
         "dcf07819f698010a4b2ae28b2ff9c062f7f218c1fb718c42936ccf86b466907f",
         519913.8333333286),
        ("recv",
         "a208383efda956d70fd2f57fe77e91b6aca8e4947c250eb7fd0dd4f17d085145",
         470109.26969696383),
    ],
    "denova-delayed": [
        ("script",
         "dcf07819f698010a4b2ae28b2ff9c062f7f218c1fb718c42936ccf86b466907f",
         519913.8333333286),
        ("recv",
         "a208383efda956d70fd2f57fe77e91b6aca8e4947c250eb7fd0dd4f17d085145",
         470109.26969696383),
    ],
    "denova-hybrid": [
        ("script",
         "1d5a7b8ed3c86ae7fe8aa1d13ec7166aa891b4839bd9bfe829b94fcfd958da7f",
         525843.324242419),
        ("recv",
         "5526feec3348c025d578a3bb95ea16f7f4c01672dc2255f340b0e45fc9f92312",
         444581.6999999942),
    ],
}

GOLDEN_NOSPACE = {
    "nova": (
        "0d3813e4684c80fb8da51d049296401a0850781e09a3ffcebf84a37583964cd8",
        264336.68181818107),
    "denova-delayed": (
        "ee3d5c3845482ed1c6b34eff4ef394de2a9ab609bc3cbe31939594012cef1dd1",
        264624.0151515144),
    "denova-inline": (
        "5b9513f98e36c3c8c0916c30158074434c5261409e8d7bef3059ee2ace527793",
        1413160.3666666679),
}


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_script_matches_golden(variant):
    got = run_script(variant)
    for _label, _digest, _ns, fs in got:
        # The adaptive variant keeps its counts in a DRAM table, so the
        # FACT-based invariant check does not apply to it.
        if variant is not Variant.INLINE_ADAPTIVE:
            check_fs_invariants(fs)
    assert [(lbl, d, ns) for lbl, d, ns, _fs in got] == GOLDEN[variant.value]


@pytest.mark.parametrize("variant", [Variant.BASELINE, Variant.DELAYED,
                                     Variant.INLINE], ids=lambda v: v.value)
def test_nospace_write_matches_golden(variant):
    digest, ns, fs = run_nospace(variant)
    check_fs_invariants(fs)
    assert (digest, ns) == GOLDEN_NOSPACE[variant.value]

"""Unit tests for the crash-point injector itself."""

import pytest

from repro.failure.injector import (
    count_persist_events,
    run_with_crash,
    sweep_crash_points,
)
from repro.nova import NovaFS
from repro.nova.layout import PAGE_SIZE
from repro.pm import DRAM, PMDevice, SimClock


def build():
    dev = PMDevice(512 * PAGE_SIZE, model=DRAM, clock=SimClock())
    fs = NovaFS.mkfs(dev, max_inodes=32)
    dev._fs = fs

    def scenario():
        ino = fs.create("/a")
        fs.write(ino, 0, b"x" * PAGE_SIZE)
        fs.create("/b")

    return dev, scenario


def test_count_persist_events_positive_and_stable():
    n1 = count_persist_events(build)
    n2 = count_persist_events(build)
    assert n1 == n2 > 0


def test_hooks_removed_after_count():
    dev, scenario = build()
    # count_persist_events runs its own build(); on this instance, attach
    # and verify manually that a completed run leaves no hook behind.
    count_persist_events(lambda: (dev, scenario))
    assert dev.hooks.on_persist is None


def test_run_with_crash_trips_at_point():
    out = run_with_crash(build, point=3, phase="pre")
    assert out.crashed
    assert out.point == 3
    assert out.phase == "pre"


def test_point_beyond_scenario_does_not_crash():
    total = count_persist_events(build)
    out = run_with_crash(build, point=total + 100)
    assert not out.crashed


def test_bad_phase_rejected():
    with pytest.raises(ValueError):
        run_with_crash(build, point=1, phase="during")


def test_point_zero_rejected():
    with pytest.raises(ValueError):
        run_with_crash(build, point=0)


def test_pre_phase_discards_the_fenced_lines():
    """A pre-commit crash at event #1 must lose that fence's lines: the
    recovered device is all-volatile-dropped, so a mount sees less state
    than a post-commit crash at the same point."""
    pre = run_with_crash(build, point=1, phase="pre")
    post = run_with_crash(build, point=1, phase="post")
    assert pre.crashed and post.crashed
    # Durable images differ: post persisted one more event than pre.
    assert pre.dev.read_silent(0, pre.dev.size) != post.dev.read_silent(0, post.dev.size)


def test_torn_mode_seeded_deterministically():
    a = run_with_crash(build, point=5, phase="pre", mode="torn", seed=9)
    b = run_with_crash(build, point=5, phase="pre", mode="torn", seed=9)
    assert a.dev.read_silent(0, a.dev.size) == b.dev.read_silent(0, b.dev.size)


def test_sweep_counts_points_and_respects_stride():
    total = count_persist_events(build)
    seen = []

    def check(dev, point, phase):
        seen.append((point, phase))
        NovaFS.mount(dev)

    tested = sweep_crash_points(build, check, phases=("pre",), stride=7)
    assert tested == len(seen) == len(range(1, total + 1, 7))


def test_sweep_max_points_caps():
    seen = []

    def check(dev, point, phase):
        seen.append(point)

    sweep_crash_points(build, check, phases=("pre",), max_points=4)
    assert max(seen) <= 4


def test_sweep_wraps_check_failure_with_context():
    def check(dev, point, phase):
        raise RuntimeError("boom")

    with pytest.raises(AssertionError, match=r"event #1 \(pre-commit"):
        sweep_crash_points(build, check, phases=("pre",))


def test_recovery_mount_works_at_every_point():
    """End-to-end: NOVA must mount after a crash at any persist event."""
    def check(dev, point, phase):
        fs = NovaFS.mount(dev)
        assert fs.last_recovery is not None

    tested = sweep_crash_points(build, check, stride=5)
    assert tested > 0


def test_sweep_with_given_total_does_not_recount():
    total = count_persist_events(build)
    builds = [0]

    def counting_build():
        builds[0] += 1
        return build()

    tested = sweep_crash_points(counting_build, lambda *a: None,
                                phases=("pre",), stride=7, total=total)
    assert tested == builds[0] == len(range(1, total + 1, 7))


def test_driver_case_counts_persist_events_once(monkeypatch):
    """One differential case builds the filesystem once for the clean
    pass, once to count persist events, then once per replayed crash
    point: the count is shared by every (phase, mode)."""
    import repro.failure.injector as injector
    import repro.fuzz.diff as fuzz_diff
    from repro.fuzz import FuzzConfig, generate_sequence, run_case

    builds, replays = [0], [0]
    make_fs, run = fuzz_diff.make_fs, injector.run_with_crash

    def counting_make_fs(cfg):
        builds[0] += 1
        return make_fs(cfg)

    def counting_run(*args, **kwargs):
        replays[0] += 1
        return run(*args, **kwargs)

    monkeypatch.setattr(fuzz_diff, "make_fs", counting_make_fs)
    monkeypatch.setattr(injector, "run_with_crash", counting_run)
    cfg = FuzzConfig(seed=1, seq_ops=12, budget=8)
    res = run_case(generate_sequence(1, 0, 12), cfg)
    assert res.ok, res.violations
    assert replays[0] == res.crash_points == 8
    assert builds[0] == 1 + 1 + replays[0]

"""Crash-point enumeration over persistence events.

A *crash point* is one persistence event (an ``sfence`` that commits at
least one cache line) in one of two phases:

* ``pre``  — power fails just before the fence completes: the lines it
  would have committed are lost (plus everything else volatile);
* ``post`` — power fails just after: those lines are durable, everything
  still volatile at that instant is lost.

``mode="torn"`` additionally lets every volatile 8-byte word
independently persist or vanish, seeded for reproducibility.

The caller provides ``build()`` returning ``(dev, scenario)`` where
``scenario()`` performs the workload on a freshly-made filesystem; the
sweep replays it once per crash point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from repro.pm.device import CrashRequested, PMDevice

__all__ = ["count_persist_events", "run_with_crash", "sweep_crash_points",
           "CrashOutcome"]


@dataclass
class CrashOutcome:
    """What happened when a scenario was crashed at one point."""

    point: int
    phase: str
    crashed: bool          # False: scenario finished before reaching point
    dev: PMDevice


def count_persist_events(build: Callable[[], tuple[PMDevice, Callable]]
                         ) -> int:
    """Run the scenario to completion, counting persistence events."""
    dev, scenario = build()
    counter = [0]

    def on_persist(_n: int, _d: PMDevice) -> None:
        counter[0] += 1

    dev.hooks.on_persist = on_persist
    scenario()
    dev.hooks.on_persist = None
    return counter[0]


def run_with_crash(build: Callable[[], tuple[PMDevice, Callable]],
                   point: int, phase: str = "pre", mode: str = "discard",
                   seed: int = 0) -> CrashOutcome:
    """Replay the scenario, crashing at the ``point``-th persistence event.

    Returns the crashed device (already reverted to its durable image and
    reopened) ready for a recovery mount.  If the scenario finishes before
    reaching ``point``, ``crashed`` is False and the device is untouched.
    """
    if phase not in ("pre", "post"):
        raise ValueError(f"phase must be 'pre' or 'post', not {phase!r}")
    if point < 1:
        raise ValueError("points are numbered from 1")
    dev, scenario = build()
    counter = [0]

    def trip(_n: int, d: PMDevice) -> None:
        counter[0] += 1
        if counter[0] == point:
            raise CrashRequested(f"{phase}-persist", point)

    if phase == "pre":
        dev.hooks.on_persist = trip
    else:
        dev.hooks.on_persist_done = trip

    crashed = False
    try:
        scenario()
    except CrashRequested:
        crashed = True
    finally:
        dev.hooks.on_persist = None
        dev.hooks.on_persist_done = None
    if crashed:
        rng = np.random.default_rng(seed + point) if mode == "torn" else None
        dev.crash(mode=mode, rng=rng)
        dev.recover_view()
    return CrashOutcome(point=point, phase=phase, crashed=crashed, dev=dev)


def sweep_crash_points(
    build: Callable[[], tuple[PMDevice, Callable]],
    check: Callable[[PMDevice, int, str], None],
    phases: Iterable[str] = ("pre", "post"),
    mode: str = "discard",
    max_points: Optional[int] = None,
    stride: int = 1,
    seed: int = 0,
    total: Optional[int] = None,
) -> int:
    """Crash at every persistence event and verify recovery each time.

    ``check(dev, point, phase)`` must raise (e.g. ``AssertionError``) on
    any consistency violation; it receives the recovered device.
    ``stride`` subsamples points for long scenarios; ``max_points`` caps
    the sweep.  ``total`` is the scenario's persist-event count when the
    caller already has it from :func:`count_persist_events`; otherwise
    the scenario runs once more to count.  Returns the number of crash
    points actually exercised.
    """
    if total is None:
        total = count_persist_events(build)
    if max_points is not None:
        total = min(total, max_points)
    tested = 0
    for phase in phases:
        for point in range(1, total + 1, stride):
            outcome = run_with_crash(build, point, phase=phase, mode=mode,
                                     seed=seed)
            if not outcome.crashed:
                continue
            try:
                check(outcome.dev, point, phase)
            except Exception as exc:
                raise AssertionError(
                    f"recovery check failed after crash at persistence "
                    f"event #{point} ({phase}-commit, mode={mode}): {exc}"
                ) from exc
            tested += 1
    return tested

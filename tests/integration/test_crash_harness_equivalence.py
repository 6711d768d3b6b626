"""Golden equivalence of the three crash-sweep harnesses.

For one fixed config each, the differential case (``run_case``), the
backup-ingest case (``run_backup_case``) and the replication-pipeline
case (``run_repl_case``) must report the same ``(ops_applied,
ops_skipped, crash_points, records, violations)`` and must replay the
scenario at exactly the same ``(point, phase, mode)`` crash points, in
the same order.  Any change to the sweep plan (stride, budget split,
phase/mode order) or to a harness's verdict shows up here.

The mutation cases pin verdicts on a failing sweep: the reintroduced
``torn_inode_record`` bug is caught by both ingest pipelines, and
``rfc_undercount`` by neither at this budget.  Their ``crash_points``
are not pinned: on a failing sweep that count depends on whether the
failing point is counted, not on which points were visited.
"""

import pytest

import repro.failure.injector as injector
from repro.failure import mutation
from repro.fuzz import FuzzConfig, run_backup_case, run_case, run_repl_case
from repro.fuzz.gen import generate_tenant_sequence


@pytest.fixture
def crash_calls(monkeypatch):
    """Every ``(point, phase, mode)`` the sweep replays, in order."""
    calls = []
    orig = injector.run_with_crash

    def recording(build, point, phase="pre", mode="discard", seed=0):
        calls.append((point, phase, mode))
        return orig(build, point, phase=phase, mode=mode, seed=seed)

    monkeypatch.setattr(injector, "run_with_crash", recording)
    return calls


def summary(res) -> tuple:
    return (res.ops_applied, getattr(res, "ops_skipped", 0),
            res.crash_points, getattr(res, "records", 0),
            [str(v) for v in res.violations])


def plan(points, phases=("pre", "post"), modes=("discard", "torn")):
    return [(p, ph, m) for m in modes for ph in phases for p in points]


def differential_case():
    cfg = FuzzConfig(seq_ops=24, budget=8, dedup_mode="hybrid",
                     staging=True, tenants=2)
    ops = generate_tenant_sequence(cfg.seed, 0, cfg.seq_ops, tenants=2)
    return run_case(ops, cfg)


GOLDEN = {
    "differential": (differential_case, (27, 5, 8, 0, []), (1, 75)),
    "backup": (lambda: run_backup_case(FuzzConfig(seed=2, seq_ops=24,
                                                  budget=8)),
               (22, 0, 8, 8, []), (1, 83)),
    "repl": (lambda: run_repl_case(FuzzConfig(seed=3, seq_ops=24, budget=8,
                                              pages=4096)),
             (19, 0, 12, 1, []), (1, 91, 181)),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_harness_result_and_crash_points_pinned(name, crash_calls):
    case, want, points = GOLDEN[name]
    assert summary(case()) == want
    assert crash_calls == plan(points)


MUTATION_CFGS = {
    "backup": (run_backup_case, FuzzConfig(seed=0, seq_ops=24, budget=64)),
    "repl": (run_repl_case, FuzzConfig(seed=0, seq_ops=24, budget=64,
                                       pages=4096)),
}

TORN_VERDICTS = {
    "backup": "[sweep] invariant : recovery check failed after crash at "
              "persistence event #9 (pre-commit, mode=torn): itable[6]: "
              "valid record carries ino 0 (half-written create leaks the "
              "slot)",
    "repl": "[sweep] invariant : recovery check failed after crash at "
            "persistence event #106 (pre-commit, mode=torn): itable[14]: "
            "valid record carries ino 0 (half-written create leaks the "
            "slot)",
}


@pytest.mark.parametrize("name", sorted(MUTATION_CFGS))
def test_torn_inode_record_caught_by_ingest_sweeps(name):
    run, cfg = MUTATION_CFGS[name]
    with mutation.mutated("torn_inode_record"):
        res = run(cfg)
    assert [str(v) for v in res.violations] == [TORN_VERDICTS[name]]


@pytest.mark.parametrize("name", sorted(MUTATION_CFGS))
def test_rfc_undercount_not_reached_by_ingest_sweeps(name):
    run, cfg = MUTATION_CFGS[name]
    with mutation.mutated("rfc_undercount"):
        res = run(cfg)
    assert res.violations == []
    assert res.crash_points == 68

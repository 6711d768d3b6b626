"""Crash sweeps for the two-image ingest pipelines: backup ``recv``, and
``recv`` + reverse-dedup ``relocate`` + ``restore`` (replication).

The main differential fuzzer can't host these pipelines: its namespace
oracle (:class:`repro.fuzz.model.ModelFS`) models one image, while an
ingest involves two.  (It does host ``relocate``/``restore`` ops on one
image — enable them with :func:`repl_gen_config`; they are namespace
no-ops in the model, so the oracle stays exact while the read path
checks that moving pages never changes observable bytes.)  So each
pipeline runs as one case on the shared sweep driver,
:func:`repro.fuzz.diff.sweep_case`:

1. a seeded source tree is built by applying a generated op sequence to
   a real filesystem *and* the model oracle in lockstep (the usual
   :func:`repro.fuzz.diff.apply_op` protocol); a snapshot is taken at
   each split point (backup: the end; replication: the midpoint and the
   end) and the chain is sent as one full stream plus incrementals;
2. a target — prefilled with the first half of the same sequence so the
   ingest exercises the RFC-bump dup path, not just novel copies —
   receives the streams (replication: then relocates the latest
   snapshot and digest-restores it), crashed at sampled persistence
   events in both phases and both crash modes;
3. after each recovery mount (torn-stage rollback + intent replay) the
   target must be fsck-clean with no ``/.backup_stage`` residue and
   only chain records under ``/.repl`` (never a relocation intent), its
   own tree byte-identical to the pre-ingest baseline, and each
   snapshot either fully absent or byte-identical to the model
   namespace under ``/.snapshots/<name>`` — nothing in between, and in
   receive order.  With relocation, every *present* snapshot must also
   restore byte-identically to a never-relocated control, even before
   the interrupted relocation pass is finished;
4. every crash point is resumable: re-receive whatever is missing, run
   relocation to ``done``, and demand all of step 3 again with every
   snapshot present.
"""

from __future__ import annotations

import io

from repro.backup import receive_backup, send_backup
from repro.backup.recv import STAGE_DIR
from repro.dedup.reflink import SNAPSHOT_DIR, snapshot
from repro.failure.invariants import check_fs_invariants
from repro.fuzz.diff import (
    CaseResult,
    FuzzConfig,
    _fs_cls,
    apply_op,
    flags_converged,
    fs_namespace,
    make_fs,
    sweep_case,
)
from repro.fuzz.gen import GenConfig, generate_sequence
from repro.fuzz.model import ModelFS
from repro.repl import INTENT_PATH, relocate_latest, restore_snapshot
from repro.repl.chain import REPL_DIR

__all__ = ["backup_gen_config", "repl_gen_config", "run_backup_case",
           "run_ingest_case", "run_repl_case"]


def backup_gen_config(alpha: float = 0.55) -> GenConfig:
    """Generator knobs for building an ingest *source* tree.

    Snapshot/crash/remount ops are disabled: the sweep takes its own
    snapshots, and the source build must run straight through so the
    model stays an exact oracle for the snapshotted tree.
    """
    cfg = GenConfig(alpha=alpha)
    cfg.weights = dict(cfg.weights)
    for kind in ("snapshot", "snap_delete", "crash", "remount"):
        cfg.weights[kind] = 0
    return cfg


def repl_gen_config(alpha: float = 0.55) -> GenConfig:
    """Generator knobs for repl sequences in the *main* differential
    fuzzer: snapshots plus ``relocate``/``restore`` ops enabled, whole-
    device lifecycle ops left to the crash sweep.
    """
    cfg = GenConfig(alpha=alpha)
    cfg.weights = dict(cfg.weights)
    for kind in ("crash", "remount", "snap_delete"):
        cfg.weights[kind] = 0
    cfg.weights["snapshot"] = max(2, cfg.weights.get("snapshot", 0))
    cfg.weights["relocate"] = 4
    cfg.weights["restore"] = 2
    return cfg


def run_backup_case(cfg=None, name: str = "fz") -> CaseResult:
    """Sweep crashes through one backup ingest; see the module docstring."""
    return run_ingest_case(cfg, (name,), relocate=False)


def run_repl_case(cfg=None, names=("fz1", "fz2")) -> CaseResult:
    """Sweep crashes through recv + relocate; see the module docstring."""
    return run_ingest_case(cfg, tuple(names), relocate=True)


def _under(ns: dict, root: str) -> dict:
    return {p: d for p, d in ns.items()
            if p == root or p.startswith(root + "/")}


def run_ingest_case(cfg, names: tuple, relocate: bool) -> CaseResult:
    """Build, send and crash-sweep the ingest of the ``names`` chain."""
    cfg = cfg or FuzzConfig()
    result = CaseResult()
    ops = generate_sequence(cfg.seed, stream=0, nops=cfg.seq_ops,
                            cfg=backup_gen_config(cfg.alpha))
    prefill = ops[:len(ops) // 2]

    # ---- source: lockstep with the model, a snapshot per split point --
    src, model = make_fs(cfg), ModelFS()
    streams, expected = [], {}
    status = "ok"
    for i, name in enumerate(names):
        for op in ops[len(ops) * i // len(names):
                      len(ops) * (i + 1) // len(names)]:
            if status == "stop":
                break
            src, status = apply_op(src, model, op)
            if status == "ok":
                result.ops_applied += 1
        src.daemon.drain()
        snapshot(src, name)
        buf = io.BytesIO()
        report = send_backup(src, name, buf, base=names[i - 1] if i else None)
        streams.append(buf.getvalue())
        result.records += report["records_total"]
        root = f"{SNAPSHOT_DIR}/{name}"
        expected[name] = {root: ("dir",)}
        for path, desc in model.namespace().items():
            expected[name][root + path] = desc

    def prefilled():
        fs, m = make_fs(cfg), ModelFS()
        for op in prefill:
            fs, status = apply_op(fs, m, op)
            if status == "stop":
                break
        fs.daemon.drain()
        return fs

    # The target's own tree must ride through every crash untouched
    # (builds are deterministic); with relocation, the same target
    # ingests the chain without relocating: the restore oracle.
    control = prefilled()
    baseline = fs_namespace(control)
    want = {}
    if relocate:
        for data in streams:
            receive_backup(control, io.BytesIO(data))
        want = {n: restore_snapshot(control, n)["manifest"] for n in names}

    def build():
        tfs = prefilled()
        state = {"fs": tfs}
        tfs.dev._fuzz_state = state

        def scenario():
            fs = state["fs"]
            for data in streams:
                receive_backup(fs, io.BytesIO(data))
            if relocate:
                out = relocate_latest(fs)
                assert out["done"]
                restore_snapshot(fs, names[-1])
            fs.unmount()

        return tfs.dev, scenario

    allowed_repl = {REPL_DIR} | {f"{REPL_DIR}/{n}.chain" for n in names}

    def committed(fs) -> list:
        """Check step 3 of the module docstring; returns the names of
        the snapshots present."""
        ns = fs_namespace(fs)
        residue = sorted(_under(ns, STAGE_DIR))
        if residue:
            raise AssertionError(
                f"staging residue after recovery: {residue[:4]}")
        snap, repl = _under(ns, SNAPSHOT_DIR), _under(ns, REPL_DIR)
        # /.repl chain records are advisory metadata written after the
        # commit rename: present or absent, never checked as own tree.
        if INTENT_PATH in repl:
            raise AssertionError(
                "relocation intent journal survived recovery replay")
        stray = sorted(set(repl) - allowed_repl)
        if stray:
            raise AssertionError(
                f"unexpected /.repl residue after crash: {stray[:4]}")
        rest = {p: d for p, d in ns.items() if p not in snap and p not in repl}
        if rest != baseline:
            changed = sorted(set(rest) ^ set(baseline))[:4]
            raise AssertionError(
                f"target's own tree changed across crash: {changed}")
        present = []
        for n in names:
            mine = _under(snap, f"{SNAPSHOT_DIR}/{n}")
            if not mine:
                continue
            if mine != expected[n]:
                missing = sorted(set(expected[n]) - set(mine))[:4]
                extra = sorted(set(mine) - set(expected[n]))[:4]
                raise AssertionError(
                    f"snapshot {n} diverges from model: "
                    f"missing={missing} extra={extra}")
            present.append(n)
        if present != list(names[:len(present)]):
            raise AssertionError(
                f"snapshots {present} committed out of receive order")
        leftovers = sorted(
            set(snap) - {SNAPSHOT_DIR}
            - {p for n in present for p in expected[n]})
        if leftovers:
            raise AssertionError(
                f"partial snapshot visible after crash: {leftovers[:4]}")
        for n in present:
            if relocate and restore_snapshot(fs, n)["manifest"] != want[n]:
                raise AssertionError(
                    f"restore of {n} diverges from never-relocated "
                    f"control after crash")
        return present

    def check(dev, point, phase):
        rec = _fs_cls(cfg).mount(dev, cpus=cfg.cpus)
        check_fs_invariants(rec)
        present = committed(rec)
        for n, data in zip(names, streams):
            if n not in present:
                if not receive_backup(rec, io.BytesIO(data))["committed"]:
                    raise AssertionError(
                        f"post-crash re-receive of {n} did not commit")
        while relocate and not relocate_latest(rec)["done"]:
            pass
        if committed(rec) != list(names):
            raise AssertionError("post-crash re-receive did not converge")
        rec.daemon.drain()
        check_fs_invariants(rec)
        if not flags_converged(rec):
            raise AssertionError(
                "in_process entries survive ingest recovery + drain")

    sweep_case(cfg, build, check, result)
    return result

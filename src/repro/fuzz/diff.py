"""The differential checker: real filesystem vs. model oracle, with and
without injected crashes.

Protocol per operation (``apply_op``): the real filesystem runs first,
then the model.  Four outcomes:

* both succeed — for ``read``, the returned bytes must be identical;
* both reject — the op is *skipped* (the generator emits a small
  fraction of deliberately invalid ops to exercise exactly this);
* one side rejects what the other accepts — :class:`OracleDivergence`.

Resource exhaustion on the real side (``NoSpace``/``AllocError``/
``FactFull``) is not a divergence — the model has no space accounting —
it deterministically *stops* the sequence early instead.

Crash checking replays the sequence under :func:`sweep_case`, the one
crash-sweep driver (the ingest pipelines of :mod:`repro.fuzz.ingest`
use it too), in all four (phase, mode) combinations.  A progress cell
stashed on the device records how many ops committed before the crash;
the recovered state must be *pointwise between* the model states M_k
and M_{k+1}: each path's recovered descriptor equals its descriptor in
one of the two adjacent model states, paths identical in both must
survive, and `check_fs_invariants` plus dedupe-flag convergence must
hold before and after a post-recovery drain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.dedup.denova import DeNovaFS
from repro.dedup.fact import FactFull
from repro.dedup.hybrid import HybridDeNovaFS
from repro.failure.injector import count_persist_events, sweep_crash_points
from repro.failure.invariants import InvariantViolation, check_fs_invariants
from repro.fuzz.gen import apply_to_model, model_after
from repro.fuzz.model import ModelError, ModelFS
from repro.nova.entries import DEDUPE_IN_PROCESS, WriteEntry, decode_entry
from repro.nova.fs import FSError, NoSpace
from repro.nova.inode import ITYPE_DIR, ITYPE_SYMLINK, ROOT_INO
from repro.nova.layout import PAGE_SIZE
from repro.pm.allocator import AllocError
from repro.pm.device import CrashRequested, PMDevice
from repro.pm.latency import DRAM
from repro.pm.clock import SimClock
from repro.workloads.trace import TraceOp, apply_trace_op

__all__ = ["FuzzConfig", "Violation", "CaseResult", "OracleDivergence",
           "apply_op", "run_case", "fs_namespace", "flags_converged",
           "full_equivalence_check", "prefix_equivalence_check", "make_fs",
           "sweep_case"]

_RESOURCE_ERRORS = (NoSpace, AllocError, FactFull)


class OracleDivergence(AssertionError):
    """Real filesystem and model oracle disagree."""


@dataclass
class FuzzConfig:
    """Everything one fuzz campaign (or one case) needs."""

    seed: int = 0
    total_ops: int = 2000        # campaign budget (runner)
    seq_ops: int = 40            # ops per generated sequence
    budget: int = 16             # crash replays per sequence, all combos
    pages: int = 2048            # device size in 4 KB pages
    inodes: int = 192
    cpus: int = 1
    alpha: float = 0.55          # duplicate-page ratio
    phases: tuple = ("pre", "post")
    modes: tuple = ("discard", "torn")
    corpus: Optional[str] = None
    max_failures: int = 3        # stop the campaign after this many
    clients: int = 1             # >1: concurrent-mode sequences (merged
    #                              per-client streams under /c<i> roots)
    tenants: int = 1             # >1: multi-tenant sequences (streams
    #                              under /t/tn<i> roots created via
    #                              tenant_create — covers the tenant
    #                              registry's persistence crash points)
    dedup_mode: str = "delayed"  # "delayed" (classic DeNova) or "hybrid"
    #                              (weak+strong pipeline, adaptive policy)
    staging: bool = False        # absorb small writes + creates through
    #                              the front-tier staging log: every
    #                              record append / destage / watermark
    #                              persist enters the crash sweep


@dataclass
class Violation:
    """One detected consistency violation."""

    kind: str                    # "divergence" | "invariant" | "exception"
    detail: str
    stage: str                   # "clean" | "sweep"
    op_index: Optional[int] = None
    point: Optional[int] = None
    phase: Optional[str] = None
    mode: Optional[str] = None
    #: ``repro.flight/1`` dump captured at detection time (when available).
    flight: Optional[dict] = None

    def __str__(self) -> str:
        where = f"op {self.op_index}" if self.op_index is not None else ""
        if self.point is not None:
            where += (f" crash@{self.point} ({self.phase}-commit, "
                      f"mode={self.mode})")
        return f"[{self.stage}] {self.kind} {where}: {self.detail}"


@dataclass
class CaseResult:
    violations: list = field(default_factory=list)
    ops_applied: int = 0
    ops_skipped: int = 0
    crash_points: int = 0
    records: int = 0             # ingest cases: stream records sent

    @property
    def ok(self) -> bool:
        return not self.violations


def _fs_cls(cfg: FuzzConfig):
    return HybridDeNovaFS if cfg.dedup_mode == "hybrid" else DeNovaFS


def make_fs(cfg: FuzzConfig) -> DeNovaFS:
    dev = PMDevice(cfg.pages * PAGE_SIZE, model=DRAM, clock=SimClock())
    fs = _fs_cls(cfg).mkfs(dev, max_inodes=cfg.inodes, cpus=cfg.cpus)
    if cfg.staging:
        fs.enable_staging()
    return fs


def _settle(fs) -> None:
    """Materialize any weak-only blocks so the RFC lower bound applies.

    The hybrid pipeline legally leaves never-duplicated blocks without a
    FACT entry (weak fingerprint only); ``full_equivalence_check``
    demands an entry per live page image, so hybrid cases settle first.
    A no-op on the classic pipeline.
    """
    if hasattr(fs, "settle_weak"):
        fs.settle_weak()


# ---------------------------------------------------------------- per-op


def apply_op(fs, model: ModelFS, op: TraceOp):
    """Apply one op to both sides; returns ``(fs, status)``.

    ``status`` is ``"ok"``, ``"skipped"`` (both sides rejected) or
    ``"stop"`` (real side ran out of a resource the model doesn't
    track).  Raises :class:`OracleDivergence` on any disagreement.
    """
    real_err: Optional[Exception] = None
    real_data: Optional[bytes] = None
    try:
        if op.op == "read":
            real_data = fs.read(fs.lookup(op.path), op.offset, op.length)
        else:
            fs = apply_trace_op(fs, op, verify=False)
    except CrashRequested:
        raise
    except _RESOURCE_ERRORS:
        return fs, "stop"
    except (FSError, ValueError) as exc:
        real_err = exc

    try:
        model_data = apply_to_model(model, op)
        model_ok = True
    except ModelError as exc:
        model_ok = False
        model_err = exc

    if real_err is None and not model_ok:
        raise OracleDivergence(
            f"{op.op} {op.path!r}: real filesystem accepted an op the "
            f"model rejects ({model_err})")
    if real_err is not None and model_ok:
        raise OracleDivergence(
            f"{op.op} {op.path!r}: real filesystem rejected a valid op "
            f"({type(real_err).__name__}: {real_err})")
    if real_err is not None:
        return fs, "skipped"
    if op.op == "read" and real_data != model_data:
        raise OracleDivergence(
            f"read {op.path!r}@{op.offset}+{op.length}: got "
            f"{len(real_data)} bytes != model {len(model_data)} bytes "
            f"(first divergence at byte "
            f"{_first_diff(real_data, model_data)})")
    return fs, "ok"


def _first_diff(a: bytes, b: bytes) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


# ---------------------------------------------------------------- equivalence


def fs_namespace(fs) -> dict[str, tuple]:
    """Real-filesystem counterpart of :meth:`ModelFS.namespace`."""
    out: dict[str, tuple] = {}

    def walk(prefix: str, ino: int):
        cache = fs.caches[ino]
        for name in sorted(cache.dentries):
            child = cache.dentries[name]
            ccache = fs.caches.get(child)
            path = f"{prefix}/{name}"
            if ccache is None:
                raise InvariantViolation(
                    f"dangling dentry {path!r} -> ino {child}")
            itype = ccache.inode.itype
            if itype == ITYPE_DIR:
                out[path] = ("dir",)
                walk(path, child)
            elif itype == ITYPE_SYMLINK:
                out[path] = ("symlink", ccache.symlink_target)
            else:
                size = ccache.inode.size
                out[path] = ("file", size, fs.read(child, 0, size))

    walk("", ROOT_INO)
    return out


def _hardlink_groups_real(fs) -> dict[int, list[str]]:
    groups: dict[int, list[str]] = {}

    def walk(prefix: str, ino: int):
        cache = fs.caches[ino]
        for name in sorted(cache.dentries):
            child = cache.dentries[name]
            ccache = fs.caches[child]
            path = f"{prefix}/{name}"
            if ccache.inode.itype == ITYPE_DIR:
                walk(path, child)
            elif ccache.inode.itype != ITYPE_SYMLINK:
                groups.setdefault(child, []).append(path)

    walk("", ROOT_INO)
    return groups


def _dir_links_real(fs) -> dict[str, int]:
    """path -> on-PM nlink for every directory (counterpart of
    :meth:`ModelFS.dir_links`)."""
    out: dict[str, int] = {"/": fs.caches[ROOT_INO].inode.links}

    def walk(prefix: str, ino: int):
        cache = fs.caches[ino]
        for name in sorted(cache.dentries):
            child = cache.dentries[name]
            ccache = fs.caches[child]
            if ccache.inode.itype == ITYPE_DIR:
                path = f"{prefix}/{name}"
                out[path] = ccache.inode.links
                walk(path, child)

    walk("", ROOT_INO)
    return out


def flags_converged(fs) -> bool:
    """After a drain no committed write entry may stay ``in_process``."""
    for cache in fs.caches.values():
        for _a, raw in fs.log.iter_slots(cache.inode.log_head,
                                         cache.inode.log_tail, silent=True):
            e = decode_entry(raw)
            if (isinstance(e, WriteEntry)
                    and e.dedupe_flag == DEDUPE_IN_PROCESS):
                return False
    return True


def _diff_namespaces(real: dict, model: dict) -> list[str]:
    diffs = []
    for path in sorted(set(real) | set(model)):
        r, m = real.get(path), model.get(path)
        if r == m:
            continue
        if r is None:
            diffs.append(f"{path}: missing on the real filesystem "
                         f"(model: {_short(m)})")
        elif m is None:
            diffs.append(f"{path}: unexpected on the real filesystem "
                         f"({_short(r)})")
        else:
            diffs.append(f"{path}: real {_short(r)} != model {_short(m)}")
    return diffs


def _short(desc: tuple) -> str:
    if desc[0] == "file":
        return f"file[{desc[1]}B sha={__import__('hashlib').sha1(desc[2]).hexdigest()[:10]}]"
    return repr(desc)


def full_equivalence_check(fs, model: ModelFS) -> None:
    """The clean-path oracle: byte-exact equality plus dedup soundness.

    Run after the sequence finished and the daemon fully drained.
    Raises OracleDivergence / InvariantViolation on any failure.
    """
    check_fs_invariants(fs)

    real_ns = fs_namespace(fs)
    model_ns = model.namespace()
    diffs = _diff_namespaces(real_ns, model_ns)
    if diffs:
        raise OracleDivergence(
            f"namespace/content divergence ({len(diffs)} paths): "
            + "; ".join(diffs[:5]))

    # Hard-link identity: the partition of file paths into inodes must
    # match the model's partition into nodes, with matching link counts.
    real_groups = {frozenset(v): k
                   for k, v in _hardlink_groups_real(fs).items()}
    model_groups = {frozenset(v)
                    for v in model.hardlink_groups().values()}
    if set(real_groups) != model_groups:
        raise OracleDivergence(
            f"hard-link partition mismatch: real {sorted(map(sorted, real_groups))!r} "
            f"!= model {sorted(map(sorted, model_groups))!r}")
    for paths, ino in real_groups.items():
        links = fs.stat(ino).links
        if links != len(paths):
            raise OracleDivergence(
                f"ino {ino}: link count {links} != {len(paths)} paths "
                f"{sorted(paths)!r}")

    # POSIX directory link counts: nlink == 2 + nsubdirs, everywhere.
    real_links = _dir_links_real(fs)
    model_links = model.dir_links()
    if real_links != model_links:
        bad = [f"{p}: real {real_links.get(p)} != model {model_links.get(p)}"
               for p in sorted(set(real_links) | set(model_links))
               if real_links.get(p) != model_links.get(p)]
        raise OracleDivergence(
            f"directory link-count divergence ({len(bad)} dirs): "
            + "; ".join(bad[:5]))

    if not flags_converged(fs):
        raise InvariantViolation(
            "in_process write entries survive a full drain")

    # RFC lower bound: after a full drain every materialized page image
    # has a FACT entry whose RFC covers all live occurrences.  Skipped
    # if the table ever filled (pages then legally stay un-deduplicated).
    if fs.daemon.stats.fact_full_events == 0:
        occ = model.page_occurrences()
        for img, n in occ.items():
            fp = fs.fingerprinter.strong(img)
            res = fs.fact.lookup(fp)
            if res.found is None:
                raise InvariantViolation(
                    f"page image with {n} live occurrences has no FACT "
                    f"entry after a full drain")
            if res.found.refcount < n:
                raise InvariantViolation(
                    f"FACT[{res.found.idx}]: RFC={res.found.refcount} "
                    f"undercounts {n} model-tracked occurrences")


def prefix_equivalence_check(fs, mk: ModelFS, mk1: ModelFS) -> None:
    """Post-crash oracle: recovered state sits between M_k and M_k+1."""
    real_ns = fs_namespace(fs)
    ns_k = mk.namespace()
    ns_k1 = mk1.namespace()
    for path in sorted(set(real_ns) | set(ns_k) | set(ns_k1)):
        r = real_ns.get(path)
        allowed = []
        if path in ns_k:
            allowed.append(ns_k[path])
        if path in ns_k1:
            allowed.append(ns_k1[path])
        if r is None:
            if len(allowed) == 2 and allowed[0] == allowed[1]:
                raise OracleDivergence(
                    f"{path}: committed state lost across the crash "
                    f"(was {_short(allowed[0])})")
            continue
        if not allowed:
            raise OracleDivergence(
                f"{path}: exists after recovery but in neither adjacent "
                f"model state ({_short(r)})")
        if r not in allowed:
            raise OracleDivergence(
                f"{path}: recovered {_short(r)} matches neither "
                f"{_short(allowed[0])} nor "
                f"{_short(allowed[-1]) if len(allowed) > 1 else '-'}")


# ---------------------------------------------------------------- the case


def run_case(ops: list[TraceOp], cfg: Optional[FuzzConfig] = None,
             sweep: bool = True) -> CaseResult:
    """Differential-check one op sequence; optionally sweep crashes."""
    cfg = cfg or FuzzConfig()
    result = CaseResult()

    # ---- clean pass: run everything, drain, full equivalence ----------
    fs = make_fs(cfg)
    model = ModelFS()
    stop_at = len(ops)
    try:
        for i, op in enumerate(ops):
            fs, status = apply_op(fs, model, op)
            if status == "stop":
                stop_at = i
                break
            if status == "ok":
                result.ops_applied += 1
            else:
                result.ops_skipped += 1
        if fs.staging is not None:
            # Destage before the daemon drain: the destaged writes are
            # what enqueue the DWQ nodes the drain must then retire.
            fs.staging.drain_all()
        fs.daemon.drain()
        _settle(fs)
        full_equivalence_check(fs, model)
    except (OracleDivergence, InvariantViolation, AssertionError) as exc:
        result.violations.append(Violation(
            kind="divergence" if isinstance(exc, OracleDivergence)
            else "invariant",
            detail=str(exc), stage="clean",
            op_index=result.ops_applied + result.ops_skipped,
            flight=getattr(exc, "flight_dump", None)
            or fs.obs.flight.dump(reason="fuzz:clean")))
        return result
    except (FSError, Exception) as exc:  # implementation blew up
        result.violations.append(Violation(
            kind="exception",
            detail=f"{type(exc).__name__}: {exc}", stage="clean",
            op_index=result.ops_applied + result.ops_skipped,
            flight=fs.obs.flight.dump(reason="fuzz:exception")))
        return result

    if not sweep:
        return result

    # ---- crash sweeps: all (phase, mode) combos, budget-limited -------
    run_ops = ops[:stop_at]
    model_cache: dict[int, ModelFS] = {}

    def model_at(k: int) -> ModelFS:
        k = max(0, min(k, len(run_ops)))
        if k not in model_cache:
            model_cache[k] = model_after(run_ops[:k])
        return model_cache[k]

    def build():
        case_fs = make_fs(cfg)
        state = {"fs": case_fs, "progress": 0}
        case_fs.dev._fuzz_state = state

        def scenario():
            f = state["fs"]
            m = ModelFS()
            for op in run_ops:
                f, status = apply_op(f, m, op)
                state["fs"] = f
                state["progress"] += 1
                if status == "stop":
                    break
            f.daemon.drain()
            # Clean unmount persists the DWQ save area and the remount
            # checkpoint — sweeping past the drain tears every
            # checkpoint persist event too (recovery must fall back to
            # the full scan when the header or payload is incomplete).
            f.unmount()

        return case_fs.dev, scenario

    def check(dev, point, phase):
        k = dev._fuzz_state["progress"]
        rec = _fs_cls(cfg).mount(dev, cpus=cfg.cpus)
        check_fs_invariants(rec)
        prefix_equivalence_check(rec, model_at(k), model_at(k + 1))
        rec.daemon.drain()
        _settle(rec)  # hybrid: exercise lazy FACT insert post-recovery
        check_fs_invariants(rec)
        if not flags_converged(rec):
            raise InvariantViolation(
                "in_process entries survive recovery + drain")

    sweep_case(cfg, build, check, result)
    return result


def sweep_case(cfg: FuzzConfig, build, check, result: CaseResult) -> None:
    """Crash-sweep one case's scenario in every (phase, mode) of ``cfg``.

    ``build()`` returns ``(dev, scenario)`` on a fresh filesystem;
    ``check(dev, point, phase)`` mounts the crashed device and raises
    on any violation.  The scenario's persist events are counted once
    and the stride is ``total // (budget // combos)``, so ``cfg.budget``
    is split evenly over the combos.  A point counts in
    ``result.crash_points`` when its check starts; a failing check ends
    that mode's sweep with one :class:`Violation`.
    """
    combos = len(cfg.phases) * len(cfg.modes)
    if not combos or cfg.budget <= 0:
        return
    total = count_persist_events(build)
    stride = max(1, total // max(1, cfg.budget // combos))

    def counted(dev, point, phase):
        result.crash_points += 1
        check(dev, point, phase)

    for mode in cfg.modes:
        try:
            sweep_crash_points(build, counted, phases=cfg.phases, mode=mode,
                               stride=stride, seed=cfg.seed, total=total)
        except AssertionError as exc:
            result.violations.append(Violation(
                kind="invariant", detail=str(exc), stage="sweep",
                mode=mode, flight=getattr(exc, "flight_dump", None)))

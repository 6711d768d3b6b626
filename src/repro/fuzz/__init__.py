"""Differential crash-consistency fuzzing for the DeNova stack.

Five pieces, composable from tests and the ``repro fuzz`` CLI:

* :mod:`repro.fuzz.gen` — a seeded generator of op sequences (writes
  with a controlled duplicate ratio via :class:`~repro.workloads.datagen.
  DataGenerator`, namespace churn, reflinks/snapshots, explicit dedup
  drains, remounts) expressed as :class:`~repro.workloads.trace.TraceOp`
  so every sequence is already a serializable trace;
* :mod:`repro.fuzz.model` — a pure-Python model filesystem: the oracle
  for namespace, file contents, hard-link identity, and a lower bound
  on shared-page reference counts;
* :mod:`repro.fuzz.diff` — the differential checker: clean-run
  byte-exact equivalence plus crash-point sweeps through
  :func:`~repro.fuzz.diff.sweep_case`, the one crash-sweep driver (one
  persist-event count per case, stride from the budget), asserting
  :func:`repro.failure.invariants.check_fs_invariants` and
  prefix-equivalence against the model after every recovery;
* :mod:`repro.fuzz.ingest` — the two-image pipelines on the same
  driver: backup ``recv``, and ``recv`` + relocate + restore, checked
  all-or-nothing against the model after every recovery;
* :mod:`repro.fuzz.shrink` / :mod:`repro.fuzz.runner` — ddmin shrinking
  of failing sequences to minimal reproducers, and the campaign driver
  with obs metrics and a reproducer corpus.
"""

from repro.fuzz.diff import (
    CaseResult,
    FuzzConfig,
    OracleDivergence,
    Violation,
    apply_op,
    fs_namespace,
    run_case,
)
from repro.fuzz.gen import (
    GenConfig,
    SequenceGenerator,
    apply_to_model,
    generate_sequence,
    model_after,
)
from repro.fuzz.model import ModelError, ModelFS
from repro.fuzz.ingest import (
    backup_gen_config,
    repl_gen_config,
    run_backup_case,
    run_repl_case,
)
from repro.fuzz.runner import CampaignResult, Failure, FuzzRunner
from repro.fuzz.shrink import shrink, shrink_case

__all__ = [
    "ModelFS", "ModelError",
    "GenConfig", "SequenceGenerator", "generate_sequence",
    "apply_to_model", "model_after",
    "FuzzConfig", "CaseResult", "Violation", "OracleDivergence",
    "apply_op", "run_case", "fs_namespace",
    "shrink", "shrink_case",
    "FuzzRunner", "CampaignResult", "Failure",
    "backup_gen_config", "run_backup_case",
    "repl_gen_config", "run_repl_case",
]

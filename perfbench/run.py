"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload ingest-small --seed 1 \\
        --seconds 20 --trace 0

Each iteration sets the workload up from ``--seed`` ``SETUP_SAMPLES``
times (each timed for ``setup_s``; the last state is kept), runs its
measured pass and checks the outputs; iterations repeat until
``--seconds`` have passed (at least ``MIN_ITERATIONS``).  Every
iteration runs the same inputs, so its simulated metrics and equivalence
digest must repeat the first iteration's exactly; a mismatch is a failed
check.

Wall times are reported twice: as measured (``wall_ops_per_s``,
``setup_wall_s``) and in reference seconds (``ref_ops_per_s``,
``setup_s``), which take out the host's speed drift; see
:class:`RefClock`.  Every figure is a median over the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics of the
traced ones (medians), with ``trace.overhead_ratio`` and
``trace.coverage``; it also writes the spans of the last traced
iteration to ``.perfbench_out/``.

The report lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import pathlib
import resource
import sys
import time
from statistics import median

ROOT = pathlib.Path(__file__).resolve().parent.parent
MIN_ITERATIONS = 3
MIN_TRACED = 2
SETUP_SAMPLES = 5
OUT_DIR = ROOT / ".perfbench_out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

# End-to-end metrics the report prints that BENCHMARK.json does not list.
REPORT_ONLY_UNITS = {
    "wall_ops_per_s": "1/s",
    "setup_wall_s": "s",
    "sim_read_mb_s": "MB/s",
    "sim_op_p50_us": "us",
    "sim_op_p99_us": "us",
    "sim_dedup_drain_ms": "ms",
    "space_amp": "ratio",
    "sim_recovery_us": "us",
    "crash_points_per_s": "1/s",
    "fail_ratio": "ratio",
}


# The shared host's speed drifts by a quarter or more over minutes and
# moves every wall time with it.  A fixed kernel that shares no code with
# the program is timed before and after each timed phase, and the phase's
# wall time is rescaled to "reference seconds": seconds on a host where
# the kernel takes CALIBRATION_REF_S.  Long passes are cut into phases at
# the workload's rounds or cases, so each reading is close to its phase.
CALIBRATION_REF_S = 0.016


def calibration_s() -> float:
    """Wall seconds of a fixed interpreter and SHA-1 kernel."""
    buf = bytes(range(256)) * 16
    table: dict = {}
    t0 = time.perf_counter()
    for i in range(60_000):
        k = i & 511
        table[k] = table.get(k, 0) + len(buf[k:k + 64])
        if i & 63 == 0:
            hashlib.sha1(buf).digest()
    return time.perf_counter() - t0


class RefClock:
    """Times phases in wall and in reference seconds.

    Every phase lies between two calibrations and is rescaled by their
    mean; calibrations are not part of any phase.
    """

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.ref: list[float] = []
        self._cal = calibration_s()
        self._t0 = time.perf_counter()

    def start(self) -> None:
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        wall = time.perf_counter() - self._t0
        cal = calibration_s()
        self.wall.append(wall)
        self.ref.append(wall * 2 * CALIBRATION_REF_S / (self._cal + cal))
        self._cal = cal

    def split(self) -> None:
        """End one phase and start the next."""
        self.stop()
        self.start()


def _no_split() -> None:
    pass


def declared_units(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists for this run."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _import_program():
    """Put the checkout's ``src/`` and the benchmark on the path."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {src}/repro; "
                         f"run from a full checkout\n")
        sys.exit(2)
    sys.path[:0] = [str(src), str(ROOT)]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Iterates one workload and collects per-iteration measurements."""

    def __init__(self, workload, seed: int) -> None:
        from perfbench.probes import Probes
        self.wl = workload
        self.seed = seed
        self.probes = Probes()
        self.first = None           # (sim, digest) of iteration 1
        self.attempted = 0
        self.failures: list[str] = []

    def iterate(self, tracer=None, setups: int = SETUP_SAMPLES) -> dict:
        """Timed set-ups + measured pass + checks; returns its figures."""
        wl, probes = self.wl, self.probes
        probes.op_latency_ns.clear()
        probes.cases.clear()
        setup_clock, state = RefClock(), None
        for _ in range(setups):
            state = None
            gc.collect()
            setup_clock.start()
            state = wl.setup(self.seed)
            setup_clock.stop()
        # A traced pass is one phase: calibrating inside it would add
        # time no layer span covers.
        run_clock = RefClock()
        split = run_clock.split if tracer is None else _no_split
        run_clock.start()
        if tracer is not None:
            tracer.reset()
        ops = wl.run(state, probes, split)
        if tracer is not None:
            tracer.stop()
        run_clock.stop()
        out = wl.check(state, ops, probes)
        self.attempted += out.attempted
        self.failures.extend(out.failures)
        if self.first is None:
            self.first = (out.sim, out.digest)
        elif (out.sim, out.digest) != self.first:
            self.failures.append("simulated metrics or digest differ "
                                 "between iterations of one seed")
        self.attempted += 1     # the repeatability check itself
        return {"setup_s": setup_clock.wall, "ref_setup_s": setup_clock.ref,
                "wall_s": sum(run_clock.wall),
                "ref_wall_s": sum(run_clock.ref), "out": out}


def run_untraced(runner: Runner, seconds: float) -> dict:
    iters = []
    deadline = time.perf_counter() + seconds
    with runner.probes:
        while len(iters) < MIN_ITERATIONS or time.perf_counter() < deadline:
            iters.append(runner.iterate())
    out = iters[0]["out"]
    metrics = dict(out.sim)
    samples = dict(out.samples)
    metrics["wall_ops_per_s"] = median(it["out"].ops / it["wall_s"]
                                       for it in iters)
    metrics["ref_ops_per_s"] = median(it["out"].ops / it["ref_wall_s"]
                                      for it in iters)
    samples["wall_ops_per_s"] = samples["ref_ops_per_s"] = len(iters)
    if out.crash_points:
        metrics["crash_points_per_s"] = median(
            it["out"].crash_points / it["ref_wall_s"] for it in iters)
        samples["crash_points_per_s"] = len(iters)
    metrics["setup_wall_s"] = median(s for it in iters
                                     for s in it["setup_s"])
    setups = [s for it in iters for s in it["ref_setup_s"]]
    metrics["setup_s"] = median(setups)
    samples["setup_s"] = samples["setup_wall_s"] = len(setups)
    metrics["peak_rss_mb"] = _peak_rss_mb()
    samples["peak_rss_mb"] = 1
    return {"metrics": metrics, "samples": samples, "digest": out.digest}


def run_traced(runner: Runner, seconds: float) -> dict:
    from perfbench.layers import layer_metrics
    from perfbench.tracing import LayerTracer

    plain_walls, traced_walls, traced = [], [], []
    tracer = None
    deadline = time.perf_counter() + seconds
    with runner.probes:
        while len(traced) < MIN_TRACED or time.perf_counter() < deadline:
            plain_walls.append(runner.iterate(setups=1)["ref_wall_s"])
            tracer = LayerTracer()
            with tracer:
                it = runner.iterate(tracer, setups=1)
            traced.append(layer_metrics(tracer, it["out"]))
            traced_walls.append(it["ref_wall_s"])
    metrics = {k: median(t[k] for t in traced) for k in traced[0]}
    metrics["trace.overhead_ratio"] = (median(traced_walls)
                                       / median(plain_walls))
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{runner.wl.name}-seed{runner.seed}.jsonl"
    tracer.write_spans(spans)
    samples = {k: len(traced) for k in metrics}
    return {"metrics": metrics, "samples": samples,
            "digest": runner.first[1],
            "spans_file": str(spans.relative_to(ROOT)),
            "spans_dropped": tracer.spans_dropped}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(WORKLOADS)}")
    runner = Runner(WORKLOADS[args.workload](), args.seed)
    run = run_traced if args.trace else run_untraced
    res = run(runner, args.seconds)

    failed = len(runner.failures)
    attempted = max(1, runner.attempted)
    metrics, samples = res["metrics"], res["samples"]
    declared = declared_units(args.trace)
    units = declared if args.trace else {**REPORT_ONLY_UNITS, **declared}
    if not args.trace:
        metrics["fail_ratio"] = failed / attempted
        samples["fail_ratio"] = attempted
    for line in runner.failures[:20]:
        print(f"FAILED {line}")
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}")
    for name in sorted(metrics):
        print(f"  {name:34s} {metrics[name]:>16.6f} "
              f"{units.get(name, '')} (n={samples[name]})")
    print(f"digest {res['digest']}")
    if "spans_file" in res:
        print(f"spans {res['spans_file']} "
              f"(dropped {res['spans_dropped']})")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""matchdna benchmark: one workload, one seed, one closed loop.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  The command sets up the workload's inputs from the seed, then
repeats one operation on them until --seconds have passed (at least two
operations), checks every operation's outputs, and prints two JSON
lines: a full report (machine facts, input properties, every metric
with its unit and sample count, failures), then the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the result carries the end-to-end metrics, measured with
no tracing installed.  With --trace 1 operations alternate untraced and
traced; the result carries the per-layer metrics of the traced ones and
trace.overhead_s, and the spans are written to
.bench_out/spans-<workload>.npz.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
MIN_OPS = 2
SETUP_REPEATS = 5

# name -> unit.  BENCHMARK.json lists the ones every workload reports;
# the stage and quality metrics are reported on the workloads that run the
# stage (see README.md).
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fail_ratio": "failed/attempted",
    "simulate_s": "s",
    "encode_s": "s",
    "train_fmaca_s": "s",
    "mine_s": "s",
    "train_lcs_s": "s",
    "diagnose_s": "s",
    "fmaca_train_accuracy": "fraction",
    "lcs_final_correct": "fraction",
}


def layer_unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_share", "_fraction")):
        return "fraction"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def import_library() -> float:
    """Import matchdna from this checkout's src/; seconds the import took."""
    src = ROOT / "src"
    if not (src / "matchdna" / "__init__.py").is_file():
        sys.exit(f"bench: no matchdna sources under {src}")
    sys.path.insert(0, str(src))
    start = perf_counter()
    import matchdna
    elapsed = perf_counter() - start
    if Path(matchdna.__file__).resolve().parent != src / "matchdna":
        sys.exit(f"bench: imported matchdna from {matchdna.__file__}, not {src}")
    return elapsed


def machine_facts(seed: int) -> dict:
    import numpy
    model = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "seed": seed}


class Session:
    """Counts attempts and failures over one invocation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.first_digest = None

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def run_op(workload, inputs, work: Path, session: Session) -> dict | None:
    """One operation plus its checks.  Returns its measurements, or None
    when a stage raised."""
    from workloads import artifact_bytes, artifact_digest

    stages = {}
    start = perf_counter()
    try:
        outcome = workload.run(inputs, work, stages)
    except Exception as err:  # a failing stage is a counted failure, not a crash
        session.check(False, f"stage after {list(stages)} raised {err!r}")
        return None
    wall = perf_counter() - start
    for name in stages:
        session.check(True, f"stage {name} returned")
    try:
        checks = workload.check(inputs, work, outcome)
    except Exception as err:  # unreadable or inconsistent artifacts
        checks = [(f"checks raised {err!r}", False)]
    for what, ok in checks:
        session.check(ok, what)
    digest = artifact_digest(work)
    if session.first_digest is None:
        session.first_digest = digest
    else:
        session.check(digest == session.first_digest,
                      "artifacts differ from the first run of this seed")
    return {"wall": wall, "stages": stages, "quality": outcome.quality,
            "players": outcome.players, "artifact_bytes": artifact_bytes(work)}


def benchmark_metrics(kind: str) -> list:
    """Metric names BENCHMARK.json lists under `kind`."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def _mean(values):
    """Per-operation mean, i.e. measured time over operations completed.

    On a shared VM whose CPU speed switches between two levels every few
    seconds, the median of a run's handful of operations jumps between the
    levels; the mean moves only with the share of time spent at each (see
    README.md).
    """
    return statistics.fmean(values) if values else 0.0


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        size: str = "full", import_s: float = 0.0) -> dict:
    """Measure one workload; prints the report and result lines and returns
    the result."""
    import workloads

    workload = workloads.make_workload(workload_name, size)
    work = OUT / "work" / workload_name
    shutil.rmtree(work, ignore_errors=True)

    session = Session()
    # set-up: the workload's inputs, built several times; import once
    gen_times, inputs = [], None
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        built = workload.make_inputs(seed, work)
        gen_times.append(perf_counter() - start)
        if inputs is not None:
            session.check(repr(built) == repr(inputs),
                          "inputs rebuilt from the seed differ")
        inputs = built
    config = inputs if isinstance(inputs, dict) else None

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()

    properties = {}
    plain, traced = [], []
    loop_start = perf_counter()
    n = 0
    while n < MIN_OPS or perf_counter() - loop_start < seconds:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        use_trace = tracer is not None and n % 2 == 1
        if use_trace:
            tracer.install(run_id=n)
        try:
            op = run_op(workload, inputs, work, session)
        finally:
            if use_trace:
                tracer.uninstall()
        if op is not None:
            if not properties:
                properties = workloads.input_properties(op["players"] or [],
                                                        config, work)
            if use_trace:
                op["layers"] = tracer.layer_metrics(n)
            (traced if use_trace else plain).append(op)
        n += 1
    shutil.rmtree(work, ignore_errors=True)

    ops = plain + traced

    values = {
        "wall_s": (_mean([op["wall"] for op in plain]), len(plain)),
        "setup_s": (import_s + statistics.median(gen_times), len(gen_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "fail_ratio": (session.failed / max(1, session.attempted), session.attempted),
    }
    for stage, metric in workload.stage_metrics.items():
        times = [op["stages"][stage] for op in plain if stage in op["stages"]]
        values[metric] = (_mean(times), len(times))
    if ops:
        for metric, value in ops[0]["quality"].items():
            values[metric] = (value, len(ops))

    report = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "size": size, "machine": machine_facts(seed),
        "inputs": properties, "ops": len(plain), "traced_ops": len(traced),
        "op_walls": [op["wall"] for op in plain],
        "import_s": import_s, "artifact_digest": session.first_digest,
        "failures": session.failures,
        "metrics": {name: {"value": v, "unit": END_TO_END[name], "samples": k}
                    for name, (v, k) in values.items()},
    }

    if trace:
        layers = {}
        if traced:
            for name in traced[0]["layers"]:
                layers[name] = _mean([op["layers"][name] for op in traced])
            layers["sequences.non_idle_fraction"] = properties.get(
                "non_idle_fraction", 0.0)
            layers["pipeline.artifact_bytes"] = traced[0]["artifact_bytes"] \
                if config is not None else 0
            layers["trace.overhead_s"] = _mean([op["wall"] for op in traced]) - \
                values["wall_s"][0]
        report["layers"] = {name: {"value": v, "unit": layer_unit(name),
                                   "samples": len(traced)}
                            for name, v in layers.items()}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload_name}.npz")
        # with no successful traced operation the run is incorrect and its
        # per-layer values are reported as 0
        result_metrics = {name: {"value": layers.get(name, 0), "unit": layer_unit(name)}
                          for name in benchmark_metrics("per_layer")}
    else:
        result_metrics = {name: {"value": values[name][0], "unit": END_TO_END[name]}
                          for name in benchmark_metrics("end_to_end")}

    result = {"correct": session.failed == 0 and bool(ops),
              "attempted": session.attempted, "failed": session.failed,
              "metrics": result_metrics}
    print(json.dumps({"report": report}), flush=True)
    print(json.dumps(result), flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline", "corpus", "dense"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_s = import_library()
    run(args.workload, args.seed, args.seconds, bool(args.trace), import_s=import_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())

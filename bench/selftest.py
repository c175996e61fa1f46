#!/usr/bin/env python3
"""Self-test of the benchmark itself, in well under a minute:

    python3 bench/selftest.py

- BENCHMARK.json's metric units agree with the ones the code prints.
- Every workload runs at smoke size, untraced and traced, with no
  failure, and prints every metric it owes with its unit.
- An artifact altered between two operations of one seed, and a stage
  that raises, are counted as failures.
- In a directory holding only BENCHMARK.json and bench/, the command
  exits non-zero without printing a result.

Exits 0 when all hold; otherwise prints each problem and exits 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run as bench

# end-to-end metrics each workload must report (see README.md)
COMMON = ["wall_s", "setup_s", "peak_rss_mb", "fail_ratio"]
EXPECTED_END_TO_END = {
    "pipeline": COMMON + ["simulate_s", "train_fmaca_s",
                          "fmaca_train_accuracy", "lcs_final_correct"],
    "corpus": COMMON + ["simulate_s", "encode_s"],
    "dense": COMMON + ["mine_s", "train_lcs_s", "diagnose_s", "lcs_final_correct"],
}

EXPECTED_LAYERS = [
    "fuzzy_ca.terminal_states.calls", "fuzzy_ca.terminal_states.rows",
    "fuzzy_ca.terminal_states.self_s",
    "fuzzy_ca.terminal_states.diagnostics_share",
    "fuzzy_ca.RuleSet.apply.calls", "fuzzy_ca.RuleSet.apply.rows",
    "fuzzy_ca.RuleSet.apply.s", "fuzzy_ca.RuleSet.apply.diagnostics_share",
    "attractor_tree.fitness.calls", "attractor_tree.fitness.self_s",
    "attractor_tree.fitness.per_s", "attractor_tree.fitness.unique_ratio",
    "attractor_tree.build_tree.s", "attractor_tree.group_basins.s",
    "attractor_tree.classify_batch.s",
    "simulator.run_match.calls", "simulator.run_match.s", "simulator.cycles",
    "simulator.cycles_per_s", "simulator.World.step.s",
    "simulator.World.snapshot.s", "simulator.World.submit_command.s",
    "simulator.World.deliver_perceptions.s",
    "shooting.ShootingPolicy.act.calls", "shooting.ShootingPolicy.act.s",
    "simulator.save_match_log.s", "simulator.save_match_log.bytes",
    "simulator.load_match_log.s", "simulator.load_match_log.bytes",
    "sequences.encode_game.s", "sequences.encode_player.s",
    "sequences.write_fasta.s", "sequences.read_fasta.s",
    "sequences.windows", "sequences.non_idle_fraction",
    "mining.mine_report.s", "mining.mine_report.rows",
    "mining.mine_report.tandem_runs", "mining.motif_occurrence_rate.s",
    "classifier_system.train.s", "classifier_system.iterations",
    "classifier_system.iters_per_s", "classifier_system.match_set.s",
    "classifier_system.ga_discover.s", "classifier_system.covering.calls",
    "diagnostics.ga_diagnostics.s", "diagnostics.measure_entropy.s",
    "diagnostics.measure_mi.s", "diagnostics.rule_vector_diagnostics.calls",
    "pipeline.simulate.s", "pipeline.encode.s", "pipeline.mine.s",
    "pipeline.train-fmaca.s", "pipeline.train-lcs.s", "pipeline.diagnose.s",
    "pipeline.artifact_bytes", "trace.overhead_s",
]

SEED = 7


def smoke(workload: str, trace: bool):
    """Run one workload at smoke size; (result, report) as printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        bench.run(workload, SEED, seconds=0, trace=trace, size="smoke")
    lines = out.getvalue().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def check_spec(problems: list):
    with open(bench.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for m in spec["end_to_end"]:
        if bench.END_TO_END.get(m["name"]) != m["unit"]:
            problems.append(f"BENCHMARK.json unit of {m['name']} is not the printed one")
    for m in spec["per_layer"]:
        if m["name"] not in EXPECTED_LAYERS or bench.layer_unit(m["name"]) != m["unit"]:
            problems.append(f"BENCHMARK.json per-layer {m['name']} is not printed "
                            f"with unit {m['unit']}")
    return spec


def check_workload(name: str, trace: bool, spec: dict, problems: list):
    result, report = smoke(name, trace)
    tag = f"{name} trace={int(trace)}"
    if not result["correct"] or result["failed"]:
        problems.append(f"{tag}: failures {report['failures']}")
    for metric in EXPECTED_END_TO_END[name]:
        printed = report["metrics"].get(metric)
        if printed is None or printed["unit"] != bench.END_TO_END[metric]:
            problems.append(f"{tag}: end-to-end {metric} missing or without its unit")
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(wanted):
        problems.append(f"{tag}: result metrics {sorted(result['metrics'])} "
                        f"!= BENCHMARK.json {sorted(wanted)}")
    if trace:
        for metric in EXPECTED_LAYERS:
            printed = report["layers"].get(metric)
            if printed is None or printed["unit"] != bench.layer_unit(metric):
                problems.append(f"{tag}: per-layer {metric} missing or without its unit")
    for metric in result["metrics"].values():
        if not isinstance(metric["value"], (int, float)):
            problems.append(f"{tag}: non-numeric metric value {metric}")


def check_tampering(problems: list):
    """An artifact altered on the second operation, and a raising stage,
    must both count as failures."""
    import workloads
    original = workloads.CorpusWorkload.run
    calls = []

    def altered(self, inputs, out_dir, stages):
        outcome = original(self, inputs, out_dir, stages)
        calls.append(out_dir)
        if len(calls) == 2:
            with open(out_dir / "mining" / "report.json", "a") as fh:
                fh.write(" ")
        return outcome

    def raising(self, inputs, out_dir, stages):
        raise RuntimeError("deliberate stage failure")

    for patched, expect in ((altered, "artifacts differ"), (raising, "raised")):
        workloads.CorpusWorkload.run = patched
        try:
            result, report = smoke("corpus", trace=False)
        finally:
            workloads.CorpusWorkload.run = original
        if result["correct"] or not result["failed"] or \
                not any(expect in f for f in report["failures"]):
            problems.append(f"tampering ({expect}) was not counted as a failure: "
                            f"{result}")


def check_bare_directory(problems: list):
    bare = bench.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("bare directory run did not fail without a result")


def main() -> int:
    bench.import_library()
    problems = []
    spec = check_spec(problems)
    for name in EXPECTED_END_TO_END:
        for trace in (False, True):
            check_workload(name, trace, spec, problems)
    check_tampering(problems)
    check_bare_directory(problems)
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

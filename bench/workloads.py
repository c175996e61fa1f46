"""The benchmark's three workloads.

Each workload turns the benchmark seed into inputs (`make_inputs`), runs
one timed operation on them (`run`), and checks the operation's outputs
(`check`).  The library only ever sees the generated inputs: a resolved
pipeline config, or a synthetic letter corpus.

Stage functions are called through their module (`pipeline.run_stage`,
`mining.mine_report`, ...) so that the traced run can wrap them.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from matchdna import (
    attractor_tree,
    classifier_system,
    diagnostics,
    mining,
    pipeline,
    sequences,
)

IDLE = sequences.IDLE
FMACA_WINDOW = pipeline.DEFAULT_CONFIG["train_fmaca"]["window"]
LOOKBACK = pipeline.DEFAULT_CONFIG["mine"]["lookback"]
TOP_PATTERNS = pipeline.DEFAULT_CONFIG["mine"]["top_patterns"]

# Sizes.  "full" is what the benchmark measures; "smoke" is the self-test's
# seconds-long version of the same code paths.  Pipeline and corpus sizes
# are pipeline config overrides on top of the default config.
SIZES = {
    "full": {
        "pipeline": {"simulate": {"matches": 10}},
        "corpus": {"simulate": {"matches": 16}},
        # the learners use the pipeline's train-lcs and diagnose defaults,
        # and the diagnostics probes DiagnosticsConfig's defaults (10k steps)
        "dense": {"sequences": 400, "length": 100, "event_gap": 10,
                  "lcs": {}, "n_cells": 8,
                  "ga": {"population_size": 30, "generations": 12},
                  "diag": {}},
    },
    "smoke": {
        "pipeline": {"simulate": {"matches": 1, "cycles": 200},
                     "train_fmaca": {"population_size": 6, "generations": 2},
                     "train_lcs": {"iters": 2000, "ga_period": 500},
                     "diagnose": {"population_size": 6, "generations": 2,
                                  "run_steps": 40, "trials": 2}},
        "corpus": {"simulate": {"matches": 2, "cycles": 200}},
        "dense": {"sequences": 20, "length": 40, "event_gap": 10,
                  "lcs": {"max_iterations": 2000, "ga_period": 500},
                  "n_cells": 6,
                  "ga": {"population_size": 6, "generations": 2},
                  "diag": {"window": 10, "run_steps": 60, "trials": 2}},
    },
}

# Share of each label's dense events planted with each motif template;
# the remainder stays background letters.
PLANT_WEIGHTS = {
    mining.GOAL: {"TCCCT": 0.35, "CACCT": 0.25, "CxCCT": 0.15, "CCAT": 0.10},
    mining.THREAT: {"CTCCC": 0.35, "CCACC": 0.25, "CCxCC": 0.15, "GCAC": 0.10},
}
DENSE_IDLE = 0.15


def derived_seed(seed: int, salt: int) -> int:
    """A 32-bit seed for one workload, far from any other workload's and
    from the neighbouring benchmark seeds (per-match seeds count up from
    it)."""
    return int(np.random.SeedSequence([seed % 2**32, salt]).generate_state(1)[0])


def default_learner_seeds() -> dict:
    """The learners' seeds in the default config (config seed 0)."""
    config = pipeline.resolve_config()
    return {stage: config[stage]["seed"]
            for stage in ("train_fmaca", "train_lcs", "diagnose")}


@dataclass
class Outcome:
    """What an operation leaves for the checks and the report."""
    stages: dict            # stage name -> seconds
    quality: dict           # quality metric name -> value
    players: list | None = None


# ----- shared checks and facts ------------------------------------------------

def artifact_digest(out_dir: Path) -> str:
    """SHA-256 over every artifact file (path and bytes), leaving out the two
    fields documented to vary between runs: the manifest's created_at and
    the resolved config's out_dir."""
    varying = {"manifest.json": "created_at", "config.resolved.json": "out_dir"}
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(out_dir).as_posix()
        data = path.read_bytes()
        if rel in varying:
            doc = json.loads(data)
            doc.pop(varying[rel], None)
            data = json.dumps(doc, sort_keys=True).encode()
        h.update(rel.encode() + b"\0" + len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def artifact_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def log_checks(out_dir: Path) -> list:
    """One (name, ok) check per match log: its closing line says valid."""
    checks = []
    for path in sorted((out_dir / "logs").glob("*.jsonl")):
        with open(path, "rb") as fh:
            fh.seek(max(0, path.stat().st_size - 4096))
            tail = fh.read().splitlines()[-1]
        checks.append((f"log {path.name} valid",
                       json.loads(tail).get("valid") is True))
    return checks


def fmaca_training_set(players, window: int = FMACA_WINDOW):
    """The distinct (window text, label) pairs train-fmaca learns from, in
    the order the stage builds them."""
    samples = pipeline._motif_windows(window) + \
        pipeline._corpus_windows(players, window)
    return list(dict.fromkeys(samples))


def input_properties(players, config: dict | None, out_dir: Path) -> dict:
    letters = sum(len(s.letters) for s in players)
    idle = sum(s.letters.count(IDLE) for s in players)
    training = fmaca_training_set(players)
    labels_of = {}
    for text, label in training:
        labels_of.setdefault(text, set()).add(label)
    sim = config["simulate"] if config else {"matches": 0, "cycles": 0}
    logs = out_dir / "logs"
    return {
        "matches": int(sim["matches"]),
        "cycles": int(sim["matches"]) * int(sim["cycles"]),
        "player_letters": letters,
        "non_idle_fraction": (letters - idle) / letters if letters else 0.0,
        "fmaca_windows": len(labels_of),
        "fmaca_windows_both_labels": sum(len(v) > 1 for v in labels_of.values()),
        "log_bytes": sum(p.stat().st_size for p in logs.glob("*.jsonl"))
        if logs.is_dir() else 0,
    }


def _run_stages(names, config: dict, out_dir: Path, stages: dict):
    pipeline.write_resolved_config(config, out_dir)
    for name in names:
        start = perf_counter()
        pipeline.run_stage(name, config, out_dir)
        stages[name] = perf_counter() - start


# ----- pipeline -----------------------------------------------------------------

class PipelineWorkload:
    """All six stages through pipeline.run_stage with the default config,
    except a reduced match count.

    The seed picks the seeds of the two cheap learners, train-lcs and
    diagnose.  The simulated matches and the train-fmaca seed stay the
    default config's: train-fmaca's cost follows the corpus so closely
    (the whole pipeline took 16-31 s over five independent 10-match
    corpora, see README.md) that no run short enough for the benchmark
    could average it out across seeds."""

    name = "pipeline"
    stage_metrics = {"simulate": "simulate_s", "train-fmaca": "train_fmaca_s"}

    def __init__(self, size: dict):
        self.size = size

    def make_inputs(self, seed: int, out_dir: Path) -> dict:
        overrides = copy.deepcopy(self.size)
        for stage in ("train_lcs", "diagnose"):
            overrides.setdefault(stage, {})["seed"] = derived_seed(seed, 0)
        return pipeline.resolve_config({"out_dir": str(out_dir)}, overrides)

    def run(self, config: dict, out_dir: Path, stages: dict) -> Outcome:
        _run_stages(pipeline.STAGES, config, out_dir, stages)
        with open(out_dir / "fmaca" / "metrics.json") as fh:
            accuracy = json.load(fh)["training_accuracy"]
        return Outcome(stages, {"fmaca_train_accuracy": accuracy,
                                "lcs_final_correct": _last_curve_point(out_dir)})

    def check(self, config: dict, out_dir: Path, outcome: Outcome) -> list:
        checks = log_checks(out_dir)
        manifest = pipeline.load_manifest(out_dir / "manifest.json")
        _games, players = pipeline._load_corpus(out_dir, manifest)
        outcome.players = players
        checks.extend(fmaca_checks(out_dir, players))
        return checks


def fmaca_checks(out_dir: Path, players) -> list:
    """tree.json round-trips through load_tree, and classify_batch on the
    training set reproduces the recorded training accuracy."""
    tree_path = out_dir / "fmaca" / "tree.json"
    with open(tree_path) as fh:
        stored = json.load(fh)
    tree = attractor_tree.load_tree(tree_path)
    round_trip = json.loads(json.dumps(attractor_tree.tree_to_dict(tree))) == stored

    training = fmaca_training_set(players, tree.window)
    name_to_id = {name: cid for cid, name in tree.class_names.items()}
    patterns = np.array([attractor_tree.encode_window(t) for t, _ in training])
    wanted = np.array([name_to_id[label] for _, label in training])
    accuracy = float((attractor_tree.classify_batch(tree, patterns) == wanted).mean())
    with open(out_dir / "fmaca" / "metrics.json") as fh:
        recorded = json.load(fh)
    return [
        ("fmaca tree round-trips through load_tree", round_trip),
        ("fmaca training set size matches metrics.json",
         recorded["n_windows"] == len(training)),
        ("classify_batch reproduces training_accuracy",
         round(accuracy, 6) == recorded["training_accuracy"]),
    ]


def _last_curve_point(out_dir: Path) -> float:
    with open(out_dir / "lcs" / "curve.csv") as fh:
        rows = fh.read().splitlines()
    return float(rows[-1].split(",")[1])


# ----- corpus --------------------------------------------------------------------

class CorpusWorkload:
    """simulate -> encode -> mine on more matches than `pipeline`, no
    learners: simulator, shooting policy and JSONL log I/O do the work."""

    name = "corpus"
    stage_metrics = {"simulate": "simulate_s", "encode": "encode_s"}

    def __init__(self, size: dict):
        self.size = size

    def make_inputs(self, seed: int, out_dir: Path) -> dict:
        overrides = copy.deepcopy(self.size)
        overrides["simulate"]["master_seed"] = derived_seed(seed, 1)
        return pipeline.resolve_config({"out_dir": str(out_dir)}, overrides)

    def run(self, config: dict, out_dir: Path, stages: dict) -> Outcome:
        _run_stages(("simulate", "encode", "mine"), config, out_dir, stages)
        return Outcome(stages, {})

    def check(self, config: dict, out_dir: Path, outcome: Outcome) -> list:
        manifest = pipeline.load_manifest(out_dir / "manifest.json")
        _games, outcome.players = pipeline._load_corpus(out_dir, manifest)
        return log_checks(out_dir)


# ----- dense ---------------------------------------------------------------------

@dataclass
class DenseInputs:
    corpus: list            # AnnotatedSequence per synthetic player
    planted: dict           # template -> (events planted with it, events of its label)
    lcs: object             # LcsConfig
    ga: object              # GaConfig for ga_diagnostics
    diag: object            # DiagnosticsConfig
    n_cells: int


def dense_corpus(seed: int, n_sequences: int, length: int, event_gap: int):
    """Mostly non-idle letter sequences with goal/threat events every
    `event_gap` letters; most events have a motif template planted so that
    it ends in the event's window.  Returns (corpus, {template: (events
    planted with it, events of its label)})."""
    rng = np.random.default_rng(derived_seed(seed, 2))
    alphabet = np.array(list("ACGT" + IDLE))
    probs = [(1.0 - DENSE_IDLE) / 4] * 4 + [DENSE_IDLE]
    events_per_label = {label: 0 for label in PLANT_WEIGHTS}
    planted = {t: 0 for weights in PLANT_WEIGHTS.values() for t in weights}
    corpus = []
    for i in range(n_sequences):
        letters = list(rng.choice(alphabet, size=length, p=probs))
        events = []
        for index in range(event_gap - 1, length, event_gap):
            label = mining.GOAL if rng.random() < 0.5 else mining.THREAT
            events_per_label[label] += 1
            events.append((index, label))
            templates = list(PLANT_WEIGHTS[label])
            weights = list(PLANT_WEIGHTS[label].values())
            pick = rng.choice(len(templates) + 1, p=weights + [1.0 - sum(weights)])
            if pick == len(templates):
                continue
            template = templates[pick]
            start = index + 1 - len(template)
            for offset, ch in enumerate(template):
                letters[start + offset] = "ACGT"[rng.integers(4)] \
                    if ch == mining.WILDCARD else ch
            planted[template] += 1
        corpus.append(mining.AnnotatedSequence(
            f"player:{i}@dense", "".join(letters), events))
    counts = {template: (planted[template], events_per_label[label])
              for label, weights in PLANT_WEIGHTS.items() for template in weights}
    return corpus, counts


class DenseWorkload:
    """A seeded synthetic player-letter corpus that carries signal, fed to
    mine_report / motif_occurrence_rate, to the classifier system over
    SequenceReplayEnvironment, and to ga_diagnostics."""

    name = "dense"
    stage_metrics = {"mine": "mine_s", "train-lcs": "train_lcs_s",
                     "diagnose": "diagnose_s"}

    def __init__(self, size: dict):
        self.size = size

    def make_inputs(self, seed: int, out_dir: Path) -> DenseInputs:
        size = self.size
        corpus, planted = dense_corpus(seed, size["sequences"], size["length"],
                                       size["event_gap"])
        learners = default_learner_seeds()
        lcs = pipeline._lcs_config({**pipeline.DEFAULT_CONFIG["train_lcs"],
                                    "seed": learners["train_lcs"]})
        if size["lcs"]:
            lcs = classifier_system.LcsConfig(**{**vars(lcs), **size["lcs"]})
        return DenseInputs(
            corpus=corpus, planted=planted, lcs=lcs,
            ga=attractor_tree.GaConfig(rng_seed=learners["diagnose"], **size["ga"]),
            diag=diagnostics.DiagnosticsConfig(rng_seed=learners["diagnose"],
                                               **size["diag"]),
            n_cells=size["n_cells"])

    def run(self, inputs: DenseInputs, out_dir: Path, stages: dict) -> Outcome:
        corpus = inputs.corpus
        start = perf_counter()
        report = mining.mine_report([(s.sequence_id, s.letters) for s in corpus],
                                    mining.PatternQuery(2, 5))
        rates = {m.template: mining.motif_occurrence_rate(corpus, m, LOOKBACK)
                 for m in mining.DEFAULT_MOTIFS}
        stages["mine"] = perf_counter() - start

        start = perf_counter()
        totals = {}
        for pattern, count, _seq_id in report.rows:
            totals[pattern] = totals.get(pattern, 0) + count
        top = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_PATTERNS]
        stats = classifier_system.MinerStats(patterns=top,
                                             motifs=list(mining.DEFAULT_MOTIFS))
        env = classifier_system.SequenceReplayEnvironment(corpus, inputs.lcs, stats)
        population, curve = classifier_system.train(env, inputs.lcs)
        stages["train-lcs"] = perf_counter() - start

        start = perf_counter()
        rows = diagnostics.ga_diagnostics(inputs.n_cells, inputs.ga, inputs.diag)
        stages["diagnose"] = perf_counter() - start

        _write(out_dir / "mining" / "report.json", json.dumps(
            {"patterns": top, "tandem_runs": len(report.tandem_runs),
             "motif_rates": rates}, indent=1, sort_keys=True) + "\n")
        _write(out_dir / "lcs" / "population.csv",
               classifier_system.population_to_csv(population))
        _write(out_dir / "lcs" / "curve.csv", classifier_system.curve_to_csv(curve))
        _write(out_dir / "diagnostics" / "ga_diagnostics.csv",
               diagnostics.diagnostics_to_csv(rows))
        return Outcome(stages, {"lcs_final_correct": curve.points[-1][1]},
                       players=corpus)

    def check(self, inputs: DenseInputs, out_dir: Path, outcome: Outcome) -> list:
        with open(out_dir / "mining" / "report.json") as fh:
            rates = json.load(fh)["motif_rates"]
        # rate is the percentage of the label's events with a match in
        # their lookback window; every planted event has one
        return [(f"motif {template} rate >= planted share",
                 round(rates[template] * events / 100.0) >= planted)
                for template, (planted, events) in sorted(inputs.planted.items())]


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


WORKLOADS = {w.name: w for w in (PipelineWorkload, CorpusWorkload, DenseWorkload)}


def make_workload(name: str, size: str = "full"):
    return WORKLOADS[name](SIZES[size][name])
